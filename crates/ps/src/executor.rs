//! Per-node subtask executors.
//!
//! Each node runs one CPU executor with a single worker thread (one COMP
//! subtask at a time) and one COMM executor with two worker threads
//! (primary + secondary network subtask, §IV-A). Tasks are closures
//! pulled FIFO from a crossbeam channel; the executor records peak
//! observed concurrency so tests can assert the discipline held.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

/// A task: a shared closure, so resubmitting it only bumps a refcount
/// and a steady-state training iteration enqueues tasks without heap
/// allocation.
type Task = Arc<dyn Fn() + Send + Sync + 'static>;

/// Runtime statistics of one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Tasks executed to completion.
    pub completed: usize,
    /// Highest number of tasks that ever ran concurrently.
    pub peak_concurrency: usize,
    /// Always `0`: the executor has no way to cancel a queued task.
    /// Kept so reports that sum it stay well-formed.
    pub aborted: usize,
    /// Always `0`: the executor never re-attempts a task. Kept so
    /// reports that sum it stay well-formed.
    pub retries: usize,
}

struct Shared {
    running: AtomicUsize,
    peak: AtomicUsize,
    completed: AtomicUsize,
}

/// A fixed-concurrency FIFO task executor.
///
/// # Examples
///
/// ```
/// use std::sync::{mpsc, Arc};
///
/// use harmony_ps::Executor;
///
/// let exec = Executor::new("cpu", 1);
/// let (tx, rx) = mpsc::channel();
/// let task: Arc<dyn Fn() + Send + Sync> = Arc::new(move || tx.send(21 * 2).unwrap());
/// exec.submit_shared(&task);
/// assert_eq!(rx.recv().unwrap(), 42);
/// exec.shutdown();
/// ```
pub struct Executor {
    sender: Option<Sender<Task>>,
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    concurrency: usize,
}

impl Executor {
    /// Spawns an executor with `concurrency` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero.
    pub fn new(name: &str, concurrency: usize) -> Self {
        assert!(concurrency > 0, "executor needs at least one thread");
        let (sender, receiver) = unbounded::<Task>();
        let shared = Arc::new(Shared {
            running: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
        });
        let mut threads = Vec::with_capacity(concurrency);
        for i in 0..concurrency {
            let rx = receiver.clone();
            let shared = Arc::clone(&shared);
            let thread_name = format!("{name}-{i}");
            threads.push(
                std::thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            let now = shared.running.fetch_add(1, Ordering::SeqCst) + 1;
                            shared.peak.fetch_max(now, Ordering::SeqCst);
                            task();
                            shared.running.fetch_sub(1, Ordering::SeqCst);
                            shared.completed.fetch_add(1, Ordering::SeqCst);
                            // Book the completion *before* letting go of
                            // the `Arc`: whoever sees the last clone
                            // released also sees the counters settled.
                            drop(task);
                        }
                    })
                    .expect("spawning executor thread"),
            );
        }
        Self {
            sender: Some(sender),
            threads,
            shared,
            concurrency,
        }
    }

    /// Number of worker threads (the concurrency cap).
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Enqueues a long-lived shared task; it runs as soon as a worker
    /// thread frees up. Resubmitting the same `Arc` every iteration
    /// performs no heap allocation — the PS runtime builds each
    /// worker's subtask closures once and re-enqueues them for the
    /// job's whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Executor::shutdown`].
    pub fn submit_shared(&self, task: &Arc<dyn Fn() + Send + Sync + 'static>) {
        self.sender
            .as_ref()
            .expect("executor was shut down")
            .send(Arc::clone(task))
            .expect("executor threads alive");
    }

    /// Snapshot of the executor's statistics.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            completed: self.shared.completed.load(Ordering::SeqCst),
            peak_concurrency: self.shared.peak.load(Ordering::SeqCst),
            aborted: 0,
            retries: 0,
        }
    }

    /// Drains outstanding tasks, joins the worker threads, and returns
    /// the final statistics.
    pub fn shutdown(mut self) -> ExecutorStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        if let Some(sender) = self.sender.take() {
            drop(sender); // closes the channel; workers drain and exit
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("concurrency", &self.concurrency)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn task(f: impl Fn() + Send + Sync + 'static) -> Task {
        Arc::new(f)
    }

    #[test]
    fn runs_all_tasks() {
        let exec = Executor::new("t", 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            exec.submit_shared(&task(move || tx.send(i).unwrap()));
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        exec.shutdown();
    }

    #[test]
    fn single_thread_never_overlaps() {
        let exec = Executor::new("cpu", 1);
        let (tx, rx) = mpsc::channel();
        let sleepy = task(move || {
            std::thread::sleep(Duration::from_millis(2));
            tx.send(()).unwrap();
        });
        for _ in 0..8 {
            exec.submit_shared(&sleepy);
        }
        assert_eq!(rx.iter().take(8).count(), 8);
        let stats = exec.shutdown();
        assert_eq!(stats.peak_concurrency, 1);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn two_threads_reach_but_never_exceed_two() {
        let exec = Executor::new("comm", 2);
        let (tx, rx) = mpsc::channel();
        let sleepy = task(move || {
            std::thread::sleep(Duration::from_millis(3));
            tx.send(()).unwrap();
        });
        for _ in 0..16 {
            exec.submit_shared(&sleepy);
        }
        assert_eq!(rx.iter().take(16).count(), 16);
        let stats = exec.shutdown();
        let peak = stats.peak_concurrency;
        assert!(peak <= 2, "peak {peak}");
        assert_eq!(peak, 2, "secondary slot never engaged");
        assert_eq!((stats.aborted, stats.retries), (0, 0));
    }

    #[test]
    fn drop_joins_threads() {
        let (tx, rx) = mpsc::channel();
        {
            let exec = Executor::new("d", 1);
            let tx = tx.clone();
            exec.submit_shared(&task(move || tx.send(1).unwrap()));
            // exec dropped here; drop must drain the queue first.
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_concurrency_rejected() {
        let _ = Executor::new("bad", 0);
    }
}
