//! Per-node subtask executors.
//!
//! Each node runs one CPU executor with a single worker thread (one COMP
//! subtask at a time) and one COMM executor with two worker threads
//! (primary + secondary network subtask, §IV-A). Tasks are closures
//! pulled FIFO from a crossbeam channel; the executor records peak
//! observed concurrency so tests can assert the discipline held.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

/// A task body: boxed one-shot closures for ordinary submissions, or a
/// shared `Arc` closure for [`Executor::submit_shared`] — resubmitting
/// the latter only bumps a refcount, so a steady-state training
/// iteration enqueues tasks without heap allocation.
enum TaskBody {
    Once(Box<dyn FnOnce() + Send + 'static>),
    Shared(Arc<dyn Fn() + Send + Sync + 'static>),
}

impl TaskBody {
    /// Runs the body and hands a shared one back undropped: the worker
    /// books the completion *before* it lets go of the `Arc`, so whoever
    /// sees the last clone released also sees the counters settled.
    fn run(self) -> Option<Arc<dyn Fn() + Send + Sync + 'static>> {
        match self {
            TaskBody::Once(f) => {
                f();
                None
            }
            TaskBody::Shared(f) => {
                f();
                Some(f)
            }
        }
    }
}

struct Task {
    /// Set by an [`AbortHandle`]; checked once, at dequeue time.
    abort: Option<Arc<AtomicBool>>,
    run: TaskBody,
}

/// Runtime statistics of one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Tasks executed to completion.
    pub completed: usize,
    /// Highest number of tasks that ever ran concurrently.
    pub peak_concurrency: usize,
    /// Tasks dropped before starting because their handle was aborted
    /// (a fault cancelled the subtask while it sat in the queue).
    pub aborted: usize,
    /// Failed attempts that were retried by [`Executor::submit_with_retry`].
    pub retries: usize,
}

/// Cancels a not-yet-started task submitted with
/// [`Executor::submit_abortable`]. Abort is checked when the task is
/// dequeued: a task already running is not interrupted (subtasks are
/// the atom of work — §IV-A), but a queued one is dropped and counted
/// in [`ExecutorStats::aborted`].
#[derive(Debug, Clone)]
pub struct AbortHandle {
    flag: Arc<AtomicBool>,
}

impl AbortHandle {
    /// Requests cancellation of the associated task.
    pub fn abort(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`AbortHandle::abort`] has been called.
    pub fn is_aborted(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

struct Shared {
    running: AtomicUsize,
    peak: AtomicUsize,
    completed: AtomicUsize,
    aborted: AtomicUsize,
    retries: AtomicUsize,
}

/// A fixed-concurrency FIFO task executor.
///
/// # Examples
///
/// ```
/// use harmony_ps::Executor;
///
/// let exec = Executor::new("cpu", 1);
/// let (tx, rx) = std::sync::mpsc::channel();
/// exec.submit(move || tx.send(21 * 2).unwrap());
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
            aborted: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
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
                            if task
                                .abort
                                .as_ref()
                                .is_some_and(|f| f.load(Ordering::SeqCst))
                            {
                                shared.aborted.fetch_add(1, Ordering::SeqCst);
                                continue;
                            }
                            let now = shared.running.fetch_add(1, Ordering::SeqCst) + 1;
                            shared.peak.fetch_max(now, Ordering::SeqCst);
                            let spent = task.run.run();
                            shared.running.fetch_sub(1, Ordering::SeqCst);
                            shared.completed.fetch_add(1, Ordering::SeqCst);
                            drop(spent);
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

    /// Enqueues a task; it runs as soon as a worker thread frees up.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Executor::shutdown`].
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.send(Task {
            abort: None,
            run: TaskBody::Once(Box::new(task)),
        });
    }

    /// Enqueues a long-lived shared task. Unlike [`Executor::submit`],
    /// resubmitting the same `Arc` every iteration performs no heap
    /// allocation — the fast PS runtime builds each worker's subtask
    /// closures once and re-enqueues them for the job's whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Executor::shutdown`].
    pub fn submit_shared(&self, task: &Arc<dyn Fn() + Send + Sync + 'static>) {
        self.send(Task {
            abort: None,
            run: TaskBody::Shared(Arc::clone(task)),
        });
    }

    /// Enqueues a task that can still be cancelled while it waits for a
    /// worker. Returns the handle; see [`AbortHandle`] for semantics.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Executor::shutdown`].
    pub fn submit_abortable(&self, task: impl FnOnce() + Send + 'static) -> AbortHandle {
        let flag = Arc::new(AtomicBool::new(false));
        self.send(Task {
            abort: Some(Arc::clone(&flag)),
            run: TaskBody::Once(Box::new(task)),
        });
        AbortHandle { flag }
    }

    /// Enqueues a fallible task that is re-attempted (in place, on the
    /// same worker) until it returns `true` or `max_attempts` is
    /// exhausted. Each failed-then-repeated attempt counts once in
    /// [`ExecutorStats::retries`].
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero or the executor was shut down.
    pub fn submit_with_retry(
        &self,
        max_attempts: usize,
        mut task: impl FnMut() -> bool + Send + 'static,
    ) {
        assert!(max_attempts > 0, "need at least one attempt");
        let shared = Arc::clone(&self.shared);
        self.send(Task {
            abort: None,
            run: TaskBody::Once(Box::new(move || {
                for attempt in 1..=max_attempts {
                    if task() {
                        return;
                    }
                    if attempt < max_attempts {
                        shared.retries.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })),
        });
    }

    fn send(&self, task: Task) {
        self.sender
            .as_ref()
            .expect("executor was shut down")
            .send(task)
            .expect("executor threads alive");
    }

    /// Snapshot of the executor's statistics.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            completed: self.shared.completed.load(Ordering::SeqCst),
            peak_concurrency: self.shared.peak.load(Ordering::SeqCst),
            aborted: self.shared.aborted.load(Ordering::SeqCst),
            retries: self.shared.retries.load(Ordering::SeqCst),
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

    #[test]
    fn runs_all_tasks() {
        let exec = Executor::new("t", 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            exec.submit(move || tx.send(i).unwrap());
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
        for _ in 0..8 {
            let tx = tx.clone();
            exec.submit(move || {
                std::thread::sleep(Duration::from_millis(2));
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        let stats = exec.shutdown();
        assert_eq!(stats.peak_concurrency, 1);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn two_threads_reach_but_never_exceed_two() {
        let exec = Executor::new("comm", 2);
        let (tx, rx) = mpsc::channel();
        for _ in 0..16 {
            let tx = tx.clone();
            exec.submit(move || {
                std::thread::sleep(Duration::from_millis(3));
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 16);
        let peak = exec.shutdown().peak_concurrency;
        assert!(peak <= 2, "peak {peak}");
        assert_eq!(peak, 2, "secondary slot never engaged");
    }

    #[test]
    fn shared_task_runs_on_every_submission() {
        let exec = Executor::new("shared", 1);
        let (tx, rx) = mpsc::channel();
        let task: Arc<dyn Fn() + Send + Sync> = Arc::new(move || tx.send(1).unwrap());
        for _ in 0..5 {
            exec.submit_shared(&task);
        }
        assert_eq!(rx.iter().take(5).sum::<i32>(), 5);
        let stats = exec.shutdown();
        assert_eq!(stats.completed, 5);
    }

    #[test]
    fn drop_joins_threads() {
        let (tx, rx) = mpsc::channel();
        {
            let exec = Executor::new("d", 1);
            let tx = tx.clone();
            exec.submit(move || tx.send(1).unwrap());
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

    #[test]
    fn aborted_queued_task_never_runs() {
        let exec = Executor::new("abort", 1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Occupy the only worker so the next submission stays queued.
        exec.submit(move || {
            let _ = gate_rx.recv();
        });
        let (tx, rx) = mpsc::channel();
        let handle = exec.submit_abortable(move || tx.send(()).unwrap());
        handle.abort();
        assert!(handle.is_aborted());
        gate_tx.send(()).unwrap();
        let stats = exec.shutdown();
        assert_eq!(rx.try_recv().ok(), None, "aborted task still ran");
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.completed, 1); // only the gate task
    }

    #[test]
    fn unaborted_abortable_task_runs_normally() {
        let exec = Executor::new("abort", 1);
        let (tx, rx) = mpsc::channel();
        let handle = exec.submit_abortable(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        assert!(!handle.is_aborted());
        let stats = exec.shutdown();
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn retry_repeats_until_success() {
        let exec = Executor::new("retry", 1);
        let (tx, rx) = mpsc::channel();
        let mut failures_left = 2;
        exec.submit_with_retry(5, move || {
            if failures_left > 0 {
                failures_left -= 1;
                return false;
            }
            tx.send(()).unwrap();
            true
        });
        rx.recv().unwrap();
        let stats = exec.shutdown();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let exec = Executor::new("retry", 1);
        exec.submit_with_retry(3, || false);
        let stats = exec.shutdown();
        // 3 attempts, 2 of which were retries; the wrapper itself
        // completes.
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.completed, 1);
    }
}
