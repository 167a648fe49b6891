//! Per-node subtask executors.
//!
//! Each node runs three slot threads: one COMP slot and the primary and
//! secondary COMM slots of §IV-A. Which queued subtask starts in which
//! slot is decided by one [`SubtaskDiscipline`] — the type the
//! simulator's groups dispatch through — behind the node's mutex; each
//! slot thread sleeps on its own condvar until it is handed a start. A
//! finishing thread releases its slot and takes its own next start under
//! the same lock, with no hand-off. The executor also counts, around
//! each task body, how many tasks of a lane run at once, so tests can
//! check the discipline held independently of the type that enforces it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use harmony_core::discipline::{Lane, Slot, SubtaskDiscipline};

/// A task: a shared closure, so resubmitting it only bumps a refcount
/// and a steady-state training iteration enqueues tasks without heap
/// allocation.
type Task = Arc<dyn Fn() + Send + Sync + 'static>;

/// Runtime statistics of one lane of a node's executor.
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

/// The node's slots, one thread each; a slot's thread is
/// `lane as usize + index`.
const SLOTS: [Slot; 3] = [Slot::COMP, Slot::PRIMARY, Slot::SECONDARY];

const POISONED: &str = "a slot thread panicked holding the executor lock";

struct State {
    lanes: SubtaskDiscipline<Task>,
    /// The start handed to each slot's thread and not yet taken.
    handed: [Option<Task>; 3],
    shut: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: [Condvar; 3],
    /// Per lane, counted around the task bodies.
    running: [AtomicUsize; 2],
    peak: [AtomicUsize; 2],
    completed: [AtomicUsize; 2],
}

impl Shared {
    /// Hands every start the discipline allows to its slot's thread,
    /// waking each one except `me`, the caller.
    fn hand_out(&self, st: &mut State, me: Option<usize>) {
        while let Some(start) = st.lanes.next_start() {
            let k = start.slot.lane as usize + start.slot.index;
            st.handed[k] = Some(start.item);
            if me != Some(k) {
                self.wake[k].notify_one();
            }
        }
    }

    /// Slot thread `k`: runs what it is handed until shutdown.
    fn run_slot(&self, k: usize) {
        let slot = SLOTS[k];
        let lane = slot.lane as usize;
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if let Some(task) = st.handed[k].take() {
                drop(st);
                let now = self.running[lane].fetch_add(1, Ordering::SeqCst) + 1;
                self.peak[lane].fetch_max(now, Ordering::SeqCst);
                task();
                self.running[lane].fetch_sub(1, Ordering::SeqCst);
                self.completed[lane].fetch_add(1, Ordering::SeqCst);
                // Book the completion *before* letting go of the `Arc`:
                // whoever sees the last clone released also sees the
                // counters settled.
                drop(task);
                st = self.state.lock().expect(POISONED);
                st.lanes.release(slot);
                self.hand_out(&mut st, Some(k));
            } else if st.shut {
                return;
            } else {
                st = self.wake[k].wait(st).expect(POISONED);
            }
        }
    }
}

/// One node's executor: a COMP slot and two COMM slots under §IV-A.
pub(crate) struct NodeExecutor {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NodeExecutor {
    /// Spawns node `node`'s three slot threads.
    pub(crate) fn new(node: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                lanes: SubtaskDiscipline::new(1, 2),
                handed: [None, None, None],
                shut: false,
            }),
            wake: Default::default(),
            running: Default::default(),
            peak: Default::default(),
            completed: Default::default(),
        });
        let threads = (0..SLOTS.len())
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{:?}{}-{node}", SLOTS[k].lane, SLOTS[k].index))
                    .spawn(move || shared.run_slot(k))
                    .expect("spawning executor thread")
            })
            .collect();
        Self { shared, threads }
    }

    /// Enqueues a long-lived shared task on `lane`; it runs as soon as
    /// the discipline gives it a slot. Resubmitting the same `Arc` every
    /// iteration performs no heap allocation — the PS runtime builds
    /// each worker's subtask closures once and re-enqueues them for the
    /// job's whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics if called after [`NodeExecutor::shutdown`].
    pub(crate) fn submit(&self, lane: Lane, task: &Task) {
        let mut st = self.shared.state.lock().expect(POISONED);
        assert!(!st.shut, "executor was shut down");
        st.lanes.enqueue(lane, Arc::clone(task));
        self.shared.hand_out(&mut st, None);
    }

    /// Snapshot of the `(cpu, comm)` lanes' statistics.
    pub(crate) fn stats(&self) -> (ExecutorStats, ExecutorStats) {
        let lane = |l: usize| ExecutorStats {
            completed: self.shared.completed[l].load(Ordering::SeqCst),
            peak_concurrency: self.shared.peak[l].load(Ordering::SeqCst),
            aborted: 0,
            retries: 0,
        };
        (lane(0), lane(1))
    }

    /// Drains outstanding tasks and joins the slot threads. Never
    /// panics: a poisoned lock still lets the flag be set.
    pub(crate) fn shutdown(&mut self) {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shut = true;
        for wake in &self.shared.wake {
            wake.notify_one();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NodeExecutor {
    fn drop(&mut self) {
        self.shutdown();
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

    fn sleepy(ms: u64, tx: mpsc::Sender<()>) -> Task {
        task(move || {
            std::thread::sleep(Duration::from_millis(ms));
            tx.send(()).unwrap();
        })
    }

    #[test]
    fn runs_all_tasks_on_both_lanes() {
        let mut exec = NodeExecutor::new(0);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            let lane = if i % 3 == 0 { Lane::Cpu } else { Lane::Net };
            exec.submit(lane, &task(move || tx.send(i).unwrap()));
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        exec.shutdown();
        let (cpu, comm) = exec.stats();
        assert_eq!((cpu.completed, comm.completed), (4, 6));
    }

    #[test]
    fn comp_never_overlaps() {
        let mut exec = NodeExecutor::new(0);
        let (tx, rx) = mpsc::channel();
        let comp = sleepy(2, tx);
        for _ in 0..8 {
            exec.submit(Lane::Cpu, &comp);
        }
        assert_eq!(rx.iter().take(8).count(), 8);
        exec.shutdown();
        let (cpu, _) = exec.stats();
        assert_eq!(cpu.peak_concurrency, 1);
        assert_eq!(cpu.completed, 8);
    }

    #[test]
    fn comm_reaches_but_never_exceeds_two() {
        let mut exec = NodeExecutor::new(0);
        let (tx, rx) = mpsc::channel();
        let comm = sleepy(3, tx);
        for _ in 0..16 {
            exec.submit(Lane::Net, &comm);
        }
        assert_eq!(rx.iter().take(16).count(), 16);
        exec.shutdown();
        let (_, stats) = exec.stats();
        let peak = stats.peak_concurrency;
        assert!(peak <= 2, "peak {peak}");
        assert_eq!(peak, 2, "secondary slot never engaged");
        assert_eq!((stats.aborted, stats.retries), (0, 0));
    }

    #[test]
    fn drop_drains_queued_work() {
        let (tx, rx) = mpsc::channel();
        {
            let exec = NodeExecutor::new(0);
            let comp = sleepy(1, tx.clone());
            let comm = sleepy(1, tx.clone());
            for _ in 0..4 {
                exec.submit(Lane::Cpu, &comp);
                exec.submit(Lane::Net, &comm);
            }
            // exec dropped here; drop must drain the queues first.
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
    }

    #[test]
    #[should_panic(expected = "executor was shut down")]
    fn submit_after_shutdown_panics() {
        let mut exec = NodeExecutor::new(0);
        exec.shutdown();
        exec.submit(Lane::Net, &task(|| {}));
    }
}
