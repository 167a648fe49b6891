//! Fluid (generalized-processor-sharing) resource model.
//!
//! A resource has capacity 1.0 (one machine's CPU or NIC — all machines
//! of a group behave identically, see the crate docs). Each active task
//! has a *demand* `d ∈ (0, 1]` (a COMP subtask wants the whole CPU,
//! `d = 1`; a COMM subtask wants `d ≈ 0.7` of the NIC because of
//! request/response gaps) and *remaining work* measured in
//! demand-seconds: a task with work `w` running alone finishes in
//! `w / d` seconds.
//!
//! When the sum of demands exceeds capacity, tasks share proportionally;
//! an additional interference factor `1 / (1 + β (n − 1))` models the
//! super-linear slowdown of uncoordinated co-location (cache and
//! scheduler thrash) that Figure 4 exhibits.
//!
//! [`Fluid`] moves one virtual clock per resource instead of every
//! task, and keeps its handful of tasks in one sorted `Vec`.

/// Identity of a task inside a fluid resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskKey {
    /// Driver-level job index.
    pub job: usize,
    /// Monotone per-job sequence number (iteration × kind).
    pub seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Task {
    key: TaskKey,
    demand: f64,
    /// Virtual completion time: `v_start + work / demand`. Fixed at
    /// admission — membership changes alter how fast *virtual* time
    /// advances, never where a task finishes on the virtual axis.
    v_done: f64,
    /// Admission stamp: breaks ties between equal `v_done`s in
    /// admission order.
    fseq: u64,
}

impl Task {
    /// Completion order. Non-negative floats order identically to
    /// their IEEE bits, and `v` never goes negative.
    fn order(&self) -> (u64, u64) {
        (self.v_done.to_bits(), self.fseq)
    }
}

/// One machine-equivalent shared resource.
///
/// # Virtual-time formulation
///
/// Every task progresses at `demand × share × interference`, and the
/// `share × interference` multiplier is *common to all tasks*. Define
/// a virtual clock `v` with `dv = share · interference · dt`: a task
/// admitted at `v₀` with `w` demand-seconds of work then completes at
/// the fixed virtual instant `v₀ + w / demand`, no matter how the
/// membership (and hence the multiplier) changes in between. An
/// advance therefore moves one clock instead of decrementing every
/// task, the next finisher is the task with the smallest `v_done`, and
/// the membership aggregates (`total_demand`, task count) update in
/// O(1).
///
/// # Container
///
/// Under §IV-A's discipline a resource holds one COMP or two COMM
/// tasks; the Naive baseline's unbounded slots reach a few dozen. The
/// tasks therefore live in one `Vec` kept sorted by `(v_done bits,
/// admission stamp)` *descending*: the next finisher is the last
/// element, a completion is a `pop`, an admission a binary-search
/// insert, a cancellation a linear find — no map, no heap, and no
/// stale entries to skip.
#[derive(Debug, Clone)]
pub struct Fluid {
    capacity: f64,
    beta: f64,
    /// Live tasks in descending [`Task::order`].
    tasks: Vec<Task>,
    /// The virtual clock: `∫ share · interference dt`. Reset to zero
    /// whenever the resource drains so precision never degrades over a
    /// long run.
    v: f64,
    next_fseq: u64,
    total_demand: f64,
    share: f64,
    interference: f64,
    usage_sum: f64,
}

impl Fluid {
    /// Creates a resource of the given capacity and interference
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `beta` is negative.
    pub fn new(capacity: f64, beta: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(beta >= 0.0, "interference beta must be non-negative");
        Self {
            capacity,
            beta,
            tasks: Vec::new(),
            v: 0.0,
            next_fseq: 0,
            total_demand: 0.0,
            share: 1.0,
            interference: 1.0,
            usage_sum: 0.0,
        }
    }

    /// Number of active tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task is active.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task with `demand` and `work` demand-seconds. `key` must
    /// not name a task already active (the driver's per-job `seq` is
    /// monotone, so it never does).
    ///
    /// # Panics
    ///
    /// Panics if `demand` is outside `(0, capacity]` or `work` is
    /// negative.
    pub fn add(&mut self, key: TaskKey, demand: f64, work: f64) {
        assert!(
            demand > 0.0 && demand <= self.capacity,
            "demand {demand} outside (0, {}]",
            self.capacity
        );
        assert!(work >= 0.0, "work must be non-negative");
        debug_assert!(
            self.tasks.iter().all(|t| t.key != key),
            "task {key:?} is already active"
        );
        self.next_fseq += 1;
        let task = Task {
            key,
            demand,
            v_done: self.v + work / demand,
            fseq: self.next_fseq,
        };
        let at = self.tasks.partition_point(|t| t.order() > task.order());
        self.tasks.insert(at, task);
        self.total_demand += demand;
        self.refresh();
    }

    /// Recomputes the shared-rate coefficients and the usage aggregate
    /// from the incrementally maintained `total_demand` after a
    /// membership change — O(1), never re-folds the task set. A drained
    /// resource resets its virtual clock so float precision does not
    /// decay over a long run.
    fn refresh(&mut self) {
        let n = self.tasks.len();
        if n == 0 {
            self.share = 1.0;
            self.interference = 1.0;
            self.usage_sum = 0.0;
            self.total_demand = 0.0;
            self.v = 0.0;
            return;
        }
        self.total_demand = self.total_demand.max(0.0);
        self.share = if self.total_demand > self.capacity {
            self.capacity / self.total_demand
        } else {
            1.0
        };
        self.interference = 1.0 / (1.0 + self.beta * (n as f64 - 1.0));
        self.usage_sum = self.total_demand * self.share * self.interference;
    }

    /// Instantaneous total consumption (for utilization accounting),
    /// in `[0, capacity]`.
    pub fn usage(&self) -> f64 {
        self.usage_sum.min(self.capacity)
    }

    /// Seconds until the next task completes at current rates, or
    /// `None` when idle. O(1): all tasks share one rate multiplier.
    pub fn time_to_next_completion(&self) -> Option<f64> {
        let next = self.tasks.last()?;
        let rate = self.share * self.interference;
        Some(((next.v_done - self.v) / rate).max(0.0))
    }

    /// Seconds `job`'s active task still needs if it ran at full rate —
    /// a lower bound on the time to its completion, since the shared
    /// rate multiplier never exceeds 1 — or `None` when the job has no
    /// task here.
    pub fn full_rate_remaining(&self, job: usize) -> Option<f64> {
        let task = self.tasks.iter().find(|t| t.key.job == job)?;
        Some((task.v_done - self.v).max(0.0))
    }

    /// Advances all tasks by `dt` seconds, returning `(finished_keys,
    /// consumed_resource_seconds)`.
    ///
    /// Tasks whose remaining work reaches (near) zero are removed and
    /// reported in completion order (ties broken by insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn advance(&mut self, dt: f64) -> (Vec<TaskKey>, f64) {
        let mut finished = Vec::new();
        let consumed = self.advance_into(dt, &mut finished);
        (finished, consumed)
    }

    /// [`Self::advance`] against a caller-owned completion buffer:
    /// finished keys are *appended* to `out` (existing contents are
    /// preserved), so a caller draining both resources reuses one
    /// buffer and never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn advance_into(&mut self, dt: f64, out: &mut Vec<TaskKey>) -> f64 {
        assert!(dt >= 0.0, "time cannot run backwards");
        if self.tasks.is_empty() || dt == 0.0 {
            return 0.0;
        }
        let consumed = self.advance_quiet(dt);
        self.complete_due(out);
        consumed
    }

    /// Advances all tasks by `dt` seconds without completing any,
    /// returning the consumed resource-seconds: a task whose residual
    /// work falls within the completion tolerance stays, for
    /// [`Self::complete_due`] to collect.
    pub fn advance_quiet(&mut self, dt: f64) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        let consumed = self.usage() * dt;
        self.v += self.share * self.interference * dt;
        consumed
    }

    /// Removes the tasks that are done — whose residual work `(v_done −
    /// v) × demand` is within 1e-9 demand-seconds — and appends their
    /// keys to `out` in completion order. Returns whether any was.
    pub fn complete_due(&mut self, out: &mut Vec<TaskKey>) -> bool {
        let before = self.tasks.len();
        while let Some(task) = self.tasks.last() {
            if self.v < task.v_done - 1e-9 / task.demand {
                break;
            }
            self.total_demand -= task.demand;
            out.push(task.key);
            self.tasks.pop();
        }
        if self.tasks.len() < before {
            self.refresh();
            return true;
        }
        false
    }

    /// Removes a task regardless of progress (job pause/migration).
    /// Returns the remaining work if the task was present.
    pub fn cancel(&mut self, key: TaskKey) -> Option<f64> {
        let at = self.tasks.iter().position(|t| t.key == key)?;
        let task = self.tasks.remove(at);
        self.total_demand -= task.demand;
        let remaining = ((task.v_done - self.v) * task.demand).max(0.0);
        self.refresh();
        Some(remaining)
    }

    /// Removes every task belonging to `job` (pause / failure paths),
    /// in ascending `seq`: the order the demands leave `total_demand`
    /// in is part of the bits.
    pub fn cancel_all_of(&mut self, job: usize) {
        let before = self.tasks.len();
        let lowest_seq = |tasks: &[Task]| {
            let of_job = tasks.iter().enumerate().filter(|(_, t)| t.key.job == job);
            of_job.min_by_key(|(_, t)| t.key.seq).map(|(at, _)| at)
        };
        while let Some(at) = lowest_seq(&self.tasks) {
            self.total_demand -= self.tasks.remove(at).demand;
        }
        if self.tasks.len() < before {
            self.refresh();
        }
    }

    /// The job of every active task, in no stated order.
    pub fn jobs(&self) -> impl Iterator<Item = usize> + '_ {
        self.tasks.iter().map(|t| t.key.job)
    }

    /// Keys of active tasks belonging to `job`, in admission order
    /// (`seq` is monotone per job).
    pub fn tasks_of(&self, job: usize) -> Vec<TaskKey> {
        let of_job = self.tasks.iter().filter(|t| t.key.job == job);
        let mut keys: Vec<TaskKey> = of_job.map(|t| t.key).collect();
        keys.sort_unstable_by_key(|k| k.seq);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(job: usize, seq: u64) -> TaskKey {
        TaskKey { job, seq }
    }

    #[test]
    fn single_task_runs_at_demand() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 0.5, 1.0); // 1 demand-second at demand 0.5 -> 2s
        assert_eq!(f.time_to_next_completion(), Some(2.0));
        let (done, used) = f.advance(2.0);
        assert_eq!(done, vec![key(0, 0)]);
        assert!((used - 1.0).abs() < 1e-9);
        assert!(f.is_empty());
    }

    #[test]
    fn two_full_demand_tasks_share_evenly() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 1.0, 1.0);
        f.add(key(1, 0), 1.0, 1.0);
        // Each runs at rate 0.5 -> both finish at t = 2.
        assert_eq!(f.time_to_next_completion(), Some(2.0));
        let (done, _) = f.advance(2.0);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn undersubscribed_tasks_run_concurrently_at_full_rate() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 0.4, 0.4); // alone: 1s
        f.add(key(1, 0), 0.4, 0.8); // alone: 2s
                                    // Total demand 0.8 <= 1: both at full rate.
        let (done, used) = f.advance(1.0);
        assert_eq!(done, vec![key(0, 0)]);
        assert!((used - 0.8).abs() < 1e-9);
        let (done, _) = f.advance(1.0);
        assert_eq!(done, vec![key(1, 0)]);
    }

    #[test]
    fn interference_slows_coscheduled_tasks() {
        let mut fair = Fluid::new(1.0, 0.0);
        let mut thrash = Fluid::new(1.0, 0.25);
        for f in [&mut fair, &mut thrash] {
            f.add(key(0, 0), 1.0, 1.0);
            f.add(key(1, 0), 1.0, 1.0);
        }
        let t_fair = fair.time_to_next_completion().unwrap();
        let t_thrash = thrash.time_to_next_completion().unwrap();
        assert_eq!(t_fair, 2.0);
        assert!((t_thrash - 2.5).abs() < 1e-9); // 2 * (1 + 0.25)
    }

    #[test]
    fn partial_advance_preserves_work_conservation() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 1.0, 3.0);
        let (done, _) = f.advance(1.0);
        assert!(done.is_empty());
        f.add(key(1, 0), 1.0, 1.0); // now sharing
                                    // Remaining: task0 = 2.0, task1 = 1.0, each at rate 0.5.
        assert_eq!(f.time_to_next_completion(), Some(2.0));
        let (done, _) = f.advance(2.0);
        assert_eq!(done, vec![key(1, 0)]);
        // Task0 has 1.0 left, alone again.
        assert_eq!(f.time_to_next_completion(), Some(1.0));
    }

    #[test]
    fn cancel_returns_remaining_work() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(3, 1), 1.0, 5.0);
        f.advance(2.0);
        assert_eq!(f.cancel(key(3, 1)), Some(3.0));
        assert_eq!(f.cancel(key(3, 1)), None);
    }

    #[test]
    fn usage_caps_at_capacity() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 0.7, 1.0);
        assert!((f.usage() - 0.7).abs() < 1e-9);
        f.add(key(1, 0), 0.7, 1.0);
        assert!((f.usage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_resource_reports_none() {
        let f = Fluid::new(1.0, 0.1);
        assert_eq!(f.time_to_next_completion(), None);
        assert_eq!(f.usage(), 0.0);
    }

    #[test]
    fn zero_work_task_finishes_immediately() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 1.0, 0.0);
        assert_eq!(f.time_to_next_completion(), Some(0.0));
        let (done, _) = f.advance(0.0);
        // dt = 0 short-circuits; a minimal advance flushes it.
        assert!(done.is_empty());
        let (done, _) = f.advance(1e-12);
        assert_eq!(done, vec![key(0, 0)]);
    }

    #[test]
    fn cancel_all_of_drops_every_task_of_the_job() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 0.3, 1.0);
        f.add(key(1, 0), 0.3, 1.0);
        f.add(key(0, 1), 0.3, 1.0);
        f.cancel_all_of(0);
        assert_eq!(f.len(), 1);
        assert!(f.tasks_of(0).is_empty());
        assert_eq!(f.tasks_of(1).len(), 1);
    }

    #[test]
    fn tasks_of_filters_by_job() {
        let mut f = Fluid::new(1.0, 0.0);
        f.add(key(0, 0), 0.3, 1.0);
        f.add(key(1, 0), 0.3, 1.0);
        f.add(key(0, 1), 0.3, 1.0);
        assert_eq!(f.tasks_of(0).len(), 2);
        assert_eq!(f.tasks_of(1).len(), 1);
        assert_eq!(f.tasks_of(9).len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    /// The formulation `Fluid` shipped with before its tasks moved
    /// into one sorted `Vec`, kept as the differential oracle: a
    /// `BTreeMap` of live tasks and a min-heap of `(v_done bits, fseq,
    /// job, seq)` whose stale entries (cancelled tasks) are skipped
    /// lazily. Capacity 1; the arithmetic is the same line for line.
    #[derive(Default)]
    struct Oracle {
        beta: f64,
        /// `(job, seq) → (demand, v_done, fseq)`.
        tasks: BTreeMap<(usize, u64), (f64, f64, u64)>,
        heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
        v: f64,
        next_fseq: u64,
        total_demand: f64,
        share: f64,
        interference: f64,
        usage_sum: f64,
    }

    impl Oracle {
        fn add(&mut self, key: TaskKey, demand: f64, work: f64) {
            self.next_fseq += 1;
            let v_done = self.v + work / demand;
            let task = (demand, v_done, self.next_fseq);
            self.tasks.insert((key.job, key.seq), task);
            let entry = (v_done.to_bits(), self.next_fseq, key.job, key.seq);
            self.heap.push(Reverse(entry));
            self.total_demand += demand;
            self.refresh();
        }

        fn refresh(&mut self) {
            let n = self.tasks.len();
            if n == 0 {
                (self.share, self.interference) = (1.0, 1.0);
                (self.usage_sum, self.total_demand, self.v) = (0.0, 0.0, 0.0);
                self.heap.clear();
                return;
            }
            self.total_demand = self.total_demand.max(0.0);
            let over = self.total_demand > 1.0;
            self.share = if over { 1.0 / self.total_demand } else { 1.0 };
            self.interference = 1.0 / (1.0 + self.beta * (n as f64 - 1.0));
            self.usage_sum = self.total_demand * self.share * self.interference;
        }

        fn is_live(&self, fseq: u64, job: usize, seq: u64) -> bool {
            self.tasks.get(&(job, seq)).is_some_and(|t| t.2 == fseq)
        }

        fn skip_stale_top(&mut self) {
            while let Some(&Reverse((_, fseq, job, seq))) = self.heap.peek() {
                if self.is_live(fseq, job, seq) {
                    break;
                }
                self.heap.pop();
            }
        }

        fn usage(&self) -> f64 {
            self.usage_sum.min(1.0)
        }

        fn time_to_next_completion(&self) -> Option<f64> {
            let &Reverse((bits, ..)) = self.heap.peek()?;
            let rate = self.share * self.interference;
            Some(((f64::from_bits(bits) - self.v) / rate).max(0.0))
        }

        fn advance_into(&mut self, dt: f64, out: &mut Vec<TaskKey>) -> f64 {
            if self.tasks.is_empty() || dt == 0.0 {
                return 0.0;
            }
            let consumed = self.usage() * dt;
            self.v += self.share * self.interference * dt;
            let before = self.tasks.len();
            while let Some(&Reverse((bits, fseq, job, seq))) = self.heap.peek() {
                if self.is_live(fseq, job, seq) {
                    let demand = self.tasks[&(job, seq)].0;
                    if self.v < f64::from_bits(bits) - 1e-9 / demand {
                        break;
                    }
                    self.tasks.remove(&(job, seq));
                    self.total_demand -= demand;
                    out.push(TaskKey { job, seq });
                }
                self.heap.pop();
            }
            if self.tasks.len() < before {
                self.refresh();
                self.skip_stale_top();
            }
            consumed
        }

        fn cancel(&mut self, key: TaskKey) -> Option<f64> {
            let (demand, v_done, _) = self.tasks.remove(&(key.job, key.seq))?;
            self.total_demand -= demand;
            let remaining = ((v_done - self.v) * demand).max(0.0);
            self.refresh();
            self.skip_stale_top();
            Some(remaining)
        }

        fn cancel_all_of(&mut self, job: usize) {
            let keys = self.tasks_of(job);
            for key in &keys {
                let task = self.tasks.remove(&(key.job, key.seq));
                self.total_demand -= task.expect("listed key").0;
            }
            if !keys.is_empty() {
                self.refresh();
                self.skip_stale_top();
            }
        }

        fn tasks_of(&self, job: usize) -> Vec<TaskKey> {
            let range = self.tasks.range((job, 0)..=(job, u64::MAX));
            range.map(|(&(job, seq), _)| TaskKey { job, seq }).collect()
        }
    }

    /// Every observable of the two formulations, bit for bit.
    fn assert_same_state(f: &Fluid, o: &Oracle) {
        assert_eq!(f.len(), o.tasks.len());
        assert_eq!(f.usage().to_bits(), o.usage().to_bits());
        assert_eq!(
            f.time_to_next_completion().map(f64::to_bits),
            o.time_to_next_completion().map(f64::to_bits)
        );
        for job in 0..JOBS {
            assert_eq!(f.tasks_of(job), o.tasks_of(job));
        }
    }

    /// Few jobs, so `cancel_all_of` regularly finds several tasks.
    const JOBS: usize = 6;
    /// Dyadic demands make `work / demand` exact, so tasks admitted at
    /// one instant really tie on `v_done`; 0.7 is the driver's COMM
    /// demand.
    const DEMANDS: [f64; 4] = [0.25, 0.5, 0.7, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sorted-`Vec` container against the map-and-heap oracle
        /// under random `add` / `advance_into` / `cancel` /
        /// `cancel_all_of` interleavings over 1–48 live tasks: same
        /// completions in the same order, and `to_bits`-identical
        /// `consumed`, `usage()`, `time_to_next_completion()` and
        /// cancelled remainders after every step.
        #[test]
        fn matches_the_map_and_heap_oracle(
            ops in prop::collection::vec((0u8..10, 0usize..1 << 16, 1u32..7), 1..160),
            start in 1usize..49,
            thrash in any::<bool>(),
        ) {
            let beta = if thrash { 0.25 } else { 0.0 };
            let mut f = Fluid::new(1.0, beta);
            let mut o = Oracle { beta, ..Oracle::default() };
            o.refresh();
            let mut seqs = [0u64; JOBS];
            let mut admit = |f: &mut Fluid, o: &mut Oracle, pick: usize, steps: u32| {
                let job = pick % JOBS;
                seqs[job] += 1;
                let key = TaskKey { job, seq: seqs[job] };
                let demand = DEMANDS[pick / JOBS % DEMANDS.len()];
                let work = 0.5 * f64::from(steps) * demand;
                f.add(key, demand, work);
                o.add(key, demand, work);
            };
            for i in 0..start {
                admit(&mut f, &mut o, i * 7, 1 + (i % 3) as u32);
            }
            assert_same_state(&f, &o);
            for (kind, pick, steps) in ops {
                match kind {
                    0..=3 if f.len() < 48 => admit(&mut f, &mut o, pick, steps),
                    0..=6 => {
                        // Up to, exactly onto, just past, or well past
                        // the next completion.
                        let scale = [0.5, 1.0, 1.0 + 1e-12, 2.5][pick % 4];
                        let dt = f.time_to_next_completion().unwrap_or(1.0) * scale;
                        let (mut done_f, mut done_o) = (Vec::new(), Vec::new());
                        let used_f = f.advance_into(dt, &mut done_f);
                        let used_o = o.advance_into(dt, &mut done_o);
                        prop_assert_eq!(used_f.to_bits(), used_o.to_bits());
                        prop_assert_eq!(done_f, done_o);
                    }
                    7..=8 => {
                        // A live key when there is one for the job,
                        // else a key that names nothing.
                        let job = pick % JOBS;
                        let live = o.tasks_of(job);
                        let key = live.get(pick / JOBS % live.len().max(1));
                        let key = key.copied().unwrap_or(TaskKey { job, seq: 0 });
                        prop_assert_eq!(
                            f.cancel(key).map(f64::to_bits),
                            o.cancel(key).map(f64::to_bits)
                        );
                    }
                    _ => {
                        f.cancel_all_of(pick % JOBS);
                        o.cancel_all_of(pick % JOBS);
                    }
                }
                assert_same_state(&f, &o);
            }
        }

        /// Work is conserved: however a task's service is sliced across
        /// advances and whatever shares the resource, the total consumed
        /// resource-seconds equal the total work added.
        #[test]
        fn work_conservation(
            tasks in prop::collection::vec((0.05f64..1.0, 0.01f64..50.0), 1..12),
            beta in 0.0f64..0.3,
        ) {
            let mut f = Fluid::new(1.0, beta);
            let mut total_work = 0.0;
            for (i, &(demand, work)) in tasks.iter().enumerate() {
                f.add(TaskKey { job: i, seq: 0 }, demand, work);
                total_work += work;
            }
            let mut consumed = 0.0;
            let mut guard = 0;
            while !f.is_empty() {
                let dt = f
                    .time_to_next_completion()
                    .expect("non-empty resource progresses");
                let (_, used) = f.advance(dt.max(1e-12));
                consumed += used;
                guard += 1;
                prop_assert!(guard < 10_000, "resource did not drain");
            }
            prop_assert!(
                (consumed - total_work).abs() < 1e-6 * total_work.max(1.0),
                "consumed {consumed} vs work {total_work}"
            );
        }

        /// Usage never exceeds capacity, and completion order respects
        /// work/demand ratios for equal-demand tasks.
        #[test]
        fn usage_bounded_and_sjf_order_for_equal_demands(
            works in prop::collection::vec(0.1f64..20.0, 2..8),
        ) {
            let mut f = Fluid::new(1.0, 0.0);
            for (i, &w) in works.iter().enumerate() {
                f.add(TaskKey { job: i, seq: 0 }, 1.0, w);
            }
            prop_assert!(f.usage() <= 1.0 + 1e-9);
            let mut finished: Vec<usize> = Vec::new();
            let mut guard = 0;
            while !f.is_empty() {
                let dt = f.time_to_next_completion().expect("non-empty");
                let (done, _) = f.advance(dt.max(1e-12));
                finished.extend(done.into_iter().map(|k| k.job));
                guard += 1;
                prop_assert!(guard < 10_000);
            }
            // Equal demands share equally, so completion follows work
            // order (ties may complete together in either order).
            for pair in finished.windows(2) {
                prop_assert!(
                    works[pair[0]] <= works[pair[1]] + 1e-9,
                    "task {} (w={}) finished before {} (w={})",
                    pair[0], works[pair[0]], pair[1], works[pair[1]]
                );
            }
        }

        /// Cancelling mid-flight returns exactly the work not yet done.
        #[test]
        fn cancel_accounts_remaining_work(
            demand in 0.1f64..1.0,
            work in 1.0f64..50.0,
            fraction in 0.0f64..0.95,
        ) {
            let mut f = Fluid::new(1.0, 0.0);
            f.add(TaskKey { job: 0, seq: 0 }, demand, work);
            // Alone, the task progresses at `demand`: run a fraction.
            let dt = work / demand * fraction;
            f.advance(dt);
            let left = f.cancel(TaskKey { job: 0, seq: 0 }).expect("present");
            prop_assert!(
                (left - work * (1.0 - fraction)).abs() < 1e-6,
                "left {left}, expected {}",
                work * (1.0 - fraction)
            );
        }
    }
}
