//! Simulation-time state of jobs and job groups.

use std::collections::VecDeque;
use std::sync::Arc;

use harmony_core::discipline::{Lane, Slot, SubtaskDiscipline};
use harmony_core::job::JobSpec;
use harmony_core::profile::JobProfile;
use harmony_mem::AlphaController;
use harmony_metrics::OnlineStats;

use crate::fluid::Fluid;
use crate::groupmem::{Holding, MemBooks};
use crate::report::PredictionSample;
use crate::spans::SubtaskSpan;

/// Which subtask a job is executing or waiting to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// PULL: fetch model (network).
    Pull,
    /// COMP: compute update (CPU).
    Comp,
    /// PUSH: send update (network).
    Push,
}

impl Phase {
    /// The phase that follows within an iteration (`Push` wraps to
    /// `Pull` of the next iteration).
    pub fn next(self) -> Phase {
        match self {
            Phase::Pull => Phase::Comp,
            Phase::Comp => Phase::Push,
            Phase::Push => Phase::Pull,
        }
    }

    /// The resource the phase runs on.
    pub fn lane(self) -> Lane {
        match self {
            Phase::Comp => Lane::Cpu,
            Phase::Pull | Phase::Push => Lane::Net,
        }
    }
}

/// Scheduler-visible lifecycle of a simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimJobState {
    /// Submitted but not yet placed anywhere.
    Waiting,
    /// Running profiling iterations in a profiling group.
    Profiling,
    /// Profile ready; waiting for a grouping decision.
    Profiled,
    /// Member of an active group.
    Running,
    /// Paused (checkpointed) awaiting re-placement.
    Paused,
    /// Converged.
    Finished,
    /// Killed by an out-of-memory condition.
    Failed,
}

/// Execution position of a job inside its group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecPhase {
    /// Not dispatched yet; may carry a not-before time (migration /
    /// input-load delay).
    Idle {
        /// Earliest time the first PULL may dispatch.
        ready_at: f64,
    },
    /// Sitting in the group's CPU or network queue.
    Queued(Phase),
    /// Active in the group's CPU or network resource, holding `Slot`.
    Running(Phase, Slot),
}

/// One simulated job.
#[derive(Debug, Clone)]
pub struct JobSim {
    /// Ground-truth specification.
    pub spec: JobSpec,
    /// `spec.name`, shared: every recorded span carries a handle to
    /// it instead of a copy.
    pub name: Arc<str>,
    /// Submission time.
    pub arrival: f64,
    /// Lifecycle state.
    pub state: SimJobState,
    /// Execution position within the current group.
    pub exec: ExecPhase,
    /// Iterations completed so far.
    pub iterations_done: u64,
    /// Iterations required for convergence.
    pub total_iterations: u64,
    /// Profiling iterations still to run before the profile is ready.
    pub profiling_left: u32,
    /// The profiled metrics (updated every iteration, §IV-B1).
    pub profile: JobProfile,
    /// The disk ratio's grid point: `α = alpha_k / 2¹²`
    /// ([`harmony_mem::ALPHA_STEPS`]). Written through
    /// [`Self::set_memory`] while the job is in a group.
    pub alpha_k: u32,
    /// Never let `alpha_k` fall below this (the group would stop
    /// fitting).
    pub alpha_floor_k: u32,
    /// Hill-climbing controller (only under `ReloadPolicy::Adaptive`).
    pub alpha_ctl: Option<AlphaController>,
    /// Whether the model is spilled too (§IV-C fallback).
    pub model_spilled: bool,
    /// Index of the group currently hosting the job.
    pub group: Option<usize>,
    /// When the job's last COMP subtask ended (preload-overlap anchor).
    pub last_comp_end: f64,
    /// When the current subtask was dispatched.
    pub phase_start: f64,
    /// Solo-equivalent duration of the current subtask (its work at
    /// full rate, free of co-location stretching) — what the profiler
    /// records, since Eqs. 1–4 are stated in solo subtask times.
    pub phase_solo: f64,
    /// The uniform draw behind the current subtask's straggler factor
    /// ([`crate::noise::DrawKey::uniform`]).
    pub phase_draw: f64,
    /// Iteration ranges `[first, last]` whose runs were lost — the one
    /// in flight when the job left a group mid-iteration, or the ones a
    /// crash rolled back — one entry per loss. An iteration's attempt
    /// number ([`Self::attempt`]), part of every straggler draw's key,
    /// counts the entries covering it: a replayed iteration draws
    /// afresh, every other one draws what any schedule would.
    pub lost: Vec<(u64, u64)>,
    /// When the current iteration's PULL was dispatched.
    pub iter_start: f64,
    /// Measured COMP seconds of the in-flight iteration.
    pub iter_tcpu: f64,
    /// Measured COMM seconds of the in-flight iteration.
    pub iter_tnet: f64,
    /// Completion time (set once finished or failed).
    pub finish: Option<f64>,
    /// Monotone sequence for fluid task keys.
    pub seq: u64,
    /// Set when the scheduler wants the job paused at the next
    /// iteration boundary.
    pub pause_requested: bool,
    /// Duration of the job's most recent completed iteration.
    pub last_iter_wall: f64,
    /// Iterations completed when the job last joined a group — the
    /// anchor for skipping the first in-group (load-warmup) iteration
    /// without scanning a per-group membership table.
    pub joined_iters: u64,
    /// Iteration periods observed in the current group (the first,
    /// load-warmup one skipped); emptied on every attach. Eq. 1 is
    /// validated against the slowest member's mean period.
    pub iter_stats: OnlineStats,
    /// Accumulated per-iteration COMP cost fed to the α controller.
    pub alpha_cost_acc: f64,
    /// Iterations accumulated in `alpha_cost_acc`.
    pub alpha_cost_n: u32,
    /// Whether the job was killed by an injected abort fault (as
    /// opposed to an OOM failure).
    pub aborted: bool,
    /// Set to the fault time when a crash orphaned this job; cleared
    /// (and turned into a recovery-latency sample) when the job is
    /// next placed.
    pub recover_mark: Option<f64>,
    /// Set to the drift time when live migration decided to move this
    /// job; cleared (and turned into a migration-latency sample, plus a
    /// checkpoint-reload charge) when the job is next placed.
    pub migrate_mark: Option<f64>,
    /// The `(group slot, created_at)` the job drifted out of. A
    /// migrating job refuses to bounce straight back into this exact
    /// group — its own measurements just condemned that placement — and
    /// escalates to a cluster-wide pass instead. `created_at`
    /// disambiguates a reused slot.
    pub migrate_origin: Option<(usize, f64)>,
    /// Scripted workload shift `(first shifted iteration, COMP-cost
    /// multiplier)` wired from [`crate::config::CompShift`]; `None` for
    /// an unshifted job.
    pub comp_shift: Option<(u64, f64)>,
    /// Sparse-wire density wired from [`crate::config::PushDensity`]:
    /// the job's PUSH subtask cost is this fraction of the dense wire
    /// (PULL stays dense — the server broadcasts the full model).
    /// `None` for a dense job.
    pub push_density: Option<f64>,
    /// Drift checks are suppressed until this iteration count. Set on a
    /// migration attach: the smoothed estimate is still converging on
    /// the regime that triggered the move, and re-flagging drift every
    /// iteration of that decay would migrate the job over and over for
    /// one workload change. When the window expires the basis is
    /// re-pinned on the settled estimate.
    pub drift_holdoff: u64,
    /// Times the admission layer has deferred this job
    /// (`Driver::run_open_loop`); drives the starvation guard that
    /// force-admits after `SimConfig::admission_max_deferrals`. Always
    /// zero in closed-loop runs.
    pub deferrals: u32,
    /// Set when the admission layer rejected the job outright (the job
    /// is terminal `Failed` without ever being scheduled). Always false
    /// in closed-loop runs.
    pub rejected: bool,
    /// Set when the admission layer admitted the job (by policy or by
    /// the starvation guard). A job that goes terminal with neither
    /// this nor `rejected` set died as a still-queued offer. Always
    /// false in closed-loop runs.
    pub admitted: bool,
}

impl JobSim {
    /// Creates a job in the waiting state.
    pub fn new(index: usize, spec: JobSpec, arrival: f64) -> Self {
        let total_iterations = spec.total_iterations();
        let mut profile = JobProfile::new(harmony_core::job::JobId::new(index as u64));
        profile.set_memory_footprint(spec.input_bytes, spec.model_bytes);
        Self {
            name: spec.name.as_str().into(),
            spec,
            arrival,
            state: SimJobState::Waiting,
            exec: ExecPhase::Idle { ready_at: 0.0 },
            iterations_done: 0,
            total_iterations,
            profiling_left: 0,
            profile,
            alpha_k: 0,
            alpha_floor_k: 0,
            alpha_ctl: None,
            model_spilled: false,
            group: None,
            last_comp_end: 0.0,
            phase_start: 0.0,
            phase_solo: 0.0,
            phase_draw: 0.0,
            lost: Vec::new(),
            iter_start: 0.0,
            iter_tcpu: 0.0,
            iter_tnet: 0.0,
            finish: None,
            seq: 0,
            pause_requested: false,
            last_iter_wall: 0.0,
            joined_iters: 0,
            iter_stats: OnlineStats::new(),
            alpha_cost_acc: 0.0,
            alpha_cost_n: 0,
            aborted: false,
            recover_mark: None,
            migrate_mark: None,
            migrate_origin: None,
            comp_shift: None,
            push_density: None,
            drift_holdoff: 0,
            deferrals: 0,
            rejected: false,
            admitted: false,
        }
    }

    /// Whether the job still needs cluster time.
    pub fn is_live(&self) -> bool {
        !matches!(self.state, SimJobState::Finished | SimJobState::Failed)
    }

    /// Remaining iterations until convergence.
    pub fn iterations_left(&self) -> u64 {
        self.total_iterations.saturating_sub(self.iterations_done)
    }

    /// Next task-key sequence number.
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// How many runs of the current iteration were lost before.
    pub fn attempt(&self) -> u64 {
        let i = self.iterations_done;
        self.lost.iter().filter(|&&(a, b)| a <= i && i <= b).count() as u64
    }

    /// Current disk ratio α.
    pub fn alpha(&self) -> f64 {
        harmony_mem::alpha_of_steps(self.alpha_k)
    }

    /// What the job holds in its group's memory books.
    pub fn holding(&self) -> Holding {
        Holding {
            input_bytes: self.spec.input_bytes,
            model_bytes: self.spec.model_bytes,
            alpha_k: self.alpha_k,
            model_spilled: self.model_spilled,
        }
    }

    /// Moves the job's α to grid point `alpha_k` and its model-spill
    /// flag to `model_spilled`, rebooking it in `books`, its group's.
    pub fn set_memory(&mut self, books: &mut MemBooks, alpha_k: u32, model_spilled: bool) {
        books.remove(self.holding());
        self.alpha_k = alpha_k;
        self.model_spilled = model_spilled;
        books.add(self.holding());
    }

    /// Takes the job off its group's resources' books at `now`: it goes
    /// [`ExecPhase::Idle`], and if it was part-way through an iteration
    /// that run is lost.
    pub fn leave_exec(&mut self, now: f64) {
        if matches!(
            self.exec,
            ExecPhase::Running(..) | ExecPhase::Queued(Phase::Comp | Phase::Push)
        ) {
            self.lose(self.iterations_done, self.iterations_done);
        }
        self.exec = ExecPhase::Idle { ready_at: now };
    }

    /// Rolls the job back to iteration `checkpoint`: the runs of the
    /// iterations it completed since are lost.
    pub fn roll_back_to(&mut self, checkpoint: u64) {
        if checkpoint < self.iterations_done {
            self.lose(checkpoint, self.iterations_done - 1);
            self.iterations_done = checkpoint;
        }
    }

    /// Books the runs of iterations `first..=last` as lost. Entries that
    /// end before the current epoch are dropped: a rollback never goes
    /// further back than the epoch's start, so no later run can fall in
    /// them.
    fn lose(&mut self, first: u64, last: u64) {
        let per_epoch = u64::from(self.spec.iters_per_epoch.max(1));
        let epoch_start = self.iterations_done / per_epoch * per_epoch;
        self.lost.retain(|&(_, b)| b >= epoch_start);
        self.lost.push((first, last));
    }
}

/// What a group's subtask path feeds into the run report: kept per
/// group, so a group advancing on its own clock writes nothing shared,
/// and merged into the report when the group dissolves.
#[derive(Debug, Clone, Default)]
pub struct GroupAcc {
    /// GC seconds charged on the group's COMP subtasks.
    pub gc_seconds: f64,
    /// α of every COMP subtask the group dispatched.
    pub alpha_stats: OnlineStats,
    /// Wall time of every iteration its members completed in it.
    pub iter_wall: OnlineStats,
    /// Spans of its completed subtasks (with
    /// [`crate::SimConfig::record_spans`] on).
    pub spans: Vec<SubtaskSpan>,
}

/// A *boundary crossing*: what a group's subtask loop did that the rest
/// of the driver must see. The loop records it and stops at that
/// instant; the driver applies the crossings of every group, in
/// group-index order, once all groups have reached it.
#[derive(Debug, Clone)]
pub(crate) enum Crossing {
    /// The member finished its profiling iterations.
    Profiled(usize),
    /// The member's smoothed profile drifted from its scheduled basis.
    Drifted(usize),
    /// The member ran its last iteration and left the group, closing
    /// the group's prediction window if one was open.
    Finished {
        job: usize,
        prediction: Option<PredictionSample>,
    },
    /// The member paused at an iteration boundary and left the group;
    /// a live migration's checkpoint takes `checkpoint_write` seconds.
    Paused {
        job: usize,
        prediction: Option<PredictionSample>,
        checkpoint_write: Option<f64>,
    },
}

/// One simulated job group (its machines run in barrier lockstep, so
/// one CPU/NET resource pair models every machine of the group).
#[derive(Debug, Clone)]
pub struct GroupSim {
    /// Stable index into the driver's group table.
    pub id: usize,
    /// Machines allocated (the group DoP `m_g`).
    pub machines: u32,
    /// Member job indices.
    pub jobs: Vec<usize>,
    /// CPU resource (capacity 1 per machine).
    pub cpu: Fluid,
    /// Network resource.
    pub net: Fluid,
    /// Members waiting for, and holding, the group's CPU and network
    /// slots (1 + 2 under Harmony, unbounded for the naive baseline).
    pub lanes: SubtaskDiscipline<usize>,
    /// The group's own clock: its fluids are advanced to it and every
    /// internal event up to it has been handled. It moves only at the
    /// group's own events and when the driver changes the group; in
    /// between, the group rests, whatever the other groups' clocks do.
    pub clock: f64,
    /// Time the group was formed (prediction-accuracy accounting).
    pub created_at: f64,
    /// Accumulated busy resource-seconds (per machine).
    pub cpu_busy: f64,
    /// Accumulated busy network resource-seconds (per machine).
    pub net_busy: f64,
    /// Whether this group hosts profiling jobs.
    pub profiling_host: bool,
    /// Predicted group iteration time at formation (Harmony only).
    pub predicted_iteration: Option<f64>,
    /// Predicted `(cpu, net)` utilization at formation.
    pub predicted_util: Option<(f64, f64)>,
    /// When the slowest founding member finished loading (steady-state
    /// start for utilization measurement).
    pub steady_at: f64,
    /// Busy integrals snapshot taken at `steady_at` (cpu, net, time);
    /// `None` until the snapshot is taken.
    pub steady_mark: Option<(f64, f64, f64)>,
    /// Straggler-fault work multiplier applied to subtasks dispatched
    /// while `now < slow_until` (fault injection, §VI).
    pub slow_factor: f64,
    /// End of the transient slowdown window.
    pub slow_until: f64,
    /// Conservative "some member may still be loading": set wherever a
    /// member's `exec` becomes [`ExecPhase::Idle`] (attach, restart in
    /// place), cleared by the dispatch scan that finds no `Idle`
    /// member left. While clear, no member is `Idle` and the
    /// per-event O(members) promotion and ready-time scans are
    /// skipped.
    pub loading: bool,
    /// The members' memory books: exact integer sums that every
    /// membership change and every write of a member's α or model-spill
    /// flag moves, so the GC and disk-read pricing of a COMP dispatch
    /// reads them in O(1).
    pub books: MemBooks,
    /// Lazy min-heap of `(ready_at bits, job)` for members still
    /// loading input, pushed wherever a member goes `Idle` with a ready
    /// time ahead (attach, restart in place). The group's next-event
    /// lookup consults the top instead of scanning every member.
    /// Entries go stale in place (job left, re-loaded, or its ready
    /// time passed) and are popped on sight.
    pub ready_heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// `(cpu usage × m, net usage × m)` at each sample instant the
    /// group passed while it ran and the driver has not summed yet,
    /// oldest first.
    pub samples: VecDeque<(f64, f64)>,
    /// The group's share of the run report's accumulators.
    pub acc: GroupAcc,
    /// Boundary crossings recorded and not applied yet.
    pub(crate) crossings: Vec<Crossing>,
}

impl GroupSim {
    /// Creates an empty group shell; the driver populates jobs and
    /// queues.
    pub fn new(
        id: usize,
        machines: u32,
        cpu_slots: usize,
        net_slots: usize,
        interference_beta: f64,
        now: f64,
    ) -> Self {
        assert!(machines > 0, "a group needs at least one machine");
        Self {
            id,
            machines,
            jobs: Vec::new(),
            cpu: Fluid::new(1.0, interference_beta),
            net: Fluid::new(1.0, interference_beta),
            lanes: SubtaskDiscipline::new(cpu_slots, net_slots),
            clock: now,
            created_at: now,
            cpu_busy: 0.0,
            net_busy: 0.0,
            profiling_host: false,
            predicted_iteration: None,
            predicted_util: None,
            steady_at: now,
            steady_mark: None,
            slow_factor: 1.0,
            slow_until: 0.0,
            loading: false,
            books: MemBooks::default(),
            ready_heap: std::collections::BinaryHeap::new(),
            samples: VecDeque::new(),
            acc: GroupAcc::default(),
            crossings: Vec::new(),
        }
    }

    /// Work multiplier for a subtask dispatched at `now` (> 1 only
    /// inside an active slowdown-fault window).
    pub fn straggle_factor(&self, now: f64) -> f64 {
        if now < self.slow_until {
            self.slow_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Earliest future event inside this group (task completion), as
    /// seconds from now. `None` when fully idle.
    pub fn time_to_next_event(&self) -> Option<f64> {
        match (
            self.cpu.time_to_next_completion(),
            self.net.time_to_next_completion(),
        ) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    /// Makes job `j` a member and books what it holds.
    pub fn add_member(&mut self, j: usize, job: &JobSim) {
        self.jobs.push(j);
        self.books.add(job.holding());
    }

    /// Takes member `j` out of the member list and its holding off the
    /// books (its subtasks are [`Self::evict`]'s business).
    pub fn remove_member(&mut self, j: usize, job: &JobSim) {
        self.jobs.retain(|&x| x != j);
        self.books.remove(job.holding());
    }

    /// Σ input bytes of the members whose COMP subtask runs now: the
    /// working sets that are live.
    pub fn computing_input(&self, jobs: &[JobSim]) -> u128 {
        self.cpu
            .jobs()
            .map(|j| u128::from(jobs[j].spec.input_bytes))
            .sum()
    }

    /// Takes job `j`, at position `exec`, off the group's resources:
    /// out of its queue, or its running subtask cancelled and its slot
    /// freed.
    pub fn evict(&mut self, j: usize, exec: ExecPhase) {
        match exec {
            ExecPhase::Queued(_) => self.lanes.retain(|&x| x != j),
            ExecPhase::Running(_, slot) => {
                match slot.lane {
                    Lane::Cpu => self.cpu.cancel_all_of(j),
                    Lane::Net => self.net.cancel_all_of(j),
                }
                self.lanes.release(slot);
            }
            ExecPhase::Idle { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::job::AppKind;

    fn spec() -> JobSpec {
        JobSpec {
            name: "t".into(),
            app: AppKind::Mlr,
            dataset: "d".into(),
            input_bytes: 1 << 30,
            model_bytes: 1 << 28,
            comp_cost: 100.0,
            net_cost: 10.0,
            sync: Default::default(),
            pull_fraction: 0.5,
            iters_per_epoch: 5,
            target_epochs: 4,
        }
    }

    #[test]
    fn phase_cycle_and_resource() {
        assert_eq!(Phase::Pull.next(), Phase::Comp);
        assert_eq!(Phase::Comp.next(), Phase::Push);
        assert_eq!(Phase::Push.next(), Phase::Pull);
        assert_eq!(Phase::Comp.lane(), Lane::Cpu);
        assert_eq!(Phase::Pull.lane(), Lane::Net);
        assert_eq!(Phase::Push.lane(), Lane::Net);
    }

    #[test]
    fn job_initial_state() {
        let j = JobSim::new(0, spec(), 5.0);
        assert_eq!(j.state, SimJobState::Waiting);
        assert_eq!(j.total_iterations, 20);
        assert_eq!(j.iterations_left(), 20);
        assert!(j.is_live());
        assert_eq!(j.arrival, 5.0);
    }

    #[test]
    fn job_seq_is_monotone() {
        let mut j = JobSim::new(0, spec(), 0.0);
        let a = j.next_seq();
        let b = j.next_seq();
        assert!(b > a);
    }

    #[test]
    fn finished_job_is_not_live() {
        let mut j = JobSim::new(0, spec(), 0.0);
        j.state = SimJobState::Finished;
        assert!(!j.is_live());
        j.state = SimJobState::Failed;
        assert!(!j.is_live());
    }

    #[test]
    fn group_next_event_combines_resources() {
        let mut g = GroupSim::new(0, 4, 1, 2, 0.0, 0.0);
        assert_eq!(g.time_to_next_event(), None);
        g.cpu
            .add(crate::fluid::TaskKey { job: 0, seq: 1 }, 1.0, 5.0);
        g.net
            .add(crate::fluid::TaskKey { job: 1, seq: 1 }, 0.5, 1.0);
        assert_eq!(g.time_to_next_event(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn group_rejects_zero_machines() {
        let _ = GroupSim::new(0, 0, 1, 2, 0.0, 0.0);
    }

    #[test]
    fn straggle_factor_applies_only_inside_window() {
        let mut g = GroupSim::new(0, 2, 1, 2, 0.0, 0.0);
        assert_eq!(g.straggle_factor(10.0), 1.0);
        g.slow_factor = 3.0;
        g.slow_until = 50.0;
        assert_eq!(g.straggle_factor(49.9), 3.0);
        assert_eq!(g.straggle_factor(50.0), 1.0);
    }
}
