//! Simulation-time state of jobs and job groups.

use std::collections::VecDeque;
use std::sync::Arc;

use harmony_core::job::JobSpec;
use harmony_core::profile::JobProfile;
use harmony_mem::AlphaController;
use harmony_metrics::OnlineStats;

use crate::fluid::Fluid;

/// Which subtask a job is executing or waiting to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Whether the phase runs on the CPU resource.
    pub fn is_cpu(self) -> bool {
        self == Phase::Comp
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
    /// Active in the group's CPU or network resource.
    Running(Phase),
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
    /// Current disk ratio α.
    pub alpha: f64,
    /// Never let α fall below this (the group would stop fitting).
    pub alpha_floor: f64,
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
            alpha: 0.0,
            alpha_floor: 0.0,
            alpha_ctl: None,
            model_spilled: false,
            group: None,
            last_comp_end: 0.0,
            phase_start: 0.0,
            phase_solo: 0.0,
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
}

/// One simulated job group (its machines run in barrier lockstep, so
/// one CPU/NET resource pair models every machine of the group).
#[derive(Debug, Clone)]
pub struct GroupSim {
    /// Stable index into the driver's group table.
    pub id: usize,
    /// Generation counter: stale wake events are discarded.
    pub gen: u64,
    /// Machines allocated (the group DoP `m_g`).
    pub machines: u32,
    /// Member job indices.
    pub jobs: Vec<usize>,
    /// CPU resource (capacity 1 per machine).
    pub cpu: Fluid,
    /// Network resource.
    pub net: Fluid,
    /// Jobs waiting for a CPU slot.
    pub cpu_queue: VecDeque<usize>,
    /// Jobs waiting for a network slot.
    pub net_queue: VecDeque<usize>,
    /// Max concurrent CPU subtasks (1 under Harmony's discipline,
    /// unbounded for the naive baseline).
    pub cpu_slots: usize,
    /// Max concurrent network subtasks (2 under Harmony: primary +
    /// secondary).
    pub net_slots: usize,
    /// Last time the fluid resources were advanced.
    pub last_advance: f64,
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
    /// The `(gen, time)` of this group's wake event currently sitting
    /// in the driver's heap, if any — set on push, cleared on the
    /// matching pop, so re-arming an identical wake can skip the
    /// duplicate enqueue entirely.
    pub pending_wake: Option<(u64, f64)>,
    /// Conservative "some member may still be loading": set wherever a
    /// member's `exec` becomes [`ExecPhase::Idle`] (attach, restart in
    /// place), cleared by the dispatch scan that finds no `Idle`
    /// member left. While clear, no member is `Idle` and the
    /// per-event O(members) promotion and ready-time scans are
    /// skipped.
    pub loading: bool,
    /// Cached Σ over members of `(1 − α)·input·expansion` plus the
    /// unspilled model bytes — the non-workspace part of the group's
    /// memory footprint. The driver refolds it on every membership or
    /// memory-plan change and nudges it incrementally on α hill-climb
    /// steps, so the GC probe on every COMP dispatch is O(1) instead
    /// of O(members).
    pub mem_base_bytes: f64,
    /// Cached Σ over members of `α·input` bytes (background disk-read
    /// pricing), maintained alongside `mem_base_bytes`.
    pub alpha_input_bytes: f64,
    /// Lazy min-heap of `(ready_at bits, job)` for members still
    /// loading input — coalesced mode's wake re-arm consults the top
    /// instead of scanning every member (the scan is O(members) and
    /// runs on every event). Entries go stale in place (job left,
    /// re-loaded, or its ready time passed) and are popped on sight.
    pub ready_heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
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
        assert!(cpu_slots > 0 && net_slots > 0, "slots must be non-zero");
        Self {
            id,
            gen: 0,
            machines,
            jobs: Vec::new(),
            cpu: Fluid::new(1.0, interference_beta),
            net: Fluid::new(1.0, interference_beta),
            cpu_queue: VecDeque::new(),
            net_queue: VecDeque::new(),
            cpu_slots,
            net_slots,
            last_advance: now,
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
            pending_wake: None,
            loading: false,
            mem_base_bytes: 0.0,
            alpha_input_bytes: 0.0,
            ready_heap: std::collections::BinaryHeap::new(),
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

    /// Removes a job from the group's queues (used when pausing).
    pub fn unqueue(&mut self, job: usize) {
        self.cpu_queue.retain(|&j| j != job);
        self.net_queue.retain(|&j| j != job);
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
        assert!(Phase::Comp.is_cpu());
        assert!(!Phase::Pull.is_cpu());
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
    fn unqueue_removes_from_both_queues() {
        let mut g = GroupSim::new(0, 1, 1, 2, 0.0, 0.0);
        g.cpu_queue.push_back(3);
        g.net_queue.push_back(3);
        g.net_queue.push_back(4);
        g.unqueue(3);
        assert!(g.cpu_queue.is_empty());
        assert_eq!(g.net_queue, VecDeque::from(vec![4]));
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
