//! The simulation driver: events, scheduling policies, and the full run
//! loop.
//!
//! One [`Driver::run`] call executes a complete workload — arrivals,
//! profiling, scheduling, subtask execution, memory management,
//! regrouping, completion — under one [`SchedulerKind`] and returns a
//! [`RunReport`].

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use harmony_core::baseline::IsolatedScheduler;
use harmony_core::group::GroupId;
use harmony_core::job::JobId;
use harmony_core::oracle::OracleScheduler;
use harmony_core::profile::{JobProfile, ProfileStore};
use harmony_core::regroup::{ClusterView, RegroupDecision, Regrouper};
use harmony_core::schedule::{ScheduleOutcome, Scheduler};
use harmony_mem::AlphaController;
use harmony_metrics::{AdmissionStats, EventLog, Hist, MigrationStats, OnlineStats, Timeline};

use crate::admission::{AdmissionContext, AdmissionDecision, AdmissionPolicy};
use crate::config::{ReloadPolicy, SchedulerKind, SimConfig};
use crate::events::LaneQueue;
use crate::fault::FaultKind;
use crate::fluid::TaskKey;
use crate::groupmem::{self, FitOutcome, JobFootprint, MemoryParams};
use crate::idset::IdSet;
use crate::noise::Straggler;
use crate::report::{
    GroupingSnapshot, JobOutcome, PredictionSample, ReschedCounters, ReschedReason, RunReport,
};
use crate::runtime::{ExecPhase, GroupSim, JobSim, Phase, SimJobState};
use crate::schedscratch::SimSchedScratch;
use crate::spans::SubtaskSpan;
use crate::workload::WorkloadGen;

/// Member-count floor above which coalesced mode builds and tears down
/// groups with one batched memory re-plan instead of one per member.
/// Below it the per-member path is cheap and keeps the coalesced arm's
/// decision history close to the exact arm's (the tiny-workload
/// acceptance matrix runs entirely under this floor); above it the
/// per-member re-plans make group builds O(k²), which dominated the
/// event wall once windows let groups grow into the hundreds.
const COALESCE_BATCH_BUILD_MIN: usize = 32;

/// Deterministic exponential-ish inter-failure gap (inverse CDF on a
/// splitmix64 stream).
fn next_failure_gap(seed: u64, n: u64, mtbf: f64) -> f64 {
    let mut z = (seed ^ 0xD6E8_FEB8_6659_FD93)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add((n + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z as f64 / u64::MAX as f64).clamp(1e-9, 1.0 - 1e-9);
    -u.ln() * mtbf
}

/// Deterministic per-(seed, job, component) relative error in
/// `[-amplitude, +amplitude]`, fixed for a whole run (splitmix64 hash).
fn persistent_error(seed: u64, job: u64, component: u64, amplitude: f64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(job.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(component.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = z as f64 / u64::MAX as f64; // [0, 1]
    (unit * 2.0 - 1.0) * amplitude
}

/// Heap-ordered simulation time (finite `f64`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Times are finite by construction; total_cmp agrees with the
        // numeric order there and cannot panic.
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival(usize),
    Wake {
        group: usize,
        gen: u64,
    },
    Sample,
    NaiveForm,
    /// A machine fails somewhere in the cluster (§VI).
    Failure(u64),
    /// Scheduled fault from the configured
    /// [`FaultPlan`](crate::fault::FaultPlan); the payload indexes the
    /// plan's event list.
    Fault(usize),
    /// A migrating job's checkpoint finished writing: re-place it
    /// ([`SimConfig::live_migration`]).
    Migrate(usize),
    /// A coalescing window expired: flush the deferred finish pass
    /// ([`SimConfig::coalesced_passes`]). Stale generations — the
    /// window already flushed early or was subsumed by another full
    /// pass — no-op.
    FlushCoalesce(u64),
}

#[derive(Debug)]
enum Notify {
    Profiled(usize),
    /// A running job's smoothed profile moved ≥ the similarity
    /// threshold away from the basis its schedule was computed with
    /// (§IV-B4 drift; only produced with
    /// [`SimConfig::profile_feedback`] on).
    Drifted(usize),
    Finished {
        job: usize,
        group: usize,
    },
}

/// The discrete-event simulation driver.
pub struct Driver {
    cfg: SimConfig,
    mem: MemoryParams,
    jobs: Vec<JobSim>,
    groups: Vec<Option<GroupSim>>,
    /// Index definition: ids of jobs with `arrival <= now` that are not
    /// terminal, ascending. Every job scan on the event, admission,
    /// notification, reschedule and sampling paths walks this instead
    /// of `jobs` — same members, same order, O(active). Entered by
    /// arrival *time* ([`Self::advance_now`]), left in
    /// [`Self::set_terminal`].
    arrived_live: IdSet,
    /// Job ids sorted by `(arrival, id)`; `arrival_cursor` is the first
    /// one whose arrival `now` has not reached yet.
    arrival_order: Vec<usize>,
    arrival_cursor: usize,
    /// Index definition: ids of group slots created and not yet
    /// dissolved, ascending ([`Self::alive_groups`] walks this instead
    /// of `groups`). A slot whose `GroupSim` is temporarily `take()`n
    /// out stays in the index.
    alive: IdSet,
    free_machines: u32,
    now: f64,
    events: LaneQueue<(Time, u64, EventKind)>,
    event_seq: u64,
    noise: Straggler,
    scheduler: Scheduler,
    regrouper: Regrouper,
    oracle: OracleScheduler,
    bootstrapped: bool,
    naive_form_scheduled: bool,
    isolated_queue: VecDeque<usize>,
    /// Jobs that reached a terminal state (finished or failed); the
    /// live count is `jobs.len() - dead_jobs`, so the event loop never
    /// scans the job table to know whether work remains.
    dead_jobs: usize,
    /// Live jobs currently attached to a group — maintained at every
    /// attach/detach/terminal transition so utilization sampling never
    /// scans the job table (fast event path).
    active_scheduled: usize,
    /// Scratch arena: member snapshots taken while a group is mutated.
    scratch_members: Vec<usize>,
    /// Scratch arena: footprint buffer for the memory model.
    scratch_fp: Vec<JobFootprint>,
    /// Scratch arena: second footprint buffer (probe internals).
    scratch_fp2: Vec<JobFootprint>,
    /// Scratch arena: alive-group id snapshots for fault targeting.
    scratch_groups: Vec<usize>,
    /// Scratch arena: fluid completion keys drained on each group
    /// catch-up (one buffer for both resources, reused per wake).
    scratch_done: Vec<TaskKey>,
    /// Scratch arena: notifications produced while handling a wake.
    scratch_notes: Vec<Notify>,
    /// Scratch arena: notifications produced inside `bump_and_wake`
    /// (a separate buffer — `scratch_notes` may be checked out by the
    /// event loop while a notification handler re-enters a bump).
    scratch_notes_bump: Vec<Notify>,
    /// Persistent reschedule buffers (ordering, profiles, core scratch).
    sched_scratch: SimSchedScratch,
    /// Open-loop admission policy ([`Driver::run_open_loop`]); `None`
    /// in closed-loop runs, where every arrival dispatches directly.
    admission: Option<Box<dyn AdmissionPolicy>>,
    /// Admission decision counters and queue-wait distribution.
    admission_stats: AdmissionStats,
    /// Virtual time the open coalescing window started at; `None` when
    /// closed (always `None` with [`SimConfig::coalesced_passes`] off).
    coalesce_opened: Option<f64>,
    /// Finishes absorbed by the currently open window.
    coalesce_batch: usize,
    /// Window generation, stamped into [`EventKind::FlushCoalesce`] so
    /// expiry events for already-flushed windows no-op.
    coalesce_gen: u64,
    /// Notifications discovered while mutating group state; drained at
    /// the top event loop only, so scheduling never re-enters itself.
    deferred: Vec<Notify>,
    // Report accumulators.
    cpu_busy_total: f64,
    net_busy_total: f64,
    cpu_tl: Timeline,
    net_tl: Timeline,
    oom_events: Vec<(f64, String)>,
    snapshots: Vec<GroupingSnapshot>,
    predictions: Vec<PredictionSample>,
    sched_invocations: usize,
    sched_wall: Duration,
    event_wall: Duration,
    resched_reasons: ReschedCounters,
    migrations: usize,
    failures_injected: usize,
    /// Machines permanently removed by plan-driven crashes.
    machines_lost: u32,
    /// Jobs killed by plan-driven aborts.
    jobs_aborted: usize,
    /// Fault and recovery timeline (§VI).
    fault_log: EventLog,
    /// Seconds from each fault to the affected jobs' resumption.
    recovery_stats: OnlineStats,
    /// Live checkpoint/resume migrations (§IV-B4).
    migration_stats: MigrationStats,
    gc_seconds: f64,
    alpha_stats: OnlineStats,
    iter_wall_stats: OnlineStats,
    spans: Vec<SubtaskSpan>,
    /// Per-group, per-member iteration-period statistics; Eq. 1 is
    /// validated against the slowest member's mean period.
    group_iter_stats: Vec<std::collections::HashMap<usize, OnlineStats>>,
    concurrent_stats: OnlineStats,
    /// Coalescing windows opened over the run.
    coalesce_windows: usize,
    /// Finishes absorbed into windows instead of firing full passes.
    coalesced_finishes: usize,
    /// Targeted release passes run while windows were open.
    release_passes: usize,
    /// Per-window staleness: how long the deferred finish pass waited.
    coalesce_staleness: Hist,
}

impl Driver {
    /// Creates a driver for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid simulation config: {e}");
        }
        let mem = MemoryParams {
            capacity: cfg.machine.memory_bytes,
            expansion: cfg.memory_expansion,
            workspace_fraction: cfg.workspace_fraction,
        };
        Self {
            noise: Straggler::new(cfg.straggler_cv, cfg.seed ^ 0x5u64),
            scheduler: Scheduler::new(cfg.scheduler_config),
            regrouper: Regrouper::new(Scheduler::new(cfg.scheduler_config))
                .with_incremental(cfg.incremental_resched),
            oracle: OracleScheduler::new(cfg.scheduler_config),
            free_machines: cfg.machines,
            mem,
            events: LaneQueue::new(cfg.incremental_resched),
            cfg,
            jobs: Vec::new(),
            groups: Vec::new(),
            arrived_live: IdSet::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            alive: IdSet::new(),
            now: 0.0,
            event_seq: 0,
            bootstrapped: false,
            naive_form_scheduled: false,
            isolated_queue: VecDeque::new(),
            dead_jobs: 0,
            active_scheduled: 0,
            scratch_members: Vec::new(),
            scratch_fp: Vec::new(),
            scratch_fp2: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_done: Vec::new(),
            scratch_notes: Vec::new(),
            scratch_notes_bump: Vec::new(),
            sched_scratch: SimSchedScratch::new(),
            admission: None,
            admission_stats: AdmissionStats::new(),
            coalesce_opened: None,
            coalesce_batch: 0,
            coalesce_gen: 0,
            deferred: Vec::new(),
            cpu_busy_total: 0.0,
            net_busy_total: 0.0,
            cpu_tl: Timeline::new("cpu-util"),
            net_tl: Timeline::new("net-util"),
            oom_events: Vec::new(),
            snapshots: Vec::new(),
            predictions: Vec::new(),
            sched_invocations: 0,
            sched_wall: Duration::ZERO,
            event_wall: Duration::ZERO,
            resched_reasons: ReschedCounters::default(),
            migrations: 0,
            failures_injected: 0,
            machines_lost: 0,
            jobs_aborted: 0,
            fault_log: EventLog::new(),
            recovery_stats: OnlineStats::new(),
            migration_stats: MigrationStats::new(),
            gc_seconds: 0.0,
            alpha_stats: OnlineStats::new(),
            iter_wall_stats: OnlineStats::new(),
            spans: Vec::new(),
            group_iter_stats: Vec::new(),
            concurrent_stats: OnlineStats::new(),
            coalesce_windows: 0,
            coalesced_finishes: 0,
            release_passes: 0,
            coalesce_staleness: Hist::new(),
        }
    }

    /// Runs the whole workload to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics on any of the validation failures [`Self::try_run`]
    /// reports as errors (mismatched lengths, invalid specs, bad
    /// arrival times, out-of-range scripted shifts).
    pub fn run(
        cfg: SimConfig,
        specs: Vec<harmony_core::job::JobSpec>,
        arrivals: Vec<f64>,
    ) -> RunReport {
        match Self::try_run(cfg, specs, arrivals) {
            Ok(r) => r,
            Err(e) => panic!("invalid run request: {e}"),
        }
    }

    /// [`Self::run`] with validation errors reported instead of
    /// panicking: mismatched spec/arrival lengths, invalid job specs,
    /// non-finite or negative arrival times, and scripted shifts
    /// naming out-of-range jobs all come back as `Err`.
    pub fn try_run(
        cfg: SimConfig,
        specs: Vec<harmony_core::job::JobSpec>,
        arrivals: Vec<f64>,
    ) -> Result<RunReport, String> {
        Self::run_prepared(cfg, specs, arrivals, None)
    }

    /// The open-loop entry: drains `gen`'s arrival process into a
    /// fixed trace and runs it with `policy` consulted at the top of
    /// every arrival event. With [`crate::admission::AdmitAll`] the
    /// report is byte-identical ([`RunReport::canonical_bytes`]) to
    /// [`Self::run`] on the generated `(specs, arrivals)` — the
    /// admission layer only diverges when a policy actually defers or
    /// rejects.
    pub fn run_open_loop(
        cfg: SimConfig,
        gen: WorkloadGen,
        policy: Box<dyn AdmissionPolicy>,
    ) -> Result<RunReport, String> {
        let (specs, arrivals) = gen.generate();
        Self::run_prepared(cfg, specs, arrivals, Some(policy))
    }

    /// [`Self::try_run`] with an admission policy consulted at every
    /// arrival: the open-loop admission layer applied to a fixed,
    /// caller-supplied trace. This is how burst workloads (many jobs
    /// at `t = 0`, which an interarrival process never emits) and
    /// captured replays exercise admission control.
    pub fn run_admitted(
        cfg: SimConfig,
        specs: Vec<harmony_core::job::JobSpec>,
        arrivals: Vec<f64>,
        policy: Box<dyn AdmissionPolicy>,
    ) -> Result<RunReport, String> {
        Self::run_prepared(cfg, specs, arrivals, Some(policy))
    }

    /// Shared setup for the closed- and open-loop entries. Arrivals
    /// and scripted shifts are pushed in the exact event-sequence
    /// order the closed loop has always used, so the open loop's
    /// tie-breaking is bit-compatible.
    fn run_prepared(
        cfg: SimConfig,
        specs: Vec<harmony_core::job::JobSpec>,
        arrivals: Vec<f64>,
        admission: Option<Box<dyn AdmissionPolicy>>,
    ) -> Result<RunReport, String> {
        if let Err(e) = cfg.validate() {
            return Err(format!("invalid simulation config: {e}"));
        }
        if specs.len() != arrivals.len() {
            return Err(format!(
                "one arrival time per job: {} specs but {} arrivals",
                specs.len(),
                arrivals.len()
            ));
        }
        for (i, at) in arrivals.iter().enumerate() {
            if !at.is_finite() || *at < 0.0 {
                return Err(format!("job {i} arrival time {at} not finite and >= 0"));
            }
        }
        for (i, spec) in specs.iter().enumerate() {
            if let Err(e) = spec.validate() {
                return Err(format!("job {i} spec invalid: {e}"));
            }
        }
        for s in &cfg.comp_shifts {
            if s.job >= specs.len() {
                return Err(format!(
                    "comp shift names job {} but only {} jobs exist",
                    s.job,
                    specs.len()
                ));
            }
        }
        for p in &cfg.push_densities {
            if p.job >= specs.len() {
                return Err(format!(
                    "push density names job {} but only {} jobs exist",
                    p.job,
                    specs.len()
                ));
            }
        }
        let mut d = Driver::new(cfg);
        d.admission = admission;
        for (i, (spec, at)) in specs.into_iter().zip(arrivals).enumerate() {
            d.jobs.push(JobSim::new(i, spec, at));
            d.push_event(at, EventKind::Arrival(i));
        }
        d.arrival_order = (0..d.jobs.len()).collect();
        d.arrival_order.sort_by(|&a, &b| {
            d.jobs[a]
                .arrival
                .total_cmp(&d.jobs[b].arrival)
                .then(a.cmp(&b))
        });
        d.advance_now(0.0);
        for s in &d.cfg.comp_shifts {
            d.jobs[s.job].comp_shift = Some((s.at_iteration, s.factor));
        }
        let densities = d.cfg.push_densities.clone();
        for p in &densities {
            d.jobs[p.job].push_density = Some(p.density);
        }
        d.push_event(0.0, EventKind::Sample);
        if let Some(mtbf) = d.cfg.failure_mtbf_secs {
            d.push_event(next_failure_gap(d.cfg.seed, 0, mtbf), EventKind::Failure(1));
        }
        if let Some(plan) = d.cfg.fault_plan.clone() {
            for (i, ev) in plan.events().iter().enumerate() {
                d.push_event(ev.at, EventKind::Fault(i));
            }
        }
        d.event_loop();
        Ok(d.finalize())
    }

    fn push_event(&mut self, at: f64, kind: EventKind) {
        self.event_seq += 1;
        // One lane per group (wake churn dominates event traffic); all
        // global events share lane 0.
        let lane = match kind {
            EventKind::Wake { group, .. } => group + 1,
            _ => 0,
        };
        self.events.push(lane, (Time(at), self.event_seq, kind));
    }

    /// Moves the clock forward to `t` (never backward) and enters every
    /// job whose arrival time it reached into `arrived_live`. Membership
    /// goes by arrival *time*, not by the `Arrival` event: in a burst,
    /// admission must already count same-instant jobs whose event has
    /// not fired yet.
    fn advance_now(&mut self, t: f64) {
        self.now = self.now.max(t);
        while let Some(&j) = self.arrival_order.get(self.arrival_cursor) {
            if self.jobs[j].arrival > self.now {
                break;
            }
            // A fault-plan abort can kill a job before it arrives.
            if self.jobs[j].is_live() {
                self.arrived_live.insert(j);
            }
            self.arrival_cursor += 1;
        }
    }

    /// Debug cross-check, run after every event: each index equals the
    /// brute-force scan it replaces (full walks on purpose).
    fn indices_match_scans(&self) -> bool {
        let arrived_live = (0..self.jobs.len())
            .filter(|&j| self.jobs[j].arrival <= self.now && self.jobs[j].is_live());
        let alive = (0..self.groups.len()).filter(|&g| self.groups[g].is_some());
        self.arrived_live.iter().eq(arrived_live) && self.alive.iter().eq(alive)
    }

    fn live_jobs(&self) -> usize {
        // Debug cross-check of the dead-job counter (a full walk on
        // purpose: not-yet-arrived jobs are live too).
        debug_assert_eq!(
            self.jobs.len() - self.dead_jobs,
            self.jobs.iter().filter(|j| j.is_live()).count(),
            "dead-job counter out of sync"
        );
        self.jobs.len() - self.dead_jobs
    }

    /// Moves a job into a terminal state exactly once, keeping the
    /// dead-job counter (and thus `live_jobs`) exact.
    fn set_terminal(&mut self, j: usize, state: SimJobState, at: f64) {
        debug_assert!(matches!(state, SimJobState::Finished | SimJobState::Failed));
        // A pending migration dies with the job: a drifted job can reach
        // its final iteration (or be aborted / crash-killed) before the
        // pause boundary, and the checkpoint it announced must be
        // written off or the books never balance.
        if self.jobs[j].migrate_mark.take().is_some() {
            self.migration_stats.cancel();
        }
        self.jobs[j].migrate_origin = None;
        if self.jobs[j].is_live() {
            self.dead_jobs += 1;
            // Absent (a no-op) when the job has not arrived yet.
            self.arrived_live.remove(j);
            if self.jobs[j].group.is_some() {
                self.active_scheduled -= 1;
            }
            // An offer that dies still queued (deferred, or not yet
            // arrived) was never decided: book it, or the admission
            // books come up short.
            if self.admission.is_some() && !self.jobs[j].admitted && !self.jobs[j].rejected {
                self.admission_stats.withdraw();
            }
        }
        self.jobs[j].state = state;
        self.jobs[j].finish = Some(at);
    }

    fn event_loop(&mut self) {
        let loop_t0 = Instant::now();
        let mut stall_breaker = 0;
        let debug = std::env::var_os("HARMONY_SIM_DEBUG").is_some();
        let mut popped = 0u64;
        let mut stale_wakes = 0u64;
        while let Some((Time(t), _, kind)) = self.events.pop() {
            if debug {
                popped += 1;
                if let EventKind::Wake { group, gen } = kind {
                    let live = self
                        .groups
                        .get(group)
                        .is_some_and(|g| g.as_ref().is_some_and(|g| g.gen == gen));
                    if !live {
                        stale_wakes += 1;
                    }
                }
            }
            if self.live_jobs() == 0 {
                break;
            }
            if t > self.cfg.max_sim_seconds {
                if std::env::var_os("HARMONY_SIM_DEBUG").is_some() {
                    // Full walk: runs once, on the runaway cut-off.
                    for (i, job) in self.jobs.iter().enumerate() {
                        if job.is_live() {
                            eprintln!(
                                "stuck job {i} {}: state={:?} exec={:?} group={:?} iters={} pl={}",
                                job.spec.name,
                                job.state,
                                job.exec,
                                job.group,
                                job.iterations_done,
                                job.profiling_left
                            );
                        }
                    }
                    for g in self.alive_groups() {
                        let grp = self.groups[g].as_ref().unwrap();
                        eprintln!(
                            "alive group {g}: m={} jobs={:?} cpuq={:?} netq={:?} cpu_tasks={} net_tasks={} prof_host={}",
                            grp.machines, grp.jobs, grp.cpu_queue, grp.net_queue,
                            grp.cpu.len(), grp.net.len(), grp.profiling_host
                        );
                    }
                    eprintln!(
                        "free_machines={} bootstrapped={}",
                        self.free_machines, self.bootstrapped
                    );
                }
                // Runaway config: abandon remaining work as failed. A
                // full walk: jobs that never arrived fail too.
                for j in 0..self.jobs.len() {
                    if self.jobs[j].is_live() {
                        self.set_terminal(j, SimJobState::Failed, t);
                    }
                }
                break;
            }
            self.advance_now(t);
            match kind {
                EventKind::Arrival(j) => self.on_arrival(j),
                EventKind::Wake { group, gen } => {
                    // This wake left the heap: clear its pending marker
                    // (stale-gen wakes leave newer markers untouched —
                    // the tuple no longer matches).
                    if let Some(grp) = self.groups.get_mut(group).and_then(Option::as_mut) {
                        if grp.pending_wake == Some((gen, t)) {
                            grp.pending_wake = None;
                        }
                    }
                    let valid = self
                        .groups
                        .get(group)
                        .is_some_and(|g| g.as_ref().is_some_and(|g| g.gen == gen));
                    if valid {
                        let mut notes = std::mem::take(&mut self.scratch_notes);
                        self.advance_group(group, &mut notes);
                        self.handle_notifications(&mut notes);
                        notes.clear();
                        self.scratch_notes = notes;
                    }
                }
                EventKind::Sample => {
                    self.sample_utilization();
                    if self.live_jobs() > 0 {
                        self.push_event(
                            self.now + self.cfg.utilization_sample_secs,
                            EventKind::Sample,
                        );
                    }
                }
                EventKind::NaiveForm => {
                    self.naive_form_scheduled = false;
                    self.naive_form_groups();
                }
                EventKind::Failure(n) => {
                    self.inject_failure(n);
                    if let Some(mtbf) = self.cfg.failure_mtbf_secs {
                        if self.live_jobs() > 0 {
                            self.push_event(
                                self.now + next_failure_gap(self.cfg.seed, n, mtbf),
                                EventKind::Failure(n + 1),
                            );
                        }
                    }
                }
                EventKind::Fault(i) => self.on_fault(i),
                EventKind::Migrate(j) => self.on_migrate_ready(j),
                EventKind::FlushCoalesce(gen) => self.on_flush_coalesce(gen),
            }
            // Drain notifications deferred during state mutation.
            let mut guard = 0;
            while !self.deferred.is_empty() {
                let mut notes = std::mem::take(&mut self.deferred);
                self.handle_notifications(&mut notes);
                // Hand the (drained) buffer back if nothing new was
                // deferred, preserving its capacity for the next round.
                if self.deferred.is_empty() {
                    notes.clear();
                    self.deferred = notes;
                    break;
                }
                guard += 1;
                assert!(guard < 1000, "deferred-notification livelock");
            }
            debug_assert!(
                self.indices_match_scans(),
                "live-job / alive-group index out of sync with its scan"
            );
            // Deadlock guardrail: live jobs but no pending events.
            if self.events.is_empty() && self.live_jobs() > 0 {
                stall_breaker += 1;
                assert!(
                    stall_breaker < 64,
                    "simulation stalled at t={} with {} live jobs",
                    self.now,
                    self.live_jobs()
                );
                self.unstall();
            }
        }
        // Everything the loop spent outside scheduling decisions is
        // event-path time (fluid advancement, queue churn, memory).
        self.event_wall = loop_t0.elapsed().saturating_sub(self.sched_wall);
        if debug {
            eprintln!(
                "event-loop: popped={popped} stale_wakes={stale_wakes} group_slots={}",
                self.groups.len()
            );
        }
    }

    /// Last-resort progress: re-run the placement machinery.
    fn unstall(&mut self) {
        match self.cfg.scheduler {
            SchedulerKind::Harmony | SchedulerKind::Oracle => {
                self.reschedule_because(ReschedReason::Unstall);
                // Anything still waiting (e.g. never profiled because no
                // group existed) re-enters profiling. A full walk: the
                // last-resort path runs at most 64 times a run and must
                // not depend on the indices it may be rescuing.
                let waiting: Vec<usize> = (0..self.jobs.len())
                    .filter(|&j| self.jobs[j].state == SimJobState::Waiting)
                    .collect();
                for j in waiting {
                    self.place_for_profiling(j);
                }
            }
            SchedulerKind::Isolated => self.isolated_admit(),
            SchedulerKind::Naive { .. } => self.naive_form_groups(),
        }
    }

    // ----------------------------------------------------------------
    // Arrival handling.
    // ----------------------------------------------------------------

    fn on_arrival(&mut self, j: usize) {
        // A deferred re-offer can trail a job the run already
        // terminated (runaway cutoff, plan-driven abort): drop it.
        if !self.jobs[j].is_live() {
            return;
        }
        if self.admission.is_some() && !self.admission_decide(j) {
            return; // deferred (re-offer queued) or rejected (terminal)
        }
        match self.cfg.scheduler {
            SchedulerKind::Harmony | SchedulerKind::Oracle => self.place_for_profiling(j),
            SchedulerKind::Isolated => {
                self.isolated_queue.push_back(j);
                self.isolated_admit();
            }
            SchedulerKind::Naive { .. } => {
                if !self.naive_form_scheduled {
                    self.naive_form_scheduled = true;
                    self.push_event(self.now + 1.0, EventKind::NaiveForm);
                }
            }
        }
    }

    /// Consults the admission policy about one offer of job `j`.
    /// Returns `true` when the job should dispatch now; `false` when
    /// the offer was deferred (a re-offer event is queued) or rejected
    /// (the job is terminal `Failed` with its `rejected` flag set).
    fn admission_decide(&mut self, j: usize) -> bool {
        // The policy is boxed state owned by the driver; take it out so
        // pricing and the decision can borrow `self` freely.
        let mut policy = self.admission.take().expect("caller checked presence");
        let marginal = if policy.needs_pricing() {
            Some(self.price_arrival(j))
        } else {
            None
        };
        let deferrals = self.jobs[j].deferrals;
        let ctx = AdmissionContext {
            now: self.now,
            machines: self.cfg.machines.saturating_sub(self.machines_lost),
            free_machines: self.free_machines,
            backlog: self.admission_backlog(j),
            deferrals,
            marginal_utility: marginal,
            spec: &self.jobs[j].spec,
        };
        let decision = policy.decide(&ctx);
        self.admission = Some(policy);
        let wait = (self.now - self.jobs[j].arrival).max(0.0);
        match decision {
            AdmissionDecision::Admit => {
                self.admission_stats.admit(wait);
                self.jobs[j].admitted = true;
                true
            }
            AdmissionDecision::Defer if deferrals >= self.cfg.admission_max_deferrals => {
                // Starvation guard: the driver overrides the policy
                // once the deferral budget is spent, bounding queue
                // wait at roughly `max_deferrals × reoffer_secs`.
                self.admission_stats.admit_forced(wait);
                self.jobs[j].admitted = true;
                true
            }
            AdmissionDecision::Defer => {
                self.jobs[j].deferrals += 1;
                self.admission_stats.defer();
                self.push_event(
                    self.now + self.cfg.admission_reoffer_secs,
                    EventKind::Arrival(j),
                );
                false
            }
            AdmissionDecision::Reject => {
                self.admission_stats.reject();
                self.jobs[j].rejected = true;
                self.set_terminal(j, SimJobState::Failed, self.now);
                false
            }
        }
    }

    /// Live jobs already admitted but not running — the scheduler's
    /// backlog as admission sees it, excluding the candidate itself
    /// (which is still `Waiting` while its offer is decided). Walking
    /// `arrived_live` is the arrival-time filter: the driver pre-creates
    /// every job of the trace in `Waiting`, but jobs whose arrival lies
    /// in the future are not backlog — while same-instant jobs whose
    /// `Arrival` event has not fired yet are.
    fn admission_backlog(&self, cand: usize) -> usize {
        self.arrived_live
            .iter()
            .filter(|&i| {
                i != cand
                    && matches!(
                        self.jobs[i].state,
                        SimJobState::Waiting | SimJobState::Profiled | SimJobState::Paused
                    )
            })
            .count()
    }

    /// Prices admitting job `j` right now: the marginal Eq. 4 score of
    /// the cluster with the candidate versus without it, over the warm
    /// profiles of live jobs plus an a-priori profile built from the
    /// candidate's spec ([`JobProfile::from_reference`] — the same
    /// construction the isolated baseline uses before profiling).
    /// Accounted as scheduler wall time but not as an invocation:
    /// pricing never places anything, so the canonical decision count
    /// stays comparable across admission arms.
    fn price_arrival(&mut self, j: usize) -> f64 {
        let machines = self.cfg.machines.saturating_sub(self.machines_lost);
        if machines == 0 {
            return 0.0;
        }
        let t0 = Instant::now();
        let mut ss = std::mem::take(&mut self.sched_scratch);
        ss.admission_profiles.clear();
        for i in self.arrived_live.iter() {
            // Warm implies arrived: a profile warms only by iterating.
            if i != j && self.jobs[i].profile.is_warm() {
                ss.admission_profiles.push(self.jobs[i].profile.clone());
            }
        }
        let spec = &self.jobs[j].spec;
        let mut cand =
            JobProfile::from_reference(JobId::new(j as u64), spec.comp_cost, spec.net_cost);
        cand.set_memory_footprint(spec.input_bytes, spec.model_bytes);
        // The candidate goes last: `price_candidate` scores the job
        // sequence with and without its final profile.
        ss.admission_profiles.push(cand);
        let price = self.scheduler.price_candidate(
            &ss.admission_profiles,
            machines,
            &mut ss.admission_cache,
            &mut ss.admission_scratch,
        );
        self.sched_scratch = ss;
        self.sched_wall += t0.elapsed();
        price.marginal()
    }

    /// Places a new job for profiling (§IV-B1: "a job group with the
    /// smallest number of machines or a job group that is already
    /// profiling another new job").
    fn place_for_profiling(&mut self, j: usize) {
        self.jobs[j].state = SimJobState::Profiling;
        self.jobs[j].profiling_left = self.cfg.profile_iterations;

        // Prefer an existing profiling host with room.
        let host = self
            .alive_groups()
            .filter(|&g| {
                let grp = self.groups[g].as_ref().expect("alive");
                grp.profiling_host && grp.jobs.len() < self.cfg.profiling_group_jobs
            })
            .min_by_key(|&g| self.groups[g].as_ref().expect("alive").jobs.len());
        if let Some(g) = host {
            self.attach_job(g, j, true);
            return;
        }
        // Otherwise spin up a new profiling group from free machines.
        if self.free_machines > 0 {
            let m = self.cfg.profiling_group_machines.min(self.free_machines);
            let g = self.create_group(m, true, None, None);
            self.attach_job(g, j, true);
            return;
        }
        // No free machines: piggyback on the smallest group.
        if let Some(g) = self
            .alive_groups()
            .min_by_key(|&g| self.groups[g].as_ref().expect("alive").machines)
        {
            self.attach_job(g, j, true);
        }
        // Else: stay Waiting; the unstall guardrail will retry.
    }

    // ----------------------------------------------------------------
    // Group construction / teardown.
    // ----------------------------------------------------------------

    fn discipline(&self) -> (usize, usize) {
        if let Some(slots) = self.cfg.discipline_override {
            return slots;
        }
        match self.cfg.scheduler {
            SchedulerKind::Naive { .. } => (usize::MAX / 2, usize::MAX / 2),
            _ => (1, 2),
        }
    }

    fn create_group(
        &mut self,
        machines: u32,
        profiling_host: bool,
        predicted_iteration: Option<f64>,
        predicted_util: Option<(f64, f64)>,
    ) -> usize {
        assert!(machines <= self.free_machines, "machine over-allocation");
        self.free_machines -= machines;
        let id = self.groups.len();
        let (cpu_slots, net_slots) = self.discipline();
        let beta = match self.cfg.scheduler {
            SchedulerKind::Naive { .. } => self.cfg.interference_beta,
            _ => 0.0,
        };
        let mut g = GroupSim::new(id, machines, cpu_slots, net_slots, beta, self.now);
        g.profiling_host = profiling_host;
        g.predicted_iteration = predicted_iteration;
        g.predicted_util = predicted_util;
        self.groups.push(Some(g));
        self.alive.insert(id);
        self.group_iter_stats.push(std::collections::HashMap::new());
        id
    }

    /// Adds a job to a group, charging an input-(re)load delay, and
    /// recomputes the group's memory plan. Returns `false` (reverting
    /// the job to a placeable state) when the group no longer exists —
    /// e.g. it was dissolved by an OOM kill while a batch of jobs was
    /// being attached.
    fn attach_job(&mut self, g: usize, j: usize, keep_state: bool) -> bool {
        self.attach_job_with_replan(g, j, keep_state, true)
    }

    /// [`Self::attach_job`] with the memory re-plan optionally
    /// deferred. Population loops in coalesced mode attach every member
    /// first and re-plan once ([`Self::finish_group_build`]): the
    /// per-attach re-plan is O(members), so building a k-member group
    /// through it costs O(k²) — the dominant event-path term once
    /// windows let groups grow into the thousands.
    fn attach_job_with_replan(
        &mut self,
        g: usize,
        j: usize,
        keep_state: bool,
        replan: bool,
    ) -> bool {
        let Some(machines) = self
            .groups
            .get(g)
            .and_then(|x| x.as_ref())
            .map(|grp| grp.machines)
        else {
            if self.jobs[j].is_live() {
                self.jobs[j].state = if self.jobs[j].profile.is_warm() {
                    SimJobState::Paused
                } else {
                    SimJobState::Waiting
                };
            }
            return false;
        };
        let mut load_bytes = (1.0 - self.jobs[j].alpha) * self.jobs[j].spec.input_bytes as f64;
        // A live-migrating job reloads its model checkpoint alongside
        // its input blocks (§IV-B4).
        if self.jobs[j].migrate_mark.is_some() {
            load_bytes += self.jobs[j].spec.model_bytes as f64;
        }
        let delay = load_bytes / (f64::from(machines) * self.cfg.machine.disk_bytes_per_sec);
        // A migration completes at whichever placement lands first —
        // the targeted `Migrate` pass or any cluster-wide reschedule
        // that got there before it (the other path then no-ops on its
        // staleness guards).
        if let Some(mark) = self.jobs[j].migrate_mark.take() {
            let latency = (self.now + delay - mark).max(0.0);
            self.migration_stats.finish(latency);
            // Open the settle window: no drift checks while the EWMA
            // converges on the post-move regime.
            self.jobs[j].drift_holdoff =
                self.jobs[j].iterations_done + u64::from(self.cfg.migration_settle_iters);
        }
        self.jobs[j].migrate_origin = None;
        // A job orphaned by a fault completes its recovery the moment it
        // is re-placed and reloaded somewhere.
        if let Some(mark) = self.jobs[j].recover_mark.take() {
            let latency = (self.now + delay - mark).max(0.0);
            self.recovery_stats.observe(latency);
            self.fault_log.record(
                self.now,
                "recovery",
                format!(
                    "job {} re-placed {latency:.0}s after fault",
                    self.jobs[j].spec.name
                ),
            );
        }
        if self.jobs[j].group.is_none() && self.jobs[j].is_live() {
            self.active_scheduled += 1;
        }
        let job = &mut self.jobs[j];
        job.group = Some(g);
        job.exec = ExecPhase::Idle {
            ready_at: self.now + delay,
        };
        job.pause_requested = false;
        job.last_comp_end = self.now + delay;
        if !keep_state {
            job.state = SimJobState::Running;
        }
        self.jobs[j].joined_iters = self.jobs[j].iterations_done;
        let mut grp = self.groups[g].take().expect("alive group");
        self.finalize_prediction_of(&mut grp);
        grp.jobs.push(j);
        if self.coalesce_active() && delay > 0.0 {
            grp.ready_heap
                .push(std::cmp::Reverse(((self.now + delay).to_bits(), j)));
        }
        grp.steady_at = grp.steady_at.max(self.now + delay);
        grp.steady_mark = None;
        self.groups[g] = Some(grp);
        if !replan {
            return true;
        }
        self.recompute_group_memory(g);
        self.bump_and_wake(g);
        // The OOM path inside recompute may have dissolved the group or
        // killed this very job. (The load-completion wake is armed by
        // `arm_wake`, which accounts for members' ready times.)
        if self.groups.get(g).and_then(|x| x.as_ref()).is_none() {
            return self.jobs[j].is_live();
        }
        let _ = delay;
        true
    }

    /// Completes a deferred-replan population loop: one memory re-plan
    /// and wake re-arm for the whole batch (dissolving the group if
    /// every candidate member turned out to be dead).
    fn finish_group_build(&mut self, g: usize) {
        let Some(grp) = self.groups.get(g).and_then(|x| x.as_ref()) else {
            return;
        };
        if grp.jobs.is_empty() {
            self.dissolve_group(g);
            return;
        }
        self.recompute_group_memory(g);
        self.bump_and_wake(g);
    }

    /// Removes a job from its group; dissolves the group when empty.
    fn detach_job(&mut self, j: usize) {
        self.detach_job_with_replan(j, true);
    }

    /// [`Self::detach_job`] with the memory re-plan optionally skipped.
    /// The pause-and-dissolve loop of a coalesced full pass detaches
    /// every member of a doomed group in turn; re-planning a k-member
    /// group after each one is O(k²) of work the dissolution throws
    /// away.
    fn detach_job_with_replan(&mut self, j: usize, replan: bool) {
        let Some(g) = self.jobs[j].group.take() else {
            return;
        };
        if self.jobs[j].is_live() {
            self.active_scheduled -= 1;
        }
        let mut owned = self.groups[g].take().expect("job group alive");
        self.finalize_prediction_of(&mut owned);
        self.groups[g] = Some(owned);
        let grp = self.groups[g].as_mut().expect("job group alive");
        grp.unqueue(j);
        if let ExecPhase::Running(phase) = self.jobs[j].exec {
            if phase.is_cpu() {
                grp.cpu.cancel_all_of(j);
            } else {
                grp.net.cancel_all_of(j);
            }
        }
        grp.jobs.retain(|&x| x != j);
        self.jobs[j].exec = ExecPhase::Idle { ready_at: self.now };
        if self.groups[g].as_ref().expect("alive").jobs.is_empty() {
            self.dissolve_group(g);
        } else if replan {
            self.recompute_group_memory(g);
            self.bump_and_wake(g);
        }
    }

    /// Emits the group's prediction-accuracy sample (once) — called on
    /// the first composition change and on dissolution, so the realized
    /// window matches the grouping the prediction was made for.
    fn finalize_prediction_of(&mut self, grp: &mut GroupSim) {
        let Some(pred_it) = grp.predicted_iteration.take() else {
            return;
        };
        let Some((pu_c, pu_n)) = grp.predicted_util.take() else {
            return;
        };
        // Measure from steady state (all founding members loaded) so
        // warm-up idleness is not charged against the prediction.
        let (cpu0, net0, t0) = grp
            .steady_mark
            .unwrap_or((grp.cpu_busy, grp.net_busy, self.now));
        let lifetime = self.now - t0;
        // Eq. 1 predicts the period at which *every* member completes an
        // iteration; faster members free-run ahead in the pipeline, so
        // the realized counterpart is the slowest member's mean period.
        let realized_iter = self.group_iter_stats[grp.id]
            .values()
            .filter(|s| s.count() >= 2)
            .map(OnlineStats::mean)
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))));
        if let Some(realized_iter) = realized_iter {
            if lifetime > 2.0 * pred_it {
                let w = self.cfg.scheduler_config.cpu_weight;
                let realized_u = w * ((grp.cpu_busy - cpu0) / lifetime)
                    + (1.0 - w) * ((grp.net_busy - net0) / lifetime);
                let predicted_u = w * pu_c + (1.0 - w) * pu_n;
                self.predictions.push(PredictionSample {
                    predicted_iteration: pred_it,
                    realized_iteration: realized_iter,
                    predicted_util: predicted_u,
                    realized_util: realized_u.max(1e-9),
                });
            }
        }
    }

    fn dissolve_group(&mut self, g: usize) {
        // Advance to now so busy integrals are complete (completions
        // surfacing in this final slice are moot — the group is gone).
        let grp = self.groups[g].as_mut().expect("alive group");
        let dt = self.now - grp.last_advance;
        if dt > 0.0 {
            let used_c = grp.cpu.advance_into(dt, &mut self.scratch_done);
            let used_n = grp.net.advance_into(dt, &mut self.scratch_done);
            self.scratch_done.clear();
            grp.cpu_busy += used_c;
            grp.net_busy += used_n;
            grp.last_advance = self.now;
        }
        let mut grp = self.groups[g].take().expect("alive group");
        self.alive.remove(g);
        self.finalize_prediction_of(&mut grp);
        self.free_machines += grp.machines;
        let mf = f64::from(grp.machines);
        self.cpu_busy_total += grp.cpu_busy * mf;
        self.net_busy_total += grp.net_busy * mf;
    }

    /// Pauses and detaches every member of `g` in one sweep, then
    /// dissolves it. Equivalent to detaching member-by-member, but the
    /// per-member `unqueue` / `jobs.retain` scans make that O(k²) for
    /// a k-member group — coalesced full passes tear down every
    /// involved group on each flush, so they route through here.
    fn teardown_group(&mut self, g: usize) {
        let Some(mut grp) = self.groups.get_mut(g).and_then(Option::take) else {
            return;
        };
        self.finalize_prediction_of(&mut grp);
        let members = std::mem::take(&mut grp.jobs);
        for &j in &members {
            if self.jobs[j].is_live() {
                self.jobs[j].state = SimJobState::Paused;
                self.active_scheduled -= 1;
            }
            self.jobs[j].group = None;
            if let ExecPhase::Running(phase) = self.jobs[j].exec {
                if phase.is_cpu() {
                    grp.cpu.cancel_all_of(j);
                } else {
                    grp.net.cancel_all_of(j);
                }
            }
            self.jobs[j].exec = ExecPhase::Idle { ready_at: self.now };
        }
        grp.cpu_queue.clear();
        grp.net_queue.clear();
        self.groups[g] = Some(grp);
        self.dissolve_group(g);
    }

    /// Ids of alive groups, without materializing a vector. Callers
    /// that mutate the group table while iterating snapshot the ids
    /// into [`Self::scratch_groups`] first. A slot whose `GroupSim` is
    /// temporarily taken out (e.g. during [`Self::advance_group`]) is
    /// skipped, as the slot scan this replaced did.
    fn alive_groups(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter().filter(|&g| self.groups[g].is_some())
    }

    // ----------------------------------------------------------------
    // Memory management (§IV-C).
    // ----------------------------------------------------------------

    /// Fills `out` with the group members' current footprints (reuses
    /// the caller's buffer — the GC model consults this on every COMP
    /// dispatch).
    fn footprints_into(&self, g: &GroupSim, out: &mut Vec<JobFootprint>) {
        out.clear();
        out.extend(g.jobs.iter().map(|&j| {
            let job = &self.jobs[j];
            JobFootprint {
                input_bytes: job.spec.input_bytes,
                model_bytes: job.spec.model_bytes,
                alpha: job.alpha,
                model_spilled: job.model_spilled,
                computing: matches!(job.exec, ExecPhase::Running(Phase::Comp)),
            }
        }));
    }

    /// Re-derives every member's α (and model-spill flag) for the
    /// group's current composition, killing jobs on unavoidable OOM.
    fn recompute_group_memory(&mut self, g: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        let mut probe = std::mem::take(&mut self.scratch_fp);
        let mut inner = std::mem::take(&mut self.scratch_fp2);
        self.recompute_group_memory_with(g, &mut members, &mut probe, &mut inner);
        members.clear();
        probe.clear();
        inner.clear();
        self.scratch_members = members;
        self.scratch_fp = probe;
        self.scratch_fp2 = inner;
    }

    /// [`Self::recompute_group_memory`] against caller-provided scratch
    /// buffers (taken from the driver's arena), so the re-planning that
    /// runs on every composition change allocates nothing.
    fn recompute_group_memory_with(
        &mut self,
        g: usize,
        members: &mut Vec<usize>,
        probe: &mut Vec<JobFootprint>,
        inner: &mut Vec<JobFootprint>,
    ) {
        loop {
            let grp = self.groups[g].as_ref().expect("alive group");
            if grp.jobs.is_empty() {
                return;
            }
            let m = grp.machines;
            members.clear();
            members.extend_from_slice(&grp.jobs);
            // Baselines run on the same runtime as Harmony (§V-A: "we
            // implement their scheduling schemes on Harmony"), so model
            // spill is a property of the reload policy, not the
            // scheduler.
            let allow_model_spill = !matches!(self.cfg.reload, ReloadPolicy::None);
            // Probe with fresh (policy-independent) footprints.
            probe.clear();
            probe.extend(members.iter().map(|&j| JobFootprint {
                input_bytes: self.jobs[j].spec.input_bytes,
                model_bytes: self.jobs[j].spec.model_bytes,
                alpha: 0.0,
                model_spilled: false,
                computing: false,
            }));
            let (cpu_slots, _) = self.discipline();
            let concurrent = cpu_slots.min(members.len()).max(1);
            let fit = groupmem::classify_fit_in(probe, m, &self.mem, concurrent, inner);
            let oom = match (fit, self.cfg.reload) {
                (FitOutcome::OutOfMemory, _) => true,
                (FitOutcome::NeedsModelSpill, _) if !allow_model_spill => true,
                (FitOutcome::NeedsSpill | FitOutcome::NeedsModelSpill, ReloadPolicy::None) => true,
                (outcome, policy) => {
                    // Apply the policy.
                    let floor =
                        groupmem::static_fit_alpha_in(probe, m, &self.mem, 0.95, concurrent, inner);
                    let target = groupmem::static_fit_alpha_in(
                        probe,
                        m,
                        &self.mem,
                        self.cfg.static_fill_target,
                        concurrent,
                        inner,
                    );
                    for &j in members.iter() {
                        let job = &mut self.jobs[j];
                        job.model_spilled =
                            allow_model_spill && outcome == FitOutcome::NeedsModelSpill;
                        match policy {
                            ReloadPolicy::None => job.alpha = 0.0,
                            ReloadPolicy::Fixed(a) => job.alpha = a.max(0.0),
                            ReloadPolicy::StaticFit => {
                                job.alpha = target;
                                job.alpha_floor = floor;
                            }
                            ReloadPolicy::Adaptive => {
                                let _ = floor;
                                if job.alpha_ctl.is_none() {
                                    let start = AlphaController::initial_alpha(
                                        (job.spec.input_bytes as f64 * self.mem.expansion) as u64,
                                        job.spec.model_bytes,
                                        self.mem.capacity * u64::from(m)
                                            / members.len().max(1) as u64,
                                    )
                                    .max(floor);
                                    job.alpha_ctl =
                                        Some(AlphaController::new(start.clamp(0.0, 1.0), 0.05));
                                }
                                let a = job.alpha_ctl.as_ref().expect("just initialized").alpha();
                                job.alpha = a.clamp(0.0, 1.0);
                            }
                        }
                    }
                    // Adaptive: per-job floors, each assuming the other
                    // members keep their current ratios — small jobs get a
                    // zero floor while the heavyweights carry the spill.
                    if matches!(policy, ReloadPolicy::Adaptive) {
                        // Floors target the GC-free fill level: below it a
                        // job's cheap local win (fewer reloads) is paid by
                        // every co-located job through shared GC pressure,
                        // so the master does not let controllers go there.
                        // One COMP subtask's working set is live at any
                        // time under the subtask discipline — reserve the
                        // worst case up front.
                        let max_workspace: f64 = members
                            .iter()
                            .map(|&k| {
                                self.jobs[k].spec.input_bytes as f64
                                    * self.mem.expansion
                                    * self.mem.workspace_fraction
                            })
                            .fold(0.0, f64::max);
                        let budget =
                            self.mem.capacity as f64 * f64::from(m) * self.cfg.gc.threshold()
                                - max_workspace;
                        let models: f64 = members
                            .iter()
                            .map(|&k| {
                                if self.jobs[k].model_spilled {
                                    0.0
                                } else {
                                    self.jobs[k].spec.model_bytes as f64
                                }
                            })
                            .sum();
                        // Coalesced mode: one fold over the members,
                        // then each job's "others" is the total minus
                        // its own term. The per-job refold below is
                        // quadratic, which compounds to cubic per
                        // group build (one recompute per attach) and
                        // dominates the event path once groups grow
                        // past a few dozen members — but the
                        // subtraction reassociates the float sum, so
                        // the exact mode keeps the original op order
                        // and stays bit-identical with the flag off.
                        if self.coalesce_active() && members.len() >= COALESCE_BATCH_BUILD_MIN {
                            let resident_total: f64 = members
                                .iter()
                                .map(|&k| {
                                    (1.0 - self.jobs[k].alpha)
                                        * self.jobs[k].spec.input_bytes as f64
                                        * self.mem.expansion
                                })
                                .sum();
                            for &j in members.iter() {
                                let mine =
                                    self.jobs[j].spec.input_bytes as f64 * self.mem.expansion;
                                let others = resident_total - (1.0 - self.jobs[j].alpha) * mine;
                                let room = budget - models - others;
                                let floor_j = if mine > 0.0 {
                                    (1.0 - room / mine).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                                self.jobs[j].alpha_floor = floor_j;
                                self.jobs[j].alpha = self.jobs[j].alpha.max(floor_j);
                            }
                        } else {
                            for &j in members.iter() {
                                let others: f64 = members
                                    .iter()
                                    .filter(|&&k| k != j)
                                    .map(|&k| {
                                        (1.0 - self.jobs[k].alpha)
                                            * self.jobs[k].spec.input_bytes as f64
                                            * self.mem.expansion
                                    })
                                    .sum();
                                let mine =
                                    self.jobs[j].spec.input_bytes as f64 * self.mem.expansion;
                                let room = budget - models - others;
                                let floor_j = if mine > 0.0 {
                                    (1.0 - room / mine).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                                self.jobs[j].alpha_floor = floor_j;
                                self.jobs[j].alpha = self.jobs[j].alpha.max(floor_j);
                            }
                        }
                    }
                    // Fixed / None may still blow past capacity.
                    let grp = self.groups[g].as_ref().expect("alive");
                    self.footprints_into(grp, probe);
                    groupmem::usage_ratio(probe, m, &self.mem) > 1.0
                }
            };
            if !oom {
                self.refold_mem_aggregates(g);
                return;
            }
            // OOM: kill the largest-footprint member and retry.
            let victim = members
                .iter()
                .copied()
                .max_by_key(|&j| self.jobs[j].spec.input_bytes + self.jobs[j].spec.model_bytes)
                .expect("non-empty group");
            self.oom_events
                .push((self.now, self.jobs[victim].spec.name.clone()));
            self.set_terminal(victim, SimJobState::Failed, self.now);
            let grp = self.groups[g].as_mut().expect("alive");
            grp.unqueue(victim);
            grp.jobs.retain(|&x| x != victim);
            self.jobs[victim].group = None;
            if self.groups[g].as_ref().expect("alive").jobs.is_empty() {
                self.dissolve_group(g);
                return;
            }
        }
    }

    /// Refolds the group's cached memory aggregates from its current
    /// member list — called at every successful memory re-plan (which
    /// already runs on each membership change), so the GC probe on the
    /// per-dispatch hot path can price the resident set in O(1).
    fn refold_mem_aggregates(&mut self, g: usize) {
        let grp = self.groups[g].as_ref().expect("alive group");
        let mut base = 0.0;
        let mut alpha_in = 0.0;
        for &j in &grp.jobs {
            let job = &self.jobs[j];
            let input = job.spec.input_bytes as f64;
            base += (1.0 - job.alpha) * input * self.mem.expansion;
            if !job.model_spilled {
                base += job.spec.model_bytes as f64;
            }
            alpha_in += job.alpha * input;
        }
        let grp = self.groups[g].as_mut().expect("alive group");
        grp.mem_base_bytes = base;
        grp.alpha_input_bytes = alpha_in;
    }

    // ----------------------------------------------------------------
    // Subtask execution.
    // ----------------------------------------------------------------

    /// Single-pass fluid catch-up: advances both resources of an owned
    /// group to `self.now` (one drain, shared by the wake and the
    /// composition-change paths), accumulates busy integrals, and
    /// processes completions into `notes` — CPU completions first, then
    /// network, exactly as the former per-path drains did.
    fn catch_up(&mut self, grp: &mut GroupSim, notes: &mut Vec<Notify>) {
        let dt = self.now - grp.last_advance;
        grp.last_advance = self.now;
        if dt <= 0.0 {
            return;
        }
        let mut done = std::mem::take(&mut self.scratch_done);
        done.clear();
        let used_c = grp.cpu.advance_into(dt, &mut done);
        let used_n = grp.net.advance_into(dt, &mut done);
        grp.cpu_busy += used_c;
        grp.net_busy += used_n;
        for &key in &done {
            self.on_subtask_done(grp, key, notes);
        }
        done.clear();
        self.scratch_done = done;
    }

    /// Dispatches an owned group and hands it back to the table,
    /// dissolving it when it emptied or re-arming its wake otherwise.
    fn dispatch_and_rearm(&mut self, mut grp: GroupSim) {
        self.dispatch(&mut grp);
        let id = grp.id;
        let empty = grp.jobs.is_empty();
        self.groups[id] = Some(grp);
        if empty {
            self.dissolve_group(id);
        } else {
            self.arm_wake(id);
        }
    }

    /// Advances group `g` to `self.now`, processes completions into
    /// `notes` and dispatches, then re-arms the group's wake event.
    fn advance_group(&mut self, g: usize, notes: &mut Vec<Notify>) {
        let mut grp = self.groups[g].take().expect("alive group");
        self.catch_up(&mut grp, notes);
        if grp.steady_mark.is_none() && self.now >= grp.steady_at {
            grp.steady_mark = Some((grp.cpu_busy, grp.net_busy, self.now));
        }
        self.dispatch_and_rearm(grp);
    }

    /// Bumps the generation (invalidating stale wakes) and re-arms.
    fn bump_and_wake(&mut self, g: usize) {
        let Some(mut grp) = self.groups.get_mut(g).and_then(Option::take) else {
            return;
        };
        // Catch up the fluid clock before composition-driven rate
        // changes take effect. Completions discovered here are rare
        // (composition changes usually happen at completion
        // boundaries); the resulting notifications are deferred to the
        // event loop so the scheduler never re-enters itself
        // mid-mutation.
        let mut notes = std::mem::take(&mut self.scratch_notes_bump);
        self.catch_up(&mut grp, &mut notes);
        self.deferred.append(&mut notes);
        self.scratch_notes_bump = notes;
        grp.gen += 1;
        self.dispatch_and_rearm(grp);
    }

    fn arm_wake(&mut self, g: usize) {
        let Some(grp) = self.groups[g].as_ref() else {
            return;
        };
        let gen = grp.gen;
        // Next fluid-task completion...
        let mut next: Option<f64> = grp.time_to_next_event().map(|dt| self.now + dt.max(0.0));
        // ...or the earliest pending input-load completion: a member
        // still loading needs a wake at its ready time, and generation
        // bumps may have invalidated the wake pushed when it attached.
        if self.coalesce_active() {
            // The lazy ready-heap replaces the full member scan (the
            // scan runs on every event, so it is O(events × members)
            // across a run). Stale tops — the job left, finished its
            // load, or its ready time passed — are popped on sight;
            // a valid top is only peeked, so the wake re-arms until
            // the load event actually fires.
            let grp = self.groups[g].as_mut().expect("alive");
            let ready = loop {
                let Some(&std::cmp::Reverse((bits, j))) = grp.ready_heap.peek() else {
                    break None;
                };
                let ra = f64::from_bits(bits);
                let live = ra > self.now
                    && self.jobs[j].group == Some(grp.id)
                    && matches!(
                        self.jobs[j].exec,
                        ExecPhase::Idle { ready_at } if ready_at.to_bits() == bits
                    )
                    && matches!(
                        self.jobs[j].state,
                        SimJobState::Running | SimJobState::Profiling | SimJobState::Profiled
                    );
                if live {
                    break Some(ra);
                }
                grp.ready_heap.pop();
            };
            if let Some(ra) = ready {
                next = Some(next.map_or(ra, |t| t.min(ra)));
            }
        } else {
            for &j in &grp.jobs {
                if let ExecPhase::Idle { ready_at } = self.jobs[j].exec {
                    if ready_at > self.now
                        && matches!(
                            self.jobs[j].state,
                            SimJobState::Running | SimJobState::Profiling | SimJobState::Profiled
                        )
                    {
                        next = Some(next.map_or(ready_at, |t| t.min(ready_at)));
                    }
                }
            }
        }
        if let Some(t) = next {
            if self.cfg.fast_event_path {
                let grp = self.groups[g].as_mut().expect("alive");
                if grp.pending_wake == Some((gen, t)) {
                    // An identical wake is already sitting in the heap;
                    // processing the duplicate would be a no-op (same
                    // instant, same generation), so skip the enqueue.
                    return;
                }
                grp.pending_wake = Some((gen, t));
            }
            self.push_event(t, EventKind::Wake { group: g, gen });
        }
    }

    fn on_subtask_done(&mut self, grp: &mut GroupSim, key: TaskKey, notes: &mut Vec<Notify>) {
        let j = key.job;
        let ExecPhase::Running(phase) = self.jobs[j].exec else {
            return; // stale completion after a pause/cancel
        };
        if self.cfg.record_spans {
            self.spans.push(SubtaskSpan {
                job: j,
                job_name: self.jobs[j].spec.name.clone(),
                phase,
                group: grp.id,
                start: self.jobs[j].phase_start,
                end: self.now,
            });
        }
        // Profiles record the solo-equivalent duration (the subtask's
        // work at full rate): co-location stretching is a property of
        // the schedule, not of the job, and Eqs. 1-4 are stated in solo
        // subtask times.
        let solo = self.jobs[j].phase_solo;
        match phase {
            Phase::Pull => {
                self.jobs[j].iter_tnet += solo;
                self.jobs[j].exec = ExecPhase::Queued(Phase::Comp);
                grp.cpu_queue.push_back(j);
            }
            Phase::Comp => {
                self.jobs[j].iter_tcpu += solo;
                self.jobs[j].last_comp_end = self.now;
                self.jobs[j].exec = ExecPhase::Queued(Phase::Push);
                grp.net_queue.push_back(j);
            }
            Phase::Push => {
                self.jobs[j].iter_tnet += solo;
                self.complete_iteration(grp, j, notes);
            }
        }
    }

    fn complete_iteration(&mut self, grp: &mut GroupSim, j: usize, notes: &mut Vec<Notify>) {
        let m = grp.machines;
        let (tcpu, tnet) = (self.jobs[j].iter_tcpu, self.jobs[j].iter_tnet);
        self.jobs[j].iterations_done += 1;
        self.jobs[j].profile.observe_iteration(tcpu, tnet, m);
        let iter_wall = self.now - self.jobs[j].iter_start;
        self.jobs[j].last_iter_wall = iter_wall;
        self.iter_wall_stats.observe(iter_wall);
        // Skip each member's first in-group iteration (load warmup),
        // anchored at the iteration count recorded when it joined.
        let first_in_group = self.jobs[j].iterations_done <= self.jobs[j].joined_iters + 1;
        if !first_in_group {
            self.group_iter_stats[grp.id]
                .entry(j)
                .or_default()
                .observe(iter_wall);
        }
        // Hill-climbing α update. The cost signal is the job's own COMP
        // cost (base work + GC share + deserialization + disk-blocked
        // time) — the components α actually controls — smoothed over a
        // few iterations so one noisy sample cannot flip the climb
        // direction.
        if let ReloadPolicy::Adaptive = self.cfg.reload {
            self.jobs[j].alpha_cost_acc += tcpu;
            self.jobs[j].alpha_cost_n += 1;
            if self.jobs[j].alpha_cost_n >= 3 {
                let cost = self.jobs[j].alpha_cost_acc / f64::from(self.jobs[j].alpha_cost_n);
                self.jobs[j].alpha_cost_acc = 0.0;
                self.jobs[j].alpha_cost_n = 0;
                let floor = self.jobs[j].alpha_floor;
                if let Some(ctl) = self.jobs[j].alpha_ctl.as_mut() {
                    let a = ctl.observe(cost);
                    let old = self.jobs[j].alpha;
                    self.jobs[j].alpha = a.max(floor).min(1.0);
                    // Keep the group's cached memory aggregates in
                    // step with the climb; the next re-plan refolds
                    // them exactly, so incremental float drift never
                    // accumulates past one membership epoch.
                    let delta = self.jobs[j].alpha - old;
                    let input = self.jobs[j].spec.input_bytes as f64;
                    grp.mem_base_bytes -= delta * input * self.mem.expansion;
                    grp.alpha_input_bytes += delta * input;
                }
            }
        }
        if self.jobs[j].profiling_left > 0 {
            self.jobs[j].profiling_left -= 1;
            if self.jobs[j].profiling_left == 0 {
                notes.push(Notify::Profiled(j));
            }
        }
        if self.jobs[j].iterations_done >= self.jobs[j].total_iterations {
            self.set_terminal(j, SimJobState::Finished, self.now);
            notes.push(Notify::Finished {
                job: j,
                group: grp.id,
            });
            self.detach_from(grp, j);
        } else if self.jobs[j].pause_requested {
            self.jobs[j].pause_requested = false;
            self.jobs[j].state = SimJobState::Paused;
            self.detach_from(grp, j);
            // A live migration paused this job: write the model
            // checkpoint over the old group's disks, then re-place it
            // once the write lands.
            if self.jobs[j].migrate_mark.is_some() {
                let ckpt_bytes = self.jobs[j].spec.model_bytes as f64;
                let write = ckpt_bytes
                    / (f64::from(grp.machines.max(1)) * self.cfg.machine.disk_bytes_per_sec);
                self.push_event(self.now + write, EventKind::Migrate(j));
            }
        } else {
            // Closed-loop profiling: the fresh observation just folded
            // into the EWMAs; if the smoothed estimate now sits ≥ the
            // similarity threshold away from the basis this schedule
            // was computed with, the placement is stale (§IV-B4).
            // Clearing the basis here makes the trigger one-shot — it
            // re-arms only when the next decision re-pins it.
            if self.cfg.profile_feedback {
                if self.jobs[j].iterations_done < self.jobs[j].drift_holdoff {
                    // Post-migration settle window: the EWMA is still
                    // converging on the shift that caused the move.
                } else {
                    if self.jobs[j].drift_holdoff != 0 {
                        // Window just expired: re-pin the basis on the
                        // settled estimate so residual decay is not
                        // mistaken for a second shift.
                        self.jobs[j].drift_holdoff = 0;
                        self.jobs[j].profile.mark_scheduled();
                    }
                    let thr = self.cfg.scheduler_config.improvement_threshold;
                    if self.jobs[j]
                        .profile
                        .drift_from_basis()
                        .is_some_and(|d| d >= thr)
                    {
                        self.jobs[j].profile.clear_scheduled_basis();
                        notes.push(Notify::Drifted(j));
                    }
                }
            }
            self.jobs[j].exec = ExecPhase::Queued(Phase::Pull);
            grp.net_queue.push_back(j);
        }
    }

    /// Detaches `j` from an owned group (used inside `advance_group`
    /// where the group is taken out of `self.groups`).
    fn detach_from(&mut self, grp: &mut GroupSim, j: usize) {
        self.finalize_prediction_of(grp);
        grp.unqueue(j);
        grp.jobs.retain(|&x| x != j);
        if self.jobs[j].group.is_some() && self.jobs[j].is_live() {
            self.active_scheduled -= 1;
        }
        self.jobs[j].group = None;
        self.jobs[j].exec = ExecPhase::Idle { ready_at: self.now };
    }

    fn dispatch(&mut self, grp: &mut GroupSim) {
        // Promote ready Idle members into the PULL queue. The member
        // list and the queue are disjoint fields, so splitting the
        // borrow avoids snapshotting the membership.
        let GroupSim {
            jobs: members,
            net_queue,
            ..
        } = grp;
        for &j in members.iter() {
            let job = &mut self.jobs[j];
            if let ExecPhase::Idle { ready_at } = job.exec {
                if ready_at <= self.now + 1e-9
                    && matches!(
                        job.state,
                        SimJobState::Running | SimJobState::Profiling | SimJobState::Profiled
                    )
                {
                    job.exec = ExecPhase::Queued(Phase::Pull);
                    net_queue.push_back(j);
                }
            }
        }
        while grp.cpu.len() < grp.cpu_slots {
            let Some(j) = grp.cpu_queue.pop_front() else {
                break;
            };
            self.start_subtask(grp, j, Phase::Comp);
        }
        while grp.net.len() < grp.net_slots {
            let Some(j) = grp.net_queue.pop_front() else {
                break;
            };
            let ExecPhase::Queued(phase) = self.jobs[j].exec else {
                continue;
            };
            self.start_subtask(grp, j, phase);
        }
    }

    fn start_subtask(&mut self, grp: &mut GroupSim, j: usize, phase: Phase) {
        let m = grp.machines;
        let mf = f64::from(m);
        let disk_bw = self.cfg.machine.disk_bytes_per_sec;
        let spec_input = self.jobs[j].spec.input_bytes as f64;
        let spec_model = self.jobs[j].spec.model_bytes as f64;
        let alpha = self.jobs[j].alpha;
        let barrier = self.noise.barrier_factor(m);
        let (demand, work) = match phase {
            Phase::Comp => {
                self.jobs[j].exec = ExecPhase::Running(Phase::Comp);
                let mut base = self.jobs[j].spec.comp_cost / mf;
                // Scripted workload shift: the true COMP cost changes
                // mid-run, visible to the scheduler only through the
                // closed profiling loop.
                if let Some((at, factor)) = self.jobs[j].comp_shift {
                    if self.jobs[j].iterations_done >= at {
                        base *= factor;
                    }
                }
                let deser = alpha * spec_input / (mf * self.cfg.deser_bytes_per_sec);
                let gc = if self.coalesce_active()
                    && grp.cpu_slots == 1
                    && grp.jobs.len() >= COALESCE_BATCH_BUILD_MIN
                {
                    // One COMP at a time: the fluid was empty when this
                    // dispatch fired and every cancel path resets
                    // `exec`, so the computing set is exactly this job.
                    // Price the resident set from the group's cached
                    // aggregate instead of refolding every member —
                    // this probe runs once per COMP dispatch, and the
                    // fold made the event path scale with
                    // iterations × group size.
                    let bytes = grp.mem_base_bytes
                        + spec_input * self.mem.workspace_fraction * self.mem.expansion;
                    self.cfg
                        .gc
                        .slowdown(bytes / (mf * self.mem.capacity as f64))
                } else {
                    let mut fp = std::mem::take(&mut self.scratch_fp);
                    self.footprints_into(grp, &mut fp);
                    let gc = groupmem::gc_slowdown(&fp, m, &self.mem, &self.cfg.gc);
                    self.scratch_fp = fp;
                    gc
                };
                let gap = (self.now - self.jobs[j].last_comp_end).max(0.0);
                // Disk bandwidth is shared by the background preloads of
                // every co-located job. Reads spread over the whole group
                // round, so contention only bites when the group's
                // aggregate read demand exceeds what the disk can deliver
                // in one round: stretch this job's read by that
                // oversubscription ratio.
                let total_reads: f64 = if self.coalesce_active()
                    && grp.cpu_slots == 1
                    && grp.jobs.len() >= COALESCE_BATCH_BUILD_MIN
                {
                    grp.alpha_input_bytes / (mf * disk_bw)
                } else {
                    grp.jobs
                        .iter()
                        .map(|&k| {
                            self.jobs[k].alpha * self.jobs[k].spec.input_bytes as f64
                                / (mf * disk_bw)
                        })
                        .sum()
                };
                let round_est = if self.jobs[j].last_iter_wall > 0.0 {
                    self.jobs[j].last_iter_wall
                } else {
                    gap + self.jobs[j].spec.comp_cost / mf
                };
                let stretch = (total_reads / round_est.max(1e-9)).max(1.0);
                let read = alpha * spec_input * stretch / (mf * disk_bw);
                let blocked = (read - self.cfg.reload_overlap * gap).max(0.0);
                self.gc_seconds += (gc - 1.0) * (base + deser);
                self.alpha_stats.observe(alpha);
                (1.0, ((base + deser) * gc + blocked) * barrier)
            }
            Phase::Pull | Phase::Push => {
                self.jobs[j].exec = ExecPhase::Running(phase);
                if phase == Phase::Pull {
                    self.jobs[j].iter_start = self.now;
                    self.jobs[j].iter_tcpu = 0.0;
                    self.jobs[j].iter_tnet = 0.0;
                }
                let frac = if phase == Phase::Pull {
                    self.jobs[j].spec.pull_fraction
                } else {
                    1.0 - self.jobs[j].spec.pull_fraction
                };
                // DoP-dependent for all-reduce jobs, constant for PS.
                let mut base = self.jobs[j].spec.net_time_at(m) * frac;
                // A sparse job ships coordinate-sparse PUSH deltas:
                // wire time scales with density. PULL stays dense (the
                // server broadcasts the full model either way).
                if phase == Phase::Push {
                    if let Some(density) = self.jobs[j].push_density {
                        base *= density;
                    }
                }
                if self.jobs[j].model_spilled {
                    base += spec_model / (mf * disk_bw);
                }
                (self.cfg.net_demand, base * self.cfg.net_demand * barrier)
            }
        };
        // An injected straggler window stretches every subtask the group
        // dispatches while it is open (§VI).
        let work = work * grp.straggle_factor(self.now);
        self.jobs[j].phase_start = self.now;
        self.jobs[j].phase_solo = work / demand;
        let key = TaskKey {
            job: j,
            seq: self.jobs[j].next_seq(),
        };
        if phase.is_cpu() {
            grp.cpu.add(key, demand, work);
        } else {
            grp.net.add(key, demand, work);
        }
    }

    // ----------------------------------------------------------------
    // Failure injection (§VI).
    // ----------------------------------------------------------------

    /// A machine of one (deterministically chosen) group fails: its
    /// jobs roll back to their last per-epoch checkpoint and restart
    /// after an input-reload delay. "A machine/process failure may have
    /// an impact on all co-located jobs" (§VI).
    fn inject_failure(&mut self, n: u64) {
        let mut alive = std::mem::take(&mut self.scratch_groups);
        alive.clear();
        alive.extend(self.alive_groups());
        let victim = if alive.is_empty() {
            None
        } else {
            Some(alive[(n as usize * 7919) % alive.len()])
        };
        self.scratch_groups = alive;
        let Some(g) = victim else {
            return;
        };
        self.failures_injected += 1;
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        let machines = self.groups[g].as_ref().expect("alive").machines;
        for &j in members.iter() {
            // Roll back to the epoch checkpoint.
            let per_epoch = u64::from(self.jobs[j].spec.iters_per_epoch.max(1));
            self.jobs[j].iterations_done = (self.jobs[j].iterations_done / per_epoch) * per_epoch;
            // Cancel in-flight work and restart in place after reloading
            // the checkpoint + input.
            let grp = self.groups[g].as_mut().expect("alive");
            grp.unqueue(j);
            if let ExecPhase::Running(phase) = self.jobs[j].exec {
                if phase.is_cpu() {
                    grp.cpu.cancel_all_of(j);
                } else {
                    grp.net.cancel_all_of(j);
                }
            }
            let reload = ((1.0 - self.jobs[j].alpha) * self.jobs[j].spec.input_bytes as f64
                + self.jobs[j].spec.model_bytes as f64)
                / (f64::from(machines) * self.cfg.machine.disk_bytes_per_sec);
            self.jobs[j].exec = ExecPhase::Idle {
                ready_at: self.now + reload,
            };
            if self.coalesce_active() && reload > 0.0 {
                self.groups[g]
                    .as_mut()
                    .expect("alive")
                    .ready_heap
                    .push(std::cmp::Reverse(((self.now + reload).to_bits(), j)));
            }
        }
        members.clear();
        self.scratch_members = members;
        self.bump_and_wake(g);
    }

    // ----------------------------------------------------------------
    // Plan-driven fault injection (§VI).
    // ----------------------------------------------------------------

    /// Machines still usable (configured minus crashed).
    fn available_machines(&self) -> u32 {
        self.cfg.machines.saturating_sub(self.machines_lost)
    }

    /// Dispatches one scheduled fault from the configured plan.
    fn on_fault(&mut self, i: usize) {
        let Some(plan) = self.cfg.fault_plan.as_ref() else {
            return;
        };
        let Some(ev) = plan.events().get(i).copied() else {
            return;
        };
        let victim_seed = plan.victim_seed(i);
        match ev.kind {
            FaultKind::MachineCrash => self.inject_machine_crash(victim_seed),
            FaultKind::Slowdown {
                factor,
                duration_secs,
            } => self.inject_slowdown(victim_seed, factor, duration_secs),
            FaultKind::JobAbort => self.inject_job_abort(victim_seed),
        }
        debug_assert!(
            self.cluster_view().grouping.validate().is_ok(),
            "fault handling produced an invalid grouping: {:?}",
            self.cluster_view().grouping.validate()
        );
    }

    /// Rolls a job back to its last per-epoch checkpoint (§VI).
    fn rollback_to_checkpoint(&mut self, j: usize) {
        let per_epoch = u64::from(self.jobs[j].spec.iters_per_epoch.max(1));
        self.jobs[j].iterations_done = (self.jobs[j].iterations_done / per_epoch) * per_epoch;
    }

    /// One machine of one group dies permanently. The group shrinks to
    /// its survivors and restarts from checkpoints (local repair); when
    /// the machine was the group's last — or the regrouper judges the
    /// degraded grouping worth reshuffling — recovery escalates to
    /// rescheduling.
    fn inject_machine_crash(&mut self, victim_seed: u64) {
        // Prefer worker groups; fall back to profiling hosts; then to
        // the free pool.
        let mut candidates = std::mem::take(&mut self.scratch_groups);
        candidates.clear();
        candidates.extend(
            self.alive_groups()
                .filter(|&g| !self.groups[g].as_ref().expect("alive").profiling_host),
        );
        if candidates.is_empty() {
            candidates.extend(self.alive_groups());
        }
        let victim = candidates
            .get((victim_seed % candidates.len().max(1) as u64) as usize)
            .copied();
        self.scratch_groups = candidates;
        let Some(g) = victim else {
            if self.free_machines > 0 {
                self.free_machines -= 1;
                self.machines_lost += 1;
                self.failures_injected += 1;
                self.fault_log.record(
                    self.now,
                    "machine-crash",
                    "idle machine removed from the free pool",
                );
            }
            return;
        };
        self.machines_lost += 1;
        self.failures_injected += 1;
        let machines_before = self.groups[g].as_ref().expect("alive").machines;
        self.fault_log.record(
            self.now,
            "machine-crash",
            format!("group {g} lost 1 of {machines_before} machines"),
        );
        if machines_before == 1 {
            self.crash_dissolves_group(g);
        } else {
            self.crash_shrinks_group(g, machines_before - 1);
        }
    }

    /// Crash recovery when the victim group keeps at least one machine:
    /// members roll back and restart in place on the survivors, then
    /// the regrouper decides whether the shrunken grouping is worth
    /// escalating.
    fn crash_shrinks_group(&mut self, g: usize, survivors: u32) {
        self.groups[g].as_mut().expect("alive").machines = survivors;
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        for &j in members.iter() {
            self.rollback_to_checkpoint(j);
            let grp = self.groups[g].as_mut().expect("alive");
            grp.unqueue(j);
            if let ExecPhase::Running(phase) = self.jobs[j].exec {
                if phase.is_cpu() {
                    grp.cpu.cancel_all_of(j);
                } else {
                    grp.net.cancel_all_of(j);
                }
            }
            let reload = ((1.0 - self.jobs[j].alpha) * self.jobs[j].spec.input_bytes as f64
                + self.jobs[j].spec.model_bytes as f64)
                / (f64::from(survivors) * self.cfg.machine.disk_bytes_per_sec);
            self.jobs[j].exec = ExecPhase::Idle {
                ready_at: self.now + reload,
            };
            if self.coalesce_active() && reload > 0.0 {
                self.groups[g]
                    .as_mut()
                    .expect("alive")
                    .ready_heap
                    .push(std::cmp::Reverse(((self.now + reload).to_bits(), j)));
            }
            self.recovery_stats.observe(reload);
        }
        members.clear();
        self.scratch_members = members;
        // The survivors hold less memory; the plan must be re-derived
        // (this may OOM-kill a member or even dissolve the group).
        self.recompute_group_memory(g);
        if self.groups.get(g).and_then(|x| x.as_ref()).is_none() {
            self.fault_log.record(
                self.now,
                "recovery",
                format!("group {g} dissolved by memory pressure"),
            );
            return;
        }
        self.bump_and_wake(g);
        let harmony = matches!(
            self.cfg.scheduler,
            SchedulerKind::Harmony | SchedulerKind::Oracle
        );
        if harmony && self.groups.get(g).is_some_and(Option::is_some) {
            let view = self.cluster_view();
            let store = self.profile_store();
            let t0 = Instant::now();
            let decision = self
                .regrouper
                .on_machine_lost(&view, &store, GroupId::new(g as u32));
            self.sched_wall += t0.elapsed();
            self.sched_invocations += 1;
            let escalated = !matches!(decision, RegroupDecision::NoChange);
            self.apply_decision(decision);
            self.fault_log.record(
                self.now,
                "recovery",
                if escalated {
                    format!("group {g} repair escalated to partial reschedule")
                } else {
                    format!("group {g} repaired locally on {survivors} machines")
                },
            );
        } else {
            self.fault_log.record(
                self.now,
                "recovery",
                format!("group {g} restarted on {survivors} machines"),
            );
        }
    }

    /// Crash recovery when the victim group loses its only machine:
    /// members are orphaned (rolled back to checkpoints) and handed
    /// back to the placement machinery of the active scheduler.
    fn crash_dissolves_group(&mut self, g: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        for &j in &members {
            self.rollback_to_checkpoint(j);
            self.jobs[j].recover_mark = Some(self.now);
            self.jobs[j].state = if self.jobs[j].profile.is_warm() {
                SimJobState::Paused
            } else {
                SimJobState::Waiting
            };
            self.detach_job(j);
        }
        // detach_job of the last member dissolved the group, returning
        // its machines to the free pool — minus the one that died.
        if self.groups.get(g).is_some_and(Option::is_some) {
            self.dissolve_group(g);
        }
        self.free_machines = self.free_machines.saturating_sub(1);
        match self.cfg.scheduler {
            SchedulerKind::Harmony | SchedulerKind::Oracle => {
                let cold: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&j| self.jobs[j].state == SimJobState::Waiting)
                    .collect();
                for j in cold {
                    self.place_for_profiling(j);
                }
                self.reschedule_if_waiting(ReschedReason::CrashRecovery);
            }
            SchedulerKind::Isolated => {
                for &j in &members {
                    if self.jobs[j].is_live() {
                        self.jobs[j].state = SimJobState::Waiting;
                        self.isolated_queue.push_back(j);
                    }
                }
                self.isolated_admit();
            }
            SchedulerKind::Naive { .. } => {
                for &j in &members {
                    if self.jobs[j].is_live() {
                        self.jobs[j].state = SimJobState::Waiting;
                    }
                }
                if !self.naive_form_scheduled {
                    self.naive_form_scheduled = true;
                    self.push_event(self.now + 1.0, EventKind::NaiveForm);
                }
            }
        }
        self.fault_log.record(
            self.now,
            "recovery",
            format!("group {g} dissolved; {} jobs re-queued", members.len()),
        );
        members.clear();
        self.scratch_members = members;
    }

    /// A transient straggler: one group's subtasks dispatched inside
    /// the window run `factor`× slower. Recovery is automatic at the
    /// window's end.
    fn inject_slowdown(&mut self, victim_seed: u64, factor: f64, duration: f64) {
        let mut candidates = std::mem::take(&mut self.scratch_groups);
        candidates.clear();
        candidates.extend(self.alive_groups());
        let victim = candidates
            .get((victim_seed % candidates.len().max(1) as u64) as usize)
            .copied();
        self.scratch_groups = candidates;
        let Some(g) = victim else {
            self.fault_log
                .record(self.now, "slowdown", "no running group to slow down");
            return;
        };
        let grp = self.groups[g].as_mut().expect("alive");
        grp.slow_factor = factor.max(1.0);
        grp.slow_until = self.now + duration;
        self.fault_log.record(
            self.now,
            "slowdown",
            format!("group {g} runs {factor:.2}x slower for {duration:.0}s"),
        );
        self.recovery_stats.observe(duration);
        self.fault_log.record(
            self.now + duration,
            "recovery",
            format!("group {g} straggler cleared"),
        );
    }

    /// One live job is aborted; its group is repaired through the same
    /// minimal-movement ladder a completion uses.
    fn inject_job_abort(&mut self, victim_seed: u64) {
        // Prefer jobs actively placed in a group; fall back to any
        // live job.
        let mut candidates: Vec<usize> = self
            .arrived_live
            .iter()
            .filter(|&j| self.jobs[j].group.is_some())
            .collect();
        if candidates.is_empty() {
            // A full walk: the fallback may pick a job that has not
            // arrived yet, and the victim choice is part of the bytes.
            candidates = (0..self.jobs.len())
                .filter(|&j| self.jobs[j].is_live())
                .collect();
        }
        if candidates.is_empty() {
            self.fault_log
                .record(self.now, "job-abort", "no live job to abort");
            return;
        }
        let j = candidates[(victim_seed % candidates.len() as u64) as usize];
        let g = self.jobs[j].group;
        self.jobs_aborted += 1;
        self.fault_log.record(
            self.now,
            "job-abort",
            format!(
                "job {} aborted after {} iterations",
                self.jobs[j].spec.name, self.jobs[j].iterations_done
            ),
        );
        let profile = self.jobs[j].profile.clone();
        self.set_terminal(j, SimJobState::Failed, self.now);
        self.jobs[j].aborted = true;
        self.detach_job(j);
        match self.cfg.scheduler {
            SchedulerKind::Harmony | SchedulerKind::Oracle => {
                let Some(g) = g else {
                    return;
                };
                if self.groups.get(g).is_some_and(Option::is_some) {
                    let dop = self.groups[g].as_ref().expect("alive").machines.max(1);
                    let (it, ratio) = if profile.is_warm() {
                        (profile.iter_time_at(dop), profile.comp_comm_ratio_at(dop))
                    } else {
                        (1.0, 1.0)
                    };
                    let view = self.cluster_view();
                    let store = self.profile_store();
                    let t0 = Instant::now();
                    let decision = self.regrouper.on_job_aborted(
                        &view,
                        &store,
                        it,
                        ratio,
                        GroupId::new(g as u32),
                    );
                    self.sched_wall += t0.elapsed();
                    self.sched_invocations += 1;
                    let repaired = !matches!(decision, RegroupDecision::NoChange);
                    self.apply_decision(decision);
                    if repaired {
                        self.fault_log.record(
                            self.now,
                            "recovery",
                            format!("group {g} back-filled after abort"),
                        );
                    }
                } else {
                    self.reschedule_if_waiting(ReschedReason::AbortRecovery);
                }
            }
            SchedulerKind::Isolated => self.isolated_admit(),
            SchedulerKind::Naive { .. } => {
                if !self.naive_form_scheduled {
                    self.naive_form_scheduled = true;
                    self.push_event(self.now + 1.0, EventKind::NaiveForm);
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Utilization sampling.
    // ----------------------------------------------------------------

    fn sample_utilization(&mut self) {
        let total = f64::from(self.available_machines().max(1));
        let mut cpu = 0.0;
        let mut net = 0.0;
        for g in self.alive_groups() {
            let grp = self.groups[g].as_ref().expect("alive");
            let mf = f64::from(grp.machines);
            cpu += grp.cpu.usage() * mf;
            net += grp.net.usage() * mf;
        }
        self.cpu_tl.record(self.now, (cpu / total).min(1.0));
        self.net_tl.record(self.now, (net / total).min(1.0));
        let active = if self.cfg.fast_event_path {
            // Debug cross-check of the counter (a full walk on purpose).
            debug_assert_eq!(
                self.active_scheduled,
                self.jobs
                    .iter()
                    .filter(|j| j.group.is_some() && j.is_live())
                    .count(),
                "active-scheduled counter out of sync"
            );
            self.active_scheduled
        } else {
            self.arrived_live
                .iter()
                .filter(|&j| self.jobs[j].group.is_some())
                .count()
        };
        if active > 0 {
            self.concurrent_stats.observe(active as f64);
        }
    }

    // ----------------------------------------------------------------
    // Harmony scheduling integration.
    // ----------------------------------------------------------------

    fn handle_notifications(&mut self, notes: &mut Vec<Notify>) {
        for note in notes.drain(..) {
            match self.cfg.scheduler {
                SchedulerKind::Harmony | SchedulerKind::Oracle => match note {
                    Notify::Profiled(j) => self.on_profiled_harmony(j),
                    Notify::Drifted(j) => self.on_drifted_harmony(j),
                    Notify::Finished { job, group } => self.on_finished_harmony(job, group),
                },
                SchedulerKind::Isolated => {
                    if let Notify::Finished { .. } = note {
                        self.isolated_admit();
                    }
                }
                SchedulerKind::Naive { .. } => {
                    if let Notify::Finished { .. } = note {
                        if !self.naive_form_scheduled {
                            self.naive_form_scheduled = true;
                            self.push_event(self.now + 1.0, EventKind::NaiveForm);
                        }
                    }
                }
            }
        }
    }

    fn profile_store(&mut self) -> ProfileStore {
        let inject = self.cfg.error_injection;
        let mut store = ProfileStore::new();
        for idx in self.arrived_live.iter() {
            let job = &self.jobs[idx];
            if job.profile.is_warm() {
                let mut p = job.profile.clone();
                if inject > 0.0 {
                    // Persistent per-job error (Figure 13a simulates a
                    // *model* with a given error level, so a job's bias
                    // must not average out across decisions).
                    let e1 = persistent_error(self.cfg.seed, idx as u64, 0, inject);
                    let e2 = persistent_error(self.cfg.seed, idx as u64, 1, inject);
                    let mut q = JobProfile::from_reference(
                        p.job(),
                        (p.tcpu_at(1) * (1.0 + e1)).max(1e-6),
                        (p.tnet() * (1.0 + e2)).max(1e-6),
                    );
                    q.set_memory_footprint(p.input_bytes(), p.model_bytes());
                    p = q;
                }
                store.insert(p);
            }
        }
        store
    }

    /// A group still hosting at least one actively-profiling member.
    fn group_is_actively_profiling(&self, g: usize) -> bool {
        self.groups[g].as_ref().is_some_and(|grp| {
            grp.profiling_host
                && grp
                    .jobs
                    .iter()
                    .any(|&j| self.jobs[j].state == SimJobState::Profiling)
        })
    }

    fn cluster_view(&self) -> ClusterView {
        let mut grouping = harmony_core::group::Grouping::new();
        let mut profiling_held = 0u32;
        for g in self.alive_groups() {
            let grp = self.groups[g].as_ref().expect("alive");
            if grp.profiling_host {
                profiling_held += grp.machines;
                continue;
            }
            let _ = &grp;
            let jobs: Vec<JobId> = grp.jobs.iter().map(|&j| JobId::new(j as u64)).collect();
            let machines: Vec<harmony_core::cluster::MachineId> = (0..grp.machines)
                .map(|i| harmony_core::cluster::MachineId::new(g as u32 * 10_000 + i))
                .collect();
            grouping.push(harmony_core::group::JobGroup::new(
                GroupId::new(g as u32),
                jobs,
                machines,
            ));
        }
        ClusterView {
            machines: self.available_machines().saturating_sub(profiling_held),
            grouping,
            profiled: self.jobs_in_state(SimJobState::Profiled),
            paused: self.jobs_in_state(SimJobState::Paused),
        }
    }

    /// Arrived live jobs in state `s`, ascending.
    fn in_state(&self, s: SimJobState) -> impl Iterator<Item = usize> + '_ {
        // Terminal jobs have left the index, and a `Waiting` query
        // would miss the jobs still to arrive.
        debug_assert!(!matches!(
            s,
            SimJobState::Waiting | SimJobState::Finished | SimJobState::Failed
        ));
        self.arrived_live
            .iter()
            .filter(move |&j| self.jobs[j].state == s)
    }

    fn jobs_in_state(&self, s: SimJobState) -> Vec<JobId> {
        self.in_state(s).map(|j| JobId::new(j as u64)).collect()
    }

    /// Whether the equivalence-relaxed coalesced machinery (windows,
    /// batch group builds, cached aggregates, ready-heap wakes) is in
    /// force. The flag must stay inert for schedulers whose finish
    /// path never consults the window (Isolated, Naive), so the fast
    /// paths gate on this, not on the raw flag.
    fn coalesce_active(&self) -> bool {
        self.cfg.coalesced_passes
            && matches!(
                self.cfg.scheduler,
                SchedulerKind::Harmony | SchedulerKind::Oracle
            )
    }

    fn waiting_count(&self) -> usize {
        self.arrived_live
            .iter()
            .filter(|&j| {
                matches!(
                    self.jobs[j].state,
                    SimJobState::Profiled | SimJobState::Paused
                )
            })
            .count()
    }

    fn on_profiled_harmony(&mut self, j: usize) {
        // A job that was re-placed into a proper (non-profiling) group
        // before its profiling countdown elapsed is already where the
        // scheduler wants it: it just keeps running.
        if let Some(g) = self.jobs[j].group {
            let host = self.groups[g]
                .as_ref()
                .is_some_and(|grp| grp.profiling_host);
            if !host {
                self.jobs[j].state = SimJobState::Running;
                return;
            }
        }
        // The job keeps iterating in its profiling group ("in
        // background", §IV-B1) — it only moves when a decision places
        // it. Its state flips to Profiled so the scheduler sees it as
        // placeable.
        self.jobs[j].state = SimJobState::Profiled;

        if !self.bootstrapped {
            if self.in_state(SimJobState::Profiling).next().is_none() {
                self.bootstrapped = true;
                self.reschedule_because(ReschedReason::Bootstrap);
            }
            return;
        }
        let view = self.cluster_view();
        let store = self.profile_store();
        let t0 = Instant::now();
        let decision = self
            .regrouper
            .on_job_profiled(&view, &store, JobId::new(j as u64));
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        self.apply_decision(decision);
        self.reschedule_on_backlog(ReschedReason::Profiled);
    }

    /// A running job's profile drifted from its scheduled basis: the
    /// whole placement was computed against stale estimates, so
    /// re-evaluate it. The regrouper's incremental paths
    /// (`on_job_profiled`) assume a *waiting* job and would
    /// double-attach a running one, hence the full reschedule — unless
    /// [`SimConfig::live_migration`] is on, in which case only the
    /// drifted job moves: it is paused at its next iteration boundary,
    /// checkpointed, and re-placed by a targeted pass
    /// ([`Self::on_migrate_ready`]) once the checkpoint lands.
    fn on_drifted_harmony(&mut self, j: usize) {
        if self.cfg.live_migration
            && self.jobs[j].is_live()
            && self.jobs[j].state == SimJobState::Running
            && self.jobs[j].group.is_some()
        {
            self.jobs[j].pause_requested = true;
            self.jobs[j].migrate_mark = Some(self.now);
            let g = self.jobs[j].group.expect("checked above");
            let created = self.groups[g].as_ref().expect("alive").created_at;
            self.jobs[j].migrate_origin = Some((g, created));
            self.migration_stats
                .begin(self.jobs[j].spec.model_bytes as f64);
            return;
        }
        self.reschedule_because(ReschedReason::Drift);
    }

    /// A migrating job's checkpoint finished writing: run a targeted
    /// scheduling pass for just this job (the same incremental path a
    /// freshly profiled job takes — it is detached and paused, exactly
    /// the waiting shape that path assumes). Stale events — the job was
    /// already re-placed by an interleaved reschedule, finished, or
    /// died — no-op.
    fn on_migrate_ready(&mut self, j: usize) {
        if !self.jobs[j].is_live()
            || self.jobs[j].state != SimJobState::Paused
            || self.jobs[j].group.is_some()
            || self.jobs[j].migrate_mark.is_none()
        {
            return;
        }
        let view = self.cluster_view();
        let store = self.profile_store();
        let t0 = Instant::now();
        let decision = self
            .regrouper
            .on_job_profiled(&view, &store, JobId::new(j as u64));
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        // A targeted pass that sends the job straight back into the
        // group it drifted out of is a no-op migration: the measurements
        // that triggered the move condemned exactly that placement.
        // Escalate to a cluster-wide pass instead of bouncing back.
        let back_home = match &decision {
            RegroupDecision::AddToGroup { group, .. } => {
                let g = group.index() as usize;
                self.jobs[j].migrate_origin.is_some_and(|(og, oc)| {
                    og == g
                        && self
                            .groups
                            .get(g)
                            .and_then(|x| x.as_ref())
                            .is_some_and(|grp| grp.created_at == oc)
                })
            }
            _ => false,
        };
        if back_home {
            self.reschedule_because(ReschedReason::MigrationEscalation);
        } else {
            self.apply_decision(decision);
        }
        // The targeted pass may decline to place the job (NoChange);
        // escalate to a cluster-wide pass rather than strand it.
        if self.jobs[j].is_live() && self.jobs[j].group.is_none() {
            self.reschedule_because(ReschedReason::MigrationEscalation);
        }
    }

    fn on_finished_harmony(&mut self, j: usize, g: usize) {
        if self.cfg.coalesced_passes {
            self.on_finished_coalesced(j, g);
            return;
        }
        // The job was already detached inside complete_iteration; the
        // group may have dissolved if it was the last member.
        if self.groups.get(g).is_none_or(|x| x.is_none()) {
            self.reschedule_if_waiting(ReschedReason::Finished);
            return;
        }
        self.finished_replacement_decision(j, g);
        self.reschedule_on_backlog(ReschedReason::Finished);
    }

    /// The targeted per-finish decision (shared by the exact and the
    /// coalesced arm): ask the regrouper to backfill the finished
    /// job's slot in its still-alive group.
    fn finished_replacement_decision(&mut self, j: usize, g: usize) {
        let dop = self.groups[g].as_ref().expect("alive").machines.max(1);
        let profile = &self.jobs[j].profile;
        let (it, ratio) = if profile.is_warm() {
            (profile.iter_time_at(dop), profile.comp_comm_ratio_at(dop))
        } else {
            (1.0, 1.0)
        };
        let view = self.cluster_view();
        let store = self.profile_store();
        let t0 = Instant::now();
        let decision =
            self.regrouper
                .on_job_finished(&view, &store, it, ratio, GroupId::new(g as u32));
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        self.apply_decision(decision);
    }

    fn apply_decision(&mut self, decision: RegroupDecision) {
        match decision {
            RegroupDecision::NoChange => {}
            RegroupDecision::AddToGroup { job, group } => {
                let j = job.index() as usize;
                let g = group.index() as usize;
                if self.groups.get(g).is_some_and(Option::is_some) {
                    self.detach_job(j);
                    self.jobs[j].state = SimJobState::Running;
                    self.attach_job(g, j, false);
                    if self.cfg.profile_feedback {
                        self.jobs[j].profile.mark_scheduled();
                    }
                    self.record_snapshot();
                }
            }
            RegroupDecision::ReplaceFinished { group, add } => {
                let g = group.index() as usize;
                if self.groups.get(g).is_some_and(Option::is_some) {
                    for job in add {
                        let j = job.index() as usize;
                        self.detach_job(j);
                        self.jobs[j].state = SimJobState::Running;
                        self.attach_job(g, j, false);
                        if self.cfg.profile_feedback {
                            self.jobs[j].profile.mark_scheduled();
                        }
                    }
                    self.record_snapshot();
                }
            }
            RegroupDecision::PartialReschedule {
                involved_groups,
                outcome,
            } => {
                let sim_ids: Vec<usize> = involved_groups
                    .iter()
                    .map(|gid| gid.index() as usize)
                    .filter(|&g| self.groups.get(g).is_some_and(Option::is_some))
                    .collect();
                self.apply_outcome(&outcome, &sim_ids);
            }
        }
    }

    /// The coalesced twin of [`Self::on_finished_harmony`]
    /// ([`SimConfig::coalesced_passes`]): the cheap targeted
    /// replacement decision still runs on every finish whose group
    /// survives (so groups get backfilled exactly like the exact arm),
    /// but the *full pass* a finish used to mandate — on a crossed
    /// backlog threshold or a dissolved group with work waiting — is
    /// deferred into a window that flushes into ONE pass: at expiry,
    /// at the batch cap, or for free when any other full-pass trigger
    /// fires first. A finish that dissolved its group routes the freed
    /// machines to the best waiting jobs through the targeted release
    /// pass so capacity never idles behind the deferral.
    fn on_finished_coalesced(&mut self, j: usize, g: usize) {
        self.coalesced_finishes += 1;
        if self.groups.get(g).is_none_or(|x| x.is_none()) {
            if self.waiting_count() > 0 {
                if self.free_machines > 0 {
                    self.release_pass();
                }
                self.defer_finish_pass();
            }
            return;
        }
        if self.coalesce_opened.is_some() {
            // A flush is already pending, and a full pass subsumes
            // both the targeted backfill and the threshold pass this
            // finish would have run — the expensive per-finish
            // decision (O(jobs) store/view rebuild) collapses into
            // the one deferred pass. This skip is where the
            // finish-mandated floor actually breaks at scale.
            if self.waiting_count() > 0 {
                self.defer_finish_pass();
            }
            return;
        }
        self.finished_replacement_decision(j, g);
        if self.waiting_count() >= self.cfg.waiting_reschedule_threshold {
            self.defer_finish_pass();
        }
    }

    /// Accumulates one would-have-fired finish pass into the open
    /// coalescing window, opening one if none is pending.
    fn defer_finish_pass(&mut self) {
        if self.coalesce_opened.is_none() {
            self.coalesce_opened = Some(self.now);
            self.coalesce_batch = 0;
            self.coalesce_windows += 1;
            self.coalesce_gen += 1;
            let gen = self.coalesce_gen;
            self.push_event(
                self.now + self.cfg.coalesce_window,
                EventKind::FlushCoalesce(gen),
            );
        }
        self.coalesce_batch += 1;
        if self.coalesce_batch >= self.cfg.coalesce_max_batch {
            self.reschedule_because(ReschedReason::WindowFlush);
        }
    }

    /// A coalescing window expired. The generation check drops expiry
    /// events of windows that already flushed (batch cap, or another
    /// full-pass trigger subsuming the deferral).
    fn on_flush_coalesce(&mut self, gen: u64) {
        if self.coalesce_opened.is_some() && gen == self.coalesce_gen {
            self.reschedule_because(ReschedReason::WindowFlush);
        }
    }

    /// Closes an open coalescing window because a full pass is about
    /// to run: whatever pass fires now subsumes the deferred finish
    /// pass, so the window's pending flush becomes a stale no-op and
    /// the deferral's staleness is recorded. Free when the mode is
    /// off: the window is always closed.
    fn close_coalesce_window(&mut self) {
        if let Some(opened) = self.coalesce_opened.take() {
            self.coalesce_staleness.observe(self.now - opened);
            self.coalesce_batch = 0;
        }
    }

    /// Counts and runs a cluster-wide pass for `reason`: every full
    /// reschedule trigger goes through here, so the report's
    /// [`ReschedCounters`] show *why* passes fire — and any open
    /// coalescing window closes, subsumed by this pass.
    fn reschedule_because(&mut self, reason: ReschedReason) {
        self.close_coalesce_window();
        self.resched_reasons.bump(reason);
        self.full_reschedule();
    }

    /// The recurring "work is waiting, re-run Algorithm 1" guard that
    /// used to be copy-pasted at every trigger site.
    fn reschedule_if_waiting(&mut self, reason: ReschedReason) {
        if self.waiting_count() > 0 {
            self.reschedule_because(reason);
        }
    }

    /// The backlog-threshold guard
    /// ([`SimConfig::waiting_reschedule_threshold`]): incremental
    /// decisions handle onesie arrivals, a crossed threshold escalates
    /// to a cluster-wide pass.
    fn reschedule_on_backlog(&mut self, reason: ReschedReason) {
        if self.waiting_count() >= self.cfg.waiting_reschedule_threshold {
            self.reschedule_because(reason);
        }
    }

    /// Runs Algorithm 1 (or the oracle) over all schedulable jobs and
    /// rebuilds every non-profiling group.
    fn full_reschedule(&mut self) {
        if self.cfg.fast_event_path {
            self.full_reschedule_reusing();
            return;
        }
        // Ordered J_profiled ∪ J_paused ∪ J_running, as in Algorithm 1;
        // within each class, shortest predicted iteration first, so the
        // incremental prefix favors quick jobs (the paper's preference
        // for shorter JCTs).
        let store = self.profile_store();
        let mut ordered: Vec<usize> = Vec::new();
        for state in [
            SimJobState::Profiled,
            SimJobState::Paused,
            SimJobState::Running,
        ] {
            let mut class: Vec<usize> = self.in_state(state).collect();
            class.sort_by(|&a, &b| {
                let key = |j: usize| {
                    let p = &self.jobs[j].profile;
                    if p.is_warm() {
                        p.iter_time_at(16) * self.jobs[j].iterations_left() as f64
                    } else {
                        f64::MAX
                    }
                };
                key(a).partial_cmp(&key(b)).expect("finite").then(a.cmp(&b))
            });
            ordered.extend(class);
        }
        let profiles: Vec<JobProfile> = ordered
            .iter()
            .filter_map(|&j| store.get(JobId::new(j as u64)).cloned())
            .collect();
        if profiles.is_empty() {
            return;
        }
        let profiling_held: u32 = self
            .alive_groups()
            .filter(|&g| self.group_is_actively_profiling(g))
            .map(|g| self.groups[g].as_ref().expect("alive").machines)
            .sum();
        let machines = self.available_machines().saturating_sub(profiling_held);
        if machines == 0 {
            return;
        }
        let t0 = Instant::now();
        let outcome = match self.cfg.scheduler {
            SchedulerKind::Oracle => {
                assert!(
                    profiles.len() <= OracleScheduler::MAX_JOBS,
                    "oracle runs are limited to {} jobs",
                    OracleScheduler::MAX_JOBS
                );
                self.oracle.schedule(&profiles, machines)
            }
            _ => self.scheduler.schedule(&profiles, machines),
        };
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        let involved: Vec<usize> = self
            .alive_groups()
            .filter(|&g| !self.group_is_actively_profiling(g))
            .collect();
        self.apply_outcome(&outcome, &involved);
    }

    /// The fast-path twin of [`Self::full_reschedule`]: identical
    /// ordering, filtering and error-injection semantics, but fed from
    /// the persistent [`SimSchedScratch`] — no `ProfileStore` rebuild,
    /// no fresh ordering/profile vectors, and the core scheduler's
    /// derived arrays are carried across invocations
    /// (`schedule_reusing`).
    fn full_reschedule_reusing(&mut self) {
        let mut ss = std::mem::take(&mut self.sched_scratch);
        ss.profiles.clear();
        let inject = self.cfg.error_injection;
        // Ordered J_profiled ∪ J_paused ∪ J_running, as in Algorithm 1;
        // within each class, shortest predicted remaining time first.
        for state in [
            SimJobState::Profiled,
            SimJobState::Paused,
            SimJobState::Running,
        ] {
            ss.class.clear();
            ss.class.extend(self.in_state(state));
            ss.class.sort_by(|&a, &b| {
                let key = |j: usize| {
                    let p = &self.jobs[j].profile;
                    if p.is_warm() {
                        p.iter_time_at(16) * self.jobs[j].iterations_left() as f64
                    } else {
                        f64::MAX
                    }
                };
                key(a).partial_cmp(&key(b)).expect("finite").then(a.cmp(&b))
            });
            for &j in ss.class.iter() {
                // Same visibility rule as the store-backed path: the
                // scheduler sees warm profiles only (all three states
                // imply liveness, so warmth is the whole filter).
                let p = &self.jobs[j].profile;
                if !p.is_warm() {
                    continue;
                }
                if inject > 0.0 {
                    // Persistent per-job error (Figure 13a simulates a
                    // *model* with a given error level, so a job's bias
                    // must not average out across decisions).
                    let e1 = persistent_error(self.cfg.seed, j as u64, 0, inject);
                    let e2 = persistent_error(self.cfg.seed, j as u64, 1, inject);
                    let mut q = JobProfile::from_reference(
                        p.job(),
                        (p.tcpu_at(1) * (1.0 + e1)).max(1e-6),
                        (p.tnet() * (1.0 + e2)).max(1e-6),
                    );
                    q.set_memory_footprint(p.input_bytes(), p.model_bytes());
                    ss.profiles.push(q);
                } else {
                    ss.profiles.push(p.clone());
                }
            }
        }
        if ss.profiles.is_empty() {
            self.sched_scratch = ss;
            return;
        }
        let profiling_held: u32 = self
            .alive_groups()
            .filter(|&g| self.group_is_actively_profiling(g))
            .map(|g| self.groups[g].as_ref().expect("alive").machines)
            .sum();
        let machines = self.available_machines().saturating_sub(profiling_held);
        if machines == 0 {
            self.sched_scratch = ss;
            return;
        }
        let t0 = Instant::now();
        let outcome = match self.cfg.scheduler {
            SchedulerKind::Oracle => {
                assert!(
                    ss.profiles.len() <= OracleScheduler::MAX_JOBS,
                    "oracle runs are limited to {} jobs",
                    OracleScheduler::MAX_JOBS
                );
                self.oracle.schedule(&ss.profiles, machines)
            }
            // The dirty-set arm: unchanged profiles keep their cached
            // durations and sort ranks (bit-identical decisions, see
            // `schedule_reusing_incremental`).
            _ if self.cfg.incremental_resched => self.scheduler.schedule_reusing_incremental(
                &ss.profiles,
                machines,
                &mut ss.cache,
                &mut ss.scratch,
            ),
            _ => self.scheduler.schedule_reusing(
                &ss.profiles,
                machines,
                &mut ss.cache,
                &mut ss.scratch,
            ),
        };
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        self.sched_scratch = ss;
        let involved: Vec<usize> = self
            .alive_groups()
            .filter(|&g| !self.group_is_actively_profiling(g))
            .collect();
        self.apply_outcome(&outcome, &involved);
    }

    /// The targeted release pass of the coalesced mode
    /// ([`SimConfig::coalesced_passes`]): hand the free pool to the
    /// best waiting (profiled/paused) jobs via
    /// [`Scheduler::schedule_release`] without touching any running
    /// group. Same ordering, warm-profile filter and error-injection
    /// semantics as the full pass, restricted to the waiting classes;
    /// fed from dedicated persistent buffers so the full pass's
    /// dirty-set cache never sees release-only churn. Harmony kind
    /// only — the oracle has no cheap targeted variant, so its
    /// coalesced mode is window-only.
    fn release_pass(&mut self) {
        if !matches!(self.cfg.scheduler, SchedulerKind::Harmony) {
            return;
        }
        let machines = self.free_machines;
        if machines == 0 {
            return;
        }
        let mut ss = std::mem::take(&mut self.sched_scratch);
        ss.release_profiles.clear();
        let inject = self.cfg.error_injection;
        for state in [SimJobState::Profiled, SimJobState::Paused] {
            ss.class.clear();
            ss.class.extend(self.in_state(state));
            ss.class.sort_by(|&a, &b| {
                let key = |j: usize| {
                    let p = &self.jobs[j].profile;
                    if p.is_warm() {
                        p.iter_time_at(16) * self.jobs[j].iterations_left() as f64
                    } else {
                        f64::MAX
                    }
                };
                key(a).partial_cmp(&key(b)).expect("finite").then(a.cmp(&b))
            });
            for &j in ss.class.iter() {
                let p = &self.jobs[j].profile;
                if !p.is_warm() {
                    continue;
                }
                if inject > 0.0 {
                    let e1 = persistent_error(self.cfg.seed, j as u64, 0, inject);
                    let e2 = persistent_error(self.cfg.seed, j as u64, 1, inject);
                    let mut q = JobProfile::from_reference(
                        p.job(),
                        (p.tcpu_at(1) * (1.0 + e1)).max(1e-6),
                        (p.tnet() * (1.0 + e2)).max(1e-6),
                    );
                    q.set_memory_footprint(p.input_bytes(), p.model_bytes());
                    ss.release_profiles.push(q);
                } else {
                    ss.release_profiles.push(p.clone());
                }
            }
        }
        if ss.release_profiles.is_empty() {
            self.sched_scratch = ss;
            return;
        }
        let t0 = Instant::now();
        let outcome = self.scheduler.schedule_release(
            &ss.release_profiles,
            machines,
            &mut ss.release_cache,
            &mut ss.release_scratch,
        );
        self.sched_wall += t0.elapsed();
        self.sched_invocations += 1;
        self.release_passes += 1;
        self.sched_scratch = ss;
        // No groups are involved: the pass only *adds* groups over the
        // free pool (`apply_outcome` skips anything it cannot fund).
        self.apply_outcome(&outcome, &[]);
    }

    /// Replaces `involved` groups with the groups of `outcome`.
    fn apply_outcome(&mut self, outcome: &ScheduleOutcome, involved: &[usize]) {
        // Remember old placement for migration-cost decisions.
        let involved: Vec<usize> = involved
            .iter()
            .copied()
            .filter(|&g| self.groups.get(g).is_some_and(Option::is_some))
            .collect();
        // One sorted signature per involved group, shared by all of its
        // members through an index — the per-job `sig.clone()` this
        // replaces dominated reschedule cost on large clusters.
        let mut sigs: Vec<Vec<usize>> = Vec::with_capacity(involved.len());
        let mut old_placement: std::collections::HashMap<usize, (usize, u32)> =
            std::collections::HashMap::new();
        for &g in &involved {
            let grp = self.groups[g].as_ref().expect("alive");
            let mut sig = grp.jobs.clone();
            sig.sort_unstable();
            let si = sigs.len();
            for &j in &grp.jobs {
                old_placement.insert(j, (si, grp.machines));
            }
            sigs.push(sig);
        }

        // Pause and dissolve the involved groups.
        let mut members = std::mem::take(&mut self.scratch_members);
        for &g in &involved {
            // One O(k) sweep instead of k O(k) detaches — but only
            // where the quadratic bites. Small groups keep the exact
            // arm's detach-by-detach history, so the tiny-workload
            // acceptance matrix diverges only through the window
            // timing itself, not through teardown bookkeeping.
            if self.coalesce_active()
                && self
                    .groups
                    .get(g)
                    .and_then(|x| x.as_ref())
                    .is_some_and(|grp| grp.jobs.len() >= COALESCE_BATCH_BUILD_MIN)
            {
                self.teardown_group(g);
                continue;
            }
            let Some(grp) = self.groups.get(g).and_then(|x| x.as_ref()) else {
                continue;
            };
            members.clear();
            members.extend_from_slice(&grp.jobs);
            for &j in &members {
                if self.jobs[j].is_live() {
                    self.jobs[j].state = SimJobState::Paused;
                }
                self.detach_job(j);
            }
            if self.groups.get(g).is_some_and(Option::is_some) {
                self.dissolve_group(g);
            }
        }
        members.clear();
        self.scratch_members = members;

        // Build the new groups.
        for (gi, core_group) in outcome.grouping.groups().iter().enumerate() {
            let m = core_group.dop();
            if m == 0 || m > self.free_machines {
                continue;
            }
            let predicted_it = outcome.predicted_iteration.get(gi).copied();
            let util = outcome.utilization;
            // Same size floor as the teardown sweep: defer the
            // per-attach re-plan only for groups big enough that the
            // O(k²) build actually costs something.
            let batch_build =
                self.coalesce_active() && core_group.jobs().len() >= COALESCE_BATCH_BUILD_MIN;
            // Predictions are armed only after the founding members are
            // attached, so population itself does not finalize them.
            let g = self.create_group(m, false, None, None);
            let mut new_sig: Vec<usize> = core_group
                .jobs()
                .iter()
                .map(|id| id.index() as usize)
                .collect();
            new_sig.sort_unstable();
            for job_id in core_group.jobs() {
                let j = job_id.index() as usize;
                if !self.jobs[j].is_live() {
                    continue;
                }
                let unchanged = old_placement
                    .get(&j)
                    .is_some_and(|&(si, om)| sigs[si] == new_sig && om == m);
                if !unchanged && old_placement.contains_key(&j) {
                    self.migrations += 1;
                }
                // The job may still sit in a profiling group.
                self.detach_job(j);
                self.jobs[j].state = SimJobState::Running;
                // Coalesced mode defers the per-attach memory re-plan
                // to one batch re-plan below; the exact mode keeps the
                // attach-by-attach plan (and its bit-exact history).
                self.attach_job_with_replan(g, j, false, !batch_build);
                // Pin the drift basis to the estimates this decision
                // was computed with (no-op while the profile is cold).
                if self.cfg.profile_feedback {
                    self.jobs[j].profile.mark_scheduled();
                }
            }
            if batch_build {
                self.finish_group_build(g);
            }
            if let Some(grp) = self.groups.get_mut(g).and_then(Option::as_mut) {
                grp.predicted_iteration = predicted_it;
                grp.predicted_util = Some((util.cpu, util.net));
            }
        }
        // Cold jobs that were piggybacking on a dissolved group never
        // finished profiling; the scheduler cannot see them (no warm
        // profile), so they must re-enter profiling placement or they
        // would wait forever.
        let cold_paused: Vec<usize> = self
            .in_state(SimJobState::Paused)
            .filter(|&j| !self.jobs[j].profile.is_warm())
            .collect();
        for j in cold_paused {
            self.place_for_profiling(j);
        }
        self.record_snapshot();
    }

    fn record_snapshot(&mut self) {
        let groups: Vec<(u32, usize)> = self
            .alive_groups()
            .filter(|&g| !self.groups[g].as_ref().expect("alive").profiling_host)
            .map(|g| {
                let grp = self.groups[g].as_ref().expect("alive");
                (grp.machines, grp.jobs.len())
            })
            .collect();
        if !groups.is_empty() {
            self.snapshots.push(GroupingSnapshot {
                time: self.now,
                groups,
            });
        }
    }

    // ----------------------------------------------------------------
    // Isolated baseline.
    // ----------------------------------------------------------------

    fn isolated_admit(&mut self) {
        while self.free_machines > 0 {
            let Some(&j) = self.isolated_queue.front() else {
                break;
            };
            let profile = JobProfile::from_reference(
                JobId::new(j as u64),
                self.jobs[j].spec.comp_cost,
                self.jobs[j].spec.net_cost,
            );
            // Target DoP: the CPU-utilization knee, capped by the whole
            // cluster; admit only once at least half of it is free so
            // jobs are not starved into degenerate 1-machine runs
            // (head-of-line FIFO, as dedicated-allocation systems do).
            let knee = self.cfg.fixed_dop.unwrap_or_else(|| {
                IsolatedScheduler::knee_dop_with_factor(
                    &profile,
                    self.cfg.machines,
                    self.cfg.isolated_knee_factor,
                )
            });
            let m = knee.min(self.free_machines).max(1);
            if m * 2 < knee {
                break;
            }
            self.isolated_queue.pop_front();
            let g = self.create_group(m, false, None, None);
            self.jobs[j].state = SimJobState::Running;
            self.attach_job(g, j, false);
        }
    }

    // ----------------------------------------------------------------
    // Naive co-location baseline.
    // ----------------------------------------------------------------

    fn naive_form_groups(&mut self) {
        let SchedulerKind::Naive {
            jobs_per_group,
            seed,
        } = self.cfg.scheduler
        else {
            return;
        };
        let mut pending: Vec<usize> = self
            .arrived_live
            .iter()
            .filter(|&j| self.jobs[j].state == SimJobState::Waiting)
            .collect();
        if pending.is_empty() {
            return;
        }
        // The seed picks one of the many possible packings (§V-A: the
        // evaluation samples placements and reports best/worst).
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next_rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..pending.len()).rev() {
            let k = (next_rand() % (i as u64 + 1)) as usize;
            pending.swap(i, k);
        }
        let mut changed = false;
        for j in pending {
            // Pack into an existing pool with room (fewest jobs first) —
            // the Gandiva-style packing with no model of fit quality.
            let pool = self
                .alive_groups()
                .filter(|&g| {
                    self.groups[g]
                        .as_ref()
                        .is_some_and(|grp| grp.jobs.len() < jobs_per_group)
                })
                .min_by_key(|&g| self.groups[g].as_ref().expect("alive").jobs.len());
            if let Some(g) = pool {
                self.jobs[j].state = SimJobState::Running;
                self.attach_job(g, j, false);
                changed = true;
                continue;
            }
            if self.free_machines == 0 {
                break;
            }
            // Open a new pool sized like a dedicated allocation for the
            // first job; the jobs packed on top of it contend.
            let profile = JobProfile::from_reference(
                JobId::new(j as u64),
                self.jobs[j].spec.comp_cost,
                self.jobs[j].spec.net_cost,
            );
            let knee = self.cfg.fixed_dop.unwrap_or_else(|| {
                IsolatedScheduler::knee_dop_with_factor(
                    &profile,
                    self.cfg.machines,
                    self.cfg.isolated_knee_factor,
                )
            });
            let m = knee.min(self.free_machines);
            let g = self.create_group(m, false, None, None);
            self.jobs[j].state = SimJobState::Running;
            self.attach_job(g, j, false);
            changed = true;
        }
        if changed {
            self.record_snapshot();
        }
    }

    // ----------------------------------------------------------------
    // Finalization.
    // ----------------------------------------------------------------

    fn finalize(mut self) -> RunReport {
        // A window still open at run end only records its staleness —
        // there is nothing left to flush into a pass.
        self.close_coalesce_window();
        // Fold surviving groups into the busy totals.
        for g in self.alive_groups().collect::<Vec<_>>() {
            self.dissolve_group(g);
        }
        // Full walks: the report covers every job of the trace.
        let makespan = self
            .jobs
            .iter()
            .filter_map(|j| j.finish)
            .fold(0.0f64, f64::max);
        let jobs = self
            .jobs
            .iter()
            .map(|j| JobOutcome {
                name: j.spec.name.clone(),
                arrival: j.arrival,
                finish: j.finish.filter(|_| j.state == SimJobState::Finished),
                jct: j
                    .finish
                    .filter(|_| j.state == SimJobState::Finished)
                    .map(|f| f - j.arrival),
                iterations: j.iterations_done,
                failed: j.state == SimJobState::Failed,
                aborted: j.aborted,
                rejected: j.rejected,
                final_alpha: j.alpha,
            })
            .collect();
        let scheduler = match self.cfg.scheduler {
            SchedulerKind::Harmony => "harmony".to_string(),
            SchedulerKind::Oracle => "oracle".to_string(),
            SchedulerKind::Isolated => "isolated".to_string(),
            SchedulerKind::Naive { seed, .. } => format!("naive-{seed}"),
        };
        RunReport {
            scheduler,
            makespan,
            jobs,
            cpu_timeline: self.cpu_tl,
            net_timeline: self.net_tl,
            cpu_busy_machine_secs: self.cpu_busy_total,
            net_busy_machine_secs: self.net_busy_total,
            oom_events: self.oom_events,
            grouping_snapshots: self.snapshots,
            predictions: self.predictions,
            sched_invocations: self.sched_invocations,
            sched_wall: self.sched_wall,
            event_wall: self.event_wall,
            resched_reasons: self.resched_reasons,
            migrations: self.migrations,
            failures: self.failures_injected,
            machines_lost: self.machines_lost,
            jobs_aborted: self.jobs_aborted,
            fault_log: self.fault_log,
            recovery_latency: self.recovery_stats,
            live_migration: self.migration_stats,
            gc_seconds: self.gc_seconds,
            alpha_stats: self.alpha_stats,
            mean_group_iteration: self.iter_wall_stats.mean(),
            concurrent_jobs: self.concurrent_stats,
            spans: self.spans,
            coalesce_windows: self.coalesce_windows,
            coalesced_finishes: self.coalesced_finishes,
            release_passes: self.release_passes,
            coalesce_staleness: self.coalesce_staleness,
            admission: self.admission_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::job::{AppKind, JobSpec};

    pub(super) fn spec(name: &str, comp: f64, net: f64, input_gb: u64, model_gb: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            app: AppKind::Mlr,
            dataset: "synthetic".into(),
            input_bytes: input_gb << 30,
            model_bytes: model_gb << 30,
            comp_cost: comp,
            net_cost: net,
            sync: Default::default(),
            pull_fraction: 0.5,
            iters_per_epoch: 5,
            target_epochs: 4,
        }
    }

    pub(super) fn small_cfg(kind: SchedulerKind) -> SimConfig {
        SimConfig {
            machines: 8,
            scheduler: kind,
            reload: ReloadPolicy::Adaptive,
            straggler_cv: 0.0,
            utilization_sample_secs: 30.0,
            ..SimConfig::default()
        }
    }

    pub(super) fn two_complementary() -> Vec<JobSpec> {
        vec![
            spec("cpu-heavy", 400.0, 10.0, 4, 1),
            spec("net-heavy", 40.0, 50.0, 2, 1),
        ]
    }

    #[test]
    fn harmony_completes_all_jobs() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        assert_eq!(r.completed(), 2, "{:?}", r.oom_events);
        assert!(r.makespan > 0.0);
        for j in &r.jobs {
            assert_eq!(j.iterations, 20);
            assert!(j.jct.unwrap() > 0.0);
        }
    }

    #[test]
    fn isolated_completes_all_jobs() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Isolated),
            two_complementary(),
            vec![0.0, 0.0],
        );
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn jobs_cut_off_by_the_horizon_are_not_completed() {
        // Stop the clock after the first job's finish but long before
        // the second's: the straggler is abandoned without a finish
        // time and must not count as completed.
        let mut specs = two_complementary();
        specs[1].target_epochs *= 1_000;
        let full = Driver::run(
            small_cfg(SchedulerKind::Isolated),
            two_complementary(),
            vec![0.0, 0.0],
        );
        let cfg = SimConfig {
            max_sim_seconds: full.makespan * 2.0,
            ..small_cfg(SchedulerKind::Isolated)
        };
        let r = Driver::run(cfg, specs, vec![0.0, 0.0]);
        assert!(r.jobs[0].finish.is_some(), "{:?}", r.jobs[0]);
        assert_eq!(r.jobs[1].finish, None);
        assert!(r.jobs[1].iterations > 0, "{:?}", r.jobs[1]);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn naive_completes_all_jobs() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Naive {
                jobs_per_group: 2,
                seed: 1,
            }),
            two_complementary(),
            vec![0.0, 0.0],
        );
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn harmony_beats_isolated_on_complementary_mix() {
        // Several complementary jobs: multiplexing should cut makespan.
        let mut specs = Vec::new();
        for i in 0..4 {
            specs.push(spec(&format!("cpu{i}"), 320.0, 8.0, 2, 1));
            specs.push(spec(&format!("net{i}"), 24.0, 40.0, 1, 1));
        }
        let arrivals = vec![0.0; specs.len()];
        let h = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            specs.clone(),
            arrivals.clone(),
        );
        let i = Driver::run(small_cfg(SchedulerKind::Isolated), specs, arrivals);
        assert_eq!(h.completed(), 8);
        assert_eq!(i.completed(), 8);
        assert!(
            h.makespan < i.makespan,
            "harmony {} vs isolated {}",
            h.makespan,
            i.makespan
        );
    }

    #[test]
    fn oom_fires_without_spill() {
        // Input far beyond memory (x2.5 expansion) and no reload.
        let cfg = SimConfig {
            machines: 2,
            scheduler: SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 0,
            },
            reload: ReloadPolicy::None,
            ..SimConfig::default()
        };
        let specs = vec![
            spec("a", 50.0, 5.0, 40, 2),
            spec("b", 50.0, 5.0, 40, 2),
            spec("c", 50.0, 5.0, 40, 2),
        ];
        let r = Driver::run(cfg, specs, vec![0.0; 3]);
        assert!(!r.oom_events.is_empty(), "expected an OOM kill");
        assert!(r.completed() < 3);
    }

    #[test]
    fn spill_prevents_the_same_oom() {
        let cfg = SimConfig {
            machines: 2,
            scheduler: SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 0,
            },
            reload: ReloadPolicy::StaticFit,
            ..SimConfig::default()
        };
        let specs = vec![
            spec("a", 50.0, 5.0, 40, 2),
            spec("b", 50.0, 5.0, 40, 2),
            spec("c", 50.0, 5.0, 40, 2),
        ];
        let r = Driver::run(cfg, specs, vec![0.0; 3]);
        assert!(r.oom_events.is_empty(), "{:?}", r.oom_events);
        assert_eq!(r.completed(), 3);
    }

    #[test]
    fn runs_are_deterministic() {
        let specs = two_complementary();
        let a = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            specs.clone(),
            vec![0.0, 0.0],
        );
        let b = Driver::run(small_cfg(SchedulerKind::Harmony), specs, vec![0.0, 0.0]);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.mean_jct(), b.mean_jct());
    }

    #[test]
    fn arrivals_are_respected() {
        let specs = two_complementary();
        let r = Driver::run(small_cfg(SchedulerKind::Isolated), specs, vec![0.0, 500.0]);
        let late = &r.jobs[1];
        assert!(late.finish.unwrap() > 500.0);
        assert_eq!(late.arrival, 500.0);
    }

    #[test]
    fn utilization_samples_are_bounded() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        for p in r
            .cpu_timeline
            .points()
            .iter()
            .chain(r.net_timeline.points())
        {
            assert!((0.0..=1.0).contains(&p.value), "{p:?}");
        }
        assert!(r.avg_cpu_util(8) <= 1.0);
        assert!(r.avg_net_util(8) <= 1.0);
    }

    #[test]
    fn harmony_collects_predictions_with_small_error() {
        let mut specs = Vec::new();
        for i in 0..6 {
            specs.push(spec(&format!("c{i}"), 200.0 + 30.0 * i as f64, 10.0, 2, 1));
            specs.push(spec(&format!("n{i}"), 30.0, 25.0 + 5.0 * i as f64, 1, 1));
        }
        let arrivals = vec![0.0; specs.len()];
        let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
        assert!(!r.predictions.is_empty(), "no prediction samples collected");
        // This is a deliberately harsh small-scale setting (8 machines,
        // 20-iteration jobs, so measurement windows are only a few
        // iterations long); paper-scale accuracy (<10% on the 80-job
        // workload, Figure 13b) is asserted by the fig13 experiment.
        let err = r.mean_iteration_prediction_error();
        assert!(err < 0.35, "iteration prediction error {err}");
    }

    #[test]
    fn jobs_make_iteration_progress_monotonically() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        for j in &r.jobs {
            assert_eq!(j.iterations, 20, "{}", j.name);
        }
    }

    #[test]
    fn completions_trigger_regrouping_decisions() {
        // Jobs of mixed lengths: short ones finish first, forcing the
        // §IV-B4 completion path (replace or escalate) to run; the
        // grouping must keep evolving after the first completion.
        let mut specs = Vec::new();
        for i in 0..3 {
            specs.push(spec(&format!("short{i}"), 60.0, 6.0, 1, 1));
        }
        for i in 0..3 {
            specs.push(spec(&format!("long{i}"), 600.0, 20.0, 2, 1));
        }
        let arrivals = vec![0.0; specs.len()];
        let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
        assert_eq!(r.completed(), 6);
        // Decisions happened after the bootstrap one.
        assert!(
            r.grouping_snapshots.len() >= 2,
            "only {} snapshots",
            r.grouping_snapshots.len()
        );
        let first = r.grouping_snapshots.first().expect("non-empty").time;
        let last = r.grouping_snapshots.last().expect("non-empty").time;
        assert!(last > first, "no regrouping after bootstrap");
    }

    #[test]
    fn migrations_are_counted_when_groups_reshape() {
        let mut specs = Vec::new();
        for i in 0..4 {
            specs.push(spec(&format!("a{i}"), 150.0 + 40.0 * i as f64, 8.0, 1, 1));
            specs.push(spec(&format!("b{i}"), 30.0, 20.0 + 4.0 * i as f64, 1, 1));
        }
        let arrivals = vec![0.0; specs.len()];
        let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
        assert_eq!(r.completed(), 8);
        // With eight heterogeneous jobs on eight machines at least one
        // reshape moves a running job.
        assert!(r.migrations > 0);
    }

    #[test]
    fn live_migration_is_inert_without_drift() {
        // Without profile_feedback no drift ever fires, so turning
        // live_migration on must not change a single byte.
        let specs = two_complementary();
        let off = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            specs.clone(),
            vec![0.0, 0.0],
        );
        let cfg = SimConfig {
            live_migration: true,
            ..small_cfg(SchedulerKind::Harmony)
        };
        let on = Driver::run(cfg, specs, vec![0.0, 0.0]);
        assert_eq!(off.canonical_bytes(), on.canonical_bytes());
        assert_eq!(on.live_migration.started, 0);
        assert_eq!(on.live_migration.completed, 0);
    }

    #[test]
    fn sched_wall_clock_is_tracked() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        assert!(r.sched_invocations > 0);
        assert!(r.sched_wall > std::time::Duration::ZERO);
    }

    #[test]
    fn grouping_snapshots_recorded_for_harmony() {
        let r = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        assert!(!r.grouping_snapshots.is_empty());
        for s in &r.grouping_snapshots {
            for &(m, jobs) in &s.groups {
                assert!(m >= 1);
                assert!(jobs >= 1);
            }
        }
    }

    fn coalesced_cfg(window: f64, max_batch: usize) -> SimConfig {
        SimConfig {
            coalesced_passes: true,
            coalesce_window: window,
            coalesce_max_batch: max_batch,
            // Windows only open where the exact arm would have fired a
            // finish pass; a threshold of 1 makes every finish with a
            // backlog mandate one, so the window machinery is actually
            // exercised on these tiny workloads.
            waiting_reschedule_threshold: 1,
            ..small_cfg(SchedulerKind::Harmony)
        }
    }

    fn staggered_mix(n: usize) -> (Vec<JobSpec>, Vec<f64>) {
        let mut specs = Vec::new();
        let mut arrivals = Vec::new();
        for i in 0..n {
            specs.push(spec(
                &format!("c{i}"),
                120.0 + 30.0 * (i % 5) as f64,
                6.0 + 2.0 * (i % 3) as f64,
                1,
                1,
            ));
            arrivals.push(10.0 * (i % 4) as f64);
        }
        (specs, arrivals)
    }

    #[test]
    fn coalesced_mode_completes_and_counts_every_finish() {
        let (specs, arrivals) = staggered_mix(8);
        let n = specs.len();
        let r = Driver::run(coalesced_cfg(30.0, 32), specs, arrivals);
        assert_eq!(r.completed(), n);
        // Every finish routed through a window, none lost or doubled.
        assert_eq!(r.coalesced_finishes, n);
        assert!(r.coalesce_windows >= 1);
        assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
        assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
        assert_eq!(r.resched_reasons.finished, 0);
    }

    #[test]
    fn coalesced_staleness_is_bounded_by_the_window() {
        let (specs, arrivals) = staggered_mix(10);
        for window in [5.0, 60.0, 600.0] {
            let r = Driver::run(coalesced_cfg(window, 32), specs.clone(), arrivals.clone());
            if let Some(max) = r.coalesce_staleness.max() {
                assert!(
                    max <= window + 1e-9,
                    "staleness {max} exceeds window {window}"
                );
            }
        }
    }

    #[test]
    fn coalesced_batch_cap_of_one_flushes_every_finish() {
        let (specs, arrivals) = staggered_mix(6);
        let n = specs.len();
        let r = Driver::run(coalesced_cfg(1e6, 1), specs, arrivals);
        assert_eq!(r.completed(), n);
        // Cap 1 degenerates to one flush per mandated finish: every
        // window flushes immediately with zero staleness.
        assert!(r.coalesce_windows >= 1);
        assert_eq!(r.resched_reasons.window_flush, r.coalesce_windows);
        assert_eq!(r.coalesce_staleness.max(), Some(0.0));
    }

    #[test]
    fn coalesced_flag_off_keeps_the_window_machinery_silent() {
        let (specs, arrivals) = staggered_mix(8);
        let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
        assert_eq!(r.coalesce_windows, 0);
        assert_eq!(r.coalesced_finishes, 0);
        assert_eq!(r.release_passes, 0);
        assert!(r.coalesce_staleness.is_empty());
        assert_eq!(r.resched_reasons.window_flush, 0);
    }

    #[test]
    fn coalesced_flag_is_inert_for_isolated_and_naive() {
        // The window machinery hangs off the Harmony finish handler;
        // the baselines must stay byte-identical with the flag on.
        for kind in [
            SchedulerKind::Isolated,
            SchedulerKind::Naive {
                jobs_per_group: 4,
                seed: 1,
            },
        ] {
            let (specs, arrivals) = staggered_mix(6);
            let off = Driver::run(small_cfg(kind.clone()), specs.clone(), arrivals.clone());
            let on = Driver::run(
                SimConfig {
                    coalesced_passes: true,
                    ..small_cfg(kind)
                },
                specs,
                arrivals,
            );
            assert_eq!(off.canonical_bytes(), on.canonical_bytes());
            assert_eq!(on.coalesce_windows, 0);
            assert_eq!(on.release_passes, 0);
        }
    }
}

#[cfg(test)]
mod coalesce_props {
    use super::*;
    use harmony_core::job::{AppKind, JobSpec};
    use proptest::prelude::*;

    fn spec(name: String, comp: f64, net: f64) -> JobSpec {
        JobSpec {
            name,
            app: AppKind::Mlr,
            dataset: "synthetic".into(),
            input_bytes: 1 << 30,
            model_bytes: 1 << 30,
            comp_cost: comp,
            net_cost: net,
            sync: Default::default(),
            pull_fraction: 0.5,
            iters_per_epoch: 5,
            target_epochs: 3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Core accounting of the window state machine, under random
        /// workload shapes, windows and batch caps: no finish is lost
        /// or double-counted, every window records exactly one
        /// staleness sample bounded by the window length, and flush
        /// passes never outnumber windows (other triggers may subsume
        /// a window for free, never the reverse).
        #[test]
        fn window_accounting_invariants(
            njobs in 2usize..10,
            window in 1.0f64..600.0,
            max_batch in 1usize..8,
            spread in 0.0f64..40.0,
        ) {
            let mut specs = Vec::new();
            let mut arrivals = Vec::new();
            for i in 0..njobs {
                specs.push(spec(
                    format!("p{i}"),
                    80.0 + 35.0 * (i % 4) as f64,
                    5.0 + 3.0 * (i % 3) as f64,
                ));
                arrivals.push(spread * (i % 3) as f64);
            }
            let cfg = SimConfig {
                machines: 8,
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::Adaptive,
                straggler_cv: 0.0,
                coalesced_passes: true,
                coalesce_window: window,
                coalesce_max_batch: max_batch,
                ..SimConfig::default()
            };
            let r = Driver::run(cfg, specs, arrivals);
            // No finish lost or double-counted.
            prop_assert_eq!(r.completed(), njobs);
            prop_assert_eq!(r.coalesced_finishes, njobs);
            // The exact finish trigger never fires in coalesced mode.
            prop_assert_eq!(r.resched_reasons.finished, 0);
            // One staleness sample per window, each bounded by the
            // window length (flush ordering is total: expiry, batch
            // cap and subsuming triggers all close before any later
            // pass runs).
            prop_assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
            if let Some(max) = r.coalesce_staleness.max() {
                prop_assert!(
                    max <= window + 1e-9,
                    "staleness {} exceeds window {}", max, window
                );
            }
            prop_assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
            // Release passes only fire while a window exists.
            if r.coalesce_windows == 0 {
                prop_assert_eq!(r.release_passes, 0);
            }
        }

        /// Drift-style triggers (here: the profiled-backlog threshold
        /// crossing under staggered arrivals) subsume open windows:
        /// the run still completes, and subsumed windows show up as
        /// staleness samples without a matching flush pass.
        #[test]
        fn subsuming_triggers_interleave_cleanly(
            njobs in 4usize..12,
            window in 50.0f64..2000.0,
        ) {
            let mut specs = Vec::new();
            let mut arrivals = Vec::new();
            for i in 0..njobs {
                specs.push(spec(
                    format!("q{i}"),
                    100.0 + 25.0 * (i % 3) as f64,
                    4.0 + 2.0 * (i % 2) as f64,
                ));
                // Late stragglers keep profiling/backlog triggers
                // firing while earlier jobs finish into windows.
                arrivals.push(if i % 2 == 0 { 0.0 } else { 120.0 });
            }
            let cfg = SimConfig {
                machines: 8,
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::Adaptive,
                straggler_cv: 0.0,
                waiting_reschedule_threshold: 2,
                coalesced_passes: true,
                coalesce_window: window,
                coalesce_max_batch: 64,
                ..SimConfig::default()
            };
            let r = Driver::run(cfg, specs, arrivals);
            prop_assert_eq!(r.completed(), njobs);
            prop_assert_eq!(r.coalesced_finishes, njobs);
            prop_assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
            prop_assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
            if let Some(max) = r.coalesce_staleness.max() {
                prop_assert!(max <= window + 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod try_run_validation {
    //! Malformed run requests come back as errors, not panics
    //! (regression for the old `assert_eq!` length check in `run`).

    use super::tests::{small_cfg, spec, two_complementary};
    use super::*;

    #[test]
    fn try_run_rejects_mismatched_arrival_lengths() {
        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0], // two specs, one arrival
        )
        .expect_err("length mismatch must be an error, not a panic");
        assert!(err.contains("arrival"), "unhelpful error: {err}");
        assert!(
            err.contains('2') && err.contains('1'),
            "counts absent: {err}"
        );
    }

    #[test]
    fn try_run_rejects_invalid_specs_and_arrival_times() {
        let mut bad = spec("broken", 0.0, 10.0, 1, 1); // zero COMP cost
        bad.comp_cost = 0.0;
        let err = Driver::try_run(small_cfg(SchedulerKind::Harmony), vec![bad], vec![0.0])
            .expect_err("invalid spec must be an error");
        assert!(err.contains("job 0 spec invalid"), "{err}");

        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, f64::NAN],
        )
        .expect_err("NaN arrival must be an error");
        assert!(err.contains("job 1 arrival"), "{err}");

        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, -5.0],
        )
        .expect_err("negative arrival must be an error");
        assert!(err.contains("job 1 arrival"), "{err}");
    }

    #[test]
    fn try_run_rejects_out_of_range_scripted_shifts() {
        let mut cfg = small_cfg(SchedulerKind::Harmony);
        cfg.comp_shifts = vec![crate::config::CompShift {
            job: 7,
            at_iteration: 1,
            factor: 2.0,
        }];
        let err = Driver::try_run(cfg, two_complementary(), vec![0.0, 0.0])
            .expect_err("out-of-range comp shift must be an error");
        assert!(err.contains("comp shift names job 7"), "{err}");

        let mut cfg = small_cfg(SchedulerKind::Harmony);
        cfg.push_densities = vec![crate::config::PushDensity {
            job: 9,
            density: 0.5,
        }];
        let err = Driver::try_run(cfg, two_complementary(), vec![0.0, 0.0])
            .expect_err("out-of-range push density must be an error");
        assert!(err.contains("push density names job 9"), "{err}");
    }

    #[test]
    fn try_run_matches_run_on_a_valid_request() {
        let a = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        let b = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        )
        .expect("valid request");
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }
}
