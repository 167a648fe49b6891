//! The simulation driver: events, scheduling policies, and the full run
//! loop.
//!
//! One [`Driver::run`] call executes a complete workload — arrivals,
//! profiling, scheduling, subtask execution, memory management,
//! regrouping, completion — under one [`SchedulerKind`] and returns a
//! [`RunReport`].
//!
//! This file holds the driver's state, the `run*` entries and the
//! event loop; the handlers the loop dispatches to are `impl Driver`
//! blocks in the sibling files, one per concern:
//!
//! - `arrivals` — arrival events, the admission gate and its pricing,
//!   profiling placement;
//! - `groups` — group create / attach / detach / dissolve / teardown
//!   and prediction finalisation;
//! - `memory` — the §IV-C memory re-plan of a group;
//! - `exec` — fluid catch-up, dispatch, wakes, subtask and iteration
//!   completion;
//! - `resched` — reschedule triggers, the coalescing window, the full
//!   and release passes, applying outcomes and regroup decisions, and
//!   the one function that times scheduler work;
//! - `faults` — MTBF failures and plan-driven crash / slowdown / abort;
//! - `baselines` — the Isolated and Naive schedulers.

// The sibling files start with `use super::*`: what several of them
// need is imported here once.
use std::collections::VecDeque;
use std::time::Instant;

use harmony_core::group::GroupId;
use harmony_core::job::JobId;
use harmony_core::oracle::OracleScheduler;
use harmony_core::profile::JobProfile;
use harmony_core::regroup::{RegroupDecision, Regrouper};
use harmony_core::schedule::Scheduler;
use harmony_metrics::OnlineStats;

use crate::admission::AdmissionPolicy;
use crate::config::{ReloadPolicy, SchedulerKind, SimConfig};
use crate::events::EventQueue;
use crate::fluid::TaskKey;
use crate::groupmem::{self, JobFootprint, MemoryParams};
use crate::idset::IdSet;
use crate::noise::Straggler;
use crate::report::{JobOutcome, ReschedReason, RunReport};
use crate::runtime::{ExecPhase, GroupSim, JobSim, Phase, SimJobState};
use crate::schedscratch::SimSchedScratch;
use crate::workload::WorkloadGen;

mod arrivals;
mod baselines;
mod exec;
mod faults;
mod groups;
mod memory;
mod resched;
#[cfg(test)]
mod tests;

use faults::next_failure_gap;
use resched::CoalesceWindow;

/// Member-count floor above which coalesced mode builds and tears down
/// groups with one batched memory re-plan instead of one per member.
/// Below it the per-member path is cheap and keeps the coalesced arm's
/// decision history close to the exact arm's (the tiny-workload
/// acceptance matrix runs entirely under this floor); above it the
/// per-member re-plans make group builds O(k²), which dominated the
/// event wall once windows let groups grow into the hundreds.
const COALESCE_BATCH_BUILD_MIN: usize = 32;

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
    /// One slot per group ever created; boxed, so taking a group out
    /// to work on it and putting it back moves a pointer, and a
    /// dissolved slot costs one.
    groups: Vec<Option<Box<GroupSim>>>,
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
    events: EventQueue<(Time, u64, EventKind)>,
    /// The one pending utilization sample, keyed like a queued event:
    /// its `seq` comes from `event_seq`, so the loop takes slot and
    /// queue in the same `(time, seq)` order as if it were queued.
    /// Armed at `t = 0` and re-armed by every sample while jobs are
    /// live, so the clock always has somewhere to go.
    next_sample: (Time, u64),
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
    /// scans the job table.
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
    /// The coalescing window of [`SimConfig::coalesced_passes`]
    /// (always closed with the mode off).
    coalesce: CoalesceWindow,
    /// Notifications discovered while mutating group state; drained at
    /// the top event loop only, so scheduling never re-enters itself.
    deferred: Vec<Notify>,
    /// The report under construction: every accumulator the run feeds
    /// is written in place; [`Self::finalize`] fills in what only the
    /// end of the run knows (makespan, per-job outcomes).
    report: RunReport,
    /// Iteration wall times across all jobs; their mean becomes
    /// [`RunReport::mean_group_iteration`].
    iter_wall_stats: OnlineStats,
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
            regrouper: Regrouper::new(Scheduler::new(cfg.scheduler_config)),
            oracle: OracleScheduler::new(cfg.scheduler_config),
            free_machines: cfg.machines,
            mem,
            events: EventQueue::new(),
            cfg,
            jobs: Vec::new(),
            groups: Vec::new(),
            arrived_live: IdSet::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            alive: IdSet::new(),
            now: 0.0,
            next_sample: (Time(0.0), 0),
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
            sched_scratch: SimSchedScratch::default(),
            admission: None,
            coalesce: CoalesceWindow::default(),
            deferred: Vec::new(),
            report: RunReport::empty(),
            iter_wall_stats: OnlineStats::new(),
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
        d.arm_sample(0.0);
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
        self.events.push((Time(at), self.event_seq, kind));
    }

    /// Sets the pending utilization sample to `at`, drawing its `seq`
    /// as [`Self::push_event`] would.
    fn arm_sample(&mut self, at: f64) {
        self.event_seq += 1;
        self.next_sample = (Time(at), self.event_seq);
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

    /// Debug cross-check, run after every event: every usable machine
    /// is either free or held by exactly one alive group.
    fn machines_are_conserved(&self) -> bool {
        let held: u32 = self.groups.iter().flatten().map(|grp| grp.machines).sum();
        self.free_machines + held == self.available_machines()
    }

    /// Debug cross-check, run after every event: the contract of
    /// [`GroupSim::loading`] — a group with the flag clear has no
    /// `Idle` member, so skipping its promotion scan skips nothing.
    fn loading_flags_cover_idle_members(&self) -> bool {
        self.groups.iter().flatten().all(|grp| {
            let idle = |&j: &usize| matches!(self.jobs[j].exec, ExecPhase::Idle { .. });
            grp.loading || !grp.jobs.iter().any(idle)
        })
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
            self.report.live_migration.cancel();
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
                self.report.admission.withdraw();
            }
        }
        self.jobs[j].state = state;
        self.jobs[j].finish = Some(at);
    }

    fn event_loop(&mut self) {
        let loop_t0 = Instant::now();
        self.events.start();
        loop {
            let (Time(t), _, kind) = match self.events.peek() {
                Some(event) if (event.0, event.1) < self.next_sample => event,
                head => {
                    if self.take_samples(head.map(|(t, seq, _)| (t, seq))) {
                        continue;
                    }
                    break;
                }
            };
            if self.run_is_over(t) {
                break;
            }
            self.events.pop();
            self.advance_now(t);
            match kind {
                EventKind::Arrival(j) => self.on_arrival(j),
                EventKind::Wake { group, gen } => {
                    // This wake left the heap: clear its pending marker
                    // (stale-gen wakes leave newer markers untouched —
                    // the tuple no longer matches).
                    let valid = match self.groups.get_mut(group).and_then(Option::as_mut) {
                        Some(grp) => {
                            if grp.pending_wake == Some((gen, t)) {
                                grp.pending_wake = None;
                            }
                            grp.gen == gen
                        }
                        None => false,
                    };
                    if valid {
                        let mut notes = std::mem::take(&mut self.scratch_notes);
                        self.advance_group(group, &mut notes);
                        self.handle_notifications(&mut notes);
                        notes.clear();
                        self.scratch_notes = notes;
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
            self.debug_check_state();
        }
        // Everything the loop spent outside scheduling decisions is
        // event-path time (fluid advancement, queue churn, memory).
        self.report.event_wall = loop_t0.elapsed().saturating_sub(self.report.sched_wall);
    }

    /// Whether the run ends instead of handling what is due at `t`:
    /// no job is live, or `t` lies past `max_sim_seconds` — a runaway
    /// config, whose remaining work is abandoned as failed at `t`.
    fn run_is_over(&mut self, t: f64) -> bool {
        if self.live_jobs() == 0 {
            return true;
        }
        if t > self.cfg.max_sim_seconds {
            // A full walk: jobs that never arrived fail too.
            for j in 0..self.jobs.len() {
                if self.jobs[j].is_live() {
                    self.set_terminal(j, SimJobState::Failed, t);
                }
            }
            return true;
        }
        false
    }

    /// Records every utilization sample due before the queued event
    /// keyed `until` (all of them up to the end of the run when the
    /// queue is empty), re-arming after each. Nothing changes between
    /// two events, so the samples read one cluster state: its sums are
    /// taken once, and each sample still moves the clock and is
    /// recorded on its own. Returns whether the run goes on.
    fn take_samples(&mut self, until: Option<(Time, u64)>) -> bool {
        let (cpu, net, active) = self.utilization();
        loop {
            let (Time(t), _) = self.next_sample;
            if self.run_is_over(t) {
                return false;
            }
            self.advance_now(t);
            self.report.cpu_timeline.record(self.now, cpu);
            self.report.net_timeline.record(self.now, net);
            if active > 0 {
                self.report.concurrent_jobs.observe(active as f64);
            }
            // The sample re-arms whenever a job is live, so the run
            // never runs out of events while work remains.
            debug_assert!(self.live_jobs() > 0, "a sample re-armed with no job live");
            self.arm_sample(self.now + self.cfg.utilization_sample_secs);
            if until.is_some_and(|head| head < self.next_sample) {
                break;
            }
        }
        self.debug_check_state();
        true
    }

    /// Debug cross-checks, run after every event and every stretch of
    /// samples.
    fn debug_check_state(&self) {
        debug_assert!(
            self.indices_match_scans(),
            "live-job / alive-group index out of sync with its scan"
        );
        debug_assert!(
            self.machines_are_conserved(),
            "free + held machines != available at t={}",
            self.now
        );
        debug_assert!(
            self.loading_flags_cover_idle_members(),
            "an Idle member sits in a group whose loading flag is clear"
        );
    }

    /// Ids of alive groups, without materializing a vector. Callers
    /// that mutate the group table while iterating snapshot the ids
    /// into [`Self::scratch_groups`] first. A slot whose `GroupSim` is
    /// temporarily taken out (e.g. during [`Self::advance_group`]) is
    /// skipped, as the slot scan this replaced did.
    fn alive_groups(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter().filter(|&g| self.groups[g].is_some())
    }

    /// Machines still usable (configured minus crashed).
    fn available_machines(&self) -> u32 {
        self.cfg.machines.saturating_sub(self.report.machines_lost)
    }

    /// What a utilization sample records: cluster CPU and network
    /// utilization (each capped at 1) and the number of live jobs
    /// attached to a group.
    fn utilization(&self) -> (f64, f64, usize) {
        let total = f64::from(self.available_machines().max(1));
        let mut cpu = 0.0;
        let mut net = 0.0;
        for g in self.alive_groups() {
            let grp = self.groups[g].as_ref().expect("alive");
            let mf = f64::from(grp.machines);
            cpu += grp.cpu.usage() * mf;
            net += grp.net.usage() * mf;
        }
        // Debug cross-check of the counter (a full walk on purpose).
        debug_assert_eq!(
            self.active_scheduled,
            self.jobs
                .iter()
                .filter(|j| j.group.is_some() && j.is_live())
                .count(),
            "active-scheduled counter out of sync"
        );
        let active = self.active_scheduled;
        ((cpu / total).min(1.0), (net / total).min(1.0), active)
    }

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
                        self.request_naive_form();
                    }
                }
            }
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

    fn finalize(mut self) -> RunReport {
        // A window still open at run end only records its staleness —
        // there is nothing left to flush into a pass.
        self.close_coalesce_window();
        // Fold surviving groups into the busy totals.
        for g in self.alive_groups().collect::<Vec<_>>() {
            self.dissolve_group(g);
        }
        // Full walks: the report covers every job of the trace.
        let mut report = self.report;
        report.makespan = self
            .jobs
            .iter()
            .filter_map(|j| j.finish)
            .fold(0.0f64, f64::max);
        report.jobs = self
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
        report.scheduler = match self.cfg.scheduler {
            SchedulerKind::Harmony => "harmony".to_string(),
            SchedulerKind::Oracle => "oracle".to_string(),
            SchedulerKind::Isolated => "isolated".to_string(),
            SchedulerKind::Naive { seed, .. } => format!("naive-{seed}"),
        };
        report.mean_group_iteration = self.iter_wall_stats.mean();
        report
    }
}
