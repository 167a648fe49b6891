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
//! - `exec` — a group's own subtask loop (fluid catch-up, dispatch,
//!   subtask and iteration completion) and its lookahead;
//! - `resched` — reschedule triggers, the coalescing window, the full
//!   and release passes, applying outcomes and regroup decisions, and
//!   the one function that times scheduler work;
//! - `faults` — MTBF failures and plan-driven crash / slowdown / abort;
//! - `baselines` — the Isolated and Naive schedulers.

// The sibling files start with `use super::*`: what several of them
// need is imported here once.
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use harmony_core::discipline::{Lane, Slot, Start};
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
use crate::groupmem::{MemBooks, MemoryParams};
use crate::idset::IdSet;
use crate::noise::BarrierTable;
use crate::report::{JobOutcome, PredictionSample, ReschedReason, RunReport};
use crate::runtime::{Crossing, ExecPhase, GroupSim, JobSim, Phase, SimJobState};
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

use exec::{ExecEnv, ExecScratch, GroupBounds, GroupStep};
use faults::next_failure_gap;
use resched::CoalesceWindow;

#[cfg(test)]
thread_local! {
    /// Runs each round of group advances in reverse index order (the
    /// order-independence test).
    static GROUP_ORDER_REVERSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether [`Driver::advance_groups`] walks its rounds backwards: only
/// ever in tests, which show the order makes no difference.
fn group_order_reversed() -> bool {
    #[cfg(test)]
    return GROUP_ORDER_REVERSED.get();
    #[cfg(not(test))]
    false
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

/// A global event: one that may touch more than one group. Everything
/// inside a group — completions, dispatches, input loads — runs on the
/// group's own clock instead ([`exec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival(usize),
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
    /// One entry per group slot: what the rounds of
    /// [`Self::advance_groups`] read of each group.
    bounds: Vec<GroupBounds>,
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
    /// The instant the driver has handled everything up to; every alive
    /// group's clock sits here whenever the driver mutates state.
    now: f64,
    /// The global events: arrivals, faults, failures, migrations,
    /// coalescing flushes and naive packing rounds.
    events: EventQueue<(Time, u64, EventKind)>,
    event_seq: u64,
    /// The straggler quantile of `straggler_cv`; `None` without noise.
    noise: Option<Arc<BarrierTable>>,
    /// The next utilization sample not summed yet. Samples run every
    /// `utilization_sample_secs` from `t = 0` for as long as a job is
    /// live; groups record their share of each as they pass it.
    next_sample: f64,
    /// The first sample instant past `max_sim_seconds`, where a runaway
    /// run ends at the latest (found when first needed).
    sample_cap: Option<f64>,
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
    /// Scratch arena: alive-group id snapshots for fault targeting.
    scratch_groups: Vec<usize>,
    /// Scratch arena: alive-group id snapshot of one round of group
    /// advances.
    scratch_round: Vec<usize>,
    /// Scratch arena: the buffers of the groups' subtask loops.
    exec_scratch: ExecScratch,
    /// Scratch arena: notifications raised by one instant's crossings.
    scratch_notes: Vec<Notify>,
    /// Scratch arena: one group's crossings while they are applied.
    scratch_crossings: Vec<Crossing>,
    /// Persistent reschedule buffers (ordering, profiles, core scratch).
    sched_scratch: SimSchedScratch,
    /// Open-loop admission policy ([`Driver::run_open_loop`]); `None`
    /// in closed-loop runs, where every arrival dispatches directly.
    admission: Option<Box<dyn AdmissionPolicy>>,
    /// The coalescing window of [`SimConfig::coalesced_passes`]
    /// (always closed with the mode off).
    coalesce: CoalesceWindow,
    /// The report under construction: every accumulator the run feeds
    /// is written in place (a group's own ones when it dissolves);
    /// [`Self::finalize`] fills in what only the end of the run knows
    /// (makespan, per-job outcomes).
    report: RunReport,
    /// Iteration wall times across all jobs; their mean becomes
    /// [`RunReport::mean_group_iteration`].
    iter_wall: OnlineStats,
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
            noise: (cfg.straggler_cv > 0.0).then(|| BarrierTable::shared(cfg.straggler_cv)),
            scheduler: Scheduler::new(cfg.scheduler_config),
            regrouper: Regrouper::new(Scheduler::new(cfg.scheduler_config)),
            oracle: OracleScheduler::new(cfg.scheduler_config),
            free_machines: cfg.machines,
            mem,
            events: EventQueue::new(),
            cfg,
            jobs: Vec::new(),
            groups: Vec::new(),
            bounds: Vec::new(),
            arrived_live: IdSet::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            alive: IdSet::new(),
            now: 0.0,
            event_seq: 0,
            next_sample: 0.0,
            sample_cap: None,
            bootstrapped: false,
            naive_form_scheduled: false,
            isolated_queue: VecDeque::new(),
            dead_jobs: 0,
            active_scheduled: 0,
            scratch_members: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_round: Vec::new(),
            exec_scratch: ExecScratch::default(),
            scratch_notes: Vec::new(),
            scratch_crossings: Vec::new(),
            sched_scratch: SimSchedScratch::default(),
            admission: None,
            coalesce: CoalesceWindow::default(),
            report: RunReport::empty(),
            iter_wall: OnlineStats::new(),
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

    /// Debug cross-check, run after every event: every member still
    /// loading (`Idle` with a ready time ahead) has its `(ready_at
    /// bits, job)` entry in its group's [`GroupSim::ready_heap`], so the
    /// group's next-event lookup, which consults only the heap, misses
    /// no load.
    fn ready_heaps_cover_loading_members(&self) -> bool {
        self.groups.iter().flatten().all(|grp| {
            let queued: HashSet<(u64, usize)> = grp.ready_heap.iter().map(|e| e.0).collect();
            grp.jobs.iter().all(|&j| match self.jobs[j].exec {
                ExecPhase::Idle { ready_at } if ready_at > self.now => {
                    queued.contains(&(ready_at.to_bits(), j))
                }
                _ => true,
            })
        })
    }

    /// Debug cross-check, run after every event: in every group, each
    /// lane's busy slots are its `Fluid`'s tasks, and the members whose
    /// `exec` is `Running` hold exactly those slots, one each, in their
    /// phase's lane.
    fn slots_match_running_members(&self) -> bool {
        self.groups.iter().flatten().all(|grp| {
            let mut held = HashSet::new();
            let members_hold = grp.jobs.iter().all(|&j| match self.jobs[j].exec {
                ExecPhase::Running(phase, slot) => {
                    phase.lane() == slot.lane && grp.lanes.is_busy(slot) && held.insert(slot)
                }
                _ => true,
            });
            let (cpu, net) = (grp.lanes.running(Lane::Cpu), grp.lanes.running(Lane::Net));
            members_hold && (cpu, net) == (grp.cpu.len(), grp.net.len()) && held.len() == cpu + net
        })
    }

    /// Debug cross-check, run after every event: each alive group's
    /// memory books equal a fresh integer fold over its members, so no
    /// write of an α, a model-spill flag or a membership missed them.
    fn group_books_match_fold(&self) -> bool {
        self.groups.iter().flatten().all(|grp| {
            grp.books == MemBooks::fold(grp.jobs.iter().map(|&j| self.jobs[j].holding()))
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

    /// The run loop. Each turn finds the next global event, lets every
    /// group run its own subtask loop towards it ([`Self::advance_groups`])
    /// and then handles what the turn ended at: the boundary crossings
    /// of one instant, or the global event.
    ///
    /// **Order at one instant `t`.** First every group's internal
    /// events at `t`; then the utilization samples at `t`; then the
    /// crossings at `t` in group-index order (within a group, in the
    /// order they happened), followed by the notifications they raised,
    /// in that order; then the global events at `t`, in the order they
    /// were pushed.
    fn event_loop(&mut self) {
        let loop_t0 = Instant::now();
        self.events.start();
        let mut notes = std::mem::take(&mut self.scratch_notes);
        while self.live_jobs() > 0 {
            let head = self.events.peek();
            let mut until = head.map_or(f64::INFINITY, |(Time(t), ..)| t);
            if until > self.cfg.max_sim_seconds {
                until = until.min(self.sample_cap());
            }
            let crossed = self.advance_groups(until);
            let t = crossed.unwrap_or(until);
            if !self.take_samples(t) {
                break;
            }
            if crossed.is_some() {
                self.advance_now(t);
                self.apply_crossings(&mut notes);
                self.handle_notifications(&mut notes);
            } else {
                // `until` is the head's time: had it been the sample
                // cap, the samples would have ended the run.
                let Some((Time(t), _, kind)) = head else {
                    unreachable!("the sample cap ends the run");
                };
                self.advance_now(t);
                if self.run_is_over(t) {
                    break;
                }
                self.events.pop();
                self.on_event(kind);
            }
            self.debug_check_state();
        }
        self.scratch_notes = notes;
        // Everything the loop spent outside scheduling decisions is
        // event-path time (fluid advancement, queue churn, memory).
        self.report.event_wall = loop_t0.elapsed().saturating_sub(self.report.sched_wall);
    }

    fn on_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival(j) => self.on_arrival(j),
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
    }

    /// Runs group `g`'s [`GroupStep`] through `f`: the group's own
    /// state, the job table and the read-only environment, borrowed
    /// apart from the rest of the driver.
    fn with_group<R>(&mut self, g: usize, f: impl FnOnce(&mut GroupStep<'_>) -> R) -> R {
        let mut grp = self.groups[g].take().expect("alive group");
        let env = ExecEnv {
            cfg: &self.cfg,
            mem: &self.mem,
            noise: self.noise.as_deref(),
        };
        let r = f(&mut GroupStep {
            env,
            grp: &mut grp,
            bounds: &mut self.bounds[g],
            jobs: &mut self.jobs,
            scratch: &mut self.exec_scratch,
        });
        self.groups[g] = Some(grp);
        r
    }

    /// Lets every alive group run its own subtask loop towards `until`
    /// and returns once no group has an internal event left before the
    /// instant the turn ends at: the instant of the earliest boundary
    /// crossing (returned), or `until`.
    ///
    /// Conservative lookahead, in rounds. No group can cross before its
    /// bound — the later of its lookahead ([`GroupBounds::lookahead`]) and
    /// its next internal event, since crossings happen at events. In a
    /// round, each group whose next event is due runs up to the
    /// smallest bound among the *other* groups (and `until`), stopping
    /// after its own first crossing. So every crossing of a round
    /// happens at one instant `T`, no group has run past `T`, and those
    /// with events left before `T` are run up to it. The group with the
    /// smallest bound can always run to its next event, so every round
    /// makes progress.
    ///
    /// A group's advance touches only its own state, so the order the
    /// groups of a round run in does not matter; groups with nothing due
    /// are not touched at all.
    fn advance_groups(&mut self, until: f64) -> Option<f64> {
        let mut due = std::mem::take(&mut self.scratch_round);
        let crossed = loop {
            // The smallest and second-smallest bound, and whose; and
            // the groups with an event due by `until`.
            let (mut first, mut first_g, mut second) = (f64::INFINITY, usize::MAX, f64::INFINITY);
            due.clear();
            for i in 0..self.alive.len() {
                let g = self.alive.get(i);
                if !self.bounds[g].valid {
                    self.with_group(g, |s| s.refresh());
                }
                let b = self.bounds[g];
                if b.next_event <= until {
                    due.push(g);
                }
                let bound = b.lookahead.max(b.next_event);
                if bound < first {
                    second = first;
                    (first, first_g) = (bound, g);
                } else if bound < second {
                    second = bound;
                }
            }
            if due.is_empty() {
                break None;
            }
            if group_order_reversed() {
                due.reverse();
            }
            let mut crossed = None;
            for &g in &due {
                let horizon = until.min(if g == first_g { second } else { first });
                if self.bounds[g].next_event > horizon {
                    continue;
                }
                if self.with_group(g, |s| s.advance(horizon)) {
                    let at = self.groups[g].as_ref().expect("alive").clock;
                    debug_assert!(
                        crossed.is_none_or(|t| t == at),
                        "crossings apart in a round"
                    );
                    crossed = Some(at);
                }
            }
            if let Some(t) = crossed {
                for &g in &due {
                    if self.bounds[g].next_event <= t {
                        self.with_group(g, |s| s.advance(t));
                    }
                }
                break Some(t);
            }
        };
        self.scratch_round = due;
        crossed
    }

    /// Brings resting group `g` up to `now`, so the driver can change
    /// it ([`GroupStep::touch`]): every handler calls this before it
    /// changes a group's members, slots, machines or subtasks.
    fn touch(&mut self, g: usize) {
        let now = self.now;
        if self.groups.get(g).is_some_and(Option::is_some) {
            self.with_group(g, |s| s.touch(now));
        }
    }

    /// Applies the crossings the groups recorded at `now` — right after
    /// [`Self::advance_groups`] returned that instant — in group-index
    /// order, into what the rest of the driver sees:
    /// counters, terminal states, checkpoint writes, prediction
    /// samples, notifications. A group its crossings emptied dissolves.
    fn apply_crossings(&mut self, notes: &mut Vec<Notify>) {
        // Only the groups the last round ran can have crossed.
        let mut order = std::mem::take(&mut self.scratch_round);
        order.retain(|&g| !self.groups[g].as_ref().expect("alive").crossings.is_empty());
        order.sort_unstable();
        let mut crossings = std::mem::take(&mut self.scratch_crossings);
        for &g in &order {
            let grp = self.groups[g].as_mut().expect("alive");
            std::mem::swap(&mut grp.crossings, &mut crossings);
            let emptied = grp.jobs.is_empty();
            for c in crossings.drain(..) {
                match c {
                    Crossing::Profiled(j) => notes.push(Notify::Profiled(j)),
                    Crossing::Drifted(j) => notes.push(Notify::Drifted(j)),
                    Crossing::Finished { job, prediction } => {
                        self.report.predictions.extend(prediction);
                        self.active_scheduled -= 1;
                        self.set_terminal(job, SimJobState::Finished, self.now);
                        notes.push(Notify::Finished { job, group: g });
                    }
                    Crossing::Paused {
                        job,
                        prediction,
                        checkpoint_write,
                    } => {
                        self.report.predictions.extend(prediction);
                        self.active_scheduled -= 1;
                        if let Some(write) = checkpoint_write {
                            self.push_event(self.now + write, EventKind::Migrate(job));
                        }
                    }
                }
            }
            if emptied {
                self.dissolve_group(g);
            }
        }
        self.scratch_crossings = crossings;
        self.scratch_round = order;
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

    /// The first sample instant past `max_sim_seconds`: the sample
    /// sequence is fixed, so walking it from any of its points finds
    /// the same one.
    fn sample_cap(&mut self) -> f64 {
        let (mut s, period, max) = (
            self.next_sample,
            self.cfg.utilization_sample_secs,
            self.cfg.max_sim_seconds,
        );
        *self.sample_cap.get_or_insert_with(|| {
            while s <= max {
                s += period;
            }
            s
        })
    }

    /// Records every utilization sample due at or before `through`,
    /// where every alive group sits: each is the sum, in group-index
    /// order, of the `(cpu, net)` usage × machines the groups recorded
    /// as they passed it, over the usable machines and capped at 1, and
    /// the number of live jobs attached to a group. Returns whether the
    /// run goes on.
    fn take_samples(&mut self, through: f64) -> bool {
        while self.next_sample <= through {
            let s = self.next_sample;
            self.advance_now(s);
            if self.run_is_over(s) {
                return false;
            }
            let total = f64::from(self.available_machines().max(1));
            let (mut cpu, mut net) = (0.0, 0.0);
            let period = self.cfg.utilization_sample_secs;
            for g in self.alive.iter() {
                let b = &mut self.bounds[g];
                let (c, n) = if b.next_sample > s {
                    // The group passed `s` while it ran.
                    let grp = self.groups[g].as_mut().expect("alive");
                    grp.samples.pop_front().expect("a group skipped a sample")
                } else {
                    // It rested through `s`.
                    b.next_sample += period;
                    b.usage
                };
                cpu += c;
                net += n;
            }
            self.report.cpu_timeline.record(s, (cpu / total).min(1.0));
            self.report.net_timeline.record(s, (net / total).min(1.0));
            if self.active_scheduled > 0 {
                self.report
                    .concurrent_jobs
                    .observe(self.active_scheduled as f64);
            }
            self.next_sample = s + period;
        }
        true
    }

    /// Debug cross-check, run after every event: no alive group is
    /// ahead of `now` or has an internal event left before it, and
    /// every crossing has been applied.
    fn groups_are_caught_up(&self) -> bool {
        self.groups.iter().flatten().all(|grp| {
            let b = &self.bounds[grp.id];
            grp.clock <= self.now
                && (!b.valid || b.next_event > self.now)
                && grp.crossings.is_empty()
        })
    }

    /// Debug cross-checks, run after every event.
    fn debug_check_state(&self) {
        // A full walk on purpose.
        debug_assert_eq!(
            self.active_scheduled,
            self.jobs
                .iter()
                .filter(|j| j.group.is_some() && j.is_live())
                .count(),
            "active-scheduled counter out of sync"
        );
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
        debug_assert!(
            self.ready_heaps_cover_loading_members(),
            "a loading member has no entry in its group's ready heap at t={}",
            self.now
        );
        debug_assert!(
            self.slots_match_running_members(),
            "a group's slots disagree with its fluids or running members at t={}",
            self.now
        );
        debug_assert!(
            self.group_books_match_fold(),
            "a group's memory books differ from the fold over its members at t={}",
            self.now
        );
        debug_assert!(
            self.groups_are_caught_up(),
            "a group is ahead of t={}, behind on its events, or holds unapplied crossings",
            self.now
        );
    }

    /// Ids of alive groups, without materializing a vector. Callers
    /// that mutate the group table while iterating snapshot the ids
    /// into [`Self::scratch_groups`] first. A slot whose `GroupSim` is
    /// temporarily taken out is skipped, as the slot scan this
    /// replaced did.
    fn alive_groups(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter().filter(|&g| self.groups[g].is_some())
    }

    /// Machines still usable (configured minus crashed).
    fn available_machines(&self) -> u32 {
        self.cfg.machines.saturating_sub(self.report.machines_lost)
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
                final_alpha: j.alpha(),
            })
            .collect();
        report.scheduler = match self.cfg.scheduler {
            SchedulerKind::Harmony => "harmony".to_string(),
            SchedulerKind::Oracle => "oracle".to_string(),
            SchedulerKind::Isolated => "isolated".to_string(),
            SchedulerKind::Naive { seed, .. } => format!("naive-{seed}"),
        };
        report.mean_group_iteration = self.iter_wall.mean();
        report
    }
}
