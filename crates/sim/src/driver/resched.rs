//! Reschedule triggers and passes: when Algorithm 1 (or the
//! regrouper's targeted ladder) runs, over which profiles, and how its
//! answer is applied to the running groups.

use harmony_core::cluster::MachineId;
use harmony_core::group::{Grouping, JobGroup};
use harmony_core::keyed::{splitmix64, GOLDEN_GAMMA};
use harmony_core::profile::ProfileStore;
use harmony_core::regroup::ClusterView;
use harmony_core::schedule::ScheduleOutcome;

use super::*;

/// The coalescing window of [`SimConfig::coalesced_passes`]: finish
/// passes that would have fired one by one accumulate here and flush
/// as one. A state machine over virtual time only — it says what to
/// do, the driver schedules the expiry event and runs the pass.
#[derive(Debug, Default)]
pub(super) struct CoalesceWindow {
    /// Virtual time the open window started at; `None` when closed.
    opened: Option<f64>,
    /// Finish passes the open window has absorbed.
    batch: usize,
    /// Window generation, stamped into [`EventKind::FlushCoalesce`] so
    /// expiry events of already-flushed windows no-op.
    gen: u64,
}

/// What [`CoalesceWindow::defer`] did with one finish pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Deferred {
    /// The window was closed and opened for this pass: its expiry is
    /// due at `flush_at`, carrying `gen`.
    Opened { flush_at: f64, gen: u64 },
    /// An open window took the pass in.
    Absorbed,
}

impl CoalesceWindow {
    pub(super) fn is_open(&self) -> bool {
        self.opened.is_some()
    }

    /// Takes in one would-have-fired finish pass, opening the window
    /// (for `length` virtual seconds) if none is pending.
    pub(super) fn defer(&mut self, now: f64, length: f64) -> Deferred {
        if self.is_open() {
            self.batch += 1;
            return Deferred::Absorbed;
        }
        self.opened = Some(now);
        self.batch = 1;
        self.gen += 1;
        Deferred::Opened {
            flush_at: now + length,
            gen: self.gen,
        }
    }

    /// Whether the open window has absorbed `cap` passes and must
    /// flush now. A cap of one fills the window as it opens.
    pub(super) fn batch_full(&self, cap: usize) -> bool {
        self.is_open() && self.batch >= cap
    }

    /// Whether the expiry event stamped `gen` belongs to the window
    /// open now — not to one that already flushed (batch cap, or
    /// another full pass subsuming the deferral).
    pub(super) fn expires(&self, gen: u64) -> bool {
        self.is_open() && gen == self.gen
    }

    /// Closes the window, returning how long its deferred pass waited;
    /// `None` when it was not open.
    pub(super) fn close(&mut self, now: f64) -> Option<f64> {
        self.batch = 0;
        self.opened.take().map(|opened| now - opened)
    }
}

/// Deterministic per-(seed, job, component) relative error in
/// `[-amplitude, +amplitude]`, fixed for a whole run (splitmix64 hash).
fn persistent_error(seed: u64, job: u64, component: u64, amplitude: f64) -> f64 {
    let z = splitmix64(
        seed.wrapping_mul(GOLDEN_GAMMA)
            .wrapping_add(job.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(component.wrapping_mul(0x94D0_49BB_1331_11EB)),
    );
    let unit = z as f64 / u64::MAX as f64; // [0, 1]
    (unit * 2.0 - 1.0) * amplitude
}

/// The running groups among `alive` as the regrouper sees them, and
/// the machines the profiling hosts hold back. Machines get abstract ids by running offset, as `Scheduler`
/// numbers its outcomes: the regrouper reads only how many a group
/// holds, and ids derived from the slot index would collide or
/// overflow once groups or slot counts grow large.
pub(super) fn running_grouping<'a>(alive: impl Iterator<Item = &'a GroupSim>) -> (Grouping, u32) {
    let mut grouping = Grouping::new();
    let mut profiling_held = 0u32;
    let mut next_machine = 0u32;
    for grp in alive {
        if grp.profiling_host {
            profiling_held += grp.machines;
            continue;
        }
        let jobs: Vec<JobId> = grp.jobs.iter().map(|&j| JobId::new(j as u64)).collect();
        let machines: Vec<MachineId> = (next_machine..next_machine + grp.machines)
            .map(MachineId::new)
            .collect();
        next_machine += grp.machines;
        grouping.push(JobGroup::new(GroupId::new(grp.id as u32), jobs, machines));
    }
    (grouping, profiling_held)
}

impl Driver {
    /// The one place scheduler work is timed and counted: runs `query`
    /// and books its wall time as [`RunReport::sched_wall`]; a query
    /// that `decides` placement also counts as an invocation (pricing
    /// an arrival places nothing, so the canonical decision count stays
    /// comparable across admission arms).
    pub(super) fn timed_query<T>(
        &mut self,
        decides: bool,
        query: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let t0 = Instant::now();
        let answer = query(self);
        self.report.sched_wall += t0.elapsed();
        self.report.sched_invocations += usize::from(decides);
        answer
    }

    /// Asks the regrouper for a targeted decision over the current
    /// cluster view and the warm profiles.
    pub(super) fn regroup(
        &mut self,
        ask: impl FnOnce(&mut Regrouper, &ClusterView, &ProfileStore) -> RegroupDecision,
    ) -> RegroupDecision {
        let view = self.cluster_view();
        let store = self.profile_store();
        self.timed_query(true, |d| ask(&mut d.regrouper, &view, &store))
    }

    /// Job `j`'s warm profile as the scheduler gets to see it: the
    /// measured one, or under [`SimConfig::error_injection`] one biased
    /// by a persistent per-job error (Figure 13a simulates a *model*
    /// with a given error level, so a job's bias must not average out
    /// across decisions).
    pub(super) fn scheduler_view_of(&self, j: usize) -> JobProfile {
        let p = &self.jobs[j].profile;
        let inject = self.cfg.error_injection;
        if inject <= 0.0 {
            return p.clone();
        }
        let e1 = persistent_error(self.cfg.seed, j as u64, 0, inject);
        let e2 = persistent_error(self.cfg.seed, j as u64, 1, inject);
        let mut q = JobProfile::from_reference(
            p.job(),
            (p.tcpu_at(1) * (1.0 + e1)).max(1e-6),
            (p.tnet() * (1.0 + e2)).max(1e-6),
        );
        q.set_memory_footprint(p.input_bytes(), p.model_bytes());
        q
    }

    pub(super) fn profile_store(&self) -> ProfileStore {
        let mut store = ProfileStore::new();
        for j in self.arrived_live.iter() {
            if self.jobs[j].profile.is_warm() {
                store.insert(self.scheduler_view_of(j));
            }
        }
        store
    }

    /// Fills `profiles` with the scheduler's view of the arrived
    /// jobs in `states`, class by class in the given order (Algorithm
    /// 1's J_profiled ∪ J_paused ∪ J_running) and, within a class,
    /// shortest predicted remaining time first, so the incremental
    /// prefix favors quick jobs (the paper's preference for shorter
    /// JCTs). The scheduler sees warm profiles only.
    pub(super) fn gather_ordered(
        &self,
        states: &[SimJobState],
        class: &mut Vec<(f64, usize)>,
        profiles: &mut Vec<JobProfile>,
    ) {
        profiles.clear();
        for &state in states {
            self.class_ordered(state, class);
            let warm = class
                .iter()
                .filter(|&&(_, j)| self.jobs[j].profile.is_warm());
            profiles.extend(warm.map(|&(_, j)| self.scheduler_view_of(j)));
        }
    }

    /// Fills `class` with the arrived jobs in `state` as `(key, id)`,
    /// shortest predicted remaining time first (cold profiles last,
    /// ties by id). Each key is computed once, not per comparison; ids
    /// are unique, so the order is strict and any sort yields it.
    fn class_ordered(&self, state: SimJobState, class: &mut Vec<(f64, usize)>) {
        class.clear();
        class.extend(self.in_state(state).map(|j| {
            let p = &self.jobs[j].profile;
            let key = if p.is_warm() {
                p.iter_time_at(16) * self.jobs[j].iterations_left() as f64
            } else {
                f64::MAX
            };
            (key, j)
        }));
        class.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    }

    /// A group still hosting at least one actively-profiling member.
    pub(super) fn group_is_actively_profiling(&self, g: usize) -> bool {
        self.groups[g].as_ref().is_some_and(|grp| {
            grp.profiling_host
                && grp
                    .jobs
                    .iter()
                    .any(|&j| self.jobs[j].state == SimJobState::Profiling)
        })
    }

    pub(super) fn cluster_view(&self) -> ClusterView {
        let alive = self
            .alive_groups()
            .map(|g| self.groups[g].as_deref().expect("alive"));
        let (grouping, profiling_held) = running_grouping(alive);
        ClusterView {
            machines: self.available_machines().saturating_sub(profiling_held),
            grouping,
            profiled: self.jobs_in_state(SimJobState::Profiled),
            paused: self.jobs_in_state(SimJobState::Paused),
        }
    }

    pub(super) fn on_profiled_harmony(&mut self, j: usize) {
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
        let decision =
            self.regroup(|r, view, store| r.on_job_profiled(view, store, JobId::new(j as u64)));
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
    pub(super) fn on_drifted_harmony(&mut self, j: usize) {
        if self.cfg.live_migration
            && self.jobs[j].is_live()
            && self.jobs[j].state == SimJobState::Running
            && self.jobs[j].group.is_some()
        {
            self.jobs[j].pause_requested = true;
            self.jobs[j].migrate_mark = Some(self.now);
            let g = self.jobs[j].group.expect("checked above");
            // The pause is a crossing one iteration away.
            self.bounds[g].valid = false;
            let created = self.groups[g].as_ref().expect("alive").created_at;
            self.jobs[j].migrate_origin = Some((g, created));
            self.report
                .live_migration
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
    pub(super) fn on_migrate_ready(&mut self, j: usize) {
        if !self.jobs[j].is_live()
            || self.jobs[j].state != SimJobState::Paused
            || self.jobs[j].group.is_some()
            || self.jobs[j].migrate_mark.is_none()
        {
            return;
        }
        let decision =
            self.regroup(|r, view, store| r.on_job_profiled(view, store, JobId::new(j as u64)));
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

    pub(super) fn on_finished_harmony(&mut self, j: usize, g: usize) {
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
    /// job's slot in its still-alive group, and escalate when it
    /// cannot — unless the backlog already mandates a full pass
    /// ([`SimConfig::waiting_reschedule_threshold`]). A backfill fails
    /// without moving anyone, so that pass follows this finish (the
    /// exact arm runs it now, the coalesced arm at its window flush)
    /// and rebuilds every group the ladder would have re-formed.
    pub(super) fn finished_replacement_decision(&mut self, j: usize, g: usize) {
        let (it, ratio) = self.departed_shape(&self.jobs[j].profile, g);
        let group = GroupId::new(g as u32);
        let ladder = self.waiting_count() < self.cfg.waiting_reschedule_threshold;
        let decision = self.regroup(|r, view, store| {
            r.replace_departed(view, store, it, ratio, group)
                .or_else(|| ladder.then(|| r.escalate(view, store, group)))
                .unwrap_or(RegroupDecision::NoChange)
        });
        self.apply_decision(decision);
    }

    /// Iteration time and COMP/COMM ratio of a job that just left the
    /// alive group `g` (finished or aborted), at that group's DoP — what
    /// the regrouper matches replacements against. A cold profile reads
    /// as a unit job.
    pub(super) fn departed_shape(&self, profile: &JobProfile, g: usize) -> (f64, f64) {
        let dop = self.groups[g].as_ref().expect("alive").machines.max(1);
        if profile.is_warm() {
            (profile.iter_time_at(dop), profile.comp_comm_ratio_at(dop))
        } else {
            (1.0, 1.0)
        }
    }

    pub(super) fn apply_decision(&mut self, decision: RegroupDecision) {
        match decision {
            RegroupDecision::NoChange => {}
            RegroupDecision::AddToGroup { job, group } => {
                self.add_to_group(group, std::iter::once(job));
            }
            RegroupDecision::ReplaceFinished { group, add } => self.add_to_group(group, add),
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

    /// Moves `add` into the running group `group` and snapshots the
    /// grouping; a no-op when the group is gone by now.
    fn add_to_group(&mut self, group: GroupId, add: impl IntoIterator<Item = JobId>) {
        let g = group.index() as usize;
        if self.groups.get(g).is_some_and(Option::is_some) {
            for job in add {
                self.place_in_group(g, job.index() as usize, true);
            }
            self.record_snapshot();
        }
    }

    /// Makes job `j` a running member of group `g`, wherever it sat
    /// before (it may still be in a profiling group), and pins its
    /// drift basis to the estimates this decision was computed with (a
    /// no-op while the profile is cold). `replan` as for
    /// [`Self::attach_job_with_replan`].
    fn place_in_group(&mut self, g: usize, j: usize, replan: bool) {
        self.detach_job(j);
        self.jobs[j].state = SimJobState::Running;
        self.attach_job_with_replan(g, j, false, replan);
        if self.cfg.profile_feedback {
            self.jobs[j].profile.mark_scheduled();
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
    pub(super) fn on_finished_coalesced(&mut self, j: usize, g: usize) {
        self.report.coalesced_finishes += 1;
        if self.groups.get(g).is_none_or(|x| x.is_none()) {
            if self.waiting_count() > 0 {
                if self.free_machines > 0 {
                    self.release_pass();
                }
                self.defer_finish_pass();
            }
            return;
        }
        if self.coalesce.is_open() {
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
    /// coalescing window, opening one if none is pending, and flushes
    /// at the batch cap.
    pub(super) fn defer_finish_pass(&mut self) {
        if let Deferred::Opened { flush_at, gen } =
            self.coalesce.defer(self.now, self.cfg.coalesce_window)
        {
            self.report.coalesce_windows += 1;
            self.push_event(flush_at, EventKind::FlushCoalesce(gen));
        }
        if self.coalesce.batch_full(self.cfg.coalesce_max_batch) {
            self.reschedule_because(ReschedReason::WindowFlush);
        }
    }

    /// A coalescing window's expiry event fired.
    pub(super) fn on_flush_coalesce(&mut self, gen: u64) {
        if self.coalesce.expires(gen) {
            self.reschedule_because(ReschedReason::WindowFlush);
        }
    }

    /// Closes an open coalescing window because a full pass is about
    /// to run: whatever pass fires now subsumes the deferred finish
    /// pass, so the window's pending flush becomes a stale no-op and
    /// the deferral's staleness is recorded. Free when the mode is
    /// off: the window is always closed.
    pub(super) fn close_coalesce_window(&mut self) {
        if let Some(waited) = self.coalesce.close(self.now) {
            self.report.coalesce_staleness.observe(waited);
        }
    }

    /// Counts and runs a cluster-wide pass for `reason`: every full
    /// reschedule trigger goes through here, so the report's
    /// [`ReschedCounters`] show *why* passes fire — and any open
    /// coalescing window closes, subsumed by this pass.
    pub(super) fn reschedule_because(&mut self, reason: ReschedReason) {
        self.close_coalesce_window();
        self.report.resched_reasons.bump(reason);
        self.full_reschedule();
    }

    /// The recurring "work is waiting, re-run Algorithm 1" guard that
    /// used to be copy-pasted at every trigger site.
    pub(super) fn reschedule_if_waiting(&mut self, reason: ReschedReason) {
        if self.waiting_count() > 0 {
            self.reschedule_because(reason);
        }
    }

    /// The backlog-threshold guard
    /// ([`SimConfig::waiting_reschedule_threshold`]): incremental
    /// decisions handle onesie arrivals, a crossed threshold escalates
    /// to a cluster-wide pass.
    pub(super) fn reschedule_on_backlog(&mut self, reason: ReschedReason) {
        if self.waiting_count() >= self.cfg.waiting_reschedule_threshold {
            self.reschedule_because(reason);
        }
    }

    /// Runs Algorithm 1 (or the oracle) over all schedulable jobs and
    /// rebuilds every non-profiling group. Fed from the persistent
    /// [`SimSchedScratch`]: no fresh ordering or profile vectors, and
    /// the core scheduler's derived arrays are carried across
    /// invocations ([`Scheduler::schedule_reusing`]).
    pub(super) fn full_reschedule(&mut self) {
        const CLASSES: [SimJobState; 3] = [
            SimJobState::Profiled,
            SimJobState::Paused,
            SimJobState::Running,
        ];
        let mut ss = std::mem::take(&mut self.sched_scratch);
        self.gather_ordered(&CLASSES, &mut ss.class, &mut ss.full.profiles);
        let profiling_held: u32 = self
            .alive_groups()
            .filter(|&g| self.group_is_actively_profiling(g))
            .map(|g| self.groups[g].as_ref().expect("alive").machines)
            .sum();
        let machines = self.available_machines().saturating_sub(profiling_held);
        if ss.full.profiles.is_empty() || machines == 0 {
            self.sched_scratch = ss;
            return;
        }
        let buf = &mut ss.full;
        let outcome = self.timed_query(true, |d| match d.cfg.scheduler {
            SchedulerKind::Oracle => {
                assert!(
                    buf.profiles.len() <= OracleScheduler::MAX_JOBS,
                    "oracle runs are limited to {} jobs",
                    OracleScheduler::MAX_JOBS
                );
                d.oracle.schedule(&buf.profiles, machines)
            }
            _ => d.scheduler.schedule_reusing(
                &buf.profiles,
                machines,
                &mut buf.cache,
                &mut buf.scratch,
            ),
        });
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
    /// fed from dedicated persistent buffers so the full pass's cache
    /// never sees release-only churn. Harmony kind only — the oracle
    /// has no cheap targeted variant, so its coalesced mode is
    /// window-only.
    pub(super) fn release_pass(&mut self) {
        if !matches!(self.cfg.scheduler, SchedulerKind::Harmony) {
            return;
        }
        let machines = self.free_machines;
        if machines == 0 {
            return;
        }
        let mut ss = std::mem::take(&mut self.sched_scratch);
        let waiting = [SimJobState::Profiled, SimJobState::Paused];
        self.gather_ordered(&waiting, &mut ss.class, &mut ss.release.profiles);
        if ss.release.profiles.is_empty() {
            self.sched_scratch = ss;
            return;
        }
        let buf = &mut ss.release;
        let outcome = self.timed_query(true, |d| {
            d.scheduler
                .schedule_release(&buf.profiles, machines, &mut buf.cache, &mut buf.scratch)
        });
        self.report.release_passes += 1;
        self.sched_scratch = ss;
        // No groups are involved: the pass only *adds* groups over the
        // free pool (`apply_outcome` skips anything it cannot fund).
        self.apply_outcome(&outcome, &[]);
    }

    /// Replaces `involved` groups with the groups of `outcome`.
    pub(super) fn apply_outcome(&mut self, outcome: &ScheduleOutcome, involved: &[usize]) {
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
        for &g in &involved {
            self.teardown_group(g);
        }

        // Build the new groups.
        for (gi, core_group) in outcome.grouping.groups().iter().enumerate() {
            let m = core_group.dop();
            if m == 0 || m > self.free_machines {
                continue;
            }
            let predicted_it = outcome.predicted_iteration.get(gi).copied();
            let util = outcome.utilization;
            // Predictions are armed only after the founding members are
            // attached, so population itself does not finalize them.
            let g = self.create_group(m, false);
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
                    self.report.migrations += 1;
                }
                // One memory plan for the whole build, below.
                self.place_in_group(g, j, false);
            }
            self.finish_group_build(g);
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
}
