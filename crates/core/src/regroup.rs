//! Dynamic job regrouping (§IV-B4).
//!
//! Scheduling is re-triggered when (1) a new job finishes profiling or
//! (2) a running job completes. To bound migration overhead, the
//! regrouper always looks for the decision that moves the fewest jobs:
//!
//! - **Arrival**: the new job is considered only when no other
//!   profiled/paused jobs are queued (their existence means the current
//!   grouping already satisfies Harmony). It joins the existing group
//!   that maximizes cluster utilization `U`, or keeps waiting when no
//!   placement improves `U` by at least the benefit threshold.
//! - **Completion**: the finished job's group must be re-balanced. The
//!   regrouper first looks for one *similar* profiled/paused job (both
//!   iteration time and comp/comm ratio within 5%), then for a *bunch*
//!   of jobs whose summed iteration time and summed-ratio match within
//!   5%, and only then escalates to partial rescheduling over a growing
//!   set of involved groups, preferring decisions that involve fewer
//!   jobs unless a larger decision is ≥ 5% better.
//!
//! The decision paths run incrementally: per-group Eq. 3 terms are
//! frozen once per call and refolded per candidate, and the escalation
//! ladder is skipped outright when the current grouping already
//! saturates the acceptance gate (no candidate can score past
//! `base × (1 + threshold)` when that bound exceeds the provable score
//! ceiling). Both shortcuts are decision-neutral: a refold walks the
//! same group order with the same arithmetic as a whole-cluster
//! recomputation, so scores are bit-identical to it, and the simulator's
//! goldens (`tests/golden_digests.rs`) pin that end to end.

use crate::group::{GroupId, Grouping};
use crate::job::JobId;
use crate::model::{cluster_utilization_from_terms, group_utilization, Utilization};
use crate::profile::{JobProfile, ProfileStore};
use crate::schedule::{ScheduleOutcome, Scheduler, SCORE_CEILING};
use crate::scratch::{ProfileCache, ScheduleScratch};

/// The master's view of cluster state handed to the regrouper.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Total machines in the cluster.
    pub machines: u32,
    /// Grouping currently running.
    pub grouping: Grouping,
    /// Jobs whose profiling just finished, not yet placed.
    pub profiled: Vec<JobId>,
    /// Jobs paused during earlier migrations.
    pub paused: Vec<JobId>,
}

/// A regrouping decision, ordered from cheapest to most disruptive.
#[derive(Debug, Clone, PartialEq)]
pub enum RegroupDecision {
    /// Keep everything as is (benefit below threshold, or the job waits).
    NoChange,
    /// Add one waiting job to an existing group; nothing migrates.
    AddToGroup {
        /// The job to start in the group.
        job: JobId,
        /// The receiving group.
        group: GroupId,
    },
    /// Back-fill the group that lost a finished job with waiting jobs of
    /// equivalent resource shape; nothing else migrates.
    ReplaceFinished {
        /// Group that the finished job left.
        group: GroupId,
        /// Waiting jobs that take its place.
        add: Vec<JobId>,
    },
    /// Re-run Algorithm 1 over the jobs of `involved_groups` plus all
    /// waiting jobs; other groups are untouched. The new grouping spans
    /// exactly the machines owned by the involved groups.
    PartialReschedule {
        /// Groups dissolved by this decision.
        involved_groups: Vec<GroupId>,
        /// The replacement grouping for those machines.
        outcome: ScheduleOutcome,
    },
}

/// Per-group Eq. 3 term cache for the incremental candidate scans:
/// one entry per group in grouping order, `None` for job-less groups
/// (the Eq. 4 fold skips them entirely).
type GroupTerms = Vec<Option<(Utilization, u32)>>;

/// Regrouping policy around a [`Scheduler`].
///
/// Its decisions depend on their arguments alone. What it keeps across
/// calls is Algorithm 1's working set — the job list, [`ProfileCache`]
/// and [`ScheduleScratch`] every ladder rung and every empty-grouping
/// placement runs through ([`Scheduler::schedule_reusing`]) — so a
/// repeated decision regrows no buffer; [`ProfileCache::sync`] makes
/// the reused buffers decide exactly as fresh ones would.
#[derive(Debug, Clone, Default)]
pub struct Regrouper {
    scheduler: Scheduler,
    /// Profiles of the job set being scheduled.
    jobs: Vec<JobProfile>,
    cache: ProfileCache,
    scratch: ScheduleScratch,
}

impl Regrouper {
    /// Creates a regrouper using the given scheduler (and its
    /// improvement threshold).
    pub fn new(scheduler: Scheduler) -> Self {
        Self {
            scheduler,
            ..Self::default()
        }
    }

    /// Runs Algorithm 1 over the warm profiles of `ids`, in order, on
    /// `machines` machines, through the kept buffers.
    fn schedule(
        &mut self,
        ids: impl IntoIterator<Item = JobId>,
        profiles: &ProfileStore,
        machines: u32,
    ) -> ScheduleOutcome {
        self.jobs.clear();
        self.jobs
            .extend(ids.into_iter().filter_map(|j| profiles.get(j).cloned()));
        self.scheduler
            .schedule_reusing(&self.jobs, machines, &mut self.cache, &mut self.scratch)
    }

    /// Whether no proposal can clear the acceptance gate over `base`:
    /// every achievable cluster score is `<= SCORE_CEILING` (see the
    /// ceiling proof at [`SCORE_CEILING`] — Eq. 3 ratios are exact
    /// `<= 1.0`, the Eq. 4 fold's relative error is `< 5e-7`), so once
    /// `base * (1 + threshold) >= SCORE_CEILING` the comparison
    /// `score > base * (1 + threshold)` is false for every candidate
    /// and the scan's outcome is `NoChange` without running it.
    /// `base == 0.0` bypasses the gate, so a saturated prune also
    /// requires a positive base.
    fn saturated(&self, base: f64) -> bool {
        base > 0.0 && base * (1.0 + self.scheduler.config().improvement_threshold) >= SCORE_CEILING
    }

    /// Builds the per-group Eq. 3 term cache for `grouping`: the exact
    /// values a whole-cluster [`crate::model::cluster_utilization`]
    /// would feed the Eq. 4 fold, in the same group order, so refolding
    /// any subset of them is bit-identical to rebuilding that subset's
    /// cluster utilization from scratch.
    fn group_terms(&self, grouping: &Grouping, profiles: &ProfileStore) -> GroupTerms {
        grouping
            .groups()
            .iter()
            .map(|g| {
                if g.jobs().is_empty() {
                    return None;
                }
                let profs: Vec<_> = g.jobs().iter().filter_map(|&j| profiles.get(j)).collect();
                Some((group_utilization(&profs, g.dop()), g.dop()))
            })
            .collect()
    }

    /// Relative difference `|a - b| / max(|b|, ε)`.
    fn rel_diff(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-12)
    }

    /// Handles a job that just finished profiling (case 1 of §IV-B4).
    pub fn on_job_profiled(
        &mut self,
        view: &ClusterView,
        profiles: &ProfileStore,
        job: JobId,
    ) -> RegroupDecision {
        // If the cluster runs nothing yet, schedule everything waiting.
        if view.grouping.is_empty() {
            let waiting = view.profiled.iter().chain(&view.paused).copied();
            let unlisted = (!waiting.clone().any(|j| j == job)).then_some(job);
            let outcome = self.schedule(waiting.chain(unlisted), profiles, view.machines);
            if outcome.grouping.is_empty() {
                return RegroupDecision::NoChange;
            }
            return RegroupDecision::PartialReschedule {
                involved_groups: Vec::new(),
                outcome,
            };
        }

        // "The scheduler handles the job only when there is no other
        // profiled/paused job" — those jobs' existence means Harmony is
        // already satisfied with the running set.
        let others_waiting = view
            .profiled
            .iter()
            .chain(view.paused.iter())
            .any(|&j| j != job);
        if others_waiting {
            return RegroupDecision::NoChange;
        }

        let threshold = self.scheduler.config().improvement_threshold;
        let cpu_weight = self.scheduler.config().cpu_weight;
        // Cache every group's Eq. 3 term once, then score each "add
        // the job to group g" candidate by refolding the cached terms
        // with only g's term re-derived — O(groups) per candidate
        // instead of a grouping clone plus a full cluster
        // recomputation, with bit-identical scores.
        let terms = self.group_terms(&view.grouping, profiles);
        let base =
            cluster_utilization_from_terms(terms.iter().flatten().copied()).score(cpu_weight);
        if self.saturated(base) {
            return RegroupDecision::NoChange;
        }

        let mut best: Option<(GroupId, f64)> = None;
        for (gi, g) in view.grouping.groups().iter().enumerate() {
            // The candidate group's profile list is its old list plus
            // the new job's profile at the end, as `push_job` would
            // append it — and a previously job-less group (term `None`)
            // enters the fold.
            let mut profs: Vec<_> = g.jobs().iter().filter_map(|&j| profiles.get(j)).collect();
            profs.extend(profiles.get(job));
            let term = Some((group_utilization(&profs, g.dop()), g.dop()));
            let score =
                cluster_utilization_from_terms(terms.iter().enumerate().filter_map(|(i, t)| {
                    if i == gi {
                        term
                    } else {
                        *t
                    }
                }))
                .score(cpu_weight);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((g.id(), score));
            }
        }
        match best {
            Some((group, score)) if score > base * (1.0 + threshold) || base == 0.0 => {
                RegroupDecision::AddToGroup { job, group }
            }
            _ => RegroupDecision::NoChange,
        }
    }

    /// Handles a job completion (case 2 of §IV-B4). `group` is the group
    /// the finished job belonged to; `view.grouping` must already have
    /// the job removed.
    pub fn on_job_finished(
        &mut self,
        view: &ClusterView,
        profiles: &ProfileStore,
        finished_iter_time: f64,
        finished_ratio: f64,
        group: GroupId,
    ) -> RegroupDecision {
        let Some(g) = view.grouping.group(group) else {
            return RegroupDecision::NoChange;
        };
        let dop = g.dop().max(1);
        let waiting: Vec<JobId> = view
            .profiled
            .iter()
            .chain(view.paused.iter())
            .copied()
            .collect();

        // Step 1: a single similar job (iteration time and comp/comm
        // ratio both within 5%).
        for &cand in &waiting {
            let Some(p) = profiles.get(cand) else {
                continue;
            };
            if !p.is_warm() {
                continue;
            }
            let it = p.iter_time_at(dop);
            let ratio = p.comp_comm_ratio_at(dop);
            if Self::rel_diff(it, finished_iter_time) <= 0.05
                && Self::rel_diff(ratio, finished_ratio) <= 0.05
            {
                return RegroupDecision::ReplaceFinished {
                    group,
                    add: vec![cand],
                };
            }
        }

        // Step 2: a bunch of smaller jobs whose summed iteration time
        // and ratio-of-sums approximate the finished job.
        if let Some(bunch) =
            self.find_bunch(&waiting, profiles, dop, finished_iter_time, finished_ratio)
        {
            return RegroupDecision::ReplaceFinished { group, add: bunch };
        }

        // Step 3: escalate to partial rescheduling with a growing set of
        // involved groups, smallest-involvement first.
        self.escalate(view, profiles, group, &waiting)
    }

    /// Handles the loss of one machine from `group` (§VI fault
    /// tolerance). `view.grouping` must already reflect the shrunken
    /// group — the master re-runs machine allocation over the survivors
    /// before asking for a decision.
    ///
    /// The cheapest repair is *local*: keep the shrunken group running
    /// on its surviving machines ([`RegroupDecision::NoChange`]). The
    /// regrouper escalates to partial rescheduling over a growing set
    /// of involved groups only when the repaired cluster's predicted
    /// utilization can be improved past the scheduler's improvement
    /// threshold — i.e. when the crash degraded the grouping enough
    /// that movement pays for itself.
    pub fn on_machine_lost(
        &mut self,
        view: &ClusterView,
        profiles: &ProfileStore,
        group: GroupId,
    ) -> RegroupDecision {
        if view.grouping.group(group).is_none() {
            // The crash wiped the whole group out; the master handles
            // re-placement of its orphaned jobs directly.
            return RegroupDecision::NoChange;
        }
        let waiting: Vec<JobId> = view
            .profiled
            .iter()
            .chain(view.paused.iter())
            .copied()
            .collect();
        self.escalate(view, profiles, group, &waiting)
    }

    /// Handles a job abort (user kill or unrecoverable task failure,
    /// §VI). `view.grouping` must already have the aborted job removed.
    ///
    /// An abort leaves the group in the same shape as a completion —
    /// one member gone, its resource share idle — so the same minimal-
    /// movement repair ladder applies: a single similar waiting job,
    /// then a bunch, then escalation. The difference is semantic: the
    /// aborted job's characteristics come from its last observed
    /// profile rather than a converged run, and the caller must not
    /// count it as completed.
    pub fn on_job_aborted(
        &mut self,
        view: &ClusterView,
        profiles: &ProfileStore,
        aborted_iter_time: f64,
        aborted_ratio: f64,
        group: GroupId,
    ) -> RegroupDecision {
        self.on_job_finished(view, profiles, aborted_iter_time, aborted_ratio, group)
    }

    /// Greedy subset construction for the "bunch of jobs with equivalent
    /// characteristics" replacement.
    fn find_bunch(
        &self,
        waiting: &[JobId],
        profiles: &ProfileStore,
        dop: u32,
        target_iter: f64,
        target_ratio: f64,
    ) -> Option<Vec<JobId>> {
        let mut cands: Vec<(JobId, f64, f64, f64)> = waiting
            .iter()
            .filter_map(|&j| {
                let p = profiles.get(j)?;
                if !p.is_warm() {
                    return None;
                }
                Some((j, p.iter_time_at(dop), p.tcpu_at(dop), p.tnet()))
            })
            .collect();
        if cands.len() < 2 {
            return None;
        }
        // Largest-first greedy fill toward the target iteration time.
        cands.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut sum_iter = 0.0;
        let mut sum_cpu = 0.0;
        let mut sum_net = 0.0;
        let mut chosen = Vec::new();
        for (j, it, cpu, net) in cands {
            if sum_iter + it <= target_iter * 1.05 {
                sum_iter += it;
                sum_cpu += cpu;
                sum_net += net;
                chosen.push(j);
            }
        }
        if chosen.len() < 2 {
            return None;
        }
        let ratio = if sum_net > 0.0 {
            sum_cpu / sum_net
        } else {
            f64::INFINITY
        };
        (Self::rel_diff(sum_iter, target_iter) <= 0.05
            && Self::rel_diff(ratio, target_ratio) <= 0.05)
            .then_some(chosen)
    }

    fn escalate(
        &mut self,
        view: &ClusterView,
        profiles: &ProfileStore,
        group: GroupId,
        waiting: &[JobId],
    ) -> RegroupDecision {
        let cpu_weight = self.scheduler.config().cpu_weight;
        let threshold = self.scheduler.config().improvement_threshold;
        // Freeze every group's Eq. 3 term once; each rung of the
        // ladder refolds the cached terms of untouched groups with only
        // the proposal's terms re-derived.
        let terms = self.group_terms(&view.grouping, profiles);
        let base_score =
            cluster_utilization_from_terms(terms.iter().flatten().copied()).score(cpu_weight);
        // The ladder runs Algorithm 1 once per rung over a growing job
        // set — the per-event cost that scales with jobs × machines.
        // When the current grouping already saturates the acceptance
        // gate, no rung can be accepted; skip the whole ladder.
        if self.saturated(base_score) {
            return RegroupDecision::NoChange;
        }

        // Candidate group sets: start with {repaired group + smallest
        // group}, then grow by the next-smallest groups.
        let mut others: Vec<&crate::group::JobGroup> = view
            .grouping
            .groups()
            .iter()
            .filter(|g| g.id() != group)
            .collect();
        others.sort_by_key(|g| (g.jobs().len(), g.id().index()));

        let mut best: Option<(Vec<GroupId>, ScheduleOutcome, f64, usize)> = None;
        for extra in 0..=others.len() {
            let mut involved: Vec<GroupId> = vec![group];
            involved.extend(others.iter().take(extra).map(|g| g.id()));
            let groups = involved.iter().filter_map(|&gid| view.grouping.group(gid));
            let machine_budget = groups.clone().map(|g| g.dop()).sum();
            let moving = groups.flat_map(|g| g.jobs().iter().copied());
            let ids = waiting.iter().copied().chain(moving);
            // No machines or no warm job: an empty outcome, skipped.
            let outcome = self.schedule(ids, profiles, machine_budget);
            if outcome.grouping.is_empty() {
                continue;
            }
            // Score the whole cluster: untouched groups + the proposal.
            let score = cluster_utilization_from_terms(
                view.grouping
                    .groups()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, g)| {
                        if involved.contains(&g.id()) || g.jobs().is_empty() {
                            None
                        } else {
                            terms[i]
                        }
                    })
                    .chain(outcome.grouping.groups().iter().map(|g| {
                        let profs: Vec<_> =
                            g.jobs().iter().filter_map(|&j| profiles.get(j)).collect();
                        (group_utilization(&profs, g.dop()), g.dop())
                    })),
            )
            .score(cpu_weight);
            let moved = outcome.grouping.total_jobs();
            // Prefer fewer moved jobs unless a bigger decision is ≥5%
            // better than the current best.
            let better = match &best {
                None => true,
                Some((_, _, s, m)) => {
                    if moved <= *m {
                        score > *s
                    } else {
                        score > *s * (1.0 + threshold)
                    }
                }
            };
            if better {
                best = Some((involved, outcome, score, moved));
            }
        }
        match best {
            Some((involved, outcome, score, _))
                if score > base_score * (1.0 + threshold) || base_score == 0.0 =>
            {
                RegroupDecision::PartialReschedule {
                    involved_groups: involved,
                    outcome,
                }
            }
            _ => RegroupDecision::NoChange,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MachineId;
    use crate::group::JobGroup;
    use crate::profile::JobProfile;

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    fn store(ps: &[JobProfile]) -> ProfileStore {
        ps.iter().cloned().collect()
    }

    fn group(id: u32, jobs: &[u64], machines: std::ops::Range<u32>) -> JobGroup {
        JobGroup::new(
            GroupId::new(id),
            jobs.iter().map(|&j| JobId::new(j)).collect(),
            machines.map(MachineId::new).collect(),
        )
    }

    #[test]
    fn empty_cluster_schedules_everything() {
        let ps = vec![prof(0, 8.0, 2.0), prof(1, 2.0, 6.0)];
        let view = ClusterView {
            machines: 4,
            grouping: Grouping::new(),
            profiled: vec![JobId::new(0), JobId::new(1)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_profiled(&view, &store(&ps), JobId::new(1));
        match d {
            RegroupDecision::PartialReschedule { outcome, .. } => {
                assert!(!outcome.grouping.is_empty());
            }
            other => panic!("expected reschedule, got {other:?}"),
        }
    }

    #[test]
    fn arrival_waits_when_others_are_queued() {
        let ps = vec![prof(0, 8.0, 2.0), prof(1, 2.0, 6.0), prof(2, 4.0, 4.0)];
        let view = ClusterView {
            machines: 4,
            grouping: Grouping::from_groups(vec![group(0, &[0], 0..4)]),
            profiled: vec![JobId::new(1), JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_profiled(&view, &store(&ps), JobId::new(2));
        assert_eq!(d, RegroupDecision::NoChange);
    }

    #[test]
    fn arrival_joins_complementary_group() {
        // Running job is CPU-bound at DoP 4; the arrival is net-heavy and
        // fills the idle network, so utilization jumps.
        let ps = vec![prof(0, 40.0, 2.0), prof(1, 2.0, 8.0)];
        let view = ClusterView {
            machines: 4,
            grouping: Grouping::from_groups(vec![group(0, &[0], 0..4)]),
            profiled: vec![JobId::new(1)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_profiled(&view, &store(&ps), JobId::new(1));
        assert_eq!(
            d,
            RegroupDecision::AddToGroup {
                job: JobId::new(1),
                group: GroupId::new(0)
            }
        );
    }

    #[test]
    fn arrival_waits_when_benefit_is_small() {
        // The running group is already balanced; adding a tiny job barely
        // moves utilization, so the arrival keeps waiting.
        let ps = vec![prof(0, 8.0, 2.0), prof(1, 2.0, 8.0), prof(2, 0.05, 0.05)];
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[0, 1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_profiled(&view, &store(&ps), JobId::new(2));
        assert_eq!(d, RegroupDecision::NoChange);
    }

    #[test]
    fn finished_job_replaced_by_similar_single() {
        // J0 finished; J2 is waiting with nearly identical shape.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 10.1, 2.02)];
        let finished = prof(0, 10.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert_eq!(
            d,
            RegroupDecision::ReplaceFinished {
                group: GroupId::new(0),
                add: vec![JobId::new(2)]
            }
        );
    }

    #[test]
    fn finished_job_replaced_by_bunch() {
        // Two waiting halves sum to the finished job's shape.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 5.0, 1.0), prof(3, 5.0, 1.0)];
        let finished = prof(0, 10.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2), JobId::new(3)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert_eq!(
            d,
            RegroupDecision::ReplaceFinished {
                group: GroupId::new(0),
                add: vec![JobId::new(2), JobId::new(3)]
            }
        );
    }

    #[test]
    fn finished_without_candidates_may_keep_grouping() {
        // Nothing waits, and the remaining single group is already the
        // only choice: regrouping cannot improve, so NoChange.
        let ps = vec![prof(1, 6.0, 6.0)];
        let view = ClusterView {
            machines: 2,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..2)]),
            profiled: vec![],
            paused: vec![],
        };
        let d =
            Regrouper::default().on_job_finished(&view, &store(&ps), 12.0, 1.0, GroupId::new(0));
        assert_eq!(d, RegroupDecision::NoChange);
    }

    #[test]
    fn machine_loss_with_healthy_group_repairs_locally() {
        // The shrunken group still pairs a CPU-bound with a net-bound
        // job; no reshuffle can beat it by 5%, so local repair wins.
        let ps = vec![prof(0, 20.0, 2.0), prof(1, 2.0, 16.0)];
        let view = ClusterView {
            machines: 3,
            grouping: Grouping::from_groups(vec![group(0, &[0, 1], 0..3)]),
            profiled: vec![],
            paused: vec![],
        };
        let d = Regrouper::default().on_machine_lost(&view, &store(&ps), GroupId::new(0));
        assert_eq!(d, RegroupDecision::NoChange);
    }

    #[test]
    fn machine_loss_escalates_when_grouping_degrades() {
        // After the loss, group 0 is purely CPU-bound and group 1
        // purely net-bound: merging them is a clear >5% win, so the
        // machine-loss path must escalate to partial rescheduling.
        let ps = vec![prof(1, 20.0, 1.0), prof(2, 1.0, 20.0)];
        let view = ClusterView {
            machines: 2,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1), group(1, &[2], 1..2)]),
            profiled: vec![],
            paused: vec![],
        };
        let d = Regrouper::default().on_machine_lost(&view, &store(&ps), GroupId::new(0));
        match d {
            RegroupDecision::PartialReschedule {
                involved_groups, ..
            } => {
                assert!(involved_groups.contains(&GroupId::new(0)));
            }
            other => panic!("expected escalation, got {other:?}"),
        }
    }

    #[test]
    fn machine_loss_of_vanished_group_is_no_change() {
        let ps = vec![prof(0, 5.0, 5.0)];
        let view = ClusterView {
            machines: 2,
            grouping: Grouping::from_groups(vec![group(0, &[0], 0..2)]),
            profiled: vec![],
            paused: vec![],
        };
        let d = Regrouper::default().on_machine_lost(&view, &store(&ps), GroupId::new(9));
        assert_eq!(d, RegroupDecision::NoChange);
    }

    #[test]
    fn aborted_job_is_backfilled_like_a_completion() {
        // J0 aborted; J2 waits with nearly identical shape and must
        // take its slot without disturbing anything else.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 10.1, 2.02)];
        let aborted = prof(0, 10.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_aborted(
            &view,
            &store(&ps),
            aborted.iter_time_at(1),
            aborted.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert_eq!(
            d,
            RegroupDecision::ReplaceFinished {
                group: GroupId::new(0),
                add: vec![JobId::new(2)]
            }
        );
    }

    /// The §IV-B4 similarity test is *inclusive* at the 5% boundary:
    /// `rel_diff <= 0.05` accepts. The finished job has iteration time
    /// exactly 10.0 and ratio exactly 4.0 (8.0 + 2.0 at DoP 1); the
    /// candidate (8.4, 2.1) lands at iteration time exactly 10.5 and
    /// ratio exactly 4.0, so `rel_diff = 0.5 / 10.0` — the f64 nearest
    /// 0.05, bit-equal to the threshold literal.
    #[test]
    fn similarity_accepts_at_exact_boundary() {
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 8.4, 2.1)];
        let finished = prof(0, 8.0, 2.0);
        assert_eq!(finished.iter_time_at(1), 10.0);
        assert_eq!(finished.comp_comm_ratio_at(1), 4.0);
        assert_eq!(ps[1].iter_time_at(1), 10.5);
        assert_eq!(ps[1].comp_comm_ratio_at(1), 4.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert_eq!(
            d,
            RegroupDecision::ReplaceFinished {
                group: GroupId::new(0),
                add: vec![JobId::new(2)]
            }
        );
    }

    /// Just inside the band (4.5% off on iteration time) still takes
    /// the minimal-movement replacement.
    #[test]
    fn similarity_accepts_just_under_boundary() {
        // (8.36, 2.09): iteration time 10.45 → rel_diff 0.045.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 8.36, 2.09)];
        let finished = prof(0, 8.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert_eq!(
            d,
            RegroupDecision::ReplaceFinished {
                group: GroupId::new(0),
                add: vec![JobId::new(2)]
            }
        );
    }

    /// Just outside the band (5.5% off on iteration time) must NOT take
    /// the single-similar replacement — with one waiting job a bunch is
    /// impossible too, so any `ReplaceFinished` here means the 5% gate
    /// leaked.
    #[test]
    fn similarity_rejects_just_over_boundary() {
        // (8.44, 2.11): iteration time 10.55 → rel_diff 0.055; the
        // ratio still matches exactly, so only the time check trips.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 8.44, 2.11)];
        let finished = prof(0, 8.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert!(
            !matches!(d, RegroupDecision::ReplaceFinished { .. }),
            "5.5% mismatch slipped through the similarity gate: {d:?}"
        );
    }

    /// Both conditions are required: a candidate matching the finished
    /// job's iteration time *exactly* is still rejected when its
    /// comp/comm ratio is off by more than 5%.
    #[test]
    fn similarity_requires_matching_ratio_too() {
        // (8.35, 1.65): iteration time 10.0 (rel_diff 0) but ratio
        // ~5.06 vs 4.0 → rel_diff ~0.27.
        let ps = vec![prof(1, 6.0, 6.0), prof(2, 8.35, 1.65)];
        let finished = prof(0, 8.0, 2.0);
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d = Regrouper::default().on_job_finished(
            &view,
            &store(&ps),
            finished.iter_time_at(1),
            finished.comp_comm_ratio_at(1),
            GroupId::new(0),
        );
        assert!(
            !matches!(d, RegroupDecision::ReplaceFinished { .. }),
            "ratio mismatch slipped through the similarity gate: {d:?}"
        );
    }

    /// When a waiting job exists but is *not* similar, the regrouper
    /// escalates past both replacement steps to partial rescheduling —
    /// and the dissimilar job still gets placed by Algorithm 1 there.
    #[test]
    fn dissimilar_waiting_job_escalates_to_partial_reschedule() {
        // Remaining job is CPU-bound, the waiting one net-bound; the
        // finished job (iter 10, ratio 4) resembles neither.
        let ps = vec![prof(1, 20.0, 1.0), prof(2, 1.0, 20.0)];
        let view = ClusterView {
            machines: 1,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1)]),
            profiled: vec![JobId::new(2)],
            paused: vec![],
        };
        let d =
            Regrouper::default().on_job_finished(&view, &store(&ps), 10.0, 4.0, GroupId::new(0));
        match d {
            RegroupDecision::PartialReschedule {
                involved_groups,
                outcome,
            } => {
                assert_eq!(involved_groups, vec![GroupId::new(0)]);
                let placed: Vec<JobId> = outcome
                    .grouping
                    .groups()
                    .iter()
                    .flat_map(|g| g.jobs().iter().copied())
                    .collect();
                assert!(
                    placed.contains(&JobId::new(2)),
                    "waiting job not placed: {placed:?}"
                );
            }
            other => panic!("expected escalation, got {other:?}"),
        }
    }

    #[test]
    fn escalation_repairs_badly_unbalanced_groups() {
        // Group 0 lost its net-heavy job and is now purely CPU-bound;
        // group 1 is purely net-bound. Merging them (escalation) yields a
        // balanced group, a clear >5% improvement.
        let ps = vec![prof(1, 20.0, 1.0), prof(2, 1.0, 20.0)];
        let view = ClusterView {
            machines: 2,
            grouping: Grouping::from_groups(vec![group(0, &[1], 0..1), group(1, &[2], 1..2)]),
            profiled: vec![],
            paused: vec![],
        };
        let d =
            Regrouper::default().on_job_finished(&view, &store(&ps), 21.0, 0.05, GroupId::new(0));
        match d {
            RegroupDecision::PartialReschedule {
                involved_groups,
                outcome,
            } => {
                assert!(involved_groups.contains(&GroupId::new(0)));
                // Algorithm 1 may legitimately schedule only the job mix
                // that maximizes utilization and pause the rest, but every
                // involved job must be accounted for.
                let placed = outcome.grouping.total_jobs();
                let waiting = outcome.unscheduled.len();
                assert_eq!(placed + waiting, 2);
                assert!(placed >= 1);
            }
            other => panic!("expected escalation, got {other:?}"),
        }
    }
}
