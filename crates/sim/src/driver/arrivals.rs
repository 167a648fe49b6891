//! Arrivals: the admission gate of open-loop runs with its pricing,
//! and where a new job goes to be profiled.

use super::*;
use crate::admission::{AdmissionContext, AdmissionDecision};

/// What becomes of one offer once the policy has spoken and the
/// driver's deferral budget has been applied to its answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Gate {
    /// The policy admitted the job.
    Admit,
    /// The policy would defer again, but the budget is spent: admit.
    Forced,
    /// Keep the job queued and offer it again at `reoffer_at`.
    Defer { reoffer_at: f64 },
    /// Turned away for good.
    Reject,
}

/// The admission gate: a policy's `decision` on a job already deferred
/// `deferrals` times, with the starvation guard applied — the driver
/// overrides the policy once `admission_max_deferrals` is spent,
/// bounding queue wait at roughly `max_deferrals × reoffer_secs`. A
/// rejection stands whatever the budget.
pub(super) fn admission_gate(
    decision: AdmissionDecision,
    deferrals: u32,
    now: f64,
    cfg: &SimConfig,
) -> Gate {
    match decision {
        AdmissionDecision::Admit => Gate::Admit,
        AdmissionDecision::Defer if deferrals >= cfg.admission_max_deferrals => Gate::Forced,
        AdmissionDecision::Defer => Gate::Defer {
            reoffer_at: now + cfg.admission_reoffer_secs,
        },
        AdmissionDecision::Reject => Gate::Reject,
    }
}

impl Driver {
    pub(super) fn on_arrival(&mut self, j: usize) {
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
            SchedulerKind::Naive { .. } => self.request_naive_form(),
        }
    }

    /// Consults the admission policy about one offer of job `j`.
    /// Returns `true` when the job should dispatch now; `false` when
    /// the offer was deferred (a re-offer event is queued) or rejected
    /// (the job is terminal `Failed` with its `rejected` flag set).
    pub(super) fn admission_decide(&mut self, j: usize) -> bool {
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
            machines: self.available_machines(),
            free_machines: self.free_machines,
            backlog: self.admission_backlog(j),
            deferrals,
            marginal_utility: marginal,
            spec: &self.jobs[j].spec,
        };
        let decision = policy.decide(&ctx);
        self.admission = Some(policy);
        let wait = (self.now - self.jobs[j].arrival).max(0.0);
        match admission_gate(decision, deferrals, self.now, &self.cfg) {
            Gate::Admit => {
                self.report.admission.admit(wait);
                self.jobs[j].admitted = true;
                true
            }
            Gate::Forced => {
                self.report.admission.admit_forced(wait);
                self.jobs[j].admitted = true;
                true
            }
            Gate::Defer { reoffer_at } => {
                self.jobs[j].deferrals += 1;
                self.report.admission.defer();
                self.push_event(reoffer_at, EventKind::Arrival(j));
                false
            }
            Gate::Reject => {
                self.report.admission.reject();
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
    pub(super) fn admission_backlog(&self, cand: usize) -> usize {
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
    /// Accounted as scheduler wall time but not as an invocation
    /// ([`Self::timed_query`]).
    pub(super) fn price_arrival(&mut self, j: usize) -> f64 {
        let machines = self.available_machines();
        if machines == 0 {
            return 0.0;
        }
        self.timed_query(false, |d| {
            let mut ss = std::mem::take(&mut d.sched_scratch);
            let buf = &mut ss.admission;
            buf.profiles.clear();
            for i in d.arrived_live.iter() {
                // Warm implies arrived: a profile warms only by iterating.
                if i != j && d.jobs[i].profile.is_warm() {
                    buf.profiles.push(d.jobs[i].profile.clone());
                }
            }
            let spec = &d.jobs[j].spec;
            let mut cand =
                JobProfile::from_reference(JobId::new(j as u64), spec.comp_cost, spec.net_cost);
            cand.set_memory_footprint(spec.input_bytes, spec.model_bytes);
            // The candidate goes last: `price_candidate` scores the job
            // sequence with and without its final profile.
            buf.profiles.push(cand);
            let price = d.scheduler.price_candidate(
                &buf.profiles,
                machines,
                &mut buf.cache,
                &mut buf.scratch,
            );
            d.sched_scratch = ss;
            price.marginal()
        })
    }

    /// Places a new job for profiling (§IV-B1: "a job group with the
    /// smallest number of machines or a job group that is already
    /// profiling another new job").
    pub(super) fn place_for_profiling(&mut self, j: usize) {
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
            let g = self.create_group(m, true);
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
        // Else every machine has crashed: the job stays without a group,
        // nothing places it again, and the `max_sim_seconds` cap fails
        // it.
    }
}
