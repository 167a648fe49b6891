//! Fault injection and recovery (§VI): MTBF-driven machine failures
//! and the plan-driven crash / slowdown / abort events.

use harmony_core::keyed::{splitmix64, GOLDEN_GAMMA};

use super::*;
use crate::fault::FaultKind;

/// Deterministic exponential-ish inter-failure gap: the inverse CDF of
/// a keyed draw of `(seed, n)`.
pub(super) fn next_failure_gap(seed: u64, n: u64, mtbf: f64) -> f64 {
    let z = splitmix64(
        (seed ^ 0xD6E8_FEB8_6659_FD93)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add((n + 1).wrapping_mul(GOLDEN_GAMMA)),
    );
    let u = (z as f64 / u64::MAX as f64).clamp(1e-9, 1.0 - 1e-9);
    -u.ln() * mtbf
}

impl Driver {
    /// A machine of one (deterministically chosen) group fails: its
    /// jobs roll back to their last per-epoch checkpoint and restart
    /// after an input-reload delay. "A machine/process failure may have
    /// an impact on all co-located jobs" (§VI).
    pub(super) fn inject_failure(&mut self, n: u64) {
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
        self.report.failures += 1;
        self.touch(g);
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        for &j in members.iter() {
            self.restart_in_place(g, j);
        }
        members.clear();
        self.scratch_members = members;
        self.redispatch(g);
    }

    /// Dispatches one scheduled fault from the configured plan.
    pub(super) fn on_fault(&mut self, i: usize) {
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

    /// Member `j` of the alive group `g` rolls back to its epoch
    /// checkpoint, drops its in-flight work and restarts in place once
    /// checkpoint and input are reloaded over the group's current
    /// machines. Returns the reload seconds.
    fn restart_in_place(&mut self, g: usize, j: usize) -> f64 {
        let grp = self.groups[g].as_mut().expect("alive");
        grp.evict(j, self.jobs[j].exec);
        let reload = ((1.0 - self.jobs[j].alpha()) * self.jobs[j].spec.input_bytes as f64
            + self.jobs[j].spec.model_bytes as f64)
            / (f64::from(grp.machines) * self.cfg.machine.disk_bytes_per_sec);
        self.jobs[j].leave_exec(self.now + reload);
        grp.loading = true;
        if reload > 0.0 {
            grp.ready_heap
                .push(std::cmp::Reverse(((self.now + reload).to_bits(), j)));
        }
        self.rollback_to_checkpoint(j);
        reload
    }

    /// Rolls a job back to its last per-epoch checkpoint (§VI). Call
    /// it once the job has left its group's resources, so the iteration
    /// it had in flight counts as lost where it was.
    pub(super) fn rollback_to_checkpoint(&mut self, j: usize) {
        let per_epoch = u64::from(self.jobs[j].spec.iters_per_epoch.max(1));
        let job = &mut self.jobs[j];
        job.roll_back_to((job.iterations_done / per_epoch) * per_epoch);
    }

    /// One machine of one group dies permanently. The group shrinks to
    /// its survivors and restarts from checkpoints (local repair); when
    /// the machine was the group's last — or the regrouper judges the
    /// degraded grouping worth reshuffling — recovery escalates to
    /// rescheduling.
    pub(super) fn inject_machine_crash(&mut self, victim_seed: u64) {
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
                self.report.machines_lost += 1;
                self.report.failures += 1;
                self.report.fault_log.record(
                    self.now,
                    "machine-crash",
                    "idle machine removed from the free pool",
                );
            }
            return;
        };
        self.report.machines_lost += 1;
        self.report.failures += 1;
        let machines_before = self.groups[g].as_ref().expect("alive").machines;
        self.report.fault_log.record(
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
    pub(super) fn crash_shrinks_group(&mut self, g: usize, survivors: u32) {
        self.touch(g);
        let grp = self.groups[g].as_mut().expect("alive");
        grp.machines = survivors;
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        for &j in members.iter() {
            let reload = self.restart_in_place(g, j);
            self.report.recovery_latency.observe(reload);
        }
        members.clear();
        self.scratch_members = members;
        // The survivors hold less memory; the plan must be re-derived
        // (this may OOM-kill a member or even dissolve the group).
        self.recompute_group_memory(g);
        if self.groups.get(g).and_then(|x| x.as_ref()).is_none() {
            self.report.fault_log.record(
                self.now,
                "recovery",
                format!("group {g} dissolved by memory pressure"),
            );
            return;
        }
        self.redispatch(g);
        let harmony = matches!(
            self.cfg.scheduler,
            SchedulerKind::Harmony | SchedulerKind::Oracle
        );
        if harmony && self.groups.get(g).is_some_and(Option::is_some) {
            let decision =
                self.regroup(|r, view, store| r.escalate(view, store, GroupId::new(g as u32)));
            let escalated = !matches!(decision, RegroupDecision::NoChange);
            self.apply_decision(decision);
            self.report.fault_log.record(
                self.now,
                "recovery",
                if escalated {
                    format!("group {g} repair escalated to partial reschedule")
                } else {
                    format!("group {g} repaired locally on {survivors} machines")
                },
            );
        } else {
            self.report.fault_log.record(
                self.now,
                "recovery",
                format!("group {g} restarted on {survivors} machines"),
            );
        }
    }

    /// Crash recovery when the victim group loses its only machine:
    /// members are orphaned (rolled back to checkpoints) and handed
    /// back to the placement machinery of the active scheduler.
    pub(super) fn crash_dissolves_group(&mut self, g: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.extend_from_slice(&self.groups[g].as_ref().expect("alive").jobs);
        for &j in &members {
            self.jobs[j].recover_mark = Some(self.now);
            self.jobs[j].state = if self.jobs[j].profile.is_warm() {
                SimJobState::Paused
            } else {
                SimJobState::Waiting
            };
            self.detach_job(j);
            self.rollback_to_checkpoint(j);
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
                self.request_naive_form();
            }
        }
        self.report.fault_log.record(
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
    pub(super) fn inject_slowdown(&mut self, victim_seed: u64, factor: f64, duration: f64) {
        let mut candidates = std::mem::take(&mut self.scratch_groups);
        candidates.clear();
        candidates.extend(self.alive_groups());
        let victim = candidates
            .get((victim_seed % candidates.len().max(1) as u64) as usize)
            .copied();
        self.scratch_groups = candidates;
        let Some(g) = victim else {
            self.report
                .fault_log
                .record(self.now, "slowdown", "no running group to slow down");
            return;
        };
        let grp = self.groups[g].as_mut().expect("alive");
        grp.slow_factor = factor.max(1.0);
        grp.slow_until = self.now + duration;
        self.report.fault_log.record(
            self.now,
            "slowdown",
            format!("group {g} runs {factor:.2}x slower for {duration:.0}s"),
        );
        self.report.recovery_latency.observe(duration);
        self.report.fault_log.record(
            self.now + duration,
            "recovery",
            format!("group {g} straggler cleared"),
        );
    }

    /// One live job is aborted; its group is repaired through the same
    /// minimal-movement ladder a completion uses.
    pub(super) fn inject_job_abort(&mut self, victim_seed: u64) {
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
            self.report
                .fault_log
                .record(self.now, "job-abort", "no live job to abort");
            return;
        }
        let j = candidates[(victim_seed % candidates.len() as u64) as usize];
        let g = self.jobs[j].group;
        self.report.jobs_aborted += 1;
        self.report.fault_log.record(
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
                    let (it, ratio) = self.departed_shape(&profile, g);
                    let group = GroupId::new(g as u32);
                    let decision = self.regroup(|r, view, store| {
                        r.replace_departed(view, store, it, ratio, group)
                            .unwrap_or_else(|| r.escalate(view, store, group))
                    });
                    let repaired = !matches!(decision, RegroupDecision::NoChange);
                    self.apply_decision(decision);
                    if repaired {
                        self.report.fault_log.record(
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
            SchedulerKind::Naive { .. } => self.request_naive_form(),
        }
    }
}
