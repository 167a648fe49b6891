//! Memory management (§IV-C): re-deriving every member's disk ratio α
//! for a group's current composition, and OOM kills.

use harmony_mem::AlphaController;

use super::*;
use crate::groupmem::FitOutcome;

/// A group member's current memory footprint.
pub(super) fn footprint(job: &JobSim) -> JobFootprint {
    JobFootprint {
        input_bytes: job.spec.input_bytes,
        model_bytes: job.spec.model_bytes,
        alpha: job.alpha,
        model_spilled: job.model_spilled,
        computing: matches!(job.exec, ExecPhase::Running(Phase::Comp, _)),
    }
}

impl Driver {
    /// Re-derives every member's α (and model-spill flag) for the
    /// group's current composition, killing jobs on unavoidable OOM.
    pub(super) fn recompute_group_memory(&mut self, g: usize) {
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
    pub(super) fn recompute_group_memory_with(
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
            let concurrent = grp.lanes.slots(Lane::Cpu).min(members.len()).max(1);
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
                    probe.clear();
                    probe.extend(grp.jobs.iter().map(|&j| footprint(&self.jobs[j])));
                    groupmem::usage_ratio(probe.iter(), m, &self.mem) > 1.0
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
            self.report
                .oom_events
                .push((self.now, self.jobs[victim].spec.name.clone()));
            self.set_terminal(victim, SimJobState::Failed, self.now);
            self.touch(g);
            let grp = self.groups[g].as_mut().expect("alive");
            grp.evict(victim, self.jobs[victim].exec);
            grp.jobs.retain(|&x| x != victim);
            self.jobs[victim].group = None;
            self.jobs[victim].leave_exec(self.now);
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
    pub(super) fn refold_mem_aggregates(&mut self, g: usize) {
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
}
