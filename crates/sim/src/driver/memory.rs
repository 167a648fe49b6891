//! Memory management (§IV-C): re-deriving every member's disk ratio α
//! for a group's current composition, and OOM kills.

use harmony_mem::{alpha_of_steps, alpha_steps, AlphaController, Rounding};

use super::*;
use crate::groupmem::{FitOutcome, FitProbe};

impl Driver {
    /// Re-derives every member's α (and model-spill flag) for the
    /// group's current composition, killing jobs on unavoidable OOM.
    pub(super) fn recompute_group_memory(&mut self, g: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        loop {
            let grp = self.groups[g].as_ref().expect("alive group");
            if grp.jobs.is_empty() {
                break;
            }
            members.clear();
            members.extend_from_slice(&grp.jobs);
            if !self.plan_memory(g, &members) {
                break;
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
            grp.remove_member(victim, &self.jobs[victim]);
            self.jobs[victim].group = None;
            self.jobs[victim].leave_exec(self.now);
            if self.groups[g].as_ref().expect("alive").jobs.is_empty() {
                self.dissolve_group(g);
                break;
            }
        }
        members.clear();
        self.scratch_members = members;
    }

    /// Applies the reload policy to `members`, the members of group
    /// `g`, and returns whether the group is out of memory.
    fn plan_memory(&mut self, g: usize, members: &[usize]) -> bool {
        let grp = self.groups[g].as_ref().expect("alive group");
        let m = grp.machines;
        let concurrent = grp.lanes.slots(Lane::Cpu).min(members.len()).max(1);
        // Probe with fresh (policy-independent) footprints.
        let probe = FitProbe::new(
            members
                .iter()
                .map(|&j| (self.jobs[j].spec.input_bytes, self.jobs[j].spec.model_bytes)),
            concurrent,
        );
        // Baselines run on the same runtime as Harmony (§V-A: "we
        // implement their scheduling schemes on Harmony"), so model
        // spill is a property of the reload policy, not the scheduler.
        let policy = self.cfg.reload;
        let allow_model_spill = !matches!(policy, ReloadPolicy::None);
        let outcome = probe.classify(m, &self.mem);
        match (outcome, policy) {
            (FitOutcome::OutOfMemory, _) => return true,
            (FitOutcome::NeedsModelSpill, _) if !allow_model_spill => return true,
            (FitOutcome::NeedsSpill | FitOutcome::NeedsModelSpill, ReloadPolicy::None) => {
                return true
            }
            _ => {}
        }
        let model_spilled = allow_model_spill && outcome == FitOutcome::NeedsModelSpill;
        // Fit targets are bounds: they round up, never spilling too
        // little.
        let floor = alpha_steps(probe.static_fit_alpha(m, &self.mem, 0.95), Rounding::Up);
        let target = alpha_steps(
            probe.static_fit_alpha(m, &self.mem, self.cfg.static_fill_target),
            Rounding::Up,
        );
        let share = self.mem.capacity * u64::from(m) / members.len().max(1) as u64;
        let expansion = self.mem.expansion;
        let grp = self.groups[g].as_mut().expect("alive group");
        for &j in members {
            let job = &mut self.jobs[j];
            let k = match policy {
                ReloadPolicy::None => 0,
                ReloadPolicy::Fixed(a) => alpha_steps(a, Rounding::Nearest),
                ReloadPolicy::StaticFit => {
                    job.alpha_floor_k = floor;
                    target
                }
                ReloadPolicy::Adaptive => {
                    let ctl = job.alpha_ctl.get_or_insert_with(|| {
                        let start = AlphaController::initial_alpha(
                            (job.spec.input_bytes as f64 * expansion) as u64,
                            job.spec.model_bytes,
                            share,
                        )
                        .max(alpha_of_steps(floor));
                        AlphaController::new(start.clamp(0.0, 1.0), 0.05)
                    });
                    alpha_steps(ctl.alpha(), Rounding::Nearest)
                }
            };
            job.set_memory(&mut grp.books, k, model_spilled);
        }
        if matches!(policy, ReloadPolicy::Adaptive) {
            self.raise_to_floors(g, members);
        }
        // Fixed / None may still blow past capacity.
        let grp = self.groups[g].as_ref().expect("alive group");
        grp.books
            .usage_ratio(grp.computing_input(&self.jobs), m, &self.mem)
            > 1.0
    }

    /// Adaptive: per-job floors, each assuming the other members keep
    /// their current ratios — small jobs get a zero floor while the
    /// heavyweights carry the spill.
    ///
    /// Floors target the GC-free fill level: below it a job's cheap
    /// local win (fewer reloads) is paid by every co-located job through
    /// shared GC pressure, so the master does not let controllers go
    /// there. One COMP subtask's working set is live at any time under
    /// the subtask discipline — the worst case is reserved up front.
    ///
    /// The floors are sequential: each job's floor sees the floors
    /// already raised for the jobs before it in member order, because
    /// the books move with every raise. Floors taken against the books
    /// as they stood before any raise let every job assume the others
    /// keep their old α, and on the §V-G group that spilled every job
    /// fully.
    pub(super) fn raise_to_floors(&mut self, g: usize, members: &[usize]) {
        let p = self.mem;
        let grp = self.groups[g].as_mut().expect("alive group");
        let max_workspace = members
            .iter()
            .map(|&k| self.jobs[k].spec.input_bytes as f64 * p.expansion * p.workspace_fraction)
            .fold(0.0, f64::max);
        let budget =
            p.capacity as f64 * f64::from(grp.machines) * self.cfg.gc.threshold() - max_workspace;
        for &j in members {
            let job = &mut self.jobs[j];
            let floor = grp.books.floor_k(job.holding(), budget, &p);
            job.alpha_floor_k = floor;
            job.set_memory(&mut grp.books, job.alpha_k.max(floor), job.model_spilled);
        }
    }
}
