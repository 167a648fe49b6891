//! The baseline schedulers: dedicated allocation (Isolated) and
//! model-free packing (Naive).

use harmony_core::baseline::IsolatedScheduler;
use harmony_core::keyed::{splitmix64, GOLDEN_GAMMA};

use super::*;

impl Driver {
    /// The DoP a dedicated allocation gives job `j`: the configured
    /// fixed DoP, or the CPU-utilization knee of its a-priori profile,
    /// capped by the whole cluster.
    fn knee_dop(&self, j: usize) -> u32 {
        self.cfg.fixed_dop.unwrap_or_else(|| {
            let spec = &self.jobs[j].spec;
            let profile =
                JobProfile::from_reference(JobId::new(j as u64), spec.comp_cost, spec.net_cost);
            IsolatedScheduler::knee_dop_with_factor(
                &profile,
                self.cfg.machines,
                self.cfg.isolated_knee_factor,
            )
        })
    }

    pub(super) fn isolated_admit(&mut self) {
        while self.free_machines > 0 {
            let Some(&j) = self.isolated_queue.front() else {
                break;
            };
            // Target DoP: the CPU-utilization knee, capped by the whole
            // cluster; admit only once at least half of it is free so
            // jobs are not starved into degenerate 1-machine runs
            // (head-of-line FIFO, as dedicated-allocation systems do).
            let knee = self.knee_dop(j);
            let m = knee.min(self.free_machines).max(1);
            if m * 2 < knee {
                break;
            }
            self.isolated_queue.pop_front();
            let g = self.create_group(m, false);
            self.jobs[j].state = SimJobState::Running;
            self.attach_job(g, j, false);
        }
    }

    /// Schedules the next packing round a second from now, unless one
    /// is already pending.
    pub(super) fn request_naive_form(&mut self) {
        if !self.naive_form_scheduled {
            self.naive_form_scheduled = true;
            self.push_event(self.now + 1.0, EventKind::NaiveForm);
        }
    }

    pub(super) fn naive_form_groups(&mut self) {
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
        let mut state = seed.wrapping_add(GOLDEN_GAMMA);
        let mut next_rand = move || {
            state = state.wrapping_add(GOLDEN_GAMMA);
            splitmix64(state)
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
            let knee = self.knee_dop(j);
            let m = knee.min(self.free_machines);
            let g = self.create_group(m, false);
            self.jobs[j].state = SimJobState::Running;
            self.attach_job(g, j, false);
            changed = true;
        }
        if changed {
            self.record_snapshot();
        }
    }
}
