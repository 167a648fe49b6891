//! Group lifecycle: create, attach, detach, dissolve and tear down
//! job groups, and emit each group's prediction-accuracy sample.

use super::*;
use crate::report::GroupingSnapshot;

impl Driver {
    pub(super) fn create_group(&mut self, machines: u32, profiling_host: bool) -> usize {
        assert!(machines <= self.free_machines, "machine over-allocation");
        self.free_machines -= machines;
        let id = self.groups.len();
        // §IV-A's one COMP + two COMM slots, unbounded (and interfering)
        // under naive co-location, or the ablation's override.
        let (slots, beta) = match self.cfg.scheduler {
            SchedulerKind::Naive { .. } => {
                ((usize::MAX / 2, usize::MAX / 2), self.cfg.interference_beta)
            }
            _ => ((1, 2), 0.0),
        };
        let (cpu_slots, net_slots) = self.cfg.discipline_override.unwrap_or(slots);
        let mut g = GroupSim::new(id, machines, cpu_slots, net_slots, beta, self.now);
        g.profiling_host = profiling_host;
        self.groups.push(Some(Box::new(g)));
        self.bounds.push(GroupBounds::stale(self.next_sample));
        self.alive.insert(id);
        id
    }

    /// Dispatches group `g` at `now` after a change to its composition
    /// or state, dissolving it when it emptied.
    pub(super) fn redispatch(&mut self, g: usize) {
        if !self.groups.get(g).is_some_and(Option::is_some) {
            return;
        }
        self.touch(g);
        if self.with_group(g, |s| {
            s.dispatch();
            s.grp.jobs.is_empty()
        }) {
            self.dissolve_group(g);
        }
    }

    /// Adds a job to a group, charging an input-(re)load delay, and
    /// recomputes the group's memory plan. Returns `false` (reverting
    /// the job to a placeable state) when the group no longer exists —
    /// e.g. it was dissolved by an OOM kill while a batch of jobs was
    /// being attached.
    pub(super) fn attach_job(&mut self, g: usize, j: usize, keep_state: bool) -> bool {
        self.attach_job_with_replan(g, j, keep_state, true)
    }

    /// [`Self::attach_job`] with the memory re-plan optionally
    /// deferred. A group build attaches every member first and
    /// re-plans once ([`Self::finish_group_build`]): the re-plan is
    /// O(members), so one per attach would make a k-member build
    /// O(k²).
    pub(super) fn attach_job_with_replan(
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
        let mut load_bytes = (1.0 - self.jobs[j].alpha()) * self.jobs[j].spec.input_bytes as f64;
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
            self.report.live_migration.finish(latency);
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
            self.report.recovery_latency.observe(latency);
            self.report.fault_log.record(
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
        self.jobs[j].iter_stats = OnlineStats::new();
        self.touch(g);
        let mut grp = self.groups[g].take().expect("alive group");
        self.finalize_prediction_of(&mut grp);
        grp.add_member(j, &self.jobs[j]);
        grp.loading = true;
        if delay > 0.0 {
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
        self.redispatch(g);
        // The OOM path inside recompute may have dissolved the group or
        // killed this very job. (The load completion is one of the
        // group's own events: its ready heap holds it.)
        if self.groups.get(g).and_then(|x| x.as_ref()).is_none() {
            return self.jobs[j].is_live();
        }
        true
    }

    /// Completes a deferred-replan population loop: one memory re-plan
    /// and dispatch for the whole batch (dissolving the group if
    /// every candidate member turned out to be dead).
    pub(super) fn finish_group_build(&mut self, g: usize) {
        let Some(grp) = self.groups.get(g).and_then(|x| x.as_ref()) else {
            return;
        };
        if grp.jobs.is_empty() {
            self.dissolve_group(g);
            return;
        }
        self.recompute_group_memory(g);
        self.redispatch(g);
    }

    /// Removes a job from its group; dissolves the group when empty.
    pub(super) fn detach_job(&mut self, j: usize) {
        let Some(g) = self.jobs[j].group.take() else {
            return;
        };
        if self.jobs[j].is_live() {
            self.active_scheduled -= 1;
        }
        self.touch(g);
        let mut owned = self.groups[g].take().expect("job group alive");
        self.finalize_prediction_of(&mut owned);
        self.groups[g] = Some(owned);
        let grp = self.groups[g].as_mut().expect("job group alive");
        grp.evict(j, self.jobs[j].exec);
        grp.remove_member(j, &self.jobs[j]);
        self.jobs[j].leave_exec(self.now);
        if self.groups[g].as_ref().expect("alive").jobs.is_empty() {
            self.dissolve_group(g);
        } else {
            self.recompute_group_memory(g);
            self.redispatch(g);
        }
    }

    /// Books the group's prediction-accuracy sample, if one is due
    /// ([`exec::finalize_prediction`]).
    pub(super) fn finalize_prediction_of(&mut self, grp: &mut GroupSim) {
        let sample = exec::finalize_prediction(&self.cfg, grp, &self.jobs, self.now);
        self.report.predictions.extend(sample);
    }

    /// Retires group `g`: its machines go back to the free pool, and its
    /// busy integrals and accumulators into the report. Groups dissolve
    /// only while the driver handles an instant, in an order that does
    /// not depend on the order groups advanced in, so neither does the
    /// merge.
    pub(super) fn dissolve_group(&mut self, g: usize) {
        self.touch(g);
        let mut grp = self.groups[g].take().expect("alive group");
        self.alive.remove(g);
        self.finalize_prediction_of(&mut grp);
        self.free_machines += grp.machines;
        let mf = f64::from(grp.machines);
        self.report.cpu_busy_machine_secs += grp.cpu_busy * mf;
        self.report.net_busy_machine_secs += grp.net_busy * mf;
        let acc = std::mem::take(&mut grp.acc);
        self.report.gc_seconds += acc.gc_seconds;
        self.report.alpha_stats.merge(&acc.alpha_stats);
        self.report.spans.extend(acc.spans);
        self.iter_wall.merge(&acc.iter_wall);
    }

    /// Pauses and detaches every member of `g` in one sweep, then
    /// dissolves it: no member is re-planned or re-dispatched on the
    /// way out. Detaching member by member would re-plan the shrinking
    /// group after each one, O(k²) for a k-member group.
    pub(super) fn teardown_group(&mut self, g: usize) {
        self.touch(g);
        let Some(mut grp) = self.groups.get_mut(g).and_then(Option::take) else {
            return;
        };
        self.finalize_prediction_of(&mut grp);
        let members = std::mem::take(&mut grp.jobs);
        grp.books = MemBooks::default();
        grp.lanes.retain(|_| false);
        for &j in &members {
            if self.jobs[j].is_live() {
                self.jobs[j].state = SimJobState::Paused;
                self.active_scheduled -= 1;
            }
            self.jobs[j].group = None;
            grp.evict(j, self.jobs[j].exec);
            self.jobs[j].leave_exec(self.now);
        }
        self.groups[g] = Some(grp);
        self.dissolve_group(g);
    }

    pub(super) fn record_snapshot(&mut self) {
        let groups: Vec<(u32, usize)> = self
            .alive_groups()
            .filter(|&g| !self.groups[g].as_ref().expect("alive").profiling_host)
            .map(|g| {
                let grp = self.groups[g].as_ref().expect("alive");
                (grp.machines, grp.jobs.len())
            })
            .collect();
        if !groups.is_empty() {
            self.report.grouping_snapshots.push(GroupingSnapshot {
                time: self.now,
                groups,
            });
        }
    }
}
