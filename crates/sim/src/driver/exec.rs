//! Subtask execution: fluid catch-up, dispatch under the subtask
//! discipline, wake events, subtask and iteration completion.

use super::*;
use crate::spans::SubtaskSpan;

/// Whether a group member in state `s` runs subtasks (as opposed to
/// sitting paused, waiting or done).
fn executes(s: SimJobState) -> bool {
    matches!(
        s,
        SimJobState::Running | SimJobState::Profiling | SimJobState::Profiled
    )
}

impl Driver {
    /// Single-pass fluid catch-up: advances both resources of an owned
    /// group to `self.now` (one drain, shared by the wake and the
    /// composition-change paths), accumulates busy integrals, and
    /// processes completions into `notes` — CPU completions first, then
    /// network, exactly as the former per-path drains did.
    pub(super) fn catch_up(&mut self, grp: &mut GroupSim, notes: &mut Vec<Notify>) {
        let dt = self.now - grp.last_advance;
        grp.last_advance = self.now;
        if dt <= 0.0 {
            return;
        }
        let mut done = std::mem::take(&mut self.scratch_done);
        done.clear();
        let used_c = grp.cpu.advance_into(dt, &mut done);
        let used_n = grp.net.advance_into(dt, &mut done);
        grp.cpu_busy += used_c;
        grp.net_busy += used_n;
        for &key in &done {
            self.on_subtask_done(grp, key, notes);
        }
        done.clear();
        self.scratch_done = done;
    }

    /// Dispatches an owned group and hands it back to the table,
    /// dissolving it when it emptied or re-arming its wake otherwise.
    pub(super) fn dispatch_and_rearm(&mut self, mut grp: Box<GroupSim>) {
        self.dispatch(&mut grp);
        let id = grp.id;
        if grp.jobs.is_empty() {
            self.groups[id] = Some(grp);
            self.dissolve_group(id);
        } else {
            self.arm_wake(&mut grp);
            self.groups[id] = Some(grp);
        }
    }

    /// Advances group `g` to `self.now`, processes completions into
    /// `notes` and dispatches, then re-arms the group's wake event.
    pub(super) fn advance_group(&mut self, g: usize, notes: &mut Vec<Notify>) {
        let mut grp = self.groups[g].take().expect("alive group");
        self.catch_up(&mut grp, notes);
        if grp.steady_mark.is_none() && self.now >= grp.steady_at {
            grp.steady_mark = Some((grp.cpu_busy, grp.net_busy, self.now));
        }
        self.dispatch_and_rearm(grp);
    }

    /// Bumps the generation (invalidating stale wakes) and re-arms.
    pub(super) fn bump_and_wake(&mut self, g: usize) {
        let Some(mut grp) = self.groups.get_mut(g).and_then(Option::take) else {
            return;
        };
        // Catch up the fluid clock before composition-driven rate
        // changes take effect. Completions discovered here are rare
        // (composition changes usually happen at completion
        // boundaries); the resulting notifications are deferred to the
        // event loop so the scheduler never re-enters itself
        // mid-mutation.
        let mut notes = std::mem::take(&mut self.scratch_notes_bump);
        self.catch_up(&mut grp, &mut notes);
        self.deferred.append(&mut notes);
        self.scratch_notes_bump = notes;
        grp.gen += 1;
        self.dispatch_and_rearm(grp);
    }

    /// Queues the wake for the owned group's next event, if any.
    fn arm_wake(&mut self, grp: &mut GroupSim) {
        let gen = grp.gen;
        // Next fluid-task completion...
        let mut next: Option<f64> = grp.time_to_next_event().map(|dt| self.now + dt.max(0.0));
        // ...or the earliest pending input-load completion: a member
        // still loading needs a wake at its ready time, and generation
        // bumps may have invalidated the wake pushed when it attached.
        // The lazy ready-heap answers that without an O(members) scan
        // on every event. Stale tops (the job left, finished its load,
        // or its ready time passed) are popped on sight; a valid top is
        // only peeked, so the wake re-arms until the load event fires.
        let ready = loop {
            let Some(&std::cmp::Reverse((bits, j))) = grp.ready_heap.peek() else {
                break None;
            };
            let ra = f64::from_bits(bits);
            let live = ra > self.now
                && self.jobs[j].group == Some(grp.id)
                && matches!(
                    self.jobs[j].exec,
                    ExecPhase::Idle { ready_at } if ready_at.to_bits() == bits
                )
                && executes(self.jobs[j].state);
            if live {
                break Some(ra);
            }
            grp.ready_heap.pop();
        };
        if let Some(ra) = ready {
            next = Some(next.map_or(ra, |t| t.min(ra)));
        }
        if let Some(t) = next {
            if grp.pending_wake == Some((gen, t)) {
                // An identical wake is already sitting in the heap;
                // processing the duplicate would be a no-op (same
                // instant, same generation), so skip the enqueue.
                return;
            }
            grp.pending_wake = Some((gen, t));
            let group = grp.id;
            self.push_event(t, EventKind::Wake { group, gen });
        }
    }

    pub(super) fn on_subtask_done(
        &mut self,
        grp: &mut GroupSim,
        key: TaskKey,
        notes: &mut Vec<Notify>,
    ) {
        let j = key.job;
        let ExecPhase::Running(phase, slot) = self.jobs[j].exec else {
            return; // stale completion after a pause/cancel
        };
        grp.lanes.release(slot);
        if self.cfg.record_spans {
            self.report.spans.push(SubtaskSpan {
                job: j,
                job_name: self.jobs[j].name.clone(),
                phase,
                group: grp.id,
                start: self.jobs[j].phase_start,
                end: self.now,
            });
        }
        // Profiles record the solo-equivalent duration (the subtask's
        // work at full rate): co-location stretching is a property of
        // the schedule, not of the job, and Eqs. 1-4 are stated in solo
        // subtask times.
        let solo = self.jobs[j].phase_solo;
        match phase {
            Phase::Pull => self.jobs[j].iter_tnet += solo,
            Phase::Comp => {
                self.jobs[j].iter_tcpu += solo;
                self.jobs[j].last_comp_end = self.now;
            }
            Phase::Push => {
                self.jobs[j].iter_tnet += solo;
                return self.complete_iteration(grp, j, notes);
            }
        }
        self.jobs[j].exec = ExecPhase::Queued(phase.next());
        grp.lanes.enqueue(phase.next().lane(), j);
    }

    pub(super) fn complete_iteration(
        &mut self,
        grp: &mut GroupSim,
        j: usize,
        notes: &mut Vec<Notify>,
    ) {
        let m = grp.machines;
        let (tcpu, tnet) = (self.jobs[j].iter_tcpu, self.jobs[j].iter_tnet);
        self.jobs[j].iterations_done += 1;
        self.jobs[j].profile.observe_iteration(tcpu, tnet, m);
        let iter_wall = self.now - self.jobs[j].iter_start;
        self.jobs[j].last_iter_wall = iter_wall;
        self.iter_wall_stats.observe(iter_wall);
        // Skip each member's first in-group iteration (load warmup),
        // anchored at the iteration count recorded when it joined.
        let first_in_group = self.jobs[j].iterations_done <= self.jobs[j].joined_iters + 1;
        if !first_in_group {
            self.jobs[j].iter_stats.observe(iter_wall);
        }
        // Hill-climbing α update. The cost signal is the job's own COMP
        // cost (base work + GC share + deserialization + disk-blocked
        // time) — the components α actually controls — smoothed over a
        // few iterations so one noisy sample cannot flip the climb
        // direction.
        if let ReloadPolicy::Adaptive = self.cfg.reload {
            self.jobs[j].alpha_cost_acc += tcpu;
            self.jobs[j].alpha_cost_n += 1;
            if self.jobs[j].alpha_cost_n >= 3 {
                let cost = self.jobs[j].alpha_cost_acc / f64::from(self.jobs[j].alpha_cost_n);
                self.jobs[j].alpha_cost_acc = 0.0;
                self.jobs[j].alpha_cost_n = 0;
                let floor = self.jobs[j].alpha_floor;
                if let Some(ctl) = self.jobs[j].alpha_ctl.as_mut() {
                    let a = ctl.observe(cost);
                    let old = self.jobs[j].alpha;
                    self.jobs[j].alpha = a.max(floor).min(1.0);
                    // Keep the group's cached memory aggregates in
                    // step with the climb; the next re-plan refolds
                    // them exactly, so incremental float drift never
                    // accumulates past one membership epoch.
                    let delta = self.jobs[j].alpha - old;
                    let input = self.jobs[j].spec.input_bytes as f64;
                    grp.mem_base_bytes -= delta * input * self.mem.expansion;
                    grp.alpha_input_bytes += delta * input;
                }
            }
        }
        if self.jobs[j].profiling_left > 0 {
            self.jobs[j].profiling_left -= 1;
            if self.jobs[j].profiling_left == 0 {
                notes.push(Notify::Profiled(j));
            }
        }
        if self.jobs[j].iterations_done >= self.jobs[j].total_iterations {
            self.set_terminal(j, SimJobState::Finished, self.now);
            notes.push(Notify::Finished {
                job: j,
                group: grp.id,
            });
            self.detach_from(grp, j);
        } else if self.jobs[j].pause_requested {
            self.jobs[j].pause_requested = false;
            self.jobs[j].state = SimJobState::Paused;
            self.detach_from(grp, j);
            // A live migration paused this job: write the model
            // checkpoint over the old group's disks, then re-place it
            // once the write lands.
            if self.jobs[j].migrate_mark.is_some() {
                let ckpt_bytes = self.jobs[j].spec.model_bytes as f64;
                let write = ckpt_bytes
                    / (f64::from(grp.machines.max(1)) * self.cfg.machine.disk_bytes_per_sec);
                self.push_event(self.now + write, EventKind::Migrate(j));
            }
        } else {
            // Closed-loop profiling: the fresh observation just folded
            // into the EWMAs; if the smoothed estimate now sits ≥ the
            // similarity threshold away from the basis this schedule
            // was computed with, the placement is stale (§IV-B4).
            // Clearing the basis here makes the trigger one-shot — it
            // re-arms only when the next decision re-pins it.
            if self.cfg.profile_feedback {
                if self.jobs[j].iterations_done < self.jobs[j].drift_holdoff {
                    // Post-migration settle window: the EWMA is still
                    // converging on the shift that caused the move.
                } else {
                    if self.jobs[j].drift_holdoff != 0 {
                        // Window just expired: re-pin the basis on the
                        // settled estimate so residual decay is not
                        // mistaken for a second shift.
                        self.jobs[j].drift_holdoff = 0;
                        self.jobs[j].profile.mark_scheduled();
                    }
                    let thr = self.cfg.scheduler_config.improvement_threshold;
                    if self.jobs[j]
                        .profile
                        .drift_from_basis()
                        .is_some_and(|d| d >= thr)
                    {
                        self.jobs[j].profile.clear_scheduled_basis();
                        notes.push(Notify::Drifted(j));
                    }
                }
            }
            self.jobs[j].exec = ExecPhase::Queued(Phase::Pull);
            grp.lanes.enqueue(Lane::Net, j);
        }
    }

    /// Detaches `j` from an owned group (used inside `advance_group`
    /// where the group is taken out of `self.groups`).
    pub(super) fn detach_from(&mut self, grp: &mut GroupSim, j: usize) {
        self.finalize_prediction_of(grp);
        grp.jobs.retain(|&x| x != j);
        if self.jobs[j].group.is_some() && self.jobs[j].is_live() {
            self.active_scheduled -= 1;
        }
        self.jobs[j].group = None;
        self.jobs[j].exec = ExecPhase::Idle { ready_at: self.now };
    }

    pub(super) fn dispatch(&mut self, grp: &mut GroupSim) {
        // Promote ready Idle members into the PULL queue — only while
        // some member may be Idle at all. The member list and the
        // lanes are disjoint fields, so splitting the borrow avoids
        // snapshotting the membership.
        let GroupSim {
            jobs: members,
            lanes,
            loading,
            ..
        } = grp;
        if *loading {
            *loading = false;
            for &j in members.iter() {
                let job = &mut self.jobs[j];
                if let ExecPhase::Idle { ready_at } = job.exec {
                    if ready_at <= self.now + 1e-9 && executes(job.state) {
                        job.exec = ExecPhase::Queued(Phase::Pull);
                        lanes.enqueue(Lane::Net, j);
                    } else {
                        *loading = true;
                    }
                }
            }
        }
        while let Some(Start { item: j, slot }) = grp.lanes.next_start() {
            let ExecPhase::Queued(phase) = self.jobs[j].exec else {
                unreachable!("queued job {j} is not in ExecPhase::Queued");
            };
            self.start_subtask(grp, j, phase, slot);
        }
    }

    pub(super) fn start_subtask(&mut self, grp: &mut GroupSim, j: usize, phase: Phase, slot: Slot) {
        let m = grp.machines;
        let mf = f64::from(m);
        let disk_bw = self.cfg.machine.disk_bytes_per_sec;
        let spec_input = self.jobs[j].spec.input_bytes as f64;
        let spec_model = self.jobs[j].spec.model_bytes as f64;
        let alpha = self.jobs[j].alpha;
        let barrier = self.noise.barrier_factor(m);
        self.jobs[j].exec = ExecPhase::Running(phase, slot);
        let (demand, work) = match phase {
            Phase::Comp => {
                let mut base = self.jobs[j].spec.comp_cost / mf;
                // Scripted workload shift: the true COMP cost changes
                // mid-run, visible to the scheduler only through the
                // closed profiling loop.
                if let Some((at, factor)) = self.jobs[j].comp_shift {
                    if self.jobs[j].iterations_done >= at {
                        base *= factor;
                    }
                }
                let deser = alpha * spec_input / (mf * self.cfg.deser_bytes_per_sec);
                // Large single-COMP groups of the coalesced mode price
                // memory and disk from the group's cached aggregates.
                let cached = self.coalesce_active()
                    && grp.lanes.slots(Lane::Cpu) == 1
                    && grp.jobs.len() >= COALESCE_BATCH_BUILD_MIN;
                let gc = if cached {
                    // One COMP at a time: the fluid was empty when this
                    // dispatch fired and every cancel path resets
                    // `exec`, so the computing set is exactly this job.
                    // Price the resident set from the group's cached
                    // aggregate instead of refolding every member —
                    // this probe runs once per COMP dispatch, and the
                    // fold made the event path scale with
                    // iterations × group size.
                    let bytes = grp.mem_base_bytes
                        + spec_input * self.mem.workspace_fraction * self.mem.expansion;
                    self.cfg
                        .gc
                        .slowdown(bytes / (mf * self.mem.capacity as f64))
                } else {
                    let mut fp = std::mem::take(&mut self.scratch_fp);
                    self.footprints_into(grp, &mut fp);
                    let gc = groupmem::gc_slowdown(&fp, m, &self.mem, &self.cfg.gc);
                    self.scratch_fp = fp;
                    gc
                };
                let gap = (self.now - self.jobs[j].last_comp_end).max(0.0);
                // Disk bandwidth is shared by the background preloads of
                // every co-located job. Reads spread over the whole group
                // round, so contention only bites when the group's
                // aggregate read demand exceeds what the disk can deliver
                // in one round: stretch this job's read by that
                // oversubscription ratio.
                let total_reads: f64 = if cached {
                    grp.alpha_input_bytes / (mf * disk_bw)
                } else {
                    grp.jobs
                        .iter()
                        .map(|&k| {
                            self.jobs[k].alpha * self.jobs[k].spec.input_bytes as f64
                                / (mf * disk_bw)
                        })
                        .sum()
                };
                let round_est = if self.jobs[j].last_iter_wall > 0.0 {
                    self.jobs[j].last_iter_wall
                } else {
                    gap + self.jobs[j].spec.comp_cost / mf
                };
                let stretch = (total_reads / round_est.max(1e-9)).max(1.0);
                let read = alpha * spec_input * stretch / (mf * disk_bw);
                let blocked = (read - self.cfg.reload_overlap * gap).max(0.0);
                self.report.gc_seconds += (gc - 1.0) * (base + deser);
                self.report.alpha_stats.observe(alpha);
                (1.0, ((base + deser) * gc + blocked) * barrier)
            }
            Phase::Pull | Phase::Push => {
                if phase == Phase::Pull {
                    self.jobs[j].iter_start = self.now;
                    self.jobs[j].iter_tcpu = 0.0;
                    self.jobs[j].iter_tnet = 0.0;
                }
                let frac = if phase == Phase::Pull {
                    self.jobs[j].spec.pull_fraction
                } else {
                    1.0 - self.jobs[j].spec.pull_fraction
                };
                // DoP-dependent for all-reduce jobs, constant for PS.
                let mut base = self.jobs[j].spec.net_time_at(m) * frac;
                // A sparse job ships coordinate-sparse PUSH deltas:
                // wire time scales with density. PULL stays dense (the
                // server broadcasts the full model either way).
                if phase == Phase::Push {
                    if let Some(density) = self.jobs[j].push_density {
                        base *= density;
                    }
                }
                if self.jobs[j].model_spilled {
                    base += spec_model / (mf * disk_bw);
                }
                (self.cfg.net_demand, base * self.cfg.net_demand * barrier)
            }
        };
        // An injected straggler window stretches every subtask the group
        // dispatches while it is open (§VI).
        let work = work * grp.straggle_factor(self.now);
        self.jobs[j].phase_start = self.now;
        self.jobs[j].phase_solo = work / demand;
        let key = TaskKey {
            job: j,
            seq: self.jobs[j].next_seq(),
        };
        match slot.lane {
            Lane::Cpu => grp.cpu.add(key, demand, work),
            Lane::Net => grp.net.add(key, demand, work),
        }
    }
}
