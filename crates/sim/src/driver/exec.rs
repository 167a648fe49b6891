//! Subtask execution on a group's own clock: the loop that runs one
//! group's internal events — fluid completions, dispatches under the
//! subtask discipline, input loads — up to a horizon, and the lookahead
//! that says how far that horizon may lie.
//!
//! Under §IV-A a group's machines barrier only with each other, so
//! between two global events the loop needs nothing from outside the
//! group. A [`GroupStep`] reads the run's configuration and writes only
//! its own [`GroupSim`] and its members' [`JobSim`]s. What the rest of
//! the driver must see — a member finishing, finishing profiling,
//! pausing at an iteration boundary, drifting — is a *boundary
//! crossing*: the loop records it in the group ([`Crossing`]) and stops
//! at that instant, and the driver applies it once every group has
//! reached the instant.

use harmony_mem::{alpha_steps, Rounding};

use super::*;
use crate::noise::{BarrierTable, DrawKey};
use crate::runtime::Crossing;
use crate::spans::SubtaskSpan;

/// The fluid's completion tolerance (`1e-9` demand-seconds), doubled:
/// a subtask may complete up to that much work early, so each phase's
/// lower bound gives it back.
const PHASE_EARLY: f64 = 2e-9;

/// Absolute slack taken off every lookahead: room for the rounding of
/// the clock arithmetic on the way to the crossing (a thousand ulps of
/// a two-month clock).
const LOOKAHEAD_SLACK: f64 = 1e-6;

/// Whether a group member in state `s` runs subtasks (as opposed to
/// sitting paused, waiting or done).
fn executes(s: SimJobState) -> bool {
    matches!(
        s,
        SimJobState::Running | SimJobState::Profiling | SimJobState::Profiled
    )
}

/// What a group's subtask loop reads and never writes.
#[derive(Clone, Copy)]
pub(super) struct ExecEnv<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) mem: &'a MemoryParams,
    /// The straggler quantile; `None` without noise.
    pub(super) noise: Option<&'a BarrierTable>,
}

/// Buffers a group's subtask loop reuses across calls.
#[derive(Debug, Default)]
pub(super) struct ExecScratch {
    /// Fluid completions drained by one catch-up (both resources).
    done: Vec<TaskKey>,
}

/// What the driver's rounds read of a group, kept beside the group
/// table rather than in it so a round's walk over every alive group
/// reads one small array.
#[derive(Debug, Clone, Copy)]
pub(super) struct GroupBounds {
    /// The time of the group's next internal event (a fluid completion
    /// or a member's input load), `INFINITY` when none is pending.
    pub(super) next_event: f64,
    /// Lower bound on the time of the group's next boundary crossing.
    /// The group running on its own does not move its next crossing, so
    /// the bound stays good until the group crosses or the driver
    /// changes it or its members from outside.
    pub(super) lookahead: f64,
    /// Whether the three still hold: cleared by a crossing, and whenever
    /// the driver brings the group to `now` to change it.
    pub(super) valid: bool,
    /// `(cpu usage × m, net usage × m)` since the group's last event:
    /// what it contributes to a sample it rests through.
    pub(super) usage: (f64, f64),
    /// The next utilization-sample instant the group has not accounted
    /// for: samples before it sit in [`GroupSim::samples`].
    pub(super) next_sample: f64,
}

impl GroupBounds {
    /// Bounds of a group formed with `next_sample` the driver's next
    /// sample, to be computed before its first round.
    pub(super) fn stale(next_sample: f64) -> GroupBounds {
        GroupBounds {
            next_event: f64::NEG_INFINITY,
            lookahead: f64::NEG_INFINITY,
            valid: false,
            usage: (0.0, 0.0),
            next_sample,
        }
    }
}

/// One group on its own clock: the group, its bounds, the job table
/// (only the group's members are touched) and the loop's read-only
/// environment.
pub(super) struct GroupStep<'a> {
    pub(super) env: ExecEnv<'a>,
    pub(super) grp: &'a mut GroupSim,
    pub(super) bounds: &'a mut GroupBounds,
    pub(super) jobs: &'a mut [JobSim],
    pub(super) scratch: &'a mut ExecScratch,
}

/// The prediction-accuracy sample of `grp`'s current grouping (taken at
/// most once — on the first composition change or on dissolution, so
/// the realized window matches the grouping the prediction was made
/// for); `None` when none is due.
pub(super) fn finalize_prediction(
    cfg: &SimConfig,
    grp: &mut GroupSim,
    jobs: &[JobSim],
    now: f64,
) -> Option<PredictionSample> {
    let pred_it = grp.predicted_iteration.take()?;
    let (pu_c, pu_n) = grp.predicted_util.take()?;
    // Measure from steady state (all founding members loaded) so
    // warm-up idleness is not charged against the prediction.
    let (cpu0, net0, t0) = grp.steady_mark.unwrap_or((grp.cpu_busy, grp.net_busy, now));
    let lifetime = now - t0;
    // Eq. 1 predicts the period at which *every* member completes an
    // iteration; faster members free-run ahead in the pipeline, so
    // the realized counterpart is the slowest member's mean period.
    let realized_iter = grp
        .jobs
        .iter()
        .map(|&j| &jobs[j].iter_stats)
        .filter(|s| s.count() >= 2)
        .map(OnlineStats::mean)
        .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))))?;
    if lifetime <= 2.0 * pred_it {
        return None;
    }
    let w = cfg.scheduler_config.cpu_weight;
    let realized_u =
        w * ((grp.cpu_busy - cpu0) / lifetime) + (1.0 - w) * ((grp.net_busy - net0) / lifetime);
    Some(PredictionSample {
        predicted_iteration: pred_it,
        realized_iteration: realized_iter,
        predicted_util: w * pu_c + (1.0 - w) * pu_n,
        realized_util: realized_u.max(1e-9),
    })
}

impl GroupStep<'_> {
    /// Runs the group's internal events due at or before `until`,
    /// recording a utilization sample at each sample instant it passes,
    /// and stops early, right after the instant of its first boundary
    /// crossing. The group then rests at its last event until its next
    /// one. Returns whether it crossed.
    ///
    /// Order at one instant: completions (CPU before network), then
    /// the dispatch they free, then the samples of that instant.
    pub(super) fn advance(&mut self, mut until: f64) -> bool {
        debug_assert!(
            self.bounds.valid,
            "group {} advanced without bounds",
            self.grp.id
        );
        let crossed_before = self.grp.crossings.len();
        let mut next = self.bounds.next_event;
        while next <= until {
            self.record_samples(next, false);
            if !self.catch_up(next) && next <= self.grp.clock {
                // A completion whose time rounds onto the clock but whose
                // work is still outside the tolerance: nudge the clock.
                next = next.next_up();
                continue;
            }
            self.after_events();
            if self.grp.crossings.len() > crossed_before {
                // Finish this instant, then stop.
                until = next;
            }
            next = self.next_event();
        }
        self.record_samples(until, true);
        let crossed = self.grp.crossings.len() > crossed_before;
        debug_assert!(
            !crossed || self.grp.clock >= self.bounds.lookahead,
            "group {} crossed at {} before its lookahead {}",
            self.grp.id,
            self.grp.clock,
            self.bounds.lookahead
        );
        self.bounds.next_event = next;
        self.bounds.usage = self.usage();
        // Running on its own moved none of the group's later crossings,
        // so its lookahead still holds unless it crossed; one the clock
        // has passed bounds nothing, and is recomputed.
        self.bounds.valid = !crossed && self.bounds.lookahead > self.grp.clock;
        crossed
    }

    /// Recomputes the group's [`GroupBounds`] from its current state.
    pub(super) fn refresh(&mut self) {
        self.bounds.next_event = self.next_event();
        self.bounds.lookahead = self.lookahead();
        self.bounds.usage = self.usage();
        self.bounds.valid = true;
    }

    /// The group's usage, scaled by its machines.
    fn usage(&self) -> (f64, f64) {
        let mf = f64::from(self.grp.machines);
        (self.grp.cpu.usage() * mf, self.grp.net.usage() * mf)
    }

    /// Brings the resting group's fluids up to `now` without completing
    /// anything, so the driver can change the group at `now`, and drops
    /// its cached bounds, which that change may move. A subtask due
    /// within the fluid's tolerance of `now` stays, and completes at the
    /// group's next advance.
    pub(super) fn touch(&mut self, now: f64) {
        let grp = &mut *self.grp;
        debug_assert!(
            grp.clock <= now && (!self.bounds.valid || self.bounds.next_event >= now),
            "group {} touched at {now} with an event pending at {}",
            grp.id,
            self.bounds.next_event
        );
        let dt = now - grp.clock;
        if dt > 0.0 {
            grp.cpu_busy += grp.cpu.advance_quiet(dt);
            grp.net_busy += grp.net.advance_quiet(dt);
            grp.clock = now;
        }
        self.bounds.valid = false;
    }

    /// What follows the events of one instant: the steady-state mark,
    /// then the dispatch.
    fn after_events(&mut self) {
        let grp = &mut *self.grp;
        if grp.steady_mark.is_none() && grp.clock >= grp.steady_at {
            grp.steady_mark = Some((grp.cpu_busy, grp.net_busy, grp.clock));
        }
        self.dispatch();
    }

    /// Records the samples due before `t` — or at it too, with
    /// `inclusive` — from the group's current state, which has held
    /// since its last event.
    fn record_samples(&mut self, t: f64, inclusive: bool) {
        let period = self.env.cfg.utilization_sample_secs;
        let b = &mut *self.bounds;
        while b.next_sample < t || (inclusive && b.next_sample == t) {
            let mf = f64::from(self.grp.machines);
            let grp = &mut *self.grp;
            grp.samples
                .push_back((grp.cpu.usage() * mf, grp.net.usage() * mf));
            b.next_sample += period;
        }
    }

    /// The time of the group's next internal event: the next fluid
    /// completion, or the earliest pending input-load completion
    /// (`INFINITY` when neither is pending). Stale ready-heap tops (the
    /// job left, finished its load, or its ready time passed) are
    /// popped on sight; a valid top is only peeked.
    fn next_event(&mut self) -> f64 {
        let grp = &mut *self.grp;
        let now = grp.clock;
        let fluid = grp
            .time_to_next_event()
            .map_or(f64::INFINITY, |dt| now + dt.max(0.0));
        let ready = loop {
            let Some(&std::cmp::Reverse((bits, j))) = grp.ready_heap.peek() else {
                break f64::INFINITY;
            };
            let ra = f64::from_bits(bits);
            let job = &self.jobs[j];
            let live = ra > now
                && job.group == Some(grp.id)
                && matches!(job.exec, ExecPhase::Idle { ready_at } if ready_at.to_bits() == bits)
                && executes(job.state);
            if live {
                break ra;
            }
            grp.ready_heap.pop();
        };
        fluid.min(ready)
    }

    /// Advances both fluid resources to `t`, accumulates the busy
    /// integrals and processes the completions due — CPU first, then
    /// network. Returns whether the clock moved or anything completed.
    fn catch_up(&mut self, t: f64) -> bool {
        let grp = &mut *self.grp;
        let dt = t - grp.clock;
        if dt > 0.0 {
            grp.clock = t;
        }
        let mut done = std::mem::take(&mut self.scratch.done);
        done.clear();
        for (fluid, busy) in [
            (&mut grp.cpu, &mut grp.cpu_busy),
            (&mut grp.net, &mut grp.net_busy),
        ] {
            if dt > 0.0 {
                *busy += fluid.advance_quiet(dt);
            }
            fluid.complete_due(&mut done);
        }
        for &key in &done {
            self.on_subtask_done(key);
        }
        let any = !done.is_empty();
        done.clear();
        self.scratch.done = done;
        // A load finishing at `t` is an event too: the dispatch after it
        // promotes the member.
        any || dt > 0.0
    }

    fn on_subtask_done(&mut self, key: TaskKey) {
        let j = key.job;
        let now = self.grp.clock;
        let ExecPhase::Running(phase, slot) = self.jobs[j].exec else {
            return; // stale completion after a pause/cancel
        };
        self.grp.lanes.release(slot);
        let job = &mut self.jobs[j];
        if self.env.cfg.record_spans {
            self.grp.acc.spans.push(SubtaskSpan {
                job: j,
                job_name: job.name.clone(),
                phase,
                group: self.grp.id,
                start: job.phase_start,
                end: now,
                iteration: job.iterations_done,
                attempt: job.attempt(),
                draw: job.phase_draw,
            });
        }
        // Profiles record the solo-equivalent duration (the subtask's
        // work at full rate): co-location stretching is a property of
        // the schedule, not of the job, and Eqs. 1-4 are stated in solo
        // subtask times.
        let solo = job.phase_solo;
        match phase {
            Phase::Pull => job.iter_tnet += solo,
            Phase::Comp => {
                job.iter_tcpu += solo;
                job.last_comp_end = now;
            }
            Phase::Push => {
                job.iter_tnet += solo;
                return self.complete_iteration(j);
            }
        }
        job.exec = ExecPhase::Queued(phase.next());
        self.grp.lanes.enqueue(phase.next().lane(), j);
    }

    fn complete_iteration(&mut self, j: usize) {
        let env = self.env;
        let now = self.grp.clock;
        let grp = &mut *self.grp;
        let job = &mut self.jobs[j];
        let m = grp.machines;
        let (tcpu, tnet) = (job.iter_tcpu, job.iter_tnet);
        job.iterations_done += 1;
        job.profile.observe_iteration(tcpu, tnet, m);
        let iter_wall = now - job.iter_start;
        job.last_iter_wall = iter_wall;
        grp.acc.iter_wall.observe(iter_wall);
        // Skip each member's first in-group iteration (load warmup),
        // anchored at the iteration count recorded when it joined.
        if job.iterations_done > job.joined_iters + 1 {
            job.iter_stats.observe(iter_wall);
        }
        // Hill-climbing α update. The cost signal is the job's own COMP
        // cost (base work + GC share + deserialization + disk-blocked
        // time) — the components α actually controls — smoothed over a
        // few iterations so one noisy sample cannot flip the climb
        // direction.
        if let ReloadPolicy::Adaptive = env.cfg.reload {
            job.alpha_cost_acc += tcpu;
            job.alpha_cost_n += 1;
            if job.alpha_cost_n >= 3 {
                let cost = job.alpha_cost_acc / f64::from(job.alpha_cost_n);
                job.alpha_cost_acc = 0.0;
                job.alpha_cost_n = 0;
                if let Some(ctl) = job.alpha_ctl.as_mut() {
                    let k = alpha_steps(ctl.observe(cost), Rounding::Nearest);
                    let spilled = job.model_spilled;
                    job.set_memory(&mut grp.books, k.max(job.alpha_floor_k), spilled);
                }
            }
        }
        if job.profiling_left > 0 {
            job.profiling_left -= 1;
            if job.profiling_left == 0 {
                grp.crossings.push(Crossing::Profiled(j));
            }
        }
        if job.iterations_done >= job.total_iterations {
            let prediction = self.detach(j);
            self.grp
                .crossings
                .push(Crossing::Finished { job: j, prediction });
        } else if job.pause_requested {
            job.pause_requested = false;
            job.state = SimJobState::Paused;
            // A live migration paused this job: the model checkpoint
            // is written over the old group's disks, and the job is
            // re-placed once the write lands.
            let checkpoint_write = job.migrate_mark.map(|_| {
                job.spec.model_bytes as f64
                    / (f64::from(m.max(1)) * env.cfg.machine.disk_bytes_per_sec)
            });
            let prediction = self.detach(j);
            self.grp.crossings.push(Crossing::Paused {
                job: j,
                prediction,
                checkpoint_write,
            });
        } else {
            // Closed-loop profiling: the fresh observation just folded
            // into the EWMAs; if the smoothed estimate now sits ≥ the
            // similarity threshold away from the basis this schedule
            // was computed with, the placement is stale (§IV-B4).
            // Clearing the basis here makes the trigger one-shot — it
            // re-arms only when the next decision re-pins it.
            if env.cfg.profile_feedback {
                if job.iterations_done < job.drift_holdoff {
                    // Post-migration settle window: the EWMA is still
                    // converging on the shift that caused the move.
                } else {
                    if job.drift_holdoff != 0 {
                        // Window just expired: re-pin the basis on the
                        // settled estimate so residual decay is not
                        // mistaken for a second shift.
                        job.drift_holdoff = 0;
                        job.profile.mark_scheduled();
                    }
                    let thr = env.cfg.scheduler_config.improvement_threshold;
                    if job.profile.drift_from_basis().is_some_and(|d| d >= thr) {
                        job.profile.clear_scheduled_basis();
                        grp.crossings.push(Crossing::Drifted(j));
                    }
                }
            }
            job.exec = ExecPhase::Queued(Phase::Pull);
            grp.lanes.enqueue(Lane::Net, j);
        }
    }

    /// Takes member `j` out of the group at an iteration boundary (its
    /// subtasks are all done), closing the group's prediction window.
    fn detach(&mut self, j: usize) -> Option<PredictionSample> {
        let now = self.grp.clock;
        let prediction = finalize_prediction(self.env.cfg, self.grp, self.jobs, now);
        self.grp.remove_member(j, &self.jobs[j]);
        self.jobs[j].group = None;
        self.jobs[j].exec = ExecPhase::Idle { ready_at: now };
        prediction
    }

    /// Promotes loaded members into the PULL queue and starts every
    /// subtask the group's slots admit.
    pub(super) fn dispatch(&mut self) {
        let now = self.grp.clock;
        // Promote ready Idle members into the PULL queue — only while
        // some member may be Idle at all.
        let GroupSim {
            jobs: members,
            lanes,
            loading,
            ..
        } = &mut *self.grp;
        if *loading {
            *loading = false;
            for &j in members.iter() {
                let job = &mut self.jobs[j];
                if let ExecPhase::Idle { ready_at } = job.exec {
                    if ready_at <= now + 1e-9 && executes(job.state) {
                        job.exec = ExecPhase::Queued(Phase::Pull);
                        lanes.enqueue(Lane::Net, j);
                    } else {
                        *loading = true;
                    }
                }
            }
        }
        while let Some(Start { item: j, slot }) = self.grp.lanes.next_start() {
            let ExecPhase::Queued(phase) = self.jobs[j].exec else {
                unreachable!("queued job {j} is not in ExecPhase::Queued");
            };
            self.start_subtask(j, phase, slot);
        }
    }

    fn start_subtask(&mut self, j: usize, phase: Phase, slot: Slot) {
        let env = self.env;
        let cfg = env.cfg;
        let now = self.grp.clock;
        let m = self.grp.machines;
        let mf = f64::from(m);
        let disk_bw = cfg.machine.disk_bytes_per_sec;
        self.jobs[j].exec = ExecPhase::Running(phase, slot);
        let job = &self.jobs[j];
        let spec_input = job.spec.input_bytes as f64;
        let spec_model = job.spec.model_bytes as f64;
        let alpha = job.alpha();
        let draw = DrawKey {
            job: j,
            iteration: job.iterations_done,
            phase,
            attempt: job.attempt(),
        }
        .uniform(cfg.seed);
        let barrier = env.noise.map_or(1.0, |t| t.factor(draw, m));
        let (demand, work) = match phase {
            Phase::Comp => {
                let mut base = job.spec.comp_cost / mf;
                // Scripted workload shift: the true COMP cost changes
                // mid-run, visible to the scheduler only through the
                // closed profiling loop.
                if let Some((at, factor)) = job.comp_shift {
                    if job.iterations_done >= at {
                        base *= factor;
                    }
                }
                let deser = alpha * spec_input / (mf * cfg.deser_bytes_per_sec);
                // The resident set comes from the group's books; the
                // live working sets are this job's and those of the
                // COMPs still running (none under one COMP slot).
                let grp = &*self.grp;
                let computing = u128::from(job.spec.input_bytes) + grp.computing_input(self.jobs);
                let gc = cfg
                    .gc
                    .slowdown(grp.books.usage_ratio(computing, m, env.mem));
                let gap = (now - job.last_comp_end).max(0.0);
                // Disk bandwidth is shared by the background preloads of
                // every co-located job. Reads spread over the whole group
                // round, so contention only bites when the group's
                // aggregate read demand exceeds what the disk can deliver
                // in one round: stretch this job's read by that
                // oversubscription ratio.
                let total_reads = grp.books.disk_bytes() / (mf * disk_bw);
                let round_est = if job.last_iter_wall > 0.0 {
                    job.last_iter_wall
                } else {
                    gap + job.spec.comp_cost / mf
                };
                let stretch = (total_reads / round_est.max(1e-9)).max(1.0);
                let read = alpha * spec_input * stretch / (mf * disk_bw);
                let blocked = (read - cfg.reload_overlap * gap).max(0.0);
                let acc = &mut self.grp.acc;
                acc.gc_seconds += (gc - 1.0) * (base + deser);
                acc.alpha_stats.observe(alpha);
                (1.0, ((base + deser) * gc + blocked) * barrier)
            }
            Phase::Pull | Phase::Push => {
                let frac = if phase == Phase::Pull {
                    job.spec.pull_fraction
                } else {
                    1.0 - job.spec.pull_fraction
                };
                // DoP-dependent for all-reduce jobs, constant for PS.
                let mut base = job.spec.net_time_at(m) * frac;
                // A sparse job ships coordinate-sparse PUSH deltas:
                // wire time scales with density. PULL stays dense (the
                // server broadcasts the full model either way).
                if phase == Phase::Push {
                    if let Some(density) = job.push_density {
                        base *= density;
                    }
                }
                if job.model_spilled {
                    base += spec_model / (mf * disk_bw);
                }
                (cfg.net_demand, base * cfg.net_demand * barrier)
            }
        };
        // An injected straggler window stretches every subtask the group
        // dispatches while it is open (§VI).
        let work = work * self.grp.straggle_factor(now);
        let job = &mut self.jobs[j];
        if phase == Phase::Pull {
            job.iter_start = now;
            job.iter_tcpu = 0.0;
            job.iter_tnet = 0.0;
        }
        job.phase_start = now;
        job.phase_solo = work / demand;
        job.phase_draw = draw;
        let key = TaskKey {
            job: j,
            seq: job.next_seq(),
        };
        match slot.lane {
            Lane::Cpu => self.grp.cpu.add(key, demand, work),
            Lane::Net => self.grp.net.add(key, demand, work),
        }
    }

    /// A lower bound on the time of the group's next boundary crossing
    /// (`INFINITY` when no member runs).
    ///
    /// A member crosses at the end of its `k`-th iteration from now,
    /// where `k` counts iterations to its next boundary: its last
    /// iteration, its last profiling iteration, a requested pause, or —
    /// with [`SimConfig::profile_feedback`] on, where any iteration may
    /// drift — the current one. Until then it runs the rest of the
    /// current iteration and `k − 1` more, each phase at least its base
    /// work × the noise table's floor × `min(1, comp_shift)`: GC,
    /// deserialization, disk reads and slowdown windows only stretch a
    /// subtask, and a fluid's rate never exceeds 1. A running subtask
    /// counts its work left at full rate.
    fn lookahead(&self) -> f64 {
        let cfg = self.env.cfg;
        let grp = &*self.grp;
        let now = grp.clock;
        let m = grp.machines;
        let mf = f64::from(m);
        let floor = self.env.noise.map_or(1.0, |t| t.floor(m));
        let net_early = PHASE_EARLY / cfg.net_demand;
        let mut bound = f64::INFINITY;
        for &j in &grp.jobs {
            let job = &self.jobs[j];
            if !executes(job.state) {
                continue;
            }
            let mut k = job.iterations_left().max(1);
            if job.profiling_left > 0 {
                k = k.min(u64::from(job.profiling_left));
            }
            if job.pause_requested || cfg.profile_feedback {
                k = 1;
            }
            let shift = job.comp_shift.map_or(1.0, |(_, f)| f.min(1.0));
            let net = job.spec.net_time_at(m) * floor;
            let pull = (net * job.spec.pull_fraction - net_early).max(0.0);
            let push = (net * (1.0 - job.spec.pull_fraction) * job.push_density.unwrap_or(1.0)
                - net_early)
                .max(0.0);
            let comp = (job.spec.comp_cost / mf * shift * floor - PHASE_EARLY).max(0.0);
            let rest = (k - 1) as f64 * (pull + comp + push);
            let (start, this_iteration) = match job.exec {
                ExecPhase::Idle { ready_at } => (ready_at.max(now), pull + comp + push),
                ExecPhase::Queued(Phase::Pull) => (now, pull + comp + push),
                ExecPhase::Queued(Phase::Comp) => (now, comp + push),
                ExecPhase::Queued(Phase::Push) => (now, push),
                ExecPhase::Running(phase, slot) => {
                    let fluid = match slot.lane {
                        Lane::Cpu => &grp.cpu,
                        Lane::Net => &grp.net,
                    };
                    let left = fluid.full_rate_remaining(j).unwrap_or(0.0);
                    let after = match phase {
                        Phase::Pull => comp + push,
                        Phase::Comp => push,
                        Phase::Push => 0.0,
                    };
                    (now, (left - PHASE_EARLY).max(0.0) + after)
                }
            };
            let lb = start + ((this_iteration + rest) * (1.0 - 1e-9) - LOOKAHEAD_SLACK).max(0.0);
            bound = bound.min(lb.max(now));
        }
        bound
    }
}
