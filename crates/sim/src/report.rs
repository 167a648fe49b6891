//! Results of one simulated run.

use harmony_metrics::{AdmissionStats, EventLog, Hist, MigrationStats, OnlineStats, Timeline};

use crate::spans::SubtaskSpan;

/// Per-job outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job name (from the spec).
    pub name: String,
    /// Submission time (seconds).
    pub arrival: f64,
    /// Completion time, `None` if the job failed.
    pub finish: Option<f64>,
    /// Job completion time (finish − arrival), `None` if failed.
    pub jct: Option<f64>,
    /// Iterations executed.
    pub iterations: u64,
    /// Whether the job was killed by OOM.
    pub failed: bool,
    /// Whether the job was killed by an injected abort fault (a subset
    /// of `failed`).
    pub aborted: bool,
    /// Whether the admission layer rejected the job outright (a subset
    /// of `failed`; only open-loop runs with a rejecting policy set
    /// this).
    pub rejected: bool,
    /// Final disk ratio α.
    pub final_alpha: f64,
}

/// One prediction-accuracy sample (Figure 13b): the performance model's
/// prediction at group formation vs what the group actually did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionSample {
    /// Predicted group iteration time (Eq. 1).
    pub predicted_iteration: f64,
    /// Realized mean iteration time over the group's lifetime.
    pub realized_iteration: f64,
    /// Predicted weighted utilization score.
    pub predicted_util: f64,
    /// Realized utilization score.
    pub realized_util: f64,
}

impl PredictionSample {
    /// Relative error of the iteration-time prediction.
    pub fn iteration_error(&self) -> f64 {
        (self.predicted_iteration - self.realized_iteration).abs()
            / self.realized_iteration.max(1e-9)
    }

    /// Relative error of the utilization prediction.
    pub fn util_error(&self) -> f64 {
        (self.predicted_util - self.realized_util).abs() / self.realized_util.max(1e-9)
    }
}

/// A snapshot of the grouping state after a scheduling decision
/// (Figure 12's raw data).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingSnapshot {
    /// Simulation time of the decision.
    pub time: f64,
    /// `(machines, jobs)` per active group.
    pub groups: Vec<(u32, usize)>,
}

/// Why a cluster-wide reschedule pass fired (the trigger site, not the
/// decision it produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReschedReason {
    /// The first decision, once every arrival finished profiling.
    Bootstrap,
    /// The waiting backlog crossed the reschedule threshold after a
    /// job's profile became ready.
    Profiled,
    /// A job finished — either its backlog crossed the threshold or
    /// its group dissolved with work still waiting.
    Finished,
    /// A running job's profile drifted from its scheduled basis and
    /// live migration is off (the drift path's cluster-wide arm).
    Drift,
    /// An injected job abort left no surviving group to repair.
    AbortRecovery,
    /// A machine crash dissolved its group.
    CrashRecovery,
    /// A targeted migration pass declined to place the job or bounced
    /// it back into the group it drifted out of.
    MigrationEscalation,
    /// A coalescing window expired (or hit its batch cap) and flushed
    /// the finish-mandated pass it had been deferring
    /// ([`SimConfig::coalesced_passes`](crate::SimConfig)).
    WindowFlush,
}

/// Per-trigger-reason counts of full reschedule passes (see
/// [`ReschedReason`]), so bench runs show *why* cluster-wide passes
/// fire rather than just how many
/// ([`RunReport::sched_invocations`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReschedCounters {
    /// Passes triggered at bootstrap.
    pub bootstrap: usize,
    /// Passes triggered by the profiled-backlog threshold.
    pub profiled: usize,
    /// Passes triggered after a job finished.
    pub finished: usize,
    /// Passes triggered by profile drift (no live migration).
    pub drift: usize,
    /// Passes triggered by abort recovery.
    pub abort_recovery: usize,
    /// Passes triggered by crash recovery.
    pub crash_recovery: usize,
    /// Always 0. It counted the passes of a guardrail for an empty event
    /// queue under live jobs, which cannot happen: a utilization sample
    /// is pending whenever a job is live. Kept because the benchmark
    /// reports it (`core.resched.unstall`).
    pub unstall: usize,
    /// Passes escalated out of a targeted migration placement.
    pub migration_escalation: usize,
    /// Passes fired by a coalescing-window flush (expiry or batch cap).
    pub window_flush: usize,
}

impl ReschedCounters {
    /// Increments the counter for `reason`.
    pub fn bump(&mut self, reason: ReschedReason) {
        match reason {
            ReschedReason::Bootstrap => self.bootstrap += 1,
            ReschedReason::Profiled => self.profiled += 1,
            ReschedReason::Finished => self.finished += 1,
            ReschedReason::Drift => self.drift += 1,
            ReschedReason::AbortRecovery => self.abort_recovery += 1,
            ReschedReason::CrashRecovery => self.crash_recovery += 1,
            ReschedReason::MigrationEscalation => self.migration_escalation += 1,
            ReschedReason::WindowFlush => self.window_flush += 1,
        }
    }

    /// Total full passes across every reason.
    pub fn total(&self) -> usize {
        self.bootstrap
            + self.profiled
            + self.finished
            + self.drift
            + self.abort_recovery
            + self.crash_recovery
            + self.migration_escalation
            + self.window_flush
    }
}

/// Full results of one run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Scheduler label ("harmony", "isolated", ...).
    pub scheduler: String,
    /// Time at which all jobs were done (seconds).
    pub makespan: f64,
    /// Per-job outcomes, submission order.
    pub jobs: Vec<JobOutcome>,
    /// Cluster CPU-utilization samples over time.
    pub cpu_timeline: Timeline,
    /// Cluster network-utilization samples over time.
    pub net_timeline: Timeline,
    /// Busy CPU machine-seconds over the whole run.
    pub cpu_busy_machine_secs: f64,
    /// Busy network machine-seconds.
    pub net_busy_machine_secs: f64,
    /// OOM kill events as `(time, job_name)`.
    pub oom_events: Vec<(f64, String)>,
    /// Grouping snapshots at each scheduling decision.
    pub grouping_snapshots: Vec<GroupingSnapshot>,
    /// Performance-model accuracy samples.
    pub predictions: Vec<PredictionSample>,
    /// Number of scheduling-algorithm invocations.
    pub sched_invocations: usize,
    /// Total wall-clock spent inside the scheduling algorithm (the
    /// decision half of the run's host cost).
    pub sched_wall: std::time::Duration,
    /// Wall-clock spent in the event loop *outside* the scheduling
    /// algorithm — fluid advancement, queue churn, the memory model
    /// (the run's total host wall minus `sched_wall`). Together the
    /// two halves show which side a perf change moved. Excluded from
    /// [`Self::canonical_bytes`] like every wall-clock field.
    pub event_wall: std::time::Duration,
    /// Full reschedule passes by trigger reason. Diagnostics only:
    /// excluded from [`Self::canonical_bytes`], because cross-run
    /// equivalence harnesses (migration equivalence) compare runs
    /// whose trigger mix legitimately differs while every decision
    /// coincides — `sched_invocations` is the canonical gate.
    pub resched_reasons: ReschedCounters,
    /// Jobs that went through at least one migration.
    pub migrations: usize,
    /// Machine failures injected (§VI fault-tolerance experiments).
    pub failures: usize,
    /// Machines permanently removed by plan-driven crashes.
    pub machines_lost: u32,
    /// Jobs killed by plan-driven aborts.
    pub jobs_aborted: usize,
    /// Timeline of every injected fault and recovery action.
    pub fault_log: EventLog,
    /// Distribution of recovery latencies (reload delays for in-place
    /// repairs, fault-to-replacement time for orphaned jobs, straggler
    /// window lengths).
    pub recovery_latency: OnlineStats,
    /// Live checkpoint/resume migrations (§IV-B4,
    /// [`SimConfig::live_migration`](crate::SimConfig)): counts plus
    /// drift-to-reattach latency and checkpoint-size distributions.
    /// Distinct from `migrations`, which counts any placement change a
    /// reschedule caused.
    pub live_migration: MigrationStats,
    /// Total GC-overhead seconds charged to computations.
    pub gc_seconds: f64,
    /// Distribution of α values sampled at COMP dispatches.
    pub alpha_stats: OnlineStats,
    /// Mean realized group iteration time (s) across group lifetimes,
    /// weighted by iterations (§V-G reports this for the reload
    /// micro-benchmark).
    pub mean_group_iteration: f64,
    /// Distribution of concurrently running job counts, sampled with
    /// the utilization timeline (the paper reports 27.2 on average).
    pub concurrent_jobs: OnlineStats,
    /// Per-subtask spans (only when `SimConfig::record_spans` is on).
    pub spans: Vec<SubtaskSpan>,
    /// Coalescing windows opened
    /// ([`SimConfig::coalesced_passes`](crate::SimConfig)). Zero when
    /// the mode is off. Diagnostics: excluded from
    /// [`Self::canonical_bytes`] like the trigger counters.
    pub coalesce_windows: usize,
    /// Job finishes absorbed into coalescing windows instead of each
    /// mandating its own full pass. Equals the completed-job count
    /// when the mode is on (every finish routes through a window).
    pub coalesced_finishes: usize,
    /// Targeted release passes that handed freed machines to waiting
    /// jobs while a window was open.
    pub release_passes: usize,
    /// Decision-staleness distribution: for each window, how long
    /// (virtual seconds) its deferred finish pass waited before some
    /// full pass subsumed it. Bounded above by
    /// `SimConfig::coalesce_window` by construction.
    pub coalesce_staleness: Hist,
    /// Admission-control books for open-loop runs
    /// (`Driver::run_open_loop`): admitted/deferred/rejected counts
    /// plus the queue-wait distribution. All-zero in closed-loop runs.
    /// Diagnostics: excluded from [`Self::canonical_bytes`], so
    /// `run_open_loop` with `AdmitAll` stays byte-identical to
    /// `Driver::run` on the captured trace (the per-job `rejected`
    /// flags — the decisions themselves — *are* canonical).
    pub admission: AdmissionStats,
}

impl RunReport {
    /// The report of a run in which nothing has happened yet: no jobs,
    /// empty (named) timelines and logs, every counter at zero. The
    /// driver starts from this and accumulates into it as the run goes.
    pub fn empty() -> Self {
        Self {
            cpu_timeline: Timeline::new("cpu-util"),
            net_timeline: Timeline::new("net-util"),
            ..Self::default()
        }
    }

    /// Mean JCT over completed jobs (seconds).
    pub fn mean_jct(&self) -> f64 {
        let done: Vec<f64> = self.jobs.iter().filter_map(|j| j.jct).collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().sum::<f64>() / done.len() as f64
    }

    /// Number of jobs that ran to completion: a finish time and no
    /// failure. A job the run left unfinished is not completed, whether
    /// the driver wrote it off as failed (the `max_sim_seconds` cap
    /// does) or not.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.finish.is_some() && !j.failed)
            .count()
    }

    /// Mean cluster CPU utilization over the run (busy machine-seconds
    /// over total machine-seconds until makespan).
    pub fn avg_cpu_util(&self, machines: u32) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.cpu_busy_machine_secs / (self.makespan * f64::from(machines))
    }

    /// Mean cluster network utilization.
    pub fn avg_net_util(&self, machines: u32) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.net_busy_machine_secs / (self.makespan * f64::from(machines))
    }

    /// Mean prediction error of the group-iteration-time model.
    pub fn mean_iteration_prediction_error(&self) -> f64 {
        if self.predictions.is_empty() {
            return 0.0;
        }
        self.predictions
            .iter()
            .map(PredictionSample::iteration_error)
            .sum::<f64>()
            / self.predictions.len() as f64
    }

    /// Mean prediction error of the utilization model.
    pub fn mean_util_prediction_error(&self) -> f64 {
        if self.predictions.is_empty() {
            return 0.0;
        }
        self.predictions
            .iter()
            .map(PredictionSample::util_error)
            .sum::<f64>()
            / self.predictions.len() as f64
    }

    /// A canonical byte serialization of everything *deterministic* in
    /// the report: two runs of the same config and seeds must produce
    /// identical bytes. Wall-clock fields (`sched_wall`) are excluded;
    /// floats are encoded bit-exactly via [`f64::to_bits`].
    ///
    /// The encoding is lossless. A utilization timeline whose samples
    /// keep one cadence is written as `(len, 1, start, step, runs)`,
    /// one `(value, count)` per run of bit-equal values; one whose
    /// cadence broke as `(len, 0, (time, value) per sample)`. The
    /// bytes are sized before they are written: one allocation, with
    /// `len == capacity`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut len = 0;
        self.encode(&mut |bytes| len += bytes.len());
        let mut out = Vec::with_capacity(len);
        self.encode(&mut |bytes| out.extend_from_slice(bytes));
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Writes [`Self::canonical_bytes`] through `put`, in order.
    fn encode(&self, put: &mut impl FnMut(&[u8])) {
        fn put_f64(put: &mut impl FnMut(&[u8]), v: f64) {
            put(&v.to_bits().to_le_bytes());
        }
        fn put_u64(put: &mut impl FnMut(&[u8]), v: u64) {
            put(&v.to_le_bytes());
        }
        fn put_str(put: &mut impl FnMut(&[u8]), s: &str) {
            put_u64(put, s.len() as u64);
            put(s.as_bytes());
        }
        fn put_timeline(put: &mut impl FnMut(&[u8]), tl: &Timeline) {
            put_u64(put, tl.len() as u64);
            if let Some((start, step)) = tl.cadence() {
                put(&[1]);
                put_f64(put, start);
                put_f64(put, step);
                put_u64(put, tl.runs().len() as u64);
                for run in tl.runs() {
                    put_f64(put, run.value);
                    put_u64(put, run.count);
                }
            } else {
                put(&[0]);
                for p in tl.points() {
                    put_f64(put, p.time);
                    put_f64(put, p.value);
                }
            }
        }
        fn put_stats(put: &mut impl FnMut(&[u8]), s: &OnlineStats) {
            put_u64(put, s.count());
            if s.count() > 0 {
                put_f64(put, s.mean());
                put_f64(put, s.min().unwrap_or(f64::NAN));
                put_f64(put, s.max().unwrap_or(f64::NAN));
                put_f64(put, s.sum());
            }
        }
        put_str(put, &self.scheduler);
        put_f64(put, self.makespan);
        put_u64(put, self.jobs.len() as u64);
        for j in &self.jobs {
            put_str(put, &j.name);
            put_f64(put, j.arrival);
            put_f64(put, j.finish.unwrap_or(f64::NEG_INFINITY));
            put_f64(put, j.jct.unwrap_or(f64::NEG_INFINITY));
            put_u64(put, j.iterations);
            put(&[
                u8::from(j.failed),
                u8::from(j.aborted),
                u8::from(j.rejected),
            ]);
            put_f64(put, j.final_alpha);
        }
        put_timeline(put, &self.cpu_timeline);
        put_timeline(put, &self.net_timeline);
        put_f64(put, self.cpu_busy_machine_secs);
        put_f64(put, self.net_busy_machine_secs);
        put_u64(put, self.oom_events.len() as u64);
        for (t, name) in &self.oom_events {
            put_f64(put, *t);
            put_str(put, name);
        }
        put_u64(put, self.grouping_snapshots.len() as u64);
        for s in &self.grouping_snapshots {
            put_f64(put, s.time);
            put_u64(put, s.groups.len() as u64);
            for (m, j) in &s.groups {
                put_u64(put, u64::from(*m));
                put_u64(put, *j as u64);
            }
        }
        put_u64(put, self.predictions.len() as u64);
        for p in &self.predictions {
            put_f64(put, p.predicted_iteration);
            put_f64(put, p.realized_iteration);
            put_f64(put, p.predicted_util);
            put_f64(put, p.realized_util);
        }
        put_u64(put, self.sched_invocations as u64);
        put_u64(put, self.migrations as u64);
        put_u64(put, self.failures as u64);
        put_u64(put, u64::from(self.machines_lost));
        put_u64(put, self.jobs_aborted as u64);
        put_f64(put, self.gc_seconds);
        put_stats(put, &self.alpha_stats);
        put_f64(put, self.mean_group_iteration);
        put_stats(put, &self.concurrent_jobs);
        put_u64(put, self.fault_log.len() as u64);
        for ev in self.fault_log.events() {
            put_f64(put, ev.time);
            put_str(put, &ev.kind);
            put_str(put, &ev.detail);
        }
        put_stats(put, &self.recovery_latency);
        // Live-migration stats are appended after every pre-existing
        // field so two arms that never migrate serialize identically
        // up to (and including) this suffix.
        put_u64(put, self.live_migration.started);
        put_u64(put, self.live_migration.completed);
        put_u64(put, self.live_migration.cancelled);
        put_stats(put, &self.live_migration.latency);
        put_stats(put, &self.live_migration.checkpoint_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(jct: Option<f64>) -> JobOutcome {
        JobOutcome {
            name: "j".into(),
            arrival: 0.0,
            finish: jct,
            jct,
            iterations: 1,
            failed: jct.is_none(),
            aborted: false,
            rejected: false,
            final_alpha: 0.0,
        }
    }

    fn report(jobs: Vec<JobOutcome>) -> RunReport {
        RunReport {
            scheduler: "test".into(),
            makespan: 100.0,
            jobs,
            cpu_timeline: Timeline::new("cpu"),
            net_timeline: Timeline::new("net"),
            cpu_busy_machine_secs: 500.0,
            net_busy_machine_secs: 250.0,
            oom_events: Vec::new(),
            grouping_snapshots: Vec::new(),
            predictions: Vec::new(),
            sched_invocations: 0,
            sched_wall: std::time::Duration::ZERO,
            event_wall: std::time::Duration::ZERO,
            resched_reasons: ReschedCounters::default(),
            migrations: 0,
            failures: 0,
            machines_lost: 0,
            jobs_aborted: 0,
            fault_log: EventLog::new(),
            recovery_latency: OnlineStats::new(),
            live_migration: MigrationStats::new(),
            gc_seconds: 0.0,
            alpha_stats: OnlineStats::new(),
            mean_group_iteration: 0.0,
            concurrent_jobs: OnlineStats::new(),
            spans: Vec::new(),
            coalesce_windows: 0,
            coalesced_finishes: 0,
            release_passes: 0,
            coalesce_staleness: Hist::new(),
            admission: AdmissionStats::new(),
        }
    }

    #[test]
    fn mean_jct_skips_failures() {
        let r = report(vec![
            outcome(Some(10.0)),
            outcome(None),
            outcome(Some(30.0)),
        ]);
        assert_eq!(r.mean_jct(), 20.0);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn completed_skips_unfinished_jobs() {
        // A job the run left mid-flight has no finish time but was not
        // failed either.
        let cut_off = JobOutcome {
            failed: false,
            ..outcome(None)
        };
        let r = report(vec![outcome(Some(10.0)), cut_off, outcome(None)]);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn utilization_normalizes_by_machine_time() {
        let r = report(vec![outcome(Some(1.0))]);
        assert!((r.avg_cpu_util(10) - 0.5).abs() < 1e-12);
        assert!((r.avg_net_util(10) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prediction_errors_average() {
        let mut r = report(vec![]);
        r.predictions = vec![
            PredictionSample {
                predicted_iteration: 11.0,
                realized_iteration: 10.0,
                predicted_util: 0.9,
                realized_util: 1.0,
            },
            PredictionSample {
                predicted_iteration: 10.0,
                realized_iteration: 10.0,
                predicted_util: 1.0,
                realized_util: 1.0,
            },
        ];
        assert!((r.mean_iteration_prediction_error() - 0.05).abs() < 1e-12);
        assert!((r.mean_util_prediction_error() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = report(vec![]);
        assert_eq!(r.mean_jct(), 0.0);
        assert_eq!(r.mean_iteration_prediction_error(), 0.0);
    }

    #[test]
    fn canonical_bytes_ignore_wall_clock_but_see_everything_else() {
        let mut a = report(vec![outcome(Some(10.0)), outcome(None)]);
        let mut b = a.clone();
        b.sched_wall = std::time::Duration::from_secs(42);
        b.event_wall = std::time::Duration::from_secs(7);
        b.resched_reasons.bump(ReschedReason::Bootstrap);
        b.coalesce_windows = 3;
        b.coalesced_finishes = 5;
        b.release_passes = 2;
        b.coalesce_staleness.observe(1.5);
        // Admission books are diagnostics too: an open-loop AdmitAll
        // arm (which counts admissions) must serialize identically to
        // the closed-loop arm (which counts nothing).
        b.admission.admit(3.0);
        b.admission.defer();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());

        b.jobs[0].iterations += 1;
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        b.jobs[0].iterations -= 1;
        // ...but the per-job rejection *decision* is canonical.
        b.jobs[0].rejected = true;
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        b.jobs[0].rejected = false;
        b.jobs[0].iterations += 1;

        a.fault_log.record(5.0, "machine-crash", "group 0");
        let mut c = a.clone();
        assert_eq!(a.canonical_bytes(), c.canonical_bytes());
        c.fault_log.record(9.0, "job-abort", "job x");
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());

        let mut d = a.clone();
        d.live_migration.begin(1024.0);
        assert_ne!(a.canonical_bytes(), d.canonical_bytes());
    }

    /// Reads [`RunReport::canonical_bytes`] back, as far as a test needs.
    struct Reader<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Reader<'_> {
        fn u8(&mut self) -> u8 {
            self.at += 1;
            self.bytes[self.at - 1]
        }

        fn u64(&mut self) -> u64 {
            let word = self.bytes[self.at..self.at + 8]
                .try_into()
                .expect("8 bytes");
            self.at += 8;
            u64::from_le_bytes(word)
        }

        /// One timeline as `(time, value)` bit patterns.
        fn timeline(&mut self) -> Vec<(u64, u64)> {
            let len = self.u64() as usize;
            let points: Vec<(u64, u64)> = if self.u8() == 1 {
                let mut time = f64::from_bits(self.u64());
                let step = f64::from_bits(self.u64());
                let mut points = Vec::new();
                for _ in 0..self.u64() {
                    let (value, count) = (self.u64(), self.u64());
                    for _ in 0..count {
                        points.push((time.to_bits(), value));
                        time += step;
                    }
                }
                points
            } else {
                (0..len).map(|_| (self.u64(), self.u64())).collect()
            };
            assert_eq!(points.len(), len);
            points
        }
    }

    fn point_bits(tl: &Timeline) -> Vec<(u64, u64)> {
        tl.points()
            .map(|p| (p.time.to_bits(), p.value.to_bits()))
            .collect()
    }

    #[test]
    fn timelines_decode_from_the_fingerprint_exactly() {
        let mut r = report(vec![]);
        // A regular series whose values repeat, change sign of zero and
        // go NaN; a second one whose cadence breaks after three samples.
        let values = [0.5, 0.5, 0.0, -0.0, -0.0, f64::NAN, 1.0 / 3.0, 1.0 / 3.0];
        let mut now = 0.0;
        for (i, &v) in values.iter().cycle().take(4_000).enumerate() {
            r.cpu_timeline.record(now, v);
            r.net_timeline
                .record(now + if i > 2 { 7.0 } else { 0.0 }, v);
            now += 0.1;
        }
        assert!(r.cpu_timeline.cadence().is_some());
        assert!(r.net_timeline.cadence().is_none());
        for report in [report(vec![]), r] {
            let bytes = report.canonical_bytes();
            assert_eq!(bytes.len(), bytes.capacity(), "sized before it was written");
            let mut read = Reader {
                bytes: &bytes,
                at: 8 + report.scheduler.len() + 8 + 8,
            };
            assert_eq!(read.timeline(), point_bits(&report.cpu_timeline));
            assert_eq!(read.timeline(), point_bits(&report.net_timeline));
            assert_eq!(read.u64(), report.cpu_busy_machine_secs.to_bits());
        }
    }

    #[test]
    fn a_regular_timeline_costs_its_runs_not_its_samples() {
        let mut r = report(vec![]);
        let empty = r.canonical_bytes().len();
        let mut now = 0.0;
        for i in 0..50_000u32 {
            r.cpu_timeline.record(now, f64::from(i / 10_000));
            now += 60.0;
        }
        // The empty series already wrote its length, form tag, start,
        // step and run count: 50 000 samples add 5 runs of (value, count).
        assert_eq!(r.canonical_bytes().len(), empty + 5 * 16);
    }

    #[test]
    fn resched_counters_bump_and_total() {
        let mut c = ReschedCounters::default();
        for reason in [
            ReschedReason::Bootstrap,
            ReschedReason::Profiled,
            ReschedReason::Finished,
            ReschedReason::Drift,
            ReschedReason::AbortRecovery,
            ReschedReason::CrashRecovery,
            ReschedReason::MigrationEscalation,
            ReschedReason::WindowFlush,
        ] {
            c.bump(reason);
        }
        c.bump(ReschedReason::Finished);
        assert_eq!(c.finished, 2);
        assert_eq!(c.bootstrap, 1);
        assert_eq!(c.window_flush, 1);
        assert_eq!(c.total(), 9);
    }
}
