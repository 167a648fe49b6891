//! The four simulator workloads: `harmony-sim` driving `harmony-core`
//! over inputs from `harmony-trace`.
//!
//! Everything is measured from outside: the timed section is one call
//! of `Driver::run` / `Driver::run_open_loop`, and every per-layer
//! number is a public `RunReport` field or a timer around a public
//! function of the layer.

use std::time::Instant;

use harmony_core::{
    cluster_utilization, group_iteration_time, JobId, JobProfile, JobSpec, Scheduler,
    SchedulerConfig,
};
use harmony_sim::{
    Driver, ReloadPolicy, RunReport, SchedulerKind, SimConfig, UtilityThreshold, WorkloadGen,
    WorkloadGenConfig,
};
use harmony_trace::{faults, workload_with, WorkloadParams};

use crate::measure::{fnv1a, peak_rss_mib, repeat_for, time_call, Outcome, RunArgs, SETUPS};
use crate::stats::median;

/// `sim_open_churn`, calibrated once and frozen (see the README): at
/// this arrival rate the utility-threshold policy admits 67–70 % of
/// the offers, the churn plan expects 8 crashes (4 % of the machines),
/// and every admitted job is terminal long before the 60-day
/// simulation cap. Arrivals end near 3.2 M simulated seconds.
pub const OPEN_OFFERS: usize = 1280;
pub const OPEN_MACHINES: u32 = 200;
pub const OPEN_MEAN_INTERARRIVAL_SECS: f64 = 2500.0;
pub const OPEN_CHURN_MTBF_SECS: f64 = OPEN_OFFERS as f64 * OPEN_MEAN_INTERARRIVAL_SECS / 8.0;
pub const OPEN_ADMISSION: UtilityThreshold = UtilityThreshold {
    threshold: 0.02,
    reject_after: Some(8),
};
/// The invariants the calibration has to keep on every seed.
pub const OPEN_MIN_ADMITTED_FRAC: f64 = 0.60;
pub const OPEN_MAX_MACHINES_LOST_FRAC: f64 = 0.10;

/// One simulator workload with its inputs generated: `variants` runs
/// that differ only in the sub-seed their noise, arrivals and faults
/// are drawn from.
///
/// The scheduler's decisions are chaotic in that noise (at 640 jobs a
/// different straggler seed moved mean JCT by up to 27 % and host time
/// by 2x), so one seed's run says little. A *cycle* runs every variant
/// once; simulated metrics are means over the cycle and host time is
/// per cycle, which is what keeps a run comparable with a run on
/// another `--seed`.
struct SimCase {
    /// The job set of a batch run, or the template catalog of an
    /// open-loop one. The same for every variant.
    specs: Vec<JobSpec>,
    variants: Vec<Variant>,
    machines: u32,
    /// Full scale of `sim_open_churn`: hold it to its calibration.
    calibrated: bool,
    /// Host seconds `harmony_trace::workload_with` took.
    build_secs: f64,
    /// Host seconds draining the `WorkloadGen`s took (0 for batch runs).
    gen_secs: f64,
}

struct Variant {
    cfg: SimConfig,
    /// `Some`: offers come from this generator through admission.
    open: Option<WorkloadGen>,
    /// Jobs offered per rep.
    offered: usize,
}

fn harmony(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        scheduler: SchedulerKind::Harmony,
        reload: ReloadPolicy::Adaptive,
        ..SimConfig::default()
    }
}

/// Generates the inputs of workload `name` from `seed`.
fn build_case(name: &str, seed: u64, smoke: bool) -> SimCase {
    let pick = |full: u32, tiny: u32| if smoke { tiny } else { full };
    // (base config, job mix, variants per cycle, open-loop offers). The
    // variant count makes one cycle about 3 to 5 host seconds at full
    // scale.
    let (base, params, variants, offers) = match name {
        "sim_batch_exact" => (
            harmony(pick(400, 20)),
            WorkloadParams {
                hyper_params: pick(40, 2),
                ..WorkloadParams::default()
            },
            pick(8, 2),
            None,
        ),
        "sim_batch_coalesced" => (
            SimConfig {
                coalesced_passes: true,
                coalesce_window: 6000.0,
                coalesce_max_batch: 64,
                ..harmony(pick(3200, 80))
            },
            WorkloadParams {
                hyper_params: pick(320, 8),
                ..WorkloadParams::default()
            },
            pick(6, 2),
            None,
        ),
        "sim_long_jobs" => (
            SimConfig {
                straggler_cv: 0.1,
                ..harmony(pick(100, 20))
            },
            WorkloadParams {
                hyper_params: pick(5, 1),
                epoch_scale: if smoke { 5.0 } else { 100.0 },
                ..WorkloadParams::default()
            },
            pick(16, 2),
            None,
        ),
        "sim_open_churn" => (
            SimConfig {
                straggler_cv: 0.1,
                ..harmony(pick(OPEN_MACHINES, 40))
            },
            WorkloadParams::default(),
            pick(32, 2),
            Some(if smoke { 48 } else { OPEN_OFFERS }),
        ),
        other => unreachable!("{other} is not a simulator workload"),
    };

    let t = Instant::now();
    let specs = workload_with(params);
    let build_secs = t.elapsed().as_secs_f64();

    let mut gen_secs = 0.0;
    let variants = (0..u64::from(variants))
        .map(|i| {
            // Sub-seed of variant i: distinct for every (seed, i) the
            // gate can ask for.
            let seed = seed.wrapping_mul(1_000_003).wrapping_add(i);
            let Some(offers) = offers else {
                return Variant {
                    cfg: SimConfig {
                        seed,
                        ..base.clone()
                    },
                    open: None,
                    offered: specs.len(),
                };
            };
            let arrivals_end = offers as f64 * OPEN_MEAN_INTERARRIVAL_SECS;
            let mtbf = if smoke {
                arrivals_end / 2.0
            } else {
                OPEN_CHURN_MTBF_SECS
            };
            let gen_cfg = WorkloadGenConfig {
                seed,
                mean_interarrival_secs: OPEN_MEAN_INTERARRIVAL_SECS,
                // Twice the expected span of the arrivals, so the job
                // cap ends the trace and every seed offers `offers`.
                horizon_secs: 2.0 * arrivals_end,
                max_jobs: offers,
            };
            let t = Instant::now();
            let gen = WorkloadGen::new(gen_cfg, specs.clone()).expect("valid generator config");
            let offered = gen.clone().generate().0.len();
            gen_secs += t.elapsed().as_secs_f64();
            Variant {
                cfg: SimConfig {
                    seed,
                    fault_plan: Some(faults::churn(seed, arrivals_end, mtbf)),
                    ..base.clone()
                },
                open: Some(gen),
                offered,
            }
        })
        .collect();
    SimCase {
        specs,
        variants,
        machines: base.machines,
        calibrated: offers.is_some() && !smoke,
        build_secs,
        gen_secs,
    }
}

/// One timed call into the simulator: the report and its host seconds.
/// Input copies are made before the clock starts.
fn run_once(case: &SimCase, variant: &Variant, record_spans: bool) -> (RunReport, f64) {
    let cfg = SimConfig {
        record_spans,
        ..variant.cfg.clone()
    };
    match &variant.open {
        None => {
            let specs = case.specs.clone();
            let arrivals = vec![0.0; specs.len()];
            let t = Instant::now();
            let report = Driver::run(cfg, specs, arrivals);
            (report, t.elapsed().as_secs_f64())
        }
        Some(gen) => {
            let gen = gen.clone();
            let policy = Box::new(OPEN_ADMISSION);
            let t = Instant::now();
            let report = Driver::run_open_loop(cfg, gen, policy).expect("valid open-loop request");
            (report, t.elapsed().as_secs_f64())
        }
    }
}

fn digest(report: &RunReport) -> String {
    fnv1a([report.canonical_bytes()])
}

fn job_iterations(report: &RunReport) -> u64 {
    report.jobs.iter().map(|j| j.iterations).sum()
}

/// Jobs that neither completed nor were turned away or killed by
/// something the workload injected: OOM kills and jobs still running
/// at the simulation cap.
fn unexpected_failures(report: &RunReport) -> usize {
    report
        .jobs
        .iter()
        .filter(|j| j.jct.is_none() && !j.rejected && !j.aborted)
        .count()
}

/// Checks every rep's report must pass. `reference` is the digest the
/// variant's first rep produced.
fn check_report(
    out: &mut Outcome,
    case: &SimCase,
    variant: &Variant,
    report: &RunReport,
    reference: &str,
) {
    let got = digest(report);
    out.check(got == reference, || {
        format!(
            "sub-seed {}: canonical digest {got} differs from its first rep's {reference}",
            variant.cfg.seed
        )
    });
    out.check(report.jobs.len() == variant.offered, || {
        format!(
            "{} jobs reported, {} offered",
            report.jobs.len(),
            variant.offered
        )
    });
    let lost = unexpected_failures(report);
    out.check(lost == 0, || {
        format!("{lost} jobs neither completed nor were rejected or aborted by the fault plan")
    });
    let a = &report.admission;
    let offered = variant.offered as u64;
    if variant.open.is_some() {
        // Every offer ends admitted or rejected, except one the fault
        // plan aborts while it is still queued: the driver drops its
        // re-offer without booking it either way.
        let booked = a.admitted + a.rejected;
        out.check(
            booked <= offered && offered - booked <= report.jobs_aborted as u64,
            || {
                format!(
                    "admission books: {} admitted + {} rejected against {offered} offered, {} aborted",
                    a.admitted, a.rejected, report.jobs_aborted
                )
            },
        );
    } else {
        let done = report.jobs.iter().filter(|j| j.jct.is_some()).count();
        out.check(done == variant.offered, || {
            format!("{done} of {offered} batch jobs completed")
        });
    }
    if case.calibrated {
        let admitted = a.admitted as f64 / offered as f64;
        out.check(admitted >= OPEN_MIN_ADMITTED_FRAC, || {
            format!(
                "calibration, sub-seed {}: only {admitted:.3} of the offers admitted",
                variant.cfg.seed
            )
        });
        let lost = f64::from(report.machines_lost) / f64::from(case.machines);
        out.check(lost <= OPEN_MAX_MACHINES_LOST_FRAC, || {
            format!(
                "calibration, sub-seed {}: {lost:.3} of the machines lost",
                variant.cfg.seed
            )
        });
    }
}

/// One rep of every variant, in order. Each report is checked against
/// the digest in `references` (filled on a variant's first rep), booked
/// in `attempted` / `failed`, and handed to `each` with its host seconds.
fn cycle(
    out: &mut Outcome,
    case: &SimCase,
    references: &mut [Option<String>],
    record_spans: bool,
    mut each: impl FnMut(RunReport, f64),
) {
    for (i, variant) in case.variants.iter().enumerate() {
        let (report, wall) = run_once(case, variant, record_spans);
        let reference = references[i].get_or_insert_with(|| digest(&report)).clone();
        check_report(out, case, variant, &report, &reference);
        out.attempted += variant.offered as u64;
        out.failed += unexpected_failures(&report) as u64;
        each(report, wall);
    }
}

fn mean_of(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

fn sum_of(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    reports.iter().map(f).sum()
}

/// Runs one simulator workload.
pub fn run(name: &str, args: RunArgs) -> Outcome {
    let mut out = Outcome::new();

    // Set-up, SETUPS times over: generate every variant's inputs and
    // run one untimed warm-up rep (of the first variant).
    let mut setup_secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let case = build_case(name, args.seed, args.smoke);
        let (warm, _) = run_once(&case, &case.variants[0], false);
        setup_secs.push(t.elapsed().as_secs_f64());
        last = Some((case, digest(&warm)));
    }
    let (case, warm_digest) = last.expect("SETUPS >= 1");
    let mut references = vec![None; case.variants.len()];
    references[0] = Some(warm_digest);

    if args.trace {
        traced(&mut out, &case, &mut references, args);
    } else {
        // Whole cycles until the clock runs out. The simulated metrics
        // are the first cycle's; each report is dropped once read, so
        // peak memory is one simulation's and not a cycle's.
        let (mut jct, mut makespan, mut cpu_util) = (0.0, 0.0, 0.0);
        let mut iters_per_s = Vec::new();
        repeat_for(args.seconds, 1, |n| {
            let (mut iters, mut secs) = (0, 0.0);
            cycle(&mut out, &case, &mut references, false, |report, wall| {
                iters += job_iterations(&report);
                secs += wall;
                if n == 0 {
                    jct += report.mean_jct();
                    makespan += report.makespan;
                    cpu_util += report.avg_cpu_util(case.machines);
                }
            });
            iters_per_s.push(iters as f64 / secs);
        });
        let variants = case.variants.len() as f64;
        out.sampled("setup_s", &setup_secs);
        out.sampled("job_iters_per_s", &iters_per_s);
        out.exact("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
        out.exact("mean_jct_s", jct / variants);
        out.exact("makespan_s", makespan / variants);
        out.exact("cpu_util", cpu_util / variants);
    }
    out.digest = fnv1a(references.iter().flatten());
    out
}

/// The traced run: each cycle runs every variant untraced and then
/// span-recording, so the overhead is a ratio of medians taken under
/// the same conditions; then the layers under the driver are timed
/// directly. Counts and seconds are sums over one cycle, fractions are
/// means over its variants.
fn traced(out: &mut Outcome, case: &SimCase, references: &mut [Option<String>], args: RunArgs) {
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut sched_secs, mut event_secs, mut share) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let mut spans = 0;
    repeat_for(args.seconds, 1, |n| {
        let (mut wall_sum, mut sched, mut event) = (0.0, 0.0, 0.0);
        cycle(out, case, references, false, |report, wall| {
            wall_sum += wall;
            sched += report.sched_wall.as_secs_f64();
            event += report.event_wall.as_secs_f64();
            if n == 0 {
                reports.push(report);
            }
        });
        plain_wall.push(wall_sum);
        sched_secs.push(sched);
        event_secs.push(event);
        share.push(sched / wall_sum);

        // Spans are diagnostics: recording them must not move a byte
        // of the canonical report, which `cycle` checks.
        let mut wall_sum = 0.0;
        cycle(out, case, references, true, |report, wall| {
            wall_sum += wall;
            if n == 0 {
                spans += report.spans.len();
            }
        });
        traced_wall.push(wall_sum);
    });
    let machines = case.machines;
    let iters = sum_of(&reports, |r| job_iterations(r) as f64);
    let (busy, event) = (median(&sched_secs), median(&event_secs));
    let passes = sum_of(&reports, |r| r.sched_invocations as f64);
    let offered: usize = case.variants.iter().map(|v| v.offered).sum();

    out.exact("run.wall_s", median(&plain_wall));
    out.exact("run.reps", (plain_wall.len() * case.variants.len()) as f64);
    out.exact("run.job_iters", iters);

    out.exact("core.schedule.passes", passes);
    out.sampled("core.schedule.busy_s", &sched_secs);
    out.exact("core.schedule.pass_mean_ms", 1e3 * busy / passes.max(1.0));
    out.sampled("core.schedule.share", &share);
    type Reason = fn(&harmony_sim::ReschedCounters) -> usize;
    let reasons: [(&'static str, Reason); 8] = [
        ("core.resched.bootstrap", |c| c.bootstrap),
        ("core.resched.profiled", |c| c.profiled),
        ("core.resched.finished", |c| c.finished),
        ("core.resched.drift", |c| c.drift),
        ("core.resched.crash_recovery", |c| c.crash_recovery),
        ("core.resched.abort_recovery", |c| c.abort_recovery),
        ("core.resched.unstall", |c| c.unstall),
        ("core.resched.window_flush", |c| c.window_flush),
    ];
    for (name, count) in reasons {
        out.exact(name, sum_of(&reports, |r| count(&r.resched_reasons) as f64));
    }

    out.sampled("sim.driver.event_s", &event_secs);
    out.exact("sim.driver.event_ns_per_iter", 1e9 * event / iters.max(1.0));
    out.exact("sim.driver.subtasks", spans as f64);
    out.exact(
        "sim.spans.overhead_frac",
        median(&traced_wall) / median(&plain_wall) - 1.0,
    );
    out.exact(
        "sim.exec.comp_busy_frac",
        mean_of(&reports, |r| r.avg_cpu_util(machines)),
    );
    out.exact(
        "sim.exec.comm_busy_frac",
        mean_of(&reports, |r| r.avg_net_util(machines)),
    );
    out.exact(
        "sim.admission.admitted",
        sum_of(&reports, |r| r.admission.admitted as f64),
    );
    out.exact(
        "sim.admission.deferred",
        sum_of(&reports, |r| r.admission.deferred as f64),
    );
    out.exact(
        "sim.admission.rejected",
        sum_of(&reports, |r| r.admission.rejected as f64),
    );
    out.exact(
        "sim.admission.forced",
        sum_of(&reports, |r| r.admission.forced as f64),
    );
    // Bucket resolution (a power of two), capped by the exact maximum.
    out.exact(
        "sim.admission.wait_p95_s",
        mean_of(&reports, |r| {
            let wait = &r.admission.queue_wait;
            wait.quantile_bound(0.95)
                .zip(wait.max())
                .map_or(0.0, |(bound, max)| bound.min(max))
        }),
    );
    out.exact(
        "sim.fault.machines_lost",
        sum_of(&reports, |r| f64::from(r.machines_lost)),
    );
    out.exact(
        "sim.fault.jobs_aborted",
        sum_of(&reports, |r| r.jobs_aborted as f64),
    );
    let recoveries = sum_of(&reports, |r| r.recovery_latency.count() as f64);
    out.exact(
        "sim.fault.recovery_mean_s",
        sum_of(&reports, |r| r.recovery_latency.sum()) / recoveries.max(1.0),
    );
    out.exact(
        "sim.coalesce.windows",
        sum_of(&reports, |r| r.coalesce_windows as f64),
    );
    out.exact(
        "sim.coalesce.release_passes",
        sum_of(&reports, |r| r.release_passes as f64),
    );
    out.exact(
        "sim.coalesce.staleness_max_s",
        reports
            .iter()
            .filter_map(|r| r.coalesce_staleness.max())
            .fold(0.0, f64::max),
    );
    out.exact("sim.mem.gc_s", sum_of(&reports, |r| r.gc_seconds));
    out.exact(
        "sim.mem.ooms",
        sum_of(&reports, |r| r.oom_events.len() as f64),
    );
    let alphas = sum_of(&reports, |r| r.alpha_stats.count() as f64);
    out.exact(
        "sim.mem.alpha_mean",
        sum_of(&reports, |r| r.alpha_stats.sum()) / alphas.max(1.0),
    );
    out.exact("sim.workload.gen_s", case.gen_secs);
    out.exact(
        "sim.report.pred_err_iter",
        mean_of(&reports, RunReport::mean_iteration_prediction_error),
    );
    let completed = sum_of(&reports, |r| {
        r.jobs.iter().filter(|j| j.jct.is_some()).count() as f64
    });
    out.exact("sim.report.failed_frac", 1.0 - completed / offered as f64);
    out.exact("trace.workload.build_ms", 1e3 * case.build_secs);

    core_direct(out, case, args.smoke);
}

/// Times `harmony-core` with no simulator around it, on warm profiles
/// of the workload's own job mix at its cluster size.
fn core_direct(out: &mut Outcome, case: &SimCase, smoke: bool) {
    let budget = if smoke { 0.02 } else { 0.5 };
    let profiles: Vec<JobProfile> = case
        .specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut p = JobProfile::from_reference(JobId::new(i as u64), s.comp_cost, s.net_cost);
            p.set_memory_footprint(s.input_bytes, s.model_bytes);
            p
        })
        .collect();
    let machines = case.machines;
    let scheduler = Scheduler::new(SchedulerConfig::default());

    let cold = time_call(3, budget, || scheduler.schedule(&profiles, machines));
    out.exact("core.schedule.cold_ms", 1e3 * cold);
    let build = time_call(5, budget / 2.0, || {
        harmony_core::scratch::ProfileCache::build(&profiles)
    });
    out.exact("core.scratch.cache_build_ms", 1e3 * build);

    let outcome = scheduler.schedule(&profiles, machines);
    let groups: Vec<(Vec<&JobProfile>, u32)> = outcome
        .grouping
        .groups()
        .iter()
        .map(|g| {
            let members = g
                .jobs()
                .iter()
                .map(|j| &profiles[j.index() as usize])
                .collect();
            (members, g.dop())
        })
        .collect();
    if groups.is_empty() {
        return;
    }
    let all_groups = time_call(20, budget / 4.0, || {
        groups
            .iter()
            .map(|(members, m)| group_iteration_time(members, *m))
            .sum::<f64>()
    });
    out.exact(
        "core.model.group_iter_ns",
        1e9 * all_groups / groups.len() as f64,
    );
    let util = time_call(20, budget / 4.0, || cluster_utilization(&groups));
    out.exact("core.model.cluster_util_us", 1e6 * util);
}
