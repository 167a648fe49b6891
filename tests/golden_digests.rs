//! Frozen output digests: FNV-1a over a run report's fingerprint for
//! small scenarios, one per driver regime.
//!
//! These constants are the spec of simulated behaviour: a change that
//! means to keep it must leave every one alone. The first batch was
//! captured on the commit before the driver's scans moved onto the
//! live-job and alive-group indices (DESIGN.md §7 "O(active) driver
//! state"). A second batch — oracle and baseline schedulers,
//! profile-error injection, MTBF failures, drift-driven live migration,
//! stragglers under the static-fit reload policy — was captured on the
//! commit before `driver.rs` became `driver/` and the scheduling entry
//! points were merged. The `tiny_*` cells were captured from the
//! simulator's reference arms — the original event path, the
//! whole-cluster regrouper and exhaustive candidate scans — and held on
//! every arm before those arms were retired. Every cell was
//! re-captured once when straggler noise became keyed and each group
//! began running on its own clock (DESIGN.md §7), a change of simulated
//! behaviour; the two coalesced cells moved to seed 20 then, to keep
//! running a release pass. Seven cells (`coalesced_batch`, both
//! `error_injection` arms, `open_loop_utility_churn`,
//! `stragglers_static_fit`, `random_draw_4`, `tiny_staggered`) were
//! re-captured once more when a finish whose backlog already mandates
//! a full pass stopped running the regrouper's escalation ladder
//! (DESIGN.md §7 "Event-path asymptotics"). Every cell was re-captured
//! once more when α moved onto its 2⁻¹² block grid and group memory
//! onto exact integer books, one memory plan per group build (DESIGN.md
//! §7 "One memory arm"). Sixteen cells (both `error_injection` arms,
//! `mtbf_failures`, `oracle_staggered`, `stragglers_static_fit`,
//! `tiny_batch`, `tiny_batch_oracle`, `tiny_single_crash`,
//! `tiny_churn`, `random_draw_1`–`5`, `regroup_harmony` and
//! `regroup_harmony_churn`) were re-captured when every Algorithm 1
//! candidate of a prefix of up to 64 jobs moved onto the prefix's one
//! seed-DoP order (DESIGN.md §7 "One order per prefix"). A change that
//! does mean to change behaviour
//! re-captures them (`GOLDEN_PRINT=1 cargo test --test golden_digests
//! -- --nocapture`) and says why.
//!
//! Each scenario pins two digests. `legacy` is taken of the report in
//! the fingerprint's first format, one `(time, value)` pair per
//! utilization sample, which `legacy_bytes` rebuilds from public
//! fields; it was proven equal to `canonical_bytes` on the commit
//! before utilization timelines were stored as runs, so these frozen
//! values still speak for every simulated bit. `v2` is taken of
//! `canonical_bytes` as written since, which stores a regular timeline
//! as its cadence and value runs; it moves with the format as well as
//! with behaviour.

use harmony::core::oracle::OracleScheduler;
use harmony::core::{AppKind, JobSpec, SyncKind};
use harmony::mem::GcModel;
use harmony::metrics::{OnlineStats, Timeline};
use harmony::sim::{
    CompShift, Driver, FaultKind, FaultPlan, FaultRates, QueueCap, ReloadPolicy, RunReport,
    SchedulerKind, SimConfig, UtilityThreshold, WorkloadGen, WorkloadGenConfig,
};
use harmony::trace::{faults, workload_with, WorkloadParams};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn specs(hyper_params: u32, take: usize) -> Vec<JobSpec> {
    workload_with(WorkloadParams {
        hyper_params,
        epoch_scale: 0.3,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(take)
    .collect()
}

fn cfg(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        scheduler: SchedulerKind::Harmony,
        seed: 17,
        ..SimConfig::default()
    }
}

/// The report's fingerprint in its first format — one `(time, value)`
/// pair per utilization sample — rebuilt from public fields only, so
/// the frozen digests keep pinning the same bytes whatever
/// `canonical_bytes` itself writes.
fn legacy_bytes(r: &RunReport) -> Vec<u8> {
    fn f64_(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn u64_(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn str_(out: &mut Vec<u8>, s: &str) {
        u64_(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    fn timeline(out: &mut Vec<u8>, tl: &Timeline) {
        u64_(out, tl.len() as u64);
        for p in tl.points() {
            f64_(out, p.time);
            f64_(out, p.value);
        }
    }
    fn stats(out: &mut Vec<u8>, s: &OnlineStats) {
        u64_(out, s.count());
        if s.count() > 0 {
            f64_(out, s.mean());
            f64_(out, s.min().unwrap_or(f64::NAN));
            f64_(out, s.max().unwrap_or(f64::NAN));
            f64_(out, s.sum());
        }
    }
    let mut out = Vec::new();
    str_(&mut out, &r.scheduler);
    f64_(&mut out, r.makespan);
    u64_(&mut out, r.jobs.len() as u64);
    for j in &r.jobs {
        str_(&mut out, &j.name);
        f64_(&mut out, j.arrival);
        f64_(&mut out, j.finish.unwrap_or(f64::NEG_INFINITY));
        f64_(&mut out, j.jct.unwrap_or(f64::NEG_INFINITY));
        u64_(&mut out, j.iterations);
        out.push(u8::from(j.failed));
        out.push(u8::from(j.aborted));
        out.push(u8::from(j.rejected));
        f64_(&mut out, j.final_alpha);
    }
    timeline(&mut out, &r.cpu_timeline);
    timeline(&mut out, &r.net_timeline);
    f64_(&mut out, r.cpu_busy_machine_secs);
    f64_(&mut out, r.net_busy_machine_secs);
    u64_(&mut out, r.oom_events.len() as u64);
    for (t, name) in &r.oom_events {
        f64_(&mut out, *t);
        str_(&mut out, name);
    }
    u64_(&mut out, r.grouping_snapshots.len() as u64);
    for s in &r.grouping_snapshots {
        f64_(&mut out, s.time);
        u64_(&mut out, s.groups.len() as u64);
        for (m, j) in &s.groups {
            u64_(&mut out, u64::from(*m));
            u64_(&mut out, *j as u64);
        }
    }
    u64_(&mut out, r.predictions.len() as u64);
    for p in &r.predictions {
        f64_(&mut out, p.predicted_iteration);
        f64_(&mut out, p.realized_iteration);
        f64_(&mut out, p.predicted_util);
        f64_(&mut out, p.realized_util);
    }
    u64_(&mut out, r.sched_invocations as u64);
    u64_(&mut out, r.migrations as u64);
    u64_(&mut out, r.failures as u64);
    u64_(&mut out, u64::from(r.machines_lost));
    u64_(&mut out, r.jobs_aborted as u64);
    f64_(&mut out, r.gc_seconds);
    stats(&mut out, &r.alpha_stats);
    f64_(&mut out, r.mean_group_iteration);
    stats(&mut out, &r.concurrent_jobs);
    u64_(&mut out, r.fault_log.len() as u64);
    for ev in r.fault_log.events() {
        f64_(&mut out, ev.time);
        str_(&mut out, &ev.kind);
        str_(&mut out, &ev.detail);
    }
    stats(&mut out, &r.recovery_latency);
    u64_(&mut out, r.live_migration.started);
    u64_(&mut out, r.live_migration.completed);
    u64_(&mut out, r.live_migration.cancelled);
    stats(&mut out, &r.live_migration.latency);
    stats(&mut out, &r.live_migration.checkpoint_bytes);
    out
}

/// A scenario's two pinned digests: of its report in the first
/// fingerprint format (`legacy_bytes`; frozen across commits) and of
/// `canonical_bytes` as written since utilization timelines are stored
/// as runs.
#[derive(Clone, Copy)]
struct Golden {
    legacy: u64,
    v2: u64,
}

fn assert_golden(label: &str, report: &RunReport, want: Golden) {
    let legacy = fnv1a(&legacy_bytes(report));
    let v2 = fnv1a(&report.canonical_bytes());
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {label}: legacy {legacy:#018x}, v2 {v2:#018x}");
        return;
    }
    assert_eq!(
        legacy, want.legacy,
        "{label}: simulated output moved ({legacy:#018x}, frozen {:#018x})",
        want.legacy
    );
    assert_eq!(
        v2, want.v2,
        "{label}: canonical_bytes digest moved ({v2:#018x}, pinned {:#018x})",
        want.v2
    );
}

/// Closed loop: a batch at t = 0 under Harmony, exact per-finish passes.
#[test]
fn closed_batch_harmony() {
    let jobs = specs(3, 20);
    let arrivals = vec![0.0; jobs.len()];
    let r = Driver::run(cfg(24), jobs, arrivals);
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("closed_batch_harmony", &r, CLOSED_BATCH_HARMONY);
}

/// The `coalesced_batch` scenario at noise seed `seed`: closed loop
/// with coalesced reschedule passes, 64 jobs on 16 machines.
fn coalesced_batch_run(seed: u64) -> RunReport {
    let jobs = specs(8, 64);
    let arrivals = vec![0.0; jobs.len()];
    let cfg = SimConfig {
        coalesced_passes: true,
        coalesce_window: 200.0,
        seed,
        ..cfg(16)
    };
    Driver::run(cfg, jobs, arrivals)
}

/// Closed loop with coalesced reschedule passes; 64 jobs on 16
/// machines so windows gather many finishes and a targeted release
/// pass runs. Whether a finish frees machines while jobs wait is up to
/// the noise: seed 20 is one where it does
/// (`coalesced_cells_run_release_passes_across_seeds` counts the seeds).
#[test]
fn coalesced_batch() {
    let r = coalesced_batch_run(20);
    assert_eq!(r.completed(), r.jobs.len());
    assert!(r.coalesce_windows > 0, "the scenario must open windows");
    assert!(r.release_passes > 0, "the scenario must run a release pass");
    assert_golden("coalesced_batch", &r, COALESCED_BATCH);
}

/// Open loop: Poisson offers priced by `UtilityThreshold` (with a
/// rejection budget) under a crash/slowdown/abort plan — the small twin
/// of the benchmark's `sim_open_churn`.
#[test]
fn open_loop_utility_churn() {
    let gen = WorkloadGen::new(
        WorkloadGenConfig {
            seed: 5,
            mean_interarrival_secs: 45.0,
            horizon_secs: 40_000.0,
            max_jobs: 48,
        },
        specs(2, 8),
    )
    .expect("valid generator");
    let r = Driver::run_open_loop(
        SimConfig {
            fault_plan: Some(faults::churn(23, 6_000.0, 1_500.0)),
            ..cfg(16)
        },
        gen,
        Box::new(UtilityThreshold {
            threshold: 0.02,
            reject_after: Some(4),
        }),
    )
    .expect("valid run");
    assert!(r.admission.admitted > 0 && r.admission.deferred > 0);
    assert!(r.admission.rejected > 0, "the scenario must reject offers");
    assert!(r.jobs_aborted > 0, "the plan must abort jobs");
    assert_golden("open_loop_utility_churn", &r, OPEN_LOOP_UTILITY_CHURN);
}

/// A burst at t = 0 through a tight `QueueCap`: same-instant offers
/// must count each other as backlog before their events fire.
#[test]
fn burst_queue_cap() {
    let jobs = specs(2, 8);
    let arrivals = vec![0.0; jobs.len()];
    let r = Driver::run_admitted(cfg(16), jobs, arrivals, Box::new(QueueCap::new(2)))
        .expect("valid run");
    assert!(r.admission.deferred > 0);
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("burst_queue_cap", &r, BURST_QUEUE_CAP);
}

/// A plan-driven abort that fires while nothing is placed falls back to
/// any live job — including one whose arrival lies in the future. The
/// victim choice is part of the bytes.
#[test]
fn abort_before_arrival() {
    let jobs = specs(1, 4);
    let arrivals = vec![500.0, 900.0, 1_300.0, 1_700.0];
    let plan = faults::scripted(
        3,
        [(10.0, FaultKind::JobAbort), (20.0, FaultKind::JobAbort)],
    );
    let r = Driver::run(
        SimConfig {
            fault_plan: Some(plan),
            ..cfg(8)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.jobs_aborted, 2);
    let aborted: Vec<&harmony::sim::JobOutcome> = r.jobs.iter().filter(|j| j.aborted).collect();
    assert_eq!(aborted.len(), 2);
    assert!(aborted.iter().all(|j| j.failed && j.iterations == 0));
    assert_eq!(
        r.completed(),
        2,
        "the two survivors still run to completion"
    );
    assert_golden("abort_before_arrival", &r, ABORT_BEFORE_ARRIVAL);
}

/// Arrivals `gap` seconds apart, so finishes, profilings and regroup
/// decisions interleave instead of all landing on the bootstrap pass.
fn staggered(n: usize, gap: f64) -> Vec<f64> {
    (0..n).map(|i| gap * i as f64).collect()
}

/// The exact oracle in place of Algorithm 1 on every full pass.
#[test]
fn oracle_staggered() {
    let jobs = specs(1, 8);
    assert!(jobs.len() <= OracleScheduler::MAX_JOBS);
    let arrivals = staggered(jobs.len(), 40.0);
    let r = Driver::run(
        SimConfig {
            scheduler: SchedulerKind::Oracle,
            ..cfg(12)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("oracle_staggered", &r, ORACLE_STAGGERED);
}

/// The dedicated-allocation baseline: FIFO admission at the CPU knee.
#[test]
fn isolated_staggered() {
    let jobs = specs(2, 16);
    let arrivals = staggered(jobs.len(), 25.0);
    let r = Driver::run(
        SimConfig {
            scheduler: SchedulerKind::Isolated,
            ..cfg(24)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("isolated_staggered", &r, ISOLATED_STAGGERED);
}

/// The naive co-location baseline: seeded packing, contended subtasks.
#[test]
fn naive_staggered() {
    let jobs = specs(2, 16);
    let arrivals = staggered(jobs.len(), 25.0);
    let r = Driver::run(
        SimConfig {
            scheduler: SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 2,
            },
            ..cfg(24)
        },
        jobs,
        arrivals,
    );
    assert!(r.completed() > 0);
    assert_golden("naive_staggered", &r, NAIVE_STAGGERED);
}

/// Persistent profile-error injection (Figure 13a) under exact passes:
/// every profile the scheduler or the regrouper sees is biased.
#[test]
fn error_injection_exact() {
    let jobs = specs(3, 20);
    let arrivals = staggered(jobs.len(), 15.0);
    let r = Driver::run(
        SimConfig {
            error_injection: 0.3,
            ..cfg(24)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("error_injection_exact", &r, ERROR_INJECTION_EXACT);
}

/// Error injection under coalesced passes: the targeted release pass
/// gathers biased profiles too (seed 20, as in `coalesced_batch`).
#[test]
fn error_injection_coalesced() {
    let r = error_injection_coalesced_run(20);
    assert_eq!(r.completed(), r.jobs.len());
    assert!(r.release_passes > 0, "the scenario must run a release pass");
    assert_golden("error_injection_coalesced", &r, ERROR_INJECTION_COALESCED);
}

/// The `error_injection_coalesced` scenario at noise seed `seed`.
fn error_injection_coalesced_run(seed: u64) -> RunReport {
    let jobs = specs(8, 64);
    let arrivals = vec![0.0; jobs.len()];
    let cfg = SimConfig {
        error_injection: 0.3,
        coalesced_passes: true,
        coalesce_window: 100.0,
        seed,
        ..cfg(16)
    };
    Driver::run(cfg, jobs, arrivals)
}

/// The two coalesced cells above pin seed 20, one draw of whether a
/// finish frees machines while jobs wait. Over seeds 10–29, the commit
/// before α moved onto its block grid ran a release pass on 20 of 20
/// seeds in `coalesced_batch`'s scenario and on 17 of 20 in
/// `error_injection_coalesced`'s; those counts are the bounds.
#[test]
fn coalesced_cells_run_release_passes_across_seeds() {
    let count = |run: fn(u64) -> RunReport| {
        (10..30)
            .filter(|&seed| run(seed).release_passes > 0)
            .count()
    };
    let batch = count(coalesced_batch_run);
    let errors = count(error_injection_coalesced_run);
    assert!(
        batch >= 20,
        "coalesced_batch ran a release pass on {batch} of seeds 10-29"
    );
    assert!(
        errors >= 17,
        "error_injection_coalesced ran a release pass on {errors} of seeds 10-29"
    );
}

/// Error injection under staggered arrivals on a smaller cluster: the
/// biased profiles reach the regrouper's decisions as well as the full
/// passes.
#[test]
fn error_injection_reference_arms() {
    let jobs = specs(2, 12);
    let arrivals = staggered(jobs.len(), 15.0);
    let r = Driver::run(
        SimConfig {
            error_injection: 0.3,
            ..cfg(16)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden(
        "error_injection_reference_arms",
        &r,
        ERROR_INJECTION_REFERENCE_ARMS,
    );
}

/// MTBF-driven machine failures (§VI): members roll back to their
/// epoch checkpoint and restart in place.
#[test]
fn mtbf_failures() {
    let jobs = specs(2, 12);
    let arrivals = staggered(jobs.len(), 20.0);
    let r = Driver::run(
        SimConfig {
            failure_mtbf_secs: Some(400.0),
            ..cfg(16)
        },
        jobs,
        arrivals,
    );
    assert!(r.failures > 0, "the scenario must inject failures");
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("mtbf_failures", &r, MTBF_FAILURES);
}

/// Closed-loop profiling with live migration: job 0's COMP cost
/// collapses mid-run, the drift is flagged and only that job moves
/// (pause, checkpoint, `Migrate`, targeted pass).
#[test]
fn drift_live_migration() {
    let spec = |name: &str, app: AppKind, comp: f64, net: f64, epochs: u32| JobSpec {
        name: name.into(),
        app,
        dataset: "synthetic".into(),
        input_bytes: 2 << 30,
        model_bytes: 64 << 20,
        comp_cost: comp,
        net_cost: net,
        sync: SyncKind::ParameterServer,
        pull_fraction: 0.5,
        iters_per_epoch: 10,
        target_epochs: epochs,
    };
    let jobs = vec![
        spec("victim", AppKind::Mlr, 60.0, 4.0, 8),
        spec("net-a", AppKind::Lda, 16.0, 12.0, 12),
        spec("net-b", AppKind::Lda, 16.0, 12.0, 12),
        spec("net-c", AppKind::Nmf, 18.0, 10.0, 12),
        spec("cpu-a", AppKind::Lasso, 120.0, 2.0, 8),
        spec("cpu-b", AppKind::Lasso, 110.0, 2.0, 8),
    ];
    let arrivals = vec![0.0; jobs.len()];
    let r = Driver::run(
        SimConfig {
            straggler_cv: 0.0,
            reload: ReloadPolicy::None,
            gc: GcModel::new(0.9, 0.0),
            comp_shifts: vec![CompShift {
                job: 0,
                at_iteration: 8,
                factor: 1.0 / 16.0,
            }],
            profile_feedback: true,
            live_migration: true,
            ..cfg(10)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert!(
        r.live_migration.completed >= 1,
        "the collapse must drive a live migration"
    );
    assert_golden("drift_live_migration", &r, DRIFT_LIVE_MIGRATION);
}

/// Straggler noise on every barrier with the static-fit reload policy.
#[test]
fn stragglers_static_fit() {
    let jobs = specs(2, 16);
    let arrivals = staggered(jobs.len(), 10.0);
    let r = Driver::run(
        SimConfig {
            straggler_cv: 0.25,
            reload: ReloadPolicy::StaticFit,
            ..cfg(16)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert_golden("stragglers_static_fit", &r, STRAGGLERS_STATIC_FIT);
}

/// The crash/slowdown/abort plan against the baselines: orphaned jobs
/// go back through FIFO admission (Isolated) or re-packing (Naive).
#[test]
fn churn_on_baselines() {
    for (label, kind, want) in [
        ("churn_isolated", SchedulerKind::Isolated, CHURN_ISOLATED),
        (
            "churn_naive",
            SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 4,
            },
            CHURN_NAIVE,
        ),
    ] {
        let jobs = specs(2, 16);
        let arrivals = staggered(jobs.len(), 25.0);
        let r = Driver::run(
            SimConfig {
                scheduler: kind,
                fault_plan: Some(faults::churn(29, 3_000.0, 1_000.0)),
                ..cfg(24)
            },
            jobs,
            arrivals,
        );
        assert!(r.machines_lost > 0, "{label}: the plan must crash machines");
        assert_golden(label, &r, want);
    }
}

/// `workload_with` at `epoch_scale`, its first `take` jobs: the small
/// workloads of the cells below.
fn tiny_specs(hyper_params: u32, epoch_scale: f64, take: usize) -> Vec<JobSpec> {
    workload_with(WorkloadParams {
        hyper_params,
        epoch_scale,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(take)
    .collect()
}

/// `machines` machines, seed 0, no straggler noise.
fn tiny_cfg(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        straggler_cv: 0.0,
        ..SimConfig::default()
    }
}

/// Runs one cell and holds it to its pinned digests.
fn assert_cell(label: &str, cfg: SimConfig, jobs: &[JobSpec], arrivals: &[f64], want: Golden) {
    let r = Driver::run(cfg, jobs.to_vec(), arrivals.to_vec());
    assert_golden(label, &r, want);
}

/// One profiled batch through regroup and completion, Harmony on 12
/// machines.
#[test]
fn tiny_batch() {
    let jobs = tiny_specs(1, 0.25, 6);
    let arrivals = vec![0.0; jobs.len()];
    assert_cell("tiny_batch", tiny_cfg(12), &jobs, &arrivals, TINY_BATCH);
}

/// The `tiny_batch` cell under the other scheduler kinds; the oracle
/// also takes the non-reusing decision branch.
#[test]
fn tiny_batch_scheduler_kinds() {
    let jobs = tiny_specs(1, 0.25, 6);
    let arrivals = vec![0.0; jobs.len()];
    for (label, scheduler, want) in [
        (
            "tiny_batch_oracle",
            SchedulerKind::Oracle,
            TINY_BATCH_ORACLE,
        ),
        (
            "tiny_batch_isolated",
            SchedulerKind::Isolated,
            TINY_BATCH_ISOLATED,
        ),
        (
            "tiny_batch_naive",
            SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 4,
            },
            TINY_BATCH_NAIVE,
        ),
    ] {
        let cfg = SimConfig {
            scheduler,
            ..tiny_cfg(12)
        };
        assert_cell(label, cfg, &jobs, &arrivals, want);
    }
}

/// Arrivals 40 s apart with a backlog threshold of 2: the waiting
/// reschedule and the arrival → profile → regroup pipeline fire across
/// many instants.
#[test]
fn tiny_staggered_arrivals() {
    let jobs = tiny_specs(2, 0.3, 12);
    let arrivals = staggered(jobs.len(), 40.0);
    let cfg = SimConfig {
        waiting_reschedule_threshold: 2,
        ..tiny_cfg(20)
    };
    assert_cell("tiny_staggered", cfg, &jobs, &arrivals, TINY_STAGGERED);
}

/// Straggler noise and profile-error injection perturb every float the
/// driver caches.
#[test]
fn tiny_noisy_profiles() {
    let jobs = tiny_specs(1, 0.3, 8);
    let arrivals = vec![0.0; jobs.len()];
    let cfg = SimConfig {
        straggler_cv: 0.05,
        error_injection: 0.15,
        seed: 9,
        ..tiny_cfg(16)
    };
    assert_cell("tiny_noisy", cfg, &jobs, &arrivals, TINY_NOISY);
}

/// One crash at 40 % of the fault-free makespan, then a
/// crash/slowdown/abort plan: jobs detach, groups dissolve and regroup
/// mid-flight.
#[test]
fn tiny_fault_scenarios() {
    let jobs = tiny_specs(1, 0.3, 8);
    let arrivals = vec![0.0; jobs.len()];
    let horizon = Driver::run(tiny_cfg(16), jobs.clone(), arrivals.clone()).makespan;
    let crash = SimConfig {
        fault_plan: Some(FaultPlan::single_crash(42, horizon * 0.4)),
        reload: ReloadPolicy::Adaptive,
        ..tiny_cfg(16)
    };
    assert_cell(
        "tiny_single_crash",
        crash,
        &jobs,
        &arrivals,
        TINY_SINGLE_CRASH,
    );
    let rates = FaultRates {
        crash_mtbf_secs: Some(horizon * 0.5),
        slowdown_mtbf_secs: Some(horizon * 0.4),
        abort_mtbf_secs: Some(horizon * 0.8),
        ..FaultRates::default()
    };
    let churn = SimConfig {
        fault_plan: Some(FaultPlan::generate(7, horizon * 1.5, &rates)),
        ..tiny_cfg(16)
    };
    assert_cell("tiny_churn", churn, &jobs, &arrivals, TINY_CHURN);
}

/// Arrivals 25 s apart under every scheduler kind, and Harmony under a
/// crash/abort plan: the regrouper's term cache and saturation prune on
/// each decision path.
#[test]
fn tiny_regroup_paths() {
    let mk =
        |scheduler: SchedulerKind, fault_plan: Option<FaultPlan>, threshold: usize| SimConfig {
            scheduler,
            fault_plan,
            waiting_reschedule_threshold: threshold,
            ..tiny_cfg(16)
        };
    let jobs = tiny_specs(1, 0.3, 8);
    let horizon = Driver::run(
        mk(SchedulerKind::Harmony, None, 8),
        jobs.clone(),
        vec![0.0; jobs.len()],
    )
    .makespan;
    let rates = FaultRates {
        crash_mtbf_secs: Some(horizon * 0.5),
        abort_mtbf_secs: Some(horizon * 0.8),
        ..FaultRates::default()
    };
    let churn = FaultPlan::generate(11, horizon * 1.5, &rates);
    let naive = SchedulerKind::Naive {
        jobs_per_group: 3,
        seed: 4,
    };
    let arrivals = staggered(jobs.len(), 25.0);
    for (label, cfg, want) in [
        (
            "regroup_harmony",
            mk(SchedulerKind::Harmony, None, 2),
            REGROUP_HARMONY,
        ),
        (
            "regroup_oracle",
            mk(SchedulerKind::Oracle, None, 8),
            REGROUP_ORACLE,
        ),
        (
            "regroup_isolated",
            mk(SchedulerKind::Isolated, None, 8),
            REGROUP_ISOLATED,
        ),
        ("regroup_naive", mk(naive, None, 8), REGROUP_NAIVE),
        (
            "regroup_harmony_churn",
            mk(SchedulerKind::Harmony, Some(churn), 2),
            REGROUP_HARMONY_CHURN,
        ),
    ] {
        assert_cell(label, cfg, &jobs, &arrivals, want);
    }
}

/// Six drawn configurations — `(seed, machines, jobs, backlog
/// threshold, arrival spacing)` — over the first jobs of a
/// two-hyper-parameter workload.
#[test]
fn tiny_random_draws() {
    for (i, &(seed, machines, take, threshold, spacing, want)) in RANDOM_DRAWS.iter().enumerate() {
        let jobs = tiny_specs(2, 0.25, take);
        let arrivals = staggered(jobs.len(), spacing);
        let cfg = SimConfig {
            seed,
            waiting_reschedule_threshold: threshold,
            ..tiny_cfg(machines)
        };
        assert_cell(&format!("random_draw_{i}"), cfg, &jobs, &arrivals, want);
    }
}

const CLOSED_BATCH_HARMONY: Golden = Golden {
    legacy: 0xdd95_ef5a_5e56_ed44,
    v2: 0x7fd5_96d9_94f1_e036,
};
const COALESCED_BATCH: Golden = Golden {
    legacy: 0xc028_8afa_ccdd_fa57,
    v2: 0xf597_4278_6d85_10a8,
};
const OPEN_LOOP_UTILITY_CHURN: Golden = Golden {
    legacy: 0x3616_1c17_1bcf_9bcb,
    v2: 0x43fe_d29b_0b4a_924a,
};
const BURST_QUEUE_CAP: Golden = Golden {
    legacy: 0xcdf5_515f_178d_2cd3,
    v2: 0xae30_1a32_cdb2_ea03,
};
const ABORT_BEFORE_ARRIVAL: Golden = Golden {
    legacy: 0x2d7a_5fcc_f491_06c5,
    v2: 0x1573_a2d5_c847_f67b,
};

// `legacy` captured on the commit before `driver.rs` was split into
// `driver/` and the scheduling entry points were merged.
const ORACLE_STAGGERED: Golden = Golden {
    legacy: 0x643b_1637_1b3d_0fda,
    v2: 0xf3a9_8cf8_4fb7_82d4,
};
const ISOLATED_STAGGERED: Golden = Golden {
    legacy: 0x1d08_5caf_4491_8b8f,
    v2: 0x0ce5_a221_e441_0383,
};
const NAIVE_STAGGERED: Golden = Golden {
    legacy: 0xde9f_ca8b_44cc_725b,
    v2: 0x2fb2_5635_f60c_4892,
};
const ERROR_INJECTION_EXACT: Golden = Golden {
    legacy: 0xe7ac_9f01_7b85_d569,
    v2: 0x6985_a2d2_d7c0_64a1,
};
const ERROR_INJECTION_COALESCED: Golden = Golden {
    legacy: 0x008f_3da3_d8b2_c3eb,
    v2: 0xa13d_b903_26a6_d5c2,
};
const ERROR_INJECTION_REFERENCE_ARMS: Golden = Golden {
    legacy: 0x68d3_b7fb_aebc_3b05,
    v2: 0xa498_15eb_2be7_5190,
};
const MTBF_FAILURES: Golden = Golden {
    legacy: 0xefec_c1ed_1e60_6665,
    v2: 0x2be8_005c_edb1_935d,
};
const DRIFT_LIVE_MIGRATION: Golden = Golden {
    legacy: 0x40b5_ee3e_d291_b5c5,
    v2: 0xbfea_5bfc_0b7f_ab80,
};
const STRAGGLERS_STATIC_FIT: Golden = Golden {
    legacy: 0x0c3f_6f09_a126_99cd,
    v2: 0x973e_b2c1_03db_0cf6,
};
const CHURN_ISOLATED: Golden = Golden {
    legacy: 0xcad0_8d8b_7cee_0641,
    v2: 0x2aa8_a0f5_efad_cb59,
};
const CHURN_NAIVE: Golden = Golden {
    legacy: 0x3702_cdf8_7393_ca42,
    v2: 0x622c_5951_7ff4_e98b,
};

// Captured from the reference arms (original event path, whole-cluster
// regrouper, exhaustive candidate scans), since retired.
const TINY_BATCH: Golden = Golden {
    legacy: 0x6423_ae4c_22fe_345d,
    v2: 0x002d_b59d_5c0b_7b48,
};
const TINY_BATCH_ORACLE: Golden = Golden {
    legacy: 0x5c99_fbff_8dd6_c9c9,
    v2: 0x09df_5928_aa27_7f45,
};
const TINY_BATCH_ISOLATED: Golden = Golden {
    legacy: 0xfeff_5888_408a_0aa5,
    v2: 0x0b35_aecc_9288_7163,
};
const TINY_BATCH_NAIVE: Golden = Golden {
    legacy: 0x7e43_ea7d_ea83_08ea,
    v2: 0xe1e7_fd64_e02a_e3ef,
};
const TINY_STAGGERED: Golden = Golden {
    legacy: 0xa3d5_ec7c_d57e_0438,
    v2: 0xd44c_91e1_f335_48ad,
};
const TINY_NOISY: Golden = Golden {
    legacy: 0x81b6_a226_ae37_403f,
    v2: 0xa417_6287_adfb_e2b1,
};
const TINY_SINGLE_CRASH: Golden = Golden {
    legacy: 0xa662_3f0d_212d_7da5,
    v2: 0x2923_86b1_c664_2ea8,
};
const TINY_CHURN: Golden = Golden {
    legacy: 0x27da_5c3b_7813_540b,
    v2: 0x7916_fbd6_4ad9_41ff,
};
const REGROUP_HARMONY: Golden = Golden {
    legacy: 0x0b9b_342b_b50e_1084,
    v2: 0x0888_4c14_c5e6_4295,
};
const REGROUP_ORACLE: Golden = Golden {
    legacy: 0xe208_bb53_802e_c986,
    v2: 0x5b9a_597d_5ac8_1f69,
};
const REGROUP_ISOLATED: Golden = Golden {
    legacy: 0x2fb7_4231_085a_214f,
    v2: 0x92f8_dd56_2127_8cf7,
};
const REGROUP_NAIVE: Golden = Golden {
    legacy: 0xd24b_51a2_8092_4761,
    v2: 0x589f_d2b7_c3c5_4ebf,
};
const REGROUP_HARMONY_CHURN: Golden = Golden {
    legacy: 0x80cd_81eb_3f58_f864,
    v2: 0x3d9a_21d1_98de_a145,
};
// The six draws `proptest!` made from the name `random_workloads_match`.
const RANDOM_DRAWS: [(u64, u32, usize, usize, f64, Golden); 6] = [
    (
        334,
        20,
        4,
        4,
        15.616337777340226,
        Golden {
            legacy: 0xf77d_d9b3_66ab_78f0,
            v2: 0x7c3f_e425_acc9_b47c,
        },
    ),
    (
        7,
        23,
        10,
        3,
        31.092200991272605,
        Golden {
            legacy: 0x9843_e7c5_b786_b5f8,
            v2: 0x554c_5bf0_851f_cbf3,
        },
    ),
    (
        382,
        18,
        6,
        3,
        24.481156380830996,
        Golden {
            legacy: 0x1456_1aa4_c531_5750,
            v2: 0x99d7_b595_31bd_48c6,
        },
    ),
    (
        944,
        20,
        6,
        3,
        1.3320362932268548,
        Golden {
            legacy: 0xb892_4f7a_80ad_558c,
            v2: 0xd44f_600a_caf9_f767,
        },
    ),
    (
        212,
        31,
        9,
        1,
        49.65869376626082,
        Golden {
            legacy: 0x13b4_54ca_6bbb_f6dc,
            v2: 0x968b_b57a_263b_6cda,
        },
    ),
    (
        572,
        26,
        10,
        5,
        62.288563397649376,
        Golden {
            legacy: 0xd63f_503a_5887_da9c,
            v2: 0xd4f4_9cef_bac4_33de,
        },
    ),
];
