//! Frozen output digests: FNV-1a over `RunReport::canonical_bytes` for
//! a handful of small scenarios, one per driver regime.
//!
//! The equivalence suites (`sim_equivalence`, `migration_equivalence`)
//! compare two arms of the *same* build, so a refactor that moves both
//! arms together passes them. These constants pin the bytes across
//! commits instead: they were captured on the commit before the
//! driver's scans moved onto the live-job and alive-group indices
//! (DESIGN.md §7 "O(active) driver state") and must not change unless a
//! PR deliberately changes simulated behaviour. A second batch —
//! oracle and baseline schedulers, profile-error injection, MTBF
//! failures, drift-driven live migration, stragglers under the
//! static-fit reload policy — was captured on the commit before
//! `driver.rs` became `driver/` and the scheduling entry points were
//! merged, to cover what that refactor moved. A PR that does mean to
//! change behaviour re-captures them (`GOLDEN_PRINT=1 cargo test --test
//! golden_digests -- --nocapture`) and says why.

use harmony::core::oracle::OracleScheduler;
use harmony::core::{AppKind, JobSpec, SyncKind};
use harmony::mem::GcModel;
use harmony::sim::{
    CompShift, Driver, FaultKind, QueueCap, ReloadPolicy, RunReport, SchedulerKind, SimConfig,
    UtilityThreshold, WorkloadGen, WorkloadGenConfig,
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

fn assert_golden(label: &str, report: &RunReport, want: u64) {
    let got = fnv1a(&report.canonical_bytes());
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {label}: {got:#018x}");
        return;
    }
    assert_eq!(
        got, want,
        "{label}: canonical_bytes digest moved ({got:#018x}, frozen {want:#018x})"
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

/// Closed loop with coalesced reschedule passes; 64 jobs on 16
/// machines so groups cross the batch-build floor (bulk build and
/// teardown) and a targeted release pass runs.
#[test]
fn coalesced_batch() {
    let jobs = specs(8, 64);
    let arrivals = vec![0.0; jobs.len()];
    let r = Driver::run(
        SimConfig {
            coalesced_passes: true,
            coalesce_window: 200.0,
            ..cfg(16)
        },
        jobs,
        arrivals,
    );
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

/// The exhaustive oracle in place of Algorithm 1 on every full pass.
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
/// gathers biased profiles too.
#[test]
fn error_injection_coalesced() {
    let jobs = specs(8, 64);
    let arrivals = vec![0.0; jobs.len()];
    let r = Driver::run(
        SimConfig {
            error_injection: 0.3,
            coalesced_passes: true,
            coalesce_window: 100.0,
            ..cfg(16)
        },
        jobs,
        arrivals,
    );
    assert_eq!(r.completed(), r.jobs.len());
    assert!(r.release_passes > 0, "the scenario must run a release pass");
    assert_golden("error_injection_coalesced", &r, ERROR_INJECTION_COALESCED);
}

/// Error injection on the reference arms (`fast_event_path` and
/// `incremental_resched` off): the store-backed full pass.
#[test]
fn error_injection_reference_arms() {
    let jobs = specs(2, 12);
    let arrivals = staggered(jobs.len(), 15.0);
    let r = Driver::run(
        SimConfig {
            error_injection: 0.3,
            fast_event_path: false,
            incremental_resched: false,
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

const CLOSED_BATCH_HARMONY: u64 = 0x3a32_8ca9_68b8_c29e;
const COALESCED_BATCH: u64 = 0x51d7_4236_c1cc_0af3;
const OPEN_LOOP_UTILITY_CHURN: u64 = 0x57f3_39ff_242c_7a5d;
const BURST_QUEUE_CAP: u64 = 0xd297_018b_c655_aa8f;
const ABORT_BEFORE_ARRIVAL: u64 = 0x6ba2_9ee8_9cc9_da77;

// Captured on the commit before `driver.rs` was split into
// `driver/` and the scheduling entry points were merged.
const ORACLE_STAGGERED: u64 = 0xf5a4_adc3_f4c4_41cf;
const ISOLATED_STAGGERED: u64 = 0x9828_83eb_2945_e71c;
const NAIVE_STAGGERED: u64 = 0xf177_d0fb_bab0_53f5;
const ERROR_INJECTION_EXACT: u64 = 0xa547_fdb9_8527_e568;
const ERROR_INJECTION_COALESCED: u64 = 0x8936_aa74_f83f_ca21;
const ERROR_INJECTION_REFERENCE_ARMS: u64 = 0xfda5_4eaf_539f_d2fa;
const MTBF_FAILURES: u64 = 0x0050_b617_231c_a333;
const DRIFT_LIVE_MIGRATION: u64 = 0x7a7f_2f13_b6ce_c2e1;
const STRAGGLERS_STATIC_FIT: u64 = 0xe43f_4bed_b9da_0265;
const CHURN_ISOLATED: u64 = 0x1150_54a9_7016_7e35;
const CHURN_NAIVE: u64 = 0xd59f_7cc9_9473_d278;
