//! Frozen output digests: FNV-1a over `RunReport::canonical_bytes` for
//! a handful of small scenarios, one per driver regime.
//!
//! The equivalence suites (`sim_equivalence`, `migration_equivalence`)
//! compare two arms of the *same* build, so a refactor that moves both
//! arms together passes them. These constants pin the bytes across
//! commits instead: they were captured on the commit before the
//! driver's scans moved onto the live-job and alive-group indices
//! (DESIGN.md §7 "O(active) driver state") and must not change unless a
//! PR deliberately changes simulated behaviour — in which case the PR
//! re-captures them (`GOLDEN_PRINT=1 cargo test --test golden_digests
//! -- --nocapture`) and says why.

use harmony::core::JobSpec;
use harmony::sim::{
    Driver, FaultKind, QueueCap, RunReport, SchedulerKind, SimConfig, UtilityThreshold,
    WorkloadGen, WorkloadGenConfig,
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

const CLOSED_BATCH_HARMONY: u64 = 0x3a32_8ca9_68b8_c29e;
const COALESCED_BATCH: u64 = 0x51d7_4236_c1cc_0af3;
const OPEN_LOOP_UTILITY_CHURN: u64 = 0x57f3_39ff_242c_7a5d;
const BURST_QUEUE_CAP: u64 = 0xd297_018b_c655_aa8f;
const ABORT_BEFORE_ARRIVAL: u64 = 0x6ba2_9ee8_9cc9_da77;
