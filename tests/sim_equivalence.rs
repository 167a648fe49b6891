//! Equivalence gate for the simulator's fast event path.
//!
//! `SimConfig::fast_event_path` (default on) routes hot events through
//! wake dedup, the incremental active-scheduled counter, cached fluid
//! aggregates and scratch-reusing reschedules; the scheduler's
//! `exact_prunes` additionally cuts candidate scans short. All of these
//! are only admissible because they are *bit-exact*: with both switched
//! off the driver runs the original allocate-per-event code, and
//! `RunReport::canonical_bytes` — which serializes every scheduling
//! decision, migration, snapshot, utilization sample and fault-log
//! entry — must be identical byte for byte. These tests assert exactly
//! that over seeded random workloads, arrival patterns, schedulers and
//! fault-injection scenarios.

use harmony::core::{JobSpec, SchedulerConfig};
use harmony::sim::{Driver, FaultPlan, FaultRates, ReloadPolicy, SchedulerKind, SimConfig};
use harmony::trace::{workload_with, WorkloadParams};
use proptest::prelude::*;

/// The pre-overhaul reference configuration: same simulation, original
/// event path, exhaustive candidate scans, no incremental
/// rescheduling.
fn reference_arm(fast: &SimConfig) -> SimConfig {
    SimConfig {
        fast_event_path: false,
        incremental_resched: false,
        scheduler_config: SchedulerConfig {
            exact_prunes: false,
            ..fast.scheduler_config
        },
        ..fast.clone()
    }
}

/// Runs both arms and asserts byte-identical reports.
fn assert_equivalent(label: &str, cfg: SimConfig, specs: Vec<JobSpec>, arrivals: Vec<f64>) {
    let slow = Driver::run(reference_arm(&cfg), specs.clone(), arrivals.clone());
    let fast = Driver::run(cfg, specs, arrivals);
    assert_eq!(
        fast.canonical_bytes(),
        slow.canonical_bytes(),
        "{label}: fast event path diverged from the reference path \
         (makespan fast {} vs slow {}, invocations {} vs {})",
        fast.makespan,
        slow.makespan,
        fast.sched_invocations,
        slow.sched_invocations,
    );
}

fn tiny_workload(hyper_params: u32, epoch_scale: f64, take: usize) -> Vec<JobSpec> {
    workload_with(WorkloadParams {
        hyper_params,
        epoch_scale,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(take)
    .collect()
}

fn base_cfg(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        straggler_cv: 0.0,
        ..SimConfig::default()
    }
}

/// The smallest meaningful gate — one profiled batch through regroup
/// and completion. `scripts/check.sh --bench-smoke` runs exactly this
/// test as its equivalence smoke.
#[test]
fn tiny_scale_fast_path_matches_reference() {
    let specs = tiny_workload(1, 0.25, 6);
    let arrivals = vec![0.0; specs.len()];
    assert_equivalent("tiny", base_cfg(12), specs, arrivals);
}

/// Staggered arrivals keep the waiting-reschedule threshold and the
/// arrival → profile → regroup pipeline busy across many instants.
#[test]
fn staggered_arrivals_match() {
    let specs = tiny_workload(2, 0.3, 12);
    let arrivals: Vec<f64> = (0..specs.len()).map(|i| i as f64 * 40.0).collect();
    let cfg = SimConfig {
        waiting_reschedule_threshold: 2,
        ..base_cfg(20)
    };
    assert_equivalent("staggered", cfg, specs, arrivals);
}

/// Straggler noise and profile-error injection perturb every float the
/// fast path caches; the refolded aggregates must still match.
#[test]
fn noisy_profiles_match() {
    let specs = tiny_workload(1, 0.3, 8);
    let arrivals = vec![0.0; specs.len()];
    let cfg = SimConfig {
        straggler_cv: 0.05,
        error_injection: 0.15,
        seed: 9,
        ..base_cfg(16)
    };
    assert_equivalent("noisy", cfg, specs, arrivals);
}

/// Every scheduler kind shares the driver's event loop, so each one is
/// a distinct code path through the gate (the oracle also exercises the
/// non-reusing decision branch).
#[test]
fn all_scheduler_kinds_match() {
    for kind in [
        SchedulerKind::Harmony,
        SchedulerKind::Oracle,
        SchedulerKind::Isolated,
        SchedulerKind::Naive {
            jobs_per_group: 3,
            seed: 4,
        },
    ] {
        let label = format!("{kind:?}");
        let specs = tiny_workload(1, 0.25, 6);
        let arrivals = vec![0.0; specs.len()];
        let cfg = SimConfig {
            scheduler: kind,
            ..base_cfg(12)
        };
        assert_equivalent(&label, cfg, specs, arrivals);
    }
}

/// Fault injection detaches jobs, dissolves groups and regroups
/// mid-flight — the paths where the wake tombstones and the
/// active-scheduled counter are easiest to get wrong.
#[test]
fn fault_scenarios_match() {
    let specs = tiny_workload(1, 0.3, 8);
    let arrivals = vec![0.0; specs.len()];
    let clean = Driver::run(base_cfg(16), specs.clone(), arrivals.clone());
    let horizon = clean.makespan;

    let crash = FaultPlan::single_crash(42, horizon * 0.4);
    assert_equivalent(
        "single-crash",
        SimConfig {
            fault_plan: Some(crash),
            reload: ReloadPolicy::Adaptive,
            ..base_cfg(16)
        },
        specs.clone(),
        arrivals.clone(),
    );

    let rates = FaultRates {
        crash_mtbf_secs: Some(horizon * 0.5),
        slowdown_mtbf_secs: Some(horizon * 0.4),
        abort_mtbf_secs: Some(horizon * 0.8),
        ..FaultRates::default()
    };
    let churn = FaultPlan::generate(7, horizon * 1.5, &rates);
    assert_equivalent(
        "churn",
        SimConfig {
            fault_plan: Some(churn),
            ..base_cfg(16)
        },
        specs,
        arrivals,
    );
}

/// Isolates `SimConfig::incremental_resched` (saturation-pruned
/// escalation ladders and group-delta Eq. 4 refolds) from the other
/// fast-path switches: both arms run with `fast_event_path` and `exact_prunes`
/// on, differing *only* in the incremental flag, across every
/// scheduler kind and a fault-churn scenario.
#[test]
fn incremental_resched_matches_across_schedulers_and_faults() {
    let mk = |kind: SchedulerKind, plan: Option<FaultPlan>, threshold: usize| SimConfig {
        scheduler: kind,
        fault_plan: plan,
        waiting_reschedule_threshold: threshold,
        ..base_cfg(16)
    };
    let specs = tiny_workload(1, 0.3, 8);
    let horizon = Driver::run(
        mk(SchedulerKind::Harmony, None, 8),
        specs.clone(),
        vec![0.0; specs.len()],
    )
    .makespan;
    let rates = FaultRates {
        crash_mtbf_secs: Some(horizon * 0.5),
        abort_mtbf_secs: Some(horizon * 0.8),
        ..FaultRates::default()
    };
    let churn = FaultPlan::generate(11, horizon * 1.5, &rates);
    let cases = [
        ("harmony", mk(SchedulerKind::Harmony, None, 2)),
        ("oracle", mk(SchedulerKind::Oracle, None, 8)),
        ("isolated", mk(SchedulerKind::Isolated, None, 8)),
        (
            "naive",
            mk(
                SchedulerKind::Naive {
                    jobs_per_group: 3,
                    seed: 4,
                },
                None,
                8,
            ),
        ),
        ("harmony-churn", mk(SchedulerKind::Harmony, Some(churn), 2)),
    ];
    for (label, on) in cases {
        let off = SimConfig {
            incremental_resched: false,
            ..on.clone()
        };
        let arrivals: Vec<f64> = (0..specs.len()).map(|i| i as f64 * 25.0).collect();
        let a = Driver::run(on, specs.clone(), arrivals.clone());
        let b = Driver::run(off, specs.clone(), arrivals);
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "{label}: incremental resched diverged from the non-incremental arm \
             (makespan {} vs {}, invocations {} vs {})",
            a.makespan,
            b.makespan,
            a.sched_invocations,
            b.sched_invocations,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized gate: workload shape, cluster size, seeds, arrival
    /// spacing and the reschedule threshold all drawn at random; the
    /// two arms must agree byte for byte on every draw.
    #[test]
    fn random_workloads_match(
        seed in 0u64..1_000,
        machines in 8u32..32,
        take in 4usize..12,
        threshold in 1usize..6,
        spacing in 0.0f64..80.0,
    ) {
        let specs = tiny_workload(2, 0.25, take);
        let arrivals: Vec<f64> =
            (0..specs.len()).map(|i| i as f64 * spacing).collect();
        let cfg = SimConfig {
            seed,
            waiting_reschedule_threshold: threshold,
            ..base_cfg(machines)
        };
        assert_equivalent("random", cfg, specs, arrivals);
    }
}
