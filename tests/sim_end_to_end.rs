//! End-to-end simulated cluster runs across the three schedulers.
//!
//! These use a reduced workload (2 hyper-parameters per Table I row,
//! shortened epochs) so the whole file runs in seconds while still
//! exercising profiling, Algorithm 1, regrouping, migration, spill and
//! completion.

use harmony::sim::{Driver, ReloadPolicy, SchedulerKind, SimConfig};
use harmony::trace::{workload_with, ArrivalProcess, WorkloadParams};

fn small_workload() -> Vec<harmony::core::JobSpec> {
    workload_with(WorkloadParams {
        hyper_params: 2,
        epoch_scale: 0.5,
        ..WorkloadParams::default()
    })
}

fn cfg(kind: SchedulerKind, reload: ReloadPolicy) -> SimConfig {
    SimConfig {
        machines: 24,
        scheduler: kind,
        reload,
        ..SimConfig::default()
    }
}

#[test]
fn all_three_schedulers_complete_the_workload() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    for (kind, reload) in [
        (SchedulerKind::Isolated, ReloadPolicy::StaticFit),
        (
            SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 2,
            },
            ReloadPolicy::StaticFit,
        ),
        (SchedulerKind::Harmony, ReloadPolicy::Adaptive),
    ] {
        let label = format!("{kind:?}");
        let r = Driver::run(cfg(kind, reload), specs.clone(), arrivals.clone());
        assert_eq!(r.completed(), specs.len(), "{label}: {:?}", r.oom_events);
        assert!(r.makespan > 0.0);
        for j in &r.jobs {
            assert!(j.jct.expect("completed") > 0.0, "{label}/{}", j.name);
        }
    }
}

#[test]
fn harmony_beats_isolated_on_makespan_and_utilization() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    let iso = Driver::run(
        cfg(SchedulerKind::Isolated, ReloadPolicy::StaticFit),
        specs.clone(),
        arrivals.clone(),
    );
    let har = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs,
        arrivals,
    );
    assert!(
        har.makespan < iso.makespan,
        "harmony {} vs isolated {}",
        har.makespan,
        iso.makespan
    );
    assert!(
        har.avg_cpu_util(24) > iso.avg_cpu_util(24),
        "harmony cpu {} vs isolated {}",
        har.avg_cpu_util(24),
        iso.avg_cpu_util(24)
    );
}

#[test]
fn staggered_arrivals_complete_under_harmony() {
    let specs = small_workload();
    let arrivals = ArrivalProcess::Poisson {
        mean_secs: 300.0,
        seed: 5,
    }
    .generate(specs.len());
    let r = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs.clone(),
        arrivals.clone(),
    );
    assert_eq!(r.completed(), specs.len(), "{:?}", r.oom_events);
    // No job may finish before it arrived plus some execution time.
    for (j, &at) in r.jobs.iter().zip(&arrivals) {
        assert!(j.finish.expect("completed") > at, "{}", j.name);
    }
}

#[test]
fn bursty_arrivals_complete_under_harmony() {
    let specs = small_workload();
    let arrivals = ArrivalProcess::Bursty {
        burst_mean: 4.0,
        gap_scale_secs: 600.0,
        seed: 3,
    }
    .generate(specs.len());
    let r = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs,
        arrivals,
    );
    assert_eq!(r.completed(), 16, "{:?}", r.oom_events);
}

#[test]
fn reload_policy_none_ooms_where_spill_survives() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    let no_spill = Driver::run(
        cfg(
            SchedulerKind::Naive {
                jobs_per_group: 4,
                seed: 0,
            },
            ReloadPolicy::None,
        ),
        specs.clone(),
        arrivals.clone(),
    );
    let with_spill = Driver::run(
        cfg(
            SchedulerKind::Naive {
                jobs_per_group: 4,
                seed: 0,
            },
            ReloadPolicy::StaticFit,
        ),
        specs,
        arrivals,
    );
    assert!(
        !no_spill.oom_events.is_empty(),
        "expected OOM without spill"
    );
    assert!(with_spill.oom_events.is_empty());
    assert_eq!(with_spill.completed(), 16);
}

#[test]
fn simulation_is_deterministic() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    let a = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs.clone(),
        arrivals.clone(),
    );
    let b = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs,
        arrivals,
    );
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.mean_jct(), b.mean_jct());
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn utilization_timelines_are_sane() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    let r = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs,
        arrivals,
    );
    for p in r.cpu_timeline.points().chain(r.net_timeline.points()) {
        assert!((0.0..=1.0).contains(&p.value));
        assert!(p.time <= r.makespan + 1.0);
    }
    assert!(r.avg_cpu_util(24) > 0.0 && r.avg_cpu_util(24) <= 1.0);
    assert!(r.avg_net_util(24) > 0.0 && r.avg_net_util(24) <= 1.0);
}

#[test]
fn prediction_samples_are_collected_and_finite() {
    let specs = small_workload();
    let arrivals = vec![0.0; specs.len()];
    let r = Driver::run(
        cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive),
        specs,
        arrivals,
    );
    assert!(!r.predictions.is_empty());
    for p in &r.predictions {
        assert!(p.predicted_iteration.is_finite() && p.predicted_iteration > 0.0);
        assert!(p.realized_iteration.is_finite() && p.realized_iteration > 0.0);
        assert!(p.iteration_error().is_finite());
    }
}

/// Sparse-wire modelling: declaring a job coordinate-sparse via
/// [`PushDensity`] shrinks its PUSH subtasks (PULL stays dense), so on
/// a network-heavy workload the sparse arm finishes that job sooner and
/// its measured profile sees the effective (smaller) wire. The closed
/// loop then prices the real transfer without any flag on the scheduler
/// side — the simulator measures effective Tnet directly.
#[test]
fn sparse_push_density_shortens_the_sparse_jobs_run() {
    use harmony::core::{AppKind, JobSpec, SyncKind};
    use harmony::mem::GcModel;
    use harmony::sim::PushDensity;
    let spec = |name: &str, comp: f64, net: f64| JobSpec {
        name: name.into(),
        app: AppKind::Lda,
        dataset: "synthetic".into(),
        input_bytes: 2 << 30,
        model_bytes: 64 << 20,
        comp_cost: comp,
        net_cost: net,
        sync: SyncKind::ParameterServer,
        pull_fraction: 0.25,
        iters_per_epoch: 10,
        target_epochs: 8,
    };
    let specs = vec![
        spec("sparse", 20.0, 16.0),
        spec("peer-a", 20.0, 16.0),
        spec("peer-b", 24.0, 12.0),
    ];
    let arrivals = vec![0.0; specs.len()];
    // Deterministic costs: no straggler noise, no reload machinery,
    // flat GC — the wire density is the only difference between arms.
    let base = SimConfig {
        machines: 12,
        straggler_cv: 0.0,
        reload: ReloadPolicy::None,
        gc: GcModel::new(0.9, 0.0),
        ..SimConfig::default()
    };
    let dense = Driver::run(base.clone(), specs.clone(), arrivals.clone());
    let sparse = Driver::run(
        SimConfig {
            push_densities: vec![PushDensity {
                job: 0,
                density: 0.1,
            }],
            ..base
        },
        specs.clone(),
        arrivals,
    );
    assert_eq!(dense.completed(), specs.len());
    assert_eq!(sparse.completed(), specs.len());
    let dense_jct = dense.jobs[0].jct.expect("finished");
    let sparse_jct = sparse.jobs[0].jct.expect("finished");
    assert!(
        sparse_jct < dense_jct,
        "sparse wire should shorten the job: {sparse_jct:.0}s vs {dense_jct:.0}s dense"
    );
}

/// The exact (per-finish) scheduling arm at the top of its scale
/// ladder: 2560 jobs at t = 0 on 3200 machines, every job completing.
/// Too slow for the default run; `cargo test -- --ignored`.
#[test]
#[ignore = "top of the exact arm's scale ladder: seconds of release-mode wall time"]
fn exact_arm_completes_2560_jobs_on_3200_machines() {
    const JOBS: usize = 2560;
    let specs = workload_with(WorkloadParams {
        hyper_params: (JOBS / 8) as u32,
        ..WorkloadParams::default()
    });
    assert_eq!(specs.len(), JOBS);
    let cfg = SimConfig {
        machines: 3200,
        coalesced_passes: false,
        ..cfg(SchedulerKind::Harmony, ReloadPolicy::Adaptive)
    };
    let report = Driver::run(cfg, specs, vec![0.0; JOBS]);
    assert_eq!(report.completed(), JOBS);
}

/// Common random numbers: under dedicated allocation with machines to
/// spare, one more, unrelated job changes nothing any other job sees —
/// not even its straggler noise, which is keyed by the subtask it is
/// for rather than drawn from a stream all jobs share.
#[test]
fn an_unrelated_job_leaves_every_other_jobs_subtasks_alone() {
    let mut specs: Vec<_> = small_workload().into_iter().take(8).collect();
    let mut arrivals: Vec<f64> = (0..specs.len()).map(|i| 30.0 * i as f64).collect();
    let cfg = SimConfig {
        machines: 40,
        scheduler: SchedulerKind::Isolated,
        fixed_dop: Some(4),
        straggler_cv: 0.1,
        record_spans: true,
        ..SimConfig::default()
    };
    // Every job's subtasks as (phase, start, end) bits, in order.
    let spans_of = |r: &harmony::sim::RunReport, job: usize| -> Vec<(String, u64, u64)> {
        let mut spans: Vec<_> = r
            .spans
            .iter()
            .filter(|s| s.job == job)
            .map(|s| (format!("{:?}", s.phase), s.start.to_bits(), s.end.to_bits()))
            .collect();
        spans.sort_by_key(|&(_, start, _)| start);
        spans
    };
    let base = Driver::run(cfg.clone(), specs.clone(), arrivals.clone());
    assert_eq!(base.completed(), specs.len());
    specs.push(specs[3].clone());
    arrivals.push(75.0);
    let more = Driver::run(cfg, specs, arrivals);
    assert_eq!(more.completed(), 9, "the extra job runs too");
    for job in 0..8 {
        let spans = spans_of(&base, job);
        assert!(
            spans.len() > 30,
            "job {job} ran only {} subtasks",
            spans.len()
        );
        assert!(
            spans == spans_of(&more, job),
            "job {job}'s subtasks moved when an unrelated job joined"
        );
    }
}
