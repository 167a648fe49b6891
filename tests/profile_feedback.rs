//! Closed-loop online profiling, end to end and deterministic.
//!
//! The loop under test (§IV-B1/§IV-B4): the PS runtime measures every
//! subtask with an injectable [`Clock`], the measurements aggregate
//! into per-iteration [`IterationSample`]s, a [`FeedbackLoop`] folds
//! them into the scheduler's profiles and flags jobs whose smoothed
//! estimate drifts ≥ 5% from the basis their schedule was computed
//! with, and the scheduler then produces a *different, better* grouping
//! from the fresher profiles.
//!
//! Everything here is bit-reproducible: subtask durations come from a
//! scripted [`VirtualClock`] (a pure function of job/node/kind/
//! iteration), sample aggregation is canonical-order, and the whole
//! pipeline is run twice and compared bitwise.

use std::sync::Arc;
use std::time::Duration;

use harmony::core::{
    cluster_utilization, AppKind, FeedbackLoop, JobId, JobProfile, JobSpec, ProfileSink, Scheduler,
    SchedulerConfig, SyncKind,
};
use harmony::mem::GcModel;
use harmony::ml::{synth, Mlr, PsAlgorithm};
use harmony::ps::{
    iteration_samples, JobBuilder, PsCluster, PsConfig, SubtaskKind, TrainingJob, VirtualClock,
};
use harmony::sim::{CompShift, Driver, ReloadPolicy, SimConfig};
use harmony::trace::{workload_with, WorkloadParams};

const JOBS: usize = 4;
const DOP: usize = 2;
const ITERS: u64 = 10;
/// Iterations 1..=WARM run at the slow COMP cost; later iterations run
/// 16× faster — a ≥5% drift by any measure.
const WARM: u64 = 3;

/// The scripted per-subtask durations: CPU-heavy at first
/// (per-node COMP 8 s → `tcpu_ref` 16 s at DoP 2, per-iteration
/// `tnet` 1 s), then COMP collapses to 0.5 s per node (ref 1 s).
fn drift_script(_job: usize, _node: usize, kind: SubtaskKind, iter: u64) -> Duration {
    match kind {
        SubtaskKind::Comp if iter <= WARM => Duration::from_secs_f64(8.0),
        SubtaskKind::Comp => Duration::from_secs_f64(0.5),
        SubtaskKind::Pull | SubtaskKind::Push => Duration::from_secs_f64(0.5),
        SubtaskKind::Apply => Duration::from_secs_f64(0.05),
    }
}

fn mlr_job(name: &str, seed: u64) -> TrainingJob {
    let data = synth::classification(80, 8, 2, 0.3, seed);
    let parts = synth::partition(&data, DOP);
    JobBuilder::new(name)
        .workers(
            parts
                .into_iter()
                .map(|p| Box::new(Mlr::new(p, 8, 2, 0.5)) as Box<dyn PsAlgorithm>),
        )
        .max_iterations(ITERS)
        .build()
}

fn train_under_virtual_clock() -> Vec<harmony::ps::JobReport> {
    let cluster = PsCluster::with_clock(
        PsConfig {
            nodes: DOP,
            ..PsConfig::default()
        },
        Arc::new(VirtualClock::new(drift_script)),
    );
    let jobs: Vec<TrainingJob> = (0..JOBS)
        .map(|j| mlr_job(&format!("job-{j}"), j as u64))
        .collect();
    cluster.run_jobs(jobs)
}

fn profiles_of(fb: &FeedbackLoop) -> Vec<JobProfile> {
    (0..JOBS)
        .map(|j| {
            fb.store()
                .get(JobId::new(j as u64))
                .expect("profile warmed")
                .clone()
        })
        .collect()
}

/// Machine-weighted utilization score of `grouping` evaluated under
/// `profiles` (Eqs. 3–4, equal CPU/net weight).
fn score_under(grouping: &harmony::core::Grouping, profiles: &[JobProfile]) -> f64 {
    let groups: Vec<(Vec<&JobProfile>, u32)> = grouping
        .groups()
        .iter()
        .map(|g| {
            let refs: Vec<&JobProfile> = g
                .jobs()
                .iter()
                .map(|id| &profiles[id.index() as usize])
                .collect();
            (refs, g.dop())
        })
        .collect();
    cluster_utilization(&groups).score(0.5)
}

/// One full closed-loop pass; returns a bitwise fingerprint plus the
/// human-checkable facts the assertions need.
struct PipelineRun {
    fingerprint: Vec<u64>,
    groups_before: usize,
    groups_after: usize,
    drifted: Vec<JobId>,
    stale_score: f64,
    fresh_score: f64,
}

fn run_pipeline() -> PipelineRun {
    let reports = train_under_virtual_clock();
    let mut fingerprint: Vec<u64> = Vec::new();

    // Phase 1: warm the profiles from the first WARM iterations, as the
    // profiling group would (§IV-B1).
    let mut fb = FeedbackLoop::new(0.05);
    let samples: Vec<Vec<harmony::core::IterationSample>> = reports
        .iter()
        .enumerate()
        .map(|(j, r)| iteration_samples(r, JobId::new(j as u64)))
        .collect();
    for per_job in &samples {
        assert_eq!(per_job.len() as u64, ITERS);
        for s in &per_job[..WARM as usize] {
            fb.record(*s);
            fingerprint.extend([s.tcpu.to_bits(), s.tnet.to_bits(), s.tapply.to_bits()]);
        }
    }

    // Phase 2: schedule on the warm profiles and pin the drift basis.
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let before = scheduler.schedule(&profiles_of(&fb), 8);
    fb.mark_scheduled((0..JOBS as u64).map(JobId::new));
    assert!(
        fb.take_drifted().is_empty(),
        "pinning the basis must not itself flag drift"
    );
    fb.mark_scheduled((0..JOBS as u64).map(JobId::new));

    // Phase 3: keep feeding measurements; COMP collapsed 16×, so the
    // smoothed estimate leaves the 5% similarity band.
    for per_job in &samples {
        for s in &per_job[WARM as usize..] {
            fb.record(*s);
            fingerprint.extend([s.tcpu.to_bits(), s.tnet.to_bits(), s.tapply.to_bits()]);
        }
    }
    let drifted = fb.take_drifted();

    // Phase 4: reschedule from the fresher profiles.
    let fresh = profiles_of(&fb);
    let after = scheduler.schedule(&fresh, 8);
    let stale_score = score_under(&before.grouping, &fresh);
    let fresh_score = score_under(&after.grouping, &fresh);

    fingerprint.extend([
        before.utilization.cpu.to_bits(),
        before.utilization.net.to_bits(),
        after.utilization.cpu.to_bits(),
        after.utilization.net.to_bits(),
        stale_score.to_bits(),
        fresh_score.to_bits(),
    ]);
    for outcome in [&before, &after] {
        for g in outcome.grouping.groups() {
            fingerprint.push(g.dop() as u64);
            fingerprint.push(g.jobs().len() as u64);
            fingerprint.extend(g.jobs().iter().map(|id| id.index()));
        }
        fingerprint.extend(outcome.predicted_iteration.iter().map(|t| t.to_bits()));
    }

    PipelineRun {
        fingerprint,
        groups_before: before.grouping.groups().len(),
        groups_after: after.grouping.groups().len(),
        drifted,
        stale_score,
        fresh_score,
    }
}

/// The headline closed-loop test: measured drift flows back into the
/// scheduler, which regroups — and the new grouping uses the cluster
/// strictly better than the stale one under the fresh profiles.
#[test]
fn measured_drift_produces_a_better_grouping() {
    let run = run_pipeline();

    // Before drift the four CPU-heavy jobs pack into one big group;
    // after COMP collapses, splitting them balances both resources.
    assert_eq!(run.groups_before, 1, "warm profiles should form 1 group");
    assert!(
        run.groups_after > 1,
        "drifted profiles should split the single group (got {} groups)",
        run.groups_after
    );

    // Every job drifted (they share the script), and each fired once.
    assert_eq!(
        run.drifted,
        (0..JOBS as u64).map(JobId::new).collect::<Vec<_>>()
    );

    // The regrouped layout beats the stale one under the fresh truth.
    assert!(
        run.fresh_score > run.stale_score + 0.05,
        "rescheduling should improve utilization: stale {} vs fresh {}",
        run.stale_score,
        run.fresh_score
    );
}

/// The determinism gate: the entire pipeline — real threads, real
/// executors, scripted clock — replays bit-identically.
#[test]
fn closed_loop_pipeline_replays_bit_identically() {
    let a = run_pipeline();
    let b = run_pipeline();
    assert_eq!(a.fingerprint, b.fingerprint);
}

/// The virtual clock makes raw measurements order-independent too: two
/// separate training runs yield bitwise-equal canonical samples.
#[test]
fn virtual_clock_samples_are_bit_reproducible() {
    let key = |reports: &[harmony::ps::JobReport]| -> Vec<u64> {
        reports
            .iter()
            .enumerate()
            .flat_map(|(j, r)| iteration_samples(r, JobId::new(j as u64)))
            .flat_map(|s| [s.tcpu.to_bits(), s.tnet.to_bits(), s.tapply.to_bits()])
            .collect()
    };
    let a = train_under_virtual_clock();
    let b = train_under_virtual_clock();
    assert_eq!(key(&a), key(&b));
    // And the training itself is unaffected by the clock swap: losses
    // still improve.
    for r in &a {
        assert!(r.final_loss < r.initial_loss, "{} did not train", r.name);
    }
}

/// The migration-on arm of the COMP-collapse scenario, on the real PS
/// runtime: the feedback loop flags the drifted jobs, and re-running
/// them with a planned migration at the first post-collapse boundary
/// proves the drifted job actually *moves* mid-run — the report keeps
/// the pre-move DoP in its migration record, finishes at the new DoP,
/// and the cluster accounts a checkpoint plus a resume latency per
/// drifted job.
#[test]
fn drifted_jobs_actually_move_mid_run() {
    let run = run_pipeline();
    assert!(!run.drifted.is_empty(), "scenario produced no drift");

    // Post-collapse the jobs are network-bound, so the fresh schedule
    // wants them at a lower DoP: migrate each drifted job 2 -> 1 at the
    // first boundary after the collapse is detectable.
    let boundary = WARM + 1;
    let cluster = PsCluster::with_clock(
        PsConfig {
            nodes: DOP,
            ..PsConfig::default()
        },
        Arc::new(VirtualClock::new(drift_script)),
    );
    let jobs: Vec<TrainingJob> = run
        .drifted
        .iter()
        .map(|id| {
            let seed = id.index();
            let data = synth::classification(80, 8, 2, 0.3, seed);
            JobBuilder::new(format!("moved-{seed}"))
                .workers(
                    synth::partition(&data, DOP)
                        .into_iter()
                        .map(|p| Box::new(Mlr::new(p, 8, 2, 0.5)) as Box<dyn PsAlgorithm>),
                )
                .migrate_after(
                    boundary,
                    synth::partition(&data, 1)
                        .into_iter()
                        .map(|p| Box::new(Mlr::new(p, 8, 2, 0.5)) as Box<dyn PsAlgorithm>),
                )
                .max_iterations(ITERS)
                .build()
        })
        .collect();
    let reports = cluster.run_jobs(jobs);

    for r in &reports {
        let rec = r.migrated.expect("job never moved");
        assert_eq!(
            rec.at_iteration, boundary,
            "{}: moved at the boundary",
            r.name
        );
        assert_eq!(rec.from_dop, DOP, "{}: pre-move DoP", r.name);
        assert_eq!(r.dop, 1, "{}: finished at the new DoP", r.name);
        assert_eq!(r.iterations, ITERS, "{}: ran to completion", r.name);
        assert!(
            r.final_loss < r.initial_loss,
            "{}: stopped training",
            r.name
        );
    }
    let stats = cluster.migration_stats();
    assert_eq!(stats.completed, run.drifted.len() as u64);
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.latency.count(), run.drifted.len() as u64);
    assert!(stats.checkpoint_bytes.mean() > 0.0);
}

/// A handcrafted spec for the simulator arm of the COMP-collapse
/// scenario.
fn sim_spec(name: &str, app: AppKind, comp: f64, net: f64, epochs: u32) -> JobSpec {
    JobSpec {
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
    }
}

/// The acceptance arm in the simulator: job 0 profiles CPU-heavy, so
/// Algorithm 1 packs it with network-heavy peers (complementary
/// utilization) — then its true COMP cost collapses 16× (the simulator
/// analogue of `drift_script`, injected via [`CompShift`]). Now
/// network-bound, the job spends its iterations queued behind the
/// peers' long transfers on the group's serialized wire. With
/// `live_migration` on, the closed loop flags the drift and moves just
/// that job — it ends up in a small dedicated group matching its fresh
/// (network-bound) profile and must finish measurably faster than the
/// no-feedback arm that leaves it stranded on its stale placement.
#[test]
fn migration_completes_drifted_job_measurably_faster() {
    let specs = vec![
        sim_spec("victim", AppKind::Mlr, 60.0, 4.0, 8),
        sim_spec("net-a", AppKind::Lda, 16.0, 12.0, 12),
        sim_spec("net-b", AppKind::Lda, 16.0, 12.0, 12),
        sim_spec("net-c", AppKind::Nmf, 18.0, 10.0, 12),
        sim_spec("cpu-a", AppKind::Lasso, 120.0, 2.0, 8),
        sim_spec("cpu-b", AppKind::Lasso, 110.0, 2.0, 8),
    ];
    let arrivals = vec![0.0; specs.len()];
    // Deterministic per-iteration costs (no straggler noise, no reload
    // machinery, flat GC): the collapse is the only drift source, and
    // both arms are bit-identical until the first post-collapse
    // iteration completes.
    let base = SimConfig {
        machines: 10,
        straggler_cv: 0.0,
        reload: ReloadPolicy::None,
        gc: GcModel::new(0.9, 0.0),
        comp_shifts: vec![CompShift {
            job: 0,
            at_iteration: 8,
            factor: 1.0 / 16.0,
        }],
        ..SimConfig::default()
    };
    let stuck = Driver::run(base.clone(), specs.clone(), arrivals.clone());
    let migrated = Driver::run(
        SimConfig {
            profile_feedback: true,
            live_migration: true,
            ..base
        },
        specs.clone(),
        arrivals,
    );
    assert_eq!(stuck.completed(), specs.len());
    assert_eq!(migrated.completed(), specs.len());
    assert!(
        migrated.live_migration.completed >= 1,
        "the collapse never drove a live migration"
    );
    assert_eq!(migrated.live_migration.in_flight(), 0);
    assert_eq!(
        migrated.live_migration.started,
        migrated.live_migration.completed + migrated.live_migration.cancelled,
        "migration books must balance"
    );
    // The stuck arm never migrates — it has no feedback loop at all.
    assert_eq!(stuck.live_migration.started, 0);

    let stuck_jct = stuck.jobs[0].jct.expect("victim finished");
    let moved_jct = migrated.jobs[0].jct.expect("victim finished");
    assert!(
        moved_jct < 0.9 * stuck_jct,
        "migration did not measurably help the drifted job: {moved_jct:.0}s vs {stuck_jct:.0}s stuck"
    );
    assert!(
        migrated.makespan < stuck.makespan,
        "migration arm should finish the whole run sooner"
    );
}

/// Flag-off equivalence in the simulator: on a drift-free workload the
/// feedback machinery is inert, so a `profile_feedback: true` run makes
/// byte-identical decisions to the flag-off (default) arm.
#[test]
fn sim_feedback_is_inert_without_drift() {
    let specs: Vec<_> = workload_with(WorkloadParams {
        hyper_params: 1,
        epoch_scale: 0.25,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(6)
    .collect();
    let arrivals = vec![0.0; specs.len()];
    // Stationary per-iteration costs: no straggler noise, a fixed
    // reload fraction (the adaptive α controller shifts COMP cost over
    // time — genuine drift the flag *should* react to) and a flat GC
    // model (pressure varies with group co-residents).
    let base = SimConfig {
        machines: 12,
        straggler_cv: 0.0,
        reload: ReloadPolicy::Fixed(0.2),
        gc: GcModel::new(0.9, 0.0),
        ..SimConfig::default()
    };
    let off = Driver::run(base.clone(), specs.clone(), arrivals.clone());
    let on = Driver::run(
        SimConfig {
            profile_feedback: true,
            ..base
        },
        specs,
        arrivals,
    );
    assert_eq!(
        on.canonical_bytes(),
        off.canonical_bytes(),
        "feedback machinery changed decisions on a drift-free workload"
    );
}

/// With straggler noise the flag-on arm may regroup more — but it must
/// stay deterministic and finish every job either way.
#[test]
fn sim_feedback_under_noise_is_deterministic() {
    let specs: Vec<_> = workload_with(WorkloadParams {
        hyper_params: 1,
        epoch_scale: 0.25,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(6)
    .collect();
    let arrivals = vec![0.0; specs.len()];
    let cfg = SimConfig {
        machines: 12,
        straggler_cv: 0.25,
        profile_feedback: true,
        seed: 11,
        ..SimConfig::default()
    };
    let a = Driver::run(cfg.clone(), specs.clone(), arrivals.clone());
    let b = Driver::run(cfg, specs, arrivals);
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    assert!(a.jobs.iter().all(|j| j.finish.is_some() && !j.failed));
}
