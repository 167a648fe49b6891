//! Migration-equivalence gate for live checkpoint/resume.
//!
//! The contract: migrating a job at an iteration boundary — checkpoint
//! the model, swap in a new worker set at a new DoP, keep training —
//! must produce the **bit-identical** final model to the naive
//! alternative of stopping the job at that boundary and restarting a
//! fresh job from the checkpointed model (`JobBuilder::initial_model`)
//! with the same new workers. f64 addition is not associative, so this
//! only holds because both paths restore through the same serialized
//! checkpoint form and replay the new workers' pre-training pushes in
//! the same worker order; the gate pins that invariant for all four
//! algorithms, DoP transitions within 1–8 workers, and both the fast
//! and reference runtimes, replayed twice for determinism.

use harmony::ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony::ps::{JobBuilder, JobReport, PsCluster, PsConfig};

fn cluster(nodes: usize, fast_runtime: bool, live_migration: bool) -> PsCluster {
    PsCluster::new(PsConfig {
        nodes,
        network_bytes_per_sec: None,
        fast_runtime,
        live_migration,
        sparse_push: true,
    })
}

/// Deterministic worker sets — same synth data and seeds every call, so
/// the migration arm and the restart arm construct identical workers.
fn workers(algo: &str, w: usize) -> Vec<Box<dyn PsAlgorithm>> {
    match algo {
        "mlr" => {
            let data = synth::classification(96, 12, 3, 0.3, 5);
            synth::partition(&data, w)
                .into_iter()
                .map(|p| Box::new(Mlr::new(p, 12, 3, 0.5)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "lasso" => {
            let data = synth::regression(96, 16, 0.3, 6);
            synth::partition(&data, w)
                .into_iter()
                .map(|p| Box::new(Lasso::new(p, 16, 0.05, 0.01)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "nmf" => {
            let ratings = synth::ratings(24, 30, 8, 3, 7);
            synth::partition(&ratings, w)
                .into_iter()
                .map(|p| Box::new(Nmf::new(p, 30, 3, 0.05)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "lda" => {
            let docs = synth::bag_of_words(24, 120, 30, 3, 8);
            synth::partition(&docs, w)
                .into_iter()
                .enumerate()
                .map(|(i, p)| Box::new(Lda::new(p, 120, 3, i as u64)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        other => panic!("unknown algorithm {other}"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One job that live-migrates from `w1` to `w2` workers after
/// `boundary` iterations and runs to `total`.
fn migrated_run(
    algo: &str,
    w1: usize,
    w2: usize,
    boundary: u64,
    total: u64,
    fast: bool,
) -> JobReport {
    let c = cluster(w1.max(w2), fast, true);
    let job = JobBuilder::new(format!("{algo}-{w1}to{w2}"))
        .workers(workers(algo, w1))
        .migrate_after(boundary, workers(algo, w2))
        .max_iterations(total)
        .check_every(2)
        .build();
    let report = c.run_jobs(vec![job]).remove(0);

    let rec = report
        .migrated
        .unwrap_or_else(|| panic!("{algo} {w1}->{w2}: job never migrated"));
    assert_eq!(rec.at_iteration, boundary, "migrated at the boundary");
    assert_eq!(rec.from_dop, w1, "record keeps the pre-migration DoP");
    assert_eq!(
        rec.checkpoint_bytes,
        8 * report.final_model.len() as u64,
        "checkpoint is the full f64 model"
    );
    assert_eq!(report.dop, w2, "report DoP is the post-migration group");
    assert_eq!(report.iterations, total, "iteration count stays absolute");
    let stats = c.migration_stats();
    assert_eq!((stats.started, stats.completed), (1, 1));
    assert_eq!(stats.in_flight(), 0);
    report
}

/// The reference semantics: stop at the boundary, restart a fresh job
/// from the checkpointed model with the new worker set.
fn restart_run(
    algo: &str,
    w1: usize,
    w2: usize,
    boundary: u64,
    total: u64,
    fast: bool,
) -> Vec<f64> {
    let c = cluster(w1.max(w2), fast, false);
    let first = c
        .run_jobs(vec![JobBuilder::new(format!("{algo}-phase1"))
            .workers(workers(algo, w1))
            .max_iterations(boundary)
            .check_every(2)
            .build()])
        .remove(0);
    let second = c
        .run_jobs(vec![JobBuilder::new(format!("{algo}-phase2"))
            .workers(workers(algo, w2))
            .initial_model(first.final_model.clone())
            .max_iterations(total - boundary)
            .check_every(2)
            .build()])
        .remove(0);
    assert_eq!(second.iterations, total - boundary);
    second.final_model
}

fn assert_migration_matches_restart(
    algo: &str,
    w1: usize,
    w2: usize,
    boundary: u64,
    total: u64,
    fast: bool,
) {
    let tag = format!("{algo} {w1}->{w2} @{boundary}/{total} fast={fast}");
    let migrated = migrated_run(algo, w1, w2, boundary, total, fast);
    let restarted = restart_run(algo, w1, w2, boundary, total, fast);
    assert_eq!(
        bits(&migrated.final_model),
        bits(&restarted),
        "{tag}: live migration diverged from checkpoint+restart"
    );
}

/// The cheap gate `scripts/check.sh --bench-smoke` runs: one small
/// lasso job migrated 2->4 workers, compared against its restart twin.
#[test]
fn tiny_scale_migration_matches_restart() {
    assert_migration_matches_restart("lasso", 2, 4, 2, 4, true);
}

#[test]
fn all_algorithms_match_restart_across_dop_transitions() {
    for algo in ["mlr", "lasso", "nmf", "lda"] {
        // Scale-out, scale-in, identity, and ragged-partition moves,
        // all within the 1–8 worker envelope.
        for (w1, w2) in [(1, 2), (2, 4), (4, 2), (8, 3), (3, 3)] {
            assert_migration_matches_restart(algo, w1, w2, 3, 6, true);
        }
    }
}

#[test]
fn reference_runtime_migration_matches_restart() {
    // The single-threaded reference arm shares the checkpoint path but
    // rebuilds `ShardedModel` shards instead of restriping in place —
    // the equivalence must hold there too.
    for algo in ["mlr", "lasso", "nmf", "lda"] {
        for (w1, w2) in [(1, 4), (4, 1), (2, 8)] {
            assert_migration_matches_restart(algo, w1, w2, 3, 6, false);
        }
    }
}

#[test]
fn fast_and_reference_agree_on_migrated_runs() {
    // Cross-arm: the zero-copy runtime's in-place restore and the
    // reference rebuild must land on the same bits.
    for algo in ["mlr", "lda"] {
        let fast = migrated_run(algo, 2, 4, 3, 6, true);
        let reference = migrated_run(algo, 2, 4, 3, 6, false);
        assert_eq!(
            bits(&fast.final_model),
            bits(&reference.final_model),
            "{algo}: fast vs reference migrated model"
        );
        assert_eq!(fast.migrated, reference.migrated);
    }
}

#[test]
fn migrated_replay_is_deterministic() {
    // Replay each arm twice: identical bits, loss trajectories, and
    // migration records both times.
    for fast in [true, false] {
        let a = migrated_run("nmf", 2, 3, 2, 5, fast);
        let b = migrated_run("nmf", 2, 3, 2, 5, fast);
        assert_eq!(bits(&a.final_model), bits(&b.final_model));
        let traj = |r: &JobReport| -> Vec<(u64, u64)> {
            r.loss_history
                .iter()
                .map(|&(i, l)| (i, l.to_bits()))
                .collect()
        };
        assert_eq!(traj(&a), traj(&b), "fast={fast}: loss trajectory");
        assert_eq!(a.migrated, b.migrated);
    }
}

#[test]
fn migration_at_first_and_penultimate_boundary() {
    // Edge boundaries: right after the first iteration, and with a
    // single iteration left to run on the new workers.
    for boundary in [1, 5] {
        assert_migration_matches_restart("mlr", 4, 2, boundary, 6, true);
    }
}
