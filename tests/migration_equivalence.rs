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
//! algorithms and DoP transitions within 1–8 workers, replayed twice
//! for determinism. `tests/ps_goldens.rs` pins the migrated runs' bits
//! across commits, and `fast_and_reference_agree_on_migrated_runs`
//! holds two of them to the retired reference runtime's outcome.

use harmony::ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony::ps::{JobBuilder, JobReport, MigrationRecord, PsCluster, PsConfig};

fn cluster(nodes: usize, sparse_push: bool) -> PsCluster {
    PsCluster::new(PsConfig {
        nodes,
        sparse_push,
        ..PsConfig::default()
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
/// `boundary` iterations and runs to `total`, on the sparse or the
/// dense PUSH wire.
fn migrated_run(
    algo: &str,
    w1: usize,
    w2: usize,
    boundary: u64,
    total: u64,
    sparse_push: bool,
) -> JobReport {
    let c = cluster(w1.max(w2), sparse_push);
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
fn restart_run(algo: &str, w1: usize, w2: usize, boundary: u64, total: u64) -> Vec<f64> {
    let c = cluster(w1.max(w2), true);
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

fn assert_migration_matches_restart(algo: &str, w1: usize, w2: usize, boundary: u64, total: u64) {
    let tag = format!("{algo} {w1}->{w2} @{boundary}/{total}");
    let migrated = migrated_run(algo, w1, w2, boundary, total, true);
    let restarted = restart_run(algo, w1, w2, boundary, total);
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
    assert_migration_matches_restart("lasso", 2, 4, 2, 4);
}

#[test]
fn all_algorithms_match_restart_across_dop_transitions() {
    for algo in ["mlr", "lasso", "nmf", "lda"] {
        // Scale-out, scale-in, identity, and ragged-partition moves,
        // all within the 1–8 worker envelope.
        for (w1, w2) in [(1, 2), (2, 4), (4, 2), (8, 3), (3, 3)] {
            assert_migration_matches_restart(algo, w1, w2, 3, 6);
        }
    }
}

#[test]
fn reference_runtime_migration_matches_restart() {
    // The fourfold moves the retired reference runtime was gated on,
    // now held on the one runtime: restriping the model across four
    // times more (or fewer) shards must still match the restart.
    for algo in ["mlr", "lasso", "nmf", "lda"] {
        for (w1, w2) in [(1, 4), (4, 1), (2, 8)] {
            assert_migration_matches_restart(algo, w1, w2, 3, 6);
        }
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fast_and_reference_agree_on_migrated_runs() {
    // The runtime's in-place restore must land on the bits the retired
    // reference runtime's shard rebuild did, on either PUSH wire:
    // final-model and loss-history digests (FNV-1a of the `to_bits`,
    // as in `tests/ps_goldens.rs`) and the migration record, captured
    // from it.
    for (algo, model, loss, checkpoint_bytes) in [
        ("mlr", 0xb19a_804e_6eef_ea7f, 0xd98c_9ddc_3457_3118, 288),
        ("lda", 0x4623_c305_5cb2_11cc, 0x95ed_aeec_8108_00de, 2904),
    ] {
        for sparse_push in [true, false] {
            let tag = format!("{algo} sparse_push={sparse_push}");
            let report = migrated_run(algo, 2, 4, 3, 6, sparse_push);
            let got_model = fnv1a(
                report
                    .final_model
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            );
            let got_loss =
                fnv1a(report.loss_history.iter().flat_map(|&(i, l)| {
                    i.to_le_bytes().into_iter().chain(l.to_bits().to_le_bytes())
                }));
            assert_eq!(
                got_model, model,
                "{tag}: migrated model diverged from the reference ({got_model:#018x})"
            );
            assert_eq!(
                got_loss, loss,
                "{tag}: migrated loss trajectory diverged from the reference ({got_loss:#018x})"
            );
            assert_eq!(
                report.migrated,
                Some(MigrationRecord {
                    at_iteration: 3,
                    from_dop: 2,
                    checkpoint_bytes,
                }),
                "{tag}: migration record"
            );
        }
    }
}

#[test]
fn migrated_replay_is_deterministic() {
    // Replay twice: identical bits, loss trajectories, and migration
    // records both times.
    let a = migrated_run("nmf", 2, 3, 2, 5, true);
    let b = migrated_run("nmf", 2, 3, 2, 5, true);
    assert_eq!(bits(&a.final_model), bits(&b.final_model));
    let traj = |r: &JobReport| -> Vec<(u64, u64)> {
        r.loss_history
            .iter()
            .map(|&(i, l)| (i, l.to_bits()))
            .collect()
    };
    assert_eq!(traj(&a), traj(&b), "loss trajectory");
    assert_eq!(a.migrated, b.migrated);
}

#[test]
fn migration_at_first_and_penultimate_boundary() {
    // Edge boundaries: right after the first iteration, and with a
    // single iteration left to run on the new workers.
    for boundary in [1, 5] {
        assert_migration_matches_restart("mlr", 4, 2, boundary, 6);
    }
}
