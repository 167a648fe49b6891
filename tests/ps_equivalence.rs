//! What the PS runtime does beyond its digests: wire volumes, buffer
//! budgets, APPLY timings, aborts, and a zero-length wire that must
//! match a wire through the COMM executors bit for bit.
//!
//! The bits of training itself — final model and loss history for every
//! algorithm across DoP, all-reduce, abort, migration and co-location,
//! with sparse PUSH on and off — are pinned in `tests/ps_goldens.rs`,
//! under a `VirtualClock`. The `*_matches*` tests here hold the same
//! cells to the retired phase-barriered reference runtime's outcome on
//! the wall clock, where executor threads interleave as they will: the
//! numerics must not depend on the clock.

use std::sync::Arc;
use std::time::Duration;

use harmony::core::JobId;
use harmony::ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony::ps::{
    iteration_samples, JobBuilder, JobReport, PsCluster, PsConfig, SubtaskKind, TrainingJob,
    VirtualClock,
};

fn cluster(nodes: usize) -> PsCluster {
    PsCluster::new(PsConfig {
        nodes,
        ..PsConfig::default()
    })
}

struct Spec {
    algo: &'static str,
    workers: usize,
    iters: u64,
    all_reduce: bool,
    abort_after: Option<u64>,
}

impl Spec {
    fn new(algo: &'static str, workers: usize, iters: u64) -> Self {
        Self {
            algo,
            workers,
            iters,
            all_reduce: false,
            abort_after: None,
        }
    }

    /// Builds the job fresh for each run — synth data and worker seeds
    /// are deterministic, so every run sees identical inputs.
    fn job(&self) -> TrainingJob {
        let w = self.workers;
        let mut b = JobBuilder::new(format!("{}-{}w", self.algo, w));
        b = match self.algo {
            "mlr" => {
                let data = synth::classification(96, 12, 3, 0.3, 5);
                b.workers(
                    synth::partition(&data, w)
                        .into_iter()
                        .map(|p| Box::new(Mlr::new(p, 12, 3, 0.5)) as Box<dyn PsAlgorithm>),
                )
            }
            "lasso" => {
                let data = synth::regression(96, 16, 0.3, 6);
                b.workers(
                    synth::partition(&data, w)
                        .into_iter()
                        .map(|p| Box::new(Lasso::new(p, 16, 0.05, 0.01)) as Box<dyn PsAlgorithm>),
                )
            }
            "nmf" => {
                let ratings = synth::ratings(24, 30, 8, 3, 7);
                b.workers(
                    synth::partition(&ratings, w)
                        .into_iter()
                        .map(|p| Box::new(Nmf::new(p, 30, 3, 0.05)) as Box<dyn PsAlgorithm>),
                )
            }
            "lda" => {
                let docs = synth::bag_of_words(24, 120, 30, 3, 8);
                b.workers(
                    synth::partition(&docs, w)
                        .into_iter()
                        .enumerate()
                        .map(|(i, p)| {
                            Box::new(Lda::new(p, 120, 3, i as u64)) as Box<dyn PsAlgorithm>
                        }),
                )
            }
            other => panic!("unknown algorithm {other}"),
        };
        if self.all_reduce {
            b = b.all_reduce();
        }
        if let Some(at) = self.abort_after {
            b = b.abort_after(at);
        }
        b.max_iterations(self.iters).check_every(2).build()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(tag: &str, a: &JobReport, b: &JobReport) {
    assert_eq!(a.iterations, b.iterations, "{tag}: iterations");
    assert_eq!(a.converged, b.converged, "{tag}: converged");
    assert_eq!(a.aborted, b.aborted, "{tag}: aborted");
    assert_eq!(
        bits(&a.final_model),
        bits(&b.final_model),
        "{tag}: final model diverged"
    );
    let traj = |r: &JobReport| -> Vec<(u64, u64)> {
        r.loss_history
            .iter()
            .map(|&(i, l)| (i, l.to_bits()))
            .collect()
    };
    assert_eq!(traj(a), traj(b), "{tag}: loss trajectory diverged");
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the final model's and of the loss history's `to_bits`, as
/// `tests/ps_goldens.rs` computes them.
fn digests(r: &JobReport) -> (u64, u64) {
    let model = fnv1a(r.final_model.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    let loss = fnv1a(
        r.loss_history
            .iter()
            .flat_map(|&(i, l)| i.to_le_bytes().into_iter().chain(l.to_bits().to_le_bytes())),
    );
    (model, loss)
}

/// A cell's outcome on the reference runtime, captured before it was
/// retired: `(iterations, model digest, loss digest)`.
type Reference = (u64, u64, u64);

/// Runs `spec` with sparse PUSH on and off and holds both runs to the
/// reference runtime's outcome.
fn assert_matches_reference(spec: Spec, (iterations, model, loss): Reference) {
    let tag = format!(
        "{} workers={} all_reduce={} abort={:?}",
        spec.algo, spec.workers, spec.all_reduce, spec.abort_after
    );
    let run = |sparse_push| {
        PsCluster::new(PsConfig {
            nodes: spec.workers,
            sparse_push,
            ..PsConfig::default()
        })
        .run_jobs(vec![spec.job()])
        .remove(0)
    };
    let sparse = run(true);
    let dense = run(false);
    for (arm, r) in [("sparse", &sparse), ("dense", &dense)] {
        assert_eq!(r.iterations, iterations, "{tag} [{arm}]: iterations");
        assert!(!r.converged, "{tag} [{arm}]: converged");
        assert_eq!(
            r.aborted,
            spec.abort_after.is_some(),
            "{tag} [{arm}]: aborted"
        );
        let (got_model, got_loss) = digests(r);
        assert_eq!(
            got_model, model,
            "{tag} [{arm}]: final model diverged ({got_model:#018x}, reference {model:#018x})"
        );
        assert_eq!(
            got_loss, loss,
            "{tag} [{arm}]: loss trajectory diverged ({got_loss:#018x}, reference {loss:#018x})"
        );
    }
    // The flag never inflates the wire: sparse iterations are counted
    // against the same dense denominator both wires report.
    assert!(
        sparse.total_push_bytes() <= dense.total_push_bytes(),
        "{tag}: wire grew"
    );
    assert_eq!(
        dense.push_density(),
        1.0,
        "{tag}: dense wire must report unit density"
    );
}

/// The cheap gate: one small job, both wire forms.
#[test]
fn tiny_scale_fast_runtime_matches_reference() {
    assert_matches_reference(
        Spec::new("lasso", 2, 4),
        (4, 0xc11d_b000_a23e_48d3, 0xc0d0_f1d8_2bf1_8afd),
    );
}

#[test]
fn all_algorithms_match_across_worker_counts() {
    for (algo, workers, model, loss) in [
        ("mlr", 1, 0x2911_15ea_b44d_0ea0, 0x320b_e233_b404_7e8c),
        ("mlr", 2, 0x9780_c57d_7900_1668, 0x14e1_2762_d38b_5ce6),
        ("mlr", 4, 0x3d76_fa61_ff17_67ae, 0x1e52_c3bd_8841_c65f),
        ("mlr", 8, 0x1576_f79d_252a_48f5, 0xe74e_8332_333d_a342),
        ("lasso", 1, 0x8be6_1fad_1581_83d1, 0xbd8d_8011_734c_add5),
        ("lasso", 2, 0x5a74_4738_c9c6_4e76, 0x2719_b72d_4549_a25c),
        ("lasso", 4, 0x6a14_7f5f_e3fd_767a, 0xe964_bff5_b0c6_30ae),
        ("lasso", 8, 0x9c19_c7d9_2368_6fee, 0xbdd5_0387_76e9_7952),
        ("nmf", 1, 0x21eb_5694_cb6c_d49e, 0x1ee7_d503_c91a_0706),
        ("nmf", 2, 0xa6de_35cf_0209_7edc, 0x1ff3_9f08_f780_3a86),
        ("nmf", 4, 0x75b0_2944_f404_63e3, 0xfa7a_7a99_3c4c_dd4a),
        ("nmf", 8, 0x0bac_aba3_354f_0d00, 0x254c_cfaa_deea_4e3d),
        ("lda", 1, 0x6b45_01ec_95a5_2607, 0xc749_09ab_33ad_1cd0),
        ("lda", 2, 0x9d5f_64bb_2414_9846, 0xeb26_6d1d_8980_73cb),
        ("lda", 4, 0xfa75_8851_5857_a5b8, 0x99a4_d82c_cc84_cfc4),
        ("lda", 8, 0x94fa_00b0_86a1_432f, 0xfeb0_b8de_463d_a0b7),
    ] {
        assert_matches_reference(Spec::new(algo, workers, 6), (6, model, loss));
    }
}

#[test]
fn all_reduce_synchronization_matches() {
    for (workers, model, loss) in [
        (2, 0x5194_f3be_d00c_34ee, 0x2917_cd62_6313_67a3),
        (4, 0x13cd_2118_8bbc_c13f, 0x1e52_c3bd_8841_c65f),
        (8, 0xd87c_5fd8_568a_9394, 0xe74e_8332_333d_a342),
    ] {
        assert_matches_reference(
            Spec {
                all_reduce: true,
                ..Spec::new("mlr", workers, 6)
            },
            (6, model, loss),
        );
    }
}

#[test]
fn abort_mid_iteration_matches() {
    // Mid-run abort: the doomed iteration's PULLs are drained, leaving
    // the model exactly as of the previous iteration.
    for (algo, model, loss) in [
        ("mlr", 0xe902_0b81_7584_d9f0, 0x4bd3_44b3_e6bf_3ab8),
        ("lda", 0x6356_0d7d_1822_769e, 0x329a_efe3_11f2_87a0),
    ] {
        assert_matches_reference(
            Spec {
                abort_after: Some(4),
                ..Spec::new(algo, 4, 8)
            },
            (3, model, loss),
        );
    }
    // Abort as the very first iteration begins: no COMP ever runs.
    assert_matches_reference(
        Spec {
            abort_after: Some(1),
            ..Spec::new("lasso", 2, 8)
        },
        (0, 0xb1a0_1776_b50e_866c, 0xb21e_45a5_75cb_6b4c),
    );
}

#[test]
fn aborted_job_reports_truncated_progress() {
    let report = cluster(4)
        .run_jobs(vec![Spec {
            abort_after: Some(3),
            ..Spec::new("lasso", 4, 10)
        }
        .job()])
        .remove(0);
    assert!(report.aborted);
    assert!(!report.converged);
    assert_eq!(report.iterations, 2, "aborted as iteration 3 began");
}

#[test]
fn fast_runtime_reports_apply_phase_times() {
    // Server-side aggregation surfaces as one APPLY subtask per
    // iteration.
    let report = cluster(2)
        .run_jobs(vec![Spec::new("mlr", 2, 6).job()])
        .remove(0);
    let applies = report
        .timings
        .iter()
        .filter(|t| t.kind == SubtaskKind::Apply);
    assert_eq!(applies.count(), 6);
    assert!(report.mean_tapply > 0.0);
}

#[test]
fn sparse_push_shrinks_the_wire_on_sparse_workloads() {
    // LDA and NMF updates touch a small fraction of the model: the
    // sparse wire must move measurably fewer bytes (the digests in
    // `ps_goldens` hold its bits to the dense wire's). MLR is naturally
    // dense — its fallback must keep the exact dense byte count.
    let lda = cluster(4)
        .run_jobs(vec![Spec::new("lda", 4, 6).job()])
        .remove(0);
    assert!(
        lda.push_density() < 0.5,
        "lda: density {} not sparse",
        lda.push_density()
    );
    assert!(lda.total_push_bytes() > 0);
    assert_eq!(lda.push_volumes.len(), 6, "lda: one volume per iteration");
    // A wide catalog where each worker rates a sliver of the items —
    // the factor-row support Spec::new's 30-item matrix is too dense
    // to show (every item is locally rated there, a correct fallback).
    let ratings = synth::ratings(24, 400, 5, 3, 7);
    let nmf = cluster(4)
        .run_jobs(vec![JobBuilder::new("nmf-wide")
            .workers(
                synth::partition(&ratings, 4)
                    .into_iter()
                    .map(|p| Box::new(Nmf::new(p, 400, 3, 0.05)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(6)
            .build()])
        .remove(0);
    assert!(
        nmf.push_density() < 0.5,
        "nmf: density {} not sparse",
        nmf.push_density()
    );
    let mlr = cluster(4)
        .run_jobs(vec![Spec::new("mlr", 4, 6).job()])
        .remove(0);
    assert_eq!(mlr.push_density(), 1.0, "mlr: dense fallback engaged");
}

#[test]
fn cluster_comm_stats_aggregate_push_volumes() {
    let c = cluster(4);
    let reports = c.run_jobs(vec![
        Spec::new("lda", 4, 4).job(),
        Spec::new("mlr", 4, 4).job(),
    ]);
    let stats = c.comm_stats();
    let bytes: u64 = reports.iter().map(|r| r.total_push_bytes()).sum();
    assert_eq!(stats.push_bytes, bytes);
    assert!(stats.sparse_pushes >= 4, "every LDA iteration went sparse");
    assert!(stats.dense_pushes >= 4, "every MLR iteration stayed dense");
    assert!(stats.density() < 1.0);
    assert!(stats.bytes_saved() > 0);
}

#[test]
fn pool_reuses_buffers_across_runs() {
    // `run_jobs` waits for the executor threads to let go of the last
    // task `Arc`s before it returns, so the pool is whole the moment it
    // does — no settling time between runs.
    let c = cluster(2);
    let _ = c.run_jobs(vec![Spec::new("lasso", 2, 4).job()]);
    let first = c.pool_stats();
    assert_eq!(first.outstanding, 0, "buffers still out: {first:?}");
    let _ = c.run_jobs(vec![Spec::new("lasso", 2, 4).job()]);
    let second = c.pool_stats();
    assert_eq!(second.outstanding, 0, "buffers still out: {second:?}");
    assert_eq!(
        second.allocations, first.allocations,
        "second run should draw every buffer from the pool"
    );
    assert!(second.reuses > first.reuses);
}

#[test]
fn a_job_draws_its_buffer_budget_and_no_more() {
    // A job draws its one model buffer and one update buffer per
    // worker from the pool, and index + value staging only for the
    // workers that ever ship sparse: none for Lasso on its non-zero
    // init or for MLR (every PUSH falls back dense), all of them for
    // LDA. Nothing else holds a copy of the model.
    for (algo, dop, draws) in [
        ("lasso", 2, 1 + 2),
        ("mlr", 4, 1 + 4),
        ("lda", 4, 1 + 3 * 4),
    ] {
        let c = cluster(dop);
        let report = c.run_jobs(vec![Spec::new(algo, dop, 4).job()]).remove(0);
        assert_eq!(
            report.push_density() < 1.0,
            algo == "lda",
            "{algo}: wire form is not the one this budget assumes"
        );
        let first = c.pool_stats();
        assert_eq!(first.allocations, draws, "{algo}: {first:?}");
        assert_eq!(first.reuses, 0, "{algo}: {first:?}");
        assert_eq!(first.outstanding, 0, "{algo}: {first:?}");
        assert_eq!(first.free, draws, "{algo}: {first:?}");
        let _ = c.run_jobs(vec![Spec::new(algo, dop, 4).job()]);
        let second = c.pool_stats();
        assert_eq!(second.allocations, draws, "{algo}: second run allocated");
        assert_eq!(second.reuses, draws, "{algo}: {second:?}");
        assert_eq!(second.outstanding, 0, "{algo}: {second:?}");
        assert_eq!(second.free, draws, "{algo}: {second:?}");
    }
}

#[test]
fn zero_wire_matches_a_wire_through_the_comm_executors() {
    // With no simulated network a PULL or PUSH never leaves the master;
    // with an infinitely fast one it sleeps for zero seconds on a COMM
    // executor thread. Same jobs, same scripted clock: every output
    // must agree, and only the COMM executors' task counts may differ.
    let specs = || {
        [
            Spec::new("mlr", 4, 6),
            Spec::new("lasso", 2, 6),
            Spec::new("nmf", 2, 6),
            Spec::new("lda", 4, 6),
            Spec {
                all_reduce: true,
                ..Spec::new("mlr", 2, 6)
            },
            Spec {
                abort_after: Some(3),
                ..Spec::new("lasso", 2, 6)
            },
        ]
    };
    let run = |network_bytes_per_sec: Option<f64>| {
        let clock = VirtualClock::new(|job, node, kind, iter| {
            let base = if kind == SubtaskKind::Comp { 900 } else { 70 };
            Duration::from_micros(base + 100 * job as u64 + 10 * node as u64 + iter)
        });
        let c = PsCluster::with_clock(
            PsConfig {
                nodes: 4,
                network_bytes_per_sec,
                ..PsConfig::default()
            },
            Arc::new(clock),
        );
        let reports = c.run_jobs(specs().iter().map(Spec::job).collect());
        (reports, c.executor_stats())
    };
    let (local, local_stats) = run(None);
    let (wired, wired_stats) = run(Some(f64::INFINITY));

    for (j, (l, w)) in local.iter().zip(&wired).enumerate() {
        assert_identical(&format!("zero-wire {}", l.name), l, w);
        assert_eq!(l.push_volumes, w.push_volumes, "{}: push volumes", l.name);
        let id = JobId::new(j as u64);
        assert_eq!(
            iteration_samples(l, id),
            iteration_samples(w, id),
            "{}: iteration samples",
            l.name
        );
    }
    assert!(local[5].aborted && local[5].iterations == 2);

    // One APPLY per job-iteration, on node `job mod nodes`. A finished
    // iteration also ran one PULL and one PUSH on each of its workers'
    // nodes; the aborted job's doomed iteration, its PULLs alone.
    let mut applies = [0usize; 4];
    let mut wire_subtasks = [0usize; 4];
    for (j, (spec, report)) in specs().iter().zip(&local).enumerate() {
        applies[j % 4] += report.iterations as usize;
        for node in wire_subtasks.iter_mut().take(spec.workers) {
            *node += 2 * report.iterations as usize + usize::from(report.aborted);
        }
    }
    for (n, ((l_cpu, l_comm), (w_cpu, w_comm))) in local_stats.iter().zip(&wired_stats).enumerate()
    {
        let folds = applies[n];
        assert_eq!(l_comm.completed, folds, "node {n}: zero-wire COMM tasks");
        assert_eq!(
            w_comm.completed,
            folds + wire_subtasks[n],
            "node {n}: wired COMM tasks"
        );
        assert_eq!(l_cpu.completed, w_cpu.completed, "node {n}: COMP tasks");
        for (cpu, comm) in [(l_cpu, l_comm), (w_cpu, w_comm)] {
            assert!(cpu.peak_concurrency <= 1, "node {n}: {cpu:?}");
            assert!(comm.peak_concurrency <= 2, "node {n}: {comm:?}");
        }
    }
}
