//! Equivalence gate for the zero-copy pipelined PS runtime.
//!
//! `PsConfig::fast_runtime` (default on) must be a pure optimization:
//! pooled buffers, ranged apply, and per-worker pipelining may change
//! *when* work happens, never *what* is computed. These tests run the
//! same jobs through both arms and compare the final model and the loss
//! trajectory **bit for bit** (`f64::to_bits`) — f64 addition is not
//! associative, so byte-identity only holds because both arms fold
//! worker updates in the same (worker-id) order per element.
//!
//! `PsConfig::sparse_push` (default on) is held to the same bar: every
//! pairing runs the fast arm twice — coordinate-sparse PUSH and forced
//! dense — and both must match the dense reference bit for bit. The
//! sparse scatter may skip only slots holding signed zeros, which fold
//! bit-neutrally (see `StripedModel::stripe_add_sparse`).

use std::sync::Arc;
use std::time::Duration;

use harmony::core::JobId;
use harmony::ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony::ps::{
    iteration_samples, JobBuilder, JobReport, PsCluster, PsConfig, SubtaskKind, TrainingJob,
    VirtualClock,
};

fn cluster(nodes: usize, fast_runtime: bool, sparse_push: bool) -> PsCluster {
    PsCluster::new(PsConfig {
        nodes,
        network_bytes_per_sec: None,
        fast_runtime,
        live_migration: false,
        sparse_push,
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

    /// Builds the job fresh for each arm — synth data and worker seeds
    /// are deterministic, so both arms see identical inputs.
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

fn assert_identical(tag: &str, fast: &JobReport, reference: &JobReport) {
    assert_eq!(fast.iterations, reference.iterations, "{tag}: iterations");
    assert_eq!(fast.converged, reference.converged, "{tag}: converged");
    assert_eq!(fast.aborted, reference.aborted, "{tag}: aborted");
    assert_eq!(
        bits(&fast.final_model),
        bits(&reference.final_model),
        "{tag}: final model diverged"
    );
    let traj = |r: &JobReport| -> Vec<(u64, u64)> {
        r.loss_history
            .iter()
            .map(|&(i, l)| (i, l.to_bits()))
            .collect()
    };
    assert_eq!(
        traj(fast),
        traj(reference),
        "{tag}: loss trajectory diverged"
    );
}

fn run_pair(spec: Spec) {
    let tag = format!(
        "{} workers={} all_reduce={} abort={:?}",
        spec.algo, spec.workers, spec.all_reduce, spec.abort_after
    );
    let sparse = cluster(spec.workers, true, true)
        .run_jobs(vec![spec.job()])
        .remove(0);
    let dense = cluster(spec.workers, true, false)
        .run_jobs(vec![spec.job()])
        .remove(0);
    let reference = cluster(spec.workers, false, false)
        .run_jobs(vec![spec.job()])
        .remove(0);
    assert_identical(&format!("{tag} [sparse]"), &sparse, &reference);
    assert_identical(&format!("{tag} [dense]"), &dense, &reference);
    // The flag never inflates the wire: sparse iterations are counted
    // against the same dense denominator both arms report.
    assert!(
        sparse.total_push_bytes() <= dense.total_push_bytes(),
        "{tag}: wire grew"
    );
    assert_eq!(
        dense.push_density(),
        1.0,
        "{tag}: dense arm must report unit density"
    );
}

/// The cheap gate `scripts/check.sh --bench-smoke` runs: one small
/// job, both arms, bit-compared.
#[test]
fn tiny_scale_fast_runtime_matches_reference() {
    run_pair(Spec::new("lasso", 2, 4));
}

#[test]
fn all_algorithms_match_across_worker_counts() {
    for algo in ["mlr", "lasso", "nmf", "lda"] {
        for workers in [1usize, 2, 4, 8] {
            run_pair(Spec::new(algo, workers, 6));
        }
    }
}

#[test]
fn all_reduce_synchronization_matches() {
    for workers in [2usize, 4, 8] {
        run_pair(Spec {
            all_reduce: true,
            ..Spec::new("mlr", workers, 6)
        });
    }
}

#[test]
fn abort_mid_iteration_matches() {
    // Mid-run abort: the doomed iteration's PULLs are drained in both
    // arms, leaving the model exactly as of the previous iteration.
    for algo in ["mlr", "lda"] {
        run_pair(Spec {
            abort_after: Some(4),
            ..Spec::new(algo, 4, 8)
        });
    }
    // Abort as the very first iteration begins: no COMP ever runs.
    run_pair(Spec {
        abort_after: Some(1),
        ..Spec::new("lasso", 2, 8)
    });
}

#[test]
fn aborted_job_reports_truncated_progress() {
    let report = cluster(4, true, true)
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
fn colocated_jobs_match_their_solo_runs() {
    // Co-location multiplexes executors but must not perturb results:
    // run two jobs together on each arm and bit-compare across arms.
    let jobs = || vec![Spec::new("mlr", 4, 6).job(), Spec::new("lasso", 2, 6).job()];
    let fast = cluster(4, true, true).run_jobs(jobs());
    let reference = cluster(4, false, false).run_jobs(jobs());
    for (f, r) in fast.iter().zip(&reference) {
        assert_identical(&format!("colocated {}", f.name), f, r);
    }
}

#[test]
fn fast_runtime_reports_apply_phase_times() {
    let fast = cluster(2, true, true)
        .run_jobs(vec![Spec::new("mlr", 2, 6).job()])
        .remove(0);
    let reference = cluster(2, false, false)
        .run_jobs(vec![Spec::new("mlr", 2, 6).job()])
        .remove(0);
    // The fast arm surfaces server-side aggregation as APPLY subtasks;
    // the reference folds inside PUSH and reports none.
    assert!(fast
        .timings
        .iter()
        .any(|t| format!("{}", t.kind) == "APPLY"));
    assert!(fast.mean_tapply > 0.0);
    assert_eq!(reference.mean_tapply, 0.0);
}

#[test]
fn sparse_push_shrinks_the_wire_on_sparse_workloads() {
    // LDA and NMF updates touch a small fraction of the model: the
    // sparse arm must move measurably fewer bytes while (per run_pair)
    // computing identical bits. MLR is naturally dense — its fallback
    // must keep the exact dense byte count.
    let lda = cluster(4, true, true)
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
    let nmf = cluster(4, true, true)
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
    let mlr = cluster(4, true, true)
        .run_jobs(vec![Spec::new("mlr", 4, 6).job()])
        .remove(0);
    assert_eq!(mlr.push_density(), 1.0, "mlr: dense fallback engaged");
}

#[test]
fn cluster_comm_stats_aggregate_push_volumes() {
    let c = cluster(4, true, true);
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
    let c = cluster(2, true, true);
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
        let c = cluster(dop, true, true);
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
