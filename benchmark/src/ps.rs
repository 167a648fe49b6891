//! The two PS-runtime workloads: `harmony-ps` training `harmony-ml`
//! models on real threads, buffers from `harmony-mem`.
//!
//! The cluster is pinned at `nodes: 2`, the core count of the box the
//! baselines were taken on, so the numbers measure the runtime and not
//! the OS scheduler. Each node still owns one CPU-executor thread and
//! two COMM-executor threads (six in all).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use harmony_mem::BufferPool;
use harmony_ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony_ps::{
    ExecutorStats, JobBuilder, JobReport, PsCluster, PsConfig, StripedModel, SubtaskKind,
    TrainingJob, DEFAULT_STRIPE_LEN,
};

use crate::measure::{fnv1a, peak_rss_mib, repeat_for, time_call, Outcome, RunArgs, SETUPS};
use crate::stats::median;

const NODES: usize = 2;

/// What the benchmark observes of one job through the `PsAlgorithm`
/// calls the runtime makes, with no change to the runtime.
#[derive(Default)]
struct Probe {
    /// Nanoseconds after `PsCase::epoch` of the latest `loss` call. The
    /// runtime evaluates the loss once more as a job completes, so
    /// after `run_jobs` this is the job's completion time.
    last_loss_ns: AtomicU64,
    /// Host nanoseconds inside `compute_update_into`, summed over the
    /// job's workers (traced runs only).
    compute_ns: AtomicU64,
}

/// A worker's algorithm with the probe attached.
struct Observed {
    inner: Box<dyn PsAlgorithm>,
    probe: Arc<Probe>,
    epoch: Instant,
    /// Time every COMP body; the one cost a traced run adds.
    time_compute: bool,
}

impl PsAlgorithm for Observed {
    fn model_len(&self) -> usize {
        self.inner.model_len()
    }

    fn init_model(&self, seed: u64) -> Vec<f64> {
        self.inner.init_model(seed)
    }

    fn compute_update_into(&mut self, model: &[f64], update: &mut [f64]) {
        if self.time_compute {
            let t = Instant::now();
            self.inner.compute_update_into(model, update);
            // Relaxed: a statistic, read after `run_jobs` has joined
            // the iteration through its own channels.
            self.probe
                .compute_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.inner.compute_update_into(model, update);
        }
    }

    fn sparse_support(&self) -> Option<&[u32]> {
        self.inner.sparse_support()
    }

    fn loss(&self, model: &[f64]) -> f64 {
        let loss = self.inner.loss(model);
        self.probe
            .last_loss_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        loss
    }

    fn num_examples(&self) -> usize {
        self.inner.num_examples()
    }

    fn initial_update(&self) -> Option<Vec<f64>> {
        self.inner.initial_update()
    }
}

type Workers = Vec<Box<dyn PsAlgorithm>>;

/// One job of a workload: how to build its workers afresh for each rep
/// (workers hold training state, so no rep may reuse another's).
struct JobPlan {
    name: &'static str,
    /// Per-layer metric the job's bare COMP body is reported under.
    compute_metric: &'static str,
    iterations: u64,
    check_every: u64,
    workers: Box<dyn Fn() -> Workers>,
}

/// One PS workload with its data generated and its cluster running.
struct PsCase {
    cluster: PsCluster,
    plans: Vec<JobPlan>,
    seed: u64,
    epoch: Instant,
    /// Largest model dimension among the jobs.
    dim: usize,
}

fn boxed<A: PsAlgorithm + 'static>(algo: A) -> Box<dyn PsAlgorithm> {
    Box::new(algo)
}

/// About 100 non-zeros per example whatever the dimension, so COMP
/// cost follows the O(dim) dense passes, as in the wide sparse models
/// of the paper's applications.
fn density(dim: usize) -> f64 {
    (100.0 / dim as f64).min(1.0)
}

fn lasso_plan(dim: usize, examples: u32, iterations: u64, check_every: u64, seed: u64) -> JobPlan {
    let parts = synth::partition(&synth::regression(examples, dim, density(dim), seed), NODES);
    JobPlan {
        name: "lasso",
        compute_metric: "ml.lasso.compute_us",
        iterations,
        check_every,
        workers: Box::new(move || {
            parts
                .iter()
                .map(|p| boxed(Lasso::new(p.clone(), dim, 0.05, 0.01)))
                .collect()
        }),
    }
}

/// MLR + Lasso + NMF + LDA, `params` model parameters each. LDA runs a
/// quarter of the iterations, as in the repo's §V-B sanity run.
fn colocated_plans(params: usize, iterations: u64, seed: u64) -> Vec<JobPlan> {
    let classes = 5;
    let features = params / classes;
    let mlr_parts = synth::partition(
        &synth::classification(
            400,
            features,
            classes,
            density(features),
            seed.wrapping_add(1),
        ),
        NODES,
    );
    let mlr = JobPlan {
        name: "mlr",
        compute_metric: "ml.mlr.compute_us",
        iterations,
        check_every: 10,
        workers: Box::new(move || {
            mlr_parts
                .iter()
                .map(|p| boxed(Mlr::new(p.clone(), features, classes, 0.5)))
                .collect()
        }),
    };

    let lasso = lasso_plan(params, 400, iterations, 10, seed.wrapping_add(2));

    let rank = 4;
    let items = params / rank;
    let nmf_parts = synth::partition(
        &synth::ratings(60, items as u32, 12, rank, seed.wrapping_add(3)),
        NODES,
    );
    let nmf = JobPlan {
        name: "nmf",
        compute_metric: "ml.nmf.compute_us",
        iterations,
        check_every: 10,
        workers: Box::new(move || {
            nmf_parts
                .iter()
                .map(|p| boxed(Nmf::new(p.clone(), items, rank, 0.05)))
                .collect()
        }),
    };

    let topics = 5;
    let vocab = params / topics;
    let lda_parts = synth::partition(
        &synth::bag_of_words(80, vocab as u32, 60, topics, seed.wrapping_add(4)),
        NODES,
    );
    let lda = JobPlan {
        name: "lda",
        compute_metric: "ml.lda.compute_us",
        iterations: (iterations / 4).max(1),
        check_every: 5,
        workers: Box::new(move || {
            lda_parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    boxed(Lda::new(
                        p.clone(),
                        vocab,
                        topics,
                        seed.wrapping_add(i as u64),
                    ))
                })
                .collect()
        }),
    };
    vec![mlr, lasso, nmf, lda]
}

fn build_case(name: &str, seed: u64, smoke: bool) -> PsCase {
    let (plans, dim) = match (name, smoke) {
        ("ps_colocated", false) => (colocated_plans(100_000, 400, seed), 100_000),
        ("ps_colocated", true) => (colocated_plans(2_000, 20, seed), 2_000),
        ("ps_wide_dense", false) => (vec![lasso_plan(1_000_000, 16, 200, 200, seed)], 1_000_000),
        ("ps_wide_dense", true) => (vec![lasso_plan(20_000, 16, 20, 20, seed)], 20_000),
        (other, _) => unreachable!("{other} is not a PS workload"),
    };
    let cluster = PsCluster::new(PsConfig {
        nodes: NODES,
        network_bytes_per_sec: None,
        ..PsConfig::default()
    });
    PsCase {
        cluster,
        plans,
        seed,
        epoch: Instant::now(),
        dim,
    }
}

/// One rep, reduced to numbers: the reports (8 MB of model per job on
/// `ps_wide_dense`) are dropped before the next rep starts, so peak
/// memory does not grow with the rep count.
struct Rep {
    wall: f64,
    iterations: u64,
    /// Mean over jobs of the host seconds from `run_jobs` being called
    /// to the job's last loss evaluation.
    mean_jct: f64,
    /// Σ `SubtaskTiming::elapsed` for PULL, COMP, PUSH, APPLY.
    subtask_secs: [f64; 4],
    subtasks: usize,
    push_bytes: u64,
    dense_bytes: u64,
    /// Mean over jobs of `1 - final_loss / initial_loss`.
    loss_drop: f64,
    /// Host seconds inside the bare COMP bodies (0 unless traced).
    compute_secs: f64,
    /// Hash of every job's final model, bit for bit.
    digest: String,
    /// One line per job that stopped early or whose loss did not drop.
    problems: Vec<String>,
}

const KINDS: [(SubtaskKind, &str); 4] = [
    (SubtaskKind::Pull, "ps.subtask.pull_s"),
    (SubtaskKind::Comp, "ps.subtask.comp_s"),
    (SubtaskKind::Push, "ps.subtask.push_s"),
    (SubtaskKind::Apply, "ps.subtask.apply_s"),
];

impl Rep {
    /// Share of the CPU executors' time spent in COMP subtasks.
    fn cpu_util(&self) -> f64 {
        self.subtask_secs[1] / (NODES as f64 * self.wall)
    }
}

/// Builds fresh jobs (outside the clock), trains them to the end, and
/// reduces the reports to a [`Rep`].
fn run_once(case: &PsCase, time_compute: bool) -> Rep {
    let probes: Vec<Arc<Probe>> = case
        .plans
        .iter()
        .map(|_| Arc::new(Probe::default()))
        .collect();
    let jobs: Vec<TrainingJob> = case
        .plans
        .iter()
        .zip(&probes)
        .map(|(plan, probe)| {
            let workers = (plan.workers)().into_iter().map(|inner| {
                boxed(Observed {
                    inner,
                    probe: Arc::clone(probe),
                    epoch: case.epoch,
                    time_compute,
                })
            });
            JobBuilder::new(plan.name)
                .workers(workers)
                .max_iterations(plan.iterations)
                .check_every(plan.check_every)
                .seed(case.seed)
                .build()
        })
        .collect();

    let started_ns = case.epoch.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let reports = case.cluster.run_jobs(jobs);
    let wall = t.elapsed().as_secs_f64();

    let jobs = reports.len() as f64;
    let mut problems = Vec::new();
    for (plan, r) in case.plans.iter().zip(&reports) {
        if r.iterations != plan.iterations || r.aborted {
            problems.push(format!(
                "{}: {} of {} iterations completed",
                plan.name, r.iterations, plan.iterations
            ));
        }
        if r.final_loss.partial_cmp(&r.initial_loss) != Some(std::cmp::Ordering::Less) {
            problems.push(format!(
                "{}: loss did not drop ({} -> {})",
                plan.name, r.initial_loss, r.final_loss
            ));
        }
    }
    let timings = || reports.iter().flat_map(|r| &r.timings);
    Rep {
        wall,
        iterations: reports.iter().map(|r| r.iterations).sum(),
        mean_jct: probes
            .iter()
            .map(|p| {
                p.last_loss_ns
                    .load(Ordering::Relaxed)
                    .saturating_sub(started_ns) as f64
                    / 1e9
            })
            .sum::<f64>()
            / jobs,
        subtask_secs: KINDS.map(|(kind, _)| {
            timings()
                .filter(|t| t.kind == kind)
                .map(|t| t.elapsed.as_secs_f64())
                .sum()
        }),
        subtasks: timings().count(),
        push_bytes: reports.iter().map(JobReport::total_push_bytes).sum(),
        dense_bytes: reports
            .iter()
            .flat_map(|r| &r.push_volumes)
            .map(|v| v.dense_bytes)
            .sum(),
        loss_drop: reports
            .iter()
            .map(|r| 1.0 - r.final_loss / r.initial_loss)
            .sum::<f64>()
            / jobs,
        compute_secs: probes
            .iter()
            .map(|p| p.compute_ns.load(Ordering::Relaxed) as f64 / 1e9)
            .sum(),
        digest: fnv1a(
            reports
                .iter()
                .flat_map(|r| &r.final_model)
                .map(|w| w.to_bits().to_le_bytes()),
        ),
        problems,
    }
}

/// Checks every rep must pass.
fn check_rep(out: &mut Outcome, case: &PsCase, rep: &Rep, reference: &str) {
    for problem in &rep.problems {
        out.fail(problem.clone());
    }
    out.check(rep.digest == reference, || {
        format!(
            "final-model digest {} differs from the warm-up rep's {reference}",
            rep.digest
        )
    });
    for (cpu, comm) in case.cluster.executor_stats() {
        out.check(cpu.peak_concurrency <= 1 && comm.peak_concurrency <= 2, || {
            format!(
                "executor discipline broken: {} concurrent COMP (cap 1), {} concurrent COMM (cap 2)",
                cpu.peak_concurrency, comm.peak_concurrency
            )
        });
    }
}

/// Runs one PS workload.
pub fn run(name: &str, args: RunArgs) -> Outcome {
    let mut out = Outcome::new();

    // Set-up, SETUPS times over: generate the data, start the cluster
    // and train one untimed warm-up rep on it (fills the buffer pool;
    // its models are the reference every timed rep has to reproduce).
    let mut setup_secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let case = build_case(name, args.seed, args.smoke);
        let warm = run_once(&case, false);
        setup_secs.push(t.elapsed().as_secs_f64());
        last = Some((case, warm));
    }
    let (case, warm) = last.expect("SETUPS >= 1");
    let reference = warm.digest.clone();
    out.digest = reference.clone();
    check_rep(&mut out, &case, &warm, &reference);
    let requested: u64 = case.plans.iter().map(|p| p.iterations).sum();
    // Every byte pushed on this cluster so far, for the wire books.
    let mut pushed = warm.push_bytes;

    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    repeat_for(args.seconds, if args.trace { 2 } else { 3 }, |_| {
        let rep = run_once(&case, false);
        check_rep(&mut out, &case, &rep, &reference);
        out.attempted += requested;
        out.failed += requested.saturating_sub(rep.iterations);
        pushed += rep.push_bytes;
        plain.push(rep);
        if args.trace {
            let rep = run_once(&case, true);
            check_rep(&mut out, &case, &rep, &reference);
            pushed += rep.push_bytes;
            timed.push(rep);
        }
    });
    let wire = case.cluster.comm_stats();
    out.check(wire.push_bytes == pushed, || {
        format!(
            "wire books: the cluster counted {} PUSH bytes, the job reports {pushed}",
            wire.push_bytes
        )
    });

    let per_rep = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    if !args.trace {
        out.sampled("setup_s", &setup_secs);
        out.sampled(
            "job_iters_per_s",
            &per_rep(&plain, &|r| r.iterations as f64 / r.wall),
        );
        out.exact("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
        out.sampled("mean_jct_s", &per_rep(&plain, &|r| r.mean_jct));
        out.sampled("makespan_s", &per_rep(&plain, &|r| r.wall));
        out.sampled("cpu_util", &per_rep(&plain, &Rep::cpu_util));
        return out;
    }

    let plain_wall = median(&per_rep(&plain, &|r| r.wall));
    let first = &plain[0];
    out.exact("run.wall_s", plain_wall);
    out.exact("run.reps", plain.len() as f64);
    out.exact("run.job_iters", first.iterations as f64);

    for (i, (_, name)) in KINDS.iter().enumerate() {
        out.sampled(name, &per_rep(&plain, &|r| r.subtask_secs[i]));
    }
    out.exact("ps.subtask.count", first.subtasks as f64);
    out.sampled(
        "ps.executor.cpu_idle_frac",
        &per_rep(&plain, &|r| 1.0 - r.cpu_util()),
    );
    let stats = case.cluster.executor_stats();
    let total = |f: fn(&ExecutorStats) -> usize| -> f64 {
        stats
            .iter()
            .map(|(cpu, comm)| f(cpu) + f(comm))
            .sum::<usize>() as f64
    };
    out.exact("ps.executor.completed", total(|s| s.completed));
    out.exact("ps.executor.retries", total(|s| s.retries));
    out.exact("ps.executor.aborted", total(|s| s.aborted));
    let peak_cpu = stats.iter().map(|(cpu, _)| cpu.peak_concurrency).max();
    let peak_comm = stats.iter().map(|(_, comm)| comm.peak_concurrency).max();
    out.exact("ps.executor.peak_cpu", peak_cpu.unwrap_or(0) as f64);
    out.exact("ps.executor.peak_comm", peak_comm.unwrap_or(0) as f64);
    let (push, dense) = (first.push_bytes as f64, first.dense_bytes as f64);
    out.exact("ps.wire.push_bytes", push);
    out.exact("ps.wire.dense_bytes", dense);
    out.exact("ps.wire.density", push / dense.max(1.0));
    // Runtime overhead: the share of the CPU executors' capacity that
    // did not go into a COMP body.
    out.sampled(
        "ps.runtime.overhead_frac",
        &per_rep(&timed, &|r| 1.0 - r.compute_secs / (NODES as f64 * r.wall)),
    );
    out.exact(
        "ps.spans.overhead_frac",
        median(&per_rep(&timed, &|r| r.wall)) / plain_wall - 1.0,
    );
    out.exact(
        "ps.report.push_bytes_per_iter",
        push / first.iterations.max(1) as f64,
    );
    out.exact("ps.report.loss_drop", first.loss_drop);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.exact("ps.report.failed_frac", failed_frac);

    let pool = case.cluster.pool_stats();
    out.exact("mem.pool.allocations", pool.allocations as f64);
    out.exact("mem.pool.reuses", pool.reuses as f64);
    out.exact(
        "mem.pool.reuse_ratio",
        pool.reuses as f64 / (pool.allocations + pool.reuses).max(1) as f64,
    );

    layers_direct(&mut out, &case, args.smoke);
    out
}

/// Times `harmony-mem`, the `harmony-ps` shard store and the
/// `harmony-ml` COMP bodies with no runtime around them, at the
/// workload's model dimension.
fn layers_direct(out: &mut Outcome, case: &PsCase, smoke: bool) {
    let budget = if smoke { 0.01 } else { 0.25 };
    let dim = case.dim;

    let pool = BufferPool::new();
    drop(pool.acquire(dim));
    let acquire = time_call(20, budget, || pool.acquire(dim));
    out.exact("mem.pool.acquire_ns", 1e9 * acquire);

    let store = StripedModel::new(dim, DEFAULT_STRIPE_LEN);
    let mut buf = vec![0.0; dim];
    out.exact(
        "ps.shard.pull_into_us",
        1e6 * time_call(20, budget, || store.pull_into(&mut buf)),
    );
    // One full fold of a dense delta, stripe by stripe.
    let delta = vec![1e-9; dim];
    let dense_fold = time_call(20, budget, || {
        for stripe in 0..store.stripe_count() {
            store.stripe_add(stripe, &delta);
        }
    });
    out.exact("ps.shard.stripe_add_us", 1e6 * dense_fold);
    // The same fold for a delta touching every tenth coordinate.
    let indices: Vec<u32> = (0..dim as u32).step_by(10).collect();
    let values = vec![1e-9; indices.len()];
    let sparse_fold = time_call(20, budget, || {
        for stripe in 0..store.stripe_count() {
            store.stripe_add_sparse(stripe, &indices, &values);
        }
    });
    out.exact("ps.shard.stripe_add_sparse_us", 1e6 * sparse_fold);

    for plan in &case.plans {
        let mut workers = (plan.workers)();
        // The model the runtime's first COMP sees.
        let mut model = workers[0].init_model(case.seed);
        for w in &workers {
            if let Some(init) = w.initial_update() {
                model.iter_mut().zip(&init).for_each(|(m, d)| *m += d);
            }
        }
        let mut update = vec![0.0; model.len()];
        let worker = &mut workers[0];
        let compute = time_call(10, budget, || {
            worker.compute_update_into(&model, &mut update)
        });
        out.exact(plan.compute_metric, 1e6 * compute);
    }
}
