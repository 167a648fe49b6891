//! The PS master: job lifecycle, subtask synchronization, training loop.
//!
//! The master owns the event loop of Figure 7: it enqueues each job's
//! subtasks onto the per-node executors, and its *subtask synchronizer*
//! advances a job from PULL to COMP to PUSH only when all of the job's
//! distributed subtasks of the previous kind have completed. Multiple
//! jobs run through the same executors simultaneously, which is exactly
//! how Harmony multiplexes complementary subtasks.

use std::sync::Arc;

use parking_lot::Mutex;

use harmony_mem::BufferPool;
use harmony_metrics::{CommStats, MigrationStats, PhaseTimes};
use harmony_ml::PsAlgorithm;

use crate::clock::{Clock, WallClock};
use crate::executor::{ExecutorStats, NodeExecutor};
use crate::subtask::{SubtaskKind, SubtaskTiming};

/// Configuration of an in-process PS cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsConfig {
    /// Number of nodes; each node co-locates a server shard and a worker
    /// (as on the paper's EC2 instances).
    pub nodes: usize,
    /// Simulated NIC bandwidth in bytes/second. When set, every COMM
    /// subtask sleeps `transferred_bytes / bandwidth` to emulate the
    /// paper's 1.1 Gbps network; `None` disables the delay (fast tests),
    /// and the runtime then completes PULL and PUSH on the master: the
    /// COMM slots only see subtasks that hold the NIC, and APPLY.
    pub network_bytes_per_sec: Option<f64>,
    /// Ship PUSH traffic as coordinate-sparse `(index, value)` pairs
    /// when a worker's update support
    /// ([`PsAlgorithm::sparse_support`]) is below
    /// [`SPARSE_DENSITY_THRESHOLD`], falling back to the dense wire
    /// form otherwise — bit-identical to the dense path either way
    /// (`tests/ps_goldens.rs` runs every cell both ways,
    /// `crates/ps/tests/sparse_props.rs` holds the scatter to the dense
    /// fold). Off, the runtime never touches the sparse machinery: the
    /// dense wire is the spec the sparse one is checked against.
    pub sparse_push: bool,
}

impl Default for PsConfig {
    fn default() -> Self {
        Self {
            nodes: 2,
            network_bytes_per_sec: None,
            sparse_push: true,
        }
    }
}

/// Coordinate-density cutoff for the sparse PUSH wire form: a worker's
/// update ships sparse only when `support_len <= threshold * model_len`.
///
/// The wire break-even sits at 2/3 (a pair costs 12 bytes — `u32` index
/// plus `f64` value — against 8 bytes per dense slot), so 0.5 keeps a
/// ~25% wire margin to also cover the server-side scatter being less
/// cache-friendly than a striped dense fold. Dense-phase workloads (MLR,
/// or LDA sweeps touching most of the vocabulary) sit above the cutoff
/// and keep the dense path's exact cost.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.5;

/// Wire cost of one coordinate-sparse PUSH pair: `u32` index + `f64`
/// value.
pub(crate) const SPARSE_PAIR_BYTES: u64 = 12;

/// What one worker's dense PUSH moves: the full model for a PS push, or
/// the ring all-reduce volume `2(k-1)/k` of the model per rank. Shared
/// by the PUSH subtasks' wire delay and the report accounting so the
/// arithmetic cannot drift between them.
pub(crate) fn dense_push_bytes_per_worker(model_bytes: u64, dop: usize, all_reduce: bool) -> u64 {
    if all_reduce {
        let k = dop.max(1) as f64;
        (model_bytes as f64 * 2.0 * (k - 1.0) / k) as u64
    } else {
        model_bytes
    }
}

/// A scheduled live migration (§IV-B4): when iteration
/// `after_iteration` completes, the job checkpoints its model, drops
/// its current workers and resumes with `workers` — the in-run
/// counterpart of checkpoint → fresh restart via
/// [`JobBuilder::initial_model`], and bit-identical to it
/// (`tests/migration_equivalence.rs`).
pub struct PlannedMigration {
    pub(crate) after_iteration: u64,
    pub(crate) workers: Vec<Box<dyn PsAlgorithm>>,
}

impl std::fmt::Debug for PlannedMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedMigration")
            .field("after_iteration", &self.after_iteration)
            .field("to_dop", &self.workers.len())
            .finish()
    }
}

/// What a live migration did to a job, recorded in its [`JobReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Iteration boundary the job was paused and checkpointed at.
    pub at_iteration: u64,
    /// DoP before the move; iterations `1..=at_iteration` ran at it
    /// (later ones ran at [`JobReport::dop`]).
    pub from_dop: usize,
    /// Serialized checkpoint size in bytes.
    pub checkpoint_bytes: u64,
}

/// A submitted training job: one [`PsAlgorithm`] worker per node it
/// runs on.
pub struct TrainingJob {
    pub(crate) name: String,
    pub(crate) workers: Vec<Box<dyn PsAlgorithm>>,
    pub(crate) max_iterations: u64,
    pub(crate) loss_threshold: Option<f64>,
    pub(crate) check_every: u64,
    pub(crate) initial_model: Option<Vec<f64>>,
    pub(crate) seed: u64,
    pub(crate) all_reduce: bool,
    pub(crate) abort_after: Option<u64>,
    pub(crate) migration: Option<PlannedMigration>,
}

impl TrainingJob {
    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Degree of parallelism (number of workers).
    pub fn dop(&self) -> usize {
        self.workers.len()
    }
}

impl std::fmt::Debug for TrainingJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingJob")
            .field("name", &self.name)
            .field("dop", &self.workers.len())
            .field("max_iterations", &self.max_iterations)
            .finish()
    }
}

/// Builder for [`TrainingJob`].
///
/// # Examples
///
/// See the crate-level example.
pub struct JobBuilder {
    name: String,
    workers: Vec<Box<dyn PsAlgorithm>>,
    max_iterations: u64,
    loss_threshold: Option<f64>,
    check_every: u64,
    initial_model: Option<Vec<f64>>,
    seed: u64,
    all_reduce: bool,
    abort_after: Option<u64>,
    migration: Option<PlannedMigration>,
}

impl JobBuilder {
    /// Starts building a job.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workers: Vec::new(),
            max_iterations: 100,
            loss_threshold: None,
            check_every: 5,
            initial_model: None,
            seed: 0,
            all_reduce: false,
            abort_after: None,
            migration: None,
        }
    }

    /// Schedules a live migration (§IV-B4): when iteration
    /// `after_iteration` completes, pause the job, checkpoint the model
    /// bit-exactly, replace the worker set with `workers` (whose count
    /// is the new DoP) and keep training. The plan is the opt-in: a job
    /// without one never pauses.
    ///
    /// # Panics
    ///
    /// Panics if `after_iteration` is zero. [`JobBuilder::build`]
    /// checks the rest of the plan.
    pub fn migrate_after(
        mut self,
        after_iteration: u64,
        workers: impl IntoIterator<Item = Box<dyn PsAlgorithm>>,
    ) -> Self {
        assert!(after_iteration > 0, "migration boundary must be >= 1");
        self.migration = Some(PlannedMigration {
            after_iteration,
            workers: workers.into_iter().collect(),
        });
        self
    }

    /// Injects a fault: the job aborts as its `iteration`-th iteration
    /// begins (its in-flight PULLs are drained, no COMP of that
    /// iteration runs), leaving the model exactly as of iteration
    /// `iteration - 1`. Deterministic, so `tests/ps_goldens.rs` pins
    /// mid-iteration teardown.
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is zero.
    pub fn abort_after(mut self, iteration: u64) -> Self {
        assert!(iteration > 0, "abort iteration must be >= 1");
        self.abort_after = Some(iteration);
        self
    }

    /// Synchronizes updates with ring all-reduce instead of server
    /// push/pull (§VI: Harmony's scheduling is architecture-agnostic —
    /// there are still distinct COMP and COMM steps). Synchronous SGD
    /// sums the same updates either way, so results are identical; the
    /// communication pattern (and its cost at scale) differs.
    pub fn all_reduce(mut self) -> Self {
        self.all_reduce = true;
        self
    }

    /// Supplies the per-node workers (the job's DoP is their count).
    pub fn workers(mut self, workers: impl IntoIterator<Item = Box<dyn PsAlgorithm>>) -> Self {
        self.workers.extend(workers);
        self
    }

    /// Caps the number of training iterations (default 100).
    pub fn max_iterations(mut self, iters: u64) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Stops early once mean per-example loss falls to `threshold`
    /// (checked every `check_every` iterations).
    pub fn loss_threshold(mut self, threshold: f64) -> Self {
        self.loss_threshold = Some(threshold);
        self
    }

    /// How often (in iterations) the master evaluates the loss
    /// (default 5).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn check_every(mut self, every: u64) -> Self {
        assert!(every > 0, "check interval must be non-zero");
        self.check_every = every;
        self
    }

    /// Restores from a checkpointed model instead of a fresh
    /// initialization — the migration/resume primitive of §IV-B4.
    pub fn initial_model(mut self, model: Vec<f64>) -> Self {
        self.initial_model = Some(model);
        self
    }

    /// Seed for model initialization (ignored with
    /// [`JobBuilder::initial_model`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the job.
    ///
    /// # Panics
    ///
    /// Panics if:
    /// - no workers were supplied;
    /// - two workers disagree on [`PsAlgorithm::model_len`];
    /// - [`JobBuilder::initial_model`] has a different length;
    /// - a [`JobBuilder::migrate_after`] plan has no workers, has a
    ///   worker of a different model length, never fires within
    ///   [`JobBuilder::max_iterations`], or migrates an all-reduce job.
    pub fn build(self) -> TrainingJob {
        let name = &self.name;
        assert!(
            !self.workers.is_empty(),
            "job '{name}': a job needs at least one worker"
        );
        let len = self.workers[0].model_len();
        for (i, w) in self.workers.iter().enumerate() {
            assert_eq!(
                w.model_len(),
                len,
                "job '{name}': worker {i} has {} model slots, worker 0 has {len}",
                w.model_len()
            );
        }
        if let Some(m) = &self.initial_model {
            assert_eq!(
                m.len(),
                len,
                "job '{name}': the initial model has {} slots, the workers' model has {len}",
                m.len()
            );
        }
        if let Some(m) = &self.migration {
            assert!(
                !m.workers.is_empty(),
                "job '{name}': a migration needs at least one worker"
            );
            for (i, w) in m.workers.iter().enumerate() {
                assert_eq!(
                    w.model_len(),
                    len,
                    "job '{name}': migration worker {i} has {} model slots, the job's model has {len}",
                    w.model_len()
                );
            }
            assert!(
                m.after_iteration < self.max_iterations,
                "job '{name}': migration after iteration {} never fires within {} iterations",
                m.after_iteration,
                self.max_iterations
            );
            assert!(
                !self.all_reduce,
                "job '{name}': live migration of all-reduce jobs is not supported"
            );
        }
        TrainingJob {
            name: self.name,
            workers: self.workers,
            max_iterations: self.max_iterations,
            loss_threshold: self.loss_threshold,
            check_every: self.check_every,
            initial_model: self.initial_model,
            seed: self.seed,
            all_reduce: self.all_reduce,
            abort_after: self.abort_after,
            migration: self.migration,
        }
    }
}

/// One iteration's PUSH wire volume, as recorded in a [`JobReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushVolume {
    /// Iteration the pushes belong to.
    pub iteration: u64,
    /// Bytes actually shipped across all the job's workers (sparse
    /// pairs where the sparse path engaged, full vectors otherwise).
    pub bytes: u64,
    /// Bytes a dense-only runtime would have shipped for the same
    /// iteration — the denominator of the density ratio.
    pub dense_bytes: u64,
}

impl PushVolume {
    /// Wire density of this iteration: `bytes / dense_bytes` (1.0 for a
    /// fully dense push, or when nothing was pushed).
    pub fn density(&self) -> f64 {
        if self.dense_bytes == 0 {
            1.0
        } else {
            self.bytes as f64 / self.dense_bytes as f64
        }
    }
}

/// Outcome of one trained job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Mean per-example loss before training.
    pub initial_loss: f64,
    /// Mean per-example loss at the end.
    pub final_loss: f64,
    /// `(iteration, loss)` samples collected every `check_every`.
    pub loss_history: Vec<(u64, f64)>,
    /// Wall-clock timings of every executed subtask.
    pub timings: Vec<SubtaskTiming>,
    /// Mean per-iteration COMP seconds (per node) — the profiled `Tcpu`.
    pub mean_tcpu: f64,
    /// Mean per-iteration COMM (PULL+PUSH) seconds — the profiled `Tnet`.
    pub mean_tnet: f64,
    /// Mean per-iteration server-side APPLY seconds (per node): the one
    /// APPLY that folds an iteration's updates, normalized by the DoP
    /// like every other phase.
    pub mean_tapply: f64,
    /// Degree of parallelism the job ran with (worker count) — the `m`
    /// the timings were measured at, needed to normalize samples via
    /// Eq. 2 when feeding them back into a profile.
    pub dop: usize,
    /// Final model snapshot (checkpoint for migration/resume).
    pub final_model: Vec<f64>,
    /// The live migration the job underwent mid-run, if any: iterations
    /// up to `at_iteration` ran at `from_dop`, the rest at
    /// [`JobReport::dop`].
    pub migrated: Option<MigrationRecord>,
    /// Whether the loss threshold was reached before the iteration cap.
    pub converged: bool,
    /// Whether an [`JobBuilder::abort_after`] fault tore the job down
    /// before it finished.
    pub aborted: bool,
    /// Per-iteration PUSH wire volumes, in iteration order. With
    /// [`PsConfig::sparse_push`] off, or for an all-reduce job, every
    /// entry is fully dense.
    pub push_volumes: Vec<PushVolume>,
}

impl JobReport {
    /// Total bytes the job's PUSH subtasks moved.
    pub fn total_push_bytes(&self) -> u64 {
        self.push_volumes.iter().map(|v| v.bytes).sum()
    }

    /// Byte-weighted wire density of the job's PUSH traffic: total
    /// bytes shipped over total dense bytes, 1.0 when nothing was
    /// pushed (a job with no iterations reads as dense).
    pub fn push_density(&self) -> f64 {
        let dense: u64 = self.push_volumes.iter().map(|v| v.dense_bytes).sum();
        if dense == 0 {
            1.0
        } else {
            self.total_push_bytes() as f64 / dense as f64
        }
    }
}

/// Maps a subtask kind to its [`PhaseTimes`] slot.
pub(crate) fn phase_index(kind: SubtaskKind) -> usize {
    match kind {
        SubtaskKind::Pull => 0,
        SubtaskKind::Comp => 1,
        SubtaskKind::Push => 2,
        SubtaskKind::Apply => 3,
    }
}

/// Builds the final [`JobReport`] from a finished run's raw records.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_report(
    name: String,
    iterations: u64,
    initial_loss: f64,
    loss_history: Vec<(u64, f64)>,
    timings: Vec<SubtaskTiming>,
    dop: usize,
    final_model: Vec<f64>,
    migrated: Option<MigrationRecord>,
    converged: bool,
    aborted: bool,
    push_volumes: Vec<PushVolume>,
) -> JobReport {
    let iters = iterations.max(1) as f64;
    // A migrated job ran its early iterations at a different DoP, so
    // each timing is normalized to per-node by the worker count *its*
    // iteration ran with (post-migration basis, not admission-time).
    let dop_at = |iter: u64| -> f64 {
        match &migrated {
            Some(m) if iter <= m.at_iteration => m.from_dop.max(1) as f64,
            _ => dop.max(1) as f64,
        }
    };
    let mut phases = PhaseTimes::new(4);
    for t in &timings {
        phases.record(
            phase_index(t.kind),
            t.elapsed.as_secs_f64() / dop_at(t.iteration),
        );
    }
    let per_iter_node = |kind: SubtaskKind| phases.total_secs(phase_index(kind)) / iters;
    let mean_tcpu = per_iter_node(SubtaskKind::Comp);
    let mean_tnet = per_iter_node(SubtaskKind::Pull) + per_iter_node(SubtaskKind::Push);
    let mean_tapply = per_iter_node(SubtaskKind::Apply);
    let final_loss = loss_history.last().map(|&(_, l)| l).unwrap_or(initial_loss);
    JobReport {
        name,
        iterations,
        initial_loss,
        final_loss,
        loss_history,
        timings,
        mean_tcpu,
        mean_tnet,
        mean_tapply,
        dop,
        final_model,
        migrated,
        converged,
        aborted,
        push_volumes,
    }
}

/// An in-process PS cluster: one (CPU, COMM) executor per node.
pub struct PsCluster {
    pub(crate) nodes: Vec<NodeExecutor>,
    pub(crate) config: PsConfig,
    /// Recycles pull/update buffers across jobs and `run_jobs` calls so
    /// repeated runs on one cluster reach zero steady-state allocation.
    pub(crate) pool: BufferPool,
    /// The time source subtask timings are measured with; swap in a
    /// [`crate::VirtualClock`] for bit-reproducible closed-loop tests.
    pub(crate) clock: Arc<dyn Clock>,
    /// Live-migration bookkeeping across every job this cluster ran.
    pub(crate) migrations: Mutex<MigrationStats>,
    /// PUSH wire-traffic bookkeeping across every job this cluster ran
    /// (actual vs dense-equivalent bytes, sparse/dense iteration
    /// counts).
    pub(crate) comm: Mutex<CommStats>,
}

impl PsCluster {
    /// Spins up the cluster's executor threads, timing subtasks against
    /// the real wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn new(config: PsConfig) -> Self {
        Self::with_clock(config, Arc::new(WallClock::new()))
    }

    /// Like [`PsCluster::new`], but measures subtask durations through
    /// `clock` instead of the wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn with_clock(config: PsConfig, clock: Arc<dyn Clock>) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        let nodes = (0..config.nodes).map(NodeExecutor::new).collect();
        Self {
            nodes,
            config,
            pool: BufferPool::new(),
            clock,
            migrations: Mutex::new(MigrationStats::new()),
            comm: Mutex::new(CommStats::new()),
        }
    }

    /// The cluster's working-buffer pool statistics (allocation vs
    /// reuse counters for the runtime's pooled buffers).
    pub fn pool_stats(&self) -> harmony_mem::PoolStats {
        self.pool.stats()
    }

    /// Live-migration accounting across every job this cluster has run:
    /// counts, checkpoint sizes, and pause→resume latencies (measured
    /// through the cluster's [`Clock`]).
    pub fn migration_stats(&self) -> MigrationStats {
        *self.migrations.lock()
    }

    /// PUSH wire-traffic accounting across every job this cluster has
    /// run: bytes actually shipped vs the dense-equivalent volume, and
    /// how many iterations went over the sparse wire form. Per-job
    /// figures live on each [`JobReport::push_volumes`].
    pub fn comm_stats(&self) -> CommStats {
        *self.comm.lock()
    }

    /// Per-node `(cpu, comm)` executor statistics.
    pub fn executor_stats(&self) -> Vec<(ExecutorStats, ExecutorStats)> {
        self.nodes.iter().map(NodeExecutor::stats).collect()
    }

    /// Trains all `jobs` to completion, co-scheduling their subtasks on
    /// this cluster's executors, and returns one report per job (same
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if a job has more workers, or migrates to more workers,
    /// than the cluster has nodes.
    pub fn run_jobs(&self, jobs: Vec<TrainingJob>) -> Vec<JobReport> {
        for job in &jobs {
            assert!(
                job.workers.len() <= self.nodes.len(),
                "job '{}' wants {} workers but the cluster has {} nodes",
                job.name,
                job.workers.len(),
                self.nodes.len()
            );
            if let Some(m) = &job.migration {
                assert!(
                    m.workers.len() <= self.nodes.len(),
                    "job '{}' migrates to {} workers but the cluster has {} nodes",
                    job.name,
                    m.workers.len(),
                    self.nodes.len()
                );
            }
        }
        let reports = crate::runtime::run_jobs(self, jobs);
        let mut comm = self.comm.lock();
        for r in &reports {
            for v in &r.push_volumes {
                comm.record_push(v.bytes, v.dense_bytes);
            }
        }
        drop(comm);
        reports
    }
}

impl std::fmt::Debug for PsCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsCluster")
            .field("nodes", &self.nodes.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_ml::{synth, Lasso, Lda, Mlr, Nmf};
    use std::time::Duration;

    fn mlr_job(name: &str, nodes: usize, iters: u64) -> TrainingJob {
        let data = synth::classification(120, 16, 3, 0.3, 5);
        let parts = synth::partition(&data, nodes);
        JobBuilder::new(name)
            .workers(
                parts
                    .into_iter()
                    .map(|p| Box::new(Mlr::new(p, 16, 3, 0.5)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(iters)
            .build()
    }

    #[test]
    fn single_job_trains_and_reports() {
        let cluster = PsCluster::new(PsConfig::default());
        let report = cluster.run_jobs(vec![mlr_job("mlr", 2, 20)]).remove(0);
        assert_eq!(report.iterations, 20);
        assert!(report.final_loss < report.initial_loss);
        assert!(!report.timings.is_empty());
        assert!(report.mean_tcpu >= 0.0 && report.mean_tnet >= 0.0);
    }

    #[test]
    fn colocated_jobs_both_train() {
        let cluster = PsCluster::new(PsConfig::default());
        let reports = cluster.run_jobs(vec![mlr_job("a", 2, 15), mlr_job("b", 2, 15)]);
        for r in &reports {
            assert!(r.final_loss < r.initial_loss, "{} did not improve", r.name);
            assert_eq!(r.iterations, 15);
        }
        // No node ever ran two COMP subtasks at once.
        for (cpu, comm) in cluster.executor_stats() {
            assert!(cpu.peak_concurrency <= 1);
            assert!(comm.peak_concurrency <= 2);
        }
    }

    #[test]
    fn loss_threshold_stops_early() {
        let cluster = PsCluster::new(PsConfig::default());
        let data = synth::classification(100, 8, 2, 0.4, 6);
        let parts = synth::partition(&data, 2);
        let job = JobBuilder::new("early")
            .workers(
                parts
                    .into_iter()
                    .map(|p| Box::new(Mlr::new(p, 8, 2, 0.8)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(500)
            .check_every(2)
            .loss_threshold(0.2)
            .build();
        let report = cluster.run_jobs(vec![job]).remove(0);
        assert!(report.converged);
        assert!(report.iterations < 500);
        assert!(report.final_loss <= 0.2);
    }

    #[test]
    fn all_four_apps_train_together() {
        let cluster = PsCluster::new(PsConfig {
            nodes: 2,
            ..Default::default()
        });

        let mlr = mlr_job("mlr", 2, 8);

        let reg = synth::regression(120, 16, 0.4, 7);
        let lasso = JobBuilder::new("lasso")
            .workers(
                synth::partition(&reg, 2)
                    .into_iter()
                    .map(|p| Box::new(Lasso::new(p, 16, 0.05, 0.01)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(8)
            .build();

        let ratings = synth::ratings(20, 30, 8, 3, 8);
        let nmf = JobBuilder::new("nmf")
            .workers(
                synth::partition(&ratings, 2)
                    .into_iter()
                    .map(|p| Box::new(Nmf::new(p, 30, 3, 0.05)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(8)
            .build();

        let docs = synth::bag_of_words(24, 150, 40, 3, 9);
        let lda = JobBuilder::new("lda")
            .workers(
                synth::partition(&docs, 2)
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| Box::new(Lda::new(p, 150, 3, i as u64)) as Box<dyn PsAlgorithm>),
            )
            .max_iterations(8)
            .build();

        let reports = cluster.run_jobs(vec![mlr, lasso, nmf, lda]);
        for r in &reports {
            assert!(
                r.final_loss < r.initial_loss,
                "{}: {} -> {}",
                r.name,
                r.initial_loss,
                r.final_loss
            );
        }
    }

    #[test]
    fn checkpoint_resume_continues_progress() {
        let cluster = PsCluster::new(PsConfig::default());
        let first = cluster.run_jobs(vec![mlr_job("phase1", 2, 10)]).remove(0);

        // "Migrate": rebuild the job from the checkpointed model (fresh
        // workers over the same data) and keep training.
        let data = synth::classification(120, 16, 3, 0.3, 5);
        let parts = synth::partition(&data, 2);
        let resumed = JobBuilder::new("phase2")
            .workers(
                parts
                    .into_iter()
                    .map(|p| Box::new(Mlr::new(p, 16, 3, 0.5)) as Box<dyn PsAlgorithm>),
            )
            .initial_model(first.final_model.clone())
            .max_iterations(10)
            .build();
        let second = cluster.run_jobs(vec![resumed]).remove(0);
        // Resume starts where phase 1 ended (same data, same model).
        assert!((second.initial_loss - first.final_loss).abs() < 1e-9);
        assert!(second.final_loss <= second.initial_loss + 1e-9);
    }

    #[test]
    fn simulated_network_slows_comm_subtasks() {
        let slow = PsCluster::new(PsConfig {
            nodes: 2,
            network_bytes_per_sec: Some(4.0e6),
            ..PsConfig::default()
        });
        let report = slow.run_jobs(vec![mlr_job("slow", 2, 3)]).remove(0);
        // Model is 3*16 f64 = 384 bytes; delay ~0.1 ms per transfer — just
        // assert COMM took measurable time relative to a no-delay run.
        assert!(report.mean_tnet > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn job_requires_workers() {
        let _ = JobBuilder::new("empty").build();
    }

    /// MLR workers over `features` features and 3 classes: a model of
    /// `3 * features` slots.
    fn mlr_workers(features: usize, nodes: usize) -> Vec<Box<dyn PsAlgorithm>> {
        let data = synth::classification(40, features, 3, 0.3, 3);
        synth::partition(&data, nodes)
            .into_iter()
            .map(|p| Box::new(Mlr::new(p, features, 3, 0.5)) as Box<dyn PsAlgorithm>)
            .collect()
    }

    #[test]
    #[should_panic(expected = "job 'ragged': worker 1 has 24 model slots, worker 0 has 48")]
    fn build_rejects_workers_of_different_model_lengths() {
        let mut workers = mlr_workers(16, 1);
        workers.extend(mlr_workers(8, 1));
        let _ = JobBuilder::new("ragged").workers(workers).build();
    }

    #[test]
    #[should_panic(
        expected = "job 'resume': the initial model has 4 slots, the workers' model has 48"
    )]
    fn build_rejects_an_initial_model_of_another_length() {
        let _ = JobBuilder::new("resume")
            .workers(mlr_workers(16, 2))
            .initial_model(vec![0.0; 4])
            .build();
    }

    #[test]
    #[should_panic(
        expected = "job 'move': migration worker 0 has 24 model slots, the job's model has 48"
    )]
    fn build_rejects_migration_workers_of_another_length() {
        let _ = JobBuilder::new("move")
            .workers(mlr_workers(16, 2))
            .migrate_after(2, mlr_workers(8, 2))
            .max_iterations(5)
            .build();
    }

    #[test]
    #[should_panic(expected = "job 'empty-move': a migration needs at least one worker")]
    fn build_rejects_a_migration_without_workers() {
        let _ = JobBuilder::new("empty-move")
            .workers(mlr_workers(16, 2))
            .migrate_after(2, Vec::new())
            .max_iterations(5)
            .build();
    }

    #[test]
    #[should_panic(
        expected = "job 'late': migration after iteration 5 never fires within 5 iterations"
    )]
    fn build_rejects_a_migration_that_never_fires() {
        let _ = JobBuilder::new("late")
            .workers(mlr_workers(16, 2))
            .migrate_after(5, mlr_workers(16, 4))
            .max_iterations(5)
            .build();
    }

    #[test]
    #[should_panic(expected = "job 'ring': live migration of all-reduce jobs is not supported")]
    fn build_rejects_migrating_an_all_reduce_job() {
        let _ = JobBuilder::new("ring")
            .workers(mlr_workers(16, 2))
            .all_reduce()
            .migrate_after(2, mlr_workers(16, 4))
            .max_iterations(5)
            .build();
    }

    #[test]
    #[should_panic(expected = "wants 3 workers")]
    fn job_cannot_exceed_cluster() {
        let cluster = PsCluster::new(PsConfig::default());
        let job = mlr_job("big", 3, 1);
        let _ = cluster.run_jobs(vec![job]);
    }

    #[test]
    fn zero_iteration_job_reports_immediately() {
        let cluster = PsCluster::new(PsConfig::default());
        let data = synth::classification(10, 4, 2, 0.5, 1);
        let job = JobBuilder::new("noop")
            .workers(vec![
                Box::new(Mlr::new(data, 4, 2, 0.1)) as Box<dyn PsAlgorithm>
            ])
            .max_iterations(0)
            .build();
        let report = cluster.run_jobs(vec![job]).remove(0);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.initial_loss, report.final_loss);
    }

    // --- finish_report edge cases ------------------------------------

    fn timing(kind: SubtaskKind, node: usize, iteration: u64, secs: f64) -> SubtaskTiming {
        SubtaskTiming {
            kind,
            node,
            iteration,
            elapsed: Duration::from_secs_f64(secs),
        }
    }

    #[test]
    fn finish_report_zero_iterations_yields_finite_means() {
        // A job torn down before any iteration: the per-iteration
        // divisor clamps to 1 so the means stay finite (and zero).
        let r = finish_report(
            "noop".into(),
            0,
            1.5,
            vec![(0, 1.5)],
            Vec::new(),
            2,
            vec![0.0; 4],
            None,
            false,
            false,
            Vec::new(),
        );
        assert_eq!(r.iterations, 0);
        assert_eq!(r.mean_tcpu, 0.0);
        assert_eq!(r.mean_tnet, 0.0);
        assert_eq!(r.mean_tapply, 0.0);
        assert_eq!(r.final_loss, 1.5);
        assert_eq!(r.dop, 2);
    }

    #[test]
    fn finish_report_clamps_zero_dop() {
        // dop = 0 never happens through the builder (it asserts on empty
        // workers) but the shared aggregator must not divide by it.
        let timings = vec![timing(SubtaskKind::Comp, 0, 1, 3.0)];
        let r = finish_report(
            "degenerate".into(),
            1,
            1.0,
            vec![(0, 1.0)],
            timings,
            0,
            Vec::new(),
            None,
            false,
            false,
            Vec::new(),
        );
        assert!(r.mean_tcpu.is_finite());
        assert_eq!(r.mean_tcpu, 3.0); // divided by max(dop, 1) = 1
    }

    #[test]
    fn finish_report_means_average_over_iterations_and_nodes() {
        let timings = vec![
            timing(SubtaskKind::Pull, 0, 1, 0.5),
            timing(SubtaskKind::Pull, 1, 1, 0.5),
            timing(SubtaskKind::Comp, 0, 1, 4.0),
            timing(SubtaskKind::Comp, 1, 1, 4.0),
            timing(SubtaskKind::Push, 0, 1, 0.5),
            timing(SubtaskKind::Push, 1, 1, 0.5),
            timing(SubtaskKind::Apply, 0, 1, 0.25),
            timing(SubtaskKind::Apply, 1, 1, 0.25),
            timing(SubtaskKind::Pull, 0, 2, 0.5),
            timing(SubtaskKind::Pull, 1, 2, 0.5),
            timing(SubtaskKind::Comp, 0, 2, 4.0),
            timing(SubtaskKind::Comp, 1, 2, 4.0),
            timing(SubtaskKind::Push, 0, 2, 0.5),
            timing(SubtaskKind::Push, 1, 2, 0.5),
            timing(SubtaskKind::Apply, 0, 2, 0.25),
            timing(SubtaskKind::Apply, 1, 2, 0.25),
        ];
        let r = finish_report(
            "avg".into(),
            2,
            1.0,
            vec![(0, 1.0), (2, 0.5)],
            timings,
            2,
            Vec::new(),
            None,
            false,
            false,
            Vec::new(),
        );
        assert!((r.mean_tcpu - 4.0).abs() < 1e-12);
        assert!((r.mean_tnet - 1.0).abs() < 1e-12);
        assert!((r.mean_tapply - 0.25).abs() < 1e-12);
        assert_eq!(r.final_loss, 0.5);
    }

    #[test]
    fn finish_report_normalizes_by_per_iteration_dop_across_migration() {
        // Iteration 1 ran at DoP 1 (COMP 4 s on its single node),
        // iteration 2 at DoP 2 (4 s on each of two nodes): per-node COMP
        // is 4 s either way, and the post-migration report must say so
        // instead of dividing every iteration by the final DoP.
        let timings = vec![
            timing(SubtaskKind::Comp, 0, 1, 4.0),
            timing(SubtaskKind::Comp, 0, 2, 4.0),
            timing(SubtaskKind::Comp, 1, 2, 4.0),
        ];
        let migrated = Some(MigrationRecord {
            at_iteration: 1,
            from_dop: 1,
            checkpoint_bytes: 32,
        });
        let r = finish_report(
            "moved".into(),
            2,
            1.0,
            vec![(0, 1.0)],
            timings,
            2,
            Vec::new(),
            migrated,
            false,
            false,
            Vec::new(),
        );
        assert!((r.mean_tcpu - 4.0).abs() < 1e-12);
        assert_eq!(r.dop, 2, "dop reflects the post-migration group");
        assert_eq!(r.migrated.unwrap().from_dop, 1);
    }
}
