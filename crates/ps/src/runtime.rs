//! The PS runtime: zero-copy, one APPLY per job-iteration, pipelined
//! per worker.
//!
//! Three design choices, none of which may change a single output bit:
//! `tests/ps_goldens.rs` pins the final model and loss history of every
//! algorithm across DoP, all-reduce, abort, migration and co-location.
//!
//! 1. **Pooled buffers, one model.** A job holds `1 + DoP` model-sized
//!    buffers, all drawn from the cluster's
//!    [`BufferPool`](harmony_mem::BufferPool) — the model itself and a
//!    persistent update buffer per worker — plus sparse staging for the
//!    workers that ever ship sparse ([`SparseStage`]). Everything that
//!    reads the model — COMPs, the loss check, a migration's
//!    checkpoint, the report — reads it in place: the [`Synchronizer`]
//!    keeps every COMP (read lock) apart from the folds (write lock),
//!    so nothing copies it between iterations. Subtask closures are
//!    built once per job as [`Arc`]ed shared tasks. After warmup a
//!    steady-state iteration performs zero heap allocations
//!    (`tests/ps_alloc.rs`), and `run_jobs` returns with every buffer
//!    back in the pool ([`JobRun::release_tasks`]).
//! 2. **One APPLY per job-iteration.** Server-side aggregation runs as
//!    one explicit `APPLY` subtask, on node `j mod nodes`'s COMM
//!    executor. It takes the model's write lock once and folds every
//!    worker's staged delta in worker-id order in a single pass, two
//!    consecutive dense workers at a time (`fold::fold_dense_pair`:
//!    one store per slot for both). From
//!    `fold::SPLIT_FOLD_MIN_SLOTS` slots up the locked model is split
//!    into one disjoint part per worker, and every part after the first
//!    is folded on a thread scoped to the APPLY (`fold::fold_split`).
//!    f64 addition is not associative, so the fixed fold *order* — not
//!    merely the fixed operand set — is what keeps the result
//!    bit-identical however arrivals interleave; no slot's additions or
//!    their order depend on the split or on the thread that runs them.
//! 3. **Per-worker pipelining.** A worker's COMP is submitted the
//!    moment *its own* PULL lands (and its PUSH the moment its COMP
//!    lands) instead of waiting for the slowest peer at a global phase
//!    barrier. Synchronous semantics are kept by the PUSH barrier
//!    (reduce + apply) and the APPLY's completion (iteration end); the
//!    [`Synchronizer`]'s generation counter proves no subtask ever
//!    crosses an iteration boundary. A PULL or PUSH with no wire time
//!    to sit out never leaves the master ([`submit_comm`]).
//!
//! What is deliberately *not* pipelined: issuing the next PULL before
//! the APPLY completes would let a COMP read a half-folded model and
//! break synchronous SGD — see DESIGN.md for the rejected variants.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::unbounded;
use parking_lot::{Mutex, RwLock};

use harmony_mem::{PooledBuffer, PooledIndexBuffer};
use harmony_ml::PsAlgorithm;

use crate::checkpoint::Checkpoint;
use crate::fold::{fold_dense, fold_split, split_count, Delta, Roster};
use crate::master::{
    dense_push_bytes_per_worker, finish_report, JobReport, MigrationRecord, PsCluster, PushVolume,
    TrainingJob, SPARSE_DENSITY_THRESHOLD, SPARSE_PAIR_BYTES,
};
use crate::subtask::{SubtaskKind, SubtaskTiming, SyncAction, Synchronizer};

/// A subtask closure built once per job and resubmitted every iteration
/// (an [`Arc`] clone per submission — no per-iteration boxing).
type SharedTask = Arc<dyn Fn() + Send + Sync + 'static>;

/// A subtask completion: `(job, node, kind, generation, elapsed)`.
type Event = (usize, usize, SubtaskKind, u64, Duration);

/// Completion events flowing from executor threads back to the master.
type EventTx = crossbeam::channel::Sender<Event>;

/// Sentinel in [`SparseStage::nnz`]: this iteration's update ships (and
/// folds) dense.
const DENSE_PUSH: usize = usize::MAX;

/// One worker's staged coordinate-sparse delta for the current
/// iteration, written by its COMP task and read by its PUSH task (wire
/// size), the APPLY (scatter fold) and the master (byte accounting).
///
/// No lock-order hazard with the update-buffer slots: the synchronizer
/// guarantees a job's COMP and APPLY tasks never overlap in time, and
/// the APPLY and its fold helpers only ever read-lock either.
struct SparseStage {
    /// `(indices, values)` at full model capacity, checked out of the
    /// cluster pool by this worker's COMP the first time its support
    /// passes [`SPARSE_DENSITY_THRESHOLD`] and kept for the job's life:
    /// `nnz` tracks the logical pair count, so steady-state iterations
    /// stay allocation-free whatever the support size does, and a
    /// worker whose every PUSH falls back dense holds nothing.
    pairs: Option<(PooledIndexBuffer, PooledBuffer)>,
    /// Logical pair count, or [`DENSE_PUSH`] after a dense fallback
    /// (support above [`SPARSE_DENSITY_THRESHOLD`], or a worker with no
    /// sparse support at all).
    nnz: usize,
}

/// Per-worker sparse staging, shared by the COMP/PUSH/APPLY closures.
/// `None` when the sparse path is disabled ([`PsConfig::sparse_push`]
/// off, or an all-reduce job — the ring reduction needs dense
/// operands), in which case every closure takes exactly the pre-sparse
/// code path.
type SparseStages = Arc<Vec<RwLock<SparseStage>>>;

/// Builds the per-worker sparse staging for a job when the sparse path
/// applies to it. Nothing is checked out here: see [`SparseStage::pairs`].
fn build_sparse_stages(cluster: &PsCluster, dop: usize, all_reduce: bool) -> Option<SparseStages> {
    if !cluster.config.sparse_push || all_reduce {
        return None;
    }
    let empty = || SparseStage {
        pairs: None,
        nnz: DENSE_PUSH,
    };
    Some(Arc::new((0..dop).map(|_| RwLock::new(empty())).collect()))
}

/// Per-worker staged updates; shared with the COMP and APPLY tasks. A
/// slot is only ever empty inside a ring reduction. Read-write locks,
/// so every part of a split fold reads every worker's delta at once.
type UpdateBufs = Arc<Vec<RwLock<Option<PooledBuffer>>>>;

/// Checks one update buffer per worker out of the cluster pool.
fn acquire_update_bufs(cluster: &PsCluster, model_len: usize, dop: usize) -> UpdateBufs {
    let slot = |_| RwLock::new(Some(cluster.pool.acquire(model_len)));
    Arc::new((0..dop).map(slot).collect())
}

/// Bytes of a `model_len`-slot model: what a PULL (or a dense PUSH)
/// moves.
fn model_bytes(model_len: usize) -> u64 {
    (model_len * std::mem::size_of::<f64>()) as u64
}

/// What a job's APPLY folds: the first `len` workers' staged deltas,
/// read in place — a sparsely staged worker's `(index, value)` pairs,
/// else its dense update buffer. The pairs fold to the dense buffer's
/// bits: its off-support slots hold only signed zeros, which fold
/// bit-neutrally (`StripedModel::stripe_add_sparse`).
struct Staged<'a> {
    slots: &'a [RwLock<Option<PooledBuffer>>],
    stages: Option<&'a [RwLock<SparseStage>]>,
    /// Every worker, or 1 after a ring reduction, which left every slot
    /// holding the full sum: slot 0 is folded once.
    len: usize,
}

impl Roster for Staged<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn with_delta<R>(&self, w: usize, f: impl FnOnce(Delta<'_>) -> R) -> R {
        if let Some(stages) = self.stages {
            let stage = stages[w].read();
            if stage.nnz != DENSE_PUSH {
                let (indices, values) = stage.pairs.as_ref().expect("COMP staged the pairs");
                return f(Delta::Sparse(&indices[..stage.nnz], &values[..stage.nnz]));
            }
        }
        let staged = self.slots[w].read();
        f(Delta::Dense(staged.as_ref().expect("COMP preceded APPLY")))
    }
}

/// Mean per-example loss of `model` over the job's (idle) workers.
fn mean_loss(
    workers: &[Arc<Mutex<Box<dyn PsAlgorithm>>>],
    model: &[f64],
    total_examples: usize,
) -> f64 {
    let sum: f64 = workers.iter().map(|w| w.lock().loss(model)).sum();
    sum / total_examples.max(1) as f64
}

struct JobRun {
    name: String,
    model_len: usize,
    workers: Vec<Arc<Mutex<Box<dyn PsAlgorithm>>>>,
    update_bufs: UpdateBufs,
    /// Per-worker sparse PUSH staging; `None` when the sparse path is
    /// off for this job.
    sparse_stages: Option<SparseStages>,
    /// The job's one copy of the model: the APPLY folds into it (write
    /// lock); the COMP tasks (read lock), the loss check, a
    /// migration's checkpoint and the report read it in place.
    model: Arc<RwLock<PooledBuffer>>,
    /// Generation stamp read by in-flight tasks; only the master writes
    /// it, and only at iteration boundaries when no task is running.
    generation: Arc<AtomicU64>,
    sync: Synchronizer,
    tasks: TaskSet,
    iteration: u64,
    max_iterations: u64,
    loss_threshold: Option<f64>,
    check_every: u64,
    abort_after: Option<u64>,
    total_examples: usize,
    all_reduce: bool,
    /// A pending live-migration plan (`JobBuilder::migrate_after`),
    /// consumed at its iteration boundary.
    migration: Option<crate::master::PlannedMigration>,
    /// What the consumed plan did, for the report.
    migrated: Option<MigrationRecord>,
    timings: Vec<SubtaskTiming>,
    loss_history: Vec<(u64, f64)>,
    initial_loss: f64,
    /// Per-iteration PUSH wire volumes (actual vs dense-equivalent).
    push_volumes: Vec<PushVolume>,
    /// Scratch holding the buffers during a ring reduction (capacity
    /// reserved at setup, so take/return cycles never reallocate).
    ring_scratch: Vec<PooledBuffer>,
    converged: bool,
    aborting: bool,
    /// In-flight events still to swallow while tearing down an abort.
    drain: usize,
}

impl JobRun {
    /// Drops the job's task closures and waits until the executor
    /// threads have dropped theirs: a thread lets go of its last task
    /// `Arc` a hair *after* sending the completion the master acts on,
    /// so `run_jobs` could otherwise return (or a migration swap
    /// rosters) with pooled buffers still out, and the next checkout
    /// allocate one the pool was about to get back. Called with no task
    /// in flight, so the wait is a few instructions long.
    fn release_tasks(&mut self) {
        self.tasks = TaskSet::default();
        let mut spins = 0u32;
        while Arc::strong_count(&self.model) > 1
            || Arc::strong_count(&self.update_bufs) > 1
            || self.sparse_stages.iter().any(|s| Arc::strong_count(s) > 1)
        {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One job's subtask closures, built once and resubmitted every
/// iteration. Built at job setup and rebuilt by live migration for the
/// new worker roster (new DoP), reusing the same model/generation
/// plumbing.
#[derive(Default)]
struct TaskSet {
    pull: Vec<SharedTask>,
    comp: Vec<SharedTask>,
    push: Vec<SharedTask>,
    /// The iteration's one fold and the node it runs on; `None` only in
    /// a released set.
    apply: Option<(usize, SharedTask)>,
}

#[allow(clippy::too_many_arguments)]
fn build_tasks(
    cluster: &PsCluster,
    event_tx: &EventTx,
    j: usize,
    model: &Arc<RwLock<PooledBuffer>>,
    workers: &[Arc<Mutex<Box<dyn PsAlgorithm>>>],
    update_bufs: &UpdateBufs,
    generation: &Arc<AtomicU64>,
    all_reduce: bool,
    sparse: Option<&SparseStages>,
) -> TaskSet {
    let dop = workers.len();
    let model_len = model.read().len();
    let bandwidth = cluster.config.network_bytes_per_sec;
    let net_delay = move |bytes: u64| -> Option<Duration> {
        bandwidth.map(|bw| Duration::from_secs_f64(bytes as f64 / bw))
    };

    let pull: Vec<SharedTask> = (0..dop)
        .map(|w| {
            let generation = Arc::clone(generation);
            let tx = event_tx.clone();
            let clock = Arc::clone(&cluster.clock);
            let delay = net_delay(model_bytes(model_len));
            // The COMPs read the model in place, so an in-process PULL
            // moves no payload — only the (simulated) wire time remains.
            Arc::new(move || {
                let t0 = clock.now();
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                let gen = generation.load(Ordering::SeqCst);
                let dt = clock.subtask_elapsed(t0, j, w, SubtaskKind::Pull, gen);
                let _ = tx.send((j, w, SubtaskKind::Pull, gen, dt));
            }) as SharedTask
        })
        .collect();

    let comp: Vec<SharedTask> = (0..dop)
        .map(|w| {
            let worker = Arc::clone(&workers[w]);
            let input = Arc::clone(model);
            let slots = Arc::clone(update_bufs);
            let stages = sparse.map(Arc::clone);
            let pool = cluster.pool.clone();
            let generation = Arc::clone(generation);
            let tx = event_tx.clone();
            let clock = Arc::clone(&cluster.clock);
            Arc::new(move || {
                let t0 = clock.now();
                let pulled = input.read();
                let mut staged = slots[w].write();
                let out = staged.as_mut().expect("update buffer is resident");
                let mut alg = worker.lock();
                alg.compute_update_into(pulled.as_ref(), out.as_mut());
                if let Some(stages) = &stages {
                    // Decide this iteration's wire form: pack the
                    // support's `(index, value)` pairs when they
                    // undercut the density cutoff, else fall back to
                    // the dense form. Values are gathered from the
                    // dense update buffer just computed, so the bits a
                    // sparse fold applies are exactly the dense fold's.
                    let mut stage = stages[w].write();
                    stage.nnz = DENSE_PUSH;
                    if let Some(support) = alg.sparse_support() {
                        let update = out.as_ref();
                        let len = update.len();
                        if support.len() as f64 <= SPARSE_DENSITY_THRESHOLD * len as f64 {
                            let nnz = support.len();
                            let (indices, values) = stage.pairs.get_or_insert_with(|| {
                                (pool.acquire_indices(len), pool.acquire(len))
                            });
                            indices[..nnz].copy_from_slice(support);
                            for (v, &i) in values[..nnz].iter_mut().zip(support) {
                                *v = update[i as usize];
                            }
                            stage.nnz = nnz;
                        }
                    }
                }
                drop(alg);
                drop(staged);
                drop(pulled);
                let gen = generation.load(Ordering::SeqCst);
                let dt = clock.subtask_elapsed(t0, j, w, SubtaskKind::Comp, gen);
                let _ = tx.send((j, w, SubtaskKind::Comp, gen, dt));
            }) as SharedTask
        })
        .collect();

    let push: Vec<SharedTask> = (0..dop)
        .map(|w| {
            let generation = Arc::clone(generation);
            let tx = event_tx.clone();
            let clock = Arc::clone(&cluster.clock);
            let stages = sparse.map(Arc::clone);
            // The update is already staged in a buffer the server
            // side reads directly — an in-process PUSH moves no
            // payload, only the (simulated) wire time remains. The
            // dense wire size is fixed per job; the sparse path sizes
            // each iteration from what its COMP actually staged.
            let dense_bytes = dense_push_bytes_per_worker(model_bytes(model_len), dop, all_reduce);
            Arc::new(move || {
                let t0 = clock.now();
                let bytes = match &stages {
                    Some(stages) => match stages[w].read().nnz {
                        DENSE_PUSH => dense_bytes,
                        nnz => nnz as u64 * SPARSE_PAIR_BYTES,
                    },
                    None => dense_bytes,
                };
                if let Some(d) = net_delay(bytes) {
                    std::thread::sleep(d);
                }
                let gen = generation.load(Ordering::SeqCst);
                let dt = clock.subtask_elapsed(t0, j, w, SubtaskKind::Push, gen);
                let _ = tx.send((j, w, SubtaskKind::Push, gen, dt));
            }) as SharedTask
        })
        .collect();

    let apply = {
        let model = Arc::clone(model);
        let slots = Arc::clone(update_bufs);
        let stages = sparse.map(Arc::clone);
        let generation = Arc::clone(generation);
        let tx = event_tx.clone();
        let clock = Arc::clone(&cluster.clock);
        let node = j % cluster.nodes.len();
        let parts = split_count(dop, model_len);
        let task = Arc::new(move || {
            let t0 = clock.now();
            let staged = Staged {
                slots: &slots,
                stages: stages.as_deref().map(Vec::as_slice),
                len: if all_reduce { 1 } else { dop },
            };
            fold_split(&mut model.write(), parts, &staged);
            let gen = generation.load(Ordering::SeqCst);
            let dt = clock.subtask_elapsed(t0, j, node, SubtaskKind::Apply, gen);
            let _ = tx.send((j, node, SubtaskKind::Apply, gen, dt));
        }) as SharedTask;
        Some((node, task))
    };

    TaskSet {
        pull,
        comp,
        push,
        apply,
    }
}

/// Starts job `j` worker `w`'s PULL or PUSH — `task`, of generation `gen`.
///
/// With a simulated network it occupies one of node `w`'s two COMM
/// executor slots for its wire time: the §IV-A discipline governs every
/// subtask that holds the NIC. Without one it has no wire time to sit
/// out and no payload to move (model and update buffers are shared in
/// process), so the master times it in place and queues the
/// completion on `ready`, which the event loop drains through the same
/// handler before it blocks on the executors' channel: no thread
/// hand-offs, and no COMP waiting behind another job's APPLY fold for a
/// transfer that transfers nothing.
fn submit_comm(
    cluster: &PsCluster,
    ready: &mut VecDeque<Event>,
    j: usize,
    w: usize,
    kind: SubtaskKind,
    gen: u64,
    task: &SharedTask,
) {
    if cluster.config.network_bytes_per_sec.is_some() {
        cluster.nodes[w].comm.submit_shared(task);
    } else {
        let t0 = cluster.clock.now();
        let dt = cluster.clock.subtask_elapsed(t0, j, w, kind, gen);
        ready.push_back((j, w, kind, gen, dt));
    }
}

/// Opens `run`'s next iteration: new generation, then every worker's
/// PULL of the model the last APPLY left.
fn begin_iteration(cluster: &PsCluster, ready: &mut VecDeque<Event>, j: usize, run: &mut JobRun) {
    run.iteration += 1;
    let gen = run.sync.begin_iteration();
    run.generation.store(gen, Ordering::SeqCst);
    for (w, task) in run.tasks.pull.iter().enumerate() {
        submit_comm(cluster, ready, j, w, SubtaskKind::Pull, gen, task);
    }
}

/// Executes `run`'s planned migration at the iteration boundary it just
/// completed (§IV-B4): checkpoint the quiescent model bit-exactly,
/// restore it through the serialized form, replay the new workers'
/// pre-training pushes into it — the exact sequence a fresh restart
/// from `JobBuilder::initial_model` runs — and rebuild the task set and
/// barriers for the new DoP. The APPLY ranges depend on the DoP only
/// through the task count, and the model buffer is reused in place; the
/// generation counter keeps running (no subtask is in flight at the
/// boundary).
fn migrate(cluster: &PsCluster, event_tx: &EventTx, j: usize, run: &mut JobRun) {
    let plan = run.migration.take().expect("migration due");
    let t0 = cluster.clock.now();
    let checkpoint_bytes;
    {
        let mut model = run.model.write();
        let ckpt = Checkpoint::capture(model.as_ref());
        checkpoint_bytes = ckpt.byte_len();
        cluster.migrations.lock().begin(checkpoint_bytes as f64);
        ckpt.restore_into(model.as_mut());
        for w in &plan.workers {
            if let Some(init) = w.initial_update() {
                fold_dense(model.as_mut(), &init);
            }
        }
    }
    let from_dop = run.workers.len();
    let new_dop = plan.workers.len();
    run.total_examples = plan.workers.iter().map(|w| w.num_examples()).sum();
    run.workers = plan
        .workers
        .into_iter()
        .map(|w| Arc::new(Mutex::new(w)))
        .collect();
    run.release_tasks();
    run.update_bufs = acquire_update_bufs(cluster, run.model_len, new_dop);
    run.sparse_stages = build_sparse_stages(cluster, new_dop, run.all_reduce);
    run.tasks = build_tasks(
        cluster,
        event_tx,
        j,
        &run.model,
        &run.workers,
        &run.update_bufs,
        &run.generation,
        run.all_reduce,
        run.sparse_stages.as_ref(),
    );
    run.sync.reconfigure(new_dop);
    run.migrated = Some(MigrationRecord {
        at_iteration: run.iteration,
        from_dop,
        checkpoint_bytes,
    });
    let latency = cluster.clock.now().saturating_sub(t0).as_secs_f64();
    cluster.migrations.lock().finish(latency);
}

/// Runs `jobs` to completion on `cluster`'s executors: the body of
/// [`PsCluster::run_jobs`].
pub(crate) fn run_jobs(cluster: &PsCluster, jobs: Vec<TrainingJob>) -> Vec<JobReport> {
    let (event_tx, event_rx) = unbounded::<Event>();

    let mut runs: Vec<JobRun> = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.into_iter().enumerate() {
        let dop = job.workers.len();
        let model_len = job.workers[0].model_len();
        let mut model = cluster.pool.acquire(model_len);
        match &job.initial_model {
            Some(m) => model.copy_from_slice(m),
            None => model.copy_from_slice(&job.workers[0].init_model(job.seed)),
        }
        // Pre-training pushes (e.g. LDA's random-assignment counts) —
        // sequential and in worker order, as a restart from a
        // checkpoint replays them.
        for w in &job.workers {
            if let Some(init) = w.initial_update() {
                fold_dense(&mut model, &init);
            }
        }
        let total_examples: usize = job.workers.iter().map(|w| w.num_examples()).sum();
        let workers: Vec<_> = job
            .workers
            .into_iter()
            .map(|w| Arc::new(Mutex::new(w)))
            .collect();
        let initial_loss = mean_loss(&workers, &model, total_examples);

        let model = Arc::new(RwLock::new(model));
        let update_bufs = acquire_update_bufs(cluster, model_len, dop);
        let generation = Arc::new(AtomicU64::new(0));
        let all_reduce = job.all_reduce;
        let sparse_stages = build_sparse_stages(cluster, dop, all_reduce);

        let tasks = build_tasks(
            cluster,
            &event_tx,
            j,
            &model,
            &workers,
            &update_bufs,
            &generation,
            all_reduce,
            sparse_stages.as_ref(),
        );

        let expected_events = (3 * dop + 1) as u64 * job.max_iterations.min(4096);
        runs.push(JobRun {
            name: job.name,
            model_len,
            workers,
            update_bufs,
            sparse_stages,
            model,
            generation,
            sync: Synchronizer::new(dop),
            tasks,
            iteration: 0,
            max_iterations: job.max_iterations,
            loss_threshold: job.loss_threshold,
            check_every: job.check_every,
            abort_after: job.abort_after,
            total_examples,
            all_reduce,
            migration: job.migration,
            migrated: None,
            timings: Vec::with_capacity(expected_events as usize),
            loss_history: {
                let mut h =
                    Vec::with_capacity((job.max_iterations / job.check_every.max(1)) as usize + 2);
                h.push((0, initial_loss));
                h
            },
            initial_loss,
            push_volumes: Vec::with_capacity(job.max_iterations.min(4096) as usize),
            ring_scratch: Vec::with_capacity(dop),
            converged: false,
            aborting: false,
            drain: 0,
        });
    }

    // Completions the master produced itself (`submit_comm`). The loop
    // empties the queue before it blocks and a handler queues at most
    // one job's PULLs, so the kick-off below is its high-water mark.
    let mut ready: VecDeque<Event> = VecDeque::with_capacity(runs.len() * cluster.nodes.len());

    // Kick off iteration 1 of every job.
    let mut active = 0usize;
    for (j, run) in runs.iter_mut().enumerate() {
        if run.max_iterations > 0 {
            begin_iteration(cluster, &mut ready, j, run);
            active += 1;
        }
    }

    while active > 0 {
        let (j, node, kind, egen, elapsed) = ready
            .pop_front()
            .unwrap_or_else(|| event_rx.recv().expect("executors alive while jobs active"));
        let run = &mut runs[j];
        if run.aborting {
            run.drain -= 1;
            if run.drain == 0 {
                active -= 1;
            }
            continue;
        }
        if run.abort_after == Some(egen) {
            // The first event of a generation is always a PULL (COMPs
            // are only submitted in reaction to it), so aborting here
            // leaves the model exactly as of the previous iteration.
            debug_assert_eq!(kind, SubtaskKind::Pull);
            run.aborting = true;
            run.iteration -= 1;
            run.drain = run.workers.len() - 1;
            if run.drain == 0 {
                active -= 1;
            }
            continue;
        }
        run.timings.push(SubtaskTiming {
            kind,
            node,
            iteration: egen,
            elapsed,
        });
        match run.sync.on_subtask(kind, egen) {
            SyncAction::StartCompute => {
                cluster.nodes[node].cpu.submit_shared(&run.tasks.comp[node]);
            }
            SyncAction::StartPush => {
                let task = &run.tasks.push[node];
                submit_comm(cluster, &mut ready, j, node, SubtaskKind::Push, egen, task);
            }
            SyncAction::ReduceAndApply => {
                if run.all_reduce {
                    // Every rank contributed: reduce around the ring in
                    // place (no copies — the pooled buffers are the ring
                    // nodes), then hand the buffers back to their slots.
                    run.ring_scratch.clear();
                    for slot in run.update_bufs.iter() {
                        let buf = slot.write().take().expect("COMP preceded reduce");
                        run.ring_scratch.push(buf);
                    }
                    crate::allreduce::ring_all_reduce(&mut run.ring_scratch);
                    for (slot, buf) in run.update_bufs.iter().zip(run.ring_scratch.drain(..)) {
                        *slot.write() = Some(buf);
                    }
                }
                let (n, task) = run.tasks.apply.as_ref().expect("tasks are built");
                cluster.nodes[*n].comm.submit_shared(task);
            }
            SyncAction::IterationComplete => {
                // The APPLY just landed, so every stage still
                // holds this iteration's wire decision — account for it
                // before anything can resubmit a COMP.
                let dop = run.workers.len();
                let per_worker_dense =
                    dense_push_bytes_per_worker(model_bytes(run.model_len), dop, run.all_reduce);
                let dense_total = per_worker_dense * dop as u64;
                let bytes = match &run.sparse_stages {
                    Some(stages) => stages
                        .iter()
                        .map(|stage| match stage.read().nnz {
                            DENSE_PUSH => per_worker_dense,
                            nnz => nnz as u64 * SPARSE_PAIR_BYTES,
                        })
                        .sum(),
                    None => dense_total,
                };
                run.push_volumes.push(PushVolume {
                    iteration: run.iteration,
                    bytes,
                    dense_bytes: dense_total,
                });
                // All subtasks of the iteration have landed: the
                // workers are idle and the model is quiescent.
                let at_check = run.iteration.is_multiple_of(run.check_every)
                    || run.iteration == run.max_iterations;
                if at_check {
                    let model = run.model.read();
                    let loss = mean_loss(&run.workers, model.as_ref(), run.total_examples);
                    run.loss_history.push((run.iteration, loss));
                    if run.loss_threshold.is_some_and(|t| loss <= t) {
                        run.converged = true;
                    }
                }
                if run.converged || run.iteration >= run.max_iterations {
                    active -= 1;
                } else {
                    if run
                        .migration
                        .as_ref()
                        .is_some_and(|m| m.after_iteration == run.iteration)
                    {
                        migrate(cluster, &event_tx, j, run);
                    }
                    begin_iteration(cluster, &mut ready, j, run);
                }
            }
            SyncAction::InFlight => {}
        }
    }

    runs.into_iter()
        .map(|mut run| {
            // `run_jobs` returns with the pool whole.
            run.release_tasks();
            let final_model = run.model.read().to_vec();
            let dop = run.workers.len();
            finish_report(
                run.name,
                run.iteration,
                run.initial_loss,
                run.loss_history,
                run.timings,
                dop,
                final_model,
                run.migrated,
                run.converged,
                run.aborting,
                run.push_volumes,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::split_range;

    #[test]
    fn split_ranges_are_disjoint_and_cover_the_model() {
        const FLOOR: usize = crate::fold::SPLIT_FOLD_MIN_SLOTS;
        for model_len in [1, FLOOR - 1, FLOOR, FLOOR + 1, 1_000_000] {
            for dop in 1..=8 {
                let parts = split_count(dop, model_len);
                let want = if model_len < FLOOR { 1 } else { dop };
                assert_eq!(parts, want, "len {model_len} dop {dop}");
                let mut next = 0;
                for n in 0..parts {
                    let r = split_range(n, parts, model_len);
                    let at = format!("len {model_len} dop {dop} part {n}: {r:?}");
                    assert_eq!(r.start, next, "{at}: gap or overlap");
                    assert!(r.start < r.end, "{at}: empty");
                    next = r.end;
                }
                assert_eq!(next, model_len, "len {model_len} dop {dop}: not covered");
            }
        }
    }
}
