//! Allocation audit for the fast PS runtime.
//!
//! Run with `cargo test --features alloc-count --test ps_alloc`. A
//! counting `#[global_allocator]` tallies every heap allocation in the
//! process and the bytes it asked for. Two tests compare total
//! allocation *counts* of a short and a long training run on the same
//! warmed cluster. Per-run setup (job construction, pooled-buffer
//! checkout, task `Arc`s) costs the same number of allocations
//! regardless of iteration count, so equal totals prove the extra
//! iterations allocated nothing: the model, update buffers, ML scratch,
//! the ring reduction, and the event channel are all reused. A third
//! holds the bytes a warmed run allocates to its model-sized budget,
//! and a fourth bounds what a model large enough for the APPLY to split
//! its fold across scoped threads allocates per iteration.
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use harmony::ml::{synth, Lasso, Lda, PsAlgorithm};
use harmony::ps::{JobBuilder, PsCluster, PsConfig, TrainingJob};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations of [`LARGE_ALLOC`] bytes or more.
static LARGE: AtomicU64 = AtomicU64::new(0);

const LARGE_ALLOC: usize = 1024;

fn tally(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    if bytes >= LARGE_ALLOC {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `ALLOCS` is process-wide and the test harness runs this file's
/// tests on parallel threads, so an unserialized audit window also
/// counts the other test's allocations. Each test holds this for its
/// whole body. A poisoned lock is still taken: the guarded `()` cannot
/// be left inconsistent, and the other audit's verdict stays its own.
static AUDIT: Mutex<()> = Mutex::new(());

fn exclusive_audit() -> MutexGuard<'static, ()> {
    AUDIT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One 4-worker Lasso run; `check_every` is huge so the only loss
/// evaluation is the final-iteration one — the same count either way.
fn run_lasso(cluster: &PsCluster, iters: u64) {
    let data = synth::regression(80, 16, 0.3, 3);
    let job = JobBuilder::new("alloc-audit")
        .workers(
            synth::partition(&data, 4)
                .into_iter()
                .map(|p| Box::new(Lasso::new(p, 16, 0.05, 0.01)) as Box<dyn PsAlgorithm>),
        )
        .max_iterations(iters)
        .check_every(1_000_000)
        .build();
    let _ = cluster.run_jobs(vec![job]);
    assert_settled(cluster);
}

/// `run_jobs` returns only once every pooled buffer is back in the
/// pool, so the next run's setup draws from it instead of allocating.
fn assert_settled(cluster: &PsCluster) {
    let stats = cluster.pool_stats();
    assert_eq!(stats.outstanding, 0, "pooled buffers still out: {stats:?}");
}

#[test]
fn steady_state_iterations_allocate_nothing() {
    let _audit = exclusive_audit();
    let cluster = PsCluster::new(PsConfig {
        nodes: 4,
        network_bytes_per_sec: None,
        fast_runtime: true,
        live_migration: false,
        sparse_push: true,
    });

    // Warmup: populate the buffer pool, grow the executor queues and
    // the event channel to their steady capacity, fault in lazy
    // thread-local state.
    run_lasso(&cluster, 40);

    // Lazy one-time allocations elsewhere in the process can land in
    // either window; a bounded retry separates that noise from a real
    // per-iteration allocation (which would repeat every attempt).
    let mut attempts = Vec::new();
    for _ in 0..3 {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        run_lasso(&cluster, 40);
        let a1 = ALLOCS.load(Ordering::Relaxed);
        run_lasso(&cluster, 400);
        let a2 = ALLOCS.load(Ordering::Relaxed);

        let short = a1 - a0;
        let long = a2 - a1;
        if long == short {
            return; // 360 extra iterations allocated nothing
        }
        attempts.push((short, long));
    }
    panic!(
        "steady-state iterations allocated memory: (short, long) counts per attempt = {attempts:?}"
    );
}

/// One 4-worker LDA run whose Gibbs-sweep support sits far below the
/// sparse cutoff, so every steady-state PUSH takes the coordinate-sparse
/// path (index copy + value gather + scatter apply).
fn run_lda(cluster: &PsCluster, iters: u64) {
    let docs = synth::bag_of_words(12, 300, 20, 3, 9);
    let job = JobBuilder::new("sparse-alloc-audit")
        .workers(
            synth::partition(&docs, 4)
                .into_iter()
                .enumerate()
                .map(|(i, p)| Box::new(Lda::new(p, 300, 3, i as u64)) as Box<dyn PsAlgorithm>),
        )
        .max_iterations(iters)
        .check_every(1_000_000)
        .build();
    let _ = cluster.run_jobs(vec![job]);
    assert_settled(cluster);
}

#[test]
fn sparse_push_steady_state_allocates_nothing() {
    let _audit = exclusive_audit();
    let cluster = PsCluster::new(PsConfig {
        nodes: 4,
        network_bytes_per_sec: None,
        fast_runtime: true,
        live_migration: false,
        sparse_push: true,
    });

    run_lda(&cluster, 40);
    assert!(
        cluster.comm_stats().sparse_pushes > 0,
        "audit workload never engaged the sparse path"
    );

    let mut attempts = Vec::new();
    for _ in 0..3 {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        run_lda(&cluster, 40);
        let a1 = ALLOCS.load(Ordering::Relaxed);
        run_lda(&cluster, 400);
        let a2 = ALLOCS.load(Ordering::Relaxed);

        let short = a1 - a0;
        let long = a2 - a1;
        if long == short {
            return; // 360 extra sparse iterations allocated nothing
        }
        attempts.push((short, long));
    }
    panic!(
        "sparse-path iterations allocated memory: (short, long) counts per attempt = {attempts:?}"
    );
}

/// Parameters of the byte audit's model: large enough that the job's
/// model-sized buffers dwarf everything else a run allocates.
const AUDIT_FEATURES: usize = 100_000;

/// One 2-worker Lasso job over an `AUDIT_FEATURES`-parameter model. Its
/// non-zero initial model makes every update dense.
fn wide_lasso_job() -> TrainingJob {
    let data = synth::regression(64, AUDIT_FEATURES, 0.001, 7);
    JobBuilder::new("byte-audit")
        .workers(
            synth::partition(&data, 2).into_iter().map(|p| {
                Box::new(Lasso::new(p, AUDIT_FEATURES, 0.05, 0.01)) as Box<dyn PsAlgorithm>
            }),
        )
        .max_iterations(4)
        .check_every(1_000_000)
        .build()
}

#[test]
fn a_warmed_run_allocates_two_model_sizes() {
    let _audit = exclusive_audit();
    let cluster = PsCluster::new(PsConfig {
        nodes: 2,
        network_bytes_per_sec: None,
        fast_runtime: true,
        live_migration: false,
        sparse_push: true,
    });
    // Warmup: the pool then holds the model and both update buffers.
    let _ = cluster.run_jobs(vec![wide_lasso_job()]);
    assert_settled(&cluster);

    // The pooled buffers come back from the pool, so what a run still
    // allocates model-sized is the vector `init_model` returns and the
    // report's `final_model` — nothing that holds a second copy of the
    // model for the job's life.
    let job = wide_lasso_job();
    let b0 = BYTES.load(Ordering::Relaxed);
    let report = cluster.run_jobs(vec![job]).remove(0);
    let b1 = BYTES.load(Ordering::Relaxed);
    assert_settled(&cluster);
    assert_eq!(report.push_density(), 1.0, "every PUSH must be dense");
    let model_sizes = (b1 - b0) as f64 / (AUDIT_FEATURES * std::mem::size_of::<f64>()) as f64;
    assert!(
        model_sizes < 2.5,
        "a warmed run allocated {model_sizes:.3} model-sizes of bytes"
    );
}

/// Parameters of the split audit's model: 2¹⁹, so its APPLY folds in
/// two parts, the second on a thread scoped to the fold.
const SPLIT_FEATURES: usize = 1 << 19;

/// The most allocations one iteration of the split audit may make: the
/// scoped spawn allocates a few small blocks (the scope's and the
/// thread's shared state, the boxed closure), never a buffer.
const SPLIT_ALLOCS_PER_ITER: u64 = 8;

/// One 2-worker Lasso run over a `SPLIT_FEATURES`-parameter model.
fn run_split_lasso(cluster: &PsCluster, iters: u64) {
    let data = synth::regression(16, SPLIT_FEATURES, 0.000_1, 5);
    let job =
        JobBuilder::new("split-audit")
            .workers(synth::partition(&data, 2).into_iter().map(|p| {
                Box::new(Lasso::new(p, SPLIT_FEATURES, 0.05, 0.01)) as Box<dyn PsAlgorithm>
            }))
            .max_iterations(iters)
            .check_every(1_000_000)
            .build();
    let _ = cluster.run_jobs(vec![job]);
    assert_settled(cluster);
}

#[test]
fn a_split_fold_allocates_a_few_small_blocks_per_iteration() {
    let _audit = exclusive_audit();
    let cluster = PsCluster::new(PsConfig {
        nodes: 2,
        network_bytes_per_sec: None,
        fast_runtime: true,
        live_migration: false,
        sparse_push: true,
    });
    run_split_lasso(&cluster, 60);

    // Per-run setup (the synthetic data, `init_model`, `final_model`,
    // records sized by the iteration count — over `LARGE_ALLOC` bytes
    // in both runs) is the same for both, so what the 50 extra
    // iterations allocate is the difference: the same small count
    // each, and not one block of `LARGE_ALLOC` bytes or more.
    let extra = 50;
    let mut attempts = Vec::new();
    for _ in 0..3 {
        let (a0, l0) = (
            ALLOCS.load(Ordering::Relaxed),
            LARGE.load(Ordering::Relaxed),
        );
        run_split_lasso(&cluster, 60);
        let (a1, l1) = (
            ALLOCS.load(Ordering::Relaxed),
            LARGE.load(Ordering::Relaxed),
        );
        run_split_lasso(&cluster, 60 + extra);
        let (a2, l2) = (
            ALLOCS.load(Ordering::Relaxed),
            LARGE.load(Ordering::Relaxed),
        );

        let (short, long) = (a1 - a0, a2 - a1);
        let (large_short, large_long) = (l1 - l0, l2 - l1);
        if large_long == large_short
            && long >= short
            && (long - short) % extra == 0
            && long - short <= SPLIT_ALLOCS_PER_ITER * extra
        {
            return;
        }
        attempts.push((short, long, large_short, large_long));
    }
    panic!(
        "split-fold iterations allocated more than a fixed few small blocks each: \
         (short, long, short >= 1 KiB, long >= 1 KiB) counts per attempt = {attempts:?}"
    );
}
