//! An in-process Parameter-Server runtime with Harmony's subtask
//! execution model (§III–§IV-A of the paper).
//!
//! This crate is the "real system" counterpart to the discrete-event
//! simulator: jobs train actual models (from `harmony-ml`) on real
//! threads, with each job's model held server-side and worker iterations
//! decomposed into PULL → COMP → PUSH → APPLY *subtasks*.
//!
//! The runtime reproduces the paper's executor discipline faithfully:
//!
//! - every node runs one **CPU executor** (a single thread — "a single
//!   CPU subtask is executed at a time as \[it\] usually uses almost all
//!   of the provided CPU resources") and one **COMM executor** with two
//!   slots ("we schedule a secondary network subtask" to fill idle
//!   request/response gaps);
//! - a master-side **subtask synchronizer** barriers each job's
//!   distributed subtasks: only when all of a job's PULL subtasks finish
//!   does its COMP subtask become runnable, and so on (Figure 7);
//! - co-located jobs enqueue into the *same* executors, so COMP of one
//!   job overlaps COMM of another — the multiplexing of Figure 5b.
//!
//! Workers' pulled-model buffers can be spilled between iterations via
//! `harmony-mem` and the whole job can be checkpointed (model snapshot)
//! and resumed — the migration primitive of §IV-B4.
//!
//! Every subtask is timed through an injectable [`Clock`] (the scripted
//! [`VirtualClock`] makes timing-dependent tests bit-reproducible), and
//! [`iteration_samples`] turns a finished [`JobReport`] into canonical
//! per-iteration `(Tcpu, Tnet, Tapply, DoP)` samples for the
//! scheduler's closed profiling loop (`harmony_core::FeedbackLoop`).
//!
//! # Examples
//!
//! ```
//! use harmony_ps::{JobBuilder, PsCluster, PsConfig};
//! use harmony_ml::{synth, Mlr};
//!
//! let cluster = PsCluster::new(PsConfig { nodes: 2, ..PsConfig::default() });
//! let data = synth::classification(64, 16, 3, 0.3, 1);
//! let parts = synth::partition(&data, 2);
//! let job = JobBuilder::new("mlr-demo")
//!     .workers(parts.into_iter().map(|p| {
//!         Box::new(Mlr::new(p, 16, 3, 0.5)) as Box<dyn harmony_ml::PsAlgorithm>
//!     }))
//!     .max_iterations(10)
//!     .build();
//! let report = cluster.run_jobs(vec![job]).remove(0);
//! assert!(report.final_loss < report.initial_loss);
//! ```

pub mod allreduce;
pub mod checkpoint;
pub mod clock;
pub mod executor;
pub mod feedback;
mod fold;
pub mod master;
pub(crate) mod runtime;
pub mod shard;
pub mod subtask;

pub use allreduce::{ring_all_reduce, AllReduceStats};
pub use checkpoint::Checkpoint;
pub use clock::{Clock, VirtualClock, WallClock};
pub use executor::{AbortHandle, Executor, ExecutorStats};
pub use feedback::{iteration_samples, record_report};
pub use master::{
    JobBuilder, JobReport, MigrationRecord, PlannedMigration, PsCluster, PsConfig, PushVolume,
    TrainingJob, SPARSE_DENSITY_THRESHOLD,
};
pub use shard::{StripedModel, DEFAULT_STRIPE_LEN};
pub use subtask::{SubtaskKind, SubtaskTiming, SyncAction, Synchronizer};
