//! Memory management for co-located ML jobs (§IV-C of the Harmony
//! paper).
//!
//! Running many jobs on the same machines multiplies memory pressure:
//! every job keeps its training input in worker memory and its model
//! partition in server memory, and managed runtimes pay growing garbage
//! collection costs as the heap fills — or die with OOM errors
//! (Figure 4 shows the naive 3-job co-location OOMing).
//!
//! Harmony's answer is *dynamic data reloading*: because only one COMP
//! subtask runs at a time, input data of the jobs that are not computing
//! can live on disk. Each job `j` keeps a fraction
//! `α_j = B_disk_j / B_total_j` of its input blocks disk-side, reloading
//! them in the background while other jobs compute. A hill-climbing
//! controller moves `α_j` toward the sweet spot between GC pressure
//! (α too low) and disk-blocked iterations (α too high).
//!
//! Modules:
//! - [`block`]: input-data blocks and their residency;
//! - [`store`]: a per-job block store with spill/reload plumbing and
//!   pluggable backends (pure accounting, or real temp files);
//! - [`alpha`]: the per-job hill-climbing α controller, and the
//!   `2⁻¹²` grid every simulated α lies on;
//! - [`gc`]: the analytic GC-pressure model shared with the cluster
//!   simulator;
//! - [`pool`]: a recycling pool of `f64` working buffers so the PS
//!   runtime's steady-state iterations allocate nothing.

pub mod alpha;
pub mod block;
pub mod gc;
pub mod pool;
pub mod store;

pub use alpha::{alpha_of_steps, alpha_steps, AlphaController, Rounding, ALPHA_STEPS};
pub use block::{Block, BlockId, Residency};
pub use gc::GcModel;
pub use pool::{BufferPool, PoolStats, PooledBuffer, PooledIndexBuffer};
pub use store::{BlockStore, FileBackend, NullBackend, SpillBackend};
