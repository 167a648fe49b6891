//! A discrete-event cluster simulator for multi-job Parameter-Server
//! training — the substrate on which the Harmony paper's evaluation is
//! reproduced.
//!
//! The paper's testbed is 100 AWS m4.2xlarge instances running a
//! Java/REEF PS system. This crate replaces that testbed with a
//! deterministic fluid simulation that preserves the semantics every
//! experiment depends on:
//!
//! - **Subtask execution** (§IV-A): each job group runs its members'
//!   PULL → COMP → PUSH subtasks through per-group CPU and network
//!   resources. Under Harmony's discipline one COMP subtask runs at a
//!   time and at most two COMM subtasks share the NIC; under the naive
//!   baseline everything dispatches at once and contends.
//! - **Resource contention**: resources are fluid (generalized processor
//!   sharing) — `k` concurrent CPU subtasks each progress at `1/k` rate,
//!   with a configurable interference penalty on top (cache/scheduler
//!   thrash), which is what makes naive co-location "lagged and
//!   unpredictable" (§II-B).
//! - **DoP scaling** (Eq. 2): COMP time scales as `1/m_g`; COMM time is
//!   DoP-invariant.
//! - **Memory pressure** (§IV-C): per-machine residency from input,
//!   model, and the active COMP subtask's working set (with a JVM-style
//!   expansion factor); a GC model stretches computation as memory
//!   fills, and exceeding capacity OOMs the offending job — unless
//!   spill/reload (α) makes it fit.
//! - **Stragglers**: subtask durations carry a `max`-over-machines
//!   lognormal noise factor, so barriers wait for the slowest machine.
//!
//! Because all machines of a group run the same co-located jobs in
//! barrier lockstep (the paper's design), the simulator tracks state at
//! *group* granularity with machine-count-aware costs — equivalent to a
//! per-machine simulation for every quantity the paper reports, at a
//! fraction of the event load.
//!
//! The entry point is [`driver::Driver`], which executes a full
//! workload under a pluggable [`config::SchedulerKind`] and produces a
//! [`report::RunReport`] with JCTs, makespan, utilization timelines,
//! grouping snapshots, prediction-error samples and memory statistics.

pub mod admission;
pub mod config;
pub mod driver;
pub(crate) mod events;
pub mod fault;
pub mod fluid;
pub mod groupmem;
pub(crate) mod idset;
pub mod noise;
pub mod report;
pub mod runtime;
pub(crate) mod schedscratch;
pub mod spans;
pub mod workload;

pub use admission::{
    AdmissionContext, AdmissionDecision, AdmissionPolicy, AdmitAll, QueueCap, UtilityThreshold,
};
pub use config::{CompShift, PushDensity, ReloadPolicy, SchedulerKind, SimConfig};
pub use driver::Driver;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use report::{JobOutcome, PredictionSample, ReschedCounters, ReschedReason, RunReport};
pub use spans::{ascii_gantt, to_chrome_trace, SubtaskSpan};
pub use workload::{WorkloadGen, WorkloadGenConfig};
