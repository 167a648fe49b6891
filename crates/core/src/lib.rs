//! The Harmony scheduler: the primary contribution of
//! *"Harmony: A Scheduling Framework Optimized for Multiple Distributed
//! Machine Learning Jobs"* (Lee et al., ICDCS 2021).
//!
//! Harmony co-locates Parameter-Server ML training jobs with
//! complementary resource usage and multiplexes their CPU-dominant
//! (COMP) and network-dominant (COMM = PULL/PUSH) subtasks so that a
//! shared pool of machines stays busy on both resource types at once.
//!
//! This crate contains everything the Harmony *master* needs to make
//! scheduling decisions:
//!
//! - [`job`]: job identities and specifications;
//! - [`profile`]: profiled runtime metrics `(Tcpu, Tnet, m)` per job
//!   (§IV-B1), kept fresh with moving averages;
//! - [`feedback`]: the closed profiling loop — measured iteration
//!   samples flow back into the profiles, with ≥5% drift detection
//!   against the basis the current schedule was computed with (§IV-B4);
//! - [`model`]: the performance model — group iteration time (Eq. 1),
//!   the DoP scaling law (Eq. 2), and utilization (Eqs. 3–4) (§IV-B2);
//! - [`schedule`]: Algorithm 1 — incremental job selection, group-count
//!   search, greedy grouping with swap-based fine-tuning, and machine
//!   allocation (§IV-B3);
//! - [`regroup`]: dynamic regrouping on job arrival/completion with the
//!   5% similarity/benefit thresholds and minimal job movement (§IV-B4);
//! - [`oracle`]: the exact scheduler (a subset dynamic program over
//!   Eq. 4) used as ground truth in §V-F;
//! - [`baseline`]: the `Isolated` and `Naively co-located` baselines of
//!   §V-A;
//! - [`keyed`]: the one key function every keyed random draw goes
//!   through (SplitMix64).
//!
//! The crate is deliberately execution-agnostic: it consumes
//! [`profile::JobProfile`]s and produces [`group::Grouping`]s, and is
//! driven both by the discrete-event cluster simulator (`harmony-sim`)
//! and by the in-process PS runtime (`harmony-ps`).
//!
//! # Examples
//!
//! ```
//! use harmony_core::job::JobId;
//! use harmony_core::profile::JobProfile;
//! use harmony_core::schedule::{Scheduler, SchedulerConfig};
//!
//! // Two CPU-heavy and two network-heavy jobs on 8 machines.
//! let profiles = vec![
//!     JobProfile::from_reference(JobId::new(0), 40.0, 5.0),
//!     JobProfile::from_reference(JobId::new(1), 38.0, 6.0),
//!     JobProfile::from_reference(JobId::new(2), 8.0, 9.0),
//!     JobProfile::from_reference(JobId::new(3), 7.0, 10.0),
//! ];
//! let scheduler = Scheduler::new(SchedulerConfig::default());
//! let outcome = scheduler.schedule(&profiles, 8);
//! assert!(!outcome.grouping.is_empty());
//! assert_eq!(outcome.grouping.total_machines(), 8);
//! ```

pub mod baseline;
pub mod cluster;
pub mod discipline;
pub mod error;
pub mod feedback;
pub mod group;
pub mod job;
pub mod keyed;
pub mod model;
pub mod oracle;
pub mod profile;
pub mod regroup;
pub mod schedule;
pub mod scratch;

pub use cluster::{MachineId, MachineSpec};
pub use error::{Error, Result};
pub use feedback::{FeedbackLoop, IterationSample, ProfileSink};
pub use group::{GroupId, Grouping, JobGroup};
pub use job::{AppKind, JobId, JobSpec, SyncKind};
pub use model::{cluster_utilization, group_iteration_time, group_utilization, Utilization};
pub use profile::{JobProfile, ProfileStore};
pub use schedule::{CandidatePrice, ScheduleOutcome, Scheduler, SchedulerConfig};
