//! Runtime-metric primitives for the Harmony reproduction.
//!
//! The Harmony master bases every scheduling decision on profiled runtime
//! metrics (§IV-B1 of the paper): per-job subtask durations maintained as
//! moving averages, cluster-wide utilization accounting, and the summary
//! distributions (CDFs) reported throughout the evaluation section.
//!
//! This crate is dependency-free and shared by the scheduler
//! (`harmony-core`), the cluster simulator (`harmony-sim`), the
//! parameter-server runtime (`harmony-ps`) and the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use harmony_metrics::Ewma;
//!
//! let mut iter_time = Ewma::new(0.5);
//! iter_time.observe(10.0);
//! iter_time.observe(20.0);
//! assert_eq!(iter_time.value(), Some(15.0));
//! ```

mod admission;
mod cdf;
mod comm;
mod events;
mod ewma;
mod hist;
mod migration;
mod online;
mod phase;
mod table;
mod timeline;

pub use admission::AdmissionStats;
pub use cdf::Cdf;
pub use comm::CommStats;
pub use events::{EventLog, TimelineEvent};
pub use ewma::{Ewma, MovingAverage};
pub use hist::Hist;
pub use migration::MigrationStats;
pub use online::OnlineStats;
pub use phase::PhaseTimes;
pub use table::{fmt3, TextTable};
pub use timeline::{Timeline, TimelinePoint, ValueRun};
