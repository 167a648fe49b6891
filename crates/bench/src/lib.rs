//! Shared harness for the Harmony experiment binaries.
//!
//! Every table and figure of the paper's evaluation (§V) is regenerated
//! by one binary in `src/bin/` (see DESIGN.md §4 for the index). This
//! library holds the pieces they share: standard configurations for the
//! three schedulers, the workload variants of §V-D, and result-table
//! helpers.

pub mod harness;

pub use harness::{
    base_specs, comm_intensive_specs, comp_intensive_specs, harmony_config, isolated_config,
    median_min_max, naive_config, run, summary_row, RunSummary, MACHINES,
};
