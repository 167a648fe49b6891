//! Persistent scratch for the simulator's reschedule path.
//!
//! Every `full_reschedule` used to rebuild a `ProfileStore` (a
//! `BTreeMap` clone of every warm profile), per-class ordering
//! vectors, a fresh profile vector and the core scheduler's internal
//! buffers — all heap traffic repeated on each trigger. This scratch
//! keeps those buffers alive across invocations so the steady-state
//! reschedule allocates nothing once warmed up; the ordering and
//! filtering logic itself is unchanged, and the profile sequence fed
//! to Algorithm 1 is byte-identical to the store-backed path.

use harmony_core::profile::JobProfile;
use harmony_core::scratch::ScheduleScratch;

/// What one kind of scheduler query carries from call to call: the
/// profile list it is asked over and the core scheduler's working set.
#[derive(Default)]
pub(crate) struct PassBuffers {
    /// Profiles in decision order; flat copies, capacity reused.
    pub profiles: Vec<JobProfile>,
    /// Algorithm 1's cache and scan buffers, synced to `profiles` by
    /// each query.
    pub scratch: ScheduleScratch,
}

/// Reused buffers for [`crate::driver::Driver`]'s scheduler queries.
/// Each query kind owns its buffers, so release passes and admission
/// pricing never churn the cache the full pass keeps in sync.
#[derive(Default)]
pub(crate) struct SimSchedScratch {
    /// `(ordering key, job index)` of the state class being ordered
    /// (cleared per class).
    pub class: Vec<(f64, usize)>,
    /// The full pass, over J_profiled ∪ J_paused ∪ J_running.
    pub full: PassBuffers,
    /// The targeted release pass
    /// ([`harmony_core::schedule::Scheduler::schedule_release`]).
    pub release: PassBuffers,
    /// Admission pricing
    /// ([`harmony_core::Scheduler::price_candidate`]).
    pub admission: PassBuffers,
}
