//! The closed profiling loop (§IV-B1 / §IV-B4): measured per-iteration
//! subtask times flow back into the [`JobProfile`] moving averages, and
//! a drift detector flags jobs whose smoothed estimates have moved away
//! from the values their current schedule was computed with.
//!
//! The producers — the PS runtime (`harmony-ps`) and the simulator
//! (`harmony-sim`) — push [`IterationSample`]s into anything
//! implementing [`ProfileSink`]. [`FeedbackLoop`] is the standard sink:
//! a [`ProfileStore`] plus drift bookkeeping, so a scheduler driver can
//! ask "which jobs' profiles no longer match the schedule?" after each
//! batch of measurements and re-run Algorithm 1 for exactly those
//! events, mirroring the paper's ≥5% similarity threshold.

use std::collections::BTreeSet;

use crate::job::JobId;
use crate::profile::{JobProfile, ProfileStore};

/// One measured training iteration, as produced by the PS runtime or
/// the simulator: per-node COMP seconds, COMM (PULL+PUSH) seconds, the
/// PUSH density, and the DoP the job ran at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationSample {
    /// The job the measurement belongs to.
    pub job: JobId,
    /// COMP seconds per node for this iteration.
    pub tcpu: f64,
    /// COMM (PULL+PUSH) seconds per node for this iteration.
    pub tnet: f64,
    /// Byte-weighted PUSH density of this iteration relative to a dense
    /// push: `1.0` for a dense wire, lower when the runtime shipped
    /// coordinate-sparse deltas (see `harmony_ps::PushVolume`).
    pub density: f64,
    /// Degree of parallelism the job ran at.
    pub dop: u32,
}

/// A consumer of measured iteration samples.
///
/// Implemented by [`JobProfile`] (folds into its own averages), by
/// [`ProfileStore`] (routes to the sample's job, creating a cold profile
/// on first touch) and by [`FeedbackLoop`] (store + drift detection).
pub trait ProfileSink {
    /// Folds one measured iteration into the sink.
    fn record(&mut self, sample: IterationSample);
}

impl ProfileSink for JobProfile {
    /// # Panics
    ///
    /// Panics (in debug builds) if the sample belongs to a different
    /// job, and on the same input violations as
    /// [`JobProfile::observe_iteration`] and
    /// [`JobProfile::observe_push_density`].
    fn record(&mut self, sample: IterationSample) {
        debug_assert_eq!(
            sample.job,
            self.job(),
            "sample routed to the wrong job's profile"
        );
        self.observe_iteration(sample.tcpu, sample.tnet, sample.dop);
        self.observe_push_density(sample.density);
    }
}

impl ProfileSink for ProfileStore {
    fn record(&mut self, sample: IterationSample) {
        let p = self.entry(sample.job);
        p.observe_iteration(sample.tcpu, sample.tnet, sample.dop);
        p.observe_push_density(sample.density);
    }
}

/// The standard closed-loop sink: a [`ProfileStore`] fed by measured
/// samples, plus the set of jobs whose smoothed estimates have drifted
/// at least `threshold` (relative) from the basis pinned at their last
/// [`FeedbackLoop::mark_scheduled`].
///
/// # Examples
///
/// ```
/// use harmony_core::feedback::{FeedbackLoop, IterationSample, ProfileSink};
/// use harmony_core::job::JobId;
///
/// let mut fb = FeedbackLoop::new(0.05);
/// let j = JobId::new(0);
/// let sample = |tcpu| IterationSample { job: j, tcpu, tnet: 2.0, density: 1.0, dop: 1 };
/// fb.record(sample(10.0));
/// fb.mark_scheduled([j]); // a schedule was computed from tcpu_ref = 10
/// fb.record(sample(10.1)); // ~0.3% smoothed move: no drift
/// assert!(fb.drifted().is_empty());
/// fb.record(sample(20.0)); // smoothed tcpu_ref jumps ≥ 5%
/// assert_eq!(fb.take_drifted(), vec![j]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeedbackLoop {
    store: ProfileStore,
    threshold: f64,
    drifted: BTreeSet<JobId>,
}

impl FeedbackLoop {
    /// A loop flagging drift at relative deviation ≥ `threshold`
    /// (the paper's §IV-B4 threshold is 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite.
    pub fn new(threshold: f64) -> Self {
        Self::with_store(ProfileStore::new(), threshold)
    }

    /// Wraps an existing store (e.g. profiles warmed elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite.
    pub fn with_store(store: ProfileStore, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "drift threshold must be finite and non-negative"
        );
        Self {
            store,
            threshold,
            drifted: BTreeSet::new(),
        }
    }

    /// The profiles accumulated so far.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// The drift threshold this loop flags at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Pins the scheduled basis of every listed job (no-op for unknown
    /// or cold jobs) and clears their pending drift flags: the schedule
    /// just computed reflects their current estimates.
    pub fn mark_scheduled(&mut self, jobs: impl IntoIterator<Item = JobId>) {
        for j in jobs {
            if let Some(p) = self.store.get(j) {
                if p.is_warm() {
                    self.store.entry(j).mark_scheduled();
                    self.drifted.remove(&j);
                }
            }
        }
    }

    /// Jobs currently flagged as drifted, in job-ID order.
    pub fn drifted(&self) -> Vec<JobId> {
        self.drifted.iter().copied().collect()
    }

    /// Drains the drifted set (in job-ID order) and clears each job's
    /// pinned basis, so one deviation triggers exactly one
    /// re-evaluation — the next [`FeedbackLoop::mark_scheduled`] arms
    /// the detector again.
    pub fn take_drifted(&mut self) -> Vec<JobId> {
        let out: Vec<JobId> = std::mem::take(&mut self.drifted).into_iter().collect();
        for &j in &out {
            self.store.entry(j).clear_scheduled_basis();
        }
        out
    }

    /// Removes a finished job's profile and any pending drift flag.
    pub fn forget(&mut self, job: JobId) {
        self.store.remove(job);
        self.drifted.remove(&job);
    }
}

impl ProfileSink for FeedbackLoop {
    fn record(&mut self, sample: IterationSample) {
        let threshold = self.threshold;
        let p = self.store.entry(sample.job);
        p.record(sample);
        if p.drift_from_basis().is_some_and(|d| d >= threshold) {
            self.drifted.insert(sample.job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(job: u64, tcpu: f64, tnet: f64) -> IterationSample {
        IterationSample {
            job: JobId::new(job),
            tcpu,
            tnet,
            density: 1.0,
            dop: 1,
        }
    }

    #[test]
    fn store_sink_creates_profiles_on_first_touch() {
        let mut store = ProfileStore::new();
        store.record(sample(3, 4.0, 1.0));
        let p = store.get(JobId::new(3)).unwrap();
        assert!(p.is_warm());
        assert_eq!(p.tcpu_at(1), 4.0);
    }

    #[test]
    fn profile_sink_folds_into_own_averages() {
        let mut p = JobProfile::new(JobId::new(9));
        p.record(IterationSample {
            job: JobId::new(9),
            tcpu: 6.0,
            tnet: 2.0,
            density: 0.4,
            dop: 2,
        });
        assert_eq!(p.tcpu_at(1), 12.0);
        assert_eq!(p.push_density(), 0.4);
    }

    #[test]
    fn unmarked_jobs_never_drift() {
        let mut fb = FeedbackLoop::new(0.05);
        fb.record(sample(0, 10.0, 2.0));
        fb.record(sample(0, 100.0, 2.0));
        assert!(fb.drifted().is_empty());
    }

    #[test]
    fn drift_fires_once_per_mark() {
        let mut fb = FeedbackLoop::new(0.05);
        fb.record(sample(0, 10.0, 2.0));
        fb.mark_scheduled([JobId::new(0)]);
        fb.record(sample(0, 20.0, 2.0));
        assert_eq!(fb.take_drifted(), vec![JobId::new(0)]);
        // The basis was cleared with the drain: further samples do not
        // re-flag until the next schedule pins a fresh basis.
        fb.record(sample(0, 40.0, 2.0));
        assert!(fb.take_drifted().is_empty());
        fb.mark_scheduled([JobId::new(0)]);
        fb.record(sample(0, 400.0, 2.0));
        assert_eq!(fb.take_drifted(), vec![JobId::new(0)]);
    }

    #[test]
    fn sub_threshold_noise_does_not_flag() {
        let mut fb = FeedbackLoop::new(0.05);
        fb.record(sample(1, 10.0, 2.0));
        fb.mark_scheduled([JobId::new(1)]);
        // alpha = 0.3: a 10% sample jump moves the smoothed value 3%.
        fb.record(sample(1, 11.0, 2.0));
        assert!(fb.drifted().is_empty());
    }

    #[test]
    fn tnet_drift_flags_too() {
        let mut fb = FeedbackLoop::new(0.05);
        fb.record(sample(2, 10.0, 2.0));
        fb.mark_scheduled([JobId::new(2)]);
        fb.record(sample(2, 10.0, 4.0)); // smoothed tnet +30%
        assert_eq!(fb.drifted(), vec![JobId::new(2)]);
    }

    #[test]
    fn drifted_set_is_job_id_ordered() {
        let mut fb = FeedbackLoop::new(0.0);
        for j in [5u64, 1, 3] {
            fb.record(sample(j, 10.0, 2.0));
        }
        fb.mark_scheduled([JobId::new(5), JobId::new(1), JobId::new(3)]);
        for j in [5u64, 1, 3] {
            fb.record(sample(j, 30.0, 2.0));
        }
        let ids: Vec<u64> = fb.take_drifted().iter().map(|j| j.index()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn forget_drops_profile_and_flag() {
        let mut fb = FeedbackLoop::new(0.0);
        fb.record(sample(0, 10.0, 2.0));
        fb.mark_scheduled([JobId::new(0)]);
        fb.record(sample(0, 30.0, 2.0));
        fb.forget(JobId::new(0));
        assert!(fb.drifted().is_empty());
        assert!(fb.store().is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn negative_threshold_is_rejected() {
        let _ = FeedbackLoop::new(-0.1);
    }
}
