//! Profiled runtime metrics (§IV-B1).
//!
//! Harmony monitors each job `j` in each group `g` and collects the
//! runtime metrics `(Tcpu_j, Tnet_j, m_g)`: the average execution times
//! of its CPU and network subtasks and the number of machines allocated
//! to the group. Because the subtask execution model removes contention,
//! these metrics are stable and can be "meaningfully reused, while being
//! updated using moving averages".
//!
//! Internally we normalize every COMP observation to a *reference DoP of
//! one machine* using Eq. 2 (`Tcpu ∝ 1/m`), so the profile can predict
//! `Tcpu` at any candidate DoP.

use std::collections::BTreeMap;

use harmony_metrics::Ewma;

use crate::error::{Error, Result};
use crate::job::JobId;

/// Profiled metrics of one job.
///
/// # Examples
///
/// ```
/// use harmony_core::job::JobId;
/// use harmony_core::profile::JobProfile;
///
/// // Observed on 4 machines: 10 s of COMP, 3 s of COMM per iteration.
/// let mut p = JobProfile::new(JobId::new(0));
/// p.observe_iteration(10.0, 3.0, 4);
/// // Eq. 2 predicts COMP halves when the DoP doubles.
/// assert_eq!(p.tcpu_at(8), 5.0);
/// assert_eq!(p.tnet(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    job: JobId,
    /// COMP seconds per iteration normalized to DoP 1.
    tcpu_ref: Ewma,
    /// COMM (PULL+PUSH) seconds per iteration (DoP-invariant).
    tnet: Ewma,
    /// Server-side APPLY seconds per iteration (DoP-invariant: the
    /// stripes cover the whole model however many workers run). Cold
    /// when observations arrive through [`JobProfile::observe_iteration`],
    /// which predates the APPLY measurement.
    tapply: Ewma,
    /// Byte-weighted PUSH density relative to a dense push (`1.0` =
    /// fully dense wire, lower when the runtime ships coordinate-sparse
    /// deltas). Cold when observations arrive through
    /// [`JobProfile::observe_iteration`], which predates the
    /// measurement; a cold EWMA reads as dense.
    push_density: Ewma,
    /// `(tcpu_ref, tnet)` values the current schedule was computed with
    /// (pinned by [`JobProfile::mark_scheduled`]); drift is measured
    /// against these.
    scheduled_basis: Option<(f64, f64)>,
    /// DoP of the most recent observation.
    last_dop: u32,
    /// Total input bytes (for memory-pressure estimation).
    input_bytes: u64,
    /// Total model bytes (for memory-pressure estimation).
    model_bytes: u64,
    /// Number of iterations observed.
    observations: u64,
    /// Number of PUSH-density measurements folded into the density
    /// EWMA (see [`JobProfile::push_density_trusted`]).
    density_observations: u64,
}

impl JobProfile {
    /// Creates an empty profile for `job` with default smoothing.
    pub fn new(job: JobId) -> Self {
        Self {
            job,
            tcpu_ref: Ewma::default(),
            tnet: Ewma::default(),
            tapply: Ewma::default(),
            push_density: Ewma::default(),
            scheduled_basis: None,
            last_dop: 1,
            input_bytes: 0,
            model_bytes: 0,
            observations: 0,
            density_observations: 0,
        }
    }

    /// Creates a warm profile directly from reference metrics: `tcpu1`
    /// COMP seconds per iteration at DoP 1 and `tnet` COMM seconds.
    ///
    /// Convenient for tests and for synthetic scheduling workloads where
    /// the profile is known analytically.
    pub fn from_reference(job: JobId, tcpu1: f64, tnet: f64) -> Self {
        let mut p = Self::new(job);
        p.observe_iteration(tcpu1, tnet, 1);
        p
    }

    /// Records memory footprints used for spill/OOM estimation.
    pub fn set_memory_footprint(&mut self, input_bytes: u64, model_bytes: u64) {
        self.input_bytes = input_bytes;
        self.model_bytes = model_bytes;
    }

    /// Feeds one measured iteration: `tcpu` COMP seconds and `tnet` COMM
    /// seconds observed while the job ran at DoP `dop`.
    ///
    /// # Panics
    ///
    /// Panics if `dop` is zero or either duration is negative or
    /// non-finite. `+inf` would pass a plain `>= 0.0` check, the EWMAs
    /// would silently reject `inf * dop`, and the profile would end up
    /// "warm" by observation count with cold averages — a later
    /// [`JobProfile::tcpu_at`] would then panic far from the bad input.
    pub fn observe_iteration(&mut self, tcpu: f64, tnet: f64, dop: u32) {
        assert!(dop > 0, "DoP must be at least 1");
        assert!(
            tcpu.is_finite() && tnet.is_finite(),
            "durations must be finite"
        );
        assert!(tcpu >= 0.0 && tnet >= 0.0, "durations must be non-negative");
        self.tcpu_ref.observe(tcpu * f64::from(dop));
        self.tnet.observe(tnet);
        self.last_dop = dop;
        self.observations += 1;
    }

    /// Feeds one measured iteration including the server-side APPLY
    /// charge — the full `(tcpu, tnet, tapply, dop)` sample the closed
    /// profiling loop produces (`tapply` may legitimately be `0.0`,
    /// from a runtime that folds updates inside PUSH).
    ///
    /// # Panics
    ///
    /// Panics if `dop` is zero or any duration is negative or
    /// non-finite.
    pub fn observe_sample(&mut self, tcpu: f64, tnet: f64, tapply: f64, dop: u32) {
        assert!(
            tapply.is_finite() && tapply >= 0.0,
            "durations must be finite and non-negative"
        );
        self.observe_iteration(tcpu, tnet, dop);
        self.tapply.observe(tapply);
    }

    /// Feeds one iteration's measured PUSH density: bytes actually
    /// pushed divided by the dense wire volume for the same iteration
    /// (`1.0` for a dense push, `0.0` for an empty one).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `[0.0, 1.0]` — the sparse runtime
    /// never sends more than the dense arm would.
    pub fn observe_push_density(&mut self, density: f64) {
        assert!(
            density.is_finite() && (0.0..=1.0).contains(&density),
            "push density must be in [0, 1]"
        );
        self.push_density.observe(density);
        self.density_observations += 1;
    }

    /// Smoothed PUSH density, `1.0` when no density observation has
    /// been folded in (cold EWMA) — a wire of unknown shape is charged
    /// as dense, so profiles that predate the measurement schedule
    /// exactly as before.
    pub fn push_density(&self) -> f64 {
        self.push_density.value().unwrap_or(1.0)
    }

    /// Density measurements folded in so far.
    pub fn density_observations(&self) -> u64 {
        self.density_observations
    }

    /// Measurements required before
    /// [`JobProfile::push_density_trusted`] stops reporting dense: at
    /// the EWMA's default smoothing a single early outlier (a warm-up
    /// iteration pushing a nearly-empty delta, say) still dominates the
    /// average, and a scheduler that believed it would hand the job too
    /// few COMM machines. Eight samples decay a lone outlier below the
    /// 5% improvement threshold the rest of the pipeline uses.
    pub const DENSITY_TRUST_ITERS: u64 = 8;

    /// The smoothed PUSH density once at least
    /// [`Self::DENSITY_TRUST_ITERS`] measurements back it, `1.0`
    /// (dense) before that. This is the value every Eq. 1 pricing site
    /// reads (`SchedulerConfig::charge_sparse_comm`): a cold or
    /// young profile is *never under-charged* — its wire is priced
    /// dense until the EWMA has converged on the measured shape.
    pub fn push_density_trusted(&self) -> f64 {
        if self.density_observations >= Self::DENSITY_TRUST_ITERS {
            self.push_density()
        } else {
            1.0
        }
    }

    /// Pins the current smoothed `(tcpu_ref, tnet)` as the basis the
    /// schedule now in force was computed with; subsequent
    /// [`JobProfile::drift_from_basis`] calls measure against it. A cold
    /// profile has nothing to pin, so the call is a no-op.
    pub fn mark_scheduled(&mut self) {
        if let (Some(c), Some(n)) = (self.tcpu_ref.value(), self.tnet.value()) {
            self.scheduled_basis = Some((c, n));
        }
    }

    /// The `(tcpu_ref, tnet)` basis pinned by the last
    /// [`JobProfile::mark_scheduled`], if any.
    pub fn scheduled_basis(&self) -> Option<(f64, f64)> {
        self.scheduled_basis
    }

    /// Forgets the pinned basis (used once a drift has been acted on, so
    /// one deviation triggers exactly one re-evaluation).
    pub fn clear_scheduled_basis(&mut self) {
        self.scheduled_basis = None;
    }

    /// Largest relative deviation of the smoothed `tcpu_ref`/`tnet` from
    /// the pinned basis, or `None` when no basis is pinned.
    ///
    /// This is the §IV-B4 re-evaluation signal: compare against the
    /// scheduler's `improvement_threshold` (5% by default) to decide
    /// whether the schedule was computed from estimates that no longer
    /// hold.
    pub fn drift_from_basis(&self) -> Option<f64> {
        let (c, n) = self.scheduled_basis?;
        let dc = self.tcpu_ref.relative_deviation_from(c)?;
        let dn = self.tnet.relative_deviation_from(n)?;
        Some(dc.max(dn))
    }

    /// The job this profile belongs to.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Whether enough observations exist to schedule from this profile.
    pub fn is_warm(&self) -> bool {
        self.observations > 0
    }

    /// Number of iterations folded into the moving averages.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// DoP at which the job was most recently observed.
    pub fn last_dop(&self) -> u32 {
        self.last_dop
    }

    /// Predicted COMP time per iteration at DoP `m` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or the profile is cold.
    pub fn tcpu_at(&self, m: u32) -> f64 {
        assert!(m > 0, "DoP must be at least 1");
        self.tcpu_ref
            .value()
            .expect("profile has no observations yet")
            / f64::from(m)
    }

    /// Measured COMM time per iteration (independent of DoP).
    ///
    /// # Panics
    ///
    /// Panics if the profile is cold.
    pub fn tnet(&self) -> f64 {
        self.tnet.value().expect("profile has no observations yet")
    }

    /// Measured server-side APPLY time per iteration, `0.0` when no
    /// APPLY observation has been folded in (cold EWMA) — the paper's
    /// model charges APPLY inside PUSH, so absence is a valid state, not
    /// an error like a cold `tnet`.
    pub fn tapply(&self) -> f64 {
        self.tapply.value().unwrap_or(0.0)
    }

    /// Predicted single-job iteration time at DoP `m`:
    /// `Tj_itr = Tcpu(m) + Tnet`.
    pub fn iter_time_at(&self, m: u32) -> f64 {
        self.tcpu_at(m) + self.tnet()
    }

    /// Computation-to-communication ratio at DoP `m`, used by the
    /// regrouping similarity test (§IV-B4).
    pub fn comp_comm_ratio_at(&self, m: u32) -> f64 {
        self.tcpu_at(m) / self.tnet()
    }

    /// Total input bytes of the job.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Total model bytes of the job.
    pub fn model_bytes(&self) -> u64 {
        self.model_bytes
    }
}

/// The master's catalog of job profiles.
///
/// Deterministically ordered (BTreeMap) so scheduling decisions are
/// reproducible run to run.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    profiles: BTreeMap<JobId, JobProfile>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a profile, returning the previous one if any.
    pub fn insert(&mut self, profile: JobProfile) -> Option<JobProfile> {
        self.profiles.insert(profile.job(), profile)
    }

    /// Looks up a profile.
    pub fn get(&self, job: JobId) -> Option<&JobProfile> {
        self.profiles.get(&job)
    }

    /// Looks up a profile, returning [`Error::UnknownJob`] when missing.
    pub fn require(&self, job: JobId) -> Result<&JobProfile> {
        self.profiles.get(&job).ok_or(Error::UnknownJob(job))
    }

    /// Mutable lookup, creating a cold profile on first touch.
    pub fn entry(&mut self, job: JobId) -> &mut JobProfile {
        self.profiles
            .entry(job)
            .or_insert_with(|| JobProfile::new(job))
    }

    /// Removes a profile (e.g., when the job finishes).
    pub fn remove(&mut self, job: JobId) -> Option<JobProfile> {
        self.profiles.remove(&job)
    }

    /// Number of profiles stored.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates profiles in job-ID order.
    pub fn iter(&self) -> impl Iterator<Item = &JobProfile> {
        self.profiles.values()
    }
}

impl FromIterator<JobProfile> for ProfileStore {
    fn from_iter<T: IntoIterator<Item = JobProfile>>(iter: T) -> Self {
        let mut store = Self::new();
        for p in iter {
            store.insert(p);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_normalizes_to_reference_dop() {
        let mut p = JobProfile::new(JobId::new(1));
        p.observe_iteration(20.0, 4.0, 2); // 40 CPU-seconds at DoP 1
        assert_eq!(p.tcpu_at(1), 40.0);
        assert_eq!(p.tcpu_at(4), 10.0);
        assert_eq!(p.tnet(), 4.0);
        assert_eq!(p.last_dop(), 2);
    }

    #[test]
    fn moving_average_smooths_noise() {
        let mut p = JobProfile::from_reference(JobId::new(2), 100.0, 10.0);
        for _ in 0..100 {
            p.observe_iteration(50.0, 5.0, 1);
        }
        assert!((p.tcpu_at(1) - 50.0).abs() < 1.0);
        assert!((p.tnet() - 5.0).abs() < 0.1);
    }

    #[test]
    fn iter_time_and_ratio() {
        let p = JobProfile::from_reference(JobId::new(3), 60.0, 10.0);
        assert_eq!(p.iter_time_at(2), 40.0);
        assert_eq!(p.comp_comm_ratio_at(2), 3.0);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn cold_profile_panics_on_read() {
        let p = JobProfile::new(JobId::new(4));
        let _ = p.tnet();
    }

    #[test]
    fn observation_counts_and_warmth() {
        let mut p = JobProfile::new(JobId::new(5));
        assert!(!p.is_warm());
        p.observe_iteration(1.0, 1.0, 1);
        assert!(p.is_warm());
        assert_eq!(p.observations(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_tcpu_is_rejected() {
        // Regression: `+inf` passes `>= 0.0`, the EWMA silently drops
        // `inf * dop`, and the profile used to end up warm-by-count with
        // cold averages — poisoning `tcpu_at` far from the bad input.
        let mut p = JobProfile::new(JobId::new(40));
        p.observe_iteration(f64::INFINITY, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_tnet_is_rejected() {
        let mut p = JobProfile::new(JobId::new(41));
        p.observe_iteration(1.0, f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_tapply_is_rejected() {
        let mut p = JobProfile::new(JobId::new(42));
        p.observe_sample(1.0, 1.0, f64::NEG_INFINITY, 1);
    }

    #[test]
    fn rejected_sample_leaves_profile_cold() {
        let mut p = JobProfile::new(JobId::new(43));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.observe_iteration(f64::INFINITY, 1.0, 1);
        }));
        assert!(poisoned.is_err());
        // The count and the averages stay in sync: still cold.
        assert!(!p.is_warm());
        assert_eq!(p.observations(), 0);
    }

    #[test]
    fn observe_sample_folds_apply_charge() {
        let mut p = JobProfile::new(JobId::new(44));
        assert_eq!(p.tapply(), 0.0); // cold APPLY reads as absent
        p.observe_sample(10.0, 3.0, 0.5, 2);
        assert_eq!(p.tcpu_at(1), 20.0);
        assert_eq!(p.tnet(), 3.0);
        assert_eq!(p.tapply(), 0.5);
        // Plain observe_iteration keeps the APPLY average untouched.
        p.observe_iteration(10.0, 3.0, 2);
        assert_eq!(p.tapply(), 0.5);
    }

    #[test]
    fn push_density_is_dense_until_observed() {
        let mut p = JobProfile::from_reference(JobId::new(50), 10.0, 2.0);
        assert_eq!(p.push_density(), 1.0); // cold reads as dense
        p.observe_push_density(0.2);
        assert_eq!(p.push_density(), 0.2);
        for _ in 0..100 {
            p.observe_push_density(0.5);
        }
        assert!((p.push_density() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn trusted_density_stays_dense_until_enough_measurements() {
        let mut p = JobProfile::from_reference(JobId::new(53), 10.0, 2.0);
        assert_eq!(p.push_density_trusted(), 1.0);
        // One wildly sparse outlier, then steady measurements: the
        // trusted value stays dense through the whole warm-up...
        p.observe_push_density(0.01);
        for _ in 1..JobProfile::DENSITY_TRUST_ITERS - 1 {
            p.observe_push_density(0.4);
            assert_eq!(
                p.push_density_trusted(),
                1.0,
                "under-charged at {} observations",
                p.density_observations()
            );
        }
        // ...and flips to the smoothed estimate at exactly K samples.
        p.observe_push_density(0.4);
        assert_eq!(p.density_observations(), JobProfile::DENSITY_TRUST_ITERS);
        assert_eq!(p.push_density_trusted(), p.push_density());
        assert!(p.push_density_trusted() < 1.0);
    }

    #[test]
    #[should_panic(expected = "push density")]
    fn push_density_above_one_is_rejected() {
        let mut p = JobProfile::new(JobId::new(51));
        p.observe_push_density(1.5);
    }

    #[test]
    #[should_panic(expected = "push density")]
    fn non_finite_push_density_is_rejected() {
        let mut p = JobProfile::new(JobId::new(52));
        p.observe_push_density(f64::NAN);
    }

    #[test]
    fn drift_is_measured_against_scheduled_basis() {
        let mut p = JobProfile::from_reference(JobId::new(45), 10.0, 2.0);
        assert_eq!(p.drift_from_basis(), None); // nothing pinned yet
        p.mark_scheduled();
        assert_eq!(p.scheduled_basis(), Some((10.0, 2.0)));
        assert_eq!(p.drift_from_basis(), Some(0.0));
        // alpha = 0.3: one 50% jump moves the smoothed tcpu_ref 15%.
        p.observe_iteration(15.0, 2.0, 1);
        let d = p.drift_from_basis().unwrap();
        assert!((d - 0.15).abs() < 1e-12, "drift was {d}");
        p.clear_scheduled_basis();
        assert_eq!(p.drift_from_basis(), None);
    }

    #[test]
    fn mark_scheduled_on_cold_profile_is_noop() {
        let mut p = JobProfile::new(JobId::new(46));
        p.mark_scheduled();
        assert_eq!(p.scheduled_basis(), None);
    }

    #[test]
    fn store_roundtrip() {
        let mut store = ProfileStore::new();
        assert!(store.is_empty());
        store.insert(JobProfile::from_reference(JobId::new(0), 1.0, 1.0));
        store.insert(JobProfile::from_reference(JobId::new(1), 2.0, 1.0));
        assert_eq!(store.len(), 2);
        assert!(store.get(JobId::new(0)).is_some());
        assert!(store.require(JobId::new(9)).is_err());
        store.remove(JobId::new(0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_entry_creates_cold_profile() {
        let mut store = ProfileStore::new();
        store.entry(JobId::new(7)).observe_iteration(3.0, 1.0, 1);
        assert!(store.get(JobId::new(7)).unwrap().is_warm());
    }

    #[test]
    fn store_iterates_in_id_order() {
        let store: ProfileStore = [3u64, 1, 2]
            .into_iter()
            .map(|i| JobProfile::from_reference(JobId::new(i), 1.0, 1.0))
            .collect();
        let ids: Vec<u64> = store.iter().map(|p| p.job().index()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn memory_footprint_roundtrip() {
        let mut p = JobProfile::new(JobId::new(8));
        p.set_memory_footprint(100, 50);
        assert_eq!(p.input_bytes(), 100);
        assert_eq!(p.model_bytes(), 50);
    }
}
