//! Admission-control accounting for open-loop arrivals.
//!
//! Under open-loop traffic the master does not have to accept every
//! arriving job on the spot: an OASiS-style admission layer (PAPERS.md)
//! may *admit* it immediately, *defer* it for a bounded re-offer
//! interval, or *reject* it outright when the cluster cannot host it
//! profitably. This module keeps the books for those decisions so the
//! acceptance matrix can assert they balance — every offered job is
//! eventually admitted, rejected or withdrawn, and nothing admitted is
//! lost.

use crate::Hist;

/// Counters and distributions for admission-control decisions.
///
/// A job is *offered* each time the admission layer looks at it — once
/// on arrival and once per re-offer after a deferral. Exactly one of
/// `admitted`/`rejected`/`withdrawn` is bumped per job over its
/// lifetime, while `deferred` counts deferral *events* (a single job
/// may defer several times before being admitted). `forced` is the
/// subset of admissions taken by the starvation guard after the
/// deferral budget ran out.
///
/// # Examples
///
/// ```
/// use harmony_metrics::AdmissionStats;
///
/// let mut a = AdmissionStats::new();
/// a.defer();
/// a.admit(30.0); // admitted on re-offer, 30 s after arrival
/// a.reject();
/// assert_eq!(a.admitted, 1);
/// assert_eq!(a.deferred, 1);
/// assert_eq!(a.rejected, 1);
/// assert_eq!(a.decided(), 2);
/// assert_eq!(a.queue_wait.mean(), Some(30.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionStats {
    /// Jobs admitted into the cluster (including forced admissions).
    pub admitted: u64,
    /// Deferral events: offers answered with "come back later".
    pub deferred: u64,
    /// Jobs rejected outright (terminal — never scheduled).
    pub rejected: u64,
    /// Admissions forced by the starvation guard after the job
    /// exhausted its deferral budget. Always `<= admitted`.
    pub forced: u64,
    /// Offers that died undecided: the job went terminal while still
    /// queued (deferred, or not yet arrived) — e.g. killed by a
    /// fault-plan abort — so it was neither admitted nor rejected.
    pub withdrawn: u64,
    /// Seconds from first offer (arrival) to admission, per admitted
    /// job. Zero for jobs admitted on their first offer.
    pub queue_wait: Hist,
}

impl AdmissionStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            admitted: 0,
            deferred: 0,
            rejected: 0,
            forced: 0,
            withdrawn: 0,
            queue_wait: Hist::new(),
        }
    }

    /// Records a job admitted `wait_secs` after it first arrived.
    pub fn admit(&mut self, wait_secs: f64) {
        self.admitted += 1;
        self.queue_wait.observe(wait_secs);
    }

    /// Records an admission taken by the starvation guard rather than
    /// the policy (deferral budget exhausted).
    pub fn admit_forced(&mut self, wait_secs: f64) {
        self.forced += 1;
        self.admit(wait_secs);
    }

    /// Records one deferral event.
    pub fn defer(&mut self) {
        self.deferred += 1;
    }

    /// Records a job rejected outright.
    pub fn reject(&mut self) {
        self.rejected += 1;
    }

    /// Records an offer that died before any terminal decision.
    pub fn withdraw(&mut self) {
        self.withdrawn += 1;
    }

    /// Jobs that received a terminal admission decision.
    pub fn decided(&self) -> u64 {
        self.admitted + self.rejected
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.admitted += other.admitted;
        self.deferred += other.deferred;
        self.rejected += other.rejected;
        self.forced += other.forced;
        self.withdrawn += other.withdrawn;
        self.queue_wait.merge(&other.queue_wait);
    }
}

impl Default for AdmissionStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let a = AdmissionStats::new();
        assert_eq!(a.admitted, 0);
        assert_eq!(a.deferred, 0);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.forced, 0);
        assert_eq!(a.withdrawn, 0);
        assert_eq!(a.decided(), 0);
        assert!(a.queue_wait.is_empty());
    }

    #[test]
    fn admit_records_queue_wait() {
        let mut a = AdmissionStats::new();
        a.admit(0.0);
        a.admit(60.0);
        assert_eq!(a.admitted, 2);
        assert_eq!(a.queue_wait.count(), 2);
        assert_eq!(a.queue_wait.mean(), Some(30.0));
        assert_eq!(a.queue_wait.max(), Some(60.0));
    }

    #[test]
    fn forced_admissions_count_as_admissions() {
        let mut a = AdmissionStats::new();
        a.defer();
        a.defer();
        a.admit_forced(90.0);
        assert_eq!(a.admitted, 1);
        assert_eq!(a.forced, 1);
        assert_eq!(a.deferred, 2);
        assert!(a.forced <= a.admitted);
    }

    #[test]
    fn decided_excludes_deferrals() {
        let mut a = AdmissionStats::new();
        a.defer();
        a.reject();
        a.admit(10.0);
        assert_eq!(a.decided(), 2);
    }

    #[test]
    fn withdrawn_offers_are_not_decisions() {
        let mut a = AdmissionStats::new();
        a.defer();
        a.withdraw();
        a.admit(5.0);
        assert_eq!(a.withdrawn, 1);
        assert_eq!(a.decided(), 1);
    }

    #[test]
    fn merge_adds_counts_and_distributions() {
        let mut a = AdmissionStats::new();
        a.admit(10.0);
        let mut b = AdmissionStats::new();
        b.admit(30.0);
        b.reject();
        b.defer();
        b.withdraw();
        a.merge(&b);
        assert_eq!(a.withdrawn, 1);
        assert_eq!(a.admitted, 2);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.deferred, 1);
        assert_eq!(a.queue_wait.mean(), Some(20.0));
    }
}
