//! The two baseline schedulers of §V-A.
//!
//! - [`IsolatedScheduler`]: every job runs on its own disjoint set of
//!   machines (the approach of Optimus and SLAQ). The DoP per job is
//!   chosen to keep CPU the bottleneck ("we try to maximize the CPU
//!   utilization rates … by reducing the network overheads that occur
//!   with lower DoP"), then leftover machines are distributed by
//!   marginal iteration-time gain so the cluster is never idled on
//!   purpose.
//! - [`NaiveColocationScheduler`]: jobs share machine pools with no
//!   subtask coordination and no model-driven matching (the Gandiva-like
//!   baseline). Different random placements produce very different
//!   performance, so the evaluation enumerates seeds and reports
//!   best/worst.

use crate::cluster::MachineId;
use crate::group::{GroupId, Grouping, JobGroup};
use crate::keyed::{splitmix64, GOLDEN_GAMMA};
use crate::profile::JobProfile;

/// Dedicated-resource baseline: one group per job.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolatedScheduler;

impl IsolatedScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        Self
    }

    /// The "knee" DoP for one job: the largest machine count at which
    /// the job is still CPU-bound (`Tcpu(m) >= Tnet`), i.e. extra
    /// machines past this point mostly idle the CPU.
    pub fn knee_dop(profile: &JobProfile, max_m: u32) -> u32 {
        Self::knee_dop_with_factor(profile, max_m, 1.0)
    }

    /// Like [`IsolatedScheduler::knee_dop`] but requiring
    /// `Tcpu(m) >= factor * Tnet`: larger factors choose lower DoPs and
    /// higher CPU utilization ("we try to maximize the CPU utilization
    /// rates … by reducing the network overheads that occur with lower
    /// DoP", §V-A).
    pub fn knee_dop_with_factor(profile: &JobProfile, max_m: u32, factor: f64) -> u32 {
        let tcpu1 = profile.tcpu_at(1);
        let tnet = profile.tnet();
        if tnet <= 0.0 {
            return max_m.max(1);
        }
        let knee = (tcpu1 / (factor * tnet)).floor() as u32;
        knee.clamp(1, max_m.max(1))
    }

    /// Allocates `machines` machines across `jobs`, FIFO: each job gets
    /// its knee DoP while machines remain; leftover machines go to the
    /// job with the greatest marginal iteration-time reduction. Jobs
    /// that receive no machine are left out of the grouping (they wait).
    pub fn allocate(&self, jobs: &[JobProfile], machines: u32) -> Grouping {
        let mut grouping = Grouping::new();
        if machines == 0 || jobs.is_empty() {
            return grouping;
        }
        let mut remaining = machines;
        let mut dops: Vec<u32> = Vec::new();
        let mut admitted: Vec<&JobProfile> = Vec::new();
        for p in jobs {
            if remaining == 0 {
                break;
            }
            let want = Self::knee_dop(p, remaining);
            let got = want.min(remaining);
            admitted.push(p);
            dops.push(got);
            remaining -= got;
        }
        // Spread leftover machines by marginal gain in iteration time.
        while remaining > 0 && !admitted.is_empty() {
            let gi = (0..admitted.len())
                .max_by(|&a, &b| {
                    let gain = |i: usize| {
                        let p = admitted[i];
                        p.iter_time_at(dops[i]) - p.iter_time_at(dops[i] + 1)
                    };
                    gain(a).total_cmp(&gain(b))
                })
                .expect("non-empty");
            dops[gi] += 1;
            remaining -= 1;
        }
        let mut next = 0u32;
        for (gi, (p, m)) in admitted.iter().zip(&dops).enumerate() {
            let ids: Vec<MachineId> = (next..next + m).map(MachineId::new).collect();
            next += m;
            grouping.push(JobGroup::new(GroupId::new(gi as u32), vec![p.job()], ids));
        }
        debug_assert!(grouping.validate().is_ok());
        grouping
    }
}

/// Uncoordinated-sharing baseline.
#[derive(Debug, Clone, Copy)]
pub struct NaiveColocationScheduler {
    /// How many jobs are packed per shared pool.
    pub jobs_per_group: usize,
}

impl Default for NaiveColocationScheduler {
    fn default() -> Self {
        Self { jobs_per_group: 3 }
    }
}

impl NaiveColocationScheduler {
    /// Creates a naive scheduler that packs `jobs_per_group` jobs per
    /// shared machine pool.
    ///
    /// # Panics
    ///
    /// Panics if `jobs_per_group` is zero.
    pub fn new(jobs_per_group: usize) -> Self {
        assert!(jobs_per_group > 0, "jobs_per_group must be non-zero");
        Self { jobs_per_group }
    }

    /// Packs `jobs` into groups of `jobs_per_group` in submission order
    /// (or in a seeded random order when `shuffle_seed` is given, so the
    /// evaluation can sample best/worst placements), splitting machines
    /// evenly.
    pub fn allocate(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        shuffle_seed: Option<u64>,
    ) -> Grouping {
        let mut grouping = Grouping::new();
        if jobs.is_empty() || machines == 0 {
            return grouping;
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        if let Some(seed) = shuffle_seed {
            shuffle(&mut order, seed);
        }
        let ng = jobs
            .len()
            .div_ceil(self.jobs_per_group)
            .min(machines as usize);
        let base = machines / ng as u32;
        let extra = machines % ng as u32;
        let mut next = 0u32;
        for gi in 0..ng {
            let m = base + u32::from((gi as u32) < extra);
            let ids: Vec<MachineId> = (next..next + m).map(MachineId::new).collect();
            next += m;
            let members: Vec<_> = order
                .iter()
                .skip(gi)
                .step_by(ng)
                .map(|&i| jobs[i].job())
                .collect();
            grouping.push(JobGroup::new(GroupId::new(gi as u32), members, ids));
        }
        grouping.prune_empty();
        debug_assert!(grouping.validate().is_ok());
        grouping
    }
}

/// Deterministic Fisher–Yates shuffle from a 64-bit seed (splitmix64
/// stream), so baseline placements are reproducible without a `rand`
/// dependency.
fn shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed.wrapping_add(GOLDEN_GAMMA);
    let mut next = move || {
        state = state.wrapping_add(GOLDEN_GAMMA);
        splitmix64(state)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    #[test]
    fn knee_dop_keeps_cpu_bound() {
        let p = prof(0, 40.0, 5.0);
        let m = IsolatedScheduler::knee_dop(&p, 100);
        assert_eq!(m, 8);
        assert!(p.tcpu_at(m) >= p.tnet());
        assert!(p.tcpu_at(m + 1) < p.tnet());
    }

    #[test]
    fn knee_dop_is_clamped() {
        let p = prof(0, 1.0, 100.0); // hopelessly net-bound
        assert_eq!(IsolatedScheduler::knee_dop(&p, 10), 1);
        let p = prof(1, 1000.0, 1.0);
        assert_eq!(IsolatedScheduler::knee_dop(&p, 10), 10);
    }

    #[test]
    fn isolated_gives_each_job_its_own_machines() {
        let jobs: Vec<JobProfile> = (0..3).map(|i| prof(i, 20.0, 5.0)).collect();
        let g = IsolatedScheduler::new().allocate(&jobs, 16);
        assert_eq!(g.len(), 3);
        assert_eq!(g.total_machines(), 16); // leftovers spread
        assert!(g.validate().is_ok());
        for grp in g.groups() {
            assert_eq!(grp.jobs().len(), 1);
        }
    }

    #[test]
    fn isolated_queues_jobs_when_machines_run_out() {
        let jobs: Vec<JobProfile> = (0..10).map(|i| prof(i, 30.0, 10.0)).collect();
        let g = IsolatedScheduler::new().allocate(&jobs, 6);
        assert!(g.len() < 10);
        assert_eq!(g.total_machines(), 6);
    }

    #[test]
    fn naive_packs_jobs_per_group() {
        let jobs: Vec<JobProfile> = (0..6).map(|i| prof(i, 10.0, 2.0)).collect();
        let g = NaiveColocationScheduler::new(2).allocate(&jobs, 12, None);
        assert_eq!(g.len(), 3);
        assert_eq!(g.total_jobs(), 6);
        assert_eq!(g.total_machines(), 12);
    }

    #[test]
    fn naive_shuffle_is_deterministic_per_seed() {
        let jobs: Vec<JobProfile> = (0..9).map(|i| prof(i, 10.0, 2.0)).collect();
        let s = NaiveColocationScheduler::default();
        let a = s.allocate(&jobs, 9, Some(42));
        let b = s.allocate(&jobs, 9, Some(42));
        let c = s.allocate(&jobs, 9, Some(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn naive_handles_more_groups_than_machines() {
        let jobs: Vec<JobProfile> = (0..8).map(|i| prof(i, 10.0, 2.0)).collect();
        let g = NaiveColocationScheduler::new(1).allocate(&jobs, 4, None);
        assert!(g.len() <= 4);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn naive_rejects_zero_pack() {
        let _ = NaiveColocationScheduler::new(0);
    }
}
