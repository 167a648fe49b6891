//! Exact "Oracle" scheduler (§V-F).
//!
//! The evaluation compares Harmony's greedy heuristic to the ground
//! truth found by measuring *all possible* groupings. Eq. 4 is a
//! machine-weighted sum of per-group Eq. 3 terms and the score is linear
//! in it, so the best grouping decomposes over groups: a subset dynamic
//! program over (job set, machines) finds it exactly, at any machine
//! count, in O(3ⁿ·M²) instead of walking every set partition times
//! every machine composition. It stays exponential in the job count,
//! which is the paper's point: its oracle took ~10 hours on 4K jobs ×
//! 10K machines.

use crate::cluster::MachineId;
use crate::group::{GroupId, Grouping, JobGroup};
use crate::job::JobId;
use crate::model::{
    cluster_utilization_from_terms, group_iteration_time, group_utilization, Utilization,
};
use crate::profile::JobProfile;
use crate::schedule::{ScheduleOutcome, SchedulerConfig};

/// Exact scheduler used as evaluation ground truth.
#[derive(Debug, Clone, Default)]
pub struct OracleScheduler {
    cfg: SchedulerConfig,
}

/// The best split of one job set over exactly `m` machines: its Eq. 4
/// share, `Σ m_B·s(B, m_B) / M` over its blocks `B`, and the block that
/// holds the set's least job.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    score: f64,
    groups: u32,
    block: usize,
    machines: u32,
}

impl Split {
    /// Higher by more than 1e-12, or within 1e-12 with fewer groups.
    fn beats(&self, other: &Split) -> bool {
        self.score > other.score + 1e-12
            || (self.score > other.score - 1e-12 && self.groups < other.groups)
    }
}

impl OracleScheduler {
    /// Creates an oracle using `cfg`'s scoring weights.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self { cfg }
    }

    /// Maximum job count accepted: the search weighs 3ⁿ/2 (set, block)
    /// pairs, 265 720 at twelve jobs, each over every machine split.
    pub const MAX_JOBS: usize = 12;

    /// Finds the utilization-maximizing grouping of `jobs` over all
    /// `machines`. Ties within 1e-12 go to fewer groups. Groups come
    /// ordered by their least job, members ascending.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::MAX_JOBS`] jobs are given — the
    /// search is exponential in the job count, which is precisely the
    /// paper's point in §V-F.
    pub fn schedule(&self, jobs: &[JobProfile], machines: u32) -> ScheduleOutcome {
        assert!(
            jobs.len() <= Self::MAX_JOBS,
            "oracle search is limited to {} jobs (got {}); use Scheduler instead",
            Self::MAX_JOBS,
            jobs.len()
        );
        if jobs.is_empty() || machines == 0 {
            return ScheduleOutcome {
                grouping: Grouping::new(),
                utilization: Utilization::default(),
                unscheduled: jobs.iter().map(|p| p.job()).collect(),
                predicted_iteration: Vec::new(),
            };
        }

        let groups = self.best_split(jobs, machines);
        let mut grouping = Grouping::new();
        let mut next = 0u32;
        let mut terms = Vec::with_capacity(groups.len());
        let mut predicted = Vec::with_capacity(groups.len());
        for (gi, (profs, m)) in groups.iter().enumerate() {
            let ids: Vec<MachineId> = (next..next + m).map(MachineId::new).collect();
            next += m;
            terms.push((group_utilization(profs, *m), *m));
            predicted.push(group_iteration_time(profs, *m));
            let job_ids: Vec<JobId> = profs.iter().map(|p| p.job()).collect();
            grouping.push(JobGroup::new(GroupId::new(gi as u32), job_ids, ids));
        }
        ScheduleOutcome {
            grouping,
            utilization: cluster_utilization_from_terms(terms),
            unscheduled: Vec::new(),
            predicted_iteration: predicted,
        }
    }

    /// The best `(members, machines)` groups over every set partition of
    /// `jobs` and every split of `machines` among its blocks:
    ///
    /// `best(S, m) = max over B ∋ min(S), 1 ≤ m_B ≤ m (m_B = m exactly
    /// when B = S) of m_B·s(B, m_B)/M + best(S∖B, m − m_B)`,
    ///
    /// where `s(B, m)` is block `B`'s Eq. 3 score on `m` machines,
    /// computed once per `(B, m)`. Job `j` is bit `n − 1 − j`, so a
    /// set's least job is its top bit and, counting submasks down,
    /// blocks holding lower jobs are tried first, then fewer machines
    /// for the block, and the first of two tied candidates stays. That
    /// follows the order of a restricted-growth enumeration of
    /// partitions times lexicographic compositions, though exact ties
    /// between groupings of one size may still resolve differently.
    fn best_split<'a>(
        &self,
        jobs: &'a [JobProfile],
        machines: u32,
    ) -> Vec<(Vec<&'a JobProfile>, u32)> {
        let n = jobs.len();
        let big_m = machines as usize;
        let members = |set: usize| -> Vec<&'a JobProfile> {
            (0..n)
                .filter(|&j| set >> (n - 1 - j) & 1 == 1)
                .map(|j| &jobs[j])
                .collect()
        };
        let at = |set: usize, m: usize| set * big_m + m - 1;
        let mut share = vec![0.0; big_m << n];
        let mut best = vec![Split::default(); big_m << n];
        for set in 1..1usize << n {
            let profs = members(set);
            for m in 1..=machines {
                let s = group_utilization(&profs, m).score(self.cfg.cpu_weight);
                let i = at(set, m as usize);
                share[i] = f64::from(m) * s / f64::from(machines);
                best[i] = Split {
                    score: share[i],
                    groups: 1,
                    block: set,
                    machines: m,
                };
            }
            let lead = 1 << (usize::BITS - 1 - set.leading_zeros());
            let rest = set ^ lead;
            let mut sub = rest;
            while sub != 0 {
                sub = (sub - 1) & rest;
                let block = lead | sub;
                for m in 2..=big_m {
                    for k in 1..m {
                        let tail = best[at(set ^ block, m - k)];
                        let candidate = Split {
                            score: share[at(block, k)] + tail.score,
                            groups: 1 + tail.groups,
                            block,
                            machines: k as u32,
                        };
                        if candidate.beats(&best[at(set, m)]) {
                            best[at(set, m)] = candidate;
                        }
                    }
                }
            }
        }
        let mut groups = Vec::new();
        let (mut set, mut m) = ((1usize << n) - 1, big_m);
        while set != 0 {
            let Split {
                block, machines, ..
            } = best[at(set, m)];
            groups.push((members(block), machines));
            set ^= block;
            m -= machines as usize;
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::cluster_utilization;
    use crate::schedule::Scheduler;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    /// Calls `f` with every set partition of `idx..n` added to `groups`,
    /// members ascending, in restricted-growth order: item `idx` joins
    /// each existing block in turn, then opens a new one.
    fn for_each_partition(
        groups: &mut Vec<Vec<usize>>,
        idx: usize,
        n: usize,
        f: &mut impl FnMut(&[Vec<usize>]),
    ) {
        if idx == n {
            return f(groups);
        }
        for b in 0..=groups.len() {
            if b == groups.len() {
                groups.push(Vec::new());
            }
            groups[b].push(idx);
            for_each_partition(groups, idx + 1, n, f);
            groups[b].pop();
            groups.retain(|g| !g.is_empty());
        }
    }

    /// Calls `f` with every composition of `m` into `k` positive parts
    /// appended to `parts`, in lexicographic order.
    fn for_each_composition(m: u32, k: u32, parts: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        let first = if k == 1 { m } else { 1 };
        for part in first..=m.saturating_sub(k - 1) {
            parts.push(part);
            if k == 1 {
                f(parts);
            } else {
                for_each_composition(m - part, k - 1, parts, f);
            }
            parts.pop();
        }
    }

    /// `(groups as job indices, machines per group, utilization)`.
    type Found = (Vec<Vec<usize>>, Vec<u32>, Utilization);

    /// Exhaustive search with no budget: every set partition times
    /// every machine composition, each scored by a fresh
    /// [`cluster_utilization`]. Ties within 1e-12 go to fewer
    /// groups, then to the earlier candidate.
    fn brute_force(jobs: &[JobProfile], m: u32) -> Found {
        let w = SchedulerConfig::default().cpu_weight;
        let mut best: Option<(Found, f64)> = None;
        for_each_partition(&mut Vec::new(), 0, jobs.len(), &mut |groups| {
            let mut refs: Vec<(Vec<&JobProfile>, u32)> = groups
                .iter()
                .map(|members| (members.iter().map(|&i| &jobs[i]).collect(), 0))
                .collect();
            let k = groups.len() as u32;
            for_each_composition(m, k, &mut Vec::new(), &mut |alloc| {
                for (r, &m) in refs.iter_mut().zip(alloc) {
                    r.1 = m;
                }
                let u = cluster_utilization(&refs);
                let score = u.score(w);
                let better = best.as_ref().is_none_or(|((bg, ..), bs)| {
                    score > bs + 1e-12 || (score > bs - 1e-12 && groups.len() < bg.len())
                });
                if better {
                    best = Some(((groups.to_vec(), alloc.to_vec(), u), score));
                }
            });
        });
        best.expect("non-empty job set has partitions").0
    }

    /// `(groups as job indices, machines per group)` of an outcome.
    fn split_of(out: &ScheduleOutcome) -> (Vec<Vec<usize>>, Vec<u32>) {
        let groups = out.grouping.groups();
        let members = groups
            .iter()
            .map(|g| g.jobs().iter().map(|j| j.index() as usize).collect())
            .collect();
        (members, groups.iter().map(|g| g.dop()).collect())
    }

    /// The subset DP against the brute force. Distinct random profiles
    /// have a unique optimum: same grouping, allocation and utilization
    /// bits. Duplicate profiles tie exactly, so the grouping may
    /// legitimately differ: same score within 1e-12 and same group
    /// count. Instances with more than 200 000 compositions for one
    /// partition (n = 6 at M = 35, n = 5 at M = 50), where a budgeted
    /// search would stop being exact: same score.
    #[test]
    fn dp_matches_the_brute_force() {
        let w = SchedulerConfig::default().cpu_weight;
        let oracle = OracleScheduler::default();
        let mut rng = StdRng::seed_from_u64(29);
        let check = |case: usize, jobs: &[JobProfile], m: u32, unique: bool| {
            let out = oracle.schedule(jobs, m);
            let (groups, alloc, u) = brute_force(jobs, m);
            let tag = format!("case {case}: n {}, M {m}", jobs.len());
            if unique {
                assert_eq!(split_of(&out), (groups, alloc), "{tag}");
                assert_eq!(out.utilization.cpu.to_bits(), u.cpu.to_bits(), "{tag}: cpu");
                assert_eq!(out.utilization.net.to_bits(), u.net.to_bits(), "{tag}: net");
            } else {
                let gap = out.utilization.score(w) - u.score(w);
                assert!(gap.abs() <= 1e-12, "{tag}: score gap {gap:e}");
                assert_eq!(out.grouping.len(), groups.len(), "{tag}: group count");
            }
        };
        for case in 0..60 {
            let n = rng.gen_range(1..=7u64);
            let m = rng.gen_range(1..=16u32);
            let jobs: Vec<JobProfile> = if case % 2 == 0 {
                (0..n)
                    .map(|i| prof(i, rng.gen_range(0.5..20.0), rng.gen_range(0.1..10.0)))
                    .collect()
            } else {
                let kinds = [(8.0, 2.0), (2.0, 8.0), (5.0, 5.0)];
                (0..n)
                    .map(|i| {
                        let (cpu, net) = kinds[rng.gen_range(0..kinds.len())];
                        prof(i, cpu, net)
                    })
                    .collect()
            };
            check(case, &jobs, m, case % 2 == 0);
        }
        for (case, (n, m)) in [(6u64, 35u32), (5, 50)].into_iter().enumerate() {
            let jobs: Vec<JobProfile> = (0..n)
                .map(|i| prof(i, rng.gen_range(0.5..20.0), rng.gen_range(0.1..10.0)))
                .collect();
            check(60 + case, &jobs, m, false);
        }
    }

    #[test]
    fn oracle_finds_obviously_best_pairing() {
        // Two complementary pairs: oracle must co-locate (cpu, net) pairs.
        let jobs = vec![
            prof(0, 12.0, 2.0),
            prof(1, 2.0, 8.0),
            prof(2, 12.0, 2.0),
            prof(3, 2.0, 8.0),
        ];
        let out = OracleScheduler::default().schedule(&jobs, 4);
        // Mixed pairs at DoP 2 reach U = (0.7 cpu, 1.0 net): score 0.79.
        assert!(out.utilization.score(0.7) > 0.75, "{:?}", out.utilization);
        // Every group should mix a CPU-heavy with a net-heavy job.
        for g in out.grouping.groups() {
            if g.jobs().len() == 2 {
                let heavy = g.jobs().iter().filter(|j| j.index() % 2 == 0).count();
                assert_eq!(heavy, 1, "{}", out.grouping);
            }
        }
    }

    #[test]
    fn oracle_at_least_as_good_as_heuristic() {
        let jobs: Vec<JobProfile> = (0..6)
            .map(|i| prof(i, 4.0 + (i * 11 % 17) as f64, 1.0 + (i * 5 % 7) as f64))
            .collect();
        let machines = 8;
        let heuristic = Scheduler::default().schedule_exact(&jobs, machines);
        let oracle = OracleScheduler::default().schedule(&jobs, machines);
        assert!(
            oracle.utilization.score(0.7) >= heuristic.utilization.score(0.7) - 1e-9,
            "oracle {:?} vs heuristic {:?}",
            oracle.utilization,
            heuristic.utilization
        );
    }

    #[test]
    fn oracle_allocates_every_machine_at_most_once() {
        let jobs: Vec<JobProfile> = (0..4).map(|i| prof(i, 6.0, 3.0)).collect();
        let out = OracleScheduler::default().schedule(&jobs, 6);
        assert!(out.grouping.validate().is_ok());
        assert!(out.grouping.total_machines() <= 6);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oracle_rejects_large_job_sets() {
        let jobs: Vec<JobProfile> = (0..13).map(|i| prof(i, 1.0, 1.0)).collect();
        let _ = OracleScheduler::default().schedule(&jobs, 13);
    }

    #[test]
    fn oracle_empty_inputs() {
        let out = OracleScheduler::default().schedule(&[], 4);
        assert!(out.grouping.is_empty());
    }
}
