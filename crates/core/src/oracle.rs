//! Exhaustive-search "Oracle" scheduler (§V-F).
//!
//! The evaluation compares Harmony's greedy heuristic to the ground
//! truth found by measuring *all possible* groupings. We enumerate every
//! set partition of the job list (Bell-number growth) and, for each
//! partition, every machine allocation when the composition space is
//! small (falling back to the same greedy machine allocation the
//! scheduler uses once the space exceeds a search budget — the paper's
//! oracle, too, is only tractable on small instances: 4K jobs × 10K
//! machines already took ~10 hours).

use crate::cluster::MachineId;
use crate::group::{GroupId, Grouping, JobGroup};
use crate::job::JobId;
use crate::model::{cluster_utilization_from_terms, group_utilization, Utilization};
use crate::profile::JobProfile;
use crate::schedule::{ScheduleOutcome, SchedulerConfig};

/// Best partition found so far: `(groups as job indices, machines per
/// group, utilization, score)`.
type BestPartition = (Vec<Vec<usize>>, Vec<u32>, Utilization, f64);

/// Exhaustive-search scheduler used as evaluation ground truth.
#[derive(Debug, Clone)]
pub struct OracleScheduler {
    cfg: SchedulerConfig,
    /// Maximum machine-composition states explored per partition before
    /// falling back to greedy machine allocation.
    composition_budget: usize,
}

impl Default for OracleScheduler {
    fn default() -> Self {
        Self {
            cfg: SchedulerConfig::default(),
            composition_budget: 200_000,
        }
    }
}

impl OracleScheduler {
    /// Creates an oracle using `cfg`'s scoring weights.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            cfg,
            composition_budget: 200_000,
        }
    }

    /// Maximum job count accepted (Bell(12) ≈ 4.2M partitions).
    pub const MAX_JOBS: usize = 12;

    /// Finds the utilization-maximizing grouping by exhaustive search.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::MAX_JOBS`] jobs are given — the
    /// partition space would be intractable, which is precisely the
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

        let (groups, alloc, utilization, _) = self.search(jobs, machines);

        let mut grouping = Grouping::new();
        let mut next = 0u32;
        let mut predicted = Vec::new();
        for (gi, (members, m)) in groups.iter().zip(&alloc).enumerate() {
            let ids: Vec<MachineId> = (next..next + m).map(MachineId::new).collect();
            next += m;
            let job_ids: Vec<JobId> = members.iter().map(|&i| jobs[i].job()).collect();
            let profs: Vec<&JobProfile> = members.iter().map(|&i| &jobs[i]).collect();
            predicted.push(crate::model::group_iteration_time(&profs, *m));
            grouping.push(JobGroup::new(GroupId::new(gi as u32), job_ids, ids));
        }
        ScheduleOutcome {
            grouping,
            utilization,
            unscheduled: Vec::new(),
            predicted_iteration: predicted,
        }
    }

    /// The utilization-maximizing `(groups, allocation)` over every set
    /// partition of `jobs` into at most `machines` groups.
    fn search(&self, jobs: &[JobProfile], machines: u32) -> BestPartition {
        let mut best = None;
        for_each_partition(jobs.len(), machines, &mut |groups| {
            self.evaluate_partition(jobs, machines, groups, &mut best);
        });
        best.expect("non-empty job set has partitions")
    }

    /// Scores every composition of `machines` over `groups`, in
    /// lexicographic order, or the greedy allocation alone once there
    /// are more than the budget. A group's Eq. 3 term depends only on
    /// its machine count, so it is computed once per `(group, m)` and
    /// folded with [`cluster_utilization_from_terms`], which makes each
    /// score bit-identical to [`crate::model::cluster_utilization`]
    /// over the same allocation. Ties within 1e-12 go to fewer groups,
    /// then to the earlier candidate.
    fn evaluate_partition(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        groups: &[Vec<usize>],
        best: &mut Option<BestPartition>,
    ) {
        let ng = groups.len();
        let members: Vec<Vec<&JobProfile>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| &jobs[i]).collect())
            .collect();
        // The largest part a composition gives one group.
        let span = machines as usize - ng + 1;
        let enumerate = composition_count(machines, ng as u32) <= self.composition_budget as u128;
        let mut alloc = if enumerate {
            let mut first = vec![1u32; ng];
            first[ng - 1] = span as u32;
            first
        } else {
            greedy_alloc(jobs, groups, machines)
        };
        // The greedy fallback scores one allocation and caches nothing.
        let mut terms = vec![None; if enumerate { ng * span } else { 0 }];
        loop {
            let u = cluster_utilization_from_terms(alloc.iter().enumerate().map(|(g, &m)| {
                let fresh = || group_utilization(&members[g], m);
                let term = match terms.get_mut(g * span + m as usize - 1) {
                    Some(t) => *t.get_or_insert_with(fresh),
                    None => fresh(),
                };
                (term, m)
            }));
            let score = u.score(self.cfg.cpu_weight);
            let better = match best {
                None => true,
                Some((bg, _, _, bs)) => {
                    score > *bs + 1e-12 || (score > *bs - 1e-12 && ng < bg.len())
                }
            };
            if better {
                *best = Some((groups.to_vec(), alloc.clone(), u, score));
            }
            if !enumerate || !next_composition(&mut alloc) {
                return;
            }
        }
    }
}

/// Calls `f` with every set partition of `0..n` into at most
/// `max_blocks` blocks, each block's members in increasing order. The
/// partitions come in restricted-growth-string order: item `idx` joins
/// an existing block or opens the next one.
fn for_each_partition(n: usize, max_blocks: u32, f: &mut impl FnMut(&[Vec<usize>])) {
    fn visit<F: FnMut(&[Vec<usize>])>(
        assign: &mut [usize],
        idx: usize,
        blocks: usize,
        max: usize,
        f: &mut F,
    ) {
        if blocks > max {
            return; // each group needs a machine, and blocks only grow
        }
        if idx == assign.len() {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); blocks];
            for (j, &b) in assign.iter().enumerate() {
                groups[b].push(j);
            }
            f(&groups);
            return;
        }
        let max_block = if idx == 0 { 0 } else { blocks };
        for b in 0..=max_block {
            assign[idx] = b;
            visit(assign, idx + 1, blocks.max(b + 1), max, f);
        }
    }
    visit(&mut vec![0; n], 0, 1, max_blocks as usize, f);
}

/// Number of compositions of `m` into `k` positive parts:
/// `C(m-1, k-1)`, saturating.
fn composition_count(m: u32, k: u32) -> u128 {
    if k == 0 || k > m {
        return 0;
    }
    let mut result: u128 = 1;
    let n = u128::from(m - 1);
    let r = u128::from(k - 1).min(n - u128::from(k - 1));
    for i in 0..r {
        result = result.saturating_mul(n - i) / (i + 1);
        if result > u128::from(u64::MAX) {
            return u128::MAX;
        }
    }
    result
}

/// Steps `parts` to the next composition of its sum into as many
/// positive parts, in lexicographic order; `false` after the last.
fn next_composition(parts: &mut [u32]) -> bool {
    let k = parts.len();
    // Sum and count of the parts after position `i`.
    let mut suffix = parts[k - 1];
    for i in (0..k - 1).rev() {
        let after = (k - 1 - i) as u32;
        if suffix > after {
            parts[i] += 1;
            parts[i + 1..k - 1].fill(1);
            parts[k - 1] = suffix - after;
            return true;
        }
        suffix += parts[i];
    }
    false
}

/// Greedy machine allocation mirroring the main scheduler's (used when
/// the composition space exceeds the budget).
fn greedy_alloc(jobs: &[JobProfile], groups: &[Vec<usize>], machines: u32) -> Vec<u32> {
    let ng = groups.len();
    let mut alloc = vec![1u32; ng];
    let mut remaining = machines - ng as u32;
    let sums: Vec<(f64, f64)> = groups
        .iter()
        .map(|members| {
            let cpu: f64 = members.iter().map(|&i| jobs[i].tcpu_at(1)).sum();
            let net: f64 = members.iter().map(|&i| jobs[i].tnet()).sum();
            (cpu, net)
        })
        .collect();
    while remaining > 0 {
        let gi = (0..ng)
            .max_by(|&a, &b| {
                let need = |g: usize| sums[g].0 / f64::from(alloc[g]) - sums[g].1;
                need(a).total_cmp(&need(b))
            })
            .expect("ng >= 1");
        alloc[gi] += 1;
        remaining -= 1;
    }
    alloc
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

    #[test]
    fn composition_counts() {
        assert_eq!(composition_count(4, 2), 3); // (1,3),(2,2),(3,1)
        assert_eq!(composition_count(5, 1), 1);
        assert_eq!(composition_count(3, 4), 0);
        assert_eq!(composition_count(10, 3), 36);
    }

    /// Every composition of `m` into `k` positive parts, built one
    /// `Vec` each: the enumerator the oracle used before it stepped
    /// through compositions in place.
    fn enumerate_compositions(m: u32, k: u32) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut current = Vec::with_capacity(k as usize);
        fn rec(m: u32, k: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if k == 1 {
                current.push(m);
                out.push(current.clone());
                current.pop();
                return;
            }
            for part in 1..=(m - (k - 1)) {
                current.push(part);
                rec(m - part, k - 1, current, out);
                current.pop();
            }
        }
        if k >= 1 && k <= m {
            rec(m, k, &mut current, &mut out);
        }
        out
    }

    /// The oracle's search as it was before the per-`(group, m)` term
    /// cache: every composition from [`enumerate_compositions`], each
    /// scored by a fresh [`cluster_utilization`].
    fn reference_search(oracle: &OracleScheduler, jobs: &[JobProfile], m: u32) -> BestPartition {
        let mut best: Option<BestPartition> = None;
        for_each_partition(jobs.len(), m, &mut |groups| {
            let ng = groups.len();
            let allocations =
                if composition_count(m, ng as u32) <= oracle.composition_budget as u128 {
                    enumerate_compositions(m, ng as u32)
                } else {
                    vec![greedy_alloc(jobs, groups, m)]
                };
            for alloc in allocations {
                let refs: Vec<(Vec<&JobProfile>, u32)> = groups
                    .iter()
                    .zip(&alloc)
                    .map(|(members, m)| (members.iter().map(|&i| &jobs[i]).collect(), *m))
                    .collect();
                let u = cluster_utilization(&refs);
                let score = u.score(oracle.cfg.cpu_weight);
                let better = match &best {
                    None => true,
                    Some((bg, _, _, bs)) => {
                        score > *bs + 1e-12 || (score > *bs - 1e-12 && ng < bg.len())
                    }
                };
                if better {
                    best = Some((groups.to_vec(), alloc, u, score));
                }
            }
        });
        best.expect("non-empty job set has partitions")
    }

    #[test]
    fn compositions_step_in_lexicographic_order() {
        for m in 1..=9 {
            for k in 1..=m {
                let mut parts = enumerate_compositions(m, k)[0].clone();
                let mut stepped = vec![parts.clone()];
                while next_composition(&mut parts) {
                    stepped.push(parts.clone());
                }
                assert_eq!(stepped, enumerate_compositions(m, k), "m {m}, k {k}");
                assert_eq!(stepped.len() as u128, composition_count(m, k));
            }
        }
    }

    /// The cached in-place search picks the very grouping, allocation
    /// and utilization bits the per-composition enumerator did, on
    /// random profiles and on profiles with many exact ties, with and
    /// without the greedy fallback.
    #[test]
    fn search_matches_the_per_composition_enumerator() {
        let mut rng = StdRng::seed_from_u64(27);
        for case in 0..60 {
            let n = rng.gen_range(1..=7usize);
            let m = rng.gen_range(1..=16u32);
            let jobs: Vec<JobProfile> = if case % 2 == 0 {
                (0..n as u64)
                    .map(|i| prof(i, rng.gen_range(0.5..20.0), rng.gen_range(0.1..10.0)))
                    .collect()
            } else {
                let kinds = [(8.0, 2.0), (2.0, 8.0), (5.0, 5.0)];
                (0..n as u64)
                    .map(|i| {
                        let (cpu, net) = kinds[rng.gen_range(0..kinds.len())];
                        prof(i, cpu, net)
                    })
                    .collect()
            };
            let mut oracle = OracleScheduler::default();
            if case % 3 == 0 {
                oracle.composition_budget = 20;
            }
            let (groups, alloc, u, score) = oracle.search(&jobs, m);
            let (ref_groups, ref_alloc, ref_u, ref_score) = reference_search(&oracle, &jobs, m);
            let tag = format!("case {case}: n {n}, M {m}");
            assert_eq!(groups, ref_groups, "{tag}: grouping");
            assert_eq!(alloc, ref_alloc, "{tag}: allocation");
            assert_eq!(u.cpu.to_bits(), ref_u.cpu.to_bits(), "{tag}: cpu");
            assert_eq!(u.net.to_bits(), ref_u.net.to_bits(), "{tag}: net");
            assert_eq!(score.to_bits(), ref_score.to_bits(), "{tag}: score");
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
