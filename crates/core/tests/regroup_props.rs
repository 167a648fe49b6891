//! Property tests for decisions made through warm buffers: a
//! [`Regrouper`] keeps one job list, [`ProfileCache`] and
//! [`ScheduleScratch`] across all its calls, and every ladder rung and
//! empty-grouping placement runs Algorithm 1 through them
//! ([`Scheduler::schedule_reusing`]). Whatever ran through the buffers
//! before — longer or shorter job lists, other budgets, the same list
//! again — each answer must be the one fresh buffers give: the
//! scheduler pair is held to a fresh [`Scheduler::schedule`] per call,
//! and a long-lived regrouper to a fresh regrouper per call, with every
//! rescheduled outcome also recomputed by a fresh `schedule`.

use harmony_core::cluster::MachineId;
use harmony_core::group::{GroupId, Grouping, JobGroup};
use harmony_core::job::JobId;
use harmony_core::profile::{JobProfile, ProfileStore};
use harmony_core::regroup::{ClusterView, RegroupDecision, Regrouper};
use harmony_core::schedule::{Scheduler, SchedulerConfig};
use harmony_core::scratch::{ProfileCache, ScheduleScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A warm profile: from a small palette half the time, so equal
/// durations — and ties everywhere downstream — are common.
fn profile(rng: &mut StdRng, id: u64) -> JobProfile {
    const PALETTE: [(f64, f64); 4] = [(8.0, 2.0), (2.0, 6.0), (4.0, 4.0), (30.0, 1.0)];
    let (tcpu, tnet) = if rng.gen_range(0u8..2) == 0 {
        PALETTE[rng.gen_range(0..PALETTE.len())]
    } else {
        (rng.gen_range(0.05..60.0), rng.gen_range(0.0..12.0))
    };
    JobProfile::from_reference(JobId::new(id), tcpu, tnet)
}

/// A cluster over jobs `0..population`: up to eight running groups
/// (empty ones included) on disjoint machine ranges, a few waiting jobs
/// split between profiled and paused, spare machines, and a store that
/// misses about one job in eight (cold profiles the scheduler cannot
/// see).
fn cluster(rng: &mut StdRng, population: u64) -> (ClusterView, ProfileStore) {
    let mut ids: Vec<u64> = (0..population).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut ids = ids.into_iter().map(JobId::new);
    let mut groups = Vec::new();
    let mut next_machine = 0u32;
    for gi in 0..rng.gen_range(1u32..9) {
        let jobs: Vec<JobId> = ids.by_ref().take(rng.gen_range(0..14)).collect();
        let dop = rng.gen_range(1u32..24);
        let machines = (next_machine..next_machine + dop)
            .map(MachineId::new)
            .collect();
        next_machine += dop;
        groups.push(JobGroup::new(GroupId::new(gi * 3), jobs, machines));
    }
    let profiled: Vec<JobId> = ids.by_ref().take(rng.gen_range(0..6)).collect();
    let paused: Vec<JobId> = ids.take(rng.gen_range(0..6)).collect();
    let mut store = ProfileStore::new();
    for id in 0..population {
        if rng.gen_range(0u8..8) != 0 {
            store.insert(profile(rng, id));
        }
    }
    let view = ClusterView {
        machines: next_machine + rng.gen_range(0..8),
        grouping: Grouping::from_groups(groups),
        profiled,
        paused,
    };
    (view, store)
}

/// One regrouper call, chosen and parameterized by `pick`.
fn decide(
    r: &mut Regrouper,
    view: &ClusterView,
    store: &ProfileStore,
    pick: (u8, GroupId, JobId, f64, f64),
) -> RegroupDecision {
    let (kind, group, job, it, ratio) = pick;
    match kind {
        0 => r.on_job_profiled(view, store, job),
        1 => r.on_job_finished(view, store, it, ratio, group),
        2 => r.on_machine_lost(view, store, group),
        _ => r.on_job_aborted(view, store, it, ratio, group),
    }
}

/// The job list and machine budget a rescheduling decision was computed
/// from: the waiting jobs, then the involved groups' jobs in the order
/// the groups are listed — or, with no group involved (the
/// empty-grouping placement), every waiting job plus `job` on the whole
/// cluster.
fn rescheduled_input(
    view: &ClusterView,
    store: &ProfileStore,
    involved: &[GroupId],
    job: JobId,
) -> (Vec<JobProfile>, u32) {
    let mut ids: Vec<JobId> = view.profiled.iter().chain(&view.paused).copied().collect();
    let machines = if involved.is_empty() {
        if !ids.contains(&job) {
            ids.push(job);
        }
        view.machines
    } else {
        let groups: Vec<&JobGroup> = involved
            .iter()
            .filter_map(|&g| view.grouping.group(g))
            .collect();
        ids.extend(groups.iter().flat_map(|g| g.jobs().iter().copied()));
        groups.iter().map(|g| g.dop()).sum()
    };
    let jobs = ids.iter().filter_map(|&j| store.get(j).cloned()).collect();
    (jobs, machines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One cache/scratch pair carried through a ladder's worth of job
    /// lists — growing rungs, shrinking ones, the same list under
    /// another budget, unrelated lists, an empty one — decides every
    /// call exactly as a fresh `Scheduler::schedule` does.
    #[test]
    fn a_warm_pair_decides_every_rung_like_a_fresh_pass(
        seed in 0u64..u64::MAX,
        rungs in 2usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let population: Vec<JobProfile> = (0..rng.gen_range(1u64..72))
            .map(|id| profile(&mut rng, id))
            .collect();
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let (mut cache, mut scratch) = (ProfileCache::empty(), ScheduleScratch::new());
        let mut len = rng.gen_range(0..=population.len());
        let mut start = 0;
        let mut machines = rng.gen_range(0u32..200);
        for rung in 0..rungs {
            match rng.gen_range(0u8..5) {
                // The next rung of a ladder: more jobs, more machines.
                0 => {
                    len = (len + rng.gen_range(1..12)).min(population.len() - start);
                    machines += rng.gen_range(1..40);
                }
                // A shorter list.
                1 => len = rng.gen_range(0..=len),
                // The same list under another budget.
                2 => machines = rng.gen_range(0..200),
                // An unrelated slice of the population.
                3 => {
                    start = rng.gen_range(0..population.len());
                    len = rng.gen_range(0..=population.len() - start);
                }
                // The same call again.
                _ => {}
            }
            let jobs = &population[start..start + len];
            let warm = scheduler.schedule_reusing(jobs, machines, &mut cache, &mut scratch);
            let fresh = scheduler.schedule(jobs, machines);
            prop_assert_eq!(warm, fresh, "rung {} ({} jobs, {} machines)", rung, len, machines);
        }
    }

    /// A long-lived regrouper answers a random sequence of decisions —
    /// arrivals (on empty and running clusters), completions, machine
    /// losses and aborts over clusters of changing shape, repeated
    /// ones included — exactly as a fresh regrouper per call does, and
    /// every rescheduled outcome is the one a fresh `Scheduler::schedule`
    /// computes from the same jobs and budget.
    #[test]
    fn a_warm_regrouper_decides_like_a_fresh_one(
        seed in 0u64..u64::MAX,
        calls in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let mut warm = Regrouper::new(scheduler.clone());
        let population = rng.gen_range(1u64..80);
        let (mut view, mut store) = cluster(&mut rng, population);
        for call in 0..calls {
            match rng.gen_range(0u8..4) {
                0 => (view, store) = cluster(&mut rng, population),
                // Same shape, one profile moved.
                1 => {
                    let id = rng.gen_range(0..population);
                    store.insert(profile(&mut rng, id));
                }
                // Nothing runs yet: the empty-grouping placement.
                2 => view.grouping = Grouping::new(),
                // The same view again.
                _ => {}
            }
            let groups = view.grouping.groups();
            let group = if groups.is_empty() || rng.gen_range(0u8..8) == 0 {
                GroupId::new(1) // no such group
            } else {
                groups[rng.gen_range(0..groups.len())].id()
            };
            // An arrival is a job no group runs: waiting, unlisted, or
            // one the store has never seen.
            let unplaced: Vec<JobId> = (0..=population)
                .map(JobId::new)
                .filter(|&j| view.grouping.group_of(j).is_none())
                .collect();
            let pick = (
                rng.gen_range(0u8..4),
                group,
                unplaced[rng.gen_range(0..unplaced.len())],
                rng.gen_range(0.1..40.0),
                rng.gen_range(0.05..20.0),
            );
            let got = decide(&mut warm, &view, &store, pick);
            let mut fresh = Regrouper::new(scheduler.clone());
            prop_assert_eq!(&got, &decide(&mut fresh, &view, &store, pick), "call {}", call);
            if let RegroupDecision::PartialReschedule { involved_groups, outcome } = got {
                let (jobs, machines) = rescheduled_input(&view, &store, &involved_groups, pick.2);
                prop_assert_eq!(outcome, scheduler.schedule(&jobs, machines), "call {}", call);
            }
        }
    }
}
