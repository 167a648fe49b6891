//! Property-based tests of the performance model and the scheduler
//! (Eqs. 1–4, Algorithm 1, the baselines) over arbitrary job
//! populations.

use proptest::prelude::*;

use harmony::core::baseline::{IsolatedScheduler, NaiveColocationScheduler};
use harmony::core::model::{cluster_utilization, group_iteration_time, group_utilization};
use harmony::core::{JobId, JobProfile, Scheduler, SchedulerConfig};

/// Strategy: a job population of 1–24 jobs with positive, bounded
/// subtask times. Some jobs also carry a trusted PUSH density: exactly
/// [`JobProfile::DENSITY_TRUST_ITERS`] measurements in `[0.05, 1.0]`,
/// so Eq. 1 prices their `Tnet` below the raw measurement.
fn jobs_strategy() -> impl Strategy<Value = Vec<JobProfile>> {
    let trust = JobProfile::DENSITY_TRUST_ITERS as usize;
    let densities = prop::collection::vec(0.05f64..=1.0, trust..trust + 1);
    let job = (0.1f64..500.0, 0.1f64..100.0, any::<bool>(), densities);
    prop::collection::vec(job, 1..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tcpu, tnet, sparse, densities))| {
                let mut p = JobProfile::from_reference(JobId::new(i as u64), tcpu, tnet);
                if sparse {
                    for d in densities {
                        p.observe_push_density(d);
                    }
                }
                p
            })
            .collect()
    })
}

/// A job's own pipeline `Tcpu(m) + Tnet` as Eq. 1 prices it.
fn priced_iter_time(p: &JobProfile, m: u32) -> f64 {
    p.tcpu_at(m) + p.priced_tnet()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eq1_bounds_hold(jobs in jobs_strategy(), m in 1u32..64) {
        let refs: Vec<&JobProfile> = jobs.iter().collect();
        let t = group_iteration_time(&refs, m);
        let sum_cpu: f64 = refs.iter().map(|p| p.tcpu_at(m)).sum();
        let sum_net: f64 = refs.iter().map(|p| p.priced_tnet()).sum();
        let max_itr = refs.iter().map(|p| priced_iter_time(p, m)).fold(0.0f64, f64::max);
        // Tg is exactly the max of its three lower bounds...
        prop_assert!(t >= sum_cpu - 1e-9);
        prop_assert!(t >= sum_net - 1e-9);
        prop_assert!(t >= max_itr - 1e-9);
        // ...and never worse than fully serial execution.
        prop_assert!(t <= sum_cpu + sum_net + 1e-9);
    }

    #[test]
    fn eq3_utilization_is_a_fraction(jobs in jobs_strategy(), m in 1u32..64) {
        let refs: Vec<&JobProfile> = jobs.iter().collect();
        let u = group_utilization(&refs, m);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u.cpu));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u.net));
        // At least one resource is fully utilized unless job-bound.
        let t = group_iteration_time(&refs, m);
        let max_itr = refs.iter().map(|p| priced_iter_time(p, m)).fold(0.0f64, f64::max);
        if (t - max_itr).abs() > 1e-9 {
            prop_assert!(u.cpu > 1.0 - 1e-9 || u.net > 1.0 - 1e-9);
        }
    }

    #[test]
    fn eq4_weighted_average_stays_bounded(
        jobs in jobs_strategy(),
        splits in prop::collection::vec(1u32..16, 1..4),
    ) {
        // Partition jobs round-robin into groups with arbitrary DoPs.
        let ng = splits.len();
        let mut groups: Vec<(Vec<&JobProfile>, u32)> =
            splits.iter().map(|&m| (Vec::new(), m)).collect();
        for (i, p) in jobs.iter().enumerate() {
            groups[i % ng].0.push(p);
        }
        groups.retain(|(g, _)| !g.is_empty());
        let u = cluster_utilization(&groups);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u.cpu));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u.net));
        // The cluster average cannot exceed the best group.
        let best_cpu = groups
            .iter()
            .map(|(g, m)| group_utilization(g, *m).cpu)
            .fold(0.0f64, f64::max);
        prop_assert!(u.cpu <= best_cpu + 1e-9);
    }

    #[test]
    fn algorithm1_output_is_always_a_valid_partition(
        jobs in jobs_strategy(),
        machines in 1u32..200,
    ) {
        let outcome = Scheduler::new(SchedulerConfig::default()).schedule(&jobs, machines);
        prop_assert!(outcome.grouping.validate().is_ok());
        prop_assert!(outcome.grouping.total_machines() <= machines as usize);
        // Scheduled ∪ unscheduled == input, no duplicates.
        let mut seen: Vec<u64> = outcome.grouping.jobs().map(|j| j.index()).collect();
        seen.extend(outcome.unscheduled.iter().map(|j| j.index()));
        seen.sort_unstable();
        let mut expect: Vec<u64> = jobs.iter().map(|p| p.job().index()).collect();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);
        // Every non-empty group owns at least one machine (validate
        // checks this, but assert the stronger claim: all machines used
        // when anything was scheduled).
        if !outcome.grouping.is_empty() {
            prop_assert_eq!(outcome.grouping.total_machines(), machines as usize);
        }
        // One Eq. 1: the decision's own score and predictions are the
        // model's, evaluated on the grouping it returns — sparse
        // profiles included.
        let by_id = |j: JobId| &jobs[j.index() as usize];
        let groups: Vec<(Vec<&JobProfile>, u32)> = outcome
            .grouping
            .groups()
            .iter()
            .map(|g| (g.jobs().iter().map(|&j| by_id(j)).collect(), g.dop()))
            .collect();
        let model = cluster_utilization(&groups);
        for (got, want) in [
            (outcome.utilization.cpu, model.cpu),
            (outcome.utilization.net, model.net),
        ] {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "scheduler scored {:?}, the model {:?}",
                outcome.utilization,
                model
            );
        }
        prop_assert_eq!(outcome.predicted_iteration.len(), groups.len());
        for (gi, (profs, m)) in groups.iter().enumerate() {
            prop_assert_eq!(
                outcome.predicted_iteration[gi].to_bits(),
                group_iteration_time(profs, *m).to_bits(),
                "group {}",
                gi
            );
        }
    }

    #[test]
    fn schedule_exact_never_loses_jobs(
        jobs in jobs_strategy(),
        machines in 1u32..100,
    ) {
        let outcome =
            Scheduler::new(SchedulerConfig::default()).schedule_exact(&jobs, machines);
        // schedule_exact places *every* job (no incremental selection).
        prop_assert_eq!(outcome.grouping.total_jobs(), jobs.len());
        prop_assert!(outcome.unscheduled.is_empty());
        prop_assert!(outcome.grouping.validate().is_ok());
    }

    #[test]
    fn isolated_baseline_respects_machine_budget(
        jobs in jobs_strategy(),
        machines in 1u32..100,
    ) {
        let g = IsolatedScheduler::new().allocate(&jobs, machines);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.total_machines() <= machines as usize);
        for grp in g.groups() {
            prop_assert_eq!(grp.jobs().len(), 1);
        }
    }

    #[test]
    fn naive_baseline_packs_everyone_or_respects_budget(
        jobs in jobs_strategy(),
        machines in 1u32..100,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let g = NaiveColocationScheduler::new(k).allocate(&jobs, machines, Some(seed));
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.total_machines() <= machines as usize);
        prop_assert!(g.total_jobs() <= jobs.len());
        for grp in g.groups() {
            prop_assert!(grp.jobs().len() <= k.max(jobs.len().div_ceil(machines as usize)));
        }
    }

    #[test]
    fn eq2_scaling_is_exact(tcpu in 0.1f64..1000.0, tnet in 0.1f64..100.0, m in 1u32..128) {
        let p = JobProfile::from_reference(JobId::new(0), tcpu, tnet);
        prop_assert!((p.tcpu_at(m) - tcpu / f64::from(m)).abs() < 1e-9);
        prop_assert!((p.tnet() - tnet).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Regrouper fault-recovery invariants (§IV-B4 + §VI).
// ---------------------------------------------------------------------

use harmony::core::group::JobGroup;
use harmony::core::profile::ProfileStore;
use harmony::core::regroup::{ClusterView, RegroupDecision, Regrouper};
use harmony::core::{GroupId, Grouping, MachineId};

/// Strategy: a cluster of 2–4 running groups (1–4 jobs, 1–6 machines
/// each, disjoint machine ranges) plus 0–4 warm waiting jobs.
fn faulted_cluster_strategy() -> impl Strategy<Value = (ClusterView, ProfileStore)> {
    let group_shape = (1usize..=4, 1u32..=6, 0.5f64..200.0, 0.5f64..40.0);
    (
        prop::collection::vec(group_shape, 2..5),
        prop::collection::vec((0.5f64..200.0, 0.5f64..40.0), 0..5),
    )
        .prop_map(|(shapes, waiting)| {
            let mut profiles: Vec<harmony::core::JobProfile> = Vec::new();
            let mut groups = Vec::new();
            let mut next_job = 0u64;
            let mut next_machine = 0u32;
            for (gi, (njobs, machines, tcpu, tnet)) in shapes.into_iter().enumerate() {
                let jobs: Vec<JobId> = (0..njobs)
                    .map(|k| {
                        let id = JobId::new(next_job);
                        next_job += 1;
                        // Vary members so groups are not all identical.
                        profiles.push(harmony::core::JobProfile::from_reference(
                            id,
                            tcpu * (1.0 + 0.3 * k as f64),
                            tnet * (1.0 + 0.2 * k as f64),
                        ));
                        id
                    })
                    .collect();
                let ms: Vec<MachineId> = (next_machine..next_machine + machines)
                    .map(MachineId::new)
                    .collect();
                next_machine += machines;
                groups.push(JobGroup::new(GroupId::new(gi as u32), jobs, ms));
            }
            let profiled: Vec<JobId> = waiting
                .into_iter()
                .map(|(tcpu, tnet)| {
                    let id = JobId::new(next_job);
                    next_job += 1;
                    profiles.push(harmony::core::JobProfile::from_reference(id, tcpu, tnet));
                    id
                })
                .collect();
            let view = ClusterView {
                machines: next_machine,
                grouping: Grouping::from_groups(groups),
                profiled,
                paused: vec![],
            };
            (view, profiles.into_iter().collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Machine-loss repair never invents machines, never drops a job of
    /// an involved group, and always yields a valid grouping.
    #[test]
    fn machine_loss_repair_conserves_machines_and_jobs(
        cluster in faulted_cluster_strategy(),
    ) {
        let (view, store) = cluster;
        let hit = GroupId::new(0);
        match Regrouper::default().escalate(&view, &store, hit) {
            RegroupDecision::NoChange => {} // local repair: shrunken group kept
            RegroupDecision::PartialReschedule { involved_groups, outcome } => {
                prop_assert!(involved_groups.contains(&hit));
                prop_assert!(outcome.grouping.validate().is_ok());
                // Exactly the machines of the dissolved groups are
                // reassigned: none lost, none invented.
                let budget: usize = involved_groups
                    .iter()
                    .filter_map(|&g| view.grouping.group(g))
                    .map(|g| g.dop() as usize)
                    .sum();
                prop_assert_eq!(outcome.grouping.total_machines(), budget);
                // Every job of an involved group is accounted for: it
                // is either re-placed or explicitly handed back as
                // unscheduled (to wait) — never silently dropped.
                for &g in &involved_groups {
                    for &j in view.grouping.group(g).expect("involved").jobs() {
                        prop_assert!(
                            outcome.grouping.group_of(j).is_some()
                                || outcome.unscheduled.contains(&j),
                            "job {j:?} lost by repair"
                        );
                    }
                }
            }
            other => prop_assert!(false, "unexpected decision {other:?}"),
        }
    }

    /// Abort back-fill obeys the ≤5% similarity rule of §IV-B4: a
    /// single replacement matches the aborted job's iteration time and
    /// comp/comm ratio within 5%; a bunch matches in aggregate.
    #[test]
    fn abort_backfill_respects_similarity_rule(
        cluster in faulted_cluster_strategy(),
        it in 0.5f64..400.0,
        ratio in 0.1f64..20.0,
    ) {
        let (view, store) = cluster;
        let g = GroupId::new(0);
        let dop = view.grouping.group(g).expect("exists").dop().max(1);
        let d = Regrouper::default().replace_departed(&view, &store, it, ratio, g);
        if let Some(RegroupDecision::ReplaceFinished { group, add }) = d {
            prop_assert_eq!(group, g);
            prop_assert!(!add.is_empty());
            for &j in &add {
                prop_assert!(view.profiled.contains(&j), "backfill from thin air");
            }
            let (mut sit, mut scpu, mut snet) = (0.0, 0.0, 0.0);
            for &j in &add {
                let p = store.get(j).expect("profiled job has a profile");
                sit += p.iter_time_at(dop);
                scpu += p.tcpu_at(dop);
                snet += p.tnet();
            }
            let sratio = if snet > 0.0 { scpu / snet } else { f64::INFINITY };
            prop_assert!((sit - it).abs() / it.abs().max(1e-12) <= 0.05 + 1e-9);
            prop_assert!((sratio - ratio).abs() / ratio.abs().max(1e-12) <= 0.05 + 1e-9);
        }
    }

    /// A crash that wipes a whole group out is the master's problem;
    /// the regrouper must not touch the survivors.
    #[test]
    fn vanished_group_is_left_to_the_master(
        cluster in faulted_cluster_strategy(),
    ) {
        let (view, store) = cluster;
        let d = Regrouper::default().escalate(&view, &store, GroupId::new(99));
        prop_assert_eq!(d, RegroupDecision::NoChange);
    }
}
