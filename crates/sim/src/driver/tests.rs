//! Whole-run tests of the driver, and direct tests of the state
//! machines its handlers are built from.

use super::*;
use harmony_core::job::{AppKind, JobSpec};

fn spec(name: &str, comp: f64, net: f64, input_gb: u64, model_gb: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        app: AppKind::Mlr,
        dataset: "synthetic".into(),
        input_bytes: input_gb << 30,
        model_bytes: model_gb << 30,
        comp_cost: comp,
        net_cost: net,
        sync: Default::default(),
        pull_fraction: 0.5,
        iters_per_epoch: 5,
        target_epochs: 4,
    }
}

fn small_cfg(kind: SchedulerKind) -> SimConfig {
    SimConfig {
        machines: 8,
        scheduler: kind,
        reload: ReloadPolicy::Adaptive,
        straggler_cv: 0.0,
        utilization_sample_secs: 30.0,
        ..SimConfig::default()
    }
}

fn two_complementary() -> Vec<JobSpec> {
    vec![
        spec("cpu-heavy", 400.0, 10.0, 4, 1),
        spec("net-heavy", 40.0, 50.0, 2, 1),
    ]
}

#[test]
fn harmony_completes_all_jobs() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        two_complementary(),
        vec![0.0, 0.0],
    );
    assert_eq!(r.completed(), 2, "{:?}", r.oom_events);
    assert!(r.makespan > 0.0);
    for j in &r.jobs {
        assert_eq!(j.iterations, 20);
        assert!(j.jct.unwrap() > 0.0);
    }
}

#[test]
fn isolated_completes_all_jobs() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Isolated),
        two_complementary(),
        vec![0.0, 0.0],
    );
    assert_eq!(r.completed(), 2);
}

#[test]
fn jobs_cut_off_by_the_horizon_are_not_completed() {
    // Stop the clock after the first job's finish but long before
    // the second's: the straggler is abandoned without a finish
    // time and must not count as completed.
    let mut specs = two_complementary();
    specs[1].target_epochs *= 1_000;
    let full = Driver::run(
        small_cfg(SchedulerKind::Isolated),
        two_complementary(),
        vec![0.0, 0.0],
    );
    let cfg = SimConfig {
        max_sim_seconds: full.makespan * 2.0,
        ..small_cfg(SchedulerKind::Isolated)
    };
    let r = Driver::run(cfg, specs, vec![0.0, 0.0]);
    assert!(r.jobs[0].finish.is_some(), "{:?}", r.jobs[0]);
    assert_eq!(r.jobs[1].finish, None);
    assert!(r.jobs[1].iterations > 0, "{:?}", r.jobs[1]);
    assert_eq!(r.completed(), 1);
}

#[test]
fn a_cluster_with_no_machines_left_runs_to_the_horizon() {
    // Every machine crashes early: nothing can run again, yet the
    // utilization sample keeps the clock moving until the cap fails
    // the stranded jobs.
    use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    let crashes = (100..108)
        .map(|t| FaultEvent {
            at: f64::from(t),
            kind: FaultKind::MachineCrash,
        })
        .collect();
    let cfg = SimConfig {
        machines: 4,
        fault_plan: Some(FaultPlan::new(1, crashes)),
        max_sim_seconds: 36_000.0,
        utilization_sample_secs: 60.0,
        ..small_cfg(SchedulerKind::Harmony)
    };
    let mut specs = two_complementary();
    specs.push(spec("mixed", 200.0, 30.0, 2, 1));
    let r = Driver::run(cfg, specs, vec![0.0; 3]);
    assert_eq!(r.machines_lost, 4);
    assert_eq!(r.cpu_timeline.len(), 601);
    assert_eq!(r.net_timeline.len(), 601);
    assert_eq!(r.makespan, 36_060.0);
    assert_eq!(r.jobs.iter().filter(|j| j.failed).count(), 3);
    assert_eq!(r.completed(), 0);
}

#[test]
fn naive_completes_all_jobs() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Naive {
            jobs_per_group: 2,
            seed: 1,
        }),
        two_complementary(),
        vec![0.0, 0.0],
    );
    assert_eq!(r.completed(), 2);
}

#[test]
fn harmony_beats_isolated_on_complementary_mix() {
    // Several complementary jobs: multiplexing should cut makespan.
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(spec(&format!("cpu{i}"), 320.0, 8.0, 2, 1));
        specs.push(spec(&format!("net{i}"), 24.0, 40.0, 1, 1));
    }
    let arrivals = vec![0.0; specs.len()];
    let h = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        specs.clone(),
        arrivals.clone(),
    );
    let i = Driver::run(small_cfg(SchedulerKind::Isolated), specs, arrivals);
    assert_eq!(h.completed(), 8);
    assert_eq!(i.completed(), 8);
    assert!(
        h.makespan < i.makespan,
        "harmony {} vs isolated {}",
        h.makespan,
        i.makespan
    );
}

#[test]
fn oom_fires_without_spill() {
    // Input far beyond memory (x2.5 expansion) and no reload.
    let cfg = SimConfig {
        machines: 2,
        scheduler: SchedulerKind::Naive {
            jobs_per_group: 3,
            seed: 0,
        },
        reload: ReloadPolicy::None,
        ..SimConfig::default()
    };
    let specs = vec![
        spec("a", 50.0, 5.0, 40, 2),
        spec("b", 50.0, 5.0, 40, 2),
        spec("c", 50.0, 5.0, 40, 2),
    ];
    let r = Driver::run(cfg, specs, vec![0.0; 3]);
    assert!(!r.oom_events.is_empty(), "expected an OOM kill");
    assert!(r.completed() < 3);
}

#[test]
fn spill_prevents_the_same_oom() {
    let cfg = SimConfig {
        machines: 2,
        scheduler: SchedulerKind::Naive {
            jobs_per_group: 3,
            seed: 0,
        },
        reload: ReloadPolicy::StaticFit,
        ..SimConfig::default()
    };
    let specs = vec![
        spec("a", 50.0, 5.0, 40, 2),
        spec("b", 50.0, 5.0, 40, 2),
        spec("c", 50.0, 5.0, 40, 2),
    ];
    let r = Driver::run(cfg, specs, vec![0.0; 3]);
    assert!(r.oom_events.is_empty(), "{:?}", r.oom_events);
    assert_eq!(r.completed(), 3);
}

#[test]
fn an_oom_victim_stops_running() {
    // j2's arrival regroups j0 mid-subtask into a group that cannot
    // hold it; the kill must cancel j0's in-flight subtask too, or its
    // completion requeues j0 and it trains on as a non-member.
    let cfg = SimConfig {
        machines: 4,
        reload: ReloadPolicy::None,
        ..small_cfg(SchedulerKind::Harmony)
    };
    let specs = vec![
        spec("j0", 120.0, 39.0, 40, 3),
        spec("j1", 140.0, 32.0, 55, 2),
        spec("j2", 204.0, 18.0, 35, 1),
    ];
    let r = Driver::run(cfg, specs, vec![0.0, 1716.0, 1957.0]);
    assert!(
        r.oom_events
            .iter()
            .any(|(at, name)| *at == 1957.0 && name == "j0"),
        "{:?}",
        r.oom_events
    );
    let j0 = r.jobs.iter().find(|j| j.name == "j0").expect("j0 reported");
    assert!(j0.failed, "OOM-killed j0 kept running: {j0:?}");
    assert_eq!(j0.finish, None);
}

/// Adaptive floors are sequential: each member's floor sees the floors
/// already raised for the members before it. On a 40-member group,
/// where a per-job refold of "everyone else" is quadratic, the O(k)
/// pass over the books must give that refold's floors exactly — and
/// here they differ from floors taken against the unraised books.
#[test]
fn adaptive_floors_equal_a_sequential_refold() {
    use harmony_mem::{alpha_steps, Rounding, ALPHA_STEPS};
    let mut d = Driver::new(SimConfig {
        machines: 16,
        ..small_cfg(SchedulerKind::Harmony)
    });
    let g = d.create_group(16, false);
    for i in 0..40usize {
        let s = spec(&format!("j{i}"), 50.0, 5.0, 1 + (i as u64 * 7) % 11, 1);
        d.jobs.push(JobSim::new(i, s, 0.0));
        d.jobs[i].state = SimJobState::Running;
        assert!(d.attach_job_with_replan(g, i, true, false));
        let grp = d.groups[g].as_mut().expect("alive");
        let k = (i as u32 * 911) % (ALPHA_STEPS / 2);
        d.jobs[i].set_memory(&mut grp.books, k, false);
    }
    let members = d.groups[g].as_ref().expect("alive").jobs.clone();
    let input = |j: usize| d.jobs[j].spec.input_bytes;
    let p = d.mem;
    let max_workspace = members
        .iter()
        .map(|&j| input(j) as f64 * p.expansion * p.workspace_fraction)
        .fold(0.0, f64::max);
    let budget = p.capacity as f64 * 16.0 * d.cfg.gc.threshold() - max_workspace;
    let models: u64 = members.iter().map(|&j| d.jobs[j].spec.model_bytes).sum();
    // Floors of member `i` against the grid points `ks` of the others.
    let floor = |ks: &[u32], i: usize| {
        let others: u128 = (0..members.len())
            .filter(|&x| x != i)
            .map(|x| u128::from(ALPHA_STEPS - ks[x]) * u128::from(input(members[x])))
            .sum();
        let others = others as f64 / f64::from(ALPHA_STEPS) * p.expansion;
        let room = budget - models as f64 - others;
        alpha_steps(
            1.0 - room / (input(members[i]) as f64 * p.expansion),
            Rounding::Up,
        )
    };
    let before: Vec<u32> = members.iter().map(|&j| d.jobs[j].alpha_k).collect();
    let mut sequential = before.clone();
    let mut floors = Vec::new();
    for i in 0..members.len() {
        floors.push(floor(&sequential, i));
        sequential[i] = sequential[i].max(floors[i]);
    }
    let simultaneous: Vec<u32> = (0..members.len())
        .map(|i| before[i].max(floor(&before, i)))
        .collect();
    d.raise_to_floors(g, &members);
    let got_floors: Vec<u32> = members.iter().map(|&j| d.jobs[j].alpha_floor_k).collect();
    let got: Vec<u32> = members.iter().map(|&j| d.jobs[j].alpha_k).collect();
    assert_eq!(got_floors, floors);
    assert_eq!(got, sequential);
    assert_ne!(got, simultaneous, "the scene must tell the two forms apart");
    assert!(got.iter().any(|&k| 0 < k && k < ALPHA_STEPS), "{got:?}");
    assert!(
        got.iter().zip(&before).any(|(a, b)| a > b),
        "no floor raised"
    );
    assert!(d.group_books_match_fold());
}

/// §V-G's scenario: the eight `h5` jobs of the base workload pinned as
/// one group on 32 machines under adaptive reloading. Floors taken all
/// at once against the unraised books let every job assume the others
/// keep their old α, and that spills every member fully; sequential
/// floors leave the later jobs room.
#[test]
fn adaptive_floors_leave_the_reload_group_unspilled_in_part() {
    let specs: Vec<JobSpec> = harmony_trace::base_workload()
        .into_iter()
        .filter(|j| j.name.ends_with("h5"))
        .collect();
    assert_eq!(specs.len(), 8);
    let cfg = SimConfig {
        machines: 32,
        scheduler: SchedulerKind::Naive {
            jobs_per_group: 8,
            seed: 0,
        },
        discipline_override: Some((1, 2)),
        fixed_dop: Some(32),
        reload: ReloadPolicy::Adaptive,
        straggler_cv: 0.0,
        ..SimConfig::default()
    };
    let r = Driver::run(cfg, specs, vec![0.0; 8]);
    assert_eq!(r.completed(), 8, "{:?}", r.oom_events);
    let alphas: Vec<f64> = r.jobs.iter().map(|j| j.final_alpha).collect();
    assert!(
        alphas.iter().any(|&a| a < 1.0),
        "every member spilled: {alphas:?}"
    );
    assert!(r.alpha_stats.mean() < 1.0);
}

#[test]
fn runs_are_deterministic() {
    let specs = two_complementary();
    let a = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        specs.clone(),
        vec![0.0, 0.0],
    );
    let b = Driver::run(small_cfg(SchedulerKind::Harmony), specs, vec![0.0, 0.0]);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.mean_jct(), b.mean_jct());
}

#[test]
fn arrivals_are_respected() {
    let specs = two_complementary();
    let r = Driver::run(small_cfg(SchedulerKind::Isolated), specs, vec![0.0, 500.0]);
    let late = &r.jobs[1];
    assert!(late.finish.unwrap() > 500.0);
    assert_eq!(late.arrival, 500.0);
}

#[test]
fn utilization_samples_are_bounded() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        two_complementary(),
        vec![0.0, 0.0],
    );
    for p in r.cpu_timeline.points().chain(r.net_timeline.points()) {
        assert!((0.0..=1.0).contains(&p.value), "{p:?}");
    }
    assert!(r.avg_cpu_util(8) <= 1.0);
    assert!(r.avg_net_util(8) <= 1.0);
}

#[test]
fn harmony_collects_predictions_with_small_error() {
    let mut specs = Vec::new();
    for i in 0..6 {
        specs.push(spec(&format!("c{i}"), 200.0 + 30.0 * i as f64, 10.0, 2, 1));
        specs.push(spec(&format!("n{i}"), 30.0, 25.0 + 5.0 * i as f64, 1, 1));
    }
    let arrivals = vec![0.0; specs.len()];
    let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
    assert!(!r.predictions.is_empty(), "no prediction samples collected");
    // This is a deliberately harsh small-scale setting (8 machines,
    // 20-iteration jobs, so measurement windows are only a few
    // iterations long); paper-scale accuracy (<10% on the 80-job
    // workload, Figure 13b) is asserted by the fig13 experiment.
    let err = r.mean_iteration_prediction_error();
    assert!(err < 0.35, "iteration prediction error {err}");
}

#[test]
fn jobs_make_iteration_progress_monotonically() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        two_complementary(),
        vec![0.0, 0.0],
    );
    for j in &r.jobs {
        assert_eq!(j.iterations, 20, "{}", j.name);
    }
}

#[test]
fn completions_trigger_regrouping_decisions() {
    // Jobs of mixed lengths: short ones finish first, forcing the
    // §IV-B4 completion path (replace or escalate) to run; the
    // grouping must keep evolving after the first completion.
    let mut specs = Vec::new();
    for i in 0..3 {
        specs.push(spec(&format!("short{i}"), 60.0, 6.0, 1, 1));
    }
    for i in 0..3 {
        specs.push(spec(&format!("long{i}"), 600.0, 20.0, 2, 1));
    }
    let arrivals = vec![0.0; specs.len()];
    let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
    assert_eq!(r.completed(), 6);
    // Decisions happened after the bootstrap one.
    assert!(
        r.grouping_snapshots.len() >= 2,
        "only {} snapshots",
        r.grouping_snapshots.len()
    );
    let first = r.grouping_snapshots.first().expect("non-empty").time;
    let last = r.grouping_snapshots.last().expect("non-empty").time;
    assert!(last > first, "no regrouping after bootstrap");
}

#[test]
fn migrations_are_counted_when_groups_reshape() {
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(spec(&format!("a{i}"), 150.0 + 40.0 * i as f64, 8.0, 1, 1));
        specs.push(spec(&format!("b{i}"), 30.0, 20.0 + 4.0 * i as f64, 1, 1));
    }
    let arrivals = vec![0.0; specs.len()];
    let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
    assert_eq!(r.completed(), 8);
    // With eight heterogeneous jobs on eight machines at least one
    // reshape moves a running job.
    assert!(r.migrations > 0);
}

#[test]
fn live_migration_is_inert_without_drift() {
    // Without profile_feedback no drift ever fires, so turning
    // live_migration on must not change a single byte.
    let specs = two_complementary();
    let off = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        specs.clone(),
        vec![0.0, 0.0],
    );
    let cfg = SimConfig {
        live_migration: true,
        ..small_cfg(SchedulerKind::Harmony)
    };
    let on = Driver::run(cfg, specs, vec![0.0, 0.0]);
    assert_eq!(off.canonical_bytes(), on.canonical_bytes());
    assert_eq!(on.live_migration.started, 0);
    assert_eq!(on.live_migration.completed, 0);
}

#[test]
fn sched_wall_clock_is_tracked() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        two_complementary(),
        vec![0.0, 0.0],
    );
    assert!(r.sched_invocations > 0);
    assert!(r.sched_wall > std::time::Duration::ZERO);
    // A closed loop prices no arrival.
    assert_eq!(r.pricing_wall, std::time::Duration::ZERO);

    // An open loop whose policy prices every offer books that time
    // apart from the deciding passes.
    let gen = WorkloadGen::new(
        crate::workload::WorkloadGenConfig {
            seed: 3,
            mean_interarrival_secs: 60.0,
            horizon_secs: 2_000.0,
            max_jobs: 4,
        },
        two_complementary(),
    )
    .expect("valid generator");
    let policy = Box::new(crate::admission::UtilityThreshold {
        threshold: 0.02,
        reject_after: Some(4),
    });
    let r =
        Driver::run_open_loop(small_cfg(SchedulerKind::Harmony), gen, policy).expect("valid run");
    assert!(r.admission.admitted > 0);
    assert!(r.pricing_wall > std::time::Duration::ZERO);
}

#[test]
fn grouping_snapshots_recorded_for_harmony() {
    let r = Driver::run(
        small_cfg(SchedulerKind::Harmony),
        two_complementary(),
        vec![0.0, 0.0],
    );
    assert!(!r.grouping_snapshots.is_empty());
    for s in &r.grouping_snapshots {
        for &(m, jobs) in &s.groups {
            assert!(m >= 1);
            assert!(jobs >= 1);
        }
    }
}

/// A mixed-length, staggered Harmony run whose groups change
/// composition often: six prediction samples, several of them closed
/// by a job that moves on to a second group.
fn prediction_pin_run() -> RunReport {
    let mut specs = Vec::new();
    let mut arrivals = Vec::new();
    for i in 0..6 {
        specs.push(spec(&format!("c{i}"), 200.0 + 30.0 * i as f64, 10.0, 2, 1));
        specs.push(spec(&format!("n{i}"), 30.0, 25.0 + 5.0 * i as f64, 1, 1));
        arrivals.push(0.0);
        arrivals.push(40.0 * i as f64);
    }
    for (i, s) in specs.iter_mut().enumerate() {
        s.target_epochs = 6 + 5 * (i as u32 % 4);
    }
    Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals)
}

#[test]
fn predictions_stay_at_the_pinned_values() {
    // `(predicted_iteration, realized_iteration, predicted_util,
    // realized_util)` as `to_bits`, captured on c402cb9 — before the
    // per-group iteration-statistics table moved onto the jobs; the last
    // sample's low bits re-captured when groups got their own clocks,
    // every sample's low bits when α moved onto its block grid, and
    // samples 2, 3, 5 and 6 when every Algorithm 1 candidate moved onto
    // its prefix's one seed-DoP order.
    const PINNED: [[u64; 4]; 6] = [
        [
            0x406baa7b968a81b4,
            0x406d3794a8720518,
            0x3feedba939ec7fb0,
            0x3fee6e8caa1ff8be,
        ],
        [
            0x405b8abf32a6b9d5,
            0x405b7abddac35ff0,
            0x3fefc068be98bb13,
            0x3fefafdcf6e51af9,
        ],
        [
            0x4063155f9b63ea56,
            0x4063301e583331a8,
            0x3fefc068be98bb13,
            0x3fef425681869954,
        ],
        [
            0x4051800000000000,
            0x40595a4fade20d64,
            0x3fef9c56c450949c,
            0x3fedbba7e20eb799,
        ],
        [
            0x404e0271d76d4dde,
            0x4050702ed4b60040,
            0x3fedbe5e599d4436,
            0x3feafee6c577bf6e,
        ],
        [
            0x40518447500de133,
            0x4054008afd6aff4f,
            0x3fedbe5e599d4436,
            0x3fe914c1d6d4aa59,
        ],
    ];
    let r = prediction_pin_run();
    let got: Vec<[u64; 4]> = r
        .predictions
        .iter()
        .map(|p| {
            [
                p.predicted_iteration.to_bits(),
                p.realized_iteration.to_bits(),
                p.predicted_util.to_bits(),
                p.realized_util.to_bits(),
            ]
        })
        .collect();
    assert_eq!(got, PINNED, "prediction samples moved");
    assert!(r.migrations > 0, "no job ever changed groups");
}

#[test]
fn a_job_joining_a_second_group_starts_its_statistics_from_zero() {
    let mut d = Driver::new(small_cfg(SchedulerKind::Harmony));
    d.jobs
        .push(JobSim::new(0, spec("mover", 100.0, 10.0, 1, 1), 0.0));
    let first = d.create_group(2, false);
    assert!(d.attach_job(first, 0, false));
    // Two periods observed in the first group...
    d.jobs[0].iter_stats.observe(30.0);
    d.jobs[0].iter_stats.observe(50.0);
    d.detach_job(0);
    assert!(d.groups[first].is_none(), "the emptied group dissolved");
    // ...must not count towards the second group's realized period.
    let second = d.create_group(2, false);
    assert!(d.attach_job(second, 0, false));
    assert_eq!(d.jobs[0].iter_stats.count(), 0);
    assert_eq!(d.jobs[0].group, Some(second));
    assert!(d.machines_are_conserved() && d.loading_flags_cover_idle_members());
}

/// A Harmony driver just after a finish: job 0 finished and left group
/// `g`, which keeps one CPU-bound member; a second group runs another
/// CPU-bound job, and `waiting` network-bound jobs wait profiled. None
/// of them is shaped like the finished job, alone or in a bunch, so
/// only the escalation ladder can re-form groups. Returns the driver
/// and `g`.
fn finish_scene(waiting: usize) -> (Driver, usize) {
    let mut d = Driver::new(small_cfg(SchedulerKind::Harmony));
    let warm = |d: &mut Driver, name: &str, tcpu: f64, tnet: f64| {
        let j = d.jobs.len();
        let s = spec(name, tcpu * 10.0, tnet * 10.0, 1, 1);
        let mut profile = JobProfile::from_reference(JobId::new(j as u64), tcpu, tnet);
        profile.set_memory_footprint(s.input_bytes, s.model_bytes);
        d.jobs.push(JobSim::new(j, s, 0.0));
        d.jobs[j].profile = profile;
        d.jobs[j].state = SimJobState::Profiled;
        d.arrived_live.insert(j);
        j
    };
    let done = warm(&mut d, "done", 40.0, 1.0);
    d.arrived_live.remove(done);
    d.jobs[done].state = SimJobState::Finished;
    let g = d.create_group(2, false);
    for (name, home) in [("cpu-a", g), ("cpu-b", d.create_group(2, false))] {
        let j = warm(&mut d, name, 40.0, 1.0);
        d.jobs[j].state = SimJobState::Running;
        assert!(d.attach_job(home, j, true));
    }
    for i in 0..waiting {
        warm(&mut d, &format!("net-{i}"), 2.0, 8.0);
    }
    assert_eq!(d.waiting_count(), waiting);
    (d, g)
}

/// Every alive group as `(machines, members)`.
fn groups_of(d: &Driver) -> Vec<(u32, Vec<usize>)> {
    d.alive_groups()
        .map(|g| {
            let grp = d.groups[g].as_ref().expect("alive");
            (grp.machines, grp.jobs.clone())
        })
        .collect()
}

/// A finish whose backlog already mandates a full pass runs no
/// escalation ladder: with no similar job waiting, the targeted
/// decision leaves every group's members and machines alone (the full
/// pass that follows rebuilds them).
#[test]
fn a_finish_at_the_backlog_threshold_skips_the_ladder() {
    let (mut d, g) = finish_scene(SimConfig::default().waiting_reschedule_threshold);
    let before = groups_of(&d);
    d.finished_replacement_decision(0, g);
    assert_eq!(groups_of(&d), before);
    assert_eq!(d.report.migrations, 0);
    assert!(d.machines_are_conserved());
}

/// One waiting job fewer and no full pass follows the finish, so the
/// ladder still runs — and in this scene it re-forms groups.
#[test]
fn a_finish_below_the_backlog_threshold_still_escalates() {
    let (mut d, g) = finish_scene(SimConfig::default().waiting_reschedule_threshold - 1);
    let before = groups_of(&d);
    d.finished_replacement_decision(0, g);
    assert_ne!(groups_of(&d), before);
    assert!(d.waiting_count() < SimConfig::default().waiting_reschedule_threshold - 1);
    assert!(d.machines_are_conserved());
}

/// A subtask with no work — a PULL of `pull_fraction` 0, the wire of an
/// all-reduce job at DoP 1 — completes at the instant it starts; the
/// wake-per-subtask loop re-armed a zero-length wake there forever.
#[test]
fn zero_work_subtasks_complete() {
    let mut pull_free = spec("pull-free", 50.0, 5.0, 1, 1);
    pull_free.pull_fraction = 0.0;
    let mut ring = spec("ring", 50.0, 5.0, 1, 1);
    ring.sync = harmony_core::job::SyncKind::AllReduce;
    for job in [pull_free, ring] {
        let cfg = SimConfig {
            machines: 1,
            ..small_cfg(SchedulerKind::Isolated)
        };
        let r = Driver::run(cfg, vec![job], vec![0.0]);
        assert_eq!(r.completed(), 1, "{}", r.jobs[0].name);
    }
}

#[test]
fn failure_gaps_stay_at_the_pinned_values() {
    // `next_failure_gap(17, n, 400.0)` as `to_bits`, captured before
    // its hand-rolled SplitMix64 finalizer became the shared one.
    const PINNED: [u64; 4] = [
        0x407c_8218_2762_c40c,
        0x405b_fdc4_84b3_f16a,
        0x402c_c557_a139_31bc,
        0x408e_9e7f_3318_94d6,
    ];
    let got: Vec<u64> = (0..4)
        .map(|n| next_failure_gap(17, n, 400.0).to_bits())
        .collect();
    assert_eq!(got, PINNED);
}

fn coalesced_cfg(window: f64, max_batch: usize) -> SimConfig {
    SimConfig {
        coalesced_passes: true,
        coalesce_window: window,
        coalesce_max_batch: max_batch,
        // Windows only open where the exact arm would have fired a
        // finish pass; a threshold of 1 makes every finish with a
        // backlog mandate one, so the window machinery is actually
        // exercised on these tiny workloads.
        waiting_reschedule_threshold: 1,
        ..small_cfg(SchedulerKind::Harmony)
    }
}

fn staggered_mix(n: usize) -> (Vec<JobSpec>, Vec<f64>) {
    let mut specs = Vec::new();
    let mut arrivals = Vec::new();
    for i in 0..n {
        specs.push(spec(
            &format!("c{i}"),
            120.0 + 30.0 * (i % 5) as f64,
            6.0 + 2.0 * (i % 3) as f64,
            1,
            1,
        ));
        arrivals.push(10.0 * (i % 4) as f64);
    }
    (specs, arrivals)
}

#[test]
fn coalesced_mode_completes_and_counts_every_finish() {
    let (specs, arrivals) = staggered_mix(8);
    let n = specs.len();
    let r = Driver::run(coalesced_cfg(30.0, 32), specs, arrivals);
    assert_eq!(r.completed(), n);
    // Every finish routed through a window, none lost or doubled.
    assert_eq!(r.coalesced_finishes, n);
    assert!(r.coalesce_windows >= 1);
    assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
    assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
    assert_eq!(r.resched_reasons.finished, 0);
}

#[test]
fn coalesced_staleness_is_bounded_by_the_window() {
    let (specs, arrivals) = staggered_mix(10);
    for window in [5.0, 60.0, 600.0] {
        let r = Driver::run(coalesced_cfg(window, 32), specs.clone(), arrivals.clone());
        if let Some(max) = r.coalesce_staleness.max() {
            assert!(
                max <= window + 1e-9,
                "staleness {max} exceeds window {window}"
            );
        }
    }
}

#[test]
fn coalesced_batch_cap_of_one_flushes_every_finish() {
    let (specs, arrivals) = staggered_mix(6);
    let n = specs.len();
    let r = Driver::run(coalesced_cfg(1e6, 1), specs, arrivals);
    assert_eq!(r.completed(), n);
    // Cap 1 degenerates to one flush per mandated finish: every
    // window flushes immediately with zero staleness.
    assert!(r.coalesce_windows >= 1);
    assert_eq!(r.resched_reasons.window_flush, r.coalesce_windows);
    assert_eq!(r.coalesce_staleness.max(), Some(0.0));
}

#[test]
fn coalesced_flag_off_keeps_the_window_machinery_silent() {
    let (specs, arrivals) = staggered_mix(8);
    let r = Driver::run(small_cfg(SchedulerKind::Harmony), specs, arrivals);
    assert_eq!(r.coalesce_windows, 0);
    assert_eq!(r.coalesced_finishes, 0);
    assert_eq!(r.release_passes, 0);
    assert!(r.coalesce_staleness.is_empty());
    assert_eq!(r.resched_reasons.window_flush, 0);
}

#[test]
fn coalesced_flag_is_inert_for_isolated_and_naive() {
    // The window machinery hangs off the Harmony finish handler;
    // the baselines must stay byte-identical with the flag on.
    for kind in [
        SchedulerKind::Isolated,
        SchedulerKind::Naive {
            jobs_per_group: 4,
            seed: 1,
        },
    ] {
        let (specs, arrivals) = staggered_mix(6);
        let off = Driver::run(small_cfg(kind.clone()), specs.clone(), arrivals.clone());
        let on = Driver::run(
            SimConfig {
                coalesced_passes: true,
                ..small_cfg(kind)
            },
            specs,
            arrivals,
        );
        assert_eq!(off.canonical_bytes(), on.canonical_bytes());
        assert_eq!(on.coalesce_windows, 0);
        assert_eq!(on.release_passes, 0);
    }
}

mod coalesce_props {
    use super::*;
    use harmony_core::job::{AppKind, JobSpec};
    use proptest::prelude::*;

    fn spec(name: String, comp: f64, net: f64) -> JobSpec {
        JobSpec {
            name,
            app: AppKind::Mlr,
            dataset: "synthetic".into(),
            input_bytes: 1 << 30,
            model_bytes: 1 << 30,
            comp_cost: comp,
            net_cost: net,
            sync: Default::default(),
            pull_fraction: 0.5,
            iters_per_epoch: 5,
            target_epochs: 3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Core accounting of the window state machine, under random
        /// workload shapes, windows and batch caps: no finish is lost
        /// or double-counted, every window records exactly one
        /// staleness sample bounded by the window length, and flush
        /// passes never outnumber windows (other triggers may subsume
        /// a window for free, never the reverse).
        #[test]
        fn window_accounting_invariants(
            njobs in 2usize..10,
            window in 1.0f64..600.0,
            max_batch in 1usize..8,
            spread in 0.0f64..40.0,
        ) {
            let mut specs = Vec::new();
            let mut arrivals = Vec::new();
            for i in 0..njobs {
                specs.push(spec(
                    format!("p{i}"),
                    80.0 + 35.0 * (i % 4) as f64,
                    5.0 + 3.0 * (i % 3) as f64,
                ));
                arrivals.push(spread * (i % 3) as f64);
            }
            let cfg = SimConfig {
                machines: 8,
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::Adaptive,
                straggler_cv: 0.0,
                coalesced_passes: true,
                coalesce_window: window,
                coalesce_max_batch: max_batch,
                ..SimConfig::default()
            };
            let r = Driver::run(cfg, specs, arrivals);
            // No finish lost or double-counted.
            prop_assert_eq!(r.completed(), njobs);
            prop_assert_eq!(r.coalesced_finishes, njobs);
            // The exact finish trigger never fires in coalesced mode.
            prop_assert_eq!(r.resched_reasons.finished, 0);
            // One staleness sample per window, each bounded by the
            // window length (flush ordering is total: expiry, batch
            // cap and subsuming triggers all close before any later
            // pass runs).
            prop_assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
            if let Some(max) = r.coalesce_staleness.max() {
                prop_assert!(
                    max <= window + 1e-9,
                    "staleness {} exceeds window {}", max, window
                );
            }
            prop_assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
            // Release passes only fire while a window exists.
            if r.coalesce_windows == 0 {
                prop_assert_eq!(r.release_passes, 0);
            }
        }

        /// Drift-style triggers (here: the profiled-backlog threshold
        /// crossing under staggered arrivals) subsume open windows:
        /// the run still completes, and subsumed windows show up as
        /// staleness samples without a matching flush pass.
        #[test]
        fn subsuming_triggers_interleave_cleanly(
            njobs in 4usize..12,
            window in 50.0f64..2000.0,
        ) {
            let mut specs = Vec::new();
            let mut arrivals = Vec::new();
            for i in 0..njobs {
                specs.push(spec(
                    format!("q{i}"),
                    100.0 + 25.0 * (i % 3) as f64,
                    4.0 + 2.0 * (i % 2) as f64,
                ));
                // Late stragglers keep profiling/backlog triggers
                // firing while earlier jobs finish into windows.
                arrivals.push(if i % 2 == 0 { 0.0 } else { 120.0 });
            }
            let cfg = SimConfig {
                machines: 8,
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::Adaptive,
                straggler_cv: 0.0,
                waiting_reschedule_threshold: 2,
                coalesced_passes: true,
                coalesce_window: window,
                coalesce_max_batch: 64,
                ..SimConfig::default()
            };
            let r = Driver::run(cfg, specs, arrivals);
            prop_assert_eq!(r.completed(), njobs);
            prop_assert_eq!(r.coalesced_finishes, njobs);
            prop_assert_eq!(r.coalesce_windows, r.coalesce_staleness.count() as usize);
            prop_assert!(r.resched_reasons.window_flush <= r.coalesce_windows);
            if let Some(max) = r.coalesce_staleness.max() {
                prop_assert!(max <= window + 1e-9);
            }
        }
    }
}

mod try_run_validation {
    //! Malformed run requests come back as errors, not panics
    //! (regression for the old `assert_eq!` length check in `run`).

    use super::*;

    #[test]
    fn try_run_rejects_mismatched_arrival_lengths() {
        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0], // two specs, one arrival
        )
        .expect_err("length mismatch must be an error, not a panic");
        assert!(err.contains("arrival"), "unhelpful error: {err}");
        assert!(
            err.contains('2') && err.contains('1'),
            "counts absent: {err}"
        );
    }

    #[test]
    fn try_run_rejects_invalid_specs_and_arrival_times() {
        let mut bad = spec("broken", 0.0, 10.0, 1, 1); // zero COMP cost
        bad.comp_cost = 0.0;
        let err = Driver::try_run(small_cfg(SchedulerKind::Harmony), vec![bad], vec![0.0])
            .expect_err("invalid spec must be an error");
        assert!(err.contains("job 0 spec invalid"), "{err}");

        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, f64::NAN],
        )
        .expect_err("NaN arrival must be an error");
        assert!(err.contains("job 1 arrival"), "{err}");

        let err = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, -5.0],
        )
        .expect_err("negative arrival must be an error");
        assert!(err.contains("job 1 arrival"), "{err}");
    }

    #[test]
    fn try_run_rejects_out_of_range_scripted_shifts() {
        let mut cfg = small_cfg(SchedulerKind::Harmony);
        cfg.comp_shifts = vec![crate::config::CompShift {
            job: 7,
            at_iteration: 1,
            factor: 2.0,
        }];
        let err = Driver::try_run(cfg, two_complementary(), vec![0.0, 0.0])
            .expect_err("out-of-range comp shift must be an error");
        assert!(err.contains("comp shift names job 7"), "{err}");

        let mut cfg = small_cfg(SchedulerKind::Harmony);
        cfg.push_densities = vec![crate::config::PushDensity {
            job: 9,
            density: 0.5,
        }];
        let err = Driver::try_run(cfg, two_complementary(), vec![0.0, 0.0])
            .expect_err("out-of-range push density must be an error");
        assert!(err.contains("push density names job 9"), "{err}");
    }

    #[test]
    fn try_run_rejects_a_sample_interval_that_is_not_a_positive_number() {
        // 0 and negative intervals used to re-arm the sample at the same
        // instant forever; NaN and ∞ recorded one sample and stopped.
        for secs in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig {
                utilization_sample_secs: secs,
                ..small_cfg(SchedulerKind::Harmony)
            };
            let err = Driver::try_run(cfg, two_complementary(), vec![0.0, 0.0])
                .expect_err("a bad sample interval must be an error");
            assert!(err.contains("utilization sample interval"), "{secs}: {err}");
        }
    }

    #[test]
    fn try_run_matches_run_on_a_valid_request() {
        let a = Driver::run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        );
        let b = Driver::try_run(
            small_cfg(SchedulerKind::Harmony),
            two_complementary(),
            vec![0.0, 0.0],
        )
        .expect("valid request");
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }
}

mod seams {
    //! The state machines and pure helpers the handlers are built
    //! from, driven directly — no simulation.

    use super::super::arrivals::{admission_gate, Gate};
    use super::super::resched::{running_grouping, Deferred};
    use super::*;
    use crate::admission::AdmissionDecision;

    #[test]
    fn window_opens_absorbs_and_fills_at_the_cap() {
        let mut w = CoalesceWindow::default();
        assert!(!w.is_open() && !w.batch_full(1));
        let opened = w.defer(100.0, 30.0);
        assert_eq!(
            opened,
            Deferred::Opened {
                flush_at: 130.0,
                gen: 1
            }
        );
        assert!(w.is_open() && !w.batch_full(3));
        assert_eq!(w.defer(110.0, 30.0), Deferred::Absorbed);
        assert!(!w.batch_full(3));
        assert_eq!(w.defer(120.0, 30.0), Deferred::Absorbed);
        assert!(w.batch_full(3), "the third pass reaches a cap of three");
        // Absorbing never re-opens: no second expiry, same generation.
        assert!(w.expires(1));
    }

    #[test]
    fn a_cap_of_one_fills_the_window_as_it_opens() {
        let mut w = CoalesceWindow::default();
        assert!(matches!(w.defer(5.0, 1e6), Deferred::Opened { .. }));
        assert!(w.batch_full(1));
    }

    #[test]
    fn stale_generation_expiry_is_a_no_op() {
        let mut w = CoalesceWindow::default();
        let Deferred::Opened { gen: first, .. } = w.defer(0.0, 30.0) else {
            panic!("a closed window opens");
        };
        assert!(w.expires(first));
        // Flushed early; its expiry event is still in the queue.
        assert_eq!(w.close(10.0), Some(10.0));
        assert!(!w.expires(first), "closed: nothing to flush");
        // A later window must not be flushed by the earlier expiry.
        let Deferred::Opened { gen: second, .. } = w.defer(20.0, 30.0) else {
            panic!("a closed window opens");
        };
        assert_ne!(first, second);
        assert!(!w.expires(first));
        assert!(w.expires(second));
    }

    #[test]
    fn close_records_staleness_once_and_resets_the_batch() {
        let mut w = CoalesceWindow::default();
        assert_eq!(w.close(1.0), None, "never opened: nothing to record");
        w.defer(40.0, 30.0);
        w.defer(45.0, 30.0);
        assert_eq!(w.close(52.5), Some(12.5));
        assert_eq!(w.close(60.0), None, "one sample per window");
        // The next window counts its batch from one again.
        w.defer(70.0, 30.0);
        assert!(!w.batch_full(2));
        w.defer(71.0, 30.0);
        assert!(w.batch_full(2));
    }

    #[test]
    fn deferral_budget_forces_admit_at_exactly_the_cap() {
        let cfg = SimConfig {
            admission_max_deferrals: 3,
            admission_reoffer_secs: 20.0,
            ..SimConfig::default()
        };
        let gate = |decision, deferrals| admission_gate(decision, deferrals, 100.0, &cfg);
        for deferrals in 0..3 {
            assert_eq!(
                gate(AdmissionDecision::Defer, deferrals),
                Gate::Defer { reoffer_at: 120.0 },
                "budget left after {deferrals} deferrals"
            );
        }
        assert_eq!(gate(AdmissionDecision::Defer, 3), Gate::Forced);
        assert_eq!(gate(AdmissionDecision::Defer, 4), Gate::Forced);
        // An admit is an admit, spent budget or not — never "forced".
        assert_eq!(gate(AdmissionDecision::Admit, 0), Gate::Admit);
        assert_eq!(gate(AdmissionDecision::Admit, 3), Gate::Admit);
    }

    #[test]
    fn reject_is_terminal_whatever_the_budget() {
        let cfg = SimConfig::default();
        for deferrals in [0, cfg.admission_max_deferrals, u32::MAX] {
            assert_eq!(
                admission_gate(AdmissionDecision::Reject, deferrals, 0.0, &cfg),
                Gate::Reject
            );
        }
    }

    #[test]
    fn cluster_view_numbers_machines_without_collision_or_overflow() {
        // A 10 001-machine group next to another, at slot indices past
        // `u32::MAX / 10_000`: ids derived from the slot index would
        // collide across the two groups and overflow `u32`.
        let group = |id: usize, machines: u32, job: usize| {
            let mut g = GroupSim::new(id, machines, 1, 2, 0.0, 0.0);
            g.jobs.push(job);
            g
        };
        let (big, small) = (group(450_000, 10_001, 0), group(450_001, 7, 1));
        let mut host = group(450_002, 3, 2);
        host.profiling_host = true;
        let (grouping, profiling_held) = running_grouping([&big, &small, &host].into_iter());
        assert_eq!(profiling_held, 3);
        assert_eq!(
            grouping.len(),
            2,
            "the profiling host is not a running group"
        );
        grouping.validate().expect("machine ids are unique");
        let dops: Vec<u32> = grouping.groups().iter().map(|g| g.dop()).collect();
        assert_eq!(dops, vec![10_001, 7]);
        assert_eq!(grouping.groups()[1].id().index(), 450_001);
    }
}

/// Groups on their own clocks, and the keyed noise that lets them run
/// apart.
mod group_clocks {
    use std::collections::HashMap;

    use harmony_core::job::SyncKind;
    use harmony_mem::GcModel;
    use harmony_trace::{workload_with, WorkloadParams};

    use super::*;
    use crate::admission::{QueueCap, UtilityThreshold};
    use crate::config::CompShift;
    use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
    use crate::noise::DrawKey;
    use crate::workload::WorkloadGenConfig;

    fn specs(hyper_params: u32, take: usize) -> Vec<JobSpec> {
        workload_with(WorkloadParams {
            hyper_params,
            epoch_scale: 0.3,
            ..WorkloadParams::default()
        })
        .into_iter()
        .take(take)
        .collect()
    }

    fn cfg(machines: u32) -> SimConfig {
        SimConfig {
            machines,
            scheduler: SchedulerKind::Harmony,
            seed: 17,
            ..SimConfig::default()
        }
    }

    /// `harmony_trace::faults::churn`, built against this crate's own
    /// `FaultPlan` (the trace crate links the other copy of it).
    fn churn(seed: u64, horizon_secs: f64, mtbf_secs: f64) -> FaultPlan {
        let rates = FaultRates {
            crash_mtbf_secs: Some(mtbf_secs),
            slowdown_mtbf_secs: Some(mtbf_secs),
            abort_mtbf_secs: Some(mtbf_secs),
            ..FaultRates::default()
        };
        FaultPlan::generate(seed, horizon_secs, &rates)
    }

    fn staggered(n: usize, gap: f64) -> Vec<f64> {
        (0..n).map(|i| gap * i as f64).collect()
    }

    fn batch(cfg: SimConfig, jobs: Vec<JobSpec>) -> RunReport {
        let arrivals = vec![0.0; jobs.len()];
        Driver::run(cfg, jobs, arrivals)
    }

    fn spaced(cfg: SimConfig, jobs: Vec<JobSpec>, gap: f64) -> RunReport {
        let arrivals = staggered(jobs.len(), gap);
        Driver::run(cfg, jobs, arrivals)
    }

    type Scenario = Box<dyn Fn() -> RunReport>;

    /// The scenarios of `tests/golden_digests.rs`' named cells: every
    /// scheduler kind, coalescing, admission, faults, error injection,
    /// drift migration and heavy stragglers.
    fn golden_scenarios() -> Vec<(&'static str, Scenario)> {
        let drift_spec = |name: &str, app: AppKind, comp: f64, net: f64, epochs: u32| JobSpec {
            name: name.into(),
            app,
            dataset: "synthetic".into(),
            input_bytes: 2 << 30,
            model_bytes: 64 << 20,
            comp_cost: comp,
            net_cost: net,
            sync: SyncKind::ParameterServer,
            pull_fraction: 0.5,
            iters_per_epoch: 10,
            target_epochs: epochs,
        };
        let drift_jobs = vec![
            drift_spec("victim", AppKind::Mlr, 60.0, 4.0, 8),
            drift_spec("net-a", AppKind::Lda, 16.0, 12.0, 12),
            drift_spec("net-b", AppKind::Lda, 16.0, 12.0, 12),
            drift_spec("net-c", AppKind::Nmf, 18.0, 10.0, 12),
            drift_spec("cpu-a", AppKind::Lasso, 120.0, 2.0, 8),
            drift_spec("cpu-b", AppKind::Lasso, 110.0, 2.0, 8),
        ];
        let naive = |seed| SchedulerKind::Naive {
            jobs_per_group: 3,
            seed,
        };
        vec![
            (
                "closed_batch_harmony",
                Box::new(|| batch(cfg(24), specs(3, 20))),
            ),
            (
                "coalesced_batch",
                Box::new(|| {
                    let cfg = SimConfig {
                        coalesced_passes: true,
                        coalesce_window: 200.0,
                        ..cfg(16)
                    };
                    batch(cfg, specs(8, 64))
                }),
            ),
            (
                "open_loop_utility_churn",
                Box::new(|| {
                    let gen = WorkloadGen::new(
                        WorkloadGenConfig {
                            seed: 5,
                            mean_interarrival_secs: 45.0,
                            horizon_secs: 40_000.0,
                            max_jobs: 48,
                        },
                        specs(2, 8),
                    )
                    .expect("valid generator");
                    let cfg = SimConfig {
                        fault_plan: Some(churn(23, 6_000.0, 1_500.0)),
                        ..cfg(16)
                    };
                    let policy = Box::new(UtilityThreshold {
                        threshold: 0.02,
                        reject_after: Some(4),
                    });
                    Driver::run_open_loop(cfg, gen, policy).expect("valid run")
                }),
            ),
            (
                "burst_queue_cap",
                Box::new(|| {
                    let jobs = specs(2, 8);
                    let arrivals = vec![0.0; jobs.len()];
                    Driver::run_admitted(cfg(16), jobs, arrivals, Box::new(QueueCap::new(2)))
                        .expect("valid run")
                }),
            ),
            (
                "abort_before_arrival",
                Box::new(|| {
                    let abort = |at| FaultEvent {
                        at,
                        kind: FaultKind::JobAbort,
                    };
                    let plan = FaultPlan::new(3, vec![abort(10.0), abort(20.0)]);
                    let cfg = SimConfig {
                        fault_plan: Some(plan),
                        ..cfg(8)
                    };
                    Driver::run(cfg, specs(1, 4), vec![500.0, 900.0, 1_300.0, 1_700.0])
                }),
            ),
            (
                "oracle_staggered",
                Box::new(|| {
                    let cfg = SimConfig {
                        scheduler: SchedulerKind::Oracle,
                        ..cfg(12)
                    };
                    spaced(cfg, specs(1, 8), 40.0)
                }),
            ),
            (
                "isolated_staggered",
                Box::new(|| {
                    let cfg = SimConfig {
                        scheduler: SchedulerKind::Isolated,
                        ..cfg(24)
                    };
                    spaced(cfg, specs(2, 16), 25.0)
                }),
            ),
            (
                "naive_staggered",
                Box::new(move || {
                    let cfg = SimConfig {
                        scheduler: naive(2),
                        ..cfg(24)
                    };
                    spaced(cfg, specs(2, 16), 25.0)
                }),
            ),
            (
                "error_injection_exact",
                Box::new(|| {
                    let cfg = SimConfig {
                        error_injection: 0.3,
                        ..cfg(24)
                    };
                    spaced(cfg, specs(3, 20), 15.0)
                }),
            ),
            (
                "error_injection_coalesced",
                Box::new(|| {
                    let cfg = SimConfig {
                        error_injection: 0.3,
                        coalesced_passes: true,
                        coalesce_window: 100.0,
                        ..cfg(16)
                    };
                    batch(cfg, specs(8, 64))
                }),
            ),
            (
                "mtbf_failures",
                Box::new(|| {
                    let cfg = SimConfig {
                        failure_mtbf_secs: Some(400.0),
                        ..cfg(16)
                    };
                    spaced(cfg, specs(2, 12), 20.0)
                }),
            ),
            (
                "drift_live_migration",
                Box::new(move || {
                    let cfg = SimConfig {
                        straggler_cv: 0.0,
                        reload: ReloadPolicy::None,
                        gc: GcModel::new(0.9, 0.0),
                        comp_shifts: vec![CompShift {
                            job: 0,
                            at_iteration: 8,
                            factor: 1.0 / 16.0,
                        }],
                        profile_feedback: true,
                        live_migration: true,
                        ..cfg(10)
                    };
                    batch(cfg, drift_jobs.clone())
                }),
            ),
            (
                "stragglers_static_fit",
                Box::new(|| {
                    let cfg = SimConfig {
                        straggler_cv: 0.25,
                        reload: ReloadPolicy::StaticFit,
                        ..cfg(16)
                    };
                    spaced(cfg, specs(2, 16), 10.0)
                }),
            ),
            (
                "churn_on_baselines",
                Box::new(move || {
                    let cfg = SimConfig {
                        scheduler: naive(4),
                        fault_plan: Some(churn(29, 3_000.0, 1_000.0)),
                        ..cfg(24)
                    };
                    spaced(cfg, specs(2, 16), 25.0)
                }),
            ),
        ]
    }

    /// A group's advance touches only its own state: running every
    /// round's groups in reverse index order moves no byte of any
    /// golden scenario's report.
    #[test]
    fn group_advance_order_leaves_every_byte_alone() {
        for (label, run) in golden_scenarios() {
            let forward = run();
            GROUP_ORDER_REVERSED.set(true);
            let backward = run();
            GROUP_ORDER_REVERSED.set(false);
            assert!(forward.completed() > 0, "{label}: nothing ran");
            assert!(
                forward.canonical_bytes() == backward.canonical_bytes(),
                "{label}: the group order moved the report"
            );
        }
    }

    fn draws(kind: SchedulerKind) -> HashMap<(usize, u64, Phase, u64), u64> {
        let cfg = SimConfig {
            scheduler: kind,
            straggler_cv: 0.1,
            record_spans: true,
            ..cfg(24)
        };
        let r = spaced(cfg, specs(2, 12), 30.0);
        assert_eq!(r.completed(), r.jobs.len());
        r.spans
            .iter()
            .map(|s| ((s.job, s.iteration, s.phase, s.attempt), s.draw.to_bits()))
            .collect()
    }

    /// Every straggler draw is a function of its key: two schedulers
    /// running the same jobs see the same uniform for every `(job,
    /// iteration, phase, attempt)` both of them run.
    #[test]
    fn schedulers_see_the_same_draw_for_every_common_key() {
        let harmony = draws(SchedulerKind::Harmony);
        let isolated = draws(SchedulerKind::Isolated);
        let mut common = 0;
        for (key, bits) in &harmony {
            let Some(other) = isolated.get(key) else {
                continue;
            };
            common += 1;
            assert_eq!(bits, other, "{key:?}");
            let (job, iteration, phase, attempt) = *key;
            let u = DrawKey {
                job,
                iteration,
                phase,
                attempt,
            }
            .uniform(17);
            assert_eq!(*bits, u.to_bits(), "{key:?}");
        }
        // Only the runs Harmony's migrations cut short are replayed
        // under new keys: most subtasks both schedules run share one.
        assert!(
            common > 300 && 4 * common >= 3 * isolated.len(),
            "only {common} keys in common of {} and {}",
            harmony.len(),
            isolated.len()
        );
    }
}
