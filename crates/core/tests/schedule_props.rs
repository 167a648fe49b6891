//! Property tests for the Algorithm 1 fast path: the candidate scan
//! with helper threads must be *byte-identical* to the scan run alone
//! for any thread count — also when the saturation cut ends it early —
//! and machine allocation must hand out exactly the whole cluster,
//! across random profile populations and cluster sizes up to the
//! paper's 10K-machine scale (§V-F).

use harmony_core::job::JobId;
use harmony_core::profile::JobProfile;
use harmony_core::schedule::{ScheduleOutcome, Scheduler, SchedulerConfig};
use proptest::prelude::*;

/// Builds a population of `costs.len()` profiles from raw
/// (Tcpu(1), Tnet) pairs.
fn population(costs: &[(f64, f64)]) -> Vec<JobProfile> {
    costs
        .iter()
        .enumerate()
        .map(|(i, &(comp, net))| JobProfile::from_reference(JobId::new(i as u64), comp, net))
        .collect()
}

/// Every machine is allocated: group machine lists partition
/// `M0..M{M-1}` exactly (validate() checks for duplicates).
fn assert_all_machines_allocated(out: &ScheduleOutcome, machines: u32) {
    out.grouping.validate().expect("valid grouping");
    let assigned: usize = out
        .grouping
        .groups()
        .iter()
        .map(|g| g.machines().len())
        .sum();
    assert_eq!(
        assigned, machines as usize,
        "grouping assigned {assigned} of {machines} machines"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scan with helpers returns the *same `ScheduleOutcome`
    /// value* as the scan run alone for every thread count, on
    /// arbitrary cost populations.
    #[test]
    fn parallel_scan_matches_sequential(
        costs in prop::collection::vec((0.001f64..10.0, 0.001f64..10.0), 1..160),
        machines in 1u32..10_000,
        workers in 2usize..8,
    ) {
        let jobs = population(&costs);
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let seq = scheduler.schedule_with_workers(&jobs, machines, 1);
        let par = scheduler.schedule_with_workers(&jobs, machines, workers);
        prop_assert_eq!(&seq.grouping, &par.grouping);
        prop_assert_eq!(seq, par);
    }

    /// The same on *saturating* populations, where the fold's
    /// saturation cut ends the scan among the first 64 prefixes (the
    /// prefix lengths the scan visits one by one) while helpers are still evaluating later prefixes: jobs with
    /// `Tcpu(1) == Tnet` and sizes within ×1.5 keep a machine's CPU
    /// and network busy three to a machine, so the prefix of
    /// `3 × machines` jobs scores 1.0.
    #[test]
    fn saturating_scan_is_worker_independent(
        sizes in prop::collection::vec(1.0f64..1.5, 60..160),
        machines in 1u32..16,
    ) {
        let costs: Vec<(f64, f64)> = sizes.iter().map(|&c| (c, c)).collect();
        let jobs = population(&costs);
        let cfg = SchedulerConfig::default();
        let scheduler = Scheduler::new(cfg);
        let seq = scheduler.schedule_with_workers(&jobs, machines, 1);
        // The winner is unbeatable, so the scan stopped at it, and it
        // is a prefix of at most 64 jobs that leaves jobs waiting.
        let score = seq.utilization.score(cfg.cpu_weight);
        prop_assert!(score * (1.0 + cfg.min_loop_improvement) >= 1.0 + 1e-5, "score {}", score);
        prop_assert!(seq.grouping.total_jobs() <= 64);
        prop_assert!(!seq.unscheduled.is_empty());
        for workers in [2usize, 3, 8] {
            let par = scheduler.schedule_with_workers(&jobs, machines, workers);
            prop_assert_eq!(&seq, &par, "workers={}", workers);
        }
    }

    /// Whatever grouping wins, the allocator distributes the whole
    /// cluster: every machine lands in exactly one group.
    #[test]
    fn all_machines_are_allocated(
        costs in prop::collection::vec((0.001f64..10.0, 0.001f64..10.0), 1..160),
        machines in 1u32..10_000,
    ) {
        let jobs = population(&costs);
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let out = scheduler.schedule(&jobs, machines);
        assert_all_machines_allocated(&out, machines);
    }

    /// The exact prunes (saturation cut, same-sign swap guards) never
    /// change the decision: the pruned scan equals the pristine
    /// exhaustive one on arbitrary populations, including magnitudes
    /// that straddle the prune guards' error-bound thresholds.
    #[test]
    fn pruned_scan_matches_exhaustive(
        costs in prop::collection::vec((0.001f64..100.0, 0.001f64..100.0), 1..120),
        machines in 1u32..10_000,
    ) {
        let jobs = population(&costs);
        let pruned = Scheduler::new(SchedulerConfig::default());
        let exhaustive = Scheduler::new(SchedulerConfig {
            exact_prunes: false,
            ..SchedulerConfig::default()
        });
        let a = pruned.schedule_with_workers(&jobs, machines, 1);
        let b = exhaustive.schedule_with_workers(&jobs, machines, 1);
        prop_assert_eq!(a, b);
    }

    /// The allocation-free re-entrant path (`schedule_reusing`, warm
    /// cache + scratch carried across decisions) returns exactly what a
    /// fresh `schedule` call does, decision after decision.
    #[test]
    fn reused_scratch_matches_fresh_decisions(
        costs in prop::collection::vec((0.001f64..10.0, 0.001f64..10.0), 1..80),
        machines in 1u32..2_000,
    ) {
        use harmony_core::scratch::{ProfileCache, ScheduleScratch};
        let jobs = population(&costs);
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        // Re-run over shrinking suffixes so every reuse starts from a
        // dirty scratch shaped by a *different* previous population.
        let mut lo = 0usize;
        while lo < jobs.len() {
            let slice = &jobs[lo..];
            let fresh = scheduler.schedule(slice, machines);
            let reused = scheduler.schedule_reusing(slice, machines, &mut cache, &mut scratch);
            prop_assert_eq!(fresh, reused, "suffix starting at {}", lo);
            lo += 1 + lo / 2;
        }
    }
}

/// The same invariants at cluster scale, where the scan runs in
/// sparse mode (population > 1024): one deterministic case keeps the
/// runtime bounded while still exercising the 10K-machine path.
#[test]
fn sparse_mode_scan_is_worker_independent_at_cluster_scale() {
    let costs: Vec<(f64, f64)> = (0..2_000)
        .map(|i| {
            // Deterministic LCG spread over a few orders of magnitude.
            let x = (i as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let a = ((x >> 33) % 1_000) as f64 / 100.0 + 0.01;
            let b = ((x >> 13) % 1_000) as f64 / 200.0 + 0.01;
            (a, b)
        })
        .collect();
    let jobs = population(&costs);
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let machines = 10_000;
    let seq = scheduler.schedule_with_workers(&jobs, machines, 1);
    for workers in [2, 4, 8] {
        let par = scheduler.schedule_with_workers(&jobs, machines, workers);
        assert_eq!(seq, par, "workers={workers} diverged from sequential");
    }
    assert_all_machines_allocated(&seq, machines);
}

/// More scan threads than candidate prefixes, on an input that
/// saturates at its first prefixes: the thread count is clamped and
/// the decision stays the one the calling thread alone makes.
#[test]
fn more_workers_than_prefixes_on_a_saturating_input() {
    let jobs = population(&[(1.0, 1.0), (1.2, 1.2), (1.4, 1.4), (1.1, 1.1), (1.3, 1.3)]);
    let scheduler = Scheduler::new(SchedulerConfig::default());
    // One machine: the first three jobs already keep it saturated.
    let seq = scheduler.schedule_with_workers(&jobs, 1, 1);
    assert_eq!(
        seq.unscheduled.len(),
        2,
        "the scan stops at the third prefix"
    );
    for workers in [2usize, 3, 8, 64] {
        let par = scheduler.schedule_with_workers(&jobs, 1, workers);
        assert_eq!(seq, par, "workers={workers}");
    }
}

/// FNV-1a over everything a `ScheduleOutcome` decides: membership and
/// machine count per group, the utilization and prediction bits, and
/// the jobs left waiting.
fn outcome_digest(out: &ScheduleOutcome) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for g in out.grouping.groups() {
        words.push(g.jobs().len() as u64);
        words.extend(g.jobs().iter().map(|j| j.index()));
        words.push(u64::from(g.dop()));
    }
    words.push(out.utilization.cpu.to_bits());
    words.push(out.utilization.net.to_bits());
    words.extend(out.predicted_iteration.iter().map(|t| t.to_bits()));
    words.extend(out.unscheduled.iter().map(|j| j.index()));
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The targeted release pass, pinned across commits on one input where
/// its saturation cut fires among the first 64 prefixes and one
/// where every prefix is folded. The expected values were captured on
/// the commit before the pass moved onto the full scan's fold; the
/// saturating input's digest was re-captured when every candidate moved
/// onto its prefix's one seed-DoP order (`0x68f4_7fa3_fae6_df0e` →
/// `0x717d_d414_5c77_8756`).
#[test]
fn release_pass_outcomes_are_pinned() {
    use harmony_core::scratch::{ProfileCache, ScheduleScratch};
    let cfg = SchedulerConfig::default();
    let scheduler = Scheduler::new(cfg);
    let exhaustive = Scheduler::new(SchedulerConfig {
        exact_prunes: false,
        ..cfg
    });
    let release = |s: &Scheduler, jobs: &[JobProfile], machines: u32| {
        s.schedule_release(
            jobs,
            machines,
            &mut ProfileCache::empty(),
            &mut ScheduleScratch::new(),
        )
    };

    // Saturating: `Tcpu(1) == Tnet`, sizes within ×1.5 — three jobs
    // to a machine keep CPU and network busy all the time.
    let costs: Vec<(f64, f64)> = (0..150u64)
        .map(|i| {
            let c = 1.0 + (i * 37 % 50) as f64 / 100.0;
            (c, c)
        })
        .collect();
    let jobs = population(&costs);
    let out = release(&scheduler, &jobs, 6);
    let score = out.utilization.score(cfg.cpu_weight);
    assert!(
        score * (1.0 + cfg.min_loop_improvement) >= 1.0 + 1e-5,
        "the winner must be unbeatable, score {score}"
    );
    assert_eq!(out, release(&exhaustive, &jobs, 6), "the cut is exact");
    // 16 of 150 jobs: the cut fired well inside the first 64 prefixes.
    assert_eq!((out.grouping.total_jobs(), out.grouping.len()), (16, 6));
    assert_eq!(outcome_digest(&out), 0x717d_d414_5c77_8756);

    // Non-saturating: a CPU-heavy mix on a large cluster never comes
    // near the score ceiling, so the fold runs to the last prefix.
    let costs: Vec<(f64, f64)> = (0..90u64)
        .map(|i| (1.0 + (i * 37 % 113) as f64, 0.5 + (i * 11 % 23) as f64))
        .collect();
    let jobs = population(&costs);
    let out = release(&scheduler, &jobs, 300);
    let score = out.utilization.score(cfg.cpu_weight);
    assert!(score * (1.0 + cfg.min_loop_improvement) < 1.0 + 1e-5);
    assert_eq!(out, release(&exhaustive, &jobs, 300));
    assert_eq!((out.grouping.total_jobs(), out.grouping.len()), (90, 46));
    assert_eq!(outcome_digest(&out), 0xddf1_a09f_803d_529a);
}
