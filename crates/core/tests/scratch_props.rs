//! Property tests for the profile cache's in-place update
//! ([`ProfileCache::sync`]): over *arbitrary* dirty subsets —
//! any number of jobs re-observed with any new durations, densities
//! and DoPs, in any order — the incrementally repaired cache must be
//! byte-identical ([`ProfileCache::state_bytes`]) to a cache built
//! from scratch over the same profiles. This is the load-bearing
//! guarantee behind every decision made through a reused cache
//! (`Scheduler::schedule_reusing`, the release pass, admission
//! pricing): the simulator's golden digests only prove end-to-end
//! runs; these tests pin the cache layer in isolation, including the
//! shape-change fallback and a PUSH density crossing the trust
//! threshold, which moves a job's priced `Tnet`.

use harmony_core::job::JobId;
use harmony_core::profile::JobProfile;
use harmony_core::scratch::ProfileCache;
use proptest::prelude::*;

/// A warm profile seeded from reference durations, one density
/// measurement short of trusted: the next touch of the job makes its
/// density price the wire.
fn seed_profile(i: u64, tcpu1: f64, tnet: f64, density: f64) -> JobProfile {
    let mut p = JobProfile::from_reference(JobId::new(i), tcpu1, tnet);
    for _ in 1..JobProfile::DENSITY_TRUST_ITERS {
        p.observe_push_density(density);
    }
    p
}

/// A cache synced from empty: the from-scratch state every reused
/// cache is compared against.
fn fresh_cache(jobs: &[JobProfile]) -> ProfileCache {
    let mut cache = ProfileCache::empty();
    cache.sync(jobs);
    cache
}

/// One re-observation of an existing job: `(which, tcpu, tnet, dop,
/// density)` — `which` is reduced modulo the population.
type Touch = (usize, f64, f64, u32, f64);

fn apply_touches(jobs: &mut [JobProfile], touches: &[Touch]) {
    for &(which, tcpu, tnet, dop, density) in touches {
        let p = &mut jobs[which % jobs.len()];
        p.observe_iteration(tcpu / f64::from(dop), tnet, dop);
        p.observe_push_density(density);
    }
}

fn seeds() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec(
        (
            0.01f64..100.0, // tcpu1
            0.0f64..10.0,   // tnet (zero allowed: exercises the ∞/0 ratio keys)
            0.05f64..1.0,   // push density
        ),
        1..40,
    )
}

fn touches() -> impl Strategy<Value = Vec<Touch>> {
    prop::collection::vec(
        (
            0usize..usize::MAX,
            0.01f64..100.0,
            0.0f64..10.0,
            1u32..32,
            0.05f64..1.0,
        ),
        0..30,
    )
}

fn seeded(seeds: &[(f64, f64, f64)]) -> Vec<JobProfile> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &(c, t, d))| seed_profile(i as u64, c, t, d))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core identity: seed a population, build the cache, touch an
    /// arbitrary subset of jobs (possibly none, possibly all of them,
    /// possibly several times each), then `sync` — the cache
    /// state must equal a from-scratch build bit for bit.
    #[test]
    fn dirty_rebuild_matches_full_build(
        seeds in seeds(),
        touches in touches(),
    ) {
        let mut jobs = seeded(&seeds);
        let mut cache = fresh_cache(&jobs);

        apply_touches(&mut jobs, &touches);
        cache.sync(&jobs);

        let fresh = fresh_cache(&jobs);
        prop_assert_eq!(
            cache.state_bytes(),
            fresh.state_bytes(),
            "incremental repair diverged from a full build \
             ({} jobs, {} touches)",
            jobs.len(),
            touches.len(),
        );
    }

    /// Repeated incremental rounds never drift: the same cache is
    /// repaired through several touch batches in sequence (the
    /// simulator's steady state) and must still match a fresh build
    /// after every round.
    #[test]
    fn chained_dirty_rebuilds_stay_identical(
        seeds in seeds(),
        rounds in prop::collection::vec(touches(), 1..4),
    ) {
        let mut jobs = seeded(&seeds);
        let mut cache = fresh_cache(&jobs);
        for (round, batch) in rounds.iter().enumerate() {
            apply_touches(&mut jobs, batch);
            cache.sync(&jobs);
            let fresh = fresh_cache(&jobs);
            prop_assert_eq!(
                cache.state_bytes(),
                fresh.state_bytes(),
                "drift after round {}",
                round,
            );
        }
    }

    /// Shape changes — the job *list* differs, not just the values —
    /// and a density crossing the trust threshold must land on the
    /// state of a cache synced from empty: a shorter list, a longer
    /// one, the same length with one id swapped, a permutation of the
    /// same ids, and the same list with one job's priced `Tnet` moved
    /// by its density becoming trusted.
    #[test]
    fn shape_and_density_changes_match_a_fresh_sync(
        seeds in seeds(),
        change in 0u8..5,
        at in 0usize..usize::MAX,
    ) {
        let mut jobs = seeded(&seeds);
        let at = at % jobs.len();
        // Every job but `at` trusts its density, so the priced `Tnet`
        // really differs from the raw one.
        for (i, (p, &(_, _, d))) in jobs.iter_mut().zip(&seeds).enumerate() {
            if i != at {
                p.observe_push_density(d);
            }
        }
        let mut cache = fresh_cache(&jobs);
        match change {
            0 if jobs.len() > 1 => {
                jobs.remove(at);
            }
            0 | 1 => jobs.push(seed_profile(jobs.len() as u64, 7.0, 3.0, 0.5)),
            2 => jobs[at] = seed_profile(1_000 + at as u64, 7.0, 3.0, 0.5),
            3 => jobs.rotate_left(at),
            _ => {
                let before = jobs[at].priced_tnet();
                jobs[at].observe_push_density(seeds[at].2);
                prop_assert!(
                    before == 0.0 || jobs[at].priced_tnet() != before,
                    "crossing the trust threshold must move the priced Tnet"
                );
            }
        }
        cache.sync(&jobs);

        let fresh = fresh_cache(&jobs);
        prop_assert_eq!(
            cache.state_bytes(),
            fresh.state_bytes(),
            "change {} at {} of {} jobs",
            change,
            at,
            jobs.len(),
        );
    }

    /// The targeted release pass
    /// ([`harmony_core::schedule::Scheduler::schedule_release`]) rides
    /// the same [`ProfileCache::sync`] pipeline as the full pass: a
    /// persistent cache/scratch pair carried across arbitrary touch
    /// batches — with full passes interleaved to churn the shared
    /// scratch views — must reproduce the decision a fresh pair makes
    /// from scratch, round after round.
    #[test]
    fn release_pass_rides_the_dirty_set_cleanly(
        seeds in seeds(),
        rounds in prop::collection::vec(touches(), 1..4),
        machines in 1u32..24,
    ) {
        use harmony_core::schedule::Scheduler;
        use harmony_core::scratch::ScheduleScratch;

        let mut jobs = seeded(&seeds);
        let sched = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        for (round, batch) in rounds.iter().enumerate() {
            apply_touches(&mut jobs, batch);
            let warm = sched.schedule_release(&jobs, machines, &mut cache, &mut scratch);
            let mut fresh_cache = ProfileCache::empty();
            let mut fresh_scratch = ScheduleScratch::new();
            let fresh =
                sched.schedule_release(&jobs, machines, &mut fresh_cache, &mut fresh_scratch);
            prop_assert_eq!(
                format!("{}", warm.grouping),
                format!("{}", fresh.grouping),
                "release decision drifted after round {}",
                round,
            );
            prop_assert_eq!(warm.utilization, fresh.utilization);
            prop_assert_eq!(warm.unscheduled, fresh.unscheduled);
            // A full pass over the same buffers churns the shared
            // scratch views between release rounds, exactly like the
            // simulator's steady state.
            let _ = sched.schedule_reusing(&jobs, machines, &mut cache, &mut scratch);
        }
    }
}

/// One scratch shared across caches built apart: every cache's
/// generation is drawn from one process-wide counter, so a scratch
/// never mistakes one cache's loaded prefix views for another's, and
/// each price matches the one a fresh scratch gives. (When every fresh
/// cache started at generation 1, pricing six jobs left the scratch
/// holding their five-job prefix, and pricing five other jobs next
/// scored them with those stale views.)
#[test]
fn a_scratch_shared_across_fresh_caches_prices_like_a_fresh_one() {
    use harmony_core::schedule::Scheduler;
    use harmony_core::scratch::ScheduleScratch;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |lo: f64, hi: f64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let scheduler = Scheduler::default();
    let mut shared = ScheduleScratch::new();
    for _ in 0..50 {
        for n in [6, 5] {
            let jobs: Vec<JobProfile> = (0..n)
                .map(|i| {
                    JobProfile::from_reference(JobId::new(i), draw(1.0, 100.0), draw(0.5, 40.0))
                })
                .collect();
            let machines = draw(2.0, 12.0) as u32;
            let price = |scratch: &mut ScheduleScratch| {
                scheduler.price_candidate(&jobs, machines, &mut ProfileCache::empty(), scratch)
            };
            let reused = price(&mut shared);
            assert_eq!(reused, price(&mut ScheduleScratch::new()));
        }
    }
}
