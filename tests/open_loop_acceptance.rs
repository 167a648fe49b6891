//! Acceptance gate for the open-loop arrival layer
//! (`Driver::run_open_loop`) and its admission policies.
//!
//! The churn matrix runs seeded open-loop traffic (exponential
//! interarrivals, specs sampled from the Table I catalog) across
//! schedulers × arrival rates × fault plans and holds three families
//! of guarantees at once:
//!
//! - **Byte-compatibility.** `run_open_loop` with `AdmitAll` is
//!   byte-identical (`RunReport::canonical_bytes`) to `Driver::run` on
//!   the captured trace, for every scheduler kind; a fixed generator
//!   seed replays the whole run bit-for-bit; `UtilityThreshold(0)` is
//!   `AdmitAll` byte for byte.
//! - **Quantified bounds.** Under churn the coalesced reschedule mode
//!   keeps mean JCT and final utilization within 1% of the exact arm —
//!   the same budget `tests/coalesce_acceptance.rs` holds for batch
//!   workloads.
//! - **Admission invariants.** Books balance (every offered job ends
//!   admitted, rejected or — killed by a fault while still queued —
//!   withdrawn, exactly once; rejected report rows match the rejected
//!   counter), no admitted job is lost, and the driver's
//!   starvation guard bounds queue wait at
//!   `admission_max_deferrals × admission_reoffer_secs` even against a
//!   policy that defers forever.

use harmony::core::JobSpec;
use harmony::sim::{
    AdmissionContext, AdmissionDecision, AdmissionPolicy, AdmitAll, Driver, FaultEvent, FaultKind,
    FaultPlan, QueueCap, ReloadPolicy, RunReport, SchedulerKind, SimConfig, UtilityThreshold,
    WorkloadGen, WorkloadGenConfig,
};
use harmony::trace::{faults, workload_with, WorkloadParams};

/// Relative mean-JCT bound and absolute utilization-fraction bound —
/// the same budget the coalesce acceptance matrix holds.
const JCT_TOLERANCE: f64 = 0.01;
const UTIL_TOLERANCE: f64 = 0.01;

/// A small template catalog cut from the Table I workload.
fn templates(take: usize) -> Vec<JobSpec> {
    workload_with(WorkloadParams {
        hyper_params: 2,
        epoch_scale: 0.3,
        ..WorkloadParams::default()
    })
    .into_iter()
    .take(take)
    .collect()
}

fn gen_for(seed: u64, mean_interarrival: f64, max_jobs: usize) -> WorkloadGen {
    WorkloadGen::new(
        WorkloadGenConfig {
            seed,
            mean_interarrival_secs: mean_interarrival,
            horizon_secs: 40_000.0,
            max_jobs,
        },
        templates(6),
    )
    .expect("valid generator")
}

fn open_cfg(kind: SchedulerKind, machines: u32) -> SimConfig {
    SimConfig {
        machines,
        scheduler: kind,
        straggler_cv: 0.0,
        seed: 9,
        ..SimConfig::default()
    }
}

/// Admission bookkeeping that must hold for every open-loop run:
/// every offered job is decided exactly once, decisions and report
/// rows agree, and no admitted job vanishes.
fn assert_books_balance(label: &str, r: &RunReport) {
    let offered = r.jobs.len() as u64;
    let adm = &r.admission;
    assert_eq!(
        adm.admitted + adm.rejected + adm.withdrawn,
        offered,
        "{label}: every job must be booked exactly once \
         (admitted {} + rejected {} + withdrawn {} vs {} offered)",
        adm.admitted,
        adm.rejected,
        adm.withdrawn,
        offered
    );
    assert_eq!(
        r.jobs.iter().filter(|j| j.rejected).count() as u64,
        adm.rejected,
        "{label}: rejected rows out of sync with the rejected counter"
    );
    assert!(
        adm.forced <= adm.admitted,
        "{label}: forced admissions are a subset of admissions"
    );
    assert_eq!(
        adm.queue_wait.count(),
        adm.admitted,
        "{label}: one queue-wait sample per admitted job"
    );
    for j in &r.jobs {
        if j.rejected {
            assert!(j.failed, "{label}: {} rejected but not failed", j.name);
            assert!(
                j.finish.is_none(),
                "{label}: {} rejected yet finished",
                j.name
            );
            assert_eq!(
                j.iterations, 0,
                "{label}: {} rejected after running iterations",
                j.name
            );
        } else {
            // No admitted job lost: with no fault plan in play every
            // admitted job must run to completion (callers pass faults
            // through `allow_failures` cells instead of this helper).
            assert!(
                j.finish.is_some() || j.failed,
                "{label}: {} neither finished nor terminal",
                j.name
            );
        }
    }
}

/// The driver-side starvation guard: no queue wait may exceed the
/// deferral budget times the re-offer interval.
fn assert_starvation_bound(label: &str, cfg: &SimConfig, r: &RunReport) {
    if let Some(max) = r.admission.queue_wait.max() {
        let bound = f64::from(cfg.admission_max_deferrals) * cfg.admission_reoffer_secs;
        assert!(
            max <= bound + 1e-6,
            "{label}: queue wait {max:.1}s exceeds the starvation bound {bound:.1}s"
        );
    }
}

// --------------------------------------------------------------------
// Byte-compatibility.
// --------------------------------------------------------------------

/// The tentpole equivalence: an open-loop run under `AdmitAll` is the
/// closed-loop run of its captured trace, byte for byte, under every
/// scheduler kind.
#[test]
fn admit_all_is_byte_identical_to_closed_loop() {
    for (label, kind, max_jobs) in [
        ("harmony", SchedulerKind::Harmony, 16),
        ("oracle", SchedulerKind::Oracle, 10),
        ("isolated", SchedulerKind::Isolated, 12),
        (
            "naive",
            SchedulerKind::Naive {
                jobs_per_group: 3,
                seed: 4,
            },
            12,
        ),
    ] {
        let gen = gen_for(21, 120.0, max_jobs);
        let (specs, arrivals) = gen.clone().generate();
        assert!(!specs.is_empty(), "{label}: generator produced no jobs");
        let cfg = open_cfg(kind.clone(), 16);
        let closed = Driver::run(cfg.clone(), specs, arrivals);
        let open = Driver::run_open_loop(cfg, gen, Box::new(AdmitAll)).expect("valid run");
        assert_eq!(
            open.canonical_bytes(),
            closed.canonical_bytes(),
            "{label}: AdmitAll open loop diverged from the captured closed loop"
        );
        assert_eq!(open.admission.admitted as usize, open.jobs.len());
        assert_eq!(open.admission.rejected, 0);
        assert_books_balance(label, &open);
    }
}

/// A fixed generator seed replays the entire run bit-identically;
/// changing the seed changes the trace.
#[test]
fn fixed_seed_open_loop_replays_bit_identically() {
    let cfg = open_cfg(SchedulerKind::Harmony, 16);
    let run = |seed: u64| {
        Driver::run_open_loop(cfg.clone(), gen_for(seed, 90.0, 14), Box::new(AdmitAll))
            .expect("valid run")
    };
    let a = run(33);
    let b = run(33);
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same seed must replay bit-identically"
    );
    let c = run(34);
    assert_ne!(
        a.canonical_bytes(),
        c.canonical_bytes(),
        "different seeds must sample different traces"
    );
}

/// A zero threshold asks for no pricing and admits everything:
/// `UtilityThreshold(0)` must be `AdmitAll`, byte for byte.
#[test]
fn utility_threshold_zero_is_admit_all() {
    let cfg = open_cfg(SchedulerKind::Harmony, 16);
    let all = Driver::run_open_loop(cfg.clone(), gen_for(5, 100.0, 12), Box::new(AdmitAll))
        .expect("valid run");
    let zero = Driver::run_open_loop(
        cfg,
        gen_for(5, 100.0, 12),
        Box::new(UtilityThreshold::new(0.0)),
    )
    .expect("valid run");
    assert_eq!(all.canonical_bytes(), zero.canonical_bytes());
    assert_eq!(zero.admission.admitted as usize, zero.jobs.len());
}

// --------------------------------------------------------------------
// The churn matrix: schedulers × arrival rates × fault plans.
// --------------------------------------------------------------------

/// Coalesced reschedule passes keep their 1% JCT/utilization budget
/// under open-loop churn, and the admission invariants hold in every
/// cell; each cell's coalesced arm replays bit-identically.
#[test]
fn churn_matrix_holds_the_one_percent_bound() {
    // (label, scheduler, mean interarrival, max jobs, fault plan).
    let cells: &[(&str, SchedulerKind, f64, usize, Option<FaultPlan>)] = &[
        ("harmony-fast", SchedulerKind::Harmony, 40.0, 16, None),
        ("harmony-slow", SchedulerKind::Harmony, 200.0, 12, None),
        (
            "harmony-crash",
            SchedulerKind::Harmony,
            120.0,
            12,
            Some(FaultPlan::single_crash(42, 900.0)),
        ),
        ("oracle-fast", SchedulerKind::Oracle, 40.0, 10, None),
        ("oracle-slow", SchedulerKind::Oracle, 200.0, 8, None),
    ];
    for (label, kind, mean, max_jobs, plan) in cells {
        let gen = gen_for(77, *mean, *max_jobs);
        let coalesced_cfg = SimConfig {
            coalesced_passes: true,
            // Short window, as in the batch acceptance matrix: tiny
            // workloads run few passes, so one deferred decision
            // carries a lot of weight.
            coalesce_window: 5.0,
            fault_plan: plan.clone(),
            ..open_cfg(kind.clone(), 16)
        };
        let exact_cfg = SimConfig {
            coalesced_passes: false,
            ..coalesced_cfg.clone()
        };
        let exact =
            Driver::run_open_loop(exact_cfg, gen.clone(), Box::new(AdmitAll)).expect("valid run");
        let coal = Driver::run_open_loop(coalesced_cfg.clone(), gen.clone(), Box::new(AdmitAll))
            .expect("valid run");

        assert_eq!(
            coal.completed(),
            exact.completed(),
            "{label}: completed-job count diverged"
        );
        let jct_delta = (coal.mean_jct() - exact.mean_jct()).abs() / exact.mean_jct().max(1e-9);
        assert!(
            jct_delta <= JCT_TOLERANCE,
            "{label}: mean JCT drifted {:.3}% (coalesced {:.1}s vs exact {:.1}s)",
            jct_delta * 100.0,
            coal.mean_jct(),
            exact.mean_jct(),
        );
        let cpu_delta = (coal.avg_cpu_util(16) - exact.avg_cpu_util(16)).abs();
        let net_delta = (coal.avg_net_util(16) - exact.avg_net_util(16)).abs();
        assert!(
            cpu_delta <= UTIL_TOLERANCE && net_delta <= UTIL_TOLERANCE,
            "{label}: utilization drifted (cpu Δ{cpu_delta:.4}, net Δ{net_delta:.4})"
        );
        // Admission invariants hold in both arms; crashes only roll
        // jobs back to checkpoints, they never lose an admitted job.
        assert_books_balance(label, &exact);
        assert_books_balance(label, &coal);
        // And the cell replays bit-identically.
        let replay = Driver::run_open_loop(coalesced_cfg, gen.clone(), Box::new(AdmitAll))
            .expect("valid run");
        assert_eq!(
            coal.canonical_bytes(),
            replay.canonical_bytes(),
            "{label}: churn cell must replay bit-identically"
        );
    }
}

// --------------------------------------------------------------------
// Admission edge cases.
// --------------------------------------------------------------------

/// A burst (every job at `t = 0`) through `QueueCap` with room for the
/// whole burst admits everything instantly — byte-identical to the
/// closed loop. A tight cap defers but still completes every job with
/// balanced books.
#[test]
fn queue_cap_burst_matches_closed_loop_when_roomy() {
    let specs = templates(8);
    let arrivals = vec![0.0; specs.len()];
    let cfg = open_cfg(SchedulerKind::Harmony, 16);

    let closed = Driver::run(cfg.clone(), specs.clone(), arrivals.clone());
    let roomy = Driver::run_admitted(
        cfg.clone(),
        specs.clone(),
        arrivals.clone(),
        Box::new(QueueCap::new(specs.len())),
    )
    .expect("valid run");
    assert_eq!(
        roomy.canonical_bytes(),
        closed.canonical_bytes(),
        "a cap covering the whole burst must preserve closed-loop ordering"
    );

    let tight = Driver::run_admitted(cfg.clone(), specs, arrivals, Box::new(QueueCap::new(2)))
        .expect("valid run");
    assert_eq!(tight.admission.rejected, 0, "a cap defers, never rejects");
    assert!(
        tight.admission.deferred > 0,
        "a 2-deep cap must defer part of an 8-job burst"
    );
    assert_eq!(tight.completed(), tight.jobs.len());
    assert_books_balance("queue-cap-tight", &tight);
    assert_starvation_bound("queue-cap-tight", &cfg, &tight);
}

/// Wraps a policy and records the backlog every offer was shown.
struct RecordBacklog<P> {
    inner: P,
    seen: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
}

impl<P: AdmissionPolicy> AdmissionPolicy for RecordBacklog<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        self.seen.borrow_mut().push(ctx.backlog);
        self.inner.decide(ctx)
    }
}

/// Backlog goes by arrival *time*, not by arrival event: in a burst at
/// `t = 0` every offer must already count the same-instant jobs whose
/// own `Arrival` event has not fired yet. Brute force for the first
/// round under `QueueCap(2)`: offer `i` sees the `7 - i` burst members
/// behind it still `Waiting`, plus those ahead of it that were deferred
/// (admitted ones are `Profiling`, no longer backlog).
#[test]
fn burst_backlog_counts_same_instant_offers() {
    let specs = templates(8);
    let n = specs.len();
    let arrivals = vec![0.0; n];
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let cap = 2;
    let r = Driver::run_admitted(
        open_cfg(SchedulerKind::Harmony, 16),
        specs,
        arrivals,
        Box::new(RecordBacklog {
            inner: QueueCap::new(cap),
            seen: seen.clone(),
        }),
    )
    .expect("valid run");
    let seen = seen.borrow();
    let mut deferred_ahead = 0;
    for (i, &backlog) in seen.iter().take(n).enumerate() {
        let brute_force = (n - 1 - i) + deferred_ahead;
        assert_eq!(backlog, brute_force, "offer {i} of the burst");
        if backlog >= cap {
            deferred_ahead += 1;
        }
    }
    assert_eq!(
        seen.len() as u64,
        r.admission.admitted + r.admission.deferred,
        "one backlog reading per offer"
    );
    assert_books_balance("burst-backlog", &r);
}

/// A fault-plan abort that finds nothing placed falls back to any live
/// job — here an offer still queued behind an always-defer policy. It
/// was never admitted and never rejected; it must be booked as
/// withdrawn or the books come up one short.
#[test]
fn abort_of_a_queued_offer_is_booked_as_withdrawn() {
    let specs = templates(3);
    let arrivals = vec![0.0; specs.len()];
    let mut cfg = open_cfg(SchedulerKind::Harmony, 16);
    cfg.admission_reoffer_secs = 20.0;
    // Fires between the first offers (all deferred) and the re-offers.
    cfg.fault_plan = Some(faults::scripted(5, [(10.0, FaultKind::JobAbort)]));
    let r =
        Driver::run_admitted(cfg, specs, arrivals, Box::new(QueueCap::new(0))).expect("valid run");
    assert_eq!(r.jobs_aborted, 1);
    assert_eq!(r.admission.withdrawn, 1, "the victim was still queued");
    assert_eq!(r.admission.admitted, 2);
    assert_eq!(r.admission.rejected, 0);
    let victim = r.jobs.iter().find(|j| j.aborted).expect("one victim");
    assert!(victim.failed && !victim.rejected && victim.iterations == 0);
    assert_eq!(r.completed(), 2, "the survivors are admitted and finish");
    assert_books_balance("queued-abort", &r);
}

/// The benchmark's finding, at acceptance scale: under `faults::churn`
/// the books balance in every cell once withdrawn offers are counted —
/// including aborts that land on offers not yet arrived.
#[test]
fn churn_plan_books_balance_with_withdrawals() {
    let mut withdrawn = 0;
    for seed in 0..6u64 {
        let cfg = SimConfig {
            fault_plan: Some(faults::churn(seed, 12_000.0, 1_200.0)),
            ..open_cfg(SchedulerKind::Harmony, 12)
        };
        let r = Driver::run_open_loop(
            cfg,
            // Sparse arrivals: aborts that find the cluster idle fall
            // back to queued and future offers.
            gen_for(40 + seed, 600.0, 20),
            Box::new(UtilityThreshold {
                threshold: 0.02,
                reject_after: Some(6),
            }),
        )
        .expect("valid run");
        assert!(r.jobs_aborted > 0, "seed {seed}: the plan must abort jobs");
        assert_books_balance(&format!("churn-{seed}"), &r);
        withdrawn += r.admission.withdrawn;
    }
    assert!(withdrawn > 0, "no cell exercised a withdrawn offer");
}

/// A policy that defers every offer cannot starve jobs: the driver
/// force-admits once the deferral budget is spent, so every job still
/// completes inside the documented queue-wait bound.
#[test]
fn starvation_guard_bounds_an_always_defer_policy() {
    let mut cfg = open_cfg(SchedulerKind::Harmony, 16);
    cfg.admission_max_deferrals = 3;
    cfg.admission_reoffer_secs = 20.0;
    // Backlog is never below zero, so `QueueCap(0)` defers every offer.
    let r = Driver::run_open_loop(
        cfg.clone(),
        gen_for(13, 150.0, 8),
        Box::new(QueueCap::new(0)),
    )
    .expect("valid run");
    let n = r.jobs.len() as u64;
    assert_eq!(r.admission.forced, n, "every admission must be forced");
    assert_eq!(r.admission.admitted, n);
    assert_eq!(r.admission.rejected, 0);
    assert_eq!(
        r.admission.deferred,
        n * u64::from(cfg.admission_max_deferrals),
        "each job burns the whole deferral budget"
    );
    assert_eq!(r.completed(), r.jobs.len(), "no admitted job may be lost");
    assert_books_balance("always-defer", &r);
    assert_starvation_bound("always-defer", &cfg, &r);
    // The bound is tight here: every job waits exactly the budget.
    let max = r.admission.queue_wait.max().expect("jobs were admitted");
    let bound = f64::from(cfg.admission_max_deferrals) * cfg.admission_reoffer_secs;
    assert!((max - bound).abs() <= 1e-6, "wait {max} vs bound {bound}");
}

/// A cluster whose machines all crashed before traffic started rejects
/// every arrival — terminal, never scheduled, books balanced.
#[test]
fn dead_cluster_rejects_every_arrival() {
    let crash_all = FaultPlan::new(
        7,
        vec![
            FaultEvent {
                at: 0.0,
                kind: FaultKind::MachineCrash,
            };
            2
        ],
    );
    let cfg = SimConfig {
        fault_plan: Some(crash_all),
        ..open_cfg(SchedulerKind::Harmony, 2)
    };
    for policy in [
        Box::new(AdmitAll) as Box<dyn harmony::sim::AdmissionPolicy>,
        Box::new(QueueCap::new(4)),
        Box::new(UtilityThreshold::new(0.5)),
    ] {
        let r =
            Driver::run_open_loop(cfg.clone(), gen_for(3, 200.0, 6), policy).expect("valid run");
        assert_eq!(r.completed(), 0);
        assert_eq!(
            r.admission.admitted, 0,
            "nothing to admit on a dead cluster"
        );
        assert_eq!(r.admission.rejected, r.jobs.len() as u64);
        assert!(r.jobs.iter().all(|j| j.rejected && j.failed));
        assert_books_balance("dead-cluster", &r);
    }
}

/// `UtilityThreshold` with a positive threshold prices offers against
/// live cluster state: it still completes everything it admits, keeps
/// its books balanced, and respects the starvation bound.
#[test]
fn utility_threshold_prices_offers_and_keeps_its_books() {
    let cfg = open_cfg(SchedulerKind::Harmony, 12);
    let r = Driver::run_open_loop(
        cfg.clone(),
        gen_for(19, 60.0, 14),
        Box::new(UtilityThreshold::new(0.05)),
    )
    .expect("valid run");
    assert!(r.admission.admitted > 0, "some offers must clear the bar");
    assert_books_balance("utility-priced", &r);
    assert_starvation_bound("utility-priced", &cfg, &r);
    // Replay determinism holds with pricing in the loop too.
    let replay = Driver::run_open_loop(
        cfg,
        gen_for(19, 60.0, 14),
        Box::new(UtilityThreshold::new(0.05)),
    )
    .expect("valid run");
    assert_eq!(r.canonical_bytes(), replay.canonical_bytes());
}

/// The OASiS-style claim at a saturating rate: 40 offers arrive on 25
/// machines far faster than they drain, so admit-everything
/// over-subscribes memory and pays for it in GC stretch and a long
/// low-parallelism drain tail, while utility-priced admission sheds
/// load and keeps the cluster busy. The operating point is the
/// saturating rung of the retired open-loop perf sweep (e58d389). The
/// two utilizations (0.7305 priced, 0.3316 admit-all) were re-measured
/// when straggler noise became keyed: the priced run is bimodal in the
/// noise (0.73 or 0.89 across seeds, before and after), and seed 0
/// moved from the high mode to the low one.
#[test]
fn utility_pricing_holds_utilization_at_the_saturating_rate() {
    let priced = saturating_run(priced_at_saturation(), 0);
    let admit_all = saturating_run(Box::new(AdmitAll), 0);
    assert_books_balance("saturating priced", &priced);
    assert_books_balance("saturating admit-all", &admit_all);
    let (p, a) = (
        priced.avg_cpu_util(SATURATING_MACHINES),
        admit_all.avg_cpu_util(SATURATING_MACHINES),
    );
    assert!(
        p >= a,
        "utility-priced admission lost utilization to admit-everything: {p:.4} vs {a:.4}"
    );
    assert!((p - 0.7305).abs() <= 0.05, "priced cpu util moved: {p:.4}");
    assert!(
        (a - 0.3316).abs() <= 0.05,
        "admit-all cpu util moved: {a:.4}"
    );
}

/// The pin above reads one noise draw of a bimodal outcome. Over noise
/// seeds 0–7, priced utilization held at or above admit-all's on 8 of
/// 8 seeds at the commit before α moved onto its block grid; that count
/// is the bound.
#[test]
fn utility_pricing_holds_utilization_across_seeds() {
    let held = (0..8)
        .filter(|&seed| {
            let p = saturating_run(priced_at_saturation(), seed);
            let a = saturating_run(Box::new(AdmitAll), seed);
            p.avg_cpu_util(SATURATING_MACHINES) >= a.avg_cpu_util(SATURATING_MACHINES)
        })
        .count();
    assert!(
        held >= 8,
        "priced utilization held admit-all's on {held} of seeds 0-7"
    );
}

const SATURATING_OFFERS: usize = 40;
const SATURATING_MACHINES: u32 = 25;

/// The saturating-rate run under `policy`, straggler noise seeded by
/// `seed`.
fn saturating_run(policy: Box<dyn AdmissionPolicy>, seed: u64) -> RunReport {
    let templates = workload_with(WorkloadParams {
        hyper_params: 5,
        ..WorkloadParams::default()
    });
    let gen = WorkloadGen::new(
        WorkloadGenConfig {
            seed: 4242,
            mean_interarrival_secs: 60.0,
            horizon_secs: 60.0 * SATURATING_OFFERS as f64 * 20.0,
            max_jobs: SATURATING_OFFERS,
        },
        templates,
    )
    .expect("valid generator");
    let cfg = SimConfig {
        machines: SATURATING_MACHINES,
        scheduler: SchedulerKind::Harmony,
        reload: ReloadPolicy::Adaptive,
        seed,
        ..SimConfig::default()
    };
    let r = Driver::run_open_loop(cfg, gen, policy).expect("valid run");
    assert_eq!(
        r.jobs.len(),
        SATURATING_OFFERS,
        "the cap, not the horizon, ends the trace"
    );
    r
}

fn priced_at_saturation() -> Box<dyn AdmissionPolicy> {
    Box::new(UtilityThreshold {
        threshold: 0.02,
        reject_after: Some(8),
    })
}
