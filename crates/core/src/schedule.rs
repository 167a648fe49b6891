//! Algorithm 1: grouping jobs and allocating machines (§IV-B3).
//!
//! The scheduling problem — which jobs to co-locate and how many machines
//! to give each group — is exponential, so Harmony uses a scalable
//! heuristic:
//!
//! 1. **Incremental job selection.** Starting from a small prefix of the
//!    schedulable jobs, keep adding jobs while the predicted cluster
//!    utilization `U` improves; stop at the first non-improvement.
//! 2. **Group-count search.** For a candidate job set, pick the number of
//!    groups `n_G*` whose implied uniform DoP (`m = M / n_G`) best
//!    balances each job's `Tcpu(m)` against its `Tnet`
//!    (`argmin Σ_j |Tcpu_j(n_G) − Tnet_j|`, Algorithm 1 L6).
//! 3. **Greedy grouping + swap fine-tuning.** Sort jobs by iteration
//!    time, fill groups with contiguous runs (keeping large jobs
//!    together to avoid the job-bound case of Figure 8b), then repeatedly
//!    swap job pairs between the most imbalanced group and its most
//!    complementary peer until no swap reduces resource imbalance.
//! 4. **Machine allocation.** Every group gets one machine; each
//!    remaining machine goes to the group that needs it most — the most
//!    computation-bound one, since extra machines shrink `Tcpu` (Eq. 2)
//!    but not `Tnet`.
//!
//! # Fast path
//!
//! Decision latency is a first-class metric (§V-F budgets a full
//! decision at seconds even for 8K jobs / 10K machines, and arrivals
//! re-trigger it constantly), so the candidate scan is engineered to be
//! allocation-free and cache-friendly:
//!
//! - all profile durations live in a flat [`ProfileCache`]
//!   (struct-of-arrays), sorted **once** per decision; candidate groups
//!   are contiguous runs of that order and group totals come from
//!   prefix-sum differences, so evaluating one `(prefix × group-count)`
//!   candidate costs amortized O(groups) plus a single linear pass for
//!   the job-bound term of Eq. 1 — not the O(n log n) re-sort of the
//!   naive formulation;
//! - all candidate-local state lives in a reusable [`ScheduleScratch`];
//! - the prefix scan is one loop run by the calling thread and, for
//!   job lists long enough to repay a spawn, by
//!   [`std::thread::scope`] helpers: each thread claims the next
//!   prefix in ascending order, evaluates it with its own scratch and
//!   files the result in that prefix's slot; the filled slots are
//!   folded strictly in prefix order with the sequential preference
//!   rule (earlier prefix wins unless a later one beats it by
//!   `min_loop_improvement`), and the fold's saturation cut
//!   (`SCORE_CEILING`) stops further claims. Every prefix is scored
//!   by pure deterministic code and the fold sees the same values in
//!   the same order up to the same cut, so the decision is
//!   byte-identical for every thread count; a thread may run at most
//!   as many prefixes ahead of the fold as there are threads, so the
//!   cut wastes at most one evaluation per helper.

use crate::cluster::MachineId;
use crate::group::{GroupId, Grouping, JobGroup};
use crate::job::JobId;
use crate::model::{group_iteration_time_modeled, Utilization};
use crate::profile::JobProfile;
use crate::scratch::{ProfileCache, ScheduleScratch};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Tunables of the scheduling heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Weight of CPU utilization in the decision score (§IV-B2 prefers
    /// CPU "since CPU resources directly contribute to the job
    /// progress").
    pub cpu_weight: f64,
    /// Minimum relative improvement for a regrouping to be worthwhile
    /// (the paper's 5% rule, §IV-B4).
    pub improvement_threshold: f64,
    /// Upper bound on fine-tuning swap passes per grouping.
    pub max_swap_passes: usize,
    /// Minimum relative utilization gain required to keep *adding jobs*
    /// in Algorithm 1's incremental loop. A small positive value makes
    /// the loop stop once utilization saturates, so the scheduler
    /// "prefers fitting a smaller number of jobs" (§IV-B2) instead of
    /// flooding the cluster — the paper reports only 27.2 of 80 jobs
    /// running concurrently on average.
    pub min_loop_improvement: f64,
    /// Optional cap on jobs per group (memory-pressure guard; the paper
    /// "prefers fitting a smaller number of jobs in a job group").
    pub max_jobs_per_group: Option<usize>,
    /// Enables the *exact pruning* fast paths: candidate scans stop
    /// early whenever a conservative floating-point error bound proves
    /// the skipped work could not have changed the decision (see
    /// `SCORE_CEILING` and the same-sign swap guards in the candidate
    /// evaluator). The output is bit-identical either way — the flag
    /// exists so equivalence tests can compare the pruned scan against
    /// the pristine exhaustive one.
    pub exact_prunes: bool,
    /// Charges each job's measured server-side APPLY seconds
    /// ([`JobProfile::tapply`]) as a fourth subtask class in the Eq. 1
    /// group-time model: the CPU term becomes `Σ (Tcpu(m) + Tapply)`
    /// and a job's own pipeline `Tcpu(m) + Tapply + Tnet`. The paper
    /// folds APPLY into PUSH; the PS runtime measures it
    /// separately, and it burns server CPU rather than wire time. Off
    /// by default — with the flag off (or with profiles that carry no
    /// APPLY measurements) every decision is **byte-identical** to the
    /// unflagged scheduler, following the repo's equivalence-gate
    /// pattern. The charge affects candidate *scoring* and the
    /// predicted iteration times; the L6 group-count seed, swap
    /// imbalance metric and machine allocation deliberately stay
    /// APPLY-free (APPLY is DoP-invariant, so it shifts neither the
    /// `Tcpu(m) = Tnet` balance point those heuristics search for, nor
    /// the marginal value of an extra machine).
    pub charge_apply: bool,
    /// Prices each job's COMM charge at its *measured* wire volume:
    /// the profile cache's `Tnet` is scaled by the job's trusted PUSH
    /// density ([`JobProfile::push_density_trusted`]) before any part
    /// of Algorithm 1 reads it, so the L6 group-count seed, the swap
    /// deltas, the machine allocation and the Eq. 3/4 scoring all see
    /// the bytes the sparse runtime actually moves. Unlike APPLY —
    /// a separate additive subtask class — density multiplies the
    /// existing COMM term (`Tnet ∝ bytes` on the wire), so the charge
    /// belongs in every balance computation: a coordinate-sparse job's
    /// true `Tcpu(m) = Tnet` break-point sits at a higher DoP, and
    /// with the charge on the scheduler gives it the extra machines.
    ///
    /// **On by default**, behind a trust policy: the density only
    /// prices the wire once at least
    /// [`JobProfile::DENSITY_TRUST_ITERS`] measured iterations back
    /// the EWMA — a cold or freshly-started job reads `1.0` and is
    /// charged dense, so it can never be *under*-charged off a noisy
    /// first sample. With the flag off — or for profiles whose density
    /// is untrusted — every decision is **byte-identical** to the
    /// unflagged scheduler, following the repo's equivalence-gate
    /// pattern.
    pub charge_sparse_comm: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            cpu_weight: 0.7,
            improvement_threshold: 0.05,
            max_swap_passes: 64,
            min_loop_improvement: 0.01,
            max_jobs_per_group: None,
            exact_prunes: true,
            charge_apply: false,
            charge_sparse_comm: true,
        }
    }
}

/// Prefixes up to this size are "dense": every group count is tried
/// and each candidate re-sorts its (small) job list at the candidate's
/// own DoP, exactly like the legacy formulation. Larger prefixes sort
/// once per prefix at the L6 seed DoP and share the order + prefix
/// sums across all of that prefix's group-count candidates.
const DENSE_PREFIX_MAX: usize = 64;

/// Decisions over more schedulable jobs than this run in *sparse
/// mode*: every non-dense prefix (beyond [`DENSE_PREFIX_MAX`] jobs)
/// sweeps its group counts geometrically (×1.15, the same resolution
/// as the prefix grid itself) through the L6 neighbourhood instead of
/// visiting every integer, caps swap fine-tuning at
/// [`SPARSE_SWAP_PASSES`] passes, and samples at most
/// [`SPARSE_SWAP_SAMPLES`] members per group in the pair scan. At
/// cluster scale the score surface is smooth enough that the dense
/// integer grid and deep swap refinement add no information beyond the
/// seed's own ×1.15 resolution, while costing the bulk of the decision
/// (the pair scan is its hottest loop). The switch is keyed on the
/// *population*, not the prefix, so a given workload is scanned either
/// entirely legacy-exact or entirely sparse — every workload the
/// repo's tests and figure benches run is far below this bound, so
/// their decisions are bit-for-bit unchanged.
const SPARSE_POPULATION_MIN: usize = 1024;

/// Swap fine-tuning pass cap in sparse mode (dense-mode prefixes keep
/// the configured `max_swap_passes`).
const SPARSE_SWAP_PASSES: usize = 4;

/// Per-group member-sample budget of the swap pair scan in sparse
/// mode (dense mode keeps the legacy 128).
const SPARSE_SWAP_SAMPLES: usize = 48;

/// Strict upper bound on any achievable candidate score.
///
/// Per group the Eq. 3 ratios are `fl(x / t)` with `x <= t` selected by
/// comparison, so each ratio is `<= 1.0` exactly; the group machine
/// counts are integers whose sum is exact in `f64`, leaving only the
/// numerator fold's relative error of at most `n_G · u` (`u = 2^-53`)
/// on the machine-weighted average. Even at `n_G = u32::MAX` groups
/// that is `< 5e-7`, so no candidate can ever score `>= 1 + 1e-5`.
/// Once the incumbent satisfies
/// `best_score * (1 + min_loop_improvement) >= SCORE_CEILING`, no later
/// prefix can win the reduction and the scan may stop.
pub(crate) const SCORE_CEILING: f64 = 1.0 + 1e-5;

/// Magnitude guard for the same-sign swap prunes. Skipping the pair
/// scan is exact only while the worst-case absolute rounding error of
/// the `after + 1e-12 < current` improvement test — bounded by
/// `u · (4·Σ|δ| + 6·max|δ|)` — stays below the `1e-12` tolerance,
/// i.e. while `4·Σ|δ| + 6·max|δ| < 1e-12 / u ≈ 9007`. `8000` leaves
/// margin for the guard's own rounding.
const SWAP_PRUNE_MAGNITUDE: f64 = 8000.0;

/// Job lists shorter than this are scanned by the calling thread
/// alone. A dense scan over `n` jobs scores about `n² / 2` candidates,
/// so the spawn and join of one scoped helper is repaid only from a
/// few dozen jobs up; the value is the measured break-even on the
/// 2-core reference box (DESIGN.md §7 "Deterministic parallelism").
const SCAN_HELPERS_MIN_JOBS: usize = 32;

/// Busy-wait rounds of a scan thread that may not claim yet, before it
/// starts yielding its time slice.
const SCAN_SPIN_ROUNDS: u32 = 64;

/// Threads that scan one decision over `n_jobs` jobs: the host's cores
/// (capped at 8, asked for once per process) when the job list is long
/// enough to repay a spawn, otherwise the calling thread alone.
fn scan_workers(n_jobs: usize) -> usize {
    static HOST_CORES: OnceLock<usize> = OnceLock::new();
    if n_jobs < SCAN_HELPERS_MIN_JOBS {
        return 1;
    }
    *HOST_CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8)
    })
}

/// The state of one prefix scan: the claim cursor, the result slots
/// and the in-order fold. The threads of a full scan share it behind
/// one lock; the release pass, alone on its thread, drives it directly.
struct ScanState<'a> {
    /// One slot per candidate prefix, filled by the thread that
    /// evaluated it.
    slots: &'a mut [Option<PrefixEval>],
    /// Prefixes handed out so far, in ascending order. Every claimed
    /// prefix is evaluated, so at the end this counts evaluations.
    claimed: usize,
    /// Leading slots folded so far, strictly in prefix order.
    folded: usize,
    /// Winner of the folded slots.
    best: Option<PrefixEval>,
    /// The fold is final: every slot is folded or the saturation cut
    /// fired (or a scan thread is unwinding).
    done: bool,
}

impl<'a> ScanState<'a> {
    /// A scan over `slots.len()` prefixes with nothing claimed yet.
    fn new(slots: &'a mut [Option<PrefixEval>]) -> Self {
        Self {
            slots,
            claimed: 0,
            folded: 0,
            best: None,
            done: false,
        }
    }

    /// Folds every filled slot that directly follows the folded ones,
    /// replaying the sequential preference order: an earlier prefix
    /// wins unless a later one beats it by `min_loop_improvement`.
    /// A final fold stays as it is — results filed after the cut are
    /// the wasted evaluations.
    fn fold(&mut self, cfg: &SchedulerConfig) {
        let gain = 1.0 + cfg.min_loop_improvement;
        while !self.done {
            let Some(ev) = self.slots[self.folded] else {
                return;
            };
            self.folded += 1;
            if self.best.is_none_or(|best| ev.score > best.score * gain) {
                self.best = Some(ev);
            }
            let best = self.best.expect("a slot was just folded");
            // Saturation cut: once the incumbent is unbeatable by
            // *any* score a candidate can produce (see
            // `SCORE_CEILING`), the remaining prefixes cannot change
            // the reduction and are skipped. Exact.
            let saturated = cfg.exact_prunes && best.score * gain >= SCORE_CEILING;
            self.done = saturated || self.folded == self.slots.len();
        }
    }
}

/// Ends the scan when the thread holding it unwinds, so the other
/// threads stop waiting for a slot that will never be filled and the
/// panic can propagate through the scope.
struct StopOnUnwind<'a, 'b>(&'a Mutex<ScanState<'b>>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Every update under the lock leaves the state valid, so a
            // poisoned guard is still good to write `done` through.
            self.0.lock().unwrap_or_else(PoisonError::into_inner).done = true;
        }
    }
}

/// What one prefix scan found and what it cost.
struct PrefixScan {
    /// The winning prefix.
    best: PrefixEval,
    /// Prefixes evaluated, wasted ones included.
    evaluated: usize,
    /// Prefixes folded: all of them, or those up to the saturation cut.
    folded: usize,
}

/// The result of one run of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// The chosen grouping; machines are assigned as abstract IDs
    /// `M0..M{M-1}` in group order (concrete placement that minimizes
    /// migration is the regrouper's job).
    pub grouping: Grouping,
    /// Predicted cluster utilization of the grouping (Eq. 4).
    pub utilization: Utilization,
    /// Jobs that were considered but left out (kept waiting/paused)
    /// because including them no longer improved utilization.
    pub unscheduled: Vec<JobId>,
    /// Predicted group iteration time per group (Eq. 1), aligned with
    /// `grouping.groups()`.
    pub predicted_iteration: Vec<f64>,
}

/// The two Eq. 4 scores behind one admission-pricing query
/// ([`Scheduler::price_candidate`]): predicted cluster utilization
/// with and without the candidate job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CandidatePrice {
    /// Score of the population including the candidate.
    pub score_with: f64,
    /// Score of the population without it (`0.0` when the candidate
    /// would be alone on the cluster).
    pub score_without: f64,
}

impl CandidatePrice {
    /// Marginal utility of admitting the candidate now. Positive means
    /// the cluster's predicted Eq. 4 score improves; negative means
    /// the candidate dilutes it.
    pub fn marginal(&self) -> f64 {
        self.score_with - self.score_without
    }
}

/// Outcome of evaluating one job prefix: the best group count found
/// for it and the score that drives the incremental-selection fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixEval {
    nj: usize,
    ng: usize,
    utilization: Utilization,
    score: f64,
}

/// The Harmony scheduler (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    cfg: SchedulerConfig,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Runs Algorithm 1 over `jobs` (ordered as
    /// `J_profiled ∪ J_paused ∪ J_running`, the caller's priority order)
    /// on a cluster of `machines` machines.
    ///
    /// The candidate scan gets helper threads on a multi-core host once
    /// the job set is large enough to amortize their startup; the
    /// result is identical for every thread count (see
    /// [`Self::schedule_with_workers`]).
    ///
    /// Returns an empty grouping when `jobs` is empty or `machines` is
    /// zero; never panics on valid warm profiles.
    pub fn schedule(&self, jobs: &[JobProfile], machines: u32) -> ScheduleOutcome {
        self.schedule_with_workers(jobs, machines, scan_workers(jobs.len()))
    }

    /// Like [`Self::schedule`], with an explicit count of scan threads
    /// (the calling thread included). `workers <= 1` spawns nothing.
    ///
    /// The output is **byte-identical for every `workers` value**:
    /// each `(prefix × group-count)` candidate is scored by pure
    /// deterministic code with per-thread scratch, and the reduction
    /// folds the prefixes in the sequential preference order (earlier
    /// prefix wins unless a later one is better by
    /// `min_loop_improvement`) up to the same saturation cut, so
    /// threading changes wall-clock only, never the decision.
    pub fn schedule_with_workers(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        workers: usize,
    ) -> ScheduleOutcome {
        let (mut cache, mut scratch) = (ProfileCache::empty(), ScheduleScratch::new());
        self.full_pass(jobs, machines, workers, &mut cache, &mut scratch)
    }

    /// Like [`Self::schedule`], but reusing a caller-owned
    /// [`ProfileCache`] and [`ScheduleScratch`] so repeated decisions
    /// (the simulator re-runs Algorithm 1 on every arrival/completion)
    /// regrow no buffer once warm — the scan helpers' scratches
    /// included, which live inside `scratch`. The cache is brought up
    /// to date with [`ProfileCache::sync`]: positions whose profiles
    /// are unchanged since the previous decision keep their cached
    /// durations and sort ranks, and an entirely unchanged job list
    /// keeps the cache's generation, letting the scratch skip its
    /// prefix gathers too. Same thread-count rule and output as
    /// [`Self::schedule`] — `sync` reproduces a fresh cache's state
    /// exactly (the property tests in `crates/core/tests/`).
    pub fn schedule_reusing(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        cache: &mut ProfileCache,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        self.full_pass(jobs, machines, scan_workers(jobs.len()), cache, scratch)
    }

    /// A targeted **release pass**: hands `machines` freed capacity to
    /// the best prefix of `jobs` (the caller's priority-ordered
    /// waiting/starved set) without touching any running group.
    ///
    /// The coalesced scheduling mode
    /// (`SimConfig::coalesced_passes` in `harmony-sim`) defers the
    /// full Algorithm 1 pass a job finish used to mandate; this pass
    /// keeps the capacity that finish freed from idling while the
    /// coalescing window is open. It is deliberately cheaper than a
    /// full pass: per candidate prefix it evaluates *one* grouping —
    /// the group count seeded by the L6 argmin — instead of sweeping
    /// the whole group-count grid, folded by the full scan's rule
    /// (preference order and saturation cut) on the calling thread
    /// alone, and it rides the same [`ProfileCache::sync`] pipeline
    /// and scratch buffers as [`Self::schedule_reusing`], so repeated
    /// release decisions allocate nothing once warm.
    ///
    /// The outcome's machines are abstract IDs `M0..M{machines-1}`
    /// over the freed capacity only; jobs beyond the chosen prefix
    /// come back in `unscheduled` and simply keep waiting for the
    /// window flush. Not part of any bit-equivalence gate — the pass
    /// only exists in the equivalence-*relaxed* coalesced arm.
    pub fn schedule_release(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        cache: &mut ProfileCache,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        if let Some(out) = trivial_outcome(jobs, machines) {
            return out;
        }
        cache.sync(jobs, self.cfg.charge_sparse_comm);
        let (prefixes, mut slots) = take_scan_buffers(scratch, jobs.len());
        let mut scan = ScanState::new(&mut slots);
        while !scan.done {
            let i = scan.folded;
            scan.slots[i] = Some(self.eval_seeded(cache, scratch, prefixes[i], machines));
            scan.fold(&self.cfg);
        }
        let best = scan.best.expect("at least one candidate was built");
        scratch.prefixes = prefixes;
        scratch.slots = slots;
        self.outcome_of(best, jobs, machines, cache, scratch)
    }

    /// Prices a single candidate job against the live population
    /// without running a full Algorithm 1 pass.
    ///
    /// The candidate must be the **last** entry of `jobs`; the rest is
    /// the current schedulable set in the caller's priority order. The
    /// admission layer (OASiS-style accept/delay/reject in
    /// `harmony-sim`) calls this on every arrival it needs to price,
    /// so the hook follows [`Self::schedule_release`]'s cheap recipe:
    /// it rides the [`ProfileCache::sync`] pipeline and evaluates
    /// exactly *one* grouping per point — the L6-seeded group count —
    /// at two points, the population with and without the candidate.
    /// Nothing is materialized and no grouping is returned; the two
    /// Eq. 4 scores are the whole answer. Not part of any
    /// bit-equivalence gate — admission pricing only exists in
    /// open-loop runs.
    pub fn price_candidate(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        cache: &mut ProfileCache,
        scratch: &mut ScheduleScratch,
    ) -> CandidatePrice {
        if jobs.is_empty() || machines == 0 {
            return CandidatePrice::default();
        }
        cache.sync(jobs, self.cfg.charge_sparse_comm);
        let nj = jobs.len();
        CandidatePrice {
            score_with: self.eval_seeded(cache, scratch, nj, machines).score,
            score_without: if nj > 1 {
                self.eval_seeded(cache, scratch, nj - 1, machines).score
            } else {
                // An empty cluster scores zero: admitting the first
                // job is always (weakly) profitable.
                0.0
            },
        }
    }

    /// Evaluates the grouping Algorithm 1 would produce for *exactly*
    /// this job set (no incremental selection). Used by the regrouper
    /// when repairing specific groups and by the oracle comparison.
    pub fn schedule_exact(&self, jobs: &[JobProfile], machines: u32) -> ScheduleOutcome {
        if let Some(out) = trivial_outcome(jobs, machines) {
            return out;
        }
        let (mut cache, mut scratch) = (ProfileCache::empty(), ScheduleScratch::new());
        cache.sync(jobs, self.cfg.charge_sparse_comm);
        let ev = self.eval_prefix(&cache, &mut scratch, jobs.len(), machines);
        self.outcome_of(ev, jobs, machines, &cache, &mut scratch)
    }

    /// Algorithm 1 proper, behind [`Self::schedule`],
    /// [`Self::schedule_with_workers`] and [`Self::schedule_reusing`]:
    /// sync the cache, scan the candidate prefixes, materialize the
    /// winner.
    fn full_pass(
        &self,
        jobs: &[JobProfile],
        machines: u32,
        workers: usize,
        cache: &mut ProfileCache,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        if let Some(out) = trivial_outcome(jobs, machines) {
            return out;
        }
        cache.sync(jobs, self.cfg.charge_sparse_comm);
        let scan = self.scan_prefixes(jobs.len(), machines, workers, cache, scratch);
        debug_assert!(
            scan.evaluated < scan.folded + workers.max(1),
            "the cut wastes at most one prefix per helper: {} evaluated, {} folded",
            scan.evaluated,
            scan.folded
        );
        self.outcome_of(scan.best, jobs, machines, cache, scratch)
    }

    /// The candidate-prefix scan.
    ///
    /// Algorithm 1 grows the job set while utilization improves. The
    /// predicted-utilization curve is not monotone in practice (group
    /// counts jump discretely), so we scan candidate prefixes and
    /// keep the global best, preferring fewer jobs unless a larger
    /// set is better by at least `min_loop_improvement` — the paper's
    /// preference for "fitting a smaller number of jobs". The scan is
    /// dense for small job counts and geometric beyond, keeping a
    /// full decision within milliseconds even at 8K jobs (§V-F).
    ///
    /// The calling thread and `workers - 1` scoped helpers all run
    /// [`Self::scan_thread`]; with `workers == 1` nothing is spawned.
    fn scan_prefixes(
        &self,
        n_jobs: usize,
        machines: u32,
        workers: usize,
        cache: &ProfileCache,
        scratch: &mut ScheduleScratch,
    ) -> PrefixScan {
        let (prefixes, mut slots) = take_scan_buffers(scratch, n_jobs);
        let mut helpers = std::mem::take(&mut scratch.helpers);
        let workers = workers.clamp(1, prefixes.len());
        if helpers.len() < workers - 1 {
            helpers.resize_with(workers - 1, ScheduleScratch::new);
        }

        let scan = Mutex::new(ScanState::new(&mut slots));
        let (shared, prefixes_ref) = (&scan, &prefixes[..]);
        // A scope allocates even when it spawns nothing; alone, the
        // calling thread scans without one.
        if workers == 1 {
            self.scan_thread(shared, prefixes_ref, 1, cache, scratch, machines);
        } else {
            std::thread::scope(|scope| {
                for helper in &mut helpers[..workers - 1] {
                    scope.spawn(move || {
                        self.scan_thread(shared, prefixes_ref, workers, cache, helper, machines)
                    });
                }
                self.scan_thread(shared, prefixes_ref, workers, cache, scratch, machines);
            });
        }
        let ScanState {
            claimed,
            folded,
            best,
            ..
        } = scan
            .into_inner()
            .expect("a panicking scan thread ends the scope");

        scratch.prefixes = prefixes;
        scratch.slots = slots;
        scratch.helpers = helpers;
        PrefixScan {
            best: best.expect("at least one candidate was built"),
            evaluated: claimed,
            folded,
        }
    }

    /// One thread's share of a prefix scan: claim the next prefix,
    /// evaluate it, file the result in its slot and fold, until the
    /// fold is final or no prefix is left to claim (the threads still
    /// evaluating then finish the fold).
    ///
    /// A prefix may be claimed only while fewer than `threads` claimed
    /// prefixes await folding: one per scan thread, so no thread idles
    /// behind peers that keep pace, and when the saturation cut fires
    /// at most `threads - 1` prefixes beyond it were evaluated in vain.
    fn scan_thread(
        &self,
        scan: &Mutex<ScanState<'_>>,
        prefixes: &[usize],
        threads: usize,
        cache: &ProfileCache,
        s: &mut ScheduleScratch,
        machines: u32,
    ) {
        let _stop = StopOnUnwind(scan);
        let mut evaluated: Option<(usize, PrefixEval)> = None;
        let mut waits = 0;
        loop {
            let claim = {
                let mut st = scan
                    .lock()
                    .expect("no scan thread panics while it holds the lock");
                if let Some((i, ev)) = evaluated.take() {
                    st.slots[i] = Some(ev);
                    st.fold(&self.cfg);
                }
                if st.done || st.claimed == prefixes.len() {
                    return;
                }
                let open = st.claimed < st.folded + threads;
                open.then(|| {
                    st.claimed += 1;
                    st.claimed - 1
                })
            };
            match claim {
                Some(i) => {
                    waits = 0;
                    evaluated = Some((i, self.eval_prefix(cache, s, prefixes[i], machines)));
                }
                // An earlier prefix is still being evaluated by another
                // thread: wait for it, briefly busy, then politely.
                None if waits < SCAN_SPIN_ROUNDS => {
                    waits += 1;
                    std::hint::spin_loop();
                }
                None => std::thread::yield_now(),
            }
        }
    }

    /// Loads the prefix `jobs[..nj]` into the scratch views and runs
    /// the candidate-independent part of Algorithm 1 for it: the
    /// group-count grid and the L6 seed.
    ///
    /// L6 picks n_G* assuming a uniform DoP m = M / n_G; the paper
    /// describes the scheduler as "heuristics that roughly determine
    /// initial values and do fine-tuning" (§IV-B3), so we use the L6
    /// argmin as the center of a candidate range and keep whichever
    /// group count actually maximizes predicted utilization. The group
    /// count matters beyond per-job balance: each balanced group wants
    /// `m_g* = ΣTcpu(1)/ΣTnet` machines (a grouping-invariant ratio),
    /// so the *number* of groups decides whether the whole cluster is
    /// compute- or network-dominated. L6's argmin is evaluated on a
    /// geometric grid in O(log n) per point via the ratio-order prefix
    /// sums; the full grouping is then built and scored only for group
    /// counts near that initial value.
    ///
    /// Beyond [`DENSE_PREFIX_MAX`] jobs the prefix is also re-sorted
    /// once at the L6 seed DoP, so every group-count candidate shares
    /// the order and its prefix sums.
    ///
    /// Returns `(min_groups, max_groups, l6_ng)`.
    fn prepare_prefix(
        &self,
        cache: &ProfileCache,
        s: &mut ScheduleScratch,
        nj: usize,
        machines: u32,
    ) -> (usize, usize, usize) {
        s.load_prefix(cache, nj);
        let max_groups = nj.min(machines as usize);
        let min_groups = match self.cfg.max_jobs_per_group {
            Some(cap) if cap > 0 => nj.div_ceil(cap).min(max_groups),
            _ => 1,
        };
        s.grid.clear();
        extend_candidate_counts(&mut s.grid, max_groups);
        s.grid.retain(|&ng| ng >= min_groups);
        let mut l6_ng = min_groups;
        let mut best_obj = f64::INFINITY;
        for &ng in &s.grid {
            let m = f64::from(machines) / ng as f64;
            let obj = s.l6_objective(m);
            if obj < best_obj {
                best_obj = obj;
                l6_ng = ng;
            }
        }
        if nj > DENSE_PREFIX_MAX {
            s.sort_prefix_by_dop(cache, f64::from(machines) / l6_ng as f64);
        }
        (min_groups, max_groups, l6_ng)
    }

    /// Finds the best group count for the prefix `jobs[..nj]` and
    /// returns its score. Costs one prefix load plus amortized
    /// O(groups) per group-count candidate; the winning candidate is
    /// *not* materialized here (only the single global winner ever is).
    fn eval_prefix(
        &self,
        cache: &ProfileCache,
        s: &mut ScheduleScratch,
        nj: usize,
        machines: u32,
    ) -> PrefixEval {
        let (min_groups, max_groups, l6_ng) = self.prepare_prefix(cache, s, nj, machines);
        let sparse = sparse_prefix(cache, nj);
        let (lo, hi) = if nj <= DENSE_PREFIX_MAX {
            (min_groups, max_groups)
        } else {
            ((l6_ng / 2).max(min_groups), (l6_ng * 2).min(max_groups))
        };

        let mut best: Option<PrefixEval> = None;
        let mut try_ng = |s: &mut ScheduleScratch, ng: usize| {
            let ev = self.eval_groups(s, ng, machines, sparse);
            if best.is_none_or(|b| ev.score > b.score) {
                best = Some(ev);
            }
        };
        if sparse {
            // Sparse sweep: geometric steps through [lo, hi], plus the
            // L6 seed itself. Deterministic and worker-independent.
            let mut ng = lo.max(1);
            let mut seed_seen = false;
            loop {
                seed_seen |= ng == l6_ng;
                try_ng(s, ng);
                if ng >= hi {
                    break;
                }
                ng = (((ng as f64) * 1.15).round() as usize).max(ng + 1).min(hi);
            }
            if !seed_seen && l6_ng >= lo && l6_ng <= hi {
                try_ng(s, l6_ng);
            }
        } else {
            for idx in 0..s.grid.len() {
                let ng = s.grid[idx];
                if ng < lo || ng > hi {
                    continue;
                }
                try_ng(s, ng);
            }
        }
        // The grid may have no point inside [lo, hi]; fall back to the
        // L6 seed itself.
        best.unwrap_or_else(|| self.eval_groups(s, l6_ng, machines, sparse))
    }

    /// The one-candidate evaluation of the release pass and of
    /// admission pricing: the prefix `jobs[..nj]` at its L6-seeded
    /// group count, no group-count sweep.
    fn eval_seeded(
        &self,
        cache: &ProfileCache,
        s: &mut ScheduleScratch,
        nj: usize,
        machines: u32,
    ) -> PrefixEval {
        let (_, _, l6_ng) = self.prepare_prefix(cache, s, nj, machines);
        self.eval_groups(s, l6_ng, machines, sparse_prefix(cache, nj))
    }

    /// Builds the `ng`-group candidate of the loaded prefix
    /// ([`Self::eval_candidate`]) and scores it.
    fn eval_groups(
        &self,
        s: &mut ScheduleScratch,
        ng: usize,
        machines: u32,
        sparse: bool,
    ) -> PrefixEval {
        let utilization = self.eval_candidate(s, ng, machines, sparse);
        PrefixEval {
            nj: s.loaded_nj,
            ng,
            utilization,
            score: utilization.score(self.cfg.cpu_weight),
        }
    }

    /// Builds and scores one `(prefix, group-count)` candidate inside
    /// the scratch buffers: contiguous chunking of the size order, swap
    /// fine-tuning, machine allocation, and Eq. 4 utilization. On
    /// return `s.members`/`s.bounds`/`s.alloc` describe the candidate.
    fn eval_candidate(
        &self,
        s: &mut ScheduleScratch,
        ng: usize,
        machines: u32,
        sparse: bool,
    ) -> Utilization {
        let nj = s.loaded_nj;
        debug_assert!(ng >= 1 && ng <= nj && ng as u32 <= machines);
        let dop = f64::from(machines) / ng as f64;
        let dense = nj <= DENSE_PREFIX_MAX;

        // One shared division per job: `q[p] = pcpu[p] / dop` feeds both
        // the sort key `q + pnet` and the swap delta `q - pnet` below —
        // bit-identical to evaluating those expressions inline (same
        // rounding tree), but the comparator's two divisions per
        // comparison collapse into one add.
        s.qdop.clear();
        s.qdop.extend(s.pcpu.iter().map(|&c| c / dop));

        // Greedy assignment (Algorithm 1 L7): groups are contiguous
        // runs of the descending iteration-time order, as even as
        // possible, so similar-sized jobs stay together (job-bound
        // avoidance, Figure 8b). Dense prefixes re-sort their (small)
        // job list at this candidate's own DoP, exactly like the
        // legacy formulation; geometric prefixes reuse the per-prefix
        // order sorted at the L6 seed DoP.
        if dense && s.members.len() == nj {
            // The comparator below is a strict total order (unique
            // `JobId` tie-breaker), so sorting any permutation of
            // `0..nj` — such as the previous candidate's membership,
            // which is already nearly in order — yields the identical
            // unique sequence the identity start would.
        } else {
            s.members.clear();
            s.members.extend(0..nj as u32);
        }
        if dense {
            s.sort_key.clear();
            s.sort_key
                .extend(s.qdop.iter().zip(&s.pnet).map(|(&q, &t)| q + t));
            let key = &s.sort_key;
            let pid = &s.pid;
            // `key` descending, `JobId` tie-break: a strict total
            // order, so the result is the same unique sequence any
            // comparison sort yields. At most `DENSE_PREFIX_MAX`
            // members, already nearly in order (see above): insertion
            // sort is linear here where the general sort is not.
            let before = |a: u32, b: u32| {
                key[b as usize]
                    .total_cmp(&key[a as usize])
                    .then_with(|| pid[a as usize].cmp(&pid[b as usize]))
                    .is_lt()
            };
            for i in 1..s.members.len() {
                let m = s.members[i];
                let mut at = i;
                while at > 0 && before(m, s.members[at - 1]) {
                    s.members[at] = s.members[at - 1];
                    at -= 1;
                }
                s.members[at] = m;
            }
        }
        s.bounds.clear();
        s.bounds.push(0);
        let base = nj / ng;
        let extra = nj % ng;
        let mut cursor = 0;
        for gi in 0..ng {
            cursor += base + usize::from(gi < extra);
            s.bounds.push(cursor);
        }

        // Group totals: prefix-sum differences (O(groups)) when the
        // members follow the shared prefix order, direct sums for the
        // (small) per-candidate orders. Maintained incrementally
        // across swaps afterwards.
        s.gcpu.clear();
        s.gnet.clear();
        s.gapply.clear();
        for gi in 0..ng {
            let (lo, hi) = (s.bounds[gi], s.bounds[gi + 1]);
            if dense {
                let (mut c, mut t, mut a) = (0.0f64, 0.0f64, 0.0f64);
                for &p in &s.members[lo..hi] {
                    c += s.pcpu[p as usize];
                    t += s.pnet[p as usize];
                    a += s.papply[p as usize];
                }
                s.gcpu.push(c);
                s.gnet.push(t);
                s.gapply.push(a);
            } else {
                s.gcpu.push(s.ps_cpu[hi] - s.ps_cpu[lo]);
                s.gnet.push(s.ps_net[hi] - s.ps_net[lo]);
                s.gapply.push(s.ps_apply[hi] - s.ps_apply[lo]);
            }
        }

        // Per-job swap deltas at this candidate's uniform DoP, on the
        // flat arrays (the pair scan below is the hottest loop of the
        // whole decision).

        s.delta.clear();
        s.delta
            .extend(s.qdop.iter().zip(&s.pnet).map(|(&q, &t)| q - t));

        // Delta statistics backing the same-sign swap prunes: when all
        // per-job deltas share one sign, every group imbalance (a
        // cancellation-free fold of them) shares it too, and for
        // same-sign imbalances `|i1+σ| + |i2−σ| >= |i1| + |i2|` for any
        // real σ — no swap can pass the `after + 1e-12 < current` test
        // unless rounding noise exceeds the tolerance, which the
        // magnitude guard rules out (see `SWAP_PRUNE_MAGNITUDE`).
        let prunes = self.cfg.exact_prunes;
        let mut dmin = f64::INFINITY;
        let mut dmax = f64::NEG_INFINITY;
        let mut dabs_sum = 0.0f64;
        let mut dabs_max = 0.0f64;
        if prunes && ng >= 2 {
            for &d in &s.delta {
                dmin = dmin.min(d);
                dmax = dmax.max(d);
                // A NaN delta poisons `dabs_sum`, failing the `<`
                // magnitude guard, so NaNs disable both prunes.
                dabs_sum += d.abs();
                dabs_max = dabs_max.max(d.abs());
            }
        }
        let in_bounds = 4.0 * dabs_sum + 6.0 * dabs_max < SWAP_PRUNE_MAGNITUDE;
        let swaps_cannot_improve = prunes && (dmin >= 0.0 || dmax <= 0.0) && in_bounds;

        // Fine-tune: swap jobs between the most imbalanced group and
        // the most complementary group while it helps.
        let passes = if sparse {
            self.cfg.max_swap_passes.min(SPARSE_SWAP_PASSES)
        } else {
            self.cfg.max_swap_passes
        };
        // Imbalances of groups untouched by the previous pass's swap
        // refold to the same bits, so only the swapped pair is redone.
        let mut stale: Option<(usize, usize)> = None;
        for pass in 0..passes {
            if ng < 2 || swaps_cannot_improve {
                break;
            }
            {
                let ScheduleScratch {
                    ref mut imbs,
                    ref members,
                    ref bounds,
                    ref delta,
                    ref gcpu,
                    ref gnet,
                    ..
                } = *s;
                let refold = |gi: usize| {
                    if dense {
                        // Legacy-exact: sum the per-job deltas in
                        // membership order.
                        let mut im = 0.0f64;
                        for &p in &members[bounds[gi]..bounds[gi + 1]] {
                            im += delta[p as usize];
                        }
                        im
                    } else {
                        gcpu[gi] / dop - gnet[gi]
                    }
                };
                match (pass, stale) {
                    (0, _) | (_, None) => {
                        imbs.clear();
                        for gi in 0..ng {
                            let im = refold(gi);
                            imbs.push(im);
                        }
                    }
                    (_, Some((a, b))) => {
                        imbs[a] = refold(a);
                        imbs[b] = refold(b);
                    }
                }
            }
            let (g1, g2) = swap_pair(&s.imbs);

            let current = s.imbs[g1].abs() + s.imbs[g2].abs();
            // Pass cut, exact for the same reasons as the whole-scan
            // prune above: when the chosen pair's imbalances share a
            // sign (and magnitudes keep rounding noise below the
            // `1e-12` tolerance), or `current` is within the tolerance
            // of zero, the scan below cannot find an improving swap —
            // it would terminate this pass with `best_swap == None`.
            if prunes
                && (current <= 1e-12
                    || (s.imbs[g1] * s.imbs[g2] >= 0.0
                        && 4.0 * current + 6.0 * dabs_max < SWAP_PRUNE_MAGNITUDE))
            {
                break;
            }
            // Full pair enumeration for small groups; deterministic
            // stride sampling caps the work for very large ones
            // (tighter budget in sparse mode — the pair scan is the
            // hottest loop of a cluster-scale decision).
            let budget = if sparse { SPARSE_SWAP_SAMPLES } else { 128 };
            let stride = |len: usize| len.div_ceil(budget).max(1);
            let (lo1, hi1) = (s.bounds[g1], s.bounds[g1 + 1]);
            let (lo2, hi2) = (s.bounds[g2], s.bounds[g2 + 1]);
            let (sa, sb) = (stride(hi1 - lo1), stride(hi2 - lo2));
            let mut best_swap: Option<(usize, usize, f64)> = None;
            let mut ai = lo1;
            while ai < hi1 {
                let da = s.delta[s.members[ai] as usize];
                let mut bi = lo2;
                while bi < hi2 {
                    let shift = s.delta[s.members[bi] as usize] - da;
                    let after = (s.imbs[g1] + shift).abs() + (s.imbs[g2] - shift).abs();
                    if after + 1e-12 < best_swap.map_or(current, |(_, _, sc)| sc) {
                        best_swap = Some((ai, bi, after));
                    }
                    bi += sb;
                }
                ai += sa;
            }
            match best_swap {
                Some((ai, bi, _)) => {
                    let (a, b) = (s.members[ai], s.members[bi]);
                    s.members[ai] = b;
                    s.members[bi] = a;
                    let (pa, pb) = (a as usize, b as usize);
                    s.gcpu[g1] += s.pcpu[pb] - s.pcpu[pa];
                    s.gnet[g1] += s.pnet[pb] - s.pnet[pa];
                    s.gapply[g1] += s.papply[pb] - s.papply[pa];
                    s.gcpu[g2] += s.pcpu[pa] - s.pcpu[pb];
                    s.gnet[g2] += s.pnet[pa] - s.pnet[pb];
                    s.gapply[g2] += s.papply[pa] - s.papply[pb];
                    stale = Some((g1, g2));
                }
                None => break, // no improving swap remains
            }
        }

        allocate_machines_into(
            &s.gcpu,
            &s.gnet,
            machines,
            &mut s.alloc,
            &mut s.shares,
            &mut s.keyed,
        );

        // Eq. 4: machine-weighted average of per-group Eq. 3
        // utilizations, straight off the flat arrays. Under
        // `charge_apply` the CPU-side terms carry the measured APPLY
        // charge; the branches (never `x + 0.0`) keep the flag-off arm
        // bit-identical to the unflagged scheduler.
        let charge = self.cfg.charge_apply;
        let mut total_m = 0.0;
        let mut cpu = 0.0;
        let mut net = 0.0;
        for gi in 0..ng {
            let mf = f64::from(s.alloc[gi]);
            let sum_cpu = if charge {
                s.gcpu[gi] / mf + s.gapply[gi]
            } else {
                s.gcpu[gi] / mf
            };
            let sum_net = s.gnet[gi];
            let mut max_itr = 0.0f64;
            for &p in &s.members[s.bounds[gi]..s.bounds[gi + 1]] {
                let t = if charge {
                    (s.pcpu[p as usize] / mf + s.papply[p as usize]) + s.pnet[p as usize]
                } else {
                    s.pcpu[p as usize] / mf + s.pnet[p as usize]
                };
                if t > max_itr {
                    max_itr = t;
                }
            }
            // Eq. 1 with the same tie preference as `model::group_bounds`.
            let t = if sum_cpu >= sum_net && sum_cpu >= max_itr {
                sum_cpu
            } else if sum_net >= max_itr {
                sum_net
            } else {
                max_itr
            };
            if t > 0.0 {
                cpu += mf * (sum_cpu / t);
                net += mf * (sum_net / t);
            }
            total_m += mf;
        }
        if total_m == 0.0 {
            Utilization::default()
        } else {
            Utilization::new(cpu / total_m, net / total_m)
        }
    }

    /// Turns the winning prefix evaluation into the decision:
    /// re-evaluates the candidate (deterministic, so it reproduces the
    /// scanned grouping exactly) and reads the groups off the scratch —
    /// the only per-group allocations of the whole decision. Machines
    /// are numbered `M0..` in group order; `jobs` beyond the prefix
    /// come back unscheduled.
    fn outcome_of(
        &self,
        ev: PrefixEval,
        jobs: &[JobProfile],
        machines: u32,
        cache: &ProfileCache,
        s: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        self.prepare_prefix(cache, s, ev.nj, machines);
        let again = self.eval_groups(s, ev.ng, machines, sparse_prefix(cache, ev.nj));
        debug_assert_eq!(again.utilization, ev.utilization);
        let mut grouping = Grouping::new();
        let mut next_machine = 0u32;
        let mut predicted = Vec::with_capacity(ev.ng);
        for gi in 0..ev.ng {
            let profs: Vec<&JobProfile> = s.members[s.bounds[gi]..s.bounds[gi + 1]]
                .iter()
                .map(|&p| &jobs[s.sub_size[p as usize] as usize])
                .collect();
            let m = s.alloc[gi];
            predicted.push(group_iteration_time_modeled(
                &profs,
                m,
                self.cfg.charge_apply,
                self.cfg.charge_sparse_comm,
            ));
            let ids: Vec<MachineId> = (next_machine..next_machine + m)
                .map(MachineId::new)
                .collect();
            next_machine += m;
            let job_ids: Vec<JobId> = profs.iter().map(|p| p.job()).collect();
            grouping.push(JobGroup::new(GroupId::new(gi as u32), job_ids, ids));
        }
        debug_assert!(grouping.validate().is_ok());
        ScheduleOutcome {
            grouping,
            utilization: again.utilization,
            unscheduled: jobs[ev.nj..].iter().map(|p| p.job()).collect(),
            predicted_iteration: predicted,
        }
    }
}

/// The decision over nothing: no jobs, or no machines to put them on.
fn trivial_outcome(jobs: &[JobProfile], machines: u32) -> Option<ScheduleOutcome> {
    (jobs.is_empty() || machines == 0).then(|| ScheduleOutcome {
        grouping: Grouping::new(),
        utilization: Utilization::default(),
        unscheduled: jobs.iter().map(|p| p.job()).collect(),
        predicted_iteration: Vec::new(),
    })
}

/// Whether the prefix `jobs[..nj]` of this population is scanned in
/// sparse mode (see [`SPARSE_POPULATION_MIN`]).
fn sparse_prefix(cache: &ProfileCache, nj: usize) -> bool {
    cache.len() > SPARSE_POPULATION_MIN && nj > DENSE_PREFIX_MAX
}

/// Takes the prefix list and the result slots out of `scratch`, set up
/// for a scan over `n_jobs` jobs: every candidate prefix, one empty
/// slot each. The caller hands both back when the scan is over.
fn take_scan_buffers(
    scratch: &mut ScheduleScratch,
    n_jobs: usize,
) -> (Vec<usize>, Vec<Option<PrefixEval>>) {
    let mut prefixes = std::mem::take(&mut scratch.prefixes);
    let mut slots = std::mem::take(&mut scratch.slots);
    prefixes.clear();
    extend_candidate_counts(&mut prefixes, n_jobs);
    slots.clear();
    slots.resize(prefixes.len(), None);
    (prefixes, slots)
}

/// The two groups one swap pass works on, given at least two group
/// imbalances: `g1`, the largest `|imbalance|` (the last of equals, as
/// `Iterator::max_by` picks), and `g2`, the group most opposite to it —
/// the smallest `imbalance × signum(g1's)`, the first of equals (as
/// `Iterator::min_by` picks). Both scans compare integers in
/// [`f64::total_cmp`]'s order: `|x|`'s bits order like `|x|`, and
/// [`total_order_key`] ranks signed values.
fn swap_pair(imbs: &[f64]) -> (usize, usize) {
    debug_assert!(imbs.len() >= 2);
    let mut g1 = 0;
    let mut top = 0u64;
    for (g, &im) in imbs.iter().enumerate() {
        let key = im.abs().to_bits();
        if key >= top {
            (g1, top) = (g, key);
        }
    }
    let sign = imbs[g1].signum();
    let mut g2 = usize::from(g1 == 0);
    let mut low = total_order_key(imbs[g2] * sign);
    for (g, &im) in imbs.iter().enumerate().skip(g2 + 1) {
        let key = total_order_key(im * sign);
        if key < low && g != g1 {
            (g2, low) = (g, key);
        }
    }
    (g1, g2)
}

/// Machine allocation (Algorithm 1 L8): "distribute the machines to
/// the job groups to balance the computation and communication in
/// each job group".
///
/// A group is internally balanced when `Σ Tcpu(m_g) = Σ Tnet`, i.e.
/// at `m_g* = Σ Tcpu(1) / Σ Tnet` (Eq. 2). We allocate one machine
/// per group, then distribute the rest proportionally to each
/// group's `m_g*`, and finally hand out rounding leftovers to the
/// most computation-bound groups — "having more machines reduces the
/// computation cost in an iteration, reducing the CPU-bound cases".
///
/// `gcpu`/`gnet` are the per-group `Σ Tcpu(1)` / `Σ Tnet` totals;
/// `alloc`, `shares` and `keyed` are caller-owned scratch. On return
/// `alloc` sums to exactly `machines` with every group ≥ 1.
fn allocate_machines_into(
    gcpu: &[f64],
    gnet: &[f64],
    machines: u32,
    alloc: &mut Vec<u32>,
    shares: &mut Vec<f64>,
    keyed: &mut Vec<(u64, u32)>,
) {
    let ng = gcpu.len();
    debug_assert!(ng as u32 <= machines);

    shares.clear();
    let mut total_ideal = 0.0;
    for gi in 0..ng {
        let ideal = if gnet[gi] > 0.0 {
            (gcpu[gi] / gnet[gi]).max(1.0)
        } else {
            1.0
        };
        shares.push(ideal);
        total_ideal += ideal;
    }
    // Proportional share of the cluster, at least one machine each,
    // settled by largest remainder so the allocation is O(n log n)
    // even for ten-thousand-machine clusters.
    for sh in shares.iter_mut() {
        *sh = *sh / total_ideal * f64::from(machines);
    }
    // A share lies in [0, machines], where the truncating cast is the
    // floor, exactly — and inline, where `f64::floor` is a libm call on
    // targets without SSE4.1.
    alloc.clear();
    for &sh in shares.iter() {
        alloc.push((sh as u32).max(1));
    }
    let need = |g: usize, alloc: &[u32]| gcpu[g] / f64::from(alloc[g]) - gnet[g];
    let assigned: u32 = alloc.iter().sum();
    if assigned == machines {
        return; // floors landed exactly; nothing to settle or trim
    }
    if assigned < machines {
        // Distribute the remainder by largest fractional share — one
        // machine per group at most, so no group can collect a second
        // leftover before every group has been considered — then any
        // residue to the most computation-bound groups. Only the
        // *membership* of the top-`left` set matters (every group in it
        // gets exactly one machine), so an O(n) selection under the
        // total (fraction descending, index) order replaces a full
        // sort. Fractions are non-negative, where bit patterns order
        // like values, so that order is ascending `(!bits, index)`:
        // integer keys, no comparator closure.
        let mut left = machines - assigned;
        keyed.clear();
        keyed.extend(shares.iter().zip(0u32..).map(|(&sh, g)| {
            let frac = sh - f64::from(sh as u32);
            (!frac.to_bits(), g)
        }));
        if (left as usize) < ng {
            keyed.select_nth_unstable(left as usize);
            keyed.truncate(left as usize);
        }
        for &(_, g) in keyed.iter() {
            if left == 0 {
                break;
            }
            alloc[g as usize] += 1;
            left -= 1;
        }
        while left > 0 {
            let gi = (0..ng)
                .max_by(|&a, &b| need(a, alloc).total_cmp(&need(b, alloc)))
                .expect("ng >= 1");
            let grant = (left / ng as u32).max(1);
            alloc[gi] += grant;
            left -= grant;
        }
    } else {
        // Trim over-allocation (from the max(1) clamps), taking
        // machines back one at a time from the least CPU-bound group
        // with spare machines. A decrement only raises the need of the
        // trimmed group itself, so a min-heap with re-insertion visits
        // groups in exactly the order the naive argmin rescan would —
        // in O((n + over) log n) instead of O(n · over).
        let mut over = assigned - machines;
        keyed.clear();
        for g in 0..ng {
            if alloc[g] > 1 {
                keyed.push((total_order_key(need(g, alloc)), g as u32));
            }
        }
        for i in (0..keyed.len() / 2).rev() {
            trim_heap_sift_down(keyed, i);
        }
        while over > 0 {
            let gi = keyed[0].1 as usize;
            alloc[gi] -= 1;
            over -= 1;
            if alloc[gi] > 1 {
                keyed[0].0 = total_order_key(need(gi, alloc));
            } else {
                keyed.swap_remove(0);
            }
            if keyed.is_empty() {
                debug_assert_eq!(over, 0, "some group must have spare machines");
            } else {
                trim_heap_sift_down(keyed, 0);
            }
        }
    }
    debug_assert_eq!(alloc.iter().sum::<u32>(), machines);
}

/// `x`'s rank in [`f64::total_cmp`]'s order as an unsigned integer:
/// `total_order_key(a) < total_order_key(b)` exactly when `a` sorts
/// before `b`. Negative values flip every bit (a larger magnitude sorts
/// lower), the rest only gain the sign bit (above every negative).
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// Sifts entry `i` of the `(need key, group)` min-heap down into place.
/// Ordering is `(need, group index)` ascending — a total order, so the
/// pop sequence is deterministic and matches a naive argmin rescan.
fn trim_heap_sift_down(heap: &mut [(u64, u32)], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut m = i;
        if l < heap.len() && heap[l] < heap[m] {
            m = l;
        }
        if r < heap.len() && heap[r] < heap[m] {
            m = r;
        }
        if m == i {
            return;
        }
        heap.swap(i, m);
        i = m;
    }
}

/// Appends the candidate counts for `n` to `out` (allocation-free when
/// `out` has warm capacity).
fn extend_candidate_counts(out: &mut Vec<usize>, n: usize) {
    if n <= 64 {
        out.extend(1..=n);
        return;
    }
    out.extend(1..=64);
    let mut x = 64.0f64;
    loop {
        x *= 1.15;
        let v = x.round() as usize;
        if v >= n {
            break;
        }
        out.push(v);
    }
    out.push(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    #[test]
    fn empty_inputs_produce_empty_grouping() {
        let s = Scheduler::default();
        let out = s.schedule(&[], 10);
        assert!(out.grouping.is_empty());
        let out = s.schedule(&[prof(0, 1.0, 1.0)], 0);
        assert!(out.grouping.is_empty());
        assert_eq!(out.unscheduled, vec![JobId::new(0)]);
    }

    #[test]
    fn single_job_gets_all_machines() {
        let s = Scheduler::default();
        let out = s.schedule(&[prof(0, 100.0, 1.0)], 8);
        assert_eq!(out.grouping.len(), 1);
        assert_eq!(out.grouping.total_machines(), 8);
        assert_eq!(out.grouping.total_jobs(), 1);
    }

    #[test]
    fn all_machines_are_always_allocated() {
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..6)
            .map(|i| prof(i, 10.0 + i as f64 * 7.0, 2.0 + i as f64))
            .collect();
        for m in [3u32, 7, 16, 100] {
            let out = s.schedule(&jobs, m);
            assert_eq!(out.grouping.total_machines(), m as usize, "machines={m}");
            assert!(out.grouping.validate().is_ok());
        }
    }

    #[test]
    fn complementary_jobs_are_colocated() {
        // One CPU-heavy and one net-heavy job of equal iteration time:
        // multiplexing them in one group gives near-perfect utilization,
        // so the scheduler should put them together rather than apart.
        let s = Scheduler::default();
        let jobs = vec![prof(0, 16.0, 2.0), prof(1, 4.0, 8.0)];
        let out = s.schedule(&jobs, 2);
        assert_eq!(out.grouping.len(), 1, "{}", out.grouping);
        assert_eq!(out.grouping.groups()[0].jobs().len(), 2);
        assert!(out.utilization.cpu > 0.8);
    }

    #[test]
    fn utilization_never_below_first_candidate() {
        // The incremental loop only keeps strictly improving candidates,
        // so the final score is at least the two-job score.
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..8)
            .map(|i| prof(i, 20.0 / (1.0 + i as f64), 3.0))
            .collect();
        let first = s.schedule_exact(&jobs[..1], 16);
        let full = s.schedule(&jobs, 16);
        assert!(full.utilization.score(0.7) >= first.utilization.score(0.7) - 1e-9);
    }

    #[test]
    fn scheduled_plus_unscheduled_covers_input() {
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..10)
            .map(|i| prof(i, 5.0 + (i % 3) as f64 * 30.0, 1.0 + (i % 4) as f64 * 4.0))
            .collect();
        let out = s.schedule(&jobs, 20);
        let mut seen: Vec<JobId> = out.grouping.jobs().collect();
        seen.extend(out.unscheduled.iter().copied());
        seen.sort();
        let mut expect: Vec<JobId> = jobs.iter().map(|p| p.job()).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn group_count_balances_cpu_and_net() {
        // 8 identical jobs with tcpu1 = 64, tnet = 4 on 32 machines.
        // Uniform DoP m = 32/nG makes Tcpu(m) = 2*nG; balance at nG = 2.
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..8).map(|i| prof(i, 64.0, 4.0)).collect();
        let out = s.schedule_exact(&jobs, 32);
        assert_eq!(out.grouping.len(), 2, "{}", out.grouping);
    }

    #[test]
    fn large_jobs_kept_together() {
        // Two big jobs and four small: chunked assignment should place
        // the two big jobs in the same group (job-bound avoidance).
        let s = Scheduler::default();
        let mut jobs = vec![prof(0, 100.0, 10.0), prof(1, 98.0, 10.0)];
        jobs.extend((2..6).map(|i| prof(i, 10.0, 1.0)));
        let out = s.schedule_exact(&jobs, 6);
        if out.grouping.len() >= 2 {
            let g_of_0 = out.grouping.group_of(JobId::new(0)).unwrap().id();
            let g_of_1 = out.grouping.group_of(JobId::new(1)).unwrap().id();
            assert_eq!(g_of_0, g_of_1, "{}", out.grouping);
        }
    }

    #[test]
    fn machine_allocation_favors_cpu_bound_groups() {
        let s = Scheduler::default();
        // Group A (CPU-bound) should end up with more machines than
        // group B (net-bound) if they get separated.
        let jobs = vec![
            prof(0, 200.0, 2.0),
            prof(1, 190.0, 2.0),
            prof(2, 4.0, 10.0),
            prof(3, 4.0, 11.0),
        ];
        let out = s.schedule_exact(&jobs, 12);
        if out.grouping.len() == 2 {
            let dop_of = |j: u64| out.grouping.group_of(JobId::new(j)).unwrap().dop();
            assert!(dop_of(0) >= dop_of(2), "{}", out.grouping);
        }
    }

    #[test]
    fn max_jobs_per_group_is_respected() {
        let cfg = SchedulerConfig {
            max_jobs_per_group: Some(2),
            ..SchedulerConfig::default()
        };
        let s = Scheduler::new(cfg);
        let jobs: Vec<JobProfile> = (0..6).map(|i| prof(i, 10.0, 10.0)).collect();
        let out = s.schedule_exact(&jobs, 6);
        for g in out.grouping.groups() {
            assert!(g.jobs().len() <= 2, "{}", out.grouping);
        }
    }

    #[test]
    fn predicted_iteration_aligns_with_groups() {
        let s = Scheduler::default();
        let jobs = vec![prof(0, 8.0, 2.0), prof(1, 2.0, 6.0)];
        let out = s.schedule(&jobs, 4);
        assert_eq!(out.predicted_iteration.len(), out.grouping.len());
        for &t in &out.predicted_iteration {
            assert!(t > 0.0);
        }
    }

    /// A profile carrying a measured APPLY charge on top of `prof`.
    fn prof_apply(i: u64, tcpu1: f64, tnet: f64, tapply: f64) -> JobProfile {
        let mut p = JobProfile::new(JobId::new(i));
        p.observe_sample(tcpu1, tnet, tapply, 1);
        p
    }

    #[test]
    fn charge_apply_off_is_byte_identical() {
        // Profiles with APPLY measurements scheduled by the default
        // (flag-off) scheduler must decide exactly as if the
        // measurements did not exist — the equivalence gate for the
        // fourth subtask class.
        let plain = Scheduler::default();
        let jobs_apply: Vec<JobProfile> = (0..12)
            .map(|i| {
                prof_apply(
                    i,
                    3.0 + (i * 13 % 50) as f64,
                    1.0 + (i * 7 % 9) as f64,
                    0.25 + (i % 3) as f64,
                )
            })
            .collect();
        let jobs_plain: Vec<JobProfile> = (0..12)
            .map(|i| prof(i, 3.0 + (i * 13 % 50) as f64, 1.0 + (i * 7 % 9) as f64))
            .collect();
        for machines in [3u32, 8, 24] {
            let a = plain.schedule(&jobs_apply, machines);
            let b = plain.schedule(&jobs_plain, machines);
            assert_eq!(a.grouping, b.grouping, "machines={machines}");
            assert_eq!(
                a.utilization.cpu.to_bits(),
                b.utilization.cpu.to_bits(),
                "machines={machines}"
            );
            assert_eq!(a.utilization.net.to_bits(), b.utilization.net.to_bits());
            let pa: Vec<u64> = a.predicted_iteration.iter().map(|t| t.to_bits()).collect();
            let pb: Vec<u64> = b.predicted_iteration.iter().map(|t| t.to_bits()).collect();
            assert_eq!(pa, pb, "machines={machines}");
        }
    }

    #[test]
    fn charge_apply_on_without_measurements_is_byte_identical() {
        // The flag costs nothing when no profile ever saw an APPLY
        // sample: tapply() reads 0.0 and the charged expressions
        // reproduce the unflagged arithmetic bit-for-bit.
        let plain = Scheduler::default();
        let charged = Scheduler::new(SchedulerConfig {
            charge_apply: true,
            ..SchedulerConfig::default()
        });
        let jobs: Vec<JobProfile> = (0..10)
            .map(|i| prof(i, 5.0 + (i % 3) as f64 * 30.0, 1.0 + (i % 4) as f64 * 4.0))
            .collect();
        let a = charged.schedule(&jobs, 20);
        let b = plain.schedule(&jobs, 20);
        assert_eq!(a.grouping, b.grouping);
        assert_eq!(a.utilization.cpu.to_bits(), b.utilization.cpu.to_bits());
        assert_eq!(a.utilization.net.to_bits(), b.utilization.net.to_bits());
    }

    #[test]
    fn charge_apply_raises_predicted_iteration() {
        // Same grouping, but the per-group Eq. 1 prediction grows by
        // the APPLY charge when the flag is on.
        let jobs = vec![prof_apply(0, 16.0, 2.0, 1.0), prof_apply(1, 4.0, 8.0, 1.0)];
        let off = Scheduler::default().schedule(&jobs, 2);
        let on = Scheduler::new(SchedulerConfig {
            charge_apply: true,
            ..SchedulerConfig::default()
        })
        .schedule(&jobs, 2);
        let off_total: f64 = off.predicted_iteration.iter().sum();
        let on_total: f64 = on.predicted_iteration.iter().sum();
        assert!(
            on_total > off_total,
            "APPLY charge should lengthen predictions: on={on_total} off={off_total}"
        );
    }

    /// A profile carrying a *trusted* measured PUSH density on top of
    /// `prof` (repeated identical samples: the EWMA reads exactly
    /// `density` once warm).
    fn prof_density(i: u64, tcpu1: f64, tnet: f64, density: f64) -> JobProfile {
        let mut p = prof(i, tcpu1, tnet);
        for _ in 0..JobProfile::DENSITY_TRUST_ITERS {
            p.observe_push_density(density);
        }
        p
    }

    /// A scheduler with the sparse-COMM charge explicitly off (the
    /// pre-flip default).
    fn uncharged() -> Scheduler {
        Scheduler::new(SchedulerConfig {
            charge_sparse_comm: false,
            ..SchedulerConfig::default()
        })
    }

    #[test]
    fn charge_sparse_comm_off_is_byte_identical() {
        // Profiles with density measurements scheduled by a flag-off
        // scheduler must decide exactly as if the measurements did not
        // exist.
        let plain = uncharged();
        let jobs_dense: Vec<JobProfile> = (0..12)
            .map(|i| prof(i, 3.0 + (i * 13 % 50) as f64, 1.0 + (i * 7 % 9) as f64))
            .collect();
        let jobs_sparse: Vec<JobProfile> = (0..12)
            .map(|i| {
                prof_density(
                    i,
                    3.0 + (i * 13 % 50) as f64,
                    1.0 + (i * 7 % 9) as f64,
                    0.1 + (i % 5) as f64 * 0.2,
                )
            })
            .collect();
        for machines in [3u32, 8, 24] {
            let a = plain.schedule(&jobs_sparse, machines);
            let b = plain.schedule(&jobs_dense, machines);
            assert_eq!(a.grouping, b.grouping, "machines={machines}");
            assert_eq!(a.utilization.cpu.to_bits(), b.utilization.cpu.to_bits());
            assert_eq!(a.utilization.net.to_bits(), b.utilization.net.to_bits());
            let pa: Vec<u64> = a.predicted_iteration.iter().map(|t| t.to_bits()).collect();
            let pb: Vec<u64> = b.predicted_iteration.iter().map(|t| t.to_bits()).collect();
            assert_eq!(pa, pb, "machines={machines}");
        }
    }

    #[test]
    fn charge_sparse_comm_on_without_measurements_is_byte_identical() {
        // Cold density EWMAs read 1.0, and `tnet * 1.0` is an exact
        // identity, so the flag costs nothing until the runtime
        // actually measures a sparse wire.
        let plain = uncharged();
        let charged = Scheduler::new(SchedulerConfig {
            charge_sparse_comm: true,
            ..SchedulerConfig::default()
        });
        let jobs: Vec<JobProfile> = (0..10)
            .map(|i| prof(i, 5.0 + (i % 3) as f64 * 30.0, 1.0 + (i % 4) as f64 * 4.0))
            .collect();
        let a = charged.schedule(&jobs, 20);
        let b = plain.schedule(&jobs, 20);
        assert_eq!(a.grouping, b.grouping);
        assert_eq!(a.utilization.cpu.to_bits(), b.utilization.cpu.to_bits());
        assert_eq!(a.utilization.net.to_bits(), b.utilization.net.to_bits());
    }

    #[test]
    fn charge_sparse_comm_grants_sparse_jobs_a_higher_dop() {
        // Two jobs with identical raw (tcpu1, tnet); job 0 pushes
        // coordinate-sparse deltas at density 0.1. Uncharged, the
        // scheduler cannot tell them apart and splits the machines
        // evenly. Charged, the sparse job's effective Tnet collapses,
        // its Tcpu(m) = Tnet balance point moves to a much higher DoP,
        // and the machine allocation follows (Eq. 2: extra machines
        // shrink Tcpu but not Tnet, so they belong with the now
        // CPU-bound sparse job) — its predicted iteration drops below
        // the density-blind schedule's.
        let jobs = vec![
            prof_density(0, 40.0, 10.0, 0.1),
            prof_density(1, 40.0, 10.0, 1.0),
        ];
        let on = Scheduler::new(SchedulerConfig {
            charge_sparse_comm: true,
            ..SchedulerConfig::default()
        })
        .schedule_exact(&jobs, 16);
        let off = uncharged().schedule_exact(&jobs, 16);
        let group_of = |out: &ScheduleOutcome, j: u64| {
            out.grouping
                .group_of(JobId::new(j))
                .expect("job scheduled")
                .clone()
        };
        assert_eq!(
            on.grouping.len(),
            2,
            "charged, the jobs are no longer complementary: {}",
            on.grouping
        );
        let sparse_dop = group_of(&on, 0).dop();
        let dense_dop = group_of(&on, 1).dop();
        assert!(
            sparse_dop > dense_dop,
            "sparse job should out-DoP the dense job: {sparse_dop} vs {dense_dop}"
        );
        // The blind arm cannot tell the jobs apart: whatever it does,
        // it does symmetrically (shared group, or equal DoPs).
        let off_sparse = group_of(&off, 0);
        let off_dense = group_of(&off, 1);
        assert!(
            off_sparse.id() == off_dense.id() || off_sparse.dop() == off_dense.dop(),
            "density-blind schedule should treat identical profiles alike: {}",
            off.grouping
        );
        // Lower predicted JCT for the sparse job: its group's Eq. 1
        // prediction under the charged schedule beats the blind one.
        let predicted_of = |out: &ScheduleOutcome, j: u64| {
            let gi = group_of(out, j).id().index() as usize;
            out.predicted_iteration[gi]
        };
        assert!(
            predicted_of(&on, 0) < predicted_of(&off, 0),
            "sparse job should iterate faster under the charged schedule: {} vs {}",
            predicted_of(&on, 0),
            predicted_of(&off, 0)
        );
    }

    #[test]
    fn deterministic_given_same_input() {
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..12)
            .map(|i| prof(i, 3.0 + (i * 13 % 50) as f64, 1.0 + (i * 7 % 9) as f64))
            .collect();
        let a = s.schedule(&jobs, 24);
        let b = s.schedule(&jobs, 24);
        assert_eq!(a.grouping, b.grouping);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        // Scan helpers must never change the decision: same grouping,
        // same utilization, same predictions, for any thread count
        // (including more threads than prefixes).
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..90)
            .map(|i| prof(i, 1.0 + (i * 37 % 113) as f64, 0.5 + (i * 11 % 23) as f64))
            .collect();
        let seq = s.schedule_with_workers(&jobs, 300, 1);
        for workers in [2usize, 3, 8, 64, 1024] {
            let par = s.schedule_with_workers(&jobs, 300, workers);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    /// `n` jobs with `Tcpu(1) == Tnet`, sizes within ×1.5 of each
    /// other: any three of them on one machine keep CPU and network
    /// busy all the time, so on `machines` machines the prefix of
    /// `3 * machines` jobs scores 1.0 and the saturation cut fires
    /// there at the latest.
    fn saturating(n: u64) -> Vec<JobProfile> {
        (0..n)
            .map(|i| {
                let c = 1.0 + (i * 37 % 50) as f64 / 100.0;
                prof(i, c, c)
            })
            .collect()
    }

    /// A fresh cache over `jobs`, priced as `s` prices COMM.
    fn synced(jobs: &[JobProfile], s: &Scheduler) -> ProfileCache {
        let mut cache = ProfileCache::empty();
        cache.sync(jobs, s.cfg.charge_sparse_comm);
        cache
    }

    fn same_prefix(a: &PrefixEval, b: &PrefixEval) -> bool {
        (a.nj, a.ng, a.score.to_bits()) == (b.nj, b.ng, b.score.to_bits())
            && a.utilization == b.utilization
    }

    #[test]
    fn saturation_cut_survives_scan_helpers() {
        // The cut must keep cutting under parallelism: with `w`
        // threads at most `w - 1` prefixes beyond the cut are
        // evaluated, whatever the interleaving, and the fold stops at
        // the same prefix with the same winner.
        let s = Scheduler::default();
        let jobs = saturating(150);
        let machines = 6;
        let cache = synced(&jobs, &s);
        let mut scratch = ScheduleScratch::new();
        let seq = s.scan_prefixes(jobs.len(), machines, 1, &cache, &mut scratch);
        let prefixes = scratch.prefixes.len();
        assert_eq!(seq.evaluated, seq.folded, "alone, nothing is wasted");
        assert!(seq.folded < prefixes, "the cut must fire");
        assert!(
            seq.folded <= DENSE_PREFIX_MAX,
            "inside the dense range: cut after {} prefixes",
            seq.folded
        );
        for w in [2usize, 3, 8] {
            for round in 0..40 {
                let par = s.scan_prefixes(jobs.len(), machines, w, &cache, &mut scratch);
                assert!(same_prefix(&par.best, &seq.best), "w={w} round={round}");
                assert_eq!(par.folded, seq.folded, "w={w} round={round}");
                assert!(
                    (par.folded..par.folded + w).contains(&par.evaluated),
                    "w={w} round={round}: evaluated {} prefixes, cut at index {}",
                    par.evaluated,
                    par.folded - 1
                );
            }
        }
        // More threads than prefixes: the count is clamped, the bound
        // holds against the clamped count.
        let few = saturating(3);
        let cache = synced(&few, &s);
        let seq = s.scan_prefixes(few.len(), 1, 1, &cache, &mut scratch);
        let par = s.scan_prefixes(few.len(), 1, 8, &cache, &mut scratch);
        assert!(same_prefix(&par.best, &seq.best));
        assert_eq!(par.folded, seq.folded);
        assert!(par.evaluated <= few.len());
    }

    #[test]
    fn exhaustive_scan_with_helpers_evaluates_every_prefix() {
        // Without the exact prunes nothing is cut: every prefix is
        // evaluated once and folded, with or without helpers.
        let s = Scheduler::new(SchedulerConfig {
            exact_prunes: false,
            ..SchedulerConfig::default()
        });
        let jobs = saturating(100);
        let cache = synced(&jobs, &s);
        let mut scratch = ScheduleScratch::new();
        for w in [1usize, 3] {
            let scan = s.scan_prefixes(jobs.len(), 6, w, &cache, &mut scratch);
            assert_eq!(scan.evaluated, scratch.prefixes.len(), "w={w}");
            assert_eq!(scan.folded, scratch.prefixes.len(), "w={w}");
        }
    }

    #[test]
    fn incremental_decisions_with_helpers_match_fresh_ones() {
        // A synced cache with scan helpers: the helpers' scratches are
        // carried across decisions inside the caller's and keyed on
        // the same cache generation, through clean rounds (nothing
        // dirty, generation kept), dirty rounds and shape changes.
        let s = Scheduler::default();
        let mut jobs: Vec<JobProfile> = (0..120)
            .map(|i| prof(i, 1.0 + (i * 37 % 113) as f64, 0.5 + (i * 11 % 23) as f64))
            .collect();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        for round in 0..16u64 {
            match round % 4 {
                // Clean round: same profiles, same generation.
                1 => {}
                // Shape change: the job list shrinks, full rebuild.
                3 => {
                    jobs.truncate(jobs.len() - 7);
                }
                // Dirty rounds: a few profiles move.
                _ => {
                    for k in 0..5 {
                        let at = ((round * 31 + k * 17) % jobs.len() as u64) as usize;
                        let id = jobs[at].job().index();
                        jobs[at] = prof(
                            id,
                            2.0 + ((round + k) * 29 % 97) as f64,
                            0.25 + ((round + k) * 13 % 19) as f64,
                        );
                    }
                }
            }
            let generation = cache.generation;
            let got = s.full_pass(&jobs, 150, 3, &mut cache, &mut scratch);
            if round % 4 == 1 {
                assert_eq!(cache.generation, generation, "clean round");
            }
            let fresh = s.schedule_with_workers(&jobs, 150, 1);
            assert_eq!(got, fresh, "round {round}");
            assert_eq!(scratch.helpers.len(), 2, "helper scratches are kept");
        }
    }

    #[test]
    fn short_job_lists_are_scanned_alone() {
        // Whatever the host, a list too short to repay a spawn gets no
        // helper; a long one gets at most eight threads.
        assert_eq!(scan_workers(0), 1);
        assert_eq!(scan_workers(SCAN_HELPERS_MIN_JOBS - 1), 1);
        assert!((1..=8).contains(&scan_workers(SCAN_HELPERS_MIN_JOBS)));
        assert_eq!(scan_workers(10_000), scan_workers(SCAN_HELPERS_MIN_JOBS));
    }

    /// Runs the machine allocation on fresh buffers: `(alloc, shares)`.
    fn allocate(gcpu: &[f64], gnet: &[f64], machines: u32) -> (Vec<u32>, Vec<f64>) {
        let (mut alloc, mut shares, mut keyed) = (Vec::new(), Vec::new(), Vec::new());
        allocate_machines_into(gcpu, gnet, machines, &mut alloc, &mut shares, &mut keyed);
        (alloc, shares)
    }

    /// The machine allocation as written before it was integer-keyed —
    /// `f64::floor`, a `total_cmp` comparator under
    /// `select_nth_unstable_by`, a trim heap over `(f64, usize)` pairs —
    /// kept as the reference the allocation must match exactly.
    fn allocate_reference(gcpu: &[f64], gnet: &[f64], machines: u32) -> Vec<u32> {
        let ng = gcpu.len();
        let mut shares = Vec::new();
        let mut total_ideal = 0.0;
        for gi in 0..ng {
            let ideal = if gnet[gi] > 0.0 {
                (gcpu[gi] / gnet[gi]).max(1.0)
            } else {
                1.0
            };
            shares.push(ideal);
            total_ideal += ideal;
        }
        for sh in shares.iter_mut() {
            *sh = *sh / total_ideal * f64::from(machines);
        }
        let mut alloc: Vec<u32> = shares
            .iter()
            .map(|&sh| (sh.floor() as u32).max(1))
            .collect();
        let need = |g: usize, alloc: &[u32]| gcpu[g] / f64::from(alloc[g]) - gnet[g];
        let assigned: u32 = alloc.iter().sum();
        if assigned < machines {
            let mut left = machines - assigned;
            let mut rema: Vec<usize> = (0..ng).collect();
            let fracs: Vec<f64> = shares.iter().map(|&sh| sh - sh.floor()).collect();
            let frac_desc = |&a: &usize, &b: &usize| fracs[b].total_cmp(&fracs[a]).then(a.cmp(&b));
            if (left as usize) < ng {
                rema.select_nth_unstable_by(left as usize, frac_desc);
                rema.truncate(left as usize);
            }
            for &g in &rema {
                if left == 0 {
                    break;
                }
                alloc[g] += 1;
                left -= 1;
            }
            while left > 0 {
                let gi = (0..ng)
                    .max_by(|&a, &b| need(a, &alloc).total_cmp(&need(b, &alloc)))
                    .expect("ng >= 1");
                let grant = (left / ng as u32).max(1);
                alloc[gi] += grant;
                left -= grant;
            }
        } else if assigned > machines {
            let mut over = assigned - machines;
            let (mut needs, mut groups) = (Vec::new(), Vec::new());
            for g in 0..ng {
                if alloc[g] > 1 {
                    needs.push(need(g, &alloc));
                    groups.push(g);
                }
            }
            for i in (0..groups.len() / 2).rev() {
                sift_down_reference(&mut needs, &mut groups, i);
            }
            while over > 0 {
                let gi = groups[0];
                alloc[gi] -= 1;
                over -= 1;
                let len = groups.len();
                if alloc[gi] > 1 {
                    needs[0] = need(gi, &alloc);
                } else {
                    needs[0] = needs[len - 1];
                    groups[0] = groups[len - 1];
                    needs.pop();
                    groups.pop();
                }
                if !groups.is_empty() {
                    sift_down_reference(&mut needs, &mut groups, 0);
                }
            }
        }
        alloc
    }

    /// The reference trim heap's sift-down, `(need, group)` ascending.
    fn sift_down_reference(needs: &mut [f64], groups: &mut [usize], mut i: usize) {
        let before = |needs: &[f64], groups: &[usize], a: usize, b: usize| {
            needs[a]
                .total_cmp(&needs[b])
                .then(groups[a].cmp(&groups[b]))
                .is_lt()
        };
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < groups.len() && before(needs, groups, l, m) {
                m = l;
            }
            if r < groups.len() && before(needs, groups, r, m) {
                m = r;
            }
            if m == i {
                return;
            }
            needs.swap(i, m);
            groups.swap(i, m);
            i = m;
        }
    }

    /// The swap pass's pair as it was picked before the integer-keyed
    /// scans: `max_by` / `filter().min_by()` over `total_cmp`.
    fn swap_pair_reference(imbs: &[f64]) -> (usize, usize) {
        let ng = imbs.len();
        let g1 = (0..ng)
            .max_by(|&a, &b| imbs[a].abs().total_cmp(&imbs[b].abs()))
            .expect("two groups");
        let g2 = (0..ng)
            .filter(|&g| g != g1)
            .min_by(|&a, &b| {
                (imbs[a] * imbs[g1].signum()).total_cmp(&(imbs[b] * imbs[g1].signum()))
            })
            .expect("two groups");
        (g1, g2)
    }

    #[test]
    fn allocation_matches_the_reference_exactly() {
        // Random group totals, half of them from small palettes so that
        // equal shares — equal fractional parts — are common, `Tnet = 0`
        // groups among them; clusters from exactly one machine per
        // group up to fifty; one case in fifty above the sparse-mode
        // population (1024 groups). The counts at the end prove every
        // branch ran.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const CPU: [f64; 7] = [0.1, 0.5, 1.0, 3.0, 7.0, 12.5, 100.0];
        const NET: [f64; 6] = [0.0, 0.25, 1.0, 2.0, 3.0, 10.0];
        let mut rng = StdRng::seed_from_u64(23);
        let (mut exact, mut remainder, mut boundary_ties, mut trimmed) = (0, 0, 0, 0);
        let (mut one_each, mut wide) = (0, 0);
        for case in 0..4000 {
            let ng: u32 = if case % 50 == 0 {
                rng.gen_range(1025..1400)
            } else {
                rng.gen_range(1..40)
            };
            let palette = rng.gen_range(0u8..2) == 0;
            let (gcpu, gnet): (Vec<f64>, Vec<f64>) = (0..ng)
                .map(|_| {
                    if palette {
                        (
                            CPU[rng.gen_range(0..CPU.len())],
                            NET[rng.gen_range(0..NET.len())],
                        )
                    } else {
                        let net = if rng.gen_range(0u8..5) == 0 {
                            0.0
                        } else {
                            rng.gen_range(0.01..10.0)
                        };
                        (rng.gen_range(0.01..50.0), net)
                    }
                })
                .unzip();
            let machines = ng
                + match rng.gen_range(0u8..4) {
                    0 => 0,
                    1 => rng.gen_range(1..4),
                    2 => rng.gen_range(1..2 * ng + 1),
                    _ => rng.gen_range(1..50 * ng),
                };
            let (alloc, shares) = allocate(&gcpu, &gnet, machines);
            assert_eq!(
                alloc,
                allocate_reference(&gcpu, &gnet, machines),
                "case {case}: {gcpu:?} / {gnet:?} on {machines} machines"
            );
            one_each += usize::from(machines == ng);
            wide += usize::from(ng > 1024);
            let assigned: u32 = shares.iter().map(|&sh| (sh.floor() as u32).max(1)).sum();
            if assigned > machines {
                trimmed += 1;
            } else if assigned == machines {
                exact += 1;
            } else {
                remainder += 1;
                let left = (machines - assigned) as usize;
                let mut fracs: Vec<f64> = shares.iter().map(|&sh| sh - sh.floor()).collect();
                fracs.sort_by(|a, b| b.total_cmp(a));
                boundary_ties += usize::from(left < fracs.len() && fracs[left - 1] == fracs[left]);
            }
        }
        let counts = [exact, remainder, boundary_ties, trimmed, one_each, wide];
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn swap_pair_matches_max_by_and_min_by() {
        // Imbalances drawn from a palette of duplicate magnitudes, both
        // zeros and both infinities, mixed with arbitrary values. No
        // NaN: which NaN `x * NaN` returns is not fixed by the language,
        // so neither formulation has a defined answer for it.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PALETTE: [f64; 10] = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            2.0,
            -2.0,
            1e-300,
            -1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..20_000 {
            let ng = rng.gen_range(2usize..70);
            let imbs: Vec<f64> = (0..ng)
                .map(|_| match rng.gen_range(0u8..4) {
                    0 => rng.gen_range(-5.0..5.0),
                    _ => PALETTE[rng.gen_range(0..PALETTE.len())],
                })
                .collect();
            assert_eq!(
                swap_pair(&imbs),
                swap_pair_reference(&imbs),
                "case {case}: {imbs:?}"
            );
        }
    }

    #[test]
    fn total_order_key_ranks_like_total_cmp() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let mut values = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ];
        values.extend((0..200).map(|_| f64::from_bits(rng.next_u64())));
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn allocation_trims_overallocation_from_least_cpu_bound() {
        // Ideal shares [10, 1, 1, 1, 1] on 6 machines: the max(1)
        // clamps over-allocate (floors give [4,1,1,1,1] = 8 > 6), and
        // trimming must only take from groups with spare machines —
        // here only group 0 — leaving every group >= 1.
        let gcpu = [100.0, 1.0, 1.0, 1.0, 1.0];
        let gnet = [10.0, 1.0, 1.0, 1.0, 1.0];
        let (alloc, _) = allocate(&gcpu, &gnet, 6);
        assert_eq!(alloc.iter().sum::<u32>(), 6);
        assert!(alloc.iter().all(|&a| a >= 1), "{alloc:?}");
        assert_eq!(alloc, vec![2, 1, 1, 1, 1]);
    }

    #[test]
    fn allocation_remainder_gives_each_group_at_most_one_extra() {
        // Four identical groups with ideal 1.5 machines each on 7
        // machines: shares are 1.75 each, floors assign 4, and the 3
        // leftovers must go to 3 *different* groups (largest remainder,
        // ties by group index) — never two to one group.
        let gcpu = [3.0, 3.0, 3.0, 3.0];
        let gnet = [2.0, 2.0, 2.0, 2.0];
        let (alloc, shares) = allocate(&gcpu, &gnet, 7);
        assert_eq!(alloc, vec![2, 2, 2, 1]);
        for (gi, &a) in alloc.iter().enumerate() {
            assert!(
                a <= shares[gi].floor() as u32 + 1,
                "group {gi} got {a} with share {}",
                shares[gi]
            );
        }
    }

    #[test]
    fn allocation_zero_network_groups_get_minimum_share() {
        // A group with no network demand has ideal share 1; all the
        // slack flows to the CPU-bound groups and the sum is exact.
        let gcpu = [50.0, 8.0];
        let gnet = [5.0, 0.0];
        let (alloc, _) = allocate(&gcpu, &gnet, 11);
        assert_eq!(alloc.iter().sum::<u32>(), 11);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
        assert!(alloc[1] >= 1);
    }

    #[test]
    fn release_pass_empty_inputs_produce_empty_grouping() {
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let out = s.schedule_release(&[], 10, &mut cache, &mut scratch);
        assert!(out.grouping.is_empty());
        let jobs = [prof(0, 1.0, 1.0)];
        let out = s.schedule_release(&jobs, 0, &mut cache, &mut scratch);
        assert!(out.grouping.is_empty());
        assert_eq!(out.unscheduled, vec![JobId::new(0)]);
    }

    #[test]
    fn release_pass_allocates_all_freed_machines() {
        // Whatever prefix the release pass picks, every freed machine
        // must end up in some group — freed capacity never idles.
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let jobs: Vec<JobProfile> = (0..6)
            .map(|i| prof(i, 10.0 + i as f64 * 7.0, 2.0 + i as f64))
            .collect();
        for m in [1u32, 3, 7, 16] {
            let out = s.schedule_release(&jobs, m, &mut cache, &mut scratch);
            assert_eq!(out.grouping.total_machines(), m as usize, "machines={m}");
            assert!(out.grouping.validate().is_ok());
            assert_eq!(
                out.grouping.total_jobs() + out.unscheduled.len(),
                jobs.len(),
                "machines={m}"
            );
        }
    }

    #[test]
    fn release_pass_scores_no_worse_than_first_job_alone() {
        // The candidate fold starts from the one-job prefix, so the
        // winner's score can only improve on it.
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let jobs: Vec<JobProfile> = (0..8)
            .map(|i| prof(i, 20.0 / (1.0 + i as f64), 3.0))
            .collect();
        let all = s.schedule_release(&jobs, 12, &mut cache, &mut scratch);
        let mut c1 = ProfileCache::empty();
        let mut s1 = ScheduleScratch::new();
        let one = s.schedule_release(&jobs[..1], 12, &mut c1, &mut s1);
        let w = s.config().cpu_weight;
        assert!(all.utilization.score(w) >= one.utilization.score(w));
    }

    #[test]
    fn release_pass_is_stable_across_cache_reuse() {
        // Riding the dirty-set pipeline must not change the decision:
        // a warm cache/scratch pair reproduces the cold result.
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..10)
            .map(|i| prof(i, 5.0 + (i % 4) as f64 * 3.0, 1.0 + (i % 3) as f64))
            .collect();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let cold = s.schedule_release(&jobs, 9, &mut cache, &mut scratch);
        // Unrelated interleaved full pass dirties the scratch views.
        let _ = s.schedule_reusing(&jobs[..4], 9, &mut cache, &mut scratch);
        let warm = s.schedule_release(&jobs, 9, &mut cache, &mut scratch);
        assert_eq!(format!("{}", cold.grouping), format!("{}", warm.grouping));
        assert_eq!(cold.utilization, warm.utilization);
        assert_eq!(cold.unscheduled, warm.unscheduled);
    }

    #[test]
    fn scan_scores_stay_at_the_pinned_pre_optimization_scores() {
        // Scores (cpu weight 0.7) the frozen pre-optimization scan
        // (`core::reference`, removed right after this capture on
        // e58d389) chose on these six 40-job workloads. The fast scan
        // explores the same candidate space with the same model, so it
        // must never fall meaningfully below them (near-ties may
        // resolve differently because of the once-sorted key).
        const PINNED: [f64; 6] = [
            0.9360565460717076,
            0.9297708536609937,
            0.8125041211525288,
            0.7542419184222494,
            0.7136944836707474,
            0.6763694550298633,
        ];
        let fast = Scheduler::default();
        for (seed, pinned) in PINNED.into_iter().enumerate() {
            let seed = seed as u64;
            let jobs: Vec<JobProfile> = (0..40)
                .map(|i| {
                    let h = (i * 2654435761 + seed * 97) % 1013;
                    prof(i, 1.0 + (h % 89) as f64, 0.5 + (h % 23) as f64)
                })
                .collect();
            let machines = 60 + (seed as u32) * 17;
            let fs = fast.schedule(&jobs, machines).utilization.score(0.7);
            assert!(
                fs >= pinned - 0.02,
                "seed {seed}: fast {fs} fell below the pinned reference {pinned}"
            );
        }
    }

    #[test]
    fn price_candidate_handles_degenerate_inputs() {
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let p = s.price_candidate(&[], 10, &mut cache, &mut scratch);
        assert_eq!(p, CandidatePrice::default());
        assert_eq!(p.marginal(), 0.0);
        let jobs = [prof(0, 1.0, 1.0)];
        let p = s.price_candidate(&jobs, 0, &mut cache, &mut scratch);
        assert_eq!(p, CandidatePrice::default());
    }

    #[test]
    fn first_job_on_an_empty_cluster_prices_positive() {
        // With nothing running, score_without is 0 and any valid job
        // scores positive: the first arrival is always profitable.
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let jobs = [prof(7, 12.0, 3.0)];
        let p = s.price_candidate(&jobs, 8, &mut cache, &mut scratch);
        assert_eq!(p.score_without, 0.0);
        assert!(p.score_with > 0.0);
        assert!(p.marginal() > 0.0);
    }

    #[test]
    fn complementary_candidate_prices_higher_than_clone() {
        // A net-heavy candidate joining a CPU-heavy incumbent
        // multiplexes cleanly, so its marginal utility must beat a
        // clone of the incumbent competing for the same resource.
        let s = Scheduler::default();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let complement = [prof(0, 16.0, 2.0), prof(1, 4.0, 8.0)];
        let clone = [prof(0, 16.0, 2.0), prof(1, 16.0, 2.0)];
        let pc = s.price_candidate(&complement, 2, &mut cache, &mut scratch);
        let mut cache2 = ProfileCache::empty();
        let mut scratch2 = ScheduleScratch::new();
        let pd = s.price_candidate(&clone, 2, &mut cache2, &mut scratch2);
        assert_eq!(pc.score_without.to_bits(), pd.score_without.to_bits());
        assert!(
            pc.marginal() > pd.marginal(),
            "complement {:?} should out-price clone {:?}",
            pc,
            pd
        );
    }

    #[test]
    fn price_candidate_is_deterministic_and_reusable() {
        // Same query through a warm cache/scratch pair must reproduce
        // the cold answer bit-for-bit (the dirty-set pipeline's
        // invariant), even with unrelated passes interleaved.
        let s = Scheduler::default();
        let jobs: Vec<JobProfile> = (0..9)
            .map(|i| prof(i, 5.0 + (i % 4) as f64 * 3.0, 1.0 + (i % 3) as f64))
            .collect();
        let mut cache = ProfileCache::empty();
        let mut scratch = ScheduleScratch::new();
        let cold = s.price_candidate(&jobs, 6, &mut cache, &mut scratch);
        let _ = s.schedule_reusing(&jobs[..4], 6, &mut cache, &mut scratch);
        let warm = s.price_candidate(&jobs, 6, &mut cache, &mut scratch);
        assert_eq!(cold.score_with.to_bits(), warm.score_with.to_bits());
        assert_eq!(cold.score_without.to_bits(), warm.score_without.to_bits());
    }
}
