//! Flat, reusable buffers for the Algorithm 1 fast path.
//!
//! [`Scheduler::schedule`](crate::schedule::Scheduler::schedule) scans
//! hundreds of `(job-prefix × group-count)` candidates per decision.
//! The naive formulation re-sorts the job list and re-sums profiles for
//! every candidate and allocates a fresh `Vec` per group — at 8K jobs /
//! 10K machines that is the dominant cost of a decision. This module
//! hoists everything candidate-independent into a [`ProfileCache`]
//! synced once per decision, and keeps all candidate-dependent working
//! state in per-thread prefix views that are reused (never
//! reallocated) across the whole scan:
//!
//! - `tcpu1[]` / `tnet[]` / `ratio_key[]`: struct-of-arrays copies of
//!   the profile durations and their balance break-points, so the hot
//!   loops read flat `f64` slices instead of chasing
//!   `JobProfile → Ewma → Option<f64>` per access;
//! - `order[]`: the prefix's positions sorted by iteration time at its
//!   L6 seed DoP (descending). Candidate groups are contiguous runs of
//!   it, so per-candidate grouping needs no sort at all;
//! - `sub_ratio[]` + prefix sums: the prefix's positions sorted by the
//!   break-point `tcpu1/tnet`. The Algorithm 1 L6 objective
//!   `Σ_j |Tcpu_j(m) − Tnet_j|` becomes two prefix-sum differences
//!   around a binary-searched split, i.e. O(log n) per grid point
//!   instead of O(n);
//! - per-prefix prefix sums over both orders, so group `ΣTcpu(1)` /
//!   `ΣTnet` totals are O(1) differences and a whole candidate is
//!   evaluated in amortized O(groups) plus one linear pass for the
//!   job-bound term of Eq. 1.
//!
//! A scan thread claims prefixes in ascending order, so each prefix's
//! views extend the previous prefix's: only the new positions are
//! sorted, merged in, and summed from the first index they moved.
//!
//! A [`ScheduleScratch`] is Algorithm 1's whole working set: the cache,
//! the calling thread's views, the scan helpers' views and the scan's
//! prefix list and result slots. The buffers grow to the high-water
//! mark of the largest prefix and stay allocated, so a caller that
//! carries one scratch across decisions regrows nothing once warm.

use std::cmp::Ordering as CmpOrdering;

use crate::job::JobId;
use crate::profile::JobProfile;
use crate::schedule::PrefixEval;

/// Candidate-independent, struct-of-arrays view of the job profiles,
/// built once per scheduling decision.
#[derive(Debug, Clone, Default)]
pub struct ProfileCache {
    /// `Tcpu(1)` per job, indexed by position in the caller's job slice.
    pub(crate) tcpu1: Vec<f64>,
    /// Priced `Tnet` per job ([`JobProfile::priced_tnet`]), indexed by
    /// position. Pricing *here* — rather than at every use — keeps the
    /// L6 seed, the swap deltas, the machine allocation and the Eq. 3/4
    /// scoring mutually consistent: they all price the wire the job
    /// actually uses.
    pub(crate) tnet: Vec<f64>,
    /// `JobId` per position (sort tie-breaker).
    pub(crate) id: Vec<JobId>,
    /// Sanitized break-point key per position (`+inf` for `tnet == 0`
    /// with CPU work, `0` for fully idle profiles — never NaN, so the
    /// split search is total). A job is computation-bound at DoP `m`
    /// iff its break-point exceeds `m`.
    pub(crate) ratio_key: Vec<f64>,
    /// Build stamp, bumped by every [`Self::sync`] that changed any
    /// cached value (`0` until the first one). The prefix views of the
    /// [`ScheduleScratch`] that owns the cache are keyed on it, so a
    /// decision over an unchanged cache extends or keeps the views the
    /// previous decision left.
    pub(crate) generation: u64,
}

/// Sanitized balance break-point `tcpu1 / tnet` (never NaN).
fn ratio_key_of(tcpu1: f64, tnet: f64) -> f64 {
    if tnet > 0.0 {
        tcpu1 / tnet
    } else if tcpu1 > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Both prefix orders: `key` descending, ties by `JobId` — a strict
/// total order over positions (ids are distinct).
fn descending<'a>(key: &'a [f64], id: &'a [JobId]) -> impl Fn(u32, u32) -> CmpOrdering + 'a {
    move |a, b| {
        key[b as usize]
            .total_cmp(&key[a as usize])
            .then_with(|| id[a as usize].cmp(&id[b as usize]))
    }
}

/// Brings `order`, a permutation of the positions `0..order.len()`, to
/// the sorted permutation of `0..nj` under `cmp`, and returns the first
/// index whose entry may have changed.
///
/// When `sorted` says `order` is already sorted under `cmp` and `nj`
/// extends it, only the new positions are sorted, then merged in from
/// the back in place, so the head before the first new entry keeps its
/// place. Otherwise the positions `< nj` it holds are kept, the missing
/// ones appended, and the whole re-sorted — a nearly sorted start when
/// `order` came from the same values or a nearby DoP.
///
/// `cmp` is a strict total order, so the sorted permutation is unique
/// and both paths (and any starting permutation) reach the same one.
fn resort(
    order: &mut Vec<u32>,
    fresh: &mut Vec<u32>,
    nj: usize,
    sorted: bool,
    cmp: impl Fn(u32, u32) -> CmpOrdering,
) -> usize {
    let old = order.len();
    if !sorted || nj < old {
        order.retain(|&p| (p as usize) < nj);
        order.extend(order.len() as u32..nj as u32);
        order.sort_unstable_by(|&a, &b| cmp(a, b));
        return 0;
    }
    fresh.clear();
    fresh.extend(old as u32..nj as u32);
    fresh.sort_unstable_by(|&a, &b| cmp(a, b));
    order.resize(nj, 0);
    let (mut i, mut k) = (old, nj);
    while let Some(&f) = fresh.last() {
        k -= 1;
        if i > 0 && cmp(order[i - 1], f).is_gt() {
            i -= 1;
            order[k] = order[i];
        } else {
            order[k] = f;
            fresh.pop();
        }
    }
    k
}

impl ProfileCache {
    /// Builds the cache with priced COMM seconds
    /// ([`JobProfile::priced_tnet`]): one linear pass, no sort — the
    /// orders are per prefix, in the views of a [`ScheduleScratch`].
    ///
    /// # Panics
    ///
    /// Panics if any profile is cold (same contract as
    /// [`JobProfile::tcpu_at`]).
    pub fn build(jobs: &[JobProfile]) -> Self {
        let mut cache = Self::empty();
        cache.sync(jobs);
        cache
    }

    /// An empty cache; fill it with [`Self::sync`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// Brings the cache in step with `jobs`, in place and reusing every
    /// buffer's capacity: one linear pass that re-derives each position
    /// whose durations changed.
    ///
    /// Values are compared by `to_bits`, so even a `-0.0 → 0.0` change
    /// counts. A changed value, or a shape change (a different length,
    /// or a different `JobId` at some position), draws a new
    /// generation; with nothing changed the cache keeps its generation,
    /// so the owning scratch keeps or extends its prefix views.
    ///
    /// Each job's cached `Tnet` is [`JobProfile::priced_tnet`], so a
    /// density crossing the trust threshold between calls is a value
    /// change like any other. The property tests in
    /// `crates/core/tests/` assert state equality
    /// ([`Self::state_bytes`]) against a fresh cache over arbitrary
    /// value and shape changes.
    ///
    /// # Panics
    ///
    /// Panics if any profile is cold (same contract as
    /// [`JobProfile::tcpu_at`]).
    pub fn sync(&mut self, jobs: &[JobProfile]) {
        let n = jobs.len();
        let reshaped = n != self.len() || jobs.iter().zip(&self.id).any(|(p, &id)| p.job() != id);
        if reshaped {
            self.id.clear();
            self.id.extend(jobs.iter().map(JobProfile::job));
            self.tcpu1.resize(n, 0.0);
            self.tnet.resize(n, 0.0);
            self.ratio_key.resize(n, 0.0);
        }
        let mut changed = reshaped;
        for (i, p) in jobs.iter().enumerate() {
            let tcpu1 = p.tcpu_at(1);
            let tnet = p.priced_tnet();
            if reshaped
                || tcpu1.to_bits() != self.tcpu1[i].to_bits()
                || tnet.to_bits() != self.tnet[i].to_bits()
            {
                self.tcpu1[i] = tcpu1;
                self.tnet[i] = tnet;
                self.ratio_key[i] = ratio_key_of(tcpu1, tnet);
                changed = true;
            }
        }
        if changed {
            self.generation += 1;
        }
    }

    /// Canonical little-endian byte serialization of the cache's
    /// semantic state (durations, ids, break-point keys — not the
    /// build stamp). Two caches with equal bytes are interchangeable
    /// for every scheduling decision; the property tests compare
    /// in-place syncs and fresh builds through this.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in &self.tcpu1 {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in &self.tnet {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in &self.id {
            out.extend_from_slice(&v.index().to_le_bytes());
        }
        for v in &self.ratio_key {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Number of cached jobs.
    pub fn len(&self) -> usize {
        self.tcpu1.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tcpu1.is_empty()
    }
}

/// Algorithm 1's working set, reused from decision to decision: the
/// [`ProfileCache`], the calling thread's prefix views, the scan
/// helpers' views, and the scan's prefix list and result slots.
///
/// The views only ever see this scratch's own cache, so they are keyed
/// on its generation alone. All vectors keep their capacity between
/// candidates and decisions; a full decision performs a bounded number
/// of allocations regardless of how many candidates it scans, and
/// [`Self::new`] performs none.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    /// The profiles of the current decision, synced at its start.
    pub(crate) cache: ProfileCache,
    /// The calling thread's prefix views.
    pub(crate) views: PrefixViews,
    /// Views of the scan's helper threads, kept across decisions.
    pub(crate) helpers: Vec<PrefixViews>,
    /// Candidate prefix sizes for the current decision.
    pub(crate) prefixes: Vec<usize>,
    /// One result slot per entry of `prefixes`, filled by whichever
    /// scan thread evaluated that prefix.
    pub(crate) slots: Vec<Option<PrefixEval>>,
}

impl ScheduleScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One scan thread's views of the loaded prefix and its candidate
/// buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixViews {
    /// The prefix's positions `0..nj` by iteration time at the DoP of
    /// the last [`Self::sort_prefix_by_dop`] (descending, ties by
    /// `JobId`).
    pub(crate) order: Vec<u32>,
    /// `tcpu1` gathered in `order`. The candidate loops index by
    /// *prefix position*, so their accesses are sequential over this
    /// small contiguous array instead of scattered over the whole
    /// cluster's profile cache.
    pub(crate) pcpu: Vec<f64>,
    /// `tnet` gathered in `order`.
    pub(crate) pnet: Vec<f64>,
    /// Prefix sums of `tcpu1` over `order` (length `nj + 1`).
    pub(crate) ps_cpu: Vec<f64>,
    /// Prefix sums of `tnet` over `order`.
    pub(crate) ps_net: Vec<f64>,
    /// `order`'s sort key per cache position (prefix positions are
    /// always `< nj`), at the DoP `order_dop`.
    pub(crate) sort_key: Vec<f64>,
    /// The prefix's positions by break-point key, descending, ties by
    /// `JobId`.
    pub(crate) sub_ratio: Vec<u32>,
    /// Break-point keys gathered in `sub_ratio` (for the L6 split
    /// search).
    pub(crate) sub_ratio_key: Vec<f64>,
    /// Prefix sums of `tcpu1` over `sub_ratio`.
    pub(crate) rs_cpu: Vec<f64>,
    /// Prefix sums of `tnet` over `sub_ratio`.
    pub(crate) rs_net: Vec<f64>,
    /// Scratch: an extension's new positions, sorted before the merge.
    fresh: Vec<u32>,
    /// Working membership as *prefix positions* (indices into
    /// `pcpu`/`pnet`/`order`); swap fine-tuning mutates it in
    /// place. Group `g` owns `members[bounds[g]..bounds[g+1]]`. It
    /// starts as the identity permutation and deviates only at swapped
    /// positions, so the per-group loops stream nearly sequentially.
    pub(crate) members: Vec<u32>,
    /// Group boundaries into `members` (length `ng + 1`).
    pub(crate) bounds: Vec<usize>,
    /// `Σ Tcpu(1)` per group, maintained incrementally across swaps.
    pub(crate) gcpu: Vec<f64>,
    /// `Σ Tnet` per group, maintained incrementally across swaps.
    pub(crate) gnet: Vec<f64>,
    /// Per-position swap deltas `tcpu1/dop − tnet` for the current
    /// candidate's uniform DoP.
    pub(crate) delta: Vec<f64>,
    /// Per-group imbalance for the current swap pass.
    pub(crate) imbs: Vec<f64>,
    /// Machines allocated per group.
    pub(crate) alloc: Vec<u32>,
    /// Proportional machine shares (largest-remainder input).
    pub(crate) shares: Vec<f64>,
    /// Integer-keyed groups of the machine allocation, `(key, group)`:
    /// the largest-remainder selection's fraction keys, or the trim
    /// heap's need keys.
    pub(crate) keyed: Vec<(u64, u32)>,
    /// Group-count grid for the current prefix.
    pub(crate) grid: Vec<usize>,
    /// Loaded prefix length (guards against stale reuse).
    pub(crate) loaded_nj: usize,
    /// [`ProfileCache::generation`] at the last [`Self::load_prefix`]
    /// (`0` = never loaded; a cache that has held a job has generation
    /// ≥ 1). While it matches, `sub_ratio` is sorted under the cache's
    /// values, so a longer prefix extends it and the same prefix is
    /// free.
    pub(crate) loaded_gen: u64,
    /// [`ProfileCache::generation`] at the last
    /// [`Self::sort_prefix_by_dop`] (`0` = never sorted).
    pub(crate) order_gen: u64,
    /// `to_bits` of the DoP of the last [`Self::sort_prefix_by_dop`].
    pub(crate) order_dop: u64,
}

/// Re-gathers `out` (`vals` in `order`) from index `from` on.
fn gather(out: &mut Vec<f64>, vals: &[f64], order: &[u32], from: usize) {
    out.truncate(from);
    out.extend(order[from..].iter().map(|&p| vals[p as usize]));
}

/// Re-folds `sums` (prefix sums of `vals` over `order`, length
/// `order.len() + 1`) from index `from` on, left to right, so the head
/// keeps its bits and the tail gets the bits a full fold gives.
fn refold(sums: &mut Vec<f64>, vals: &[f64], order: &[u32], from: usize) {
    if from == 0 {
        sums.clear();
        sums.push(0.0);
    } else {
        sums.truncate(from + 1);
    }
    let mut acc = sums[from];
    sums.extend(order[from..].iter().map(|&p| {
        acc += vals[p as usize];
        acc
    }));
}

impl PrefixViews {
    /// Loads the first `nj` jobs (the caller's priority prefix) into
    /// the ratio views: the prefix's break-point order, its keys and
    /// its prefix sums. The duration views follow from
    /// [`Self::sort_prefix_by_dop`], which every prefix runs next.
    ///
    /// Over an unchanged cache a longer prefix extends the loaded one
    /// (its `nj − loaded_nj` new positions are sorted and merged in,
    /// and the keys and sums redone from the first moved index) and
    /// the same prefix costs nothing; otherwise the views are rebuilt
    /// in O(nj log nj). Allocation-free after warm-up.
    pub(crate) fn load_prefix(&mut self, cache: &ProfileCache, nj: usize) {
        debug_assert!(nj <= cache.len());
        let sorted = self.loaded_gen == cache.generation && self.loaded_gen != 0;
        let cmp = descending(&cache.ratio_key, &cache.id);
        let from = resort(&mut self.sub_ratio, &mut self.fresh, nj, sorted, cmp);
        gather(
            &mut self.sub_ratio_key,
            &cache.ratio_key,
            &self.sub_ratio,
            from,
        );
        refold(&mut self.rs_cpu, &cache.tcpu1, &self.sub_ratio, from);
        refold(&mut self.rs_net, &cache.tnet, &self.sub_ratio, from);
        self.loaded_nj = nj;
        self.loaded_gen = cache.generation;
    }

    /// Sorts the loaded prefix by iteration time at uniform DoP `dop`
    /// (`tcpu1/dop + tnet`, descending, ties by `JobId`) into `order`
    /// and builds the gathered duration views and their prefix sums in
    /// that order. Called once per prefix with the L6 seed DoP, so
    /// every group-count candidate of the prefix shares the order —
    /// the per-candidate sort of the naive formulation is gone.
    ///
    /// The order is keyed on `(nj, generation, dop)`: the same key
    /// costs nothing, and a longer prefix at the same generation and
    /// DoP keys, sorts and merges only its new positions. Otherwise the
    /// previous order's positions `< nj` are kept and the rest
    /// appended, a nearly sorted start for a nearby DoP.
    pub(crate) fn sort_prefix_by_dop(&mut self, cache: &ProfileCache, dop: f64) {
        let nj = self.loaded_nj;
        let sorted = self.order_gen == cache.generation
            && self.order_gen != 0
            && self.order_dop == dop.to_bits();
        // Jobs in the prefix sit at cache positions < nj, so the key
        // table is prefix-sized and filled sequentially.
        let valid = if sorted {
            self.sort_key.len().min(nj)
        } else {
            0
        };
        self.sort_key.truncate(valid);
        self.sort_key
            .extend((valid..nj).map(|p| cache.tcpu1[p] / dop + cache.tnet[p]));
        let cmp = descending(&self.sort_key, &cache.id);
        let from = resort(&mut self.order, &mut self.fresh, nj, sorted, cmp);
        gather(&mut self.pcpu, &cache.tcpu1, &self.order, from);
        gather(&mut self.pnet, &cache.tnet, &self.order, from);
        refold(&mut self.ps_cpu, &cache.tcpu1, &self.order, from);
        refold(&mut self.ps_net, &cache.tnet, &self.order, from);
        self.order_gen = cache.generation;
        self.order_dop = dop.to_bits();
    }

    /// Algorithm 1 L6 objective `Σ_j |Tcpu_j(m) − Tnet_j|` for the
    /// loaded prefix at uniform DoP `m`, in O(log n) via the ratio-order
    /// prefix sums: jobs whose break-point exceeds `m` contribute
    /// `Tcpu(m) − Tnet`, the rest contribute `Tnet − Tcpu(m)`.
    pub(crate) fn l6_objective(&self, m: f64) -> f64 {
        let nj = self.loaded_nj;
        let k = self.sub_ratio_key.partition_point(|&r| r > m);
        let above = self.rs_cpu[k] / m - self.rs_net[k];
        let below = (self.rs_net[nj] - self.rs_net[k]) - (self.rs_cpu[nj] - self.rs_cpu[k]) / m;
        above + below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use proptest::prelude::*;

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    /// Fresh views after `load_prefix(nj)` and `sort_prefix_by_dop(dop)`.
    fn prepared(cache: &ProfileCache, nj: usize, dop: f64) -> PrefixViews {
        let mut s = PrefixViews::default();
        s.load_prefix(cache, nj);
        s.sort_prefix_by_dop(cache, dop);
        s
    }

    #[test]
    fn order_at_dop_one_is_descending_iteration_time() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        assert_eq!(prepared(&cache, 3, 1.0).order, vec![1, 2, 0]);
    }

    #[test]
    fn ratio_order_handles_zero_network() {
        // tnet == 0 jobs are infinitely computation-bound; fully idle
        // profiles sort last. No NaN keys survive sanitization.
        let jobs = vec![prof(0, 4.0, 2.0), prof(1, 3.0, 0.0), prof(2, 0.0, 0.0)];
        let cache = ProfileCache::build(&jobs);
        let s = prepared(&cache, 3, 1.0);
        assert_eq!(s.sub_ratio, vec![1, 0, 2]);
        assert!(s.sub_ratio_key.iter().all(|k| !k.is_nan()));
    }

    #[test]
    fn prefix_load_restricts_to_first_jobs() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        // Only positions 0 and 1 participate.
        let s = prepared(&cache, 2, 1.0);
        assert_eq!(s.order, vec![1, 0]);
        assert_eq!(s.sub_ratio, vec![1, 0]);
        assert_eq!(s.ps_cpu, vec![0.0, 9.0, 10.0]);
        assert_eq!(s.ps_net, vec![0.0, 3.0, 4.0]);
    }

    #[test]
    fn l6_objective_matches_naive_sum() {
        let jobs = vec![
            prof(0, 12.0, 2.0),
            prof(1, 2.0, 8.0),
            prof(2, 5.0, 5.0),
            prof(3, 30.0, 1.0),
        ];
        let cache = ProfileCache::build(&jobs);
        let mut s = PrefixViews::default();
        for nj in 1..=jobs.len() {
            s.load_prefix(&cache, nj);
            for m in [0.5f64, 1.0, 2.0, 3.0, 7.5, 40.0] {
                let naive: f64 = jobs[..nj]
                    .iter()
                    .map(|p| (p.tcpu_at(1) / m - p.tnet()).abs())
                    .sum();
                let fast = s.l6_objective(m);
                assert!(
                    (naive - fast).abs() < 1e-9 * naive.max(1.0),
                    "nj={nj} m={m}: naive={naive} fast={fast}"
                );
            }
        }
    }

    #[test]
    fn sync_generation_tracks_changes() {
        let mut jobs = vec![prof(0, 4.0, 2.0), prof(1, 3.0, 1.0)];
        let mut cache = ProfileCache::build(&jobs);
        assert_eq!(cache.generation, 1, "the first sync changes everything");

        // Nothing changed: the cache keeps its generation, so views
        // whose `loaded_gen` matches keep their prefix.
        cache.sync(&jobs);
        assert_eq!(cache.generation, 1);

        // A real value change bumps it.
        jobs[1] = prof(1, 9.0, 1.0);
        cache.sync(&jobs);
        assert_eq!(cache.generation, 2);
        assert_eq!(cache.tcpu1, vec![4.0, 9.0]);

        // So does a shape change, which re-derives every position.
        jobs.pop();
        cache.sync(&jobs);
        assert_eq!(cache.generation, 3);
        assert_eq!(
            cache.state_bytes(),
            ProfileCache::build(&jobs).state_bytes()
        );
    }

    #[test]
    fn load_prefix_generation_guard_skips_clean_reload() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        let mut s = PrefixViews::default();
        s.load_prefix(&cache, 3);
        let gen = s.loaded_gen;
        assert_eq!(gen, cache.generation);
        // Poison a loaded buffer, reload with the same (nj, generation):
        // the guard must skip the reload and leave the poison in place —
        // proving the skip actually happens.
        s.rs_cpu[0] = f64::NAN;
        s.load_prefix(&cache, 3);
        assert!(s.rs_cpu[0].is_nan());
        // A different prefix length reloads for real.
        s.load_prefix(&cache, 2);
        assert_eq!(s.rs_cpu[0], 0.0);
    }

    #[test]
    fn extension_leaves_the_head_untouched() {
        // Break-points 10, 5, 1 and, at DoP 1, iteration times 11, 6,
        // 2: job 2 sorts last in both orders, so extending the 2-job
        // prefix to 3 jobs only appends.
        let jobs = vec![prof(0, 10.0, 1.0), prof(1, 5.0, 1.0), prof(2, 1.0, 1.0)];
        let cache = ProfileCache::build(&jobs);
        let mut s = prepared(&cache, 2, 1.0);
        // Poison the heads of every view. A rebuild would overwrite
        // them; an extension re-folds only from the first moved index.
        s.sub_ratio_key[0] = f64::NAN;
        s.rs_cpu[1] = f64::NAN;
        s.pcpu[0] = f64::NAN;
        s.ps_net[1] = f64::NAN;
        s.load_prefix(&cache, 3);
        s.sort_prefix_by_dop(&cache, 1.0);
        assert!(s.sub_ratio_key[0].is_nan() && s.rs_cpu[1].is_nan());
        assert!(s.pcpu[0].is_nan() && s.ps_net[1].is_nan());
        // The tail is folded from the (clean) last head sum.
        assert_eq!((s.rs_cpu[3], s.ps_cpu[3]), (16.0, 16.0));
        // Another DoP re-sorts the whole prefix and clears the poison
        // of the DoP views.
        s.sort_prefix_by_dop(&cache, 2.0);
        assert_eq!(s.pcpu, vec![10.0, 5.0, 1.0]);
        assert_eq!(s.ps_net, vec![0.0, 1.0, 2.0, 3.0]);
        // A new position that sorts first moves every entry.
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 5.0, 1.0), prof(2, 10.0, 1.0)];
        let cache = ProfileCache::build(&jobs);
        let mut s = prepared(&cache, 2, 1.0);
        s.rs_net[1] = f64::NAN;
        s.load_prefix(&cache, 3);
        assert_eq!(s.sub_ratio, vec![2, 1, 0]);
        assert_eq!(s.rs_net, vec![0.0, 1.0, 2.0, 3.0]);
    }

    /// Every view, as bits.
    fn views(s: &PrefixViews) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let ints = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
        vec![
            vec![s.loaded_nj as u64],
            ints(&s.order),
            bits(&s.pcpu),
            bits(&s.pnet),
            bits(&s.ps_cpu),
            bits(&s.ps_net),
            ints(&s.sub_ratio),
            bits(&s.sub_ratio_key),
            bits(&s.rs_cpu),
            bits(&s.rs_net),
        ]
    }

    /// Durations from a small set, so keys collide across distinct ids,
    /// with `tnet == 0` and idle `(0, 0)` profiles among them.
    fn drawn(id: u64, c: u8, t: u8) -> JobProfile {
        const CPU: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 7.5];
        const NET: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
        prof(id, CPU[usize::from(c) % 5], NET[usize::from(t) % 4])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Views walked through any sequence of prefixes, DoPs and syncs
        /// hold, after every step, exactly the views fresh ones build
        /// for the same prefix and DoP: ascending runs
        /// (the extension path), shrinks, repeats, and value or shape
        /// changes of the cache in between.
        #[test]
        fn walked_views_match_a_fresh_scratch(
            seeds in prop::collection::vec((0u8..5, 0u8..4), 1..24),
            steps in prop::collection::vec((0u8..6, 0usize..64, 0usize..4), 1..40),
        ) {
            const DOPS: [f64; 4] = [1.0, 2.0, 3.5, 8.0];
            let mut jobs: Vec<JobProfile> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(c, t))| drawn(i as u64, c, t))
                .collect();
            let mut next_id = jobs.len() as u64;
            let mut cache = ProfileCache::build(&jobs);
            let mut s = PrefixViews::default();
            let mut nj = 0;
            for (step, &(kind, a, d)) in steps.iter().enumerate() {
                match kind {
                    // Extend: the next prefix of an ascending run.
                    0 | 1 => nj += 1 + a % 4,
                    // Any prefix: a shrink, a repeat or a jump.
                    2 => nj = a,
                    // Repeat the prefix (at a drawn DoP).
                    3 => {}
                    // New values for one job.
                    4 => {
                        let at = a % jobs.len();
                        let id = jobs[at].job().index();
                        jobs[at] = drawn(id, a as u8, d as u8 + 1);
                        cache.sync(&jobs);
                    }
                    // A new shape: a job leaves or arrives.
                    _ => {
                        if a % 2 == 0 && jobs.len() > 1 {
                            jobs.remove(a % jobs.len());
                        } else {
                            jobs.push(drawn(next_id, a as u8, d as u8));
                            next_id += 1;
                        }
                        cache.sync(&jobs);
                    }
                }
                nj = nj.clamp(1, jobs.len());
                let dop = DOPS[d];
                s.load_prefix(&cache, nj);
                s.sort_prefix_by_dop(&cache, dop);
                prop_assert_eq!(
                    views(&s),
                    views(&prepared(&cache, nj, dop)),
                    "step {} ({:?}): nj {} of {} at DoP {}",
                    step,
                    (kind, a, d),
                    nj,
                    jobs.len(),
                    dop
                );
            }
        }
    }
}
