//! Flat, reusable buffers for the Algorithm 1 fast path.
//!
//! [`Scheduler::schedule`](crate::schedule::Scheduler::schedule) scans
//! hundreds of `(job-prefix × group-count)` candidates per decision.
//! The naive formulation re-sorts the job list and re-sums profiles for
//! every candidate and allocates a fresh `Vec` per group — at 8K jobs /
//! 10K machines that is the dominant cost of a decision. This module
//! hoists everything candidate-independent into a [`ProfileCache`]
//! built once per decision, and keeps all candidate-dependent working
//! state in a [`ScheduleScratch`] that is reused (never reallocated)
//! across the whole scan:
//!
//! - `tcpu1[]` / `tnet[]`: struct-of-arrays copies of the profile
//!   durations, so the hot loops read flat `f64` slices instead of
//!   chasing `JobProfile → Ewma → Option<f64>` per access;
//! - `size_order[]`: job positions sorted once by single-machine
//!   iteration time (descending). Each prefix re-sorts its share of
//!   this nearly sorted order once, at its L6 seed DoP, and candidate
//!   groups are contiguous runs of that, so per-candidate grouping
//!   needs no sort at all;
//! - `ratio_order[]` + prefix sums: job positions sorted once by the
//!   balance break-point `tcpu1/tnet`. The Algorithm 1 L6 objective
//!   `Σ_j |Tcpu_j(m) − Tnet_j|` becomes two prefix-sum differences
//!   around a binary-searched split, i.e. O(log n) per grid point
//!   instead of O(n);
//! - per-prefix prefix sums over both orders, so group `ΣTcpu(1)` /
//!   `ΣTnet` totals are O(1) differences and a whole candidate is
//!   evaluated in amortized O(groups) plus one linear pass for the
//!   job-bound term of Eq. 1.
//!
//! Each scan worker owns one `ScheduleScratch`; the buffers grow to the
//! high-water mark of the largest prefix and stay allocated for the
//! rest of the decision. The helper threads' scratches live inside the
//! calling thread's (`helpers`), so a caller that carries its scratch
//! across decisions carries theirs too.

use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Job positions sorted by `Tcpu(1) + Tnet` descending (single-
    /// machine iteration time), ties broken by `JobId`. Per-prefix
    /// orders re-sort this at the prefix's seed DoP, starting from an
    /// already nearly sorted list.
    pub(crate) size_order: Vec<u32>,
    /// Job positions sorted by balance break-point `tcpu1/tnet`
    /// descending. A job is computation-bound at DoP `m` iff its
    /// break-point exceeds `m`, so the L6 objective splits this order
    /// at a binary-searched point.
    pub(crate) ratio_order: Vec<u32>,
    /// Sanitized break-point key per position (`+inf` for `tnet == 0`
    /// with CPU work, `0` for fully idle profiles — never NaN, so the
    /// split search is total).
    pub(crate) ratio_key: Vec<f64>,
    /// Build stamp, drawn afresh by every [`Self::sync`] that changed
    /// any cached value from one process-wide counter, so no two
    /// caches' contents ever share a stamp. [`ScheduleScratch::load_prefix`]
    /// keys its loaded prefix on this, so a decision over an unchanged
    /// cache skips the initial prefix gather.
    pub(crate) generation: u64,
    /// Scratch: dirty positions of the current incremental rebuild.
    dirty: Vec<u32>,
    /// Scratch: per-position dirty mask of the current incremental
    /// rebuild.
    dirty_mask: Vec<bool>,
    /// Scratch: merge output buffer for order repair.
    merged: Vec<u32>,
}

/// Source of every [`ProfileCache::generation`]; starts at 1 so that
/// 0 can mean "never loaded".
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

/// A generation no cache has held before.
fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
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

/// The size order: `Tcpu(1) + Tnet` descending, ties by `JobId` — a
/// strict total order over positions (ids are distinct).
fn by_size<'a>(
    tcpu1: &'a [f64],
    tnet: &'a [f64],
    id: &'a [JobId],
) -> impl Fn(u32, u32) -> std::cmp::Ordering + 'a {
    move |a, b| {
        let ta = tcpu1[a as usize] + tnet[a as usize];
        let tb = tcpu1[b as usize] + tnet[b as usize];
        tb.total_cmp(&ta)
            .then_with(|| id[a as usize].cmp(&id[b as usize]))
    }
}

/// The ratio order: break-point key descending, ties by `JobId` — a
/// strict total order over positions.
fn by_ratio<'a>(
    ratio_key: &'a [f64],
    id: &'a [JobId],
) -> impl Fn(u32, u32) -> std::cmp::Ordering + 'a {
    move |a, b| {
        ratio_key[b as usize]
            .total_cmp(&ratio_key[a as usize])
            .then_with(|| id[a as usize].cmp(&id[b as usize]))
    }
}

impl ProfileCache {
    /// Builds the cache with priced COMM seconds
    /// ([`JobProfile::priced_tnet`]): two O(n log n) sorts and three
    /// linear passes.
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
    /// buffer's capacity, deciding itself how much work that takes.
    ///
    /// When the job list has the same shape as the cached one (same
    /// length, same `JobId` at every position), only positions whose
    /// cached durations actually changed are re-derived, and the two
    /// sort orders are repaired by merging the re-sorted dirty
    /// positions into the retained clean ones — O(n + k log k) for `k`
    /// dirty jobs instead of two O(n log n) sorts; with nothing dirty
    /// the cache keeps its generation, so a paired scratch skips its
    /// prefix gathers too. A shape change rebuilds everything.
    ///
    /// Each job's cached `Tnet` is [`JobProfile::priced_tnet`], so a
    /// density crossing the trust threshold between calls is a value
    /// change like any other.
    ///
    /// **Byte-identity:** both comparators are strict total orders
    /// (`total_cmp` on the key, `JobId` tie-break — ids are distinct),
    /// so the sorted permutation is unique; merging two sorted
    /// subsequences under the same order reproduces exactly the
    /// permutation a full sort would. Values are compared by
    /// `to_bits`, so even a `-0.0 → 0.0` change (which `total_cmp`
    /// orders) marks the position dirty. The property tests in
    /// `crates/core/tests/` assert state equality against a fresh
    /// cache over arbitrary dirty subsets and shape changes.
    ///
    /// # Panics
    ///
    /// Panics if any profile is cold (same contract as
    /// [`JobProfile::tcpu_at`]).
    pub fn sync(&mut self, jobs: &[JobProfile]) {
        let n = jobs.len();
        if n != self.len() || jobs.iter().zip(&self.id).any(|(p, &id)| p.job() != id) {
            self.rebuild(jobs);
            return;
        }

        self.dirty.clear();
        for (i, p) in jobs.iter().enumerate() {
            let tcpu1 = p.tcpu_at(1);
            let tnet = p.priced_tnet();
            if tcpu1.to_bits() != self.tcpu1[i].to_bits()
                || tnet.to_bits() != self.tnet[i].to_bits()
            {
                self.tcpu1[i] = tcpu1;
                self.tnet[i] = tnet;
                self.ratio_key[i] = ratio_key_of(tcpu1, tnet);
                self.dirty.push(i as u32);
            }
        }
        if self.dirty.is_empty() {
            return;
        }

        self.dirty_mask.clear();
        self.dirty_mask.resize(n, false);
        for &p in &self.dirty {
            self.dirty_mask[p as usize] = true;
        }

        let Self {
            tcpu1,
            tnet,
            id,
            size_order,
            ratio_order,
            ratio_key,
            dirty,
            dirty_mask,
            merged,
            ..
        } = self;
        let size_cmp = by_size(tcpu1, tnet, id);
        dirty.sort_unstable_by(|&a, &b| size_cmp(a, b));
        Self::repair_order(size_order, dirty, dirty_mask, merged, size_cmp);

        let ratio_cmp = by_ratio(ratio_key, id);
        dirty.sort_unstable_by(|&a, &b| ratio_cmp(a, b));
        Self::repair_order(ratio_order, dirty, dirty_mask, merged, ratio_cmp);

        self.generation = next_generation();
    }

    /// The full rebuild behind [`Self::sync`]'s shape-change fallback.
    fn rebuild(&mut self, jobs: &[JobProfile]) {
        let n = jobs.len();
        self.tcpu1.clear();
        self.tnet.clear();
        self.id.clear();
        for p in jobs {
            self.tcpu1.push(p.tcpu_at(1));
            self.tnet.push(p.priced_tnet());
            self.id.push(p.job());
        }

        let Self {
            tcpu1,
            tnet,
            id,
            size_order,
            ratio_order,
            ratio_key,
            ..
        } = self;
        let size_cmp = by_size(tcpu1, tnet, id);
        size_order.clear();
        size_order.extend(0..n as u32);
        size_order.sort_unstable_by(|&a, &b| size_cmp(a, b));

        ratio_key.clear();
        ratio_key.extend((0..n).map(|i| ratio_key_of(tcpu1[i], tnet[i])));
        let ratio_cmp = by_ratio(ratio_key, id);
        ratio_order.clear();
        ratio_order.extend(0..n as u32);
        ratio_order.sort_unstable_by(|&a, &b| ratio_cmp(a, b));
        self.generation = next_generation();
    }

    /// Repairs one sort order after a dirty-set update: drops the
    /// dirty positions (the retained ones stay sorted — their keys are
    /// unchanged) and merges the re-sorted dirty positions back in.
    fn repair_order(
        order: &mut Vec<u32>,
        dirty: &[u32],
        dirty_mask: &[bool],
        merged: &mut Vec<u32>,
        cmp: impl Fn(u32, u32) -> std::cmp::Ordering,
    ) {
        order.retain(|&p| !dirty_mask[p as usize]);
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while i < order.len() && j < dirty.len() {
            if cmp(order[i], dirty[j]).is_lt() {
                merged.push(order[i]);
                i += 1;
            } else {
                merged.push(dirty[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&order[i..]);
        merged.extend_from_slice(&dirty[j..]);
        std::mem::swap(order, merged);
    }

    /// Canonical little-endian byte serialization of the cache's
    /// semantic state (durations, ids, orders, keys — not scratch
    /// buffers or the build stamp). Two caches with equal bytes are
    /// interchangeable for every scheduling decision; the dirty-set
    /// property tests compare incremental and full rebuilds through
    /// this.
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
        for v in &self.size_order {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.ratio_order {
            out.extend_from_slice(&v.to_le_bytes());
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

/// Reusable working buffers for one candidate-scan worker.
///
/// All vectors keep their capacity between candidates; a full decision
/// performs a bounded number of allocations regardless of how many
/// candidates it scans.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    /// `size_order` restricted to positions `< nj` (the current
    /// prefix), still in descending size order.
    pub(crate) sub_size: Vec<u32>,
    /// `tcpu1` gathered in `sub_size` order. The candidate loops index
    /// by *prefix position*, so their accesses are sequential over this
    /// small contiguous array instead of scattered over the whole
    /// cluster's profile cache.
    pub(crate) pcpu: Vec<f64>,
    /// `tnet` gathered in `sub_size` order.
    pub(crate) pnet: Vec<f64>,
    /// Prefix sums of `tcpu1` over `sub_size` (length `nj + 1`).
    pub(crate) ps_cpu: Vec<f64>,
    /// Prefix sums of `tnet` over `sub_size`.
    pub(crate) ps_net: Vec<f64>,
    /// Sort-key scratch for [`Self::sort_prefix_by_dop`], indexed by
    /// cache position (prefix positions are always `< nj`).
    pub(crate) sort_key: Vec<f64>,
    /// Break-point keys of the prefix, descending (for the L6 split
    /// search).
    pub(crate) sub_ratio_key: Vec<f64>,
    /// Prefix sums of `tcpu1` over the prefix's ratio order.
    pub(crate) rs_cpu: Vec<f64>,
    /// Prefix sums of `tnet` over the prefix's ratio order.
    pub(crate) rs_net: Vec<f64>,
    /// Working membership as *prefix positions* (indices into
    /// `pcpu`/`pnet`/`sub_size`); swap fine-tuning mutates it in
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
    /// Candidate prefix sizes for the current decision.
    pub(crate) prefixes: Vec<usize>,
    /// One result slot per entry of `prefixes`, filled by whichever
    /// scan thread evaluated that prefix.
    pub(crate) slots: Vec<Option<PrefixEval>>,
    /// Scratches of the scan's helper threads. They see only the cache
    /// this scratch is paired with, so their `loaded_gen` keys hold
    /// for the same reason this scratch's does.
    pub(crate) helpers: Vec<ScheduleScratch>,
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
    /// (`0` = never loaded; a built cache's generation is always
    /// ≥ 1). Together with `loaded_nj` this keys the loaded views, so
    /// re-loading the same prefix of an unchanged cache is free — the
    /// common case when [`ProfileCache::sync`] found nothing dirty
    /// between decisions. Generations are unique across caches, so a
    /// scratch may move between caches.
    pub(crate) loaded_gen: u64,
}

impl ScheduleScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the first `nj` jobs (the caller's priority prefix) into
    /// the per-prefix views: the size order and the ratio order
    /// restricted to the prefix, with the ratio order's prefix sums.
    /// The duration views follow from [`Self::sort_prefix_by_dop`],
    /// which every prefix runs next. O(n) time, allocation-free after
    /// warm-up.
    pub(crate) fn load_prefix(&mut self, cache: &ProfileCache, nj: usize) {
        debug_assert!(nj <= cache.len());

        // Same prefix of the same build: every loaded view is already
        // exact. `sub_size` may sit in a DoP-sorted permutation from a
        // later `sort_prefix_by_dop` call, but that call re-sorts it
        // under a strict total order, so its result does not depend on
        // the starting permutation; everything else loaded here is
        // determined by the *set* of prefix positions, not their order.
        if nj == self.loaded_nj && self.loaded_gen == cache.generation && self.loaded_gen != 0 {
            return;
        }

        self.sub_size.clear();
        for &p in &cache.size_order {
            if (p as usize) < nj {
                self.sub_size.push(p);
                if self.sub_size.len() == nj {
                    break;
                }
            }
        }

        self.sub_ratio_key.clear();
        self.rs_cpu.clear();
        self.rs_net.clear();
        self.rs_cpu.push(0.0);
        self.rs_net.push(0.0);
        let (mut c, mut t) = (0.0f64, 0.0f64);
        let mut taken = 0usize;
        for &p in &cache.ratio_order {
            if (p as usize) < nj {
                self.sub_ratio_key.push(cache.ratio_key[p as usize]);
                c += cache.tcpu1[p as usize];
                t += cache.tnet[p as usize];
                self.rs_cpu.push(c);
                self.rs_net.push(t);
                taken += 1;
                if taken == nj {
                    break;
                }
            }
        }

        self.loaded_nj = nj;
        self.loaded_gen = cache.generation;
    }

    /// Re-sorts the loaded prefix by iteration time at uniform DoP
    /// `dop` (`tcpu1/dop + tnet`, descending, ties by `JobId`) and
    /// builds the gathered duration views and their prefix sums in that
    /// order. Called once per prefix with the L6 seed DoP, so every
    /// group-count candidate of the prefix shares the order — the
    /// per-candidate sort of the naive formulation is gone. The input
    /// is the canonical size order (iteration time at DoP 1), which is
    /// already nearly sorted for this key, so the sort runs well below
    /// its O(n log n) bound.
    pub(crate) fn sort_prefix_by_dop(&mut self, cache: &ProfileCache, dop: f64) {
        // Jobs in the prefix sit at cache positions < nj, so the key
        // table is prefix-sized and filled sequentially.
        self.sort_key.clear();
        self.sort_key.resize(self.sub_size.len(), 0.0);
        for &p in &self.sub_size {
            self.sort_key[p as usize] = cache.tcpu1[p as usize] / dop + cache.tnet[p as usize];
        }
        let key = &self.sort_key;
        let id = &cache.id;
        self.sub_size.sort_unstable_by(|&a, &b| {
            key[b as usize]
                .total_cmp(&key[a as usize])
                .then_with(|| id[a as usize].cmp(&id[b as usize]))
        });

        self.pcpu.clear();
        self.pnet.clear();
        self.ps_cpu.clear();
        self.ps_net.clear();
        self.ps_cpu.push(0.0);
        self.ps_net.push(0.0);
        let (mut c, mut t) = (0.0f64, 0.0f64);
        for &p in &self.sub_size {
            let (c0, t0) = (cache.tcpu1[p as usize], cache.tnet[p as usize]);
            self.pcpu.push(c0);
            self.pnet.push(t0);
            c += c0;
            t += t0;
            self.ps_cpu.push(c);
            self.ps_net.push(t);
        }
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

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    #[test]
    fn size_order_is_descending_iteration_time() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        assert_eq!(cache.size_order, vec![1, 2, 0]);
    }

    #[test]
    fn ratio_order_handles_zero_network() {
        // tnet == 0 jobs are infinitely computation-bound; fully idle
        // profiles sort last. No NaN keys survive sanitization.
        let jobs = vec![prof(0, 4.0, 2.0), prof(1, 3.0, 0.0), prof(2, 0.0, 0.0)];
        let cache = ProfileCache::build(&jobs);
        assert_eq!(cache.ratio_order, vec![1, 0, 2]);
        assert!(cache.ratio_key.iter().all(|k| !k.is_nan()));
    }

    #[test]
    fn prefix_load_restricts_to_first_jobs() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        let mut s = ScheduleScratch::new();
        s.load_prefix(&cache, 2);
        // Only positions 0 and 1 participate, still size-ordered, and
        // at DoP 1 the iteration-time order is the size order.
        assert_eq!(s.sub_size, vec![1, 0]);
        s.sort_prefix_by_dop(&cache, 1.0);
        assert_eq!(s.sub_size, vec![1, 0]);
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
        let mut s = ScheduleScratch::new();
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
        let g0 = cache.generation;

        // Nothing changed: the cache keeps its generation, so a scratch
        // whose `loaded_gen` matches can skip `load_prefix` entirely.
        cache.sync(&jobs);
        assert_eq!(cache.generation, g0);

        // A real value change draws a new one (other caches, in other
        // tests' threads, may draw in between).
        jobs[1] = prof(1, 9.0, 1.0);
        cache.sync(&jobs);
        let g1 = cache.generation;
        assert!(g1 > g0);
        assert_eq!(cache.size_order, vec![1, 0]);

        // So does a shape change, which rebuilds everything.
        jobs.pop();
        cache.sync(&jobs);
        assert!(cache.generation > g1);
        assert_eq!(cache.size_order, vec![0]);
    }

    #[test]
    fn load_prefix_generation_guard_skips_clean_reload() {
        let jobs = vec![prof(0, 1.0, 1.0), prof(1, 9.0, 3.0), prof(2, 4.0, 4.0)];
        let cache = ProfileCache::build(&jobs);
        let mut s = ScheduleScratch::new();
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
}
