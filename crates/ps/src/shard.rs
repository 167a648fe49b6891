//! The sharded global model.
//!
//! The model vector is split into contiguous ranges, one per node, each
//! guarded by its own lock — workers PULL by snapshotting every shard
//! and PUSH by adding deltas into every shard, exactly the PS push/pull
//! API shape. Per-shard locking means pushes from different jobs (or to
//! different shards) proceed in parallel, like independent server
//! processes.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::fold::{fold_dense, fold_sparse};

/// A model vector sharded across nodes.
///
/// Cloning is cheap (shared `Arc`s): clones refer to the same model.
///
/// # Examples
///
/// ```
/// use harmony_ps::ShardedModel;
///
/// let model = ShardedModel::new(10, 3);
/// model.push(&vec![1.0; 10]);
/// let snapshot = model.pull();
/// assert_eq!(snapshot, vec![1.0; 10]);
/// ```
#[derive(Clone)]
pub struct ShardedModel {
    shards: Arc<Vec<RwLock<Vec<f64>>>>,
    ranges: Arc<Vec<std::ops::Range<usize>>>,
    len: usize,
}

impl ShardedModel {
    /// Creates a zero model of `len` parameters across `nodes` shards.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `nodes` is zero.
    pub fn new(len: usize, nodes: usize) -> Self {
        assert!(len > 0, "model length must be non-zero");
        assert!(nodes > 0, "shard count must be non-zero");
        let nodes = nodes.min(len);
        let base = len / nodes;
        let extra = len % nodes;
        let mut ranges = Vec::with_capacity(nodes);
        let mut cursor = 0;
        for i in 0..nodes {
            let size = base + usize::from(i < extra);
            ranges.push(cursor..cursor + size);
            cursor += size;
        }
        let shards = ranges
            .iter()
            .map(|r| RwLock::new(vec![0.0; r.len()]))
            .collect();
        Self {
            shards: Arc::new(shards),
            ranges: Arc::new(ranges),
            len,
        }
    }

    /// Total parameter count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the model has no parameters (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes a full PULL transfers (all shards).
    pub fn pull_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<f64>()) as u64
    }

    /// Snapshots the full model (a PULL of every shard).
    pub fn pull(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.pull_into(&mut out);
        out
    }

    /// Snapshots the full model into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the model length.
    pub fn pull_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "pull buffer length mismatch");
        for (shard, range) in (0..self.shards.len()).zip(self.ranges.iter()) {
            self.pull_shard_into(shard, &mut out[range.clone()]);
        }
    }

    /// The contiguous range of model indices held by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        self.ranges[shard].clone()
    }

    /// Snapshots one shard (a partial PULL). Returns the shard's range
    /// and values.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn pull_shard(&self, shard: usize) -> (std::ops::Range<usize>, Vec<f64>) {
        let range = self.ranges[shard].clone();
        let mut out = vec![0.0; range.len()];
        self.pull_shard_into(shard, &mut out);
        (range, out)
    }

    /// Copies one shard's values into `out` — a partial PULL without the
    /// allocation `pull_shard` pays.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `out.len()` differs from the
    /// shard's length.
    pub fn pull_shard_into(&self, shard: usize, out: &mut [f64]) {
        let guard = self.shards[shard].read();
        assert_eq!(out.len(), guard.len(), "shard buffer length mismatch");
        out.copy_from_slice(&guard);
    }

    /// Adds `delta` (indexed from the shard's own start) into one shard
    /// — a partial PUSH. Holding only this shard's lock, pushes to
    /// other shards proceed in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `delta.len()` differs from
    /// the shard's length.
    pub fn push_shard(&self, shard: usize, delta: &[f64]) {
        let mut guard = self.shards[shard].write();
        assert_eq!(delta.len(), guard.len(), "shard delta length mismatch");
        for (w, d) in guard.iter_mut().zip(delta) {
            *w += d;
        }
    }

    /// Adds `delta` into the model (a PUSH to every shard).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len()` differs from the model length.
    pub fn push(&self, delta: &[f64]) {
        assert_eq!(delta.len(), self.len, "delta length mismatch");
        for (shard, range) in self.shards.iter().zip(self.ranges.iter()) {
            let mut guard = shard.write();
            for (w, d) in guard.iter_mut().zip(&delta[range.clone()]) {
                *w += d;
            }
        }
    }

    /// Replaces the model contents (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the model length.
    pub fn restore(&self, values: &[f64]) {
        assert_eq!(values.len(), self.len, "restore length mismatch");
        for (shard, range) in self.shards.iter().zip(self.ranges.iter()) {
            shard.write().copy_from_slice(&values[range.clone()]);
        }
    }
}

impl std::fmt::Debug for ShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedModel")
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Default [`StripedModel`] stripe length: 8192 parameters (64 KiB),
/// small enough that contended pushes from different workers rarely
/// wait on the same lock, large enough that lock traffic stays
/// negligible next to the adds.
pub const DEFAULT_STRIPE_LEN: usize = 8192;

/// A model vector in fixed-length stripes, each behind its own lock.
///
/// Where [`ShardedModel`] mirrors the *placement* unit (one shard per
/// server node), `StripedModel` sizes its lock granularity for
/// *contention*: writers working on disjoint stripe ranges never touch
/// the same lock, so concurrent folds scale with stripes, not nodes.
/// Its adds run the same one-delta fold kernels as the PS runtime's
/// APPLY subtasks, which fold into one contiguous model buffer instead
/// (and two dense deltas at a time where they can). Determinism rule
/// for callers: fold contributor deltas into every stripe in one fixed
/// (worker-id) order, so the aggregate is bit-identical however the
/// contributions raced — f64 addition is not associative, so the fold
/// order, not just the operand set, must be fixed.
///
/// Cloning is cheap (shared `Arc`): clones refer to the same model.
#[derive(Clone)]
pub struct StripedModel {
    stripes: Arc<Vec<RwLock<Box<[f64]>>>>,
    stripe_len: usize,
    len: usize,
}

impl StripedModel {
    /// Creates a zero model of `len` parameters in stripes of
    /// `stripe_len` (the last stripe may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `len` or `stripe_len` is zero.
    pub fn new(len: usize, stripe_len: usize) -> Self {
        assert!(len > 0, "model length must be non-zero");
        assert!(stripe_len > 0, "stripe length must be non-zero");
        let count = len.div_ceil(stripe_len);
        let stripes = (0..count)
            .map(|s| {
                let lo = s * stripe_len;
                let hi = (lo + stripe_len).min(len);
                RwLock::new(vec![0.0; hi - lo].into_boxed_slice())
            })
            .collect();
        Self {
            stripes: Arc::new(stripes),
            stripe_len,
            len,
        }
    }

    /// Total parameter count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the model has no parameters (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Bytes a full PULL transfers.
    pub fn pull_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<f64>()) as u64
    }

    /// The contiguous range of model indices held by `stripe`.
    pub fn stripe_range(&self, stripe: usize) -> std::ops::Range<usize> {
        let lo = stripe * self.stripe_len;
        lo..(lo + self.stripe_len).min(self.len)
    }

    /// Snapshots the full model into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the model length.
    pub fn pull_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "pull buffer length mismatch");
        for (s, stripe) in self.stripes.iter().enumerate() {
            out[self.stripe_range(s)].copy_from_slice(&stripe.read());
        }
    }

    /// Snapshots the full model (allocating convenience wrapper).
    pub fn pull(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.pull_into(&mut out);
        out
    }

    /// Adds one stripe's slice of the full-length `delta` into that
    /// stripe, holding only its lock.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range or `delta.len()` differs from
    /// the model length.
    pub fn stripe_add(&self, stripe: usize, delta: &[f64]) {
        assert_eq!(delta.len(), self.len, "delta length mismatch");
        let range = self.stripe_range(stripe);
        fold_dense(&mut self.stripes[stripe].write(), &delta[range]);
    }

    /// Scatter-adds a coordinate-sparse delta into one stripe, holding
    /// only its lock: `indices` are sorted unique *model-global*
    /// coordinates and `values[k]` is the delta at `indices[k]`. Only
    /// the coordinates falling inside the stripe's range are applied
    /// (binary-searched, so a stripe crossed by none of the indices
    /// costs `O(log nnz)` plus its lock).
    ///
    /// Bit-equivalence contract with [`StripedModel::stripe_add`]: a
    /// dense delta whose off-support slots are all `±0.0` folds to the
    /// same bits as this sparse scatter of its support — adding `-0.0`
    /// never changes a non-signaling server value's bits, and `+0.0`
    /// only would on a `-0.0` server slot. Neither exception can occur:
    /// model slots hold only IEEE arithmetic results, whose sums are
    /// `-0.0` only for `(-0.0) + (-0.0)` and whose NaNs are always
    /// quiet (an sNaN slot would have its quiet bit flipped by a `±0.0`
    /// add, but arithmetic never stores one). Callers keep the
    /// worker-id fold order exactly as in the dense path.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range or the slices' lengths differ.
    pub fn stripe_add_sparse(&self, stripe: usize, indices: &[u32], values: &[f64]) {
        let start = self.stripe_range(stripe).start;
        fold_sparse(&mut self.stripes[stripe].write(), start, indices, values);
    }

    /// Adds `delta` into the whole model, stripe by stripe.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len()` differs from the model length.
    pub fn push(&self, delta: &[f64]) {
        for s in 0..self.stripes.len() {
            self.stripe_add(s, delta);
        }
    }

    /// Replaces the model contents (checkpoint restore / init).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the model length.
    pub fn restore(&self, values: &[f64]) {
        assert_eq!(values.len(), self.len, "restore length mismatch");
        for (s, stripe) in self.stripes.iter().enumerate() {
            stripe
                .write()
                .copy_from_slice(&values[self.stripe_range(s)]);
        }
    }
}

impl std::fmt::Debug for StripedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedModel")
            .field("len", &self.len)
            .field("stripe_len", &self.stripe_len)
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_model() {
        let m = ShardedModel::new(10, 3);
        assert_eq!(m.shard_count(), 3);
        let mut covered = [false; 10];
        for s in 0..3 {
            let (range, vals) = m.pull_shard(s);
            assert_eq!(vals.len(), range.len());
            for i in range {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn push_then_pull_roundtrips() {
        let m = ShardedModel::new(7, 2);
        let delta: Vec<f64> = (0..7).map(|i| i as f64).collect();
        m.push(&delta);
        m.push(&delta);
        let got = m.pull();
        let want: Vec<f64> = delta.iter().map(|d| d * 2.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pushes_are_additive_across_threads() {
        let m = ShardedModel::new(64, 4);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.push(&vec![1.0; 64]))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(m.pull().iter().all(|&v| (v - 8.0).abs() < 1e-12));
    }

    #[test]
    fn restore_overwrites() {
        let m = ShardedModel::new(4, 2);
        m.push(&[1.0, 2.0, 3.0, 4.0]);
        m.restore(&[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(m.pull(), vec![9.0; 4]);
    }

    #[test]
    fn more_nodes_than_params_is_clamped() {
        let m = ShardedModel::new(2, 8);
        assert_eq!(m.shard_count(), 2);
        assert_eq!(m.pull().len(), 2);
    }

    #[test]
    fn pull_bytes_accounts_f64() {
        let m = ShardedModel::new(100, 2);
        assert_eq!(m.pull_bytes(), 800);
    }

    #[test]
    fn pull_shard_into_matches_pull_shard() {
        let m = ShardedModel::new(10, 3);
        let delta: Vec<f64> = (0..10).map(|i| i as f64).collect();
        m.push(&delta);
        for s in 0..m.shard_count() {
            let (range, vals) = m.pull_shard(s);
            assert_eq!(range, m.shard_range(s));
            let mut out = vec![0.0; range.len()];
            m.pull_shard_into(s, &mut out);
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn push_shard_targets_one_shard_only() {
        let m = ShardedModel::new(10, 3);
        let range = m.shard_range(1);
        m.push_shard(1, &vec![2.0; range.len()]);
        let got = m.pull();
        for (i, &v) in got.iter().enumerate() {
            let want = if range.contains(&i) { 2.0 } else { 0.0 };
            assert_eq!(v, want, "element {i}");
        }
    }

    #[test]
    fn striped_ranges_cover_model() {
        let m = StripedModel::new(20, 6);
        assert_eq!(m.stripe_count(), 4);
        let mut covered = [false; 20];
        for s in 0..m.stripe_count() {
            for i in m.stripe_range(s) {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(m.stripe_range(3).len(), 2, "tail stripe is short");
    }

    #[test]
    fn striped_push_pull_restore_roundtrip() {
        let m = StripedModel::new(11, 4);
        let delta: Vec<f64> = (0..11).map(|i| i as f64).collect();
        m.push(&delta);
        m.push(&delta);
        let mut got = vec![0.0; 11];
        m.pull_into(&mut got);
        let want: Vec<f64> = delta.iter().map(|d| d * 2.0).collect();
        assert_eq!(got, want);
        m.restore(&delta);
        assert_eq!(m.pull(), delta);
        assert_eq!(m.pull_bytes(), 88);
    }

    #[test]
    fn striped_worker_order_fold_is_bit_stable() {
        // Folding the same contributors in worker order must give
        // bit-identical results no matter which stripes go first.
        let contributors: Vec<Vec<f64>> = (0..3)
            .map(|w| (0..17).map(|i| 0.1 * (w * 17 + i) as f64).collect())
            .collect();
        let fold = |stripe_order: &[usize]| {
            let m = StripedModel::new(17, 5);
            for &s in stripe_order {
                for c in &contributors {
                    m.stripe_add(s, c);
                }
            }
            m.pull()
        };
        let a = fold(&[0, 1, 2, 3]);
        let b = fold(&[3, 1, 0, 2]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn sparse_scatter_matches_dense_stripe_add() {
        // A dense delta that is zero off-support must fold to the same
        // bits as the sparse scatter of its support — including signed
        // zeros and NaN payloads on the support itself.
        let len = 23;
        let dense_m = StripedModel::new(len, 5);
        let sparse_m = StripedModel::new(len, 5);
        let base: Vec<f64> = (0..len).map(|i| (i as f64) * 0.3 - 2.0).collect();
        dense_m.restore(&base);
        sparse_m.restore(&base);
        let indices: Vec<u32> = vec![0, 4, 5, 11, 12, 21, 22];
        let values: Vec<f64> = vec![1.5, -0.0, f64::NAN, 0.25, -3.5, 0.0, 7.0];
        let mut dense = vec![0.0; len];
        for (&i, &v) in indices.iter().zip(&values) {
            dense[i as usize] = v;
        }
        for s in 0..dense_m.stripe_count() {
            dense_m.stripe_add(s, &dense);
            sparse_m.stripe_add_sparse(s, &indices, &values);
        }
        let bits = |m: &StripedModel| m.pull().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dense_m), bits(&sparse_m));
    }

    #[test]
    fn sparse_scatter_applies_only_the_stripes_own_coordinates() {
        // Stripes of 4 over 10 params: 0..4, 4..8, 8..10. Slot 7 lives
        // in stripe 1, slot 9 in stripe 2.
        let m = StripedModel::new(10, 4);
        m.stripe_add_sparse(0, &[7, 9], &[1.0, 2.0]);
        assert_eq!(m.pull(), vec![0.0; 10], "no coordinate in stripe 0");
        m.stripe_add_sparse(2, &[7, 9], &[1.0, 2.0]);
        let got = m.pull();
        assert_eq!(got[7], 0.0, "stripe 2 must not apply stripe 1's slot");
        assert_eq!(got[9], 2.0);
        m.stripe_add_sparse(1, &[7, 9], &[1.0, 2.0]);
        assert_eq!(m.pull()[7], 1.0);
    }

    #[test]
    fn ranged_folds_match_stripe_folds() {
        // One fold over a multi-stripe range (the runtime's APPLY) must
        // give every slot the same additions, in the same order, as
        // the stripe-by-stripe adds.
        let len = 23;
        let base: Vec<f64> = (0..len).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let dense: Vec<f64> = (0..len).map(|i| 0.1 * (i * i) as f64 - 1.3).collect();
        let indices: Vec<u32> = vec![1, 4, 5, 9, 10, 14, 22];
        let values: Vec<f64> = vec![0.5, -1.25, 3.0, -0.0, 2.5, 0.125, -7.0];
        let striped = StripedModel::new(len, 5);
        striped.restore(&base);
        for s in 0..striped.stripe_count() {
            striped.stripe_add(s, &dense);
            striped.stripe_add_sparse(s, &indices, &values);
        }
        let mut flat = base.clone();
        for range in [0..5, 5..20, 20..23] {
            let part = &mut flat[range.clone()];
            fold_dense(part, &dense[range.clone()]);
            fold_sparse(part, range.start, &indices, &values);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&flat), bits(&striped.pull()));
    }

    #[test]
    fn striped_adds_are_additive_across_threads() {
        let m = StripedModel::new(64, 8);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for s in 0..m.stripe_count() {
                        m.stripe_add(s, &vec![1.0; 64]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(m.pull().iter().all(|&v| (v - 8.0).abs() < 1e-12));
    }
}
