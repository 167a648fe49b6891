//! Ring all-reduce: the alternative communication architecture of §VI.
//!
//! "Although Harmony focuses on the PS architecture in this paper, its
//! scheduling approach can be easily applied to other communication
//! architecture such as all-reduce, because Harmony does not care how
//! exactly communication is done and only cares that there are distinct
//! computation and communication steps."
//!
//! This module implements the bandwidth-optimal ring algorithm: with
//! `k` participants the model vector is cut into `k` chunks;
//! reduce-scatter circulates partial sums for `k − 1` steps, then
//! all-gather circulates the finished chunks for another `k − 1` steps.
//! Every participant sends and receives exactly
//! `2 (k − 1) / k × model_bytes`, which is what makes all-reduce
//! attractive at scale — and what the simulator's
//! [`SyncKind::AllReduce`](harmony_core::job::SyncKind) cost model
//! charges.
//!
//! The implementation really routes chunks around a ring of buffers
//! (rather than just summing vectors), so step counts and per-link
//! traffic are observable and testable.

/// Statistics of one all-reduce invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllReduceStats {
    /// Communication steps executed (`2 (k - 1)` for `k > 1`).
    pub steps: usize,
    /// Total `f64` elements transferred across all links.
    pub elements_moved: usize,
}

/// Splits `xs` into disjoint `&mut` references to positions `a` and
/// `b`, so a transfer can read one buffer while writing another without
/// copying the payload first.
fn pair_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(a, b, "ring link endpoints must differ");
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Reduces the workers' update buffers into their element-wise sum via
/// ring reduce-scatter + all-gather, writing the result back into every
/// worker's buffer. Returns the transfer statistics.
///
/// Generic over the buffer representation (`Vec<f64>`, `Box<[f64]>`,
/// `harmony_mem::PooledBuffer`, …) so the PS runtime can reduce
/// pooled buffers in place. Each transfer borrows source and
/// destination disjointly (`src != dst` always holds on a ring of
/// `k >= 2`), so no payload is ever copied to a temporary.
///
/// # Panics
///
/// Panics if `buffers` is empty or the buffers have unequal lengths.
pub fn ring_all_reduce<B>(buffers: &mut [B]) -> AllReduceStats
where
    B: AsRef<[f64]> + AsMut<[f64]>,
{
    let k = buffers.len();
    assert!(k > 0, "all-reduce needs at least one participant");
    let len = buffers[0].as_ref().len();
    for (i, b) in buffers.iter().enumerate() {
        assert_eq!(
            b.as_ref().len(),
            len,
            "participant {i} has a mismatched buffer"
        );
    }
    if k == 1 || len == 0 {
        return AllReduceStats {
            steps: 0,
            elements_moved: 0,
        };
    }

    // Chunk boundaries: chunk c covers [bounds[c], bounds[c + 1]).
    let bounds: Vec<usize> = (0..=k).map(|c| c * len / k).collect();
    let chunk = |c: usize| bounds[c % k]..bounds[c % k + 1];

    let mut steps = 0;
    let mut moved = 0;

    // Reduce-scatter: at step s, rank r sends chunk (r - s) to r + 1,
    // which accumulates it. After k - 1 steps, rank r holds the full
    // sum of chunk (r + 1).
    for s in 0..k - 1 {
        for r in 0..k {
            let src = r;
            let dst = (r + 1) % k;
            let c = (r + k - s) % k;
            let range = chunk(c);
            moved += range.len();
            let (src_buf, dst_buf) = pair_mut(buffers, src, dst);
            for (dst_v, src_v) in dst_buf.as_mut()[range.clone()]
                .iter_mut()
                .zip(&src_buf.as_ref()[range])
            {
                *dst_v += src_v;
            }
        }
        steps += 1;
    }

    // All-gather: circulate the finished chunks. At step s, rank r sends
    // chunk (r + 1 - s) — the one it just completed or received.
    for s in 0..k - 1 {
        for r in 0..k {
            let src = r;
            let dst = (r + 1) % k;
            let c = (r + 1 + k - s) % k;
            let range = chunk(c);
            moved += range.len();
            let (src_buf, dst_buf) = pair_mut(buffers, src, dst);
            dst_buf.as_mut()[range.clone()].copy_from_slice(&src_buf.as_ref()[range]);
        }
        steps += 1;
    }

    AllReduceStats {
        steps,
        elements_moved: moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(k: usize, len: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|r| (0..len).map(|i| (r * len + i) as f64).collect())
            .collect()
    }

    fn expected_sum(bufs: &[Vec<f64>]) -> Vec<f64> {
        let len = bufs[0].len();
        (0..len).map(|i| bufs.iter().map(|b| b[i]).sum()).collect()
    }

    #[test]
    fn every_worker_ends_with_the_full_sum() {
        for k in [2usize, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let mut bufs = workers(k, len);
                let want = expected_sum(&bufs);
                ring_all_reduce(&mut bufs);
                for (r, b) in bufs.iter().enumerate() {
                    for (i, (&got, &w)) in b.iter().zip(&want).enumerate() {
                        assert!(
                            (got - w).abs() < 1e-9,
                            "k={k} len={len} rank={r} elem={i}: {got} != {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn step_count_is_2k_minus_2() {
        let mut bufs = workers(5, 20);
        let stats = ring_all_reduce(&mut bufs);
        assert_eq!(stats.steps, 8);
    }

    #[test]
    fn traffic_matches_the_ring_bound() {
        // Each of the k ranks moves (k - 1)/k of the vector twice.
        let (k, len) = (4usize, 64usize);
        let mut bufs = workers(k, len);
        let stats = ring_all_reduce(&mut bufs);
        assert_eq!(stats.elements_moved, 2 * (k - 1) * len);
    }

    #[test]
    fn single_worker_is_a_no_op() {
        let mut bufs = vec![vec![1.0, 2.0]];
        let stats = ring_all_reduce(&mut bufs);
        assert_eq!(stats.steps, 0);
        assert_eq!(bufs[0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched buffer")]
    fn rejects_ragged_buffers() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        let _ = ring_all_reduce(&mut bufs);
    }

    #[test]
    fn generic_over_buffer_representation() {
        // Boxed slices exercise the same path the pooled buffers use.
        let want = expected_sum(&workers(3, 8));
        let mut bufs: Vec<Box<[f64]>> = workers(3, 8)
            .into_iter()
            .map(Vec::into_boxed_slice)
            .collect();
        ring_all_reduce(&mut bufs);
        for b in &bufs {
            for (got, w) in b.iter().zip(&want) {
                assert!((got - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pair_mut_returns_disjoint_references() {
        let mut xs = [1, 2, 3, 4];
        let (a, b) = pair_mut(&mut xs, 3, 1);
        assert_eq!((*a, *b), (4, 2));
        *a = 9;
        *b = 7;
        assert_eq!(xs, [1, 7, 3, 9]);
    }

    #[test]
    fn uneven_chunking_still_correct() {
        // len not divisible by k exercises the bounds arithmetic.
        let mut bufs = workers(3, 10);
        let want = expected_sum(&bufs);
        ring_all_reduce(&mut bufs);
        for b in &bufs {
            for (got, w) in b.iter().zip(&want) {
                assert!((got - w).abs() < 1e-9);
            }
        }
    }
}
