//! The driver's event queue: a pre-sorted list of the events known
//! before the run starts, beside one heap for the events the run
//! itself schedules.
//!
//! Everything pushed before [`EventQueue::start`] — every job's
//! `Arrival`, the fault plan, the first `Sample` / `Failure` — is
//! sorted once and drained by a cursor; an open-loop run's thousands
//! of future arrivals therefore never sit under the heap operations of
//! the wake churn. Events pushed after the start go to one
//! `BinaryHeap`, whose size is the number of *pending* events (about
//! one wake per alive group); `pop` takes the smaller of the two
//! heads.
//!
//! **Order.** Event keys embed a strictly increasing sequence number,
//! so the key order is a strict total order with no ties, and any
//! correct priority queue pops the identical sequence: the pop order
//! is a property of the keys, not of this container. `tests` below
//! check it against a sorted reference under interleaved pre-start
//! and post-start pushes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-order priority queue over `K`, which must be globally unique
/// (the driver's `(Time, seq, kind)` tuples are — `seq` never
/// repeats).
#[derive(Debug)]
pub(crate) struct EventQueue<K: Ord + Copy> {
    /// Events pushed before [`Self::start`]; ascending from then on,
    /// with `cursor` at the first one not popped yet.
    scheduled: Vec<K>,
    cursor: usize,
    started: bool,
    /// Events pushed after [`Self::start`].
    heap: BinaryHeap<Reverse<K>>,
}

impl<K: Ord + Copy> EventQueue<K> {
    pub(crate) fn new() -> Self {
        Self {
            scheduled: Vec::new(),
            cursor: 0,
            started: false,
            heap: BinaryHeap::new(),
        }
    }

    /// Queues `key`.
    pub(crate) fn push(&mut self, key: K) {
        if self.started {
            self.heap.push(Reverse(key));
        } else {
            self.scheduled.push(key);
        }
    }

    /// Ends the set-up phase: sorts what was pushed so far. Call once,
    /// before the first [`Self::pop`].
    pub(crate) fn start(&mut self) {
        debug_assert!(!self.started, "event queue started twice");
        self.scheduled.sort_unstable();
        self.started = true;
    }

    /// Pops the smallest queued key.
    pub(crate) fn pop(&mut self) -> Option<K> {
        debug_assert!(self.started, "pop before start");
        let scheduled = self.scheduled.get(self.cursor);
        match (scheduled, self.heap.peek()) {
            (Some(&s), Some(&Reverse(h))) if h < s => self.heap.pop().map(|Reverse(k)| k),
            (Some(&s), _) => {
                self.cursor += 1;
                Some(s)
            }
            (None, _) => self.heap.pop().map(|Reverse(k)| k),
        }
    }

    /// Whether any event is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.cursor == self.scheduled.len() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 stream for randomized traffic.
    fn mix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Pre-start pushes (a whole "trace" of future events), then
    /// randomized post-start pushes interleaved with pops: every pop
    /// must return the minimum of a plain sorted reference. Times are
    /// coarse (16 values), so most pops are decided by `seq`.
    #[test]
    fn pop_order_matches_a_sorted_reference() {
        for seed in 0..4u64 {
            let mut rng = seed;
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut push = |q: &mut EventQueue<(u64, u64)>, r: &mut Vec<(u64, u64)>, t: u64| {
                seq += 1;
                q.push((t, seq));
                r.push((t, seq));
            };
            for _ in 0..300 {
                let t = mix(&mut rng) >> 8 & 0xF;
                push(&mut q, &mut reference, t);
            }
            q.start();
            let mut popped = 0usize;
            let mut now = 0u64;
            for _ in 0..2000 {
                let r = mix(&mut rng);
                if !r.is_multiple_of(3) || q.is_empty() {
                    // Like the driver, never schedule into the past.
                    push(&mut q, &mut reference, now + (r >> 8 & 0x3));
                } else {
                    reference.sort_unstable();
                    let expect = reference.remove(0);
                    assert_eq!(q.pop(), Some(expect));
                    now = expect.0;
                    popped += 1;
                }
            }
            reference.sort_unstable();
            for expect in reference {
                assert_eq!(q.pop(), Some(expect));
                popped += 1;
            }
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            assert!(popped > 1000, "the traffic mix barely popped");
        }
    }

    #[test]
    fn same_time_events_pop_in_seq_order_across_both_sides() {
        let mut q = EventQueue::new();
        for seq in [1u64, 2, 3] {
            q.push((10u64, seq));
        }
        q.start();
        q.push((10, 4));
        q.push((5, 5));
        q.push((10, 6));
        let mut seqs = Vec::new();
        while let Some((_, s)) = q.pop() {
            seqs.push(s);
        }
        assert_eq!(seqs, vec![5, 1, 2, 3, 4, 6]);
    }
}
