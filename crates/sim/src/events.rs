//! The driver's queue of *global* events — the ones that may touch more
//! than one group: arrivals, faults and failures, migrations,
//! coalescing flushes and naive packing rounds. What happens inside a
//! group (fluid completions, dispatches, input loads) never comes
//! through here: each group runs those on its own clock
//! (`driver::exec`), and the utilization samples are recorded by the
//! groups as they pass them.
//!
//! A pre-sorted list of the events known before the run starts sits
//! beside one heap for the events the run itself schedules. Everything
//! pushed before [`EventQueue::start`] — every job's `Arrival`, the
//! fault plan, the first `Failure` — is sorted once and drained by a
//! cursor, so an open-loop run's thousands of future arrivals never sit
//! under a heap operation. Events pushed after the start go to one
//! `BinaryHeap`, which holds a handful of pending events; `pop` takes
//! the smaller of the two heads.
//!
//! **Order.** Event keys embed a strictly increasing sequence number,
//! so the key order is a strict total order with no ties, and any
//! correct priority queue pops the identical sequence: the pop order
//! is a property of the keys, not of this container. `tests` below
//! check it against a sorted reference under interleaved pre-start and
//! post-start pushes.

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

    /// The smallest queued key, left queued.
    pub(crate) fn peek(&self) -> Option<K> {
        debug_assert!(self.started, "peek before start");
        match (self.scheduled.get(self.cursor), self.heap.peek()) {
            (Some(&s), Some(&Reverse(h))) => Some(s.min(h)),
            (Some(&s), None) => Some(s),
            (None, h) => h.map(|&Reverse(k)| k),
        }
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
}

#[cfg(test)]
mod tests {
    use harmony_core::keyed::{splitmix64, GOLDEN_GAMMA};

    use super::*;

    /// Deterministic splitmix64 stream for randomized traffic.
    fn mix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(GOLDEN_GAMMA);
        splitmix64(*z)
    }

    /// A consumer in miniature: the queue, a periodic slot beside it
    /// drawing from the same `seq` counter (so `peek` is exercised
    /// against a second source of keys), and a plain list of every
    /// pending key as the reference.
    struct Loop {
        q: EventQueue<(u64, u64)>,
        reference: Vec<(u64, u64)>,
        seq: u64,
        slot: (u64, u64),
        period: u64,
        /// Takes where the slot and the queue's head had equal times,
        /// so `seq` alone decided.
        ties: usize,
    }

    impl Loop {
        fn push(&mut self, t: u64) {
            self.seq += 1;
            self.q.push((t, self.seq));
            self.reference.push((t, self.seq));
        }

        fn arm(&mut self, t: u64) {
            self.seq += 1;
            self.slot = (t, self.seq);
            self.reference.push(self.slot);
        }

        /// Takes whichever of the slot and the queue's head is smaller
        /// (re-arming the slot when it wins) and checks it is the
        /// reference's minimum.
        fn take(&mut self) -> (u64, u64) {
            let head = self.q.peek();
            if head.is_some_and(|h| h.0 == self.slot.0) {
                self.ties += 1;
            }
            let got = match head {
                Some(h) if h < self.slot => {
                    assert_eq!(self.q.pop(), Some(h));
                    h
                }
                _ => {
                    let taken = self.slot;
                    self.arm(taken.0 + self.period);
                    taken
                }
            };
            self.reference.sort_unstable();
            assert_eq!(got, self.reference.remove(0));
            got
        }
    }

    /// Pre-start pushes (a whole "trace" of future events, with the
    /// slot armed midway), then randomized post-start pushes
    /// interleaved with takes: every take must return the minimum of
    /// the sorted reference. Times are coarse (16 values) and the
    /// slot's period is 1–3, so most takes are decided by `seq`, many
    /// of them between the slot and a queued event at the same time.
    #[test]
    fn pop_order_matches_a_sorted_reference() {
        for seed in 0..6u64 {
            let mut rng = seed;
            let mut l = Loop {
                q: EventQueue::new(),
                reference: Vec::new(),
                seq: 0,
                slot: (0, 0),
                period: 1 + seed % 3,
                ties: 0,
            };
            for i in 0..300 {
                if i == 150 {
                    l.arm(0);
                }
                l.push(mix(&mut rng) >> 8 & 0xF);
            }
            l.q.start();
            let mut taken = 0usize;
            let mut now = 0u64;
            for _ in 0..2000 {
                let r = mix(&mut rng);
                if !r.is_multiple_of(3) {
                    // Like the driver, never schedule into the past.
                    l.push(now + (r >> 8 & 0x3));
                } else {
                    now = l.take().0;
                    taken += 1;
                }
            }
            while l.q.peek().is_some() {
                l.take();
                taken += 1;
            }
            assert_eq!(l.q.pop(), None);
            assert_eq!(l.reference, vec![l.slot], "only the armed slot is left");
            assert!(taken > 1000, "the traffic mix barely popped");
            assert!(l.ties > 50, "the slot rarely met a same-time event");
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
