//! The §IV-A subtask discipline as one clock-free state machine.
//!
//! Each machine runs one COMP subtask at a time ("a single CPU subtask is
//! executed at a time as it usually uses almost all of the provided CPU
//! resources") and two COMM subtasks: a *primary* one and a *secondary*
//! one that fills the primary's request/response gaps. Subtasks wait
//! FIFO per lane. [`SubtaskDiscipline`] is that rule and nothing else:
//! no clock, no threads, and no allocation once its queues are warm.
//! The simulator drives it with fluid completions (one discipline per
//! job group, items are job indices) and the PS runtime with slot
//! threads (one per node, items are shared task closures), so both run
//! the same decisions.
//!
//! # Examples
//!
//! ```
//! use harmony_core::discipline::{Lane, Slot, Start, SubtaskDiscipline};
//!
//! let mut d = SubtaskDiscipline::new(1, 2);
//! d.enqueue(Lane::Net, "pull-a");
//! d.enqueue(Lane::Cpu, "comp-b");
//! d.enqueue(Lane::Net, "push-c");
//! // The CPU lane goes first, then the primary and secondary COMM slots.
//! assert_eq!(d.next_start(), Some(Start { item: "comp-b", slot: Slot::COMP }));
//! assert_eq!(d.next_start(), Some(Start { item: "pull-a", slot: Slot::PRIMARY }));
//! assert_eq!(d.next_start(), Some(Start { item: "push-c", slot: Slot::SECONDARY }));
//! d.enqueue(Lane::Net, "pull-d");
//! assert_eq!(d.next_start(), None); // both COMM slots are busy
//! d.release(Slot::PRIMARY);
//! assert_eq!(d.next_start(), Some(Start { item: "pull-d", slot: Slot::PRIMARY }));
//! ```

use std::collections::VecDeque;

/// The resource a subtask occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// COMP subtasks (CPU-dominant).
    Cpu,
    /// PULL, PUSH and APPLY subtasks (network side).
    Net,
}

/// One execution slot: the `index`-th of its lane, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The lane the slot belongs to.
    pub lane: Lane,
    /// Position within the lane; a start always takes the lowest free.
    pub index: usize,
}

impl Slot {
    /// Harmony's single COMP slot.
    pub const COMP: Slot = Slot {
        lane: Lane::Cpu,
        index: 0,
    };
    /// Harmony's primary COMM slot, filled first.
    pub const PRIMARY: Slot = Slot {
        lane: Lane::Net,
        index: 0,
    };
    /// Harmony's secondary COMM slot, filled only while the primary is busy.
    pub const SECONDARY: Slot = Slot {
        lane: Lane::Net,
        index: 1,
    };
}

/// A subtask leaving its queue for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Start<T> {
    /// The queued item that starts.
    pub item: T,
    /// The slot it holds until [`SubtaskDiscipline::release`].
    pub slot: Slot,
}

/// Per-lane FIFO queues over a bounded set of slots (see the module docs).
#[derive(Debug, Clone)]
pub struct SubtaskDiscipline<T> {
    lanes: [LaneState<T>; 2],
}

#[derive(Debug, Clone)]
struct LaneState<T> {
    queue: VecDeque<T>,
    slots: usize,
    /// Bit `i` set while slot `i` is busy. Harmony's lanes have at most
    /// 64 slots, so they stay in this word and off the heap.
    busy: u64,
    /// Busy bits of slots 64 and up, one word per 64 slots: only an
    /// unbounded lane running more than 64 subtasks ever grows it.
    busy_high: Vec<u64>,
    running: usize,
    peak: usize,
}

impl<T> SubtaskDiscipline<T> {
    /// A discipline with `cpu_slots` COMP and `net_slots` COMM slots.
    /// Harmony uses `(1, 2)`; the naive baseline passes huge counts.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(cpu_slots: usize, net_slots: usize) -> Self {
        assert!(cpu_slots > 0 && net_slots > 0, "slots must be non-zero");
        let lane = |slots| LaneState {
            queue: VecDeque::new(),
            slots,
            busy: 0,
            busy_high: Vec::new(),
            running: 0,
            peak: 0,
        };
        Self {
            lanes: [lane(cpu_slots), lane(net_slots)],
        }
    }

    /// Appends `item` to `lane`'s queue.
    pub fn enqueue(&mut self, lane: Lane, item: T) {
        self.lanes[lane as usize].queue.push_back(item);
    }

    /// Starts the head of the CPU queue if a COMP slot is free, else the
    /// head of the network queue if a COMM slot is free, in the lowest
    /// free slot. `None` once no queued item can start.
    pub fn next_start(&mut self) -> Option<Start<T>> {
        for lane in [Lane::Cpu, Lane::Net] {
            let st = &mut self.lanes[lane as usize];
            if st.running == st.slots {
                continue;
            }
            let Some(item) = st.queue.pop_front() else {
                continue;
            };
            let index = if st.busy != u64::MAX {
                let i = st.busy.trailing_ones() as usize;
                st.busy |= 1 << i;
                i
            } else {
                let w = match st.busy_high.iter().position(|&w| w != u64::MAX) {
                    Some(w) => w,
                    None => {
                        st.busy_high.push(0);
                        st.busy_high.len() - 1
                    }
                };
                let i = st.busy_high[w].trailing_ones() as usize;
                st.busy_high[w] |= 1 << i;
                64 * (w + 1) + i
            };
            st.running += 1;
            st.peak = st.peak.max(st.running);
            return Some(Start {
                item,
                slot: Slot { lane, index },
            });
        }
        None
    }

    /// Frees `slot` for the next start.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not busy.
    pub fn release(&mut self, slot: Slot) {
        assert!(self.is_busy(slot), "releasing idle slot {slot:?}");
        let st = &mut self.lanes[slot.lane as usize];
        match slot.index.checked_sub(64) {
            None => st.busy &= !(1 << slot.index),
            Some(i) => st.busy_high[i / 64] &= !(1 << (i % 64)),
        }
        st.running -= 1;
    }

    /// Keeps only the queued items `keep` accepts, in order, in both
    /// lanes. Running items are not touched.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for st in &mut self.lanes {
            st.queue.retain(&mut keep);
        }
    }

    /// Whether `slot` is held by a started item.
    pub fn is_busy(&self, slot: Slot) -> bool {
        let st = &self.lanes[slot.lane as usize];
        match slot.index.checked_sub(64) {
            None => st.busy >> slot.index & 1 == 1,
            Some(i) => st
                .busy_high
                .get(i / 64)
                .is_some_and(|w| w >> (i % 64) & 1 == 1),
        }
    }

    /// Slots of `lane` (its concurrency bound).
    pub fn slots(&self, lane: Lane) -> usize {
        self.lanes[lane as usize].slots
    }

    /// Busy slots of `lane`.
    pub fn running(&self, lane: Lane) -> usize {
        self.lanes[lane as usize].running
    }

    /// Items waiting in `lane`'s queue.
    pub fn queued(&self, lane: Lane) -> usize {
        self.lanes[lane as usize].queue.len()
    }

    /// The most slots of `lane` ever busy at once.
    pub fn peak(&self, lane: Lane) -> usize {
        self.lanes[lane as usize].peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "slots must be non-zero")]
    fn zero_slots_rejected() {
        let _ = SubtaskDiscipline::<u32>::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "releasing idle slot")]
    fn releasing_an_idle_slot_panics() {
        SubtaskDiscipline::<u32>::new(1, 2).release(Slot::SECONDARY);
    }

    #[test]
    fn retain_unqueues_without_touching_running_items() {
        let mut d = SubtaskDiscipline::new(1, 2);
        for (lane, item) in [
            (Lane::Cpu, 3),
            (Lane::Cpu, 3),
            (Lane::Net, 3),
            (Lane::Net, 4),
        ] {
            d.enqueue(lane, item);
        }
        assert_eq!(d.next_start().map(|s| s.item), Some(3));
        d.retain(|&j| j != 3);
        assert_eq!((d.running(Lane::Cpu), d.queued(Lane::Cpu)), (1, 0));
        assert_eq!(d.queued(Lane::Net), 1);
        assert_eq!(
            d.next_start(),
            Some(Start {
                item: 4,
                slot: Slot::PRIMARY
            })
        );
    }

    /// A reference model of one lane: its FIFO and its busy slot set.
    #[derive(Default)]
    struct Model {
        queue: VecDeque<u32>,
        busy: std::collections::BTreeSet<usize>,
        peak: usize,
    }

    impl Model {
        fn lowest_free(&self) -> usize {
            (0..)
                .find(|i| !self.busy.contains(i))
                .expect("a free index")
        }
    }

    const UNBOUNDED: usize = usize::MAX / 2;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random `enqueue` / `next_start` / `release` / `retain`
        /// sequences against a per-lane reference model: running never
        /// exceeds the slots, each lane starts FIFO, the CPU lane goes
        /// first, every start takes the lowest free slot (so primary
        /// fills before secondary), no slot sits free while its lane has
        /// work once `next_start` returns `None`, and `peak` is exact.
        /// The unbounded shape runs well past 64 concurrent subtasks.
        #[test]
        fn matches_the_reference_model(
            shape in 0usize..4,
            ops in prop::collection::vec((0u8..10, 0usize..1 << 16), 1..600),
        ) {
            let (cpu, net) = [(1, 2), (1, 1), (2, 2), (UNBOUNDED, UNBOUNDED)][shape];
            let mut d = SubtaskDiscipline::new(cpu, net);
            let mut model = [Model::default(), Model::default()];
            let slots = [cpu, net];
            let mut next_item = 0u32;
            for (kind, pick) in ops {
                match kind {
                    0..=4 => {
                        let lane = if pick % 2 == 0 { Lane::Cpu } else { Lane::Net };
                        d.enqueue(lane, next_item);
                        model[lane as usize].queue.push_back(next_item);
                        next_item += 1;
                    }
                    5..=6 => {
                        while let Some(Start { item, slot }) = d.next_start() {
                            let cpu_can = !model[0].queue.is_empty() && model[0].busy.len() < cpu;
                            prop_assert_eq!(slot.lane == Lane::Cpu, cpu_can, "CPU lane first");
                            let m = &mut model[slot.lane as usize];
                            prop_assert_eq!(Some(item), m.queue.pop_front(), "FIFO per lane");
                            prop_assert_eq!(slot.index, m.lowest_free(), "lowest free slot");
                            m.busy.insert(slot.index);
                            m.peak = m.peak.max(m.busy.len());
                        }
                        for lane in [Lane::Cpu, Lane::Net] {
                            let m = &model[lane as usize];
                            prop_assert!(
                                m.queue.is_empty() || m.busy.len() == slots[lane as usize],
                                "work conservation on {:?}", lane
                            );
                        }
                    }
                    7..=8 => {
                        let m = &mut model[pick % 2];
                        let Some(&index) = m.busy.iter().nth(pick / 2 % m.busy.len().max(1)) else {
                            continue;
                        };
                        m.busy.remove(&index);
                        let lane = if pick % 2 == 0 { Lane::Cpu } else { Lane::Net };
                        d.release(Slot { lane, index });
                    }
                    _ => {
                        let keep = |&j: &u32| !j.is_multiple_of(pick as u32 % 5 + 2);
                        d.retain(keep);
                        for m in &mut model {
                            m.queue.retain(keep);
                        }
                    }
                }
                for lane in [Lane::Cpu, Lane::Net] {
                    let m = &model[lane as usize];
                    prop_assert!(d.running(lane) <= d.slots(lane));
                    prop_assert_eq!(d.running(lane), m.busy.len());
                    prop_assert_eq!(d.queued(lane), m.queue.len());
                    prop_assert_eq!(d.peak(lane), m.peak);
                    for index in 0..m.busy.last().map_or(3, |&i| i + 3) {
                        prop_assert_eq!(d.is_busy(Slot { lane, index }), m.busy.contains(&index));
                    }
                }
            }
        }
    }
}
