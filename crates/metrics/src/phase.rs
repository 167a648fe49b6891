//! Fixed-arity per-phase timing accumulator.
//!
//! The PS runtime times every subtask it executes (PULL, COMP, PUSH,
//! APPLY). Aggregating those samples must itself be allocation-free —
//! the whole point of the runtime's design is a zero-allocation steady
//! state — so this accumulator is a fixed array of counters indexed by
//! a caller-defined phase number, sized once up front.

/// Per-phase running aggregate: sample count, total and max seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PhaseCell {
    count: u64,
    total_secs: f64,
    max_secs: f64,
}

/// Accumulates timing samples for a fixed set of phases.
///
/// Phases are plain indices (`0..phases`); callers define the mapping
/// (the PS runtime uses subtask-kind order). Recording is O(1) and
/// never allocates after construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    cells: Vec<PhaseCell>,
}

impl PhaseTimes {
    /// A tracker for `phases` distinct phases, all initially empty.
    pub fn new(phases: usize) -> Self {
        Self {
            cells: vec![PhaseCell::default(); phases],
        }
    }

    /// Number of phases this tracker was sized for.
    pub fn phases(&self) -> usize {
        self.cells.len()
    }

    /// Records one sample of `secs` seconds against `phase`.
    ///
    /// # Panics
    /// If `phase` is out of range.
    pub fn record(&mut self, phase: usize, secs: f64) {
        let cell = &mut self.cells[phase];
        cell.count += 1;
        cell.total_secs += secs;
        if secs > cell.max_secs {
            cell.max_secs = secs;
        }
    }

    /// Samples recorded against `phase`.
    pub fn count(&self, phase: usize) -> u64 {
        self.cells[phase].count
    }

    /// Sum of all samples recorded against `phase`, in seconds.
    pub fn total_secs(&self, phase: usize) -> f64 {
        self.cells[phase].total_secs
    }

    /// Largest single sample recorded against `phase`, in seconds.
    pub fn max_secs(&self, phase: usize) -> f64 {
        self.cells[phase].max_secs
    }

    /// Mean sample for `phase`, or 0.0 when none were recorded.
    pub fn mean_secs(&self, phase: usize) -> f64 {
        let cell = &self.cells[phase];
        if cell.count == 0 {
            0.0
        } else {
            cell.total_secs / cell.count as f64
        }
    }

    /// Forgets all samples, keeping the phase count.
    pub fn reset(&mut self) {
        self.cells.fill(PhaseCell::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase_independently() {
        let mut t = PhaseTimes::new(3);
        t.record(0, 1.0);
        t.record(0, 3.0);
        t.record(2, 0.5);
        assert_eq!(t.count(0), 2);
        assert_eq!(t.total_secs(0), 4.0);
        assert_eq!(t.mean_secs(0), 2.0);
        assert_eq!(t.max_secs(0), 3.0);
        assert_eq!(t.count(1), 0);
        assert_eq!(t.mean_secs(1), 0.0);
        assert_eq!(t.count(2), 1);
        assert_eq!(t.phases(), 3);
    }

    #[test]
    fn reset_clears_samples_but_not_arity() {
        let mut t = PhaseTimes::new(2);
        t.record(1, 2.0);
        t.reset();
        assert_eq!(t.phases(), 2);
        assert_eq!(t.count(1), 0);
        assert_eq!(t.total_secs(1), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_phase_panics() {
        let mut t = PhaseTimes::new(1);
        t.record(1, 1.0);
    }
}
