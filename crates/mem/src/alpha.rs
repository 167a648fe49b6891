//! The hill-climbing disk-ratio (α) controller (§IV-C).
//!
//! "We use hill-climbing to incrementally move α_j to an optimal value.
//! We determine the initial value by estimating the memory use for
//! accommodating input data and model data."
//!
//! The controller watches the per-iteration cost (iteration time
//! including GC and disk-blocked time) and walks α in the direction that
//! reduces it, reversing and shrinking its step on failure. Each job has
//! its own controller, which is what lets Harmony beat any single fixed
//! α shared by all jobs (§V-G: adaptive 44.3 s vs best-fixed 52.9 s).

/// Resolution of the α grid: a disk ratio is `k / ALPHA_STEPS` for an
/// integer `k` in `0..=ALPHA_STEPS`, so the bytes it puts on disk are
/// `k · input / 2¹²` and the simulator keeps them as exact integers.
/// The grid is 13× finer than the hill-climber's smallest step.
pub const ALPHA_STEPS: u32 = 1 << 12;

/// Which way [`alpha_steps`] rounds a ratio that falls between two
/// grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Up: for a floor or a fit target, which must never spill too
    /// little.
    Up,
    /// To the nearest grid point, ties away from zero: for a ratio
    /// that is a choice, not a bound (the hill-climb, a fixed α).
    Nearest,
}

/// The grid point `k` of the disk ratio `alpha` (clamped into
/// `[0, 1]`; NaN reads as 0): `α = k / ALPHA_STEPS`.
///
/// ```
/// use harmony_mem::alpha::{alpha_steps, Rounding, ALPHA_STEPS};
///
/// assert_eq!(alpha_steps(0.5, Rounding::Nearest), ALPHA_STEPS / 2);
/// assert_eq!(alpha_steps(1e-9, Rounding::Up), 1);
/// assert_eq!(alpha_steps(1e-9, Rounding::Nearest), 0);
/// assert_eq!(alpha_steps(7.0, Rounding::Up), ALPHA_STEPS);
/// ```
pub fn alpha_steps(alpha: f64, rounding: Rounding) -> u32 {
    let x = alpha.clamp(0.0, 1.0) * f64::from(ALPHA_STEPS);
    let k = match rounding {
        Rounding::Up => x.ceil(),
        Rounding::Nearest => x.round(),
    };
    // `as` saturates, and maps NaN to 0.
    k as u32
}

/// The disk ratio of grid point `k`, exactly.
pub fn alpha_of_steps(k: u32) -> f64 {
    f64::from(k) / f64::from(ALPHA_STEPS)
}

/// Per-job hill-climbing controller for the disk-block ratio α.
///
/// # Examples
///
/// ```
/// use harmony_mem::AlphaController;
///
/// // Pretend cost curve with a minimum at α = 0.3.
/// let cost = |a: f64| (a - 0.3).powi(2) + 1.0;
/// let mut ctl = AlphaController::new(0.8, 0.1);
/// for _ in 0..64 {
///     let a = ctl.alpha();
///     ctl.observe(cost(a));
/// }
/// assert!((ctl.alpha() - 0.3).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaController {
    alpha: f64,
    step: f64,
    direction: f64,
    min_step: f64,
    max_step: f64,
    tolerance: f64,
    last_cost: Option<f64>,
}

impl AlphaController {
    /// Creates a controller starting at `initial_alpha` with the given
    /// step size.
    ///
    /// # Panics
    ///
    /// Panics if `initial_alpha` is outside `[0, 1]` or `step` is not
    /// positive.
    pub fn new(initial_alpha: f64, step: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&initial_alpha),
            "alpha must be in [0, 1], got {initial_alpha}"
        );
        assert!(step > 0.0, "step must be positive, got {step}");
        Self {
            alpha: initial_alpha,
            step,
            // Probe toward more spill first: under memory pressure that
            // is the safe direction (a wrong guess costs one cheap
            // reversal; the opposite wrong guess spikes GC).
            direction: 1.0,
            min_step: step / 16.0,
            max_step: step,
            tolerance: 0.01,
            last_cost: None,
        }
    }

    /// Estimates the initial α from memory footprints (§IV-C: "we
    /// determine the initial value by estimating the memory use for
    /// accommodating input data and model data", sized by sampling).
    ///
    /// `input_bytes` is the job's local input partition, `model_bytes`
    /// its local model partition, and `memory_budget` the bytes the job
    /// may use before pressuring the heap. The model must stay resident,
    /// so only the remainder is available for input blocks.
    pub fn initial_alpha(input_bytes: u64, model_bytes: u64, memory_budget: u64) -> f64 {
        if input_bytes == 0 {
            return 0.0;
        }
        let for_input = memory_budget.saturating_sub(model_bytes);
        let fit = for_input as f64 / input_bytes as f64;
        (1.0 - fit).clamp(0.0, 1.0)
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current step magnitude.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Feeds the cost observed while running at the current α and moves
    /// α one hill-climbing step. Returns the new α.
    ///
    /// Strategy: compare with the *previous* observation (not an
    /// all-time best, which would go stale when the optimum drifts —
    /// e.g. after a regrouping changes the job's memory budget). Keep
    /// walking while cost does not worsen, growing the step back toward
    /// its initial size; on a worsening step, backtrack, reverse and
    /// halve the step (bounded below so probing never stops).
    pub fn observe(&mut self, cost: f64) -> f64 {
        match self.last_cost {
            None => self.advance(),
            Some(prev) => {
                let rel = (cost - prev) / prev.abs().max(1e-12);
                if rel.abs() <= self.tolerance {
                    // Flat terrain: hold position. Random-walking here
                    // would drift the ratio for no benefit (and, for
                    // co-located controllers, destabilize the shared
                    // memory budget).
                } else if cost < prev {
                    self.step = (self.step * 1.25).min(self.max_step);
                    self.advance();
                } else {
                    // Worse: step back, turn around, refine.
                    self.alpha = (self.alpha - self.direction * self.step).clamp(0.0, 1.0);
                    self.direction = -self.direction;
                    self.step = (self.step / 2.0).max(self.min_step);
                    self.advance();
                }
            }
        }
        self.last_cost = Some(cost);
        self.alpha
    }

    /// Moves α one step in the current direction; a step clamped into a
    /// no-op at the `[0, 1]` boundary reverses direction instead, so the
    /// controller cannot wedge itself against an interval edge.
    fn advance(&mut self) {
        let proposed = (self.alpha + self.direction * self.step).clamp(0.0, 1.0);
        if (proposed - self.alpha).abs() < 1e-12 {
            self.direction = -self.direction;
            self.alpha = (self.alpha + self.direction * self.step).clamp(0.0, 1.0);
        } else {
            self.alpha = proposed;
        }
    }
}

impl Default for AlphaController {
    /// Starts at α = 0.5 with step 0.05.
    fn default() -> Self {
        Self::new(0.5, 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converge(cost: impl Fn(f64) -> f64, start: f64, iters: usize) -> f64 {
        let mut ctl = AlphaController::new(start, 0.1);
        for _ in 0..iters {
            let a = ctl.alpha();
            ctl.observe(cost(a));
        }
        ctl.alpha()
    }

    #[test]
    fn converges_to_interior_minimum_from_both_sides() {
        let cost = |a: f64| (a - 0.3).powi(2) + 1.0;
        assert!((converge(cost, 0.9, 100) - 0.3).abs() < 0.1);
        assert!((converge(cost, 0.0, 100) - 0.3).abs() < 0.1);
    }

    #[test]
    fn converges_to_boundary_minimum() {
        // Cost decreasing in α: best to spill everything.
        let cost = |a: f64| 2.0 - a;
        assert!(converge(cost, 0.2, 100) > 0.9);
        // Cost increasing in α: keep everything in memory.
        let cost = |a: f64| 1.0 + a;
        assert!(converge(cost, 0.8, 100) < 0.1);
    }

    #[test]
    fn alpha_stays_in_unit_interval() {
        let mut ctl = AlphaController::new(0.0, 0.3);
        for i in 0..50 {
            let a = ctl.observe((i % 7) as f64);
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn step_shrinks_but_not_to_zero() {
        let mut ctl = AlphaController::new(0.5, 0.16);
        // Alternate good/bad costs to force many reversals.
        for i in 0..40 {
            ctl.observe(if i % 2 == 0 { 1.0 } else { 100.0 });
        }
        assert!(ctl.step() >= 0.16 / 16.0 - 1e-12);
    }

    #[test]
    fn initial_alpha_from_footprints() {
        // Everything fits: no spill.
        assert_eq!(AlphaController::initial_alpha(100, 50, 1000), 0.0);
        // Nothing fits after the model: spill all input.
        assert_eq!(AlphaController::initial_alpha(100, 1000, 1000), 1.0);
        // Half fits.
        let a = AlphaController::initial_alpha(100, 0, 50);
        assert!((a - 0.5).abs() < 1e-12);
        // Zero input is a no-op.
        assert_eq!(AlphaController::initial_alpha(0, 10, 10), 0.0);
    }

    #[test]
    fn grid_round_trips_and_rounds_each_way() {
        for k in [0, 1, 2047, 2048, ALPHA_STEPS - 1, ALPHA_STEPS] {
            let a = alpha_of_steps(k);
            assert_eq!(alpha_steps(a, Rounding::Up), k);
            assert_eq!(alpha_steps(a, Rounding::Nearest), k);
        }
        let between = alpha_of_steps(100) + 0.3 / f64::from(ALPHA_STEPS);
        assert_eq!(alpha_steps(between, Rounding::Up), 101);
        assert_eq!(alpha_steps(between, Rounding::Nearest), 100);
        assert_eq!(alpha_steps(-0.5, Rounding::Up), 0);
        assert_eq!(alpha_steps(f64::NAN, Rounding::Up), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_initial_alpha() {
        let _ = AlphaController::new(1.5, 0.1);
    }
}
