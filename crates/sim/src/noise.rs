//! Straggler noise, keyed.
//!
//! Subtasks barrier across the machines of a group, so a job advances at
//! the pace of its *slowest* machine. We model per-machine duration
//! jitter as lognormal with coefficient of variation `cv`, and sample
//! the barrier factor directly as the maximum of `m` i.i.d. lognormals
//! using the inverse-CDF trick: if `U ~ Uniform(0,1)` then `U^(1/m)` is
//! distributed as the maximum of `m` uniforms, so
//! `exp(σ · Φ⁻¹(U^(1/m)))` is the max of `m` lognormals — one draw
//! instead of `m`.
//!
//! **Keyed.** The uniform behind a subtask's factor is a pure function
//! of what the subtask is — `(seed, job, iteration, phase, attempt)`,
//! a [`DrawKey`] hashed through [`harmony_core::keyed`] — not the next
//! value of a stream. Two runs that execute the same subtask see the
//! same factor whatever else they do (common random numbers), and a
//! group can run its subtasks ahead of the rest of the cluster without
//! taking anyone else's draws.
//!
//! **Tabulated.** With `y = −ln(u) / m` the factor is
//! `exp(σ · Φ⁻¹(e^(−y)))`, one function of `y` for every machine count,
//! so one [`BarrierTable`] per σ, built once per process, serves every
//! group: [`TABLE_CELLS_PER_OCTAVE`] cells per octave of `y`, indexed
//! by the float's own exponent and top mantissa bits and interpolated
//! linearly. A draw below `1 / 4096` is raised to it, which puts a hard
//! floor under every factor for `m` ([`BarrierTable::floor`]); the
//! driver's lookahead relies on that floor. [`max_of_lognormals`] is
//! the exact quantile the table is built from, and the reference the
//! tests hold it to.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use harmony_core::keyed::{key_hash, unit_open};

use crate::runtime::Phase;

/// Cells per octave of `y` in a [`BarrierTable`] (a power of two).
pub const TABLE_CELLS_PER_OCTAVE: usize = 16;

/// log₂ of [`TABLE_CELLS_PER_OCTAVE`].
const CELL_BITS: u32 = TABLE_CELLS_PER_OCTAVE.trailing_zeros();

/// The octaves of `y` a table spans: `[2^-72, 2^8)`. The smallest `y`
/// a draw can give is `2^-53 / m`, the largest `ln 4096`.
const Y_MIN_EXP: i32 = -72;
const OCTAVES: usize = 80;

/// `−ln` of the smallest uniform a draw is taken at: `ln 4096`.
const NEG_LN_U_CAP: f64 = 12.0 * std::f64::consts::LN_2;

/// Mixed into the seed so straggler draws share no key with any other
/// keyed quantity drawn from the same run seed.
const NOISE_STREAM: u64 = 0x5;

/// What one straggler draw is for: the `attempt`-th try of `phase` of
/// `job`'s iteration `iteration` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DrawKey {
    /// Driver-level job index.
    pub job: usize,
    /// The iteration the subtask belongs to.
    pub iteration: u64,
    /// Which subtask of the iteration.
    pub phase: Phase,
    /// How many runs of this iteration were lost before (a crash
    /// rollback, or an eviction mid-iteration): a replay is a new
    /// attempt with a fresh draw, and every first run draws the same
    /// whatever the schedule.
    pub attempt: u64,
}

impl DrawKey {
    /// The uniform in `(0, 1)` this key stands for under `seed`.
    pub fn uniform(self, seed: u64) -> f64 {
        let phase = match self.phase {
            Phase::Pull => 0,
            Phase::Comp => 1,
            Phase::Push => 2,
        };
        let parts = [self.job as u64, self.iteration, self.attempt << 2 | phase];
        unit_open(key_hash(seed ^ NOISE_STREAM, &parts))
    }
}

/// The barrier-factor quantile of one σ for every machine count `m`,
/// tabulated over `y = −ln(u) / m`.
///
/// Knot `k` sits at `y = 2^e · (1 + j / C)` for `k = (e − e₀) · C + j`,
/// `C` = [`TABLE_CELLS_PER_OCTAVE`]: a draw's cell is read off the bits
/// of `y`, and within a cell `y` — hence the interpolation — is linear
/// in the low mantissa bits. The knots are made non-increasing in `y`,
/// so a draw is never below the factor at the largest `y` it can take.
#[derive(Debug)]
pub struct BarrierTable {
    knots: Box<[f64]>,
}

impl BarrierTable {
    /// The table of `sigma`, built on first use and shared by every
    /// later run in the process.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn shared(sigma: f64) -> Arc<BarrierTable> {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise cv must be finite and non-negative"
        );
        static TABLES: OnceLock<Mutex<HashMap<u64, Arc<BarrierTable>>>> = OnceLock::new();
        let mut tables = TABLES
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tables
            .entry(sigma.to_bits())
            .or_insert_with(|| Arc::new(Self::build(sigma)))
            .clone()
    }

    fn build(sigma: f64) -> Self {
        let cells = OCTAVES * TABLE_CELLS_PER_OCTAVE;
        let mut knots = Vec::with_capacity(cells + 1);
        let mut last = f64::INFINITY;
        for k in 0..=cells {
            let (e, j) = (k / TABLE_CELLS_PER_OCTAVE, k % TABLE_CELLS_PER_OCTAVE);
            let y = (2.0f64).powi(Y_MIN_EXP + e as i32)
                * (1.0 + j as f64 / TABLE_CELLS_PER_OCTAVE as f64);
            let z = probit((-y).exp().min(BELOW_ONE));
            last = last.min((sigma * z).exp());
            knots.push(last);
        }
        Self {
            knots: knots.into_boxed_slice(),
        }
    }

    /// The factor at `y`, interpolated between the knots of its cell.
    fn at(&self, y: f64) -> f64 {
        let bits = y.to_bits();
        let exp = (bits >> 52) as i32 - 1023;
        if exp < Y_MIN_EXP {
            return self.knots[0];
        }
        let cell = (((exp - Y_MIN_EXP) as usize) << CELL_BITS)
            | ((bits >> (52 - CELL_BITS)) as usize & (TABLE_CELLS_PER_OCTAVE - 1));
        let Some(&hi) = self.knots.get(cell + 1) else {
            return self.knots[self.knots.len() - 1];
        };
        let lo = self.knots[cell];
        let low_bits = 52 - CELL_BITS;
        let frac = (bits & ((1u64 << low_bits) - 1)) as f64 / (1u64 << low_bits) as f64;
        lo + frac * (hi - lo)
    }

    /// The barrier factor of a group of `machines` for the uniform draw
    /// `u` in `(0, 1)`.
    pub fn factor(&self, u: f64, machines: u32) -> f64 {
        self.at((-u.ln()).min(NEG_LN_U_CAP) / f64::from(machines.max(1)))
    }

    /// The smallest factor [`Self::factor`] can return for `machines`.
    pub fn floor(&self, machines: u32) -> f64 {
        self.at(NEG_LN_U_CAP / f64::from(machines.max(1)))
    }
}

/// The largest `f64` below 1.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// `exp(σ · Φ⁻¹(u^(1/m)))`: the barrier factor the uniform draw `u` in
/// `(0, 1)` stands for. For `m ≥ 2`, `u^(1/m)` rounds to exactly `1.0`
/// once `u` is within about `m / 2` ulps of 1 — outside the probit's
/// domain — so the quantile is clamped to the largest double below 1;
/// every quantile under it keeps its bits.
pub fn max_of_lognormals(sigma: f64, u: f64, machines: u32) -> f64 {
    let m = machines.max(1) as f64;
    let z = probit(u.powf(1.0 / m).min(BELOW_ONE));
    (sigma * z).exp()
}

/// Acklam's rational approximation to the standard normal quantile
/// function Φ⁻¹ (relative error < 1.15e-9).
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit needs p in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probit_matches_known_quantiles() {
        assert!(probit(0.5).abs() < 1e-9);
        assert!((probit(0.975) - 1.959964).abs() < 1e-4);
        assert!((probit(0.025) + 1.959964).abs() < 1e-4);
        assert!((probit(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn probit_tails_are_symmetric() {
        for p in [1e-6, 1e-3, 0.01] {
            assert!((probit(p) + probit(1.0 - p)).abs() < 1e-6);
        }
    }

    fn key(job: usize, iteration: u64) -> DrawKey {
        DrawKey {
            job,
            iteration,
            phase: Phase::Comp,
            attempt: 0,
        }
    }

    #[test]
    fn zero_cv_is_exactly_one() {
        let t = BarrierTable::shared(0.0);
        for m in [1, 10, 100] {
            assert_eq!(t.floor(m), 1.0);
            for i in 0..100 {
                assert_eq!(t.factor(key(i, 0).uniform(1), m), 1.0);
            }
        }
    }

    #[test]
    fn barrier_factor_grows_with_machines() {
        let t = BarrierTable::shared(0.05);
        let mean = |m: u32| -> f64 {
            (0..2000)
                .map(|i| t.factor(key(i, 7).uniform(7), m))
                .sum::<f64>()
                / 2000.0
        };
        let m1 = mean(1);
        let m100 = mean(100);
        assert!(
            m100 > m1 + 0.05,
            "expected max-of-100 ({m100}) well above single ({m1})"
        );
        // Max of 100 at cv 5%: roughly exp(0.05 * 2.5) ≈ 1.13.
        assert!(m100 > 1.08 && m100 < 1.25, "{m100}");
    }

    #[test]
    fn factors_are_positive_and_bounded_sanely() {
        let t = BarrierTable::shared(0.1);
        for i in 0..1000 {
            let f = t.factor(key(i, 3).uniform(3), 50);
            assert!(f > 0.5 && f < 3.0, "{f}");
        }
    }

    #[test]
    fn tables_are_shared_and_monotone() {
        let a = BarrierTable::shared(0.1);
        assert!(Arc::ptr_eq(&a, &BarrierTable::shared(0.1)));
        assert!(!Arc::ptr_eq(&a, &BarrierTable::shared(0.2)));
        assert!(a.knots.windows(2).all(|w| w[0] >= w[1]));
        // Draws below 1/4096 sit on the floor.
        assert_eq!(a.factor(1e-9, 8), a.floor(8));
        assert_eq!(a.factor(1.0 / 4096.0, 8), a.floor(8));
        // At a knot the table is the exact quantile: u = e^(-1/2) at
        // m = 8 is y = 2^-4.
        let u = (-0.5f64).exp();
        let exact = max_of_lognormals(0.1, u, 8);
        assert!((a.factor(u, 8) / exact - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_draw_is_a_function_of_its_key_alone() {
        let k = DrawKey {
            job: 3,
            iteration: 11,
            phase: Phase::Push,
            attempt: 1,
        };
        assert_eq!(k.uniform(9).to_bits(), k.uniform(9).to_bits());
        let others = [
            DrawKey { job: 4, ..k },
            DrawKey { iteration: 12, ..k },
            DrawKey {
                phase: Phase::Pull,
                ..k
            },
            DrawKey { attempt: 2, ..k },
        ];
        for other in others {
            assert_ne!(k.uniform(9), other.uniform(9), "{other:?}");
        }
        assert_ne!(k.uniform(9), k.uniform(10));
    }

    /// Kolmogorov–Smirnov distance between two samples.
    fn ks_distance(a: &mut [f64], b: &mut [f64]) -> f64 {
        a.sort_unstable_by(f64::total_cmp);
        b.sort_unstable_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    /// The tables' spec: over 10⁶ keys per cell, the tabulated factor's
    /// distribution is within KS distance 2e-3 of the exact quantile's
    /// on the same keys, its mean within 0.05 %, and no draw falls below
    /// the floor the driver's lookahead assumes.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10^6 draws per cell: run in release (scripts/check.sh does)"
    )]
    fn tables_match_the_exact_quantile() {
        const KEYS: usize = 1_000_000;
        let (mut worst_ks, mut worst_bias) = (0.0f64, 0.0f64);
        for sigma in [0.03, 0.1, 0.25] {
            let table = BarrierTable::shared(sigma);
            for m in [1, 2, 8, 64, 400] {
                let (mut tab, mut exact) = (Vec::with_capacity(KEYS), Vec::with_capacity(KEYS));
                for i in 0..KEYS {
                    let u = DrawKey {
                        job: i % 1000,
                        iteration: (i / 1000) as u64,
                        phase: Phase::Comp,
                        attempt: 0,
                    }
                    .uniform(1);
                    tab.push(table.factor(u, m));
                    exact.push(max_of_lognormals(sigma, u, m));
                }
                let floor = table.floor(m);
                assert!(
                    tab.iter().all(|&f| f >= floor),
                    "σ={sigma} m={m}: below the floor"
                );
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                let bias = mean(&tab) / mean(&exact) - 1.0;
                assert!(bias.abs() <= 5e-4, "σ={sigma} m={m}: mean off by {bias:e}");
                let ks = ks_distance(&mut tab, &mut exact);
                assert!(ks <= 2e-3, "σ={sigma} m={m}: KS distance {ks}");
                worst_ks = worst_ks.max(ks);
                worst_bias = worst_bias.max(bias.abs());
            }
        }
        eprintln!("worst KS distance {worst_ks:.2e}, worst mean bias {worst_bias:.2e}");
    }

    #[test]
    fn a_draw_next_to_one_is_clamped_not_a_panic() {
        // The largest double below 1: its cube root rounds to exactly
        // 1.0, where the probit panics.
        let u = BELOW_ONE;
        assert_eq!(u.powf(1.0 / 3.0), 1.0);
        for m in [1, 2, 3, 16, 512] {
            let f = max_of_lognormals(0.1, u, m);
            assert!(f.is_finite() && f > 1.0, "m={m}: {f}");
        }
        assert_eq!(
            max_of_lognormals(0.1, u, 3).to_bits(),
            (0.1 * probit(BELOW_ONE)).exp().to_bits()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The probit is the inverse of a monotone CDF: strictly
        /// increasing in p.
        #[test]
        fn probit_is_monotone(a in 0.001f64..0.999, b in 0.001f64..0.999) {
            prop_assume!((a - b).abs() > 1e-9);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(probit(lo) < probit(hi));
        }

        /// The clamp only touches quantiles that round to 1: any draw
        /// the unclamped formula could take keeps its bits.
        #[test]
        fn the_clamp_keeps_every_valid_quantile(
            u in f64::MIN_POSITIVE..1.0,
            m in 1u32..1024,
            cv in 0.0f64..0.3,
        ) {
            let p = u.powf(1.0 / f64::from(m));
            prop_assume!(p < 1.0);
            let unclamped = (cv * probit(p)).exp();
            prop_assert_eq!(max_of_lognormals(cv, u, m).to_bits(), unclamped.to_bits());
        }

        /// Barrier factors are positive, and never below the floor, for
        /// any machine count and cv.
        #[test]
        fn barrier_factors_sit_on_or_above_the_floor(
            cv in 0.0f64..0.3,
            m in 1u32..512,
            u in f64::MIN_POSITIVE..1.0,
        ) {
            let t = BarrierTable::shared(cv);
            let f = t.factor(u, m);
            prop_assert!(f > 0.0 && f >= t.floor(m));
        }
    }
}
