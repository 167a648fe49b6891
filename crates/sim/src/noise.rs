//! Straggler noise.
//!
//! Subtasks barrier across the machines of a group, so a job advances at
//! the pace of its *slowest* machine. We model per-machine duration
//! jitter as lognormal with coefficient of variation `cv`, and sample
//! the barrier factor directly as the maximum of `m` i.i.d. lognormals
//! using the inverse-CDF trick: if `U ~ Uniform(0,1)` then `U^(1/m)` is
//! distributed as the maximum of `m` uniforms, so
//! `exp(σ · Φ⁻¹(U^(1/m)))` is the max of `m` lognormals — one draw
//! instead of `m`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic straggler-noise source.
#[derive(Debug, Clone)]
pub struct Straggler {
    sigma: f64,
    rng: StdRng,
}

impl Straggler {
    /// Creates a noise source with coefficient of variation `cv`.
    ///
    /// # Panics
    ///
    /// Panics if `cv` is negative.
    pub fn new(cv: f64, seed: u64) -> Self {
        assert!(cv >= 0.0, "noise cv must be non-negative");
        // For small cv, lognormal sigma ≈ cv.
        Self {
            sigma: cv,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Multiplicative barrier factor for a subtask spanning `machines`
    /// machines (≥ 1.0 in expectation-dominating regime; always > 0).
    pub fn barrier_factor(&mut self, machines: u32) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        max_of_lognormals(self.sigma, u, machines)
    }
}

/// The largest `f64` below 1.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// `exp(σ · Φ⁻¹(u^(1/m)))`: the barrier factor the uniform draw `u` in
/// `(0, 1)` stands for. For `m ≥ 2`, `u^(1/m)` rounds to exactly `1.0`
/// once `u` is within about `m / 2` ulps of 1 — outside the probit's
/// domain — so the quantile is clamped to the largest double below 1;
/// every quantile under it keeps its bits.
fn max_of_lognormals(sigma: f64, u: f64, machines: u32) -> f64 {
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

    #[test]
    fn zero_cv_is_exactly_one() {
        let mut s = Straggler::new(0.0, 1);
        for m in [1, 10, 100] {
            assert_eq!(s.barrier_factor(m), 1.0);
        }
    }

    #[test]
    fn barrier_factor_grows_with_machines() {
        let mut s = Straggler::new(0.05, 7);
        let mean = |s: &mut Straggler, m: u32| -> f64 {
            (0..2000).map(|_| s.barrier_factor(m)).sum::<f64>() / 2000.0
        };
        let m1 = mean(&mut s, 1);
        let m100 = mean(&mut s, 100);
        assert!(
            m100 > m1 + 0.05,
            "expected max-of-100 ({m100}) well above single ({m1})"
        );
        // Max of 100 at cv 5%: roughly exp(0.05 * 2.5) ≈ 1.13.
        assert!(m100 > 1.08 && m100 < 1.25, "{m100}");
    }

    #[test]
    fn factors_are_positive_and_bounded_sanely() {
        let mut s = Straggler::new(0.1, 3);
        for _ in 0..1000 {
            let f = s.barrier_factor(50);
            assert!(f > 0.5 && f < 3.0, "{f}");
        }
    }

    #[test]
    fn a_draw_next_to_one_is_clamped_not_a_panic() {
        // The largest draw `gen_range(MIN_POSITIVE..1.0)` can return:
        // its cube root rounds to exactly 1.0, where the probit panics.
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

    #[test]
    fn deterministic_per_seed() {
        let mut a = Straggler::new(0.05, 9);
        let mut b = Straggler::new(0.05, 9);
        for m in [1, 4, 16] {
            assert_eq!(a.barrier_factor(m), b.barrier_factor(m));
        }
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

        /// Barrier factors are positive for any machine count and cv.
        #[test]
        fn barrier_factors_positive(cv in 0.0f64..0.3, m in 1u32..512, seed in 0u64..64) {
            let mut s = Straggler::new(cv, seed);
            for _ in 0..16 {
                prop_assert!(s.barrier_factor(m) > 0.0);
            }
        }
    }
}
