//! Keyed randomness: every random quantity a pure function of its key.
//!
//! A draw taken from a sequential stream depends on every draw before
//! it, so moving one event reshuffles everything after it. A keyed
//! draw depends only on what it is *for* — `(seed, job, iteration,
//! ...)` — so two runs that execute the same piece of work see the same
//! number, whatever else they do (common random numbers), and the draws
//! can be taken in any order.

/// SplitMix64's odd increment, ⌊2⁶⁴/φ⌋.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Stafford's "Mix13" variant, as in
/// `java.util.SplittableRandom`): a bijection on `u64` in which every
/// input bit flips each output bit with probability close to ½.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes `parts` under `seed`: each part is absorbed with one
/// finalizer round, so tuples that differ in any component (or in their
/// order) land on unrelated words.
pub fn key_hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(splitmix64(seed), |h, &p| {
        splitmix64(h ^ p.wrapping_add(GOLDEN_GAMMA))
    })
}

/// A uniform double in the open interval `(0, 1)` from a hashed word:
/// its top 52 bits, offset by half a step, so neither end can come out
/// (with 53 bits the top value plus the half step rounds to 1).
pub fn unit_open(h: u64) -> f64 {
    ((h >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_finalizer_matches_the_reference_values() {
        // SplittableRandom(0).nextLong() and the one after it: the
        // finalizer applied to one and two golden-gamma steps.
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            splitmix64(GOLDEN_GAMMA.wrapping_mul(2)),
            0x6E78_9E6A_A1B9_65F4
        );
    }

    #[test]
    fn unit_draws_stay_strictly_inside_the_interval() {
        assert!(unit_open(0) > 0.0);
        assert!(unit_open(u64::MAX) < 1.0);
        assert_eq!(unit_open(0), 0.5 / (1u64 << 52) as f64);
        assert_eq!(unit_open(u64::MAX), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn every_component_and_its_position_moves_the_hash() {
        let base = key_hash(7, &[1, 2, 3]);
        assert_eq!(base, key_hash(7, &[1, 2, 3]));
        assert_ne!(base, key_hash(8, &[1, 2, 3]));
        assert_ne!(base, key_hash(7, &[1, 2, 4]));
        assert_ne!(base, key_hash(7, &[2, 1, 3]));
        assert_ne!(base, key_hash(7, &[1, 2, 3, 0]));
    }

    #[test]
    fn keyed_uniforms_have_the_moments_of_a_uniform() {
        let n = 200_000u64;
        let (mut sum, mut sq) = (0.0, 0.0);
        for i in 0..n {
            let u = unit_open(key_hash(3, &[i, i % 7]));
            sum += u;
            sq += u * u;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 3e-3, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 2e-3, "variance {var}");
    }
}
