//! Median and quartiles of a handful of samples.

/// First quartile, median and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Number of samples summarized.
    pub n: usize,
}

impl Quartiles {
    /// Summarizes `samples` the way Python's
    /// `statistics.quantiles(samples, n=4)` does (the "exclusive"
    /// method: cut point `i` sits at rank `i (len + 1) / 4`), so a
    /// spread computed here equals the one the gate computes. One
    /// sample is its own three quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample set: a metric with no
    /// samples is a bug in the caller.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarize");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let len = sorted.len();
        if len == 1 {
            return Self {
                q1: sorted[0],
                median: sorted[0],
                q3: sorted[0],
                n: 1,
            };
        }
        let cut = |i: usize| {
            let j = (i * (len + 1) / 4).clamp(1, len - 1);
            // Signed: at the clamped ends the weight leaves [0, 4] and
            // the cut extrapolates, as Python's does.
            let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Self {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n: len,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// Median of `samples` (see [`Quartiles::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Quartiles::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn one_sample_has_no_spread() {
        let q = Quartiles::of(&[4.5]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.5, 4.5, 4.5, 1));
        assert_eq!(q.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Quartiles::of(&ten).spread(), 1.0);
        assert_eq!(Quartiles::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        Quartiles::of(&[]);
    }
}
