//! Time-series of utilization samples.
//!
//! Figure 11 of the paper plots cluster CPU and network utilization over
//! wall-clock time for an entire 80-job run, sampled at a 1-minute
//! interval. [`Timeline`] accumulates such samples and can re-bucket them
//! for display.
//!
//! A sampler on a fixed cadence over a cluster that often holds still
//! hands a timeline long stretches of evenly spaced, repeated values, so
//! the series is stored by what it is made of rather than point by
//! point: the times as a start and a step for as long as every sample
//! lands exactly one step after the one before (explicit times only once
//! that cadence breaks), the values as runs of bit-equal repeats. A long
//! regular series costs one run per change of value.

/// One `(time, value)` sample of a time-series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Sample timestamp in seconds since the start of the run.
    pub time: f64,
    /// Sampled value (for utilization series, a fraction in `[0, 1]`).
    pub value: f64,
}

/// `count` consecutive samples of one value, equal bit for bit (so
/// `0.0` and `-0.0` are different values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRun {
    /// The repeated value.
    pub value: f64,
    /// How many consecutive samples hold it (at least 1).
    pub count: u64,
}

/// Sample times.
#[derive(Debug, Clone)]
enum Times {
    /// `t₀ = start`, `tᵢ₊₁ = tᵢ + step` in floating point — what a clock
    /// that re-arms at `now + step` produces. `step` is meaningful once
    /// there are two samples.
    Regular { start: f64, step: f64 },
    /// Every time, once a sample broke the cadence.
    Explicit(Vec<f64>),
}

/// An append-only time-series.
///
/// # Examples
///
/// ```
/// use harmony_metrics::Timeline;
///
/// let mut t = Timeline::new("cpu-util");
/// t.record(0.0, 0.5);
/// t.record(60.0, 0.9);
/// assert_eq!(t.mean(), Some(0.7));
/// assert_eq!(t.cadence(), Some((0.0, 60.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    name: String,
    times: Times,
    /// Time of the last sample (meaningless while empty).
    last_time: f64,
    len: usize,
    runs: Vec<ValueRun>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new(String::new())
    }
}

/// Equal when named alike and holding equal points, however stored.
impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.len == other.len && self.points().eq(other.points())
    }
}

impl Timeline {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Times::Regular {
                start: 0.0,
                step: 0.0,
            },
            last_time: 0.0,
            len: 0,
            runs: Vec::new(),
        }
    }

    /// Series name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` moves backwards relative to the previous sample,
    /// which would indicate a broken clock in the caller.
    pub fn record(&mut self, time: f64, value: f64) {
        if let Some(last) = self.end_time() {
            assert!(
                time >= last,
                "timeline '{}' time went backwards: {} -> {}",
                self.name,
                last,
                time
            );
        }
        if let Times::Regular { start, step } = self.times {
            // Where the cadence puts this sample, and the cadence after it.
            let (due, start, step) = match self.len {
                0 => (time, time, step),
                1 => (start + (time - start), start, time - start),
                _ => (self.last_time + step, start, step),
            };
            self.times = if due.to_bits() == time.to_bits() {
                Times::Regular { start, step }
            } else {
                let mut times = Vec::with_capacity(self.len + 1);
                times.extend(self.times());
                Times::Explicit(times)
            };
        }
        if let Times::Explicit(times) = &mut self.times {
            times.push(time);
        }
        match self.runs.last_mut() {
            Some(run) if run.value.to_bits() == value.to_bits() => run.count += 1,
            _ => self.runs.push(ValueRun { value, count: 1 }),
        }
        self.last_time = time;
        self.len += 1;
    }

    /// `(start, step)` while every sample so far landed exactly one
    /// `step` after the previous one (`step` is 0 with fewer than two
    /// samples); `None` once the cadence broke.
    pub fn cadence(&self) -> Option<(f64, f64)> {
        match self.times {
            Times::Regular { start, step } => Some((start, step)),
            Times::Explicit(_) => None,
        }
    }

    /// The values as runs of bit-equal repeats, in time order.
    pub fn runs(&self) -> &[ValueRun] {
        &self.runs
    }

    /// All samples in insertion (= time) order.
    pub fn points(&self) -> impl Iterator<Item = TimelinePoint> + '_ {
        self.times()
            .zip(self.values())
            .map(|(time, value)| TimelinePoint { time, value })
    }

    fn times(&self) -> impl Iterator<Item = f64> + '_ {
        let (start, step, explicit) = match &self.times {
            Times::Regular { start, step } => (Some(*start), *step, &[][..]),
            Times::Explicit(times) => (None, 0.0, &times[..]),
        };
        std::iter::successors(start, move |t| Some(t + step))
            .chain(explicit.iter().copied())
            .take(self.len)
    }

    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs
            .iter()
            .flat_map(|run| std::iter::repeat_n(run.value, run.count as usize))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unweighted mean of the sampled values, added sample by sample.
    pub fn mean(&self) -> Option<f64> {
        (self.len > 0).then(|| self.values().sum::<f64>() / self.len as f64)
    }

    /// Time of the last sample, or `None` when empty.
    pub fn end_time(&self) -> Option<f64> {
        (self.len > 0).then_some(self.last_time)
    }

    /// Mean value over samples whose time lies in `[from, to)`.
    pub fn mean_in(&self, from: f64, to: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in self.points() {
            if p.time >= from && p.time < to {
                sum += p.value;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Re-buckets the series into windows of `width` seconds, averaging
    /// the samples in each window. Returns `(window_start, mean)` rows;
    /// empty windows are skipped.
    pub fn rebucket(&self, width: f64) -> Vec<(f64, f64)> {
        assert!(width > 0.0, "bucket width must be positive");
        let mut out = Vec::new();
        let Some(end) = self.end_time() else {
            return out;
        };
        let mut start = 0.0;
        while start <= end {
            if let Some(mean) = self.mean_in(start, start + width) {
                out.push((start, mean));
            }
            start += width;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_in_order() {
        let mut t = Timeline::new("x");
        t.record(0.0, 1.0);
        t.record(1.0, 2.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.end_time(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_backwards_time() {
        let mut t = Timeline::new("x");
        t.record(5.0, 1.0);
        t.record(4.0, 1.0);
    }

    #[test]
    fn mean_in_window() {
        let mut t = Timeline::new("u");
        for i in 0..10 {
            t.record(i as f64, i as f64);
        }
        assert_eq!(t.mean_in(0.0, 5.0), Some(2.0));
        assert_eq!(t.mean_in(100.0, 200.0), None);
    }

    #[test]
    fn rebucket_averages_windows() {
        let mut t = Timeline::new("u");
        for i in 0..6 {
            t.record(i as f64, if i < 3 { 0.0 } else { 1.0 });
        }
        let rows = t.rebucket(3.0);
        assert_eq!(rows, vec![(0.0, 0.0), (3.0, 1.0)]);
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new("e");
        assert!(t.is_empty());
        assert_eq!(t.mean(), None);
        assert_eq!(t.end_time(), None);
        assert_eq!(t.points().count(), 0);
        assert!(t.rebucket(1.0).is_empty());
    }

    #[test]
    fn a_long_regular_series_holds_one_run_per_change() {
        let mut t = Timeline::new("cpu");
        let mut now = 0.0;
        for i in 0..100_000u32 {
            t.record(now, f64::from(i / 1_000) / 100.0);
            now += 60.0;
        }
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.cadence(), Some((0.0, 60.0)));
        assert_eq!(t.runs().len(), 100);
        assert!(
            t.runs.capacity() <= 2 * t.runs.len(),
            "{}",
            t.runs.capacity()
        );
        assert_eq!(t.end_time(), Some(99_999.0 * 60.0));
    }

    #[test]
    fn signed_zeros_never_share_a_run() {
        let mut t = Timeline::new("z");
        for (i, v) in [0.0, 0.0, -0.0, 0.0, -0.0, -0.0].into_iter().enumerate() {
            t.record(i as f64, v);
        }
        let counts: Vec<u64> = t.runs().iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![2, 1, 1, 2]);
        let bits: Vec<u64> = t.points().map(|p| p.value.to_bits()).collect();
        let want: Vec<u64> = [0.0, 0.0, -0.0, 0.0, -0.0, -0.0f64]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn a_broken_cadence_keeps_every_time() {
        let mut t = Timeline::new("b");
        for time in [0.0, 60.0, 120.0, 150.0, 210.0] {
            t.record(time, 0.5);
        }
        assert_eq!(t.cadence(), None);
        let times: Vec<f64> = t.points().map(|p| p.time).collect();
        assert_eq!(times, vec![0.0, 60.0, 120.0, 150.0, 210.0]);
        assert_eq!(t.runs().len(), 1);
        assert_eq!(t, t.clone());
    }

    /// The series as it used to be stored: one point per sample, with
    /// the statistics written over that list.
    struct Reference(Vec<TimelinePoint>);

    impl Reference {
        fn mean(&self) -> Option<f64> {
            (!self.0.is_empty())
                .then(|| self.0.iter().map(|p| p.value).sum::<f64>() / self.0.len() as f64)
        }

        fn mean_in(&self, from: f64, to: f64) -> Option<f64> {
            let mut sum = 0.0;
            let mut n = 0usize;
            for p in &self.0 {
                if p.time >= from && p.time < to {
                    sum += p.value;
                    n += 1;
                }
            }
            (n > 0).then(|| sum / n as f64)
        }

        fn rebucket(&self, width: f64) -> Vec<(f64, f64)> {
            let mut out = Vec::new();
            let Some(end) = self.0.last().map(|p| p.time) else {
                return out;
            };
            let mut start = 0.0;
            while start <= end {
                if let Some(mean) = self.mean_in(start, start + width) {
                    out.push((start, mean));
                }
                start += width;
            }
            out
        }
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    fn pair_bits(rows: &[(f64, f64)]) -> Vec<(u64, u64)> {
        rows.iter()
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect()
    }

    const STARTS: [f64; 4] = [0.0, -0.0, 3.0, 0.3];
    /// Steps whose repeated sums round (0.1, 0.7), stay exact (60, 7.5)
    /// or stand still (0).
    const STEPS: [f64; 5] = [60.0, 0.1, 7.5, 0.7, 0.0];
    /// Off-cadence gaps a sample may take instead of the step; the
    /// first one also flips the sign of a zero time (the same instant,
    /// different bits).
    const BREAKS: [f64; 4] = [0.0, 1e-9, 0.7, 13.0];
    const VALUES: [f64; 7] = [0.0, -0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, f64::NAN];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sample sequence, regular or not: the stored series reads
        /// back, and computes, exactly what the point list does.
        #[test]
        fn matches_a_point_list(
            (s, k) in (0usize..4, 0usize..5),
            ops in prop::collection::vec((0u8..24, 0usize..7, 0usize..4), 0..160),
        ) {
            let (start, step) = (STARTS[s], STEPS[k]);
            let mut t = Timeline::new("p");
            let mut reference = Reference(Vec::new());
            let mut time = start;
            let mut value = VALUES[0];
            for (i, &(kind, v, gap)) in ops.iter().enumerate() {
                if i > 0 && kind == 0 && gap == 0 && time == 0.0 {
                    time = -time;
                } else if i > 0 {
                    time += if kind == 0 { BREAKS[gap] } else { step };
                }
                if kind % 3 == 0 {
                    value = VALUES[v];
                }
                t.record(time, value);
                reference.0.push(TimelinePoint { time, value });
            }
            let got: Vec<(u64, u64)> =
                t.points().map(|p| (p.time.to_bits(), p.value.to_bits())).collect();
            let want: Vec<(u64, u64)> =
                reference.0.iter().map(|p| (p.time.to_bits(), p.value.to_bits())).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(t.len(), reference.0.len());
            prop_assert_eq!(t.is_empty(), reference.0.is_empty());
            prop_assert_eq!(bits(t.mean()), bits(reference.mean()));
            prop_assert_eq!(bits(t.end_time()), bits(reference.0.last().map(|p| p.time)));
            let span = t.end_time().unwrap_or(0.0).max(1.0);
            for (from, to) in [(0.0, span / 2.0), (span / 3.0, span), (-1.0, f64::INFINITY)] {
                prop_assert_eq!(bits(t.mean_in(from, to)), bits(reference.mean_in(from, to)));
            }
            for width in [span / 7.0, span / 2.0, 2.0 * span] {
                prop_assert_eq!(pair_bits(&t.rebucket(width)), pair_bits(&reference.rebucket(width)));
            }
            // Multiples of 0.5 add exactly, so an unbroken series of
            // them must be stored as a cadence.
            let exact = start.fract() == 0.0 && (2.0 * step).fract() == 0.0;
            let unbroken = ops.iter().skip(1).all(|&(kind, _, _)| kind != 0);
            if exact && unbroken {
                prop_assert!(t.cadence().is_some(), "a regular series was stored point by point");
            }
            let changes = reference
                .0
                .windows(2)
                .filter(|w| w[0].value.to_bits() != w[1].value.to_bits())
                .count();
            prop_assert_eq!(t.runs().len(), if reference.0.is_empty() { 0 } else { changes + 1 });
        }
    }
}
