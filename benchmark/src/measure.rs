//! What one run of one workload produces, and the helpers every
//! workload times itself with.

use std::time::Instant;

use crate::json::Value;
use crate::spec::Metric;
use crate::stats::Quartiles;

/// How one workload is to be run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Feeds every generator and every `seed` field of the inputs.
    pub seed: u64,
    /// Length of the timed section, host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Tiny scale, for tests: checks still run, numbers mean nothing.
    pub smoke: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in the timed section: jobs offered to the
    /// simulator, or training iterations requested from the PS runtime.
    pub attempted: u64,
    /// Operations that failed for a reason the workload did not
    /// inject (OOM kill, job unfinished at the simulation cap, training
    /// iteration not completed).
    pub failed: u64,
    /// Metric name → quartiles over the run's reps.
    pub metrics: Vec<(&'static str, Quartiles)>,
    /// Hash of the deterministic outputs (`canonical_bytes` of the
    /// simulator report, final model bits of the PS jobs).
    pub digest: String,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            digest: String::new(),
            problems: Vec::new(),
        }
    }

    /// Records a failed check; a check failing the same way on every
    /// rep is reported once.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// A metric measured once per rep.
    pub fn sampled(&mut self, name: &'static str, samples: &[f64]) {
        self.metrics.push((name, Quartiles::of(samples)));
    }

    /// A metric that is one number per run (a count, or a simulated
    /// quantity every rep reproduces exactly).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.sampled(name, &[value]);
    }

    fn lookup(&self, name: &str) -> Option<Quartiles> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, q)| *q)
    }

    /// The metrics of `table`, in table order. A per-layer metric the
    /// workload never set reads 0: the workload spent nothing there.
    pub fn in_table(&self, table: &[Metric]) -> Vec<(Metric, Quartiles)> {
        table
            .iter()
            .map(|m| (*m, self.lookup(m.0).unwrap_or(Quartiles::of(&[0.0]))))
            .collect()
    }

    /// The line the gate reads: `correct`, `attempted`, `failed`, and
    /// each metric of `table` as `{"value", "unit"}`.
    pub fn contract_line(&self, table: &[Metric]) -> String {
        let metrics = self
            .in_table(table)
            .into_iter()
            .map(|((name, unit, _), q)| {
                let entry =
                    Value::obj([("value", Value::Num(q.median)), ("unit", Value::str(unit))]);
                (name, entry)
            });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// Everything about the run, for the result file of a full set.
    pub fn detail(&self, table: &[Metric]) -> Value {
        let metrics = self
            .in_table(table)
            .into_iter()
            .map(|((name, unit, _), q)| (name, metric_entry(unit, q)));
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("digest", Value::str(self.digest.clone())),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// One metric of a result file: the median with its unit, the
/// quartiles, and how many samples they summarize.
pub fn metric_entry(unit: &str, q: Quartiles) -> Value {
    Value::obj([
        ("value", Value::Num(q.median)),
        ("unit", Value::str(unit)),
        ("q1", Value::Num(q.q1)),
        ("q3", Value::Num(q.q3)),
        ("reps", Value::Num(q.n as f64)),
    ])
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `rep` until `seconds` have passed, at least `min_reps` times.
/// `rep` times its own section and does its untimed preparation
/// outside it, so the loop's clock only decides when to stop.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut done = 0;
    while done < min_reps || started.elapsed().as_secs_f64() < seconds {
        rep(done);
        done += 1;
    }
    done
}

/// Median host seconds of one call of `f`, over at least `min_calls`
/// calls and at most about `budget_secs` of them.
pub fn time_call<R>(min_calls: usize, budget_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    repeat_for(budget_secs, min_calls, |_| {
        let t = Instant::now();
        let out = f();
        samples.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(out));
    });
    crate::stats::median(&samples)
}

/// 64-bit FNV-1a, as 16 hex digits. Written out here so a digest
/// printed today compares with one printed by any later toolchain.
pub fn fnv1a(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for byte in chunk.as_ref() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::Better::{Higher, Lower};

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([b""]), "cbf29ce484222325");
        assert_eq!(fnv1a([b"a"]), "af63dc4c8601ec8c");
        assert_eq!(fnv1a([b"foo", b"bar"]), fnv1a([b"foobar"]));
        assert_eq!(fnv1a([b"foobar"]), "85944171f73967e8");
    }

    #[test]
    fn repeat_for_honours_the_floor_and_the_clock() {
        let mut calls = 0;
        assert_eq!(repeat_for(0.0, 3, |_| calls += 1), 3);
        assert_eq!(calls, 3);
        let n = repeat_for(0.02, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!((2..=6).contains(&n), "{n} reps in 20 ms of 5 ms sleeps");
    }

    #[test]
    fn contract_line_has_exactly_the_gate_keys() {
        let mut o = Outcome::new();
        o.attempted = 10;
        o.sampled("speed", &[3.0, 1.0, 2.0]);
        let table = [("speed", "1/s", Higher), ("unset", "count", Lower)];
        let line = o.contract_line(&table);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(10.0));
        let speed = v.get("metrics").unwrap().get("speed").unwrap();
        assert_eq!(speed.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(speed.get("unit").unwrap().as_str(), Some("1/s"));
        let unset = v.get("metrics").unwrap().get("unset").unwrap();
        assert_eq!(unset.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn detail_carries_quartiles_and_problems() {
        let mut o = Outcome::new();
        o.sampled("speed", &[3.0, 1.0, 2.0]);
        o.check(false, || "books do not balance".into());
        let v = o.detail(&[("speed", "1/s", Higher)]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        let speed = v.get("metrics").unwrap().get("speed").unwrap();
        assert_eq!(speed.get("q1").unwrap().as_f64(), Some(1.0));
        assert_eq!(speed.get("q3").unwrap().as_f64(), Some(3.0));
        assert_eq!(speed.get("reps").unwrap().as_f64(), Some(3.0));
        assert_eq!(json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.5));
    }
}
