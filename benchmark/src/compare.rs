//! `compare a.json b.json`: is result set `b` worse than `a`?
//!
//! One row per workload and end-to-end metric. The bound and the
//! direction come from `BENCHMARK.json`; the medians and quartiles from
//! the two result files `run --out` wrote.

use crate::json::Value;
use crate::stats::Quartiles;

/// What one row says about `b` against `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than `a` by more than the bound.
    Regression,
    /// Better than `a` by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Within the bound, but one side's own inter-quartile spread is
    /// wider than the bound, so "unchanged" would claim too much.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), and the verdict under `bound`.
pub fn judge(lower_is_better: bool, bound: f64, a: Quartiles, b: Quartiles) -> (f64, Verdict) {
    let delta = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let worse_by = if delta == 0.0 {
        0.0
    } else if a.median == 0.0 {
        f64::INFINITY.copysign(delta)
    } else {
        delta / a.median.abs()
    };
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    pub change: String,
    pub verdict: String,
    /// The row alone makes `compare` exit non-zero.
    pub fails: bool,
}

fn timed<'a>(results: &'a Value, workload: &str) -> Option<&'a Value> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get("timed")
}

fn side(timed: &Value, metric: &str) -> Option<Quartiles> {
    let m = timed.get("metrics")?.get(metric)?;
    let field = |f: &str| m.get(f).and_then(Value::as_f64);
    Some(Quartiles {
        q1: field("q1")?,
        median: field("value")?,
        q3: field("q3")?,
        n: field("reps")? as usize,
    })
}

fn failed_share(timed: &Value) -> Option<f64> {
    let failed = timed.get("failed")?.as_f64()?;
    let attempted = timed.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Every row of the comparison, workloads and metrics in the order
/// `spec` (the parsed `BENCHMARK.json`) lists them.
pub fn rows(spec: &Value, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} array"))
    };
    let mut out = Vec::new();
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let (Some(ta), Some(tb)) = (timed(a, workload), timed(b, workload)) else {
            return Err(format!("{workload}: missing from one of the result files"));
        };
        for m in list("end_to_end")? {
            let text = |f: &str| m.get(f).and_then(Value::as_str);
            let (Some(metric), Some(better), Some(bound)) = (
                text("name"),
                text("better"),
                m.get("bound").and_then(Value::as_f64),
            ) else {
                return Err("end_to_end entry without name, better or bound".into());
            };
            let (Some(sa), Some(sb)) = (side(ta, metric), side(tb, metric)) else {
                return Err(format!(
                    "{workload}: {metric} missing from one of the result files"
                ));
            };
            let (worse_by, verdict) = judge(better == "lower", bound, sa, sb);
            // Print the change in the metric's own direction; adding
            // zero turns the -0.0 of an unchanged "higher" metric into 0.0.
            let signed = if better == "lower" {
                worse_by
            } else {
                -worse_by
            } + 0.0;
            out.push(Row {
                workload: workload.into(),
                metric: metric.into(),
                a: format!("{:.6}", sa.median),
                b: format!("{:.6}", sb.median),
                change: format!("{:+.2}% (bound {:.0}%)", 100.0 * signed, 100.0 * bound),
                verdict: verdict.as_str().into(),
                fails: verdict == Verdict::Regression,
            });
        }
        let (Some(fa), Some(fb)) = (failed_share(ta), failed_share(tb)) else {
            return Err(format!("{workload}: attempted/failed missing"));
        };
        out.push(Row {
            workload: workload.into(),
            metric: "failed share".into(),
            a: format!("{fa:.6}"),
            b: format!("{fb:.6}"),
            change: format!("{:+.6}", fb - fa),
            verdict: if fb > fa {
                "MORE FAILURES"
            } else {
                "unchanged"
            }
            .into(),
            fails: fb > fa,
        });
        let digest = |t: &Value| {
            t.get("digest")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let (da, db) = (digest(ta), digest(tb));
        out.push(Row {
            workload: workload.into(),
            metric: "output digest".into(),
            verdict: if da == db { "identical" } else { "differs" }.into(),
            a: da,
            b: db,
            change: String::new(),
            fails: false,
        });
    }
    Ok(out)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let header = ["workload", "metric", "a", "b", "change", "verdict"];
    let cells = |r: &Row| {
        [
            r.workload.clone(),
            r.metric.clone(),
            r.a.clone(),
            r.b.clone(),
            r.change.clone(),
            r.verdict.clone(),
        ]
    };
    let mut width = header.map(str::len);
    for r in rows {
        for (w, cell) in width.iter_mut().zip(cells(r)) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: [String; 6]| {
        let mut s = String::new();
        for (cell, w) in cells.iter().zip(width) {
            s.push_str(&format!("{cell:<w$}  "));
        }
        s.trim_end().to_string() + "\n"
    };
    let mut out = line(header.map(String::from));
    for r in rows {
        out.push_str(&line(cells(r)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn flat(value: f64) -> Quartiles {
        Quartiles::of(&[value])
    }

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        // Lower is better: +12 % is a regression at a 10 % bound.
        assert_eq!(
            judge(true, 0.10, flat(100.0), flat(112.0)).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(true, 0.10, flat(100.0), flat(108.0)).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(true, 0.10, flat(100.0), flat(85.0)).1,
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(false, 0.10, flat(100.0), flat(112.0)).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(false, 0.10, flat(100.0), flat(88.0)).1,
            Verdict::Regression
        );
        let (worse_by, _) = judge(false, 0.10, flat(100.0), flat(88.0));
        assert!((worse_by - 0.12).abs() < 1e-12);
        // Zero baselines do not divide.
        assert_eq!(
            judge(true, 0.10, flat(0.0), flat(0.0)).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(true, 0.10, flat(0.0), flat(1.0)).1,
            Verdict::Regression
        );
    }

    #[test]
    fn a_wide_spread_turns_unchanged_and_improved_into_unresolved() {
        let noisy = Quartiles {
            q1: 90.0,
            median: 100.0,
            q3: 110.0,
            n: 9,
        };
        assert_eq!(judge(true, 0.10, noisy, flat(101.0)).1, Verdict::Unresolved);
        assert_eq!(judge(true, 0.10, flat(100.0), noisy).1, Verdict::Unresolved);
        assert_eq!(judge(true, 0.10, noisy, flat(80.0)).1, Verdict::Unresolved);
        // A regression stays one however noisy the sides are.
        assert_eq!(judge(true, 0.10, noisy, flat(120.0)).1, Verdict::Regression);
    }

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ]
    }"#;

    fn results(speed: (f64, f64, f64), setup: f64, failed: f64, digest: &str) -> Value {
        parse(&format!(
            r#"{{"workloads": [{{"name": "w", "timed": {{
                "attempted": 100, "failed": {failed}, "digest": "{digest}",
                "metrics": {{
                    "speed": {{"value": {}, "q1": {}, "q3": {}, "unit": "1/s", "reps": 9}},
                    "setup_s": {{"value": {setup}, "q1": {setup}, "q3": {setup}, "unit": "s", "reps": 3}}
                }}}}}}]}}"#,
            speed.0, speed.1, speed.2
        ))
        .unwrap()
    }

    fn verdicts(a: &Value, b: &Value) -> (Vec<String>, bool) {
        let rows = rows(&parse(SPEC).unwrap(), a, b).unwrap();
        assert_eq!(rows.len(), 4, "two metrics, failed share, digest");
        let fails = rows.iter().any(|r| r.fails);
        (rows.into_iter().map(|r| r.verdict).collect(), fails)
    }

    #[test]
    fn fixtures_regression_improvement_unresolved_and_failures() {
        let base = results((1000.0, 990.0, 1010.0), 1.0, 0.0, "aa");

        let (v, fails) = verdicts(&base, &results((800.0, 790.0, 810.0), 1.0, 0.0, "aa"));
        assert_eq!(v, ["REGRESSION", "unchanged", "unchanged", "identical"]);
        assert!(fails);

        let (v, fails) = verdicts(&base, &results((1200.0, 1190.0, 1210.0), 0.5, 0.0, "bb"));
        assert_eq!(v, ["improved", "improved", "unchanged", "differs"]);
        assert!(!fails);

        let (v, fails) = verdicts(&base, &results((1010.0, 800.0, 1200.0), 1.1, 0.0, "aa"));
        assert_eq!(v, ["unresolved", "unchanged", "unchanged", "identical"]);
        assert!(!fails);

        let (v, fails) = verdicts(&base, &results((1000.0, 990.0, 1010.0), 1.0, 2.0, "aa"));
        assert_eq!(v, ["unchanged", "unchanged", "MORE FAILURES", "identical"]);
        assert!(fails);
    }

    #[test]
    fn missing_workloads_and_metrics_are_errors() {
        let spec = parse(SPEC).unwrap();
        let base = results((1.0, 1.0, 1.0), 1.0, 0.0, "aa");
        let empty = parse(r#"{"workloads": []}"#).unwrap();
        assert!(rows(&spec, &base, &empty).is_err());
        let no_metric = parse(
            r#"{"workloads": [{"name": "w", "timed": {"attempted": 1, "failed": 0, "metrics": {}}}]}"#,
        )
        .unwrap();
        assert!(rows(&spec, &base, &no_metric).is_err());
    }

    #[test]
    fn render_aligns_columns() {
        let a = results((1000.0, 990.0, 1010.0), 1.0, 0.0, "aa");
        let table = render(&rows(&parse(SPEC).unwrap(), &a, &a).unwrap());
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("workload  metric"));
        assert!(lines[1].contains("+0.00% (bound 10%)"));
        assert!(lines[1].ends_with("unchanged"));
    }
}
