//! The repository's benchmark: six workloads over the scheduler
//! (`harmony-core`), the simulator (`harmony-sim`) and the PS runtime
//! (`harmony-ps`, `harmony-ml`, `harmony-mem`), end-to-end and
//! per-layer metrics, and the comparison that turns two result files
//! into a verdict. `README.md` next to this package explains every
//! workload and metric; `BENCHMARK.json` at the repository root names
//! them for the gate.
//!
//! ```text
//! harmony-benchmark run [--seed N] [--runs R] [--seconds S] [--smoke] [--out FILE]
//! harmony-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! harmony-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```

mod compare;
mod json;
mod measure;
mod ps;
mod sim;
mod spec;
mod stats;

use std::process::{Command, ExitCode};

use json::Value;
use measure::{Outcome, RunArgs};

/// Timed seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 0.2;
const DEFAULT_SEED: u64 = 4242;

const USAGE: &str = "usage:
  harmony-benchmark run [--seed N] [--runs R] [--seconds S] [--smoke] [--out FILE]
      all six workloads one after another, every run in a child process:
      R timed runs (seeds N, N+1, ...; default 1), then a traced run;
      FILE gets the whole result set
  harmony-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one run of one workload; the last line of output is its result
  harmony-benchmark compare A.json B.json [--spec BENCHMARK.json]
      is result set B worse than A, by the bounds in BENCHMARK.json?";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` options and bare flags of one subcommand.
struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String], known_flags: &[&str]) -> Result<Self, String> {
        let mut o = Options {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if known_flags.contains(&arg.as_str()) {
                o.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                o.pairs.push((arg.clone(), value.clone()));
            } else {
                o.positional.push(arg.clone());
            }
        }
        Ok(o)
    }

    /// The value of `--key`, removed so leftovers can be reported.
    fn take(&mut self, key: &str) -> Option<String> {
        let at = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(at).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.take(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for {key}: {v}"))
            })
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            Some((key, _)) => Err(format!("unknown option {key}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut o = Options::parse(args, &["--smoke"])?;
    let smoke = !o.flags.is_empty();
    let seed = o.take_parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = o.take_parsed("--seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match o.take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let workload = o.take("--workload");
    let out_file = o.take("--out");
    let runs: Option<u64> = o.take_parsed("--runs")?;
    if runs.is_some_and(|n| !(1..=100).contains(&n)) {
        return Err("--runs must be between 1 and 100".into());
    }
    if !o.positional.is_empty() {
        return Err(format!("unexpected argument {}\n{USAGE}", o.positional[0]));
    }
    o.finish()?;

    let run = RunArgs {
        seed,
        seconds,
        trace,
        smoke,
    };
    match workload {
        Some(name) => {
            if !spec::WORKLOADS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown workload {name}; the workloads are {}",
                    spec::WORKLOADS.join(", ")
                ));
            }
            if out_file.is_some() || runs.is_some() {
                return Err("--out and --runs go with a full set, not with --workload".into());
            }
            Ok(run_one(&name, run))
        }
        None => run_all(run, runs.unwrap_or(1), out_file.as_deref()),
    }
}

fn table_for(trace: bool) -> &'static [spec::Metric] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// The prefix of the line that carries a child's full detail to the
/// parent of a full set of runs.
const DETAIL: &str = "#detail ";

/// One run of one workload in this process. Prints every metric by
/// name with its unit; the last line is the result the gate reads.
fn run_one(name: &str, run: RunArgs) -> bool {
    let outcome: Outcome = if name.starts_with("sim_") {
        sim::run(name, run)
    } else {
        ps::run(name, run)
    };
    let table = table_for(run.trace);
    println!(
        "{name}: seed {} seconds {} trace {}{}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.smoke { " smoke" } else { "" }
    );
    for ((metric, unit, _), q) in outcome.in_table(table) {
        if q.n > 1 {
            println!(
                "  {metric:<32} {:>16.6} {unit:<9} q1 {:.6} q3 {:.6} over {} reps",
                q.median, q.q1, q.q3, q.n
            );
        } else {
            println!("  {metric:<32} {:>16.6} {unit}", q.median);
        }
    }
    println!("  canonical_digest {}", outcome.digest);
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!("{DETAIL}{}", outcome.detail(table).to_line());
    println!("{}", outcome.contract_line(table));
    outcome.correct
}

/// One child run of one workload: echoes its report, returns its
/// detail and whether it exited cleanly with every check passed.
fn child_run(name: &str, run: RunArgs) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", name])
        .args(["--trace", if run.trace { "1" } else { "0" }])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()]);
    if run.smoke {
        child.arg("--smoke");
    }
    let output = child
        .output()
        .map_err(|e| format!("{name}: cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    // Everything but the result line, which is the gate's.
    let shown = stdout.lines().count().saturating_sub(1);
    for line in stdout.lines().take(shown) {
        match line.strip_prefix(DETAIL) {
            Some(json) => detail = Some(json::parse(json)?),
            None => println!("{line}"),
        }
    }
    let detail = detail
        .ok_or_else(|| format!("{name}: a run ended ({}) without a result", output.status))?;
    let correct =
        output.status.success() && detail.get("correct").and_then(Value::as_bool) == Some(true);
    Ok((detail, correct))
}

/// Folds the details of several timed runs (one per seed) into one:
/// per metric the median and quartiles over the runs' values, the way
/// the gate summarizes its runs; counts are summed, the digest hashes
/// the runs' digests.
fn fold_runs(runs: &[Value]) -> Value {
    let text = |run: &Value, key: &str| run.get(key).and_then(Value::as_str).map(str::to_string);
    let total = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(Value::as_f64))
            .sum()
    };
    let metrics = spec::END_TO_END.iter().map(|(name, unit, _)| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        (
            *name,
            measure::metric_entry(unit, stats::Quartiles::of(&values)),
        )
    });
    let problems = runs
        .iter()
        .filter_map(|r| r.get("problems").and_then(Value::as_arr))
        .flatten()
        .cloned()
        .collect();
    Value::obj([
        (
            "correct",
            Value::Bool(
                runs.iter()
                    .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true)),
            ),
        ),
        ("attempted", Value::Num(total("attempted"))),
        ("failed", Value::Num(total("failed"))),
        (
            "digest",
            Value::str(measure::fnv1a(
                runs.iter().filter_map(|r| text(r, "digest")),
            )),
        ),
        ("problems", Value::Arr(problems)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// All six workloads, every run in a child process of this executable
/// so that `peak_rss_mb` is the workload's alone: `runs` timed runs on
/// seeds `seed`, `seed + 1`, ..., then one traced run.
fn run_all(run: RunArgs, runs: u64, out_file: Option<&str>) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in spec::WORKLOADS {
        let mut timed = Vec::new();
        for i in 0..runs {
            let seed = run.seed.wrapping_add(i);
            let (detail, correct) = child_run(name, RunArgs { seed, ..run })?;
            all_correct &= correct;
            timed.push(detail);
        }
        let (traced, correct) = child_run(name, RunArgs { trace: true, ..run })?;
        all_correct &= correct;
        // One run keeps its own quartiles (over its reps); several are
        // summarized over the runs.
        let timed = if timed.len() == 1 {
            timed.remove(0)
        } else {
            fold_runs(&timed)
        };
        workloads.push(Value::obj([
            ("name", Value::str(name)),
            ("timed", timed),
            ("traced", traced),
        ]));
    }

    if let Some(path) = out_file {
        let doc = Value::obj([
            ("schema", Value::str("harmony-benchmark/1")),
            ("env", environment(run, runs)),
            ("workloads", Value::Arr(workloads)),
        ]);
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("result set written to {path}");
    }
    println!(
        "{}",
        if all_correct {
            "all six workloads passed their checks"
        } else {
            "CHECKS FAILED: see the lines above"
        }
    );
    Ok(all_correct)
}

/// First line of a command's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result set was measured.
fn environment(run: RunArgs, runs: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", Value::str(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(run.seed as f64)),
        ("runs", Value::Num(runs as f64)),
        ("seconds", Value::Num(run.seconds)),
        ("setups", Value::Num(measure::SETUPS as f64)),
        ("smoke", Value::Bool(run.smoke)),
    ])
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let mut o = Options::parse(args, &[])?;
    let spec_path = o.take("--spec").unwrap_or_else(|| "BENCHMARK.json".into());
    let [a_path, b_path] = o.positional.as_slice() else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (spec, a, b) = (read(&spec_path)?, read(a_path)?, read(b_path)?);
    o.finish()?;
    for (label, doc) in [("a", &a), ("b", &b)] {
        if let Some(env) = doc.get("env") {
            println!("{label}: {}", env.to_line());
        }
    }
    let rows = compare::rows(&spec, &a, &b)?;
    print!("{}", compare::render(&rows));
    let failing = rows.iter().filter(|r| r.fails).count();
    let unresolved = rows.iter().filter(|r| r.verdict == "unresolved").count();
    println!(
        "{failing} regressions, {unresolved} unresolved, {} rows",
        rows.len()
    );
    Ok(failing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_split_pairs_flags_and_positionals() {
        let mut o = Options::parse(
            &strings(&["a.json", "--seed", "7", "--smoke", "b.json"]),
            &["--smoke"],
        )
        .unwrap();
        assert_eq!(o.take_parsed::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(o.take("--seed"), None);
        assert_eq!(o.flags, ["--smoke"]);
        assert_eq!(o.positional, ["a.json", "b.json"]);
        assert!(o.finish().is_ok());

        assert!(Options::parse(&strings(&["--seed"]), &[]).is_err());
        let mut o = Options::parse(&strings(&["--seed", "x", "--bogus", "1"]), &[]).unwrap();
        assert!(o.take_parsed::<u64>("--seed").is_err());
        assert!(o.finish().unwrap_err().contains("--bogus"));
    }

    #[test]
    fn bad_requests_are_usage_errors() {
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seconds", "0"],
            vec!["--seconds", "61"],
            vec!["--trace", "2"],
            vec!["--workload", "sim_long_jobs", "--out", "x.json"],
            vec!["--workload", "sim_long_jobs", "--runs", "2"],
            vec!["--runs", "0"],
            vec!["stray"],
        ] {
            assert!(run_command(&strings(&bad)).is_err(), "{bad:?} accepted");
        }
        assert!(compare_command(&strings(&["only-one.json"])).is_err());
    }

    #[test]
    fn fold_runs_summarizes_over_the_runs_like_the_gate() {
        let run = |value: f64, failed: f64, digest: &str, problem: Option<&str>| {
            let metrics = spec::END_TO_END
                .iter()
                .map(|(name, _, _)| (*name, Value::obj([("value", Value::Num(value))])));
            Value::obj([
                ("correct", Value::Bool(problem.is_none())),
                ("attempted", Value::Num(10.0)),
                ("failed", Value::Num(failed)),
                ("digest", Value::str(digest)),
                (
                    "problems",
                    Value::Arr(problem.into_iter().map(Value::str).collect()),
                ),
                ("metrics", Value::obj(metrics)),
            ])
        };
        let folded = fold_runs(&[
            run(3.0, 0.0, "aa", None),
            run(1.0, 1.0, "bb", Some("books")),
            run(2.0, 0.0, "cc", None),
        ]);
        assert_eq!(folded.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(folded.get("attempted").unwrap().as_f64(), Some(30.0));
        assert_eq!(folded.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(folded.get("problems").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            folded.get("digest").unwrap().as_str(),
            Some(measure::fnv1a(["aa", "bb", "cc"]).as_str())
        );
        for (name, unit, _) in spec::END_TO_END {
            let m = folded.get("metrics").unwrap().get(name).unwrap();
            let field = |f: &str| m.get(f).unwrap().as_f64().unwrap();
            assert_eq!(
                (field("q1"), field("value"), field("q3"), field("reps")),
                (1.0, 2.0, 3.0, 3.0)
            );
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
        }
    }

    #[test]
    fn default_seconds_is_the_gates_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
