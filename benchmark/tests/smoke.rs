//! Drives the built executable the way the gate and a developer do, at
//! `--smoke` scale: every workload runs for a fraction of a second and
//! has to pass its own checks.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_harmony-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn one_workload_ends_with_the_result_line_the_gate_reads() {
    for (trace, some_metric) in [("0", "\"setup_s\""), ("1", "\"core.schedule.share\"")] {
        let output = run(&[
            "run",
            "--workload",
            "sim_open_churn",
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(output.status.success(), "{}", stdout(&output));
        let text = stdout(&output);
        let last = text.lines().last().expect("some output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        assert!(last.contains(some_metric), "{last}");
        assert!(text.contains("canonical_digest "));
    }
}

#[test]
fn same_seed_same_outputs_other_seed_other_inputs() {
    let digest = |seed: &str| {
        let output = run(&[
            "run",
            "--workload",
            "sim_open_churn",
            "--seed",
            seed,
            "--seconds",
            "0.05",
            "--smoke",
        ]);
        assert!(output.status.success());
        stdout(&output)
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix("canonical_digest ")
                    .map(str::to_string)
            })
            .expect("a digest line")
    };
    assert_eq!(digest("7"), digest("7"));
    assert_ne!(digest("7"), digest("8"));
}

#[test]
fn a_full_smoke_set_passes_and_compares_clean_against_itself() {
    let result = scratch("smoke-set.json");
    let result = result.to_str().unwrap();
    let output = run(&[
        "run", "--smoke", "--seed", "3", "--runs", "2", "--out", result,
    ]);
    let text = stdout(&output);
    assert!(output.status.success(), "{text}");
    assert!(text.contains("all six workloads passed their checks"));
    for workload in [
        "sim_batch_exact",
        "sim_batch_coalesced",
        "sim_long_jobs",
        "sim_open_churn",
        "ps_colocated",
        "ps_wide_dense",
    ] {
        // Two timed runs on consecutive seeds, one traced run.
        assert!(text.contains(&format!("{workload}: seed 3 seconds 0.2 trace 0 smoke")));
        assert!(text.contains(&format!("{workload}: seed 4 seconds 0.2 trace 0 smoke")));
        assert!(text.contains(&format!("{workload}: seed 3 seconds 0.2 trace 1 smoke")));
    }
    let written = std::fs::read_to_string(result).unwrap();
    for key in [
        "\"runs\": 2",
        "\"nproc\"",
        "\"rustc\"",
        "\"commit\"",
        "\"seed\": 3",
        "\"smoke\": true",
        "\"q1\"",
    ] {
        assert!(written.contains(key), "{key} missing from the result file");
    }

    // A result set against itself: nothing regresses. Smoke-scale reps
    // last microseconds, so rows may well be "unresolved"; only the
    // exit code and the row count are checked.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let output = run(&["compare", result, result, "--spec", spec]);
    let text = stdout(&output);
    assert!(output.status.success(), "{text}");
    assert!(text.contains("0 regressions"), "{text}");
    assert_eq!(text.matches("output digest").count(), 6, "{text}");
    assert_eq!(text.matches("identical").count(), 6, "{text}");
}

#[test]
fn misuse_exits_with_status_two_and_prints_no_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--trace", "yes"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
