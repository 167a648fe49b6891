//! Figure 13: accuracy of the performance model.
//!
//! (a) Error sensitivity: inject relative error into every profile the
//!     scheduler sees and watch the speedups degrade (the paper: >90%
//!     of the benefit is retained below ~7.5% error, then performance
//!     falls quickly). Rows are paired by seed: each is reported as its
//!     change against the 0% row of the same seed, with the spread of
//!     that change over the seeds.
//! (b) Prediction error: compare predicted group iteration time and
//!     utilization against realized values for every grouping decision
//!     of the run (the paper: below 5% at all times).

use harmony_bench::{base_specs, harmony_config, run, MACHINES};
use harmony_metrics::{OnlineStats, TextTable};

fn main() {
    let specs = base_specs();

    // (a) Error-sensitivity sweep, paired by seed. A seed fixes the
    // straggler draw of every subtask (keyed noise) and the direction
    // of every job's injected error, so the rows of one seed differ
    // only by the error's size: each row is read as its change against
    // the 0% row of the same seed.
    const SEEDS: u64 = 5;
    const ERRORS: [u32; 7] = [0, 3, 5, 8, 10, 15, 20];
    let runs: Vec<Vec<(f64, f64)>> = ERRORS
        .iter()
        .map(|&err_pct| {
            (0..SEEDS)
                .map(|seed| {
                    let mut cfg = harmony_config(MACHINES);
                    cfg.error_injection = f64::from(err_pct) / 100.0;
                    cfg.seed = seed;
                    let r = run(cfg, specs.clone());
                    (r.mean_jct(), r.makespan)
                })
                .collect()
        })
        .collect();
    let mut table = TextTable::new([
        "injected error",
        "mean JCT (min)",
        "makespan (min)",
        "JCT vs 0%: mean [min, max]",
        "makespan vs 0%: mean [min, max]",
    ]);
    // The per-seed change of one quantity against the 0% row, in %.
    let paired = |row: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
        let mut d = OnlineStats::new();
        for (run, base) in row.iter().zip(&runs[0]) {
            d.observe((pick(run) / pick(base) - 1.0) * 100.0);
        }
        format!(
            "{:+.1}% [{:+.1}, {:+.1}]",
            d.mean(),
            d.min().unwrap_or(0.0),
            d.max().unwrap_or(0.0)
        )
    };
    for (err_pct, row) in ERRORS.iter().zip(&runs) {
        let mean = |pick: fn(&(f64, f64)) -> f64| {
            row.iter().map(pick).sum::<f64>() / row.len() as f64 / 60.0
        };
        table.row([
            format!("{err_pct}%"),
            format!("{:.0}", mean(|r| r.0)),
            format!("{:.0}", mean(|r| r.1)),
            paired(row, |r| r.0),
            paired(row, |r| r.1),
        ]);
    }
    println!(
        "Figure 13a: performance vs injected profile error, seeds 0-{}\n",
        SEEDS - 1
    );
    println!("{table}");

    // (b) Prediction accuracy of the unperturbed run.
    let r = run(harmony_config(MACHINES), specs);
    let mut it_err = OnlineStats::new();
    let mut u_err = OnlineStats::new();
    for p in &r.predictions {
        it_err.observe(p.iteration_error() * 100.0);
        u_err.observe(p.util_error() * 100.0);
    }
    let mut table = TextTable::new(["quantity", "mean err", "min", "max", "samples"]);
    table.row([
        "group iteration time (Tg_itr)".to_string(),
        format!("{:.1}%", it_err.mean()),
        format!("{:.1}%", it_err.min().unwrap_or(0.0)),
        format!("{:.1}%", it_err.max().unwrap_or(0.0)),
        format!("{}", it_err.count()),
    ]);
    table.row([
        "cluster utilization (U)".to_string(),
        format!("{:.1}%", u_err.mean()),
        format!("{:.1}%", u_err.min().unwrap_or(0.0)),
        format!("{:.1}%", u_err.max().unwrap_or(0.0)),
        format!("{}", u_err.count()),
    ]);
    println!("Figure 13b: prediction error over all scheduling decisions\n");
    println!("{table}");
    println!(
        "Paper finding reproduced when: the paired changes stay near 0 for \
         small injected errors and turn clearly positive (slower) past \
         ~7.5-10%, and the mean prediction errors are small (paper <5%; this reproduction lands \
         slightly higher — see EXPERIMENTS.md)."
    );
}
