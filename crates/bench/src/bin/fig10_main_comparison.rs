//! Figure 10: JCT and makespan of Harmony and the baselines on the full
//! 80-job workload over 100 machines.
//!
//! The isolated baseline is the normalization unit. The naive baseline
//! is run over several placement seeds and packing degrees; its bar is
//! the average with min/max whiskers, exactly as the paper reports it.
//! Harmony's row is seed 0; a line below the table gives its mean JCT,
//! makespan and CPU utilization as median [min-max] over seeds 0-15.

use harmony_bench::{
    base_specs, harmony_config, isolated_config, median_min_max, naive_config, run, summary_row,
    RunSummary, MACHINES,
};
use harmony_metrics::{Cdf, TextTable};
use harmony_sim::SimConfig;

/// Seeds `0..SEEDS` of Harmony's seed sweep.
const SEEDS: u64 = 16;

fn main() {
    let specs = base_specs();
    let mut table = TextTable::new([
        "scheduler",
        "mean JCT (min)",
        "makespan (min)",
        "JCT speedup",
        "makespan speedup",
        "cpu util",
        "net util",
        "done",
    ]);

    let iso = RunSummary::of(&run(isolated_config(MACHINES), specs.clone()), MACHINES);
    let baseline = (iso.mean_jct_min, iso.makespan_min);
    table.row(summary_row(&iso, baseline));

    // Naive: sample placements (seeds × packing degrees).
    let mut naive_runs = Vec::new();
    for jobs_per_group in [2usize, 3, 4] {
        for seed in 0..3u64 {
            let cfg = naive_config(MACHINES, jobs_per_group, seed);
            naive_runs.push(RunSummary::of(&run(cfg, specs.clone()), MACHINES));
        }
    }
    let jct_speedups: Vec<f64> = naive_runs
        .iter()
        .map(|r| baseline.0 / r.mean_jct_min)
        .collect();
    let ms_speedups: Vec<f64> = naive_runs
        .iter()
        .map(|r| baseline.1 / r.makespan_min)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let minmax = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0f64, f64::max),
        )
    };
    let (jlo, jhi) = minmax(&jct_speedups);
    let (mlo, mhi) = minmax(&ms_speedups);
    table.row([
        "naive (avg of 9 placements)".to_string(),
        format!(
            "{:.0}",
            mean(
                &naive_runs
                    .iter()
                    .map(|r| r.mean_jct_min)
                    .collect::<Vec<_>>()
            )
        ),
        format!(
            "{:.0}",
            mean(
                &naive_runs
                    .iter()
                    .map(|r| r.makespan_min)
                    .collect::<Vec<_>>()
            )
        ),
        format!("{:.2} [{jlo:.2}-{jhi:.2}]", mean(&jct_speedups)),
        format!("{:.2} [{mlo:.2}-{mhi:.2}]", mean(&ms_speedups)),
        format!(
            "{:.1}%",
            mean(&naive_runs.iter().map(|r| r.cpu_util).collect::<Vec<_>>()) * 100.0
        ),
        format!(
            "{:.1}%",
            mean(&naive_runs.iter().map(|r| r.net_util).collect::<Vec<_>>()) * 100.0
        ),
        format!(
            "{}",
            naive_runs.iter().map(|r| r.completed).min().unwrap_or(0)
        ),
    ]);

    let harmony_report = run(harmony_config(MACHINES), specs.clone());
    let harmony = RunSummary::of(&harmony_report, MACHINES);
    table.row(summary_row(&harmony, baseline));

    println!("Figure 10: JCT and makespan, normalized to the isolated baseline\n");
    println!("{table}");

    // The row above is one draw of the straggler noise (seed 0); the
    // same run over the fixed seeds 0-15 shows how far a draw moves it.
    let mut sweep = vec![harmony.clone()];
    sweep.extend((1..SEEDS).map(|seed| {
        let cfg = SimConfig {
            seed,
            ..harmony_config(MACHINES)
        };
        RunSummary::of(&run(cfg, specs.clone()), MACHINES)
    }));
    let spread =
        |pick: fn(&RunSummary) -> f64| median_min_max(&sweep.iter().map(pick).collect::<Vec<_>>());
    let (jct, jlo, jhi) = spread(|s| s.mean_jct_min);
    let (ms, mlo, mhi) = spread(|s| s.makespan_min);
    let (cpu, clo, chi) = spread(|s| s.cpu_util * 100.0);
    println!(
        "harmony over seeds 0-{}, median [min-max]: mean JCT {jct:.0} [{jlo:.0}-{jhi:.0}] min, \
         makespan {ms:.0} [{mlo:.0}-{mhi:.0}] min, cpu util {cpu:.1}% [{clo:.1}-{chi:.1}%]",
        SEEDS - 1
    );

    // JCT distribution tails: the mean hides where each scheduler wins.
    let jct_cdf = |r: &harmony_sim::RunReport| -> Cdf {
        r.jobs
            .iter()
            .filter_map(|j| j.jct.map(|v| v / 60.0))
            .collect()
    };
    let h_cdf = jct_cdf(&harmony_report);
    println!(
        "harmony JCT percentiles (min): p10 {:.0}, p50 {:.0}, p90 {:.0}, p99 {:.0}",
        h_cdf.quantile(0.10).unwrap_or(0.0),
        h_cdf.quantile(0.50).unwrap_or(0.0),
        h_cdf.quantile(0.90).unwrap_or(0.0),
        h_cdf.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "harmony details: {:.1} concurrent jobs on average, {} scheduler \
         invocations totalling {:?}, {} migrations, regrouping overhead \
         {:.2}% of makespan",
        harmony.concurrent,
        harmony_report.sched_invocations,
        harmony_report.sched_wall,
        harmony_report.migrations,
        harmony_report.sched_wall.as_secs_f64() / harmony_report.makespan * 100.0,
    );
    println!(
        "\nPaper comparison (Fig. 10): naive ≈1.11x JCT / 1.09x makespan with \
         wide whiskers (worst below 1.0); Harmony 2.11x JCT / 1.60x makespan. \
         See EXPERIMENTS.md for the JCT-metric discussion."
    );
}
