//! §V-C (technique breakdown): how much of Harmony's benefit comes from
//! each technique, by adding them one at a time on top of the naive
//! co-location baseline:
//!
//! 1. `+ subtasks` — naive grouping, but subtasks executed under
//!    Harmony's discipline (one COMP at a time, two COMM slots);
//! 2. `+ grouping` — the full scheduler (profiling, Algorithm 1,
//!    regrouping) with static spill;
//! 3. `+ dynamic reloading` — the complete system.
//!
//! The paper attributes 32% of the total benefit to subtasks, a further
//! 49% to grouping (81% cumulative), and the rest to reloading.
//!
//! The table is one draw of the straggler noise (seed 0). Below it, each
//! row's makespan and mean JCT over seeds 0-7 as median [min-max], and
//! the paper's finding checked on every seed of that range.

use harmony_bench::{base_specs, median_min_max, naive_config, run, MACHINES};
use harmony_metrics::TextTable;
use harmony_sim::{ReloadPolicy, RunReport, SchedulerKind, SimConfig};

/// Seeds `0..SEEDS` of the sweep below the table.
const SEEDS: u64 = 8;

/// The four configurations, each adding one technique to the one
/// before, at straggler-noise seed `seed`.
fn configs(seed: u64) -> [(&'static str, SimConfig); 4] {
    let naive = SimConfig {
        seed,
        ..naive_config(MACHINES, 3, 1)
    };
    [
        ("naive co-location", naive.clone()),
        (
            "+ subtasks (§IV-A)",
            SimConfig {
                discipline_override: Some((1, 2)),
                ..naive.clone()
            },
        ),
        (
            "+ grouping (§IV-B)",
            SimConfig {
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::StaticFit,
                ..naive.clone()
            },
        ),
        (
            "+ dynamic reloading (§IV-C)",
            SimConfig {
                scheduler: SchedulerKind::Harmony,
                reload: ReloadPolicy::Adaptive,
                ..naive
            },
        ),
    ]
}

/// Each technique's makespan gain over the row before it, in seconds:
/// subtasks, grouping, reloading.
fn gains(rows: &[RunReport]) -> [f64; 3] {
    [0, 1, 2].map(|i| rows[i].makespan - rows[i + 1].makespan)
}

/// The paper's finding on one seed: every technique shortens the
/// makespan, and grouping's gain is the largest of the three.
fn paper_finding_holds(rows: &[RunReport]) -> bool {
    let [sub, grp, rel] = gains(rows);
    sub > 0.0 && rel > 0.0 && grp > sub && grp > rel
}

fn main() {
    let specs = base_specs();
    let sweep: Vec<Vec<RunReport>> = (0..SEEDS)
        .map(|seed| {
            configs(seed)
                .into_iter()
                .map(|(_, cfg)| run(cfg, specs.clone()))
                .collect()
        })
        .collect();
    let labels = configs(0).map(|(label, _)| label);

    let rows = &sweep[0];
    let worst = rows[0].makespan;
    let best = rows.last().expect("non-empty").makespan;
    let total_gain = worst - best;

    let mut table = TextTable::new([
        "configuration",
        "makespan (min)",
        "mean JCT (min)",
        "cpu util",
        "share of total benefit",
    ]);
    for (label, r) in labels.iter().zip(rows) {
        let share = if total_gain > 0.0 {
            ((worst - r.makespan) / total_gain * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        };
        table.row([
            label.to_string(),
            format!("{:.0}", r.makespan / 60.0),
            format!("{:.0}", r.mean_jct() / 60.0),
            format!("{:.1}%", r.avg_cpu_util(MACHINES) * 100.0),
            format!("{share:.0}%"),
        ]);
    }
    println!("§V-C: contribution of each Harmony technique (makespan benefit)\n");
    println!("{table}");

    let mut spread_table = TextTable::new(["configuration", "makespan (min)", "mean JCT (min)"]);
    for (i, label) in labels.iter().enumerate() {
        let spread = |pick: fn(&RunReport) -> f64| {
            let (med, lo, hi) =
                median_min_max(&sweep.iter().map(|s| pick(&s[i])).collect::<Vec<_>>());
            format!("{med:.0} [{lo:.0}-{hi:.0}]")
        };
        spread_table.row([
            label.to_string(),
            spread(|r| r.makespan / 60.0),
            spread(|r| r.mean_jct() / 60.0),
        ]);
    }
    println!("over seeds 0-{}, median [min-max]:\n", SEEDS - 1);
    println!("{spread_table}");

    let mut failing = Vec::new();
    for (seed, rows) in sweep.iter().enumerate() {
        let [sub, grp, rel] =
            gains(rows).map(|g| g / (rows[0].makespan - rows[3].makespan) * 100.0);
        let holds = paper_finding_holds(rows);
        if !holds {
            failing.push(seed);
        }
        println!(
            "seed {seed}: subtasks {sub:.0}%, grouping {grp:.0}%, reloading {rel:.0}% of the \
             benefit: {}",
            if holds { "holds" } else { "FAILS" }
        );
    }
    println!(
        "\nPaper finding (each added technique improves the makespan, with grouping \
         contributing the largest share; paper: subtasks 32%, +grouping 81%, \
         +reloading 100%) holds on {} of {SEEDS} seeds{}.",
        SEEDS as usize - failing.len(),
        if failing.is_empty() {
            String::new()
        } else {
            format!("; it fails on seeds {failing:?}")
        }
    );
}
