//! The benchmark's vocabulary: workload names and metric names, units
//! and directions. `BENCHMARK.json` at the repository root carries the
//! same tables plus the regression bounds; a test holds the two in
//! agreement.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction.
pub type Metric = (&'static str, &'static str, Better);

/// The six workloads, in run order.
pub const WORKLOADS: [&str; 6] = [
    "sim_batch_exact",
    "sim_batch_coalesced",
    "sim_long_jobs",
    "sim_open_churn",
    "ps_colocated",
    "ps_wide_dense",
];

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports every one, untraced.
///
/// `mean_jct_s`, `makespan_s` and `cpu_util` are simulated quantities
/// on `sim_*` (deterministic per seed) and host measurements on `ps_*`
/// (medians over the reps); the README says which is which.
pub const END_TO_END: [Metric; 6] = [
    ("setup_s", "s", Lower),
    ("job_iters_per_s", "1/s", Higher),
    ("peak_rss_mb", "MiB", Lower),
    ("mean_jct_s", "s", Lower),
    ("makespan_s", "s", Lower),
    ("cpu_util", "fraction", Higher),
];

/// Per-layer metrics: every workload reports every one in its traced
/// run; a layer the workload never enters reports 0.
pub const PER_LAYER: [Metric; 73] = [
    // harmony-core: Algorithm 1 as the simulator drives it, then timed
    // directly on the workload's own profiles.
    ("core.schedule.passes", "count", Lower),
    ("core.schedule.busy_s", "s", Lower),
    ("core.schedule.pass_mean_ms", "ms", Lower),
    ("core.schedule.share", "fraction", Lower),
    ("core.schedule.cold_ms", "ms", Lower),
    ("core.scratch.cache_build_ms", "ms", Lower),
    ("core.model.group_iter_ns", "ns", Lower),
    ("core.model.cluster_util_us", "us", Lower),
    ("core.resched.bootstrap", "count", Lower),
    ("core.resched.profiled", "count", Lower),
    ("core.resched.finished", "count", Lower),
    ("core.resched.drift", "count", Lower),
    ("core.resched.crash_recovery", "count", Lower),
    ("core.resched.abort_recovery", "count", Lower),
    ("core.resched.unstall", "count", Lower),
    ("core.resched.window_flush", "count", Lower),
    // harmony-sim: the event loop and what it simulated.
    ("sim.driver.event_s", "s", Lower),
    ("sim.driver.event_ns_per_iter", "ns", Lower),
    ("sim.driver.subtasks", "count", Lower),
    ("sim.spans.overhead_frac", "fraction", Lower),
    ("sim.exec.comp_busy_frac", "fraction", Higher),
    ("sim.exec.comm_busy_frac", "fraction", Higher),
    ("sim.admission.admitted", "count", Higher),
    ("sim.admission.deferred", "count", Lower),
    ("sim.admission.rejected", "count", Lower),
    ("sim.admission.forced", "count", Lower),
    ("sim.admission.wait_p95_s", "s", Lower),
    ("sim.fault.machines_lost", "count", Lower),
    ("sim.fault.jobs_aborted", "count", Lower),
    ("sim.fault.recovery_mean_s", "s", Lower),
    ("sim.coalesce.windows", "count", Lower),
    ("sim.coalesce.release_passes", "count", Lower),
    ("sim.coalesce.staleness_max_s", "s", Lower),
    ("sim.mem.gc_s", "s", Lower),
    ("sim.mem.ooms", "count", Lower),
    ("sim.mem.alpha_mean", "fraction", Lower),
    ("sim.workload.gen_s", "s", Lower),
    ("sim.report.pred_err_iter", "fraction", Lower),
    ("sim.report.failed_frac", "fraction", Lower),
    // harmony-ps: subtasks, executors, wire, shards.
    ("ps.subtask.pull_s", "s", Lower),
    ("ps.subtask.comp_s", "s", Lower),
    ("ps.subtask.push_s", "s", Lower),
    ("ps.subtask.apply_s", "s", Lower),
    ("ps.subtask.count", "count", Lower),
    ("ps.executor.cpu_idle_frac", "fraction", Lower),
    ("ps.executor.completed", "count", Lower),
    ("ps.executor.retries", "count", Lower),
    ("ps.executor.aborted", "count", Lower),
    ("ps.executor.peak_cpu", "count", Lower),
    ("ps.executor.peak_comm", "count", Lower),
    ("ps.wire.push_bytes", "bytes", Lower),
    ("ps.wire.dense_bytes", "bytes", Lower),
    ("ps.wire.density", "fraction", Lower),
    ("ps.shard.pull_into_us", "us", Lower),
    ("ps.shard.stripe_add_us", "us", Lower),
    ("ps.shard.stripe_add_sparse_us", "us", Lower),
    ("ps.runtime.overhead_frac", "fraction", Lower),
    ("ps.spans.overhead_frac", "fraction", Lower),
    ("ps.report.push_bytes_per_iter", "bytes", Lower),
    ("ps.report.loss_drop", "fraction", Higher),
    ("ps.report.failed_frac", "fraction", Lower),
    // harmony-mem: the PS runtime's buffer pool.
    ("mem.pool.allocations", "count", Lower),
    ("mem.pool.reuses", "count", Higher),
    ("mem.pool.reuse_ratio", "fraction", Higher),
    ("mem.pool.acquire_ns", "ns", Lower),
    // harmony-ml: one partition's update, no runtime around it.
    ("ml.lasso.compute_us", "us", Lower),
    ("ml.mlr.compute_us", "us", Lower),
    ("ml.nmf.compute_us", "us", Lower),
    ("ml.lda.compute_us", "us", Lower),
    // harmony-trace: the Table I workload builder.
    ("trace.workload.build_ms", "ms", Lower),
    // The traced run's own copies of the end-to-end figures, so one
    // traced line is enough to read a share against its whole.
    ("run.wall_s", "s", Lower),
    ("run.reps", "count", Higher),
    ("run.job_iters", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", Lower)));
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} array"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = manifest();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in rows(&doc, "workloads") {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }

        let listed = |key: &str| -> Vec<(String, String, String)> {
            rows(&doc, key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |table: &[Metric]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for m in rows(&doc, "end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            assert_eq!(m.as_obj().unwrap().len(), 4);
        }
        for m in rows(&doc, "per_layer") {
            assert_eq!(m.as_obj().unwrap().len(), 3);
        }

        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        let paths: Vec<&str> = rows(&doc, "paths")
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
