//! Standard experiment configurations and helpers.

use harmony_core::job::JobSpec;
use harmony_sim::{Driver, ReloadPolicy, RunReport, SchedulerKind, SimConfig};
use harmony_trace::base_workload;

/// The paper's cluster size (§V-B: 100 m4.2xlarge instances).
pub const MACHINES: u32 = 100;

/// The 80-job base workload (Table I).
pub fn base_specs() -> Vec<JobSpec> {
    base_workload()
}

/// The computation-heavy 60-job subset of §V-D: the top 60 jobs by
/// computation-to-communication ratio at DoP 16 (Figure 9b's upper
/// tail).
pub fn comp_intensive_specs() -> Vec<JobSpec> {
    split_by_ratio(true)
}

/// The communication-heavy 60-job subset of §V-D (bottom 60 by ratio).
pub fn comm_intensive_specs() -> Vec<JobSpec> {
    split_by_ratio(false)
}

fn split_by_ratio(top: bool) -> Vec<JobSpec> {
    let mut specs = base_workload();
    specs.sort_by(|a, b| {
        a.comp_ratio_at(16)
            .partial_cmp(&b.comp_ratio_at(16))
            .expect("finite ratios")
    });
    if top {
        specs.split_off(specs.len() - 60)
    } else {
        specs.truncate(60);
        specs
    }
}

/// Standard Harmony configuration (adaptive reloading).
pub fn harmony_config(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        scheduler: SchedulerKind::Harmony,
        reload: ReloadPolicy::Adaptive,
        ..SimConfig::default()
    }
}

/// Standard isolated-baseline configuration. Real dedicated-allocation
/// systems stream data from disk when it does not fit, so the baseline
/// gets the static spill policy.
pub fn isolated_config(machines: u32) -> SimConfig {
    SimConfig {
        machines,
        scheduler: SchedulerKind::Isolated,
        reload: ReloadPolicy::StaticFit,
        ..SimConfig::default()
    }
}

/// Standard naive-co-location configuration for one placement seed.
pub fn naive_config(machines: u32, jobs_per_group: usize, seed: u64) -> SimConfig {
    SimConfig {
        machines,
        scheduler: SchedulerKind::Naive {
            jobs_per_group,
            seed,
        },
        reload: ReloadPolicy::StaticFit,
        ..SimConfig::default()
    }
}

/// Condensed per-run summary used by most experiment tables.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scheduler label.
    pub scheduler: String,
    /// Mean job completion time in minutes.
    pub mean_jct_min: f64,
    /// Makespan in minutes.
    pub makespan_min: f64,
    /// Average cluster CPU utilization.
    pub cpu_util: f64,
    /// Average cluster network utilization.
    pub net_util: f64,
    /// Completed jobs.
    pub completed: usize,
    /// OOM kills.
    pub ooms: usize,
    /// Mean concurrently-running jobs.
    pub concurrent: f64,
}

impl RunSummary {
    /// Builds the summary from a run report.
    pub fn of(report: &RunReport, machines: u32) -> Self {
        Self {
            scheduler: report.scheduler.clone(),
            mean_jct_min: report.mean_jct() / 60.0,
            makespan_min: report.makespan / 60.0,
            cpu_util: report.avg_cpu_util(machines),
            net_util: report.avg_net_util(machines),
            completed: report.completed(),
            ooms: report.oom_events.len(),
            concurrent: report.concurrent_jobs.mean(),
        }
    }
}

/// Runs one workload under one configuration with batch arrivals.
pub fn run(cfg: SimConfig, specs: Vec<JobSpec>) -> RunReport {
    let arrivals = vec![0.0; specs.len()];
    Driver::run(cfg, specs, arrivals)
}

/// Median, minimum and maximum of `values`; an even count's median is
/// the mean of its two middle values. Panics on an empty slice.
pub fn median_min_max(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    ((v[(n - 1) / 2] + v[n / 2]) / 2.0, v[0], v[n - 1])
}

/// Formats a standard summary row: label, JCT, makespan, utils,
/// speedups vs a baseline `(jct, makespan)` in minutes.
pub fn summary_row(s: &RunSummary, baseline: (f64, f64)) -> Vec<String> {
    vec![
        s.scheduler.clone(),
        format!("{:.0}", s.mean_jct_min),
        format!("{:.0}", s.makespan_min),
        format!("{:.2}", baseline.0 / s.mean_jct_min),
        format!("{:.2}", baseline.1 / s.makespan_min),
        format!("{:.1}%", s.cpu_util * 100.0),
        format!("{:.1}%", s.net_util * 100.0),
        format!("{}", s.completed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_have_sixty_jobs_each() {
        assert_eq!(comp_intensive_specs().len(), 60);
        assert_eq!(comm_intensive_specs().len(), 60);
    }

    #[test]
    fn subsets_differ_in_mean_ratio() {
        let mean_ratio = |specs: &[JobSpec]| {
            specs.iter().map(|s| s.comp_ratio_at(16)).sum::<f64>() / specs.len() as f64
        };
        let comp = mean_ratio(&comp_intensive_specs());
        let comm = mean_ratio(&comm_intensive_specs());
        let base = mean_ratio(&base_specs());
        assert!(comp > base && base > comm, "{comp} vs {base} vs {comm}");
    }

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        assert_eq!(median_min_max(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(median_min_max(&[4.0, 1.0, 2.0, 3.0]), (2.5, 1.0, 4.0));
        assert_eq!(median_min_max(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn standard_configs_validate() {
        assert!(harmony_config(MACHINES).validate().is_ok());
        assert!(isolated_config(MACHINES).validate().is_ok());
        assert!(naive_config(MACHINES, 3, 7).validate().is_ok());
    }
}
