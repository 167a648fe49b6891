//! Simulation configuration.

use harmony_core::cluster::MachineSpec;
use harmony_core::schedule::SchedulerConfig;
use harmony_mem::GcModel;

use crate::fault::FaultPlan;

/// Which scheduling policy drives the run (§V-A baselines + Harmony).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The full Harmony scheduler: profiling, Algorithm 1, dynamic
    /// regrouping.
    Harmony,
    /// Harmony's machinery but with the exact oracle making the
    /// grouping decision (only tractable for small job counts; §V-F).
    Oracle,
    /// Dedicated resources per job at its CPU-utilization-maximizing
    /// "knee" DoP (Optimus/SLAQ-like).
    Isolated,
    /// Uncoordinated sharing: jobs packed `jobs_per_group` to a pool,
    /// subtasks dispatched with no discipline (Gandiva-like). The seed
    /// picks one of the many possible placements.
    Naive {
        /// Jobs packed per shared machine pool.
        jobs_per_group: usize,
        /// Placement shuffle seed (the evaluation samples several and
        /// reports best/worst).
        seed: u64,
    },
}

/// How input-data spill/reload is managed (§IV-C, §V-G).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReloadPolicy {
    /// Keep everything in memory (α = 0); OOM if it does not fit.
    None,
    /// One fixed α for every job (the §V-G baseline).
    Fixed(f64),
    /// Static per-job α chosen at group formation so the group fits
    /// under the target fill (what a production default would do).
    StaticFit,
    /// Harmony: per-job hill-climbing α controllers (dynamic reloading).
    Adaptive,
}

/// A scripted mid-run workload shift: from (0-based) iteration
/// `at_iteration` onward, job `job`'s true per-iteration COMP cost is
/// multiplied by `factor`. The scheduler is never told — it can only
/// find out through closed-loop measurements (`profile_feedback`), which
/// makes this the simulator analogue of the COMP-collapse script the PS
/// tests drive through [`harmony_ps` virtual clocks].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompShift {
    /// Index of the shifted job in the workload's spec order.
    pub job: usize,
    /// First iteration (0-based, counting every completed iteration
    /// including profiling) that runs at the shifted cost.
    pub at_iteration: u64,
    /// Multiplier applied to the spec's `comp_cost`; `1/16` is the
    /// paper-style 16× collapse, values above 1 model a degradation.
    pub factor: f64,
}

/// A sparse-wire declaration: job `job` ships coordinate-sparse PUSH
/// deltas whose bytes-on-the-wire are `density` × the dense payload
/// (see `harmony_ps::PushVolume`). The simulator scales the job's PUSH
/// subtask cost accordingly — PULL stays dense, because the server
/// broadcasts the full model either way. As with [`CompShift`], the
/// scheduler is never told directly: the simulator records no density,
/// so its profiles see the cheaper wire only as a shorter measured
/// `Tnet`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushDensity {
    /// Index of the sparse job in the workload's spec order.
    pub job: usize,
    /// Wire bytes relative to a dense push, in `(0, 1]`.
    pub density: f64,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of machines in the cluster.
    pub machines: u32,
    /// Per-machine hardware (defaults to m4.2xlarge).
    pub machine: MachineSpec,
    /// Scheduling policy under test.
    pub scheduler: SchedulerKind,
    /// Harmony scheduler tunables (ignored by baselines).
    pub scheduler_config: SchedulerConfig,
    /// Spill/reload policy.
    pub reload: ReloadPolicy,
    /// Iterations a new job runs in a profiling group before its profile
    /// is declared ready (§IV-B1).
    pub profile_iterations: u32,
    /// Machines granted to a freshly created profiling group.
    pub profiling_group_machines: u32,
    /// Max jobs co-profiled in one profiling group.
    pub profiling_group_jobs: usize,
    /// Coefficient of variation of per-subtask straggler noise.
    pub straggler_cv: f64,
    /// RNG seed for all stochastic elements.
    pub seed: u64,
    /// NIC demand of a single COMM subtask. At the default 1.0 a COMM
    /// subtask saturates the wire for its nominal duration, so two
    /// concurrent subtasks (primary + secondary, §IV-A) pipeline without
    /// changing aggregate timing — exactly the serialized `Σ Tnet` bound
    /// of Eq. 1. Values < 1 model request/response idle gaps that the
    /// secondary subtask can harvest (an ablation knob).
    pub net_demand: f64,
    /// Per-extra-task interference slowdown for uncoordinated sharing.
    pub interference_beta: f64,
    /// GC pressure model.
    pub gc: GcModel,
    /// JVM-style expansion factor on resident input bytes (object
    /// headers, boxing, intermediate copies).
    pub memory_expansion: f64,
    /// Working-set fraction of a job's per-machine input charged while
    /// its COMP subtask runs.
    pub workspace_fraction: f64,
    /// Memory-fill target for `ReloadPolicy::StaticFit`.
    pub static_fill_target: f64,
    /// Fraction of the pipeline gap usable as background-preload overlap
    /// credit (1.0 under Harmony's coordinated reload; lower for
    /// uncoordinated baselines).
    pub reload_overlap: f64,
    /// Deserialization throughput for reloaded blocks (bytes/s of CPU
    /// work).
    pub deser_bytes_per_sec: f64,
    /// Relative error injected into profiles before every scheduling
    /// decision (Figure 13a); 0 disables.
    pub error_injection: f64,
    /// Utilization sampling interval in seconds (the paper uses 1 min);
    /// finite and positive.
    pub utilization_sample_secs: f64,
    /// Trigger a full reschedule when at least this many profiled/paused
    /// jobs are waiting (engineering guardrail around §IV-B4's
    /// minimal-movement rules). A job finish that meets it still tries
    /// to back-fill its group with a similar waiting job or a bunch, but
    /// skips the regrouper's escalation ladder: the full pass that
    /// follows rebuilds every group the ladder would re-form.
    pub waiting_reschedule_threshold: usize,
    /// Force this DoP for isolated jobs and naive pools instead of the
    /// knee heuristic — used by the motivation experiments (Figures 2-4
    /// fix the DoP at 16).
    pub fixed_dop: Option<u32>,
    /// Override the per-group executor discipline `(cpu_slots,
    /// net_slots)` regardless of scheduler kind — the ablation study
    /// uses this to run "subtasks only" (Harmony's discipline under
    /// naive grouping).
    pub discipline_override: Option<(usize, usize)>,
    /// CPU-boundedness factor of the isolated baseline's knee DoP
    /// (`Tcpu(m) >= factor * Tnet`); larger means lower DoP and higher
    /// CPU utilization per job (§V-A).
    pub isolated_knee_factor: f64,
    /// Record one [`crate::spans::SubtaskSpan`] per executed subtask
    /// (for Gantt / Chrome-trace export). Off by default: long runs
    /// produce hundreds of thousands of spans.
    pub record_spans: bool,
    /// Mean time between machine failures across the whole cluster
    /// (§VI "fault tolerance"): each failure hits one random group,
    /// whose jobs roll back to their last per-epoch checkpoint and pay
    /// a restart (input reload) delay. `None` disables failures.
    pub failure_mtbf_secs: Option<f64>,
    /// Scheduled fault injection (§VI): machine crashes, transient
    /// slowdowns and job aborts at fixed simulated times, with
    /// deterministic victim selection. `None` disables the subsystem.
    /// Unlike `failure_mtbf_secs` (which restarts a whole group in
    /// place), plan-driven crashes permanently remove machines and
    /// exercise the regrouper's recovery paths.
    pub fault_plan: Option<FaultPlan>,
    /// Closed-loop online profiling (§IV-B4): pin every running job's
    /// profile to the estimate its current schedule was computed with,
    /// and trigger a reschedule when the smoothed measurement drifts
    /// from that basis by at least
    /// `scheduler_config.improvement_threshold` (the paper's 5%). Off
    /// by default; with the flag off the event path never consults the
    /// drift machinery, so decisions are byte-identical to a build
    /// without it (`tests/profile_feedback.rs`).
    pub profile_feedback: bool,
    /// Live job migration via checkpoint/resume (§IV-B4). When a
    /// running job's profile drifts (`profile_feedback` must be on for
    /// drift to fire), instead of triggering a cluster-wide reschedule
    /// the job alone is paused at its next iteration boundary, its
    /// model checkpointed, and it is reattached in the group a targeted
    /// scheduling pass picks — paying a checkpoint-transfer delay on
    /// top of the input reload. Off by default; with the flag off the
    /// drift path full-reschedules exactly as before, so
    /// `RunReport::canonical_bytes` is byte-identical to a build
    /// without the feature (`tests/golden_digests.rs`).
    pub live_migration: bool,
    /// Iterations a freshly migrated job runs before its drift trigger
    /// re-arms. The smoothed profile estimate needs several samples to
    /// converge on the regime that caused the move (at the EWMA's
    /// α = 0.3, a 16× shift takes ~8 samples to settle within the 5%
    /// band); checking drift during that decay re-flags the same shift
    /// every iteration and migrates the job in a loop. When the window
    /// expires the basis is re-pinned on the settled estimate. Only
    /// consulted when `live_migration` is on.
    pub migration_settle_iters: u32,
    /// Scripted mid-run workload shifts (see [`CompShift`]). Empty by
    /// default; with no shifts the COMP cost path is untouched, so
    /// decisions are byte-identical to a build without the knob.
    pub comp_shifts: Vec<CompShift>,
    /// Per-job sparse-wire declarations (see [`PushDensity`]). Empty by
    /// default; with no entries the PUSH cost path is untouched, so
    /// decisions are byte-identical to a build without the knob.
    pub push_densities: Vec<PushDensity>,
    /// Hard cap on simulated seconds (guards against runaway configs).
    pub max_sim_seconds: f64,
    /// Coalesced reschedule passes: break the finish-mandated
    /// full-pass floor. With the flag off every job finish that
    /// crosses the backlog threshold (or dissolves its group with work
    /// waiting) fires its own full Algorithm 1 pass, so passes grow
    /// with n and the event path inherits a superlinear wall-clock
    /// floor. With the flag on, finish-triggered passes *coalesce*:
    /// the first finish opens a window of [`Self::coalesce_window`]
    /// virtual seconds; further finishes inside it only accumulate;
    /// the window flushes into ONE full pass at expiry (or at
    /// [`Self::coalesce_max_batch`] finishes). Any other full-pass
    /// trigger — drift, fault recovery, the profiled-backlog
    /// threshold — closes the window for free, because its own full
    /// pass subsumes the deferred one. While a window is open, a
    /// finish that dissolves its group hands the freed machines to the
    /// best waiting jobs through a cheap targeted release pass
    /// ([`harmony_core::schedule::Scheduler::schedule_release`]), so
    /// freed capacity never idles behind the deferral.
    ///
    /// The flag switches only that window, and only for the Harmony
    /// and oracle schedulers, whose finish path consults it: group
    /// builds, teardowns and memory pricing run one path either way,
    /// and the Isolated and Naive baselines run byte-identically.
    ///
    /// This mode is equivalence-*relaxed*: decisions legitimately
    /// differ from the exact arm. The acceptance story is quantified
    /// instead — `tests/coalesce_acceptance.rs` holds mean JCT and
    /// final utilization within 1% of the exact arm across a matrix of
    /// schedulers and faults, and `RunReport::coalesce_staleness`
    /// proves no deferred decision ever waits longer than the window.
    /// Off by default; with the flag off the event path never consults
    /// the window machinery.
    pub coalesced_passes: bool,
    /// Virtual seconds a coalescing window stays open before flushing
    /// (the staleness bound on any deferred finish pass). Only
    /// consulted when `coalesced_passes` is on.
    pub coalesce_window: f64,
    /// Finish count that flushes a window early, bounding how much
    /// cluster state one deferred pass can reshuffle. Only consulted
    /// when `coalesced_passes` is on.
    pub coalesce_max_batch: usize,
    /// Seconds between re-offers of a deferred arrival to the
    /// admission policy (`Driver::run_open_loop`). Only consulted when
    /// an [`crate::admission::AdmissionPolicy`] actually defers.
    pub admission_reoffer_secs: f64,
    /// Deferral budget per job: after this many deferrals the driver
    /// force-admits the job, bounding queue wait by
    /// `admission_max_deferrals × admission_reoffer_secs` — the
    /// starvation guard `tests/open_loop_acceptance.rs` asserts.
    pub admission_max_deferrals: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            machines: 100,
            machine: MachineSpec::m4_2xlarge(),
            scheduler: SchedulerKind::Harmony,
            scheduler_config: SchedulerConfig::default(),
            reload: ReloadPolicy::Adaptive,
            profile_iterations: 3,
            profiling_group_machines: 8,
            profiling_group_jobs: 8,
            straggler_cv: 0.03,
            seed: 0,
            net_demand: 1.0,
            interference_beta: 0.08,
            gc: GcModel::default(),
            memory_expansion: 2.5,
            workspace_fraction: 0.08,
            static_fill_target: 0.8,
            reload_overlap: 1.0,
            deser_bytes_per_sec: 400.0e6,
            error_injection: 0.0,
            utilization_sample_secs: 60.0,
            waiting_reschedule_threshold: 8,
            fixed_dop: None,
            discipline_override: None,
            isolated_knee_factor: 1.0,
            record_spans: false,
            failure_mtbf_secs: None,
            fault_plan: None,
            profile_feedback: false,
            live_migration: false,
            migration_settle_iters: 8,
            comp_shifts: Vec::new(),
            push_densities: Vec::new(),
            max_sim_seconds: 60.0 * 86_400.0,
            coalesced_passes: false,
            coalesce_window: 30.0,
            coalesce_max_batch: 32,
            admission_reoffer_secs: 30.0,
            admission_max_deferrals: 16,
        }
    }
}

impl SimConfig {
    /// Validates cross-field consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("cluster needs at least one machine".into());
        }
        if !(0.0..=1.0).contains(&self.net_demand) || self.net_demand == 0.0 {
            return Err(format!(
                "net_demand must be in (0, 1], got {}",
                self.net_demand
            ));
        }
        if self.profile_iterations == 0 {
            return Err("profiling needs at least one iteration".into());
        }
        if let ReloadPolicy::Fixed(a) = self.reload {
            if !(0.0..=1.0).contains(&a) {
                return Err(format!("fixed alpha must be in [0, 1], got {a}"));
            }
        }
        if let SchedulerKind::Naive { jobs_per_group, .. } = self.scheduler {
            if jobs_per_group == 0 {
                return Err("naive packing needs at least one job per group".into());
            }
        }
        if !self.utilization_sample_secs.is_finite() || self.utilization_sample_secs <= 0.0 {
            return Err(format!(
                "utilization sample interval must be a positive number of seconds, got {}",
                self.utilization_sample_secs
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        for s in &self.comp_shifts {
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(format!(
                    "comp shift factor must be positive, got {}",
                    s.factor
                ));
            }
        }
        for d in &self.push_densities {
            if !d.density.is_finite() || d.density <= 0.0 || d.density > 1.0 {
                return Err(format!("push density must be in (0, 1], got {}", d.density));
            }
        }
        if self.coalesced_passes {
            if !self.coalesce_window.is_finite() || self.coalesce_window <= 0.0 {
                return Err(format!(
                    "coalesce window must be a positive number of seconds, got {}",
                    self.coalesce_window
                ));
            }
            if self.coalesce_max_batch == 0 {
                return Err("coalesce batch cap needs at least one finish".into());
            }
        }
        if !self.admission_reoffer_secs.is_finite() || self.admission_reoffer_secs <= 0.0 {
            return Err(format!(
                "admission re-offer interval must be a positive number of seconds, got {}",
                self.admission_reoffer_secs
            ));
        }
        if self.admission_max_deferrals == 0 {
            return Err("admission deferral budget needs at least one deferral".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_fields() {
        let c = SimConfig {
            machines: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            net_demand: 0.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            reload: ReloadPolicy::Fixed(1.5),
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            scheduler: SchedulerKind::Naive {
                jobs_per_group: 0,
                seed: 0,
            },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            fault_plan: Some(crate::fault::FaultPlan::new(
                0,
                vec![crate::fault::FaultEvent {
                    at: -5.0,
                    kind: crate::fault::FaultKind::MachineCrash,
                }],
            )),
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            comp_shifts: vec![CompShift {
                job: 0,
                at_iteration: 4,
                factor: 0.0,
            }],
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            push_densities: vec![PushDensity {
                job: 0,
                density: 1.5,
            }],
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            coalesced_passes: true,
            coalesce_window: 0.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            coalesced_passes: true,
            coalesce_max_batch: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        // The knobs are dormant while the mode is off.
        let c = SimConfig {
            coalesced_passes: false,
            coalesce_window: -1.0,
            coalesce_max_batch: 0,
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));

        // Admission knobs have always-valid defaults and are checked
        // unconditionally (closed-loop runs never consult them, but a
        // nonsensical value is still a config bug).
        let c = SimConfig {
            admission_reoffer_secs: 0.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            admission_reoffer_secs: f64::INFINITY,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            admission_max_deferrals: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
