//! Job identities and specifications.
//!
//! A *job* in Harmony is one Parameter-Server training run: distributed
//! workers iterating PULL → COMP → PUSH mini-batches until the model
//! converges (Figure 1 of the paper). The simulator tracks each job
//! through the lifecycle of §III (`waiting → profiling → profiled →
//! running ⇄ paused → finished`) as `harmony_sim`'s `SimJobState`.

use std::fmt;

/// Unique identifier of a submitted job.
///
/// # Examples
///
/// ```
/// use harmony_core::job::JobId;
///
/// let id = JobId::new(3);
/// assert_eq!(id.to_string(), "J3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw job number.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw job number.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl From<u64> for JobId {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// The four classical-ML applications evaluated in the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AppKind {
    /// Non-negative matrix factorization (recommendation).
    Nmf,
    /// Latent Dirichlet allocation (topic modeling).
    Lda,
    /// Multinomial logistic regression (classification).
    Mlr,
    /// Lasso regression (regression).
    Lasso,
}

impl AppKind {
    /// All application kinds, in Table I order.
    pub const ALL: [AppKind; 4] = [AppKind::Nmf, AppKind::Lda, AppKind::Mlr, AppKind::Lasso];

    /// Short lowercase name used in workload labels.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Nmf => "nmf",
            AppKind::Lda => "lda",
            AppKind::Mlr => "mlr",
            AppKind::Lasso => "lasso",
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a job synchronizes model updates across machines (§VI: Harmony
/// "does not care how exactly communication is done and only cares that
/// there are distinct computation and communication steps").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncKind {
    /// Parameter-Server push/pull: per-machine communication time is
    /// independent of the DoP (each worker moves the whole model).
    #[default]
    ParameterServer,
    /// Bandwidth-optimal ring all-reduce: each machine moves
    /// `2 (m − 1) / m` of the model per iteration, so communication
    /// time *grows* toward the full-model transfer as DoP rises.
    AllReduce,
}

/// Ground-truth description of a training job as submitted by a user.
///
/// The scheduler never reads the cost fields directly — it only sees
/// profiled metrics — but the simulator and the PS runtime execute jobs
/// according to this specification.
///
/// Cost model: one training iteration performs `comp_cost` CPU-seconds
/// of gradient computation in total across the cluster (so a group DoP of
/// `m` machines leaves `comp_cost / m` seconds of COMP per machine,
/// Eq. 2), and `net_cost` seconds of per-machine PULL+PUSH communication
/// that is independent of the DoP.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable label, e.g. `"mlr-16k/synthetic"`.
    pub name: String,
    /// Application kind.
    pub app: AppKind,
    /// Dataset label (Table I), e.g. `"netflix64x"`.
    pub dataset: String,
    /// Total training-input size in bytes (kept in worker memory).
    pub input_bytes: u64,
    /// Model-parameter size in bytes (kept in server memory).
    pub model_bytes: u64,
    /// CPU-seconds of computation per iteration at DoP 1.
    pub comp_cost: f64,
    /// Seconds of per-machine communication per iteration (for
    /// all-reduce jobs: the one-way full-model transfer time that the
    /// ring factor scales).
    pub net_cost: f64,
    /// Synchronization architecture.
    pub sync: SyncKind,
    /// Fraction of `net_cost` spent in PULL (the rest is PUSH).
    pub pull_fraction: f64,
    /// Mini-batch iterations per epoch.
    pub iters_per_epoch: u32,
    /// Epochs required for the model to converge.
    pub target_epochs: u32,
}

impl JobSpec {
    /// Total number of iterations until convergence.
    pub fn total_iterations(&self) -> u64 {
        u64::from(self.iters_per_epoch) * u64::from(self.target_epochs)
    }

    /// Ideal COMP time per iteration at DoP `m` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn comp_time_at(&self, m: u32) -> f64 {
        assert!(m > 0, "DoP must be at least one machine");
        self.comp_cost / f64::from(m)
    }

    /// Per-machine communication time per iteration at DoP `m`.
    pub fn net_time_at(&self, m: u32) -> f64 {
        match self.sync {
            SyncKind::ParameterServer => self.net_cost,
            SyncKind::AllReduce => {
                let mf = f64::from(m.max(1));
                self.net_cost * 2.0 * (mf - 1.0) / mf
            }
        }
    }

    /// Ideal single-job iteration time at DoP `m` (sequential
    /// PULL+COMP+PUSH, no co-location).
    pub fn iter_time_at(&self, m: u32) -> f64 {
        self.comp_time_at(m) + self.net_time_at(m)
    }

    /// Ratio of computation time to full iteration time at DoP `m`
    /// (the x-axis of Figure 9b).
    pub fn comp_ratio_at(&self, m: u32) -> f64 {
        self.comp_time_at(m) / self.iter_time_at(m)
    }

    /// Validates internal consistency; returns a human-readable reason
    /// when the spec is unusable.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !self.comp_cost.is_finite() || self.comp_cost <= 0.0 {
            return Err(format!(
                "comp_cost must be positive, got {}",
                self.comp_cost
            ));
        }
        if !self.net_cost.is_finite() || self.net_cost <= 0.0 {
            return Err(format!("net_cost must be positive, got {}", self.net_cost));
        }
        if !(0.0..=1.0).contains(&self.pull_fraction) {
            return Err(format!(
                "pull_fraction must be in [0, 1], got {}",
                self.pull_fraction
            ));
        }
        if self.iters_per_epoch == 0 || self.target_epochs == 0 {
            return Err("iteration counts must be non-zero".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "mlr-16k/synthetic".into(),
            app: AppKind::Mlr,
            dataset: "synthetic".into(),
            input_bytes: 78 << 30,
            model_bytes: 12 << 30,
            comp_cost: 320.0,
            net_cost: 10.0,
            sync: SyncKind::default(),
            pull_fraction: 0.5,
            iters_per_epoch: 10,
            target_epochs: 30,
        }
    }

    #[test]
    fn comp_time_scales_inversely_with_dop() {
        let s = spec();
        assert_eq!(s.comp_time_at(1), 320.0);
        assert_eq!(s.comp_time_at(16), 20.0);
        assert_eq!(s.comp_time_at(32), 10.0);
    }

    #[test]
    fn iter_time_adds_constant_net_cost() {
        let s = spec();
        assert_eq!(s.iter_time_at(16), 30.0);
        // More machines shrink compute but never communication.
        assert!(s.iter_time_at(32) > s.net_cost);
    }

    #[test]
    fn comp_ratio_decreases_with_dop() {
        let s = spec();
        assert!(s.comp_ratio_at(4) > s.comp_ratio_at(32));
        assert!((0.0..=1.0).contains(&s.comp_ratio_at(8)));
    }

    #[test]
    fn total_iterations_multiplies() {
        assert_eq!(spec().total_iterations(), 300);
    }

    #[test]
    fn validate_accepts_good_spec() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut s = spec();
        s.comp_cost = 0.0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.pull_fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.target_epochs = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn allreduce_net_time_scales_with_dop() {
        let mut s = spec();
        s.sync = SyncKind::AllReduce;
        assert_eq!(s.net_time_at(1), 0.0);
        assert_eq!(s.net_time_at(2), 10.0); // 2 * (1/2) * 10
        assert!((s.net_time_at(16) - 18.75).abs() < 1e-12);
        assert!(s.net_time_at(16) < 2.0 * s.net_cost);
    }

    #[test]
    fn ps_net_time_is_dop_invariant() {
        let s = spec();
        assert_eq!(s.net_time_at(1), s.net_time_at(32));
    }

    #[test]
    fn job_id_display_and_conversion() {
        let id: JobId = 9u64.into();
        assert_eq!(id.index(), 9);
        assert_eq!(format!("{id}"), "J9");
    }

    #[test]
    fn app_kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = AppKind::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
