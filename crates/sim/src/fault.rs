//! Deterministic fault injection (§VI "Fault Tolerance").
//!
//! A [`FaultPlan`] is a seeded, pre-computed schedule of faults to
//! inject into a simulated run: machine crashes, transient machine
//! slowdowns (stragglers), and job aborts. The plan is fully determined
//! by its seed and generation parameters, so two runs with the same
//! plan produce byte-identical reports — the property the fault test
//! harness is built on.
//!
//! The plan only fixes *when* and *what kind* of fault fires; *which*
//! group or job is hit is resolved by the driver at injection time,
//! using the per-event [`FaultPlan::victim_seed`] hash against the set
//! of victims alive at that moment. This keeps plans valid for any
//! workload while remaining deterministic.

use harmony_core::keyed::{self, GOLDEN_GAMMA};

/// Deterministic splitmix64 step shared by the generator and the
/// victim-selection stream.
fn splitmix64(z: u64) -> u64 {
    keyed::splitmix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// What kind of fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One machine of one group dies. Its jobs roll back to their last
    /// per-epoch checkpoint; the master repairs the shrunken group
    /// locally or escalates to partial rescheduling.
    MachineCrash,
    /// A transient straggler: subtasks dispatched in the affected group
    /// run `factor`× slower for `duration_secs` of simulated time.
    Slowdown {
        /// Work multiplier (≥ 1) applied to subtasks started inside the
        /// window.
        factor: f64,
        /// Length of the slowdown window in simulated seconds.
        duration_secs: f64,
    },
    /// One live job is aborted (user kill / unrecoverable task error);
    /// its group is repaired like a completion would be.
    JobAbort,
}

impl FaultKind {
    /// Short machine-readable label used in event logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::MachineCrash => "machine-crash",
            FaultKind::Slowdown { .. } => "slowdown",
            FaultKind::JobAbort => "job-abort",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault fires.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Poisson-ish rates for [`FaultPlan::generate`]; a `None` MTBF
/// disables that fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Mean time between machine crashes (seconds).
    pub crash_mtbf_secs: Option<f64>,
    /// Mean time between slowdown onsets (seconds).
    pub slowdown_mtbf_secs: Option<f64>,
    /// Mean time between job aborts (seconds).
    pub abort_mtbf_secs: Option<f64>,
    /// Work multiplier of generated slowdowns.
    pub slowdown_factor: f64,
    /// Window length of generated slowdowns (seconds).
    pub slowdown_duration_secs: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            crash_mtbf_secs: None,
            slowdown_mtbf_secs: None,
            abort_mtbf_secs: None,
            slowdown_factor: 2.0,
            slowdown_duration_secs: 120.0,
        }
    }
}

/// A deterministic, seeded schedule of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from explicit events (sorted by time; the sort is
    /// stable so equal-time events keep their given order).
    pub fn new(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        Self { seed, events }
    }

    /// Generates a plan by drawing exponential inter-fault gaps for
    /// each enabled fault class over `[0, horizon_secs)`, then merging
    /// the streams into one time-ordered schedule. Same seed and
    /// parameters → identical plan; different seeds → different
    /// schedules (with overwhelming probability).
    pub fn generate(seed: u64, horizon_secs: f64, rates: &FaultRates) -> Self {
        let mut events = Vec::new();
        let classes: [(u64, Option<f64>, FaultKind); 3] = [
            (0x01, rates.crash_mtbf_secs, FaultKind::MachineCrash),
            (
                0x02,
                rates.slowdown_mtbf_secs,
                FaultKind::Slowdown {
                    factor: rates.slowdown_factor,
                    duration_secs: rates.slowdown_duration_secs,
                },
            ),
            (0x03, rates.abort_mtbf_secs, FaultKind::JobAbort),
        ];
        for (salt, mtbf, kind) in classes {
            let Some(mtbf) = mtbf else { continue };
            if !mtbf.is_finite() || mtbf <= 0.0 || !horizon_secs.is_finite() {
                continue;
            }
            let mut state = seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let mut t = 0.0;
            loop {
                state = splitmix64(state);
                let u = (state as f64 / u64::MAX as f64).clamp(1e-9, 1.0 - 1e-9);
                t += -u.ln() * mtbf;
                if t >= horizon_secs {
                    break;
                }
                events.push(FaultEvent { at: t, kind });
            }
        }
        Self::new(seed, events)
    }

    /// Convenience: a plan with a single machine crash at `at`.
    pub fn single_crash(seed: u64, at: f64) -> Self {
        Self::new(
            seed,
            vec![FaultEvent {
                at,
                kind: FaultKind::MachineCrash,
            }],
        )
    }

    /// The seed the plan was built with (drives victim selection).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Deterministic victim-selection hash for event `index`; the
    /// driver reduces it modulo the number of candidates alive at
    /// injection time.
    pub fn victim_seed(&self, index: usize) -> u64 {
        splitmix64(
            self.seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(index as u64 ^ 0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Validates event times and kind parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.at.is_finite() || ev.at < 0.0 {
                return Err(format!(
                    "fault {i}: time {} is not a finite non-negative",
                    ev.at
                ));
            }
            if let FaultKind::Slowdown {
                factor,
                duration_secs,
            } = ev.kind
            {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(format!("fault {i}: slowdown factor {factor} must be >= 1"));
                }
                if !duration_secs.is_finite() || duration_secs <= 0.0 {
                    return Err(format!(
                        "fault {i}: slowdown duration {duration_secs} must be positive"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rates() -> FaultRates {
        FaultRates {
            crash_mtbf_secs: Some(500.0),
            slowdown_mtbf_secs: Some(700.0),
            abort_mtbf_secs: Some(900.0),
            ..FaultRates::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(42, 10_000.0, &all_rates());
        let b = FaultPlan::generate(42, 10_000.0, &all_rates());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::generate(1, 10_000.0, &all_rates());
        let b = FaultPlan::generate(2, 10_000.0, &all_rates());
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_time_sorted_within_horizon() {
        let p = FaultPlan::generate(7, 5_000.0, &all_rates());
        for w in p.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for ev in p.events() {
            assert!((0.0..5_000.0).contains(&ev.at));
        }
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn disabled_classes_generate_nothing() {
        let p = FaultPlan::generate(3, 100_000.0, &FaultRates::default());
        assert!(p.is_empty());
    }

    #[test]
    fn new_sorts_explicit_events() {
        let p = FaultPlan::new(
            0,
            vec![
                FaultEvent {
                    at: 30.0,
                    kind: FaultKind::JobAbort,
                },
                FaultEvent {
                    at: 10.0,
                    kind: FaultKind::MachineCrash,
                },
            ],
        );
        assert_eq!(p.events()[0].kind, FaultKind::MachineCrash);
        assert_eq!(p.events()[1].kind, FaultKind::JobAbort);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad_time = FaultPlan::new(
            0,
            vec![FaultEvent {
                at: -1.0,
                kind: FaultKind::MachineCrash,
            }],
        );
        assert!(bad_time.validate().is_err());

        let bad_factor = FaultPlan::new(
            0,
            vec![FaultEvent {
                at: 1.0,
                kind: FaultKind::Slowdown {
                    factor: 0.5,
                    duration_secs: 10.0,
                },
            }],
        );
        assert!(bad_factor.validate().is_err());

        let bad_duration = FaultPlan::new(
            0,
            vec![FaultEvent {
                at: 1.0,
                kind: FaultKind::Slowdown {
                    factor: 2.0,
                    duration_secs: 0.0,
                },
            }],
        );
        assert!(bad_duration.validate().is_err());
    }

    #[test]
    fn victim_seeds_vary_by_index_and_seed() {
        let p = FaultPlan::single_crash(5, 100.0);
        let q = FaultPlan::single_crash(6, 100.0);
        assert_ne!(p.victim_seed(0), p.victim_seed(1));
        assert_ne!(p.victim_seed(0), q.victim_seed(0));
    }
}
