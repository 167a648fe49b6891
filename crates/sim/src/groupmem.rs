//! Per-group memory accounting (§IV-C).
//!
//! Every machine of a group holds, for each co-located job `j`:
//!
//! - `(1 − α_j) · input_j / m` bytes of memory-side input blocks,
//!   inflated by the managed-runtime expansion factor;
//! - `model_j / m` bytes of its server shard (unless model spill is
//!   active for the job);
//! - while `j`'s COMP subtask runs, an extra working set proportional to
//!   its per-machine input.
//!
//! α is a ratio of blocks, and it lies on a dyadic grid:
//! `α_j = k_j / 2¹²` ([`ALPHA_STEPS`], rounded by
//! [`harmony_mem::alpha_steps`]). So each group keeps its footprint as
//! three exact integer books ([`MemBooks`]): resident input, disk-side
//! input and unspilled models. Integer addition is associative, so
//! the books equal a fresh fold over the members whatever order the
//! attaches, detaches and α steps came in, and "everyone but me" is
//! the total minus my term, exactly. The expansion factor is applied
//! once, after the sum.
//!
//! The resulting usage ratio feeds the GC model (compute slowdown) and
//! the OOM check. The fit checks at a re-plan ([`FitProbe`]) price
//! every member at one shared α.

use harmony_mem::{alpha_steps, Rounding, ALPHA_STEPS};

/// Memory model parameters (copied from `SimConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryParams {
    /// Machine memory capacity in bytes.
    pub capacity: u64,
    /// Managed-runtime expansion on input bytes.
    pub expansion: f64,
    /// Working-set fraction while computing.
    pub workspace_fraction: f64,
}

impl MemoryParams {
    /// Per-machine usage ratio of `bytes` (summed over the group's
    /// machines) plus the working sets of COMP subtasks whose inputs sum
    /// to `computing_input`, on `m` machines.
    fn ratio(&self, bytes: f64, computing_input: u128, m: u32) -> f64 {
        let workspace = computing_input as f64 * self.workspace_fraction * self.expansion;
        (bytes + workspace) / (f64::from(m) * self.capacity as f64)
    }
}

/// Bytes of a book kept in `2⁻¹²`-byte units.
fn steps_to_bytes(units: u128) -> f64 {
    units as f64 / f64::from(ALPHA_STEPS)
}

/// What one member holds in its group's books.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Holding {
    /// Total input bytes of the job (across the cluster).
    pub input_bytes: u64,
    /// Total model bytes.
    pub model_bytes: u64,
    /// α's grid point: `k` of `α = k / 2¹²`.
    pub alpha_k: u32,
    /// Whether the model is also spilled (the §IV-C fallback).
    pub model_spilled: bool,
}

impl Holding {
    /// `(2¹² − k)·input`: this member's resident input in `2⁻¹²`-byte
    /// units.
    fn resident(self) -> u128 {
        u128::from(ALPHA_STEPS - self.alpha_k) * u128::from(self.input_bytes)
    }

    /// `k·input`: this member's disk-side input in `2⁻¹²`-byte units.
    fn disk(self) -> u128 {
        u128::from(self.alpha_k) * u128::from(self.input_bytes)
    }

    /// The model bytes this member keeps in memory.
    fn model(self) -> u128 {
        if self.model_spilled {
            0
        } else {
            u128::from(self.model_bytes)
        }
    }
}

/// A group's memory books: exact integer sums over its members, moved
/// by every write of a member's α, model-spill flag or membership.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBooks {
    /// `Σ (2¹² − k_j)·input_j`: memory-side input, in `2⁻¹²`-byte units.
    pub resident: u128,
    /// `Σ k_j·input_j`: disk-side input, what the members' background
    /// reads fetch, in `2⁻¹²`-byte units.
    pub disk: u128,
    /// `Σ model_j` over members whose model is not spilled, in bytes.
    pub models: u128,
}

impl MemBooks {
    /// The books of a group holding `members`.
    pub fn fold(members: impl IntoIterator<Item = Holding>) -> Self {
        let mut books = Self::default();
        for h in members {
            books.add(h);
        }
        books
    }

    /// Books a member in.
    pub fn add(&mut self, h: Holding) {
        self.resident += h.resident();
        self.disk += h.disk();
        self.models += h.model();
    }

    /// Books a member out; `h` must be what it was booked in with.
    ///
    /// # Panics
    ///
    /// Panics (on underflow, in debug builds) if `h` was never booked.
    pub fn remove(&mut self, h: Holding) {
        self.resident -= h.resident();
        self.disk -= h.disk();
        self.models -= h.model();
    }

    /// Per-machine usage ratio of the group on `m` machines while COMP
    /// subtasks whose inputs sum to `computing_input` bytes run.
    pub fn usage_ratio(&self, computing_input: u128, m: u32, p: &MemoryParams) -> f64 {
        let bytes = steps_to_bytes(self.resident) * p.expansion + self.models as f64;
        p.ratio(bytes, computing_input, m)
    }

    /// Disk-side input bytes summed over the members.
    pub fn disk_bytes(&self) -> f64 {
        steps_to_bytes(self.disk)
    }

    /// The lowest α grid point at which member `h` keeps the group
    /// within `budget` bytes (summed over its machines), with every
    /// other member holding what the books hold now: `1 − room / mine`,
    /// rounded up, so a floor never spills too little.
    pub fn floor_k(&self, h: Holding, budget: f64, p: &MemoryParams) -> u32 {
        let mine = h.input_bytes as f64 * p.expansion;
        if mine <= 0.0 {
            return 0;
        }
        let others = steps_to_bytes(self.resident - h.resident()) * p.expansion;
        let room = budget - self.models as f64 - others;
        alpha_steps(1.0 - room / mine, Rounding::Up)
    }
}

/// Outcome of a fit check at group formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitOutcome {
    /// Fits without any spill.
    Fits,
    /// Fits with input spill at the returned ratio.
    NeedsSpill,
    /// Fits only if some models are spilled too.
    NeedsModelSpill,
    /// Cannot fit even with everything spilled: OOM.
    OutOfMemory,
}

/// A group's composition as its fit checks see it: every member at one
/// shared α, with the largest inputs computing at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitProbe {
    /// Σ input bytes.
    pub input: u128,
    /// Σ model bytes.
    pub models: u128,
    /// Σ input bytes of the `concurrent` largest inputs: the working
    /// sets that can be live together.
    pub computing_input: u128,
}

impl FitProbe {
    /// The probe of members with `(input, model)` bytes. `concurrent`
    /// is the number of COMP subtasks the executor discipline allows at
    /// once (1 under Harmony, the group size under naive dispatch).
    pub fn new(members: impl IntoIterator<Item = (u64, u64)>, concurrent: usize) -> Self {
        let mut probe = Self::default();
        let mut inputs = Vec::new();
        for (input, model) in members {
            probe.input += u128::from(input);
            probe.models += u128::from(model);
            if concurrent == 1 {
                probe.computing_input = probe.computing_input.max(u128::from(input));
            } else {
                inputs.push(input);
            }
        }
        if concurrent != 1 {
            inputs.sort_unstable_by(|a, b| b.cmp(a));
            probe.computing_input = inputs.iter().take(concurrent).map(|&i| u128::from(i)).sum();
        }
        probe
    }

    /// Per-machine usage ratio with every member at `alpha`, models
    /// spilled or not, on `m` machines.
    pub fn usage_ratio(&self, alpha: f64, model_spilled: bool, m: u32, p: &MemoryParams) -> f64 {
        let mut bytes = (1.0 - alpha) * self.input as f64 * p.expansion;
        if !model_spilled {
            bytes += self.models as f64;
        }
        p.ratio(bytes, self.computing_input, m)
    }

    /// Classifies how aggressively the group must spill to fit
    /// capacity.
    pub fn classify(&self, m: u32, p: &MemoryParams) -> FitOutcome {
        if self.usage_ratio(0.0, false, m, p) <= 1.0 {
            FitOutcome::Fits
        } else if self.usage_ratio(1.0, false, m, p) <= 1.0 {
            FitOutcome::NeedsSpill
        } else if self.usage_ratio(1.0, true, m, p) <= 1.0 {
            FitOutcome::NeedsModelSpill
        } else {
            FitOutcome::OutOfMemory
        }
    }

    /// The smallest α that keeps the group at or under `fill_target`,
    /// applied uniformly to all members (the `StaticFit` policy).
    /// Returns 1.0 when even full input spill cannot fit.
    pub fn static_fit_alpha(&self, m: u32, p: &MemoryParams, fill_target: f64) -> f64 {
        let u0 = self.usage_ratio(0.0, false, m, p);
        if u0 <= fill_target {
            return 0.0;
        }
        let u1 = self.usage_ratio(1.0, false, m, p);
        if u1 > fill_target {
            return 1.0;
        }
        // Usage is linear in alpha: solve directly, then clamp.
        ((u0 - fill_target) / (u0 - u1)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_mem::alpha_of_steps;

    const GB: u64 = 1 << 30;

    fn params() -> MemoryParams {
        MemoryParams {
            capacity: 32 * GB,
            expansion: 2.5,
            workspace_fraction: 0.08,
        }
    }

    fn holding(input_gb: u64, model_gb: u64, alpha: f64) -> Holding {
        Holding {
            input_bytes: input_gb * GB,
            model_bytes: model_gb * GB,
            alpha_k: alpha_steps(alpha, Rounding::Nearest),
            model_spilled: false,
        }
    }

    fn usage(members: &[Holding], m: u32) -> f64 {
        MemBooks::fold(members.iter().copied()).usage_ratio(0, m, &params())
    }

    #[test]
    fn usage_scales_inversely_with_machines() {
        let jobs = [holding(64, 8, 0.0)];
        assert!((usage(&jobs, 4) - 2.0 * usage(&jobs, 8)).abs() < 1e-12);
    }

    #[test]
    fn alpha_reduces_usage_linearly() {
        let u0 = usage(&[holding(64, 0, 0.0)], 4);
        let u_half = usage(&[holding(64, 0, 0.5)], 4);
        let u1 = usage(&[holding(64, 0, 1.0)], 4);
        assert!((u0 - 2.0 * u_half).abs() < 1e-12);
        assert_eq!(u1, 0.0);
    }

    #[test]
    fn computing_job_charges_workspace() {
        let books = MemBooks::fold([holding(32, 0, 0.0)]);
        let p = params();
        assert!(books.usage_ratio(32 * u128::from(GB), 2, &p) > books.usage_ratio(0, 2, &p));
    }

    #[test]
    fn model_spill_removes_model_bytes() {
        let mut h = holding(0, 16, 1.0);
        assert!(usage(&[h], 1) > 0.0);
        h.model_spilled = true;
        assert_eq!(usage(&[h], 1), 0.0);
    }

    #[test]
    fn books_equal_the_fold_after_any_update_order() {
        let members: Vec<Holding> = (0..40u32)
            .map(|i| Holding {
                input_bytes: u64::from(i) * 7_919 * GB / 13 + 1,
                model_bytes: u64::from(i % 5) * GB,
                alpha_k: (i * 977) % (ALPHA_STEPS + 1),
                model_spilled: i % 3 == 0,
            })
            .collect();
        // Build forwards, re-step every α, then remove every other
        // member backwards: the books match a fresh fold of what is left.
        let mut books = MemBooks::default();
        let mut now = members.clone();
        for &h in &now {
            books.add(h);
        }
        for h in &mut now {
            books.remove(*h);
            h.alpha_k = (h.alpha_k * 5 + 1) % (ALPHA_STEPS + 1);
            books.add(*h);
        }
        let mut kept = Vec::new();
        for (i, &h) in now.iter().enumerate().rev() {
            if i % 2 == 0 {
                books.remove(h);
            } else {
                kept.push(h);
            }
        }
        assert_eq!(books, MemBooks::fold(kept.iter().rev().copied()));
        assert_eq!(books, MemBooks::fold(kept.iter().copied()));
    }

    #[test]
    fn floor_k_rounds_up_to_the_fitting_grid_point() {
        let p = params();
        let (a, b) = (holding(64, 1, 0.0), holding(64, 1, 0.0));
        let books = MemBooks::fold([a, b]);
        // Budget: the models, b's input and half of a's input.
        let budget = 2.0 * GB as f64 + 64.0 * GB as f64 * p.expansion * 1.5;
        assert_eq!(books.floor_k(a, budget, &p), ALPHA_STEPS / 2);
        // A hair less room: the next grid point up.
        let k = books.floor_k(a, budget - 1.0, &p);
        assert_eq!(k, ALPHA_STEPS / 2 + 1);
        assert!(alpha_of_steps(k) > 0.5);
        // Plenty of room: no floor; none at all: everything spilled.
        assert_eq!(books.floor_k(a, 1e30, &p), 0);
        assert_eq!(books.floor_k(a, 0.0, &p), ALPHA_STEPS);
    }

    #[test]
    fn static_fit_solves_for_target() {
        let p = params();
        let probe = FitProbe::new([(64 * GB, GB), (64 * GB, GB)], 2);
        let alpha = probe.static_fit_alpha(4, &p, 0.8);
        assert!(alpha > 0.0 && alpha < 1.0);
        let u = probe.usage_ratio(alpha, false, 4, &p);
        assert!((u - 0.8).abs() < 1e-9, "usage {u}");
    }

    #[test]
    fn static_fit_zero_when_plenty_of_room() {
        let probe = FitProbe::new([(GB, 0)], 1);
        assert_eq!(probe.static_fit_alpha(8, &params(), 0.8), 0.0);
    }

    #[test]
    fn probe_charges_the_largest_concurrent_inputs() {
        let jobs = [(3 * GB, 0), (9 * GB, 0), (5 * GB, 0)];
        let at = |c: usize| FitProbe::new(jobs, c).computing_input / u128::from(GB);
        assert_eq!((at(1), at(2), at(3), at(usize::MAX / 2)), (9, 14, 17, 17));
    }

    #[test]
    fn classify_fit_tiers() {
        let p = params();
        let classify = |jobs: &[(u64, u64)], m: u32, concurrent: usize| {
            let jobs = jobs.iter().map(|&(i, md)| (i * GB, md * GB));
            FitProbe::new(jobs, concurrent).classify(m, &p)
        };
        // Small job on many machines: fits outright.
        assert_eq!(classify(&[(8, 1)], 8, 1), FitOutcome::Fits);
        // Figure 4's triple co-location on 16 machines: needs spill.
        let out = classify(&[(46, 1), (78, 12), (78, 12)], 16, 3);
        assert!(
            matches!(out, FitOutcome::NeedsSpill | FitOutcome::NeedsModelSpill),
            "{out:?}"
        );
        // A model too big for the machine is still rescuable by model
        // spill.
        assert_eq!(classify(&[(10, 40)], 1, 1), FitOutcome::NeedsModelSpill);
        // But a working set bigger than memory cannot be spilled away:
        // 200 GB * 0.08 workspace * 2.5 expansion = 40 GB > 32 GB.
        assert_eq!(classify(&[(200, 1)], 1, 1), FitOutcome::OutOfMemory);
    }
}
