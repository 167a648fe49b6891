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
//! The resulting usage ratio feeds the GC model (compute slowdown) and
//! the OOM check.

use std::borrow::Borrow;

use harmony_mem::GcModel;

/// Memory-relevant footprint of one job in a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFootprint {
    /// Total input bytes of the job (across the cluster).
    pub input_bytes: u64,
    /// Total model bytes.
    pub model_bytes: u64,
    /// Current disk ratio α.
    pub alpha: f64,
    /// Whether the model is also spilled (the §IV-C fallback).
    pub model_spilled: bool,
    /// Whether the job's COMP subtask is currently running.
    pub computing: bool,
}

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

/// Per-machine memory usage ratio of a group of `m` machines.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn usage_ratio<J: Borrow<JobFootprint>>(
    jobs: impl IntoIterator<Item = J>,
    m: u32,
    p: &MemoryParams,
) -> f64 {
    assert!(m > 0, "a group needs at least one machine");
    let mf = f64::from(m);
    let mut bytes = 0.0;
    for j in jobs {
        let j = j.borrow();
        let input_per_machine = j.input_bytes as f64 / mf;
        bytes += (1.0 - j.alpha) * input_per_machine * p.expansion;
        if !j.model_spilled {
            bytes += j.model_bytes as f64 / mf;
        }
        if j.computing {
            bytes += input_per_machine * p.workspace_fraction * p.expansion;
        }
    }
    bytes / p.capacity as f64
}

/// Marks the `concurrent` largest-input jobs as computing (their
/// working sets are live at once); the executor discipline bounds that
/// number — 1 under Harmony's one-COMP-at-a-time rule, all jobs under
/// naive dispatch. Fills `out` in place so repeated probes (the fit
/// ladder tries several α values) stay allocation-free.
fn probe_into(
    jobs: &[JobFootprint],
    alpha: f64,
    model_spilled: bool,
    concurrent: usize,
    out: &mut Vec<JobFootprint>,
) {
    out.clear();
    out.extend(jobs.iter().map(|j| JobFootprint {
        alpha,
        model_spilled,
        computing: false,
        ..*j
    }));
    // Repeated argmax over the unmarked tail selects the same set as a
    // descending stable sort's take(concurrent): largest inputs first,
    // ties resolved to the lowest index.
    for _ in 0..concurrent.min(out.len()) {
        let mut best: Option<usize> = None;
        for (i, j) in out.iter().enumerate() {
            if j.computing {
                continue;
            }
            if best.is_none_or(|b| out[b].input_bytes < j.input_bytes) {
                best = Some(i);
            }
        }
        if let Some(b) = best {
            out[b].computing = true;
        }
    }
}

/// The smallest α that keeps the group at or under `fill_target`,
/// applied uniformly to all jobs (the `StaticFit` policy). Returns 1.0
/// when even full input spill cannot fit. `concurrent` is the number of
/// COMP subtasks that can run at once (see [`classify_fit`]).
pub fn static_fit_alpha(
    jobs: &[JobFootprint],
    m: u32,
    p: &MemoryParams,
    fill_target: f64,
    concurrent: usize,
) -> f64 {
    static_fit_alpha_in(jobs, m, p, fill_target, concurrent, &mut Vec::new())
}

/// [`static_fit_alpha`] with a caller-provided probe buffer, so the
/// driver's memory-plan recomputation does not allocate per call.
pub fn static_fit_alpha_in(
    jobs: &[JobFootprint],
    m: u32,
    p: &MemoryParams,
    fill_target: f64,
    concurrent: usize,
    scratch: &mut Vec<JobFootprint>,
) -> f64 {
    let mut at = |alpha: f64| {
        probe_into(jobs, alpha, false, concurrent, scratch);
        usage_ratio(scratch.iter(), m, p)
    };
    if at(0.0) <= fill_target {
        return 0.0;
    }
    if at(1.0) > fill_target {
        return 1.0;
    }
    // Usage is linear in alpha: solve directly, then clamp.
    let u0 = at(0.0);
    let u1 = at(1.0);
    ((u0 - fill_target) / (u0 - u1)).clamp(0.0, 1.0)
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

/// Classifies how aggressively a group must spill to fit capacity.
/// `concurrent` is the number of COMP subtasks the executor discipline
/// allows at once (1 under Harmony, the group size under naive
/// dispatch) — it bounds how many working sets are live together.
pub fn classify_fit(
    jobs: &[JobFootprint],
    m: u32,
    p: &MemoryParams,
    concurrent: usize,
) -> FitOutcome {
    classify_fit_in(jobs, m, p, concurrent, &mut Vec::new())
}

/// [`classify_fit`] with a caller-provided probe buffer (see
/// [`static_fit_alpha_in`]).
pub fn classify_fit_in(
    jobs: &[JobFootprint],
    m: u32,
    p: &MemoryParams,
    concurrent: usize,
    scratch: &mut Vec<JobFootprint>,
) -> FitOutcome {
    let mut with = |alpha: f64, model_spilled: bool| {
        probe_into(jobs, alpha, model_spilled, concurrent, scratch);
        usage_ratio(scratch.iter(), m, p)
    };
    if with(0.0, false) <= 1.0 {
        FitOutcome::Fits
    } else if with(1.0, false) <= 1.0 {
        FitOutcome::NeedsSpill
    } else if with(1.0, true) <= 1.0 {
        FitOutcome::NeedsModelSpill
    } else {
        FitOutcome::OutOfMemory
    }
}

/// GC compute-slowdown for the group's current state.
pub fn gc_slowdown<J: Borrow<JobFootprint>>(
    jobs: impl IntoIterator<Item = J>,
    m: u32,
    p: &MemoryParams,
    gc: &GcModel,
) -> f64 {
    gc.slowdown(usage_ratio(jobs, m, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    fn params() -> MemoryParams {
        MemoryParams {
            capacity: 32 * GB,
            expansion: 2.5,
            workspace_fraction: 0.08,
        }
    }

    fn job(input_gb: u64, model_gb: u64, alpha: f64) -> JobFootprint {
        JobFootprint {
            input_bytes: input_gb * GB,
            model_bytes: model_gb * GB,
            alpha,
            model_spilled: false,
            computing: false,
        }
    }

    #[test]
    fn usage_scales_inversely_with_machines() {
        let jobs = [job(64, 8, 0.0)];
        let p = params();
        let u4 = usage_ratio(jobs.iter(), 4, &p);
        let u8 = usage_ratio(jobs.iter(), 8, &p);
        assert!((u4 - 2.0 * u8).abs() < 1e-12);
    }

    #[test]
    fn alpha_reduces_usage_linearly() {
        let p = params();
        let u0 = usage_ratio([job(64, 0, 0.0)], 4, &p);
        let u_half = usage_ratio([job(64, 0, 0.5)], 4, &p);
        let u1 = usage_ratio([job(64, 0, 1.0)], 4, &p);
        assert!((u0 - 2.0 * u_half).abs() < 1e-12);
        assert_eq!(u1, 0.0);
    }

    #[test]
    fn computing_job_charges_workspace() {
        let p = params();
        let idle = usage_ratio([job(32, 0, 0.0)], 2, &p);
        let mut j = job(32, 0, 0.0);
        j.computing = true;
        let busy = usage_ratio([j], 2, &p);
        assert!(busy > idle);
    }

    #[test]
    fn model_spill_removes_model_bytes() {
        let p = params();
        let mut j = job(0, 16, 1.0);
        assert!(usage_ratio([j], 1, &p) > 0.0);
        j.model_spilled = true;
        assert_eq!(usage_ratio([j], 1, &p), 0.0);
    }

    #[test]
    fn static_fit_solves_for_target() {
        let p = params();
        let jobs = [job(64, 1, 0.0), job(64, 1, 0.0)];
        let alpha = static_fit_alpha(&jobs, 4, &p, 0.8, jobs.len());
        assert!(alpha > 0.0 && alpha < 1.0);
        let fitted: Vec<JobFootprint> = jobs
            .iter()
            .map(|j| JobFootprint {
                alpha,
                computing: true,
                ..*j
            })
            .collect();
        let u = usage_ratio(&fitted, 4, &p);
        assert!((u - 0.8).abs() < 1e-9, "usage {u}");
    }

    #[test]
    fn static_fit_zero_when_plenty_of_room() {
        let p = params();
        assert_eq!(static_fit_alpha(&[job(1, 0, 0.0)], 8, &p, 0.8, 1), 0.0);
    }

    #[test]
    fn classify_fit_tiers() {
        let p = params();
        // Small job on many machines: fits outright.
        assert_eq!(classify_fit(&[job(8, 1, 0.0)], 8, &p, 1), FitOutcome::Fits);
        // Figure 4's triple co-location on 16 machines: needs spill.
        let triple = [job(46, 1, 0.0), job(78, 12, 0.0), job(78, 12, 0.0)];
        let out = classify_fit(&triple, 16, &p, 3);
        assert!(
            matches!(out, FitOutcome::NeedsSpill | FitOutcome::NeedsModelSpill),
            "{out:?}"
        );
        // A model too big for the machine is still rescuable by model
        // spill.
        let big_model = [job(10, 40, 0.0)];
        assert_eq!(
            classify_fit(&big_model, 1, &p, 1),
            FitOutcome::NeedsModelSpill
        );
        // But a working set bigger than memory cannot be spilled away:
        // 200 GB * 0.08 workspace * 2.5 expansion = 40 GB > 32 GB.
        let impossible = [job(200, 1, 0.0)];
        assert_eq!(classify_fit(&impossible, 1, &p, 1), FitOutcome::OutOfMemory);
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let p = params();
        let jobs = [job(64, 1, 0.0), job(64, 1, 0.0), job(32, 2, 0.5)];
        let mut scratch = Vec::new();
        assert_eq!(
            static_fit_alpha(&jobs, 4, &p, 0.8, 2),
            static_fit_alpha_in(&jobs, 4, &p, 0.8, 2, &mut scratch),
        );
        assert_eq!(
            classify_fit(&jobs, 2, &p, 3),
            classify_fit_in(&jobs, 2, &p, 3, &mut scratch),
        );
    }

    #[test]
    fn gc_slowdown_responds_to_pressure() {
        let p = params();
        let gc = GcModel::default();
        let light = gc_slowdown([job(4, 1, 0.0)], 8, &p, &gc);
        let heavy = gc_slowdown([job(64, 8, 0.0)], 2, &p, &gc);
        assert_eq!(light, 1.0);
        assert!(heavy > 1.0);
    }
}
