//! The performance model of §IV-B2 (Eqs. 1–4).
//!
//! Under the subtask execution model, a job group's iteration is bounded
//! by whichever of three quantities is largest (Eq. 1):
//!
//! - the total CPU demand of the group, `Σ_j Tcpu_j` (CPU-bound case);
//! - the total network demand, `Σ_j Tnet_j` (network-bound case);
//! - the slowest individual job, `max_j Tj_itr_j` (job-bound case,
//!   Figure 8b) — one job's own pipeline `Tcpu_j + Tnet_j` cannot be
//!   compressed by multiplexing because its subtasks are sequentially
//!   dependent.
//!
//! Utilization of each resource is the fraction of the group iteration
//! occupied by that resource's subtasks (Eq. 3), and cluster utilization
//! is the machine-weighted average over groups (Eq. 4).

use crate::profile::JobProfile;

/// CPU/network utilization vector (Eq. 3), each component in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// Fraction of time the CPU is busy.
    pub cpu: f64,
    /// Fraction of time the network is busy.
    pub net: f64,
}

impl Utilization {
    /// Creates a utilization vector.
    pub fn new(cpu: f64, net: f64) -> Self {
        Self { cpu, net }
    }

    /// Weighted scalar score used to compare scheduling decisions.
    ///
    /// The paper treats "CPU utilization rates more importantly than the
    /// network utilization, since CPU resources directly contribute to
    /// the job progress" (§IV-B2). `cpu_weight` is the weight on the CPU
    /// component; the remainder goes to the network component.
    pub fn score(&self, cpu_weight: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&cpu_weight));
        cpu_weight * self.cpu + (1.0 - cpu_weight) * self.net
    }
}

/// Which term of Eq. 1 dominates a group's iteration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// `Σ Tcpu` dominates: CPU is saturated, network partially idle.
    CpuBound,
    /// `Σ Tnet` dominates: network saturated, CPU partially idle
    /// (Figure 8a).
    NetworkBound,
    /// One job's own iteration dominates: both resources partially idle
    /// (Figure 8b).
    JobBound,
}

/// Group iteration time `Tg_itr` (Eq. 1) for jobs with profiles
/// `profiles` co-located on `m` machines.
///
/// Returns `0.0` for an empty group.
///
/// # Panics
///
/// Panics if `m` is zero or any profile is cold.
///
/// # Examples
///
/// ```
/// use harmony_core::job::JobId;
/// use harmony_core::model::group_iteration_time;
/// use harmony_core::profile::JobProfile;
///
/// let a = JobProfile::from_reference(JobId::new(0), 8.0, 2.0);
/// let b = JobProfile::from_reference(JobId::new(1), 4.0, 6.0);
/// // At DoP 2: Tcpu = [4, 2], Tnet = [2, 6].
/// // max(Σcpu=6, Σnet=8, max itr=8) = 8.
/// assert_eq!(group_iteration_time(&[&a, &b], 2), 8.0);
/// ```
pub fn group_iteration_time(profiles: &[&JobProfile], m: u32) -> f64 {
    group_bounds(profiles, m).0
}

/// [`group_iteration_time`] with the optional fourth subtask class:
/// when `charge_apply` is set, each job's measured server-side APPLY
/// seconds ([`JobProfile::tapply`]) are charged to the CPU term on top
/// of Eq. 2's worker COMP — the paper folds APPLY into PUSH, but the
/// PS runtime measures it separately and it burns server CPU, not
/// wire time. With `charge_apply` false this is bit-identical to
/// [`group_iteration_time`] (equivalence-gate pattern).
pub fn group_iteration_time_charged(profiles: &[&JobProfile], m: u32, charge_apply: bool) -> f64 {
    group_bounds_modeled(profiles, m, charge_apply, false).0
}

/// The fully flag-gated Eq. 1 model: [`group_iteration_time_charged`]
/// plus the density-aware COMM charge. When `charge_sparse_comm` is
/// set, each job's COMM term is scaled by its measured PUSH density
/// ([`JobProfile::push_density`]): the wire moves `density ×` the dense
/// byte volume, and `Tnet` is proportional to bytes on the wire. With
/// the flag off — or for profiles with no density measurement, which
/// read `1.0` — this is bit-identical to the uncharged model
/// (`x * 1.0` is an exact identity for finite `x`).
pub fn group_iteration_time_modeled(
    profiles: &[&JobProfile],
    m: u32,
    charge_apply: bool,
    charge_sparse_comm: bool,
) -> f64 {
    group_bounds_modeled(profiles, m, charge_apply, charge_sparse_comm).0
}

/// Like [`group_iteration_time`], also reporting which term dominated.
pub fn group_iteration_time_with_bound(profiles: &[&JobProfile], m: u32) -> (f64, BoundKind) {
    let (t, kind, _, _) = group_bounds(profiles, m);
    (t, kind)
}

fn group_bounds(profiles: &[&JobProfile], m: u32) -> (f64, BoundKind, f64, f64) {
    group_bounds_modeled(profiles, m, false, false)
}

fn group_bounds_modeled(
    profiles: &[&JobProfile],
    m: u32,
    charge_apply: bool,
    charge_sparse_comm: bool,
) -> (f64, BoundKind, f64, f64) {
    assert!(m > 0, "DoP must be at least 1");
    let mut sum_cpu = 0.0;
    let mut sum_net = 0.0;
    let mut max_itr = 0.0f64;
    for p in profiles {
        // Branch instead of adding 0.0: `x + 0.0` can flip the sign of
        // a negative zero, and the flag-off arm must stay bit-identical.
        let tcpu = if charge_apply {
            p.tcpu_at(m) + p.tapply()
        } else {
            p.tcpu_at(m)
        };
        // Branch for symmetry with the APPLY charge above, although
        // `tnet * 1.0` would be exact: the flag-off arm must not even
        // read the density.
        let tnet = if charge_sparse_comm {
            p.tnet() * p.push_density_trusted()
        } else {
            p.tnet()
        };
        sum_cpu += tcpu;
        sum_net += tnet;
        max_itr = max_itr.max(tcpu + tnet);
    }
    let (t, kind) = if sum_cpu >= sum_net && sum_cpu >= max_itr {
        (sum_cpu, BoundKind::CpuBound)
    } else if sum_net >= max_itr {
        (sum_net, BoundKind::NetworkBound)
    } else {
        (max_itr, BoundKind::JobBound)
    };
    (t, kind, sum_cpu, sum_net)
}

/// Utilization of one job group (Eq. 3): the share of the group
/// iteration occupied by CPU and network subtasks respectively.
///
/// Returns the zero vector for an empty group.
///
/// # Panics
///
/// Panics if `m` is zero or any profile is cold.
pub fn group_utilization(profiles: &[&JobProfile], m: u32) -> Utilization {
    if profiles.is_empty() {
        return Utilization::default();
    }
    let (t, _, sum_cpu, sum_net) = group_bounds(profiles, m);
    if t == 0.0 {
        return Utilization::default();
    }
    Utilization::new(sum_cpu / t, sum_net / t)
}

/// Cluster-wide utilization (Eq. 4): the machine-weighted average of the
/// per-group utilizations.
///
/// Each element of `groups` is `(profiles_of_the_group, machines)`.
/// Groups with zero machines are rejected. Idle machines (machines in
/// the cluster but in no group) can be accounted for by passing them as
/// an empty group.
///
/// # Panics
///
/// Panics if any group has zero machines.
pub fn cluster_utilization(groups: &[(Vec<&JobProfile>, u32)]) -> Utilization {
    cluster_utilization_from_terms(groups.iter().map(|(profiles, m)| {
        assert!(*m > 0, "every job group needs at least one machine");
        (group_utilization(profiles, *m), *m)
    }))
}

/// Eq. 4 fold over precomputed per-group utilization terms.
///
/// This is the machine-weighted average [`cluster_utilization`]
/// performs, split out so callers that cache per-group
/// [`group_utilization`] results (the regrouper's incremental
/// candidate scans) can refold them without re-deriving every term.
/// The accumulation order and arithmetic are identical to
/// [`cluster_utilization`], so folding cached terms is bit-identical
/// to recomputing the whole cluster as long as the cached terms
/// themselves are bit-identical.
///
/// Every component of the result is bounded by `1.0`: each term's
/// `cpu`/`net` is `≤ 1.0` (a group's busy time never exceeds its
/// iteration), so the weighted numerator is termwise dominated by the
/// machine total, IEEE addition is monotone, and `x / t ≤ 1.0` exactly
/// when `x ≤ t`.
///
/// # Panics
///
/// Panics if any group has zero machines.
pub fn cluster_utilization_from_terms(
    terms: impl IntoIterator<Item = (Utilization, u32)>,
) -> Utilization {
    let mut total_m = 0.0;
    let mut cpu = 0.0;
    let mut net = 0.0;
    for (u, m) in terms {
        assert!(m > 0, "every job group needs at least one machine");
        let mf = f64::from(m);
        cpu += mf * u.cpu;
        net += mf * u.net;
        total_m += mf;
    }
    if total_m == 0.0 {
        return Utilization::default();
    }
    Utilization::new(cpu / total_m, net / total_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn prof(i: u64, tcpu1: f64, tnet: f64) -> JobProfile {
        JobProfile::from_reference(JobId::new(i), tcpu1, tnet)
    }

    #[test]
    fn cpu_bound_case() {
        // Three CPU-heavy jobs at DoP 1.
        let a = prof(0, 10.0, 1.0);
        let b = prof(1, 8.0, 1.0);
        let c = prof(2, 6.0, 1.0);
        let ps = [&a, &b, &c];
        let (t, kind) = group_iteration_time_with_bound(&ps, 1);
        assert_eq!(t, 24.0);
        assert_eq!(kind, BoundKind::CpuBound);
        let u = group_utilization(&ps, 1);
        assert_eq!(u.cpu, 1.0);
        assert_eq!(u.net, 3.0 / 24.0);
    }

    #[test]
    fn network_bound_case_matches_figure_8a() {
        // Sum of network subtasks longer than CPU subtasks.
        let a = prof(0, 2.0, 5.0);
        let b = prof(1, 3.0, 5.0);
        let c = prof(2, 2.0, 5.0);
        let ps = [&a, &b, &c];
        let (t, kind) = group_iteration_time_with_bound(&ps, 1);
        assert_eq!(t, 15.0);
        assert_eq!(kind, BoundKind::NetworkBound);
        let u = group_utilization(&ps, 1);
        assert_eq!(u.net, 1.0);
        assert!(u.cpu < 0.5);
    }

    #[test]
    fn job_bound_case_matches_figure_8b() {
        // Job B is much larger than the others: its own pipeline
        // dominates, leaving both resources partially idle.
        let a = prof(0, 1.0, 1.0);
        let b = prof(1, 6.0, 6.0);
        let c = prof(2, 1.0, 1.0);
        let ps = [&a, &b, &c];
        let (t, kind) = group_iteration_time_with_bound(&ps, 1);
        assert_eq!(t, 12.0);
        assert_eq!(kind, BoundKind::JobBound);
        let u = group_utilization(&ps, 1);
        assert!(u.cpu < 1.0);
        assert!(u.net < 1.0);
    }

    #[test]
    fn higher_dop_shifts_cpu_bound_to_net_bound() {
        let a = prof(0, 16.0, 2.0);
        let b = prof(1, 16.0, 2.0);
        let ps = [&a, &b];
        assert_eq!(
            group_iteration_time_with_bound(&ps, 1).1,
            BoundKind::CpuBound
        );
        assert_eq!(
            group_iteration_time_with_bound(&ps, 16).1,
            BoundKind::NetworkBound
        );
    }

    #[test]
    fn iteration_time_lower_bounds() {
        // Tg_itr is at least every term of Eq. 1.
        let a = prof(0, 5.0, 3.0);
        let b = prof(1, 2.0, 7.0);
        let ps = [&a, &b];
        for m in [1u32, 2, 4, 8] {
            let t = group_iteration_time(&ps, m);
            let sum_cpu: f64 = ps.iter().map(|p| p.tcpu_at(m)).sum();
            let sum_net: f64 = ps.iter().map(|p| p.tnet()).sum();
            let max_itr = ps.iter().map(|p| p.iter_time_at(m)).fold(0.0f64, f64::max);
            assert!(t >= sum_cpu && t >= sum_net && t >= max_itr);
            assert!(t <= sum_cpu + sum_net); // never worse than serial
        }
    }

    #[test]
    fn apply_charge_extends_the_cpu_term() {
        let mut a = JobProfile::new(JobId::new(0));
        a.observe_sample(10.0, 1.0, 0.5, 1);
        let mut b = JobProfile::new(JobId::new(1));
        b.observe_sample(8.0, 1.0, 0.25, 1);
        let ps = [&a, &b];
        // Flag off: APPLY is invisible, exactly the legacy model.
        let off = group_iteration_time_charged(&ps, 1, false);
        assert_eq!(off.to_bits(), group_iteration_time(&ps, 1).to_bits());
        assert_eq!(off, 18.0);
        // Flag on: the CPU-bound term grows by the APPLY charges.
        assert_eq!(group_iteration_time_charged(&ps, 1, true), 18.75);
    }

    #[test]
    fn apply_charge_without_measurements_is_identity() {
        // Profiles that never saw an APPLY sample read tapply() == 0.0,
        // so even the flag-on arm reproduces the legacy time bit-for-bit.
        let a = prof(0, 10.0, 1.0);
        let b = prof(1, 8.0, 1.0);
        let ps = [&a, &b];
        assert_eq!(
            group_iteration_time_charged(&ps, 2, true).to_bits(),
            group_iteration_time(&ps, 2).to_bits()
        );
    }

    #[test]
    fn sparse_comm_charge_scales_the_network_term() {
        // Two net-bound jobs; one pushes at density 0.25 (measured
        // often enough to be trusted). Charged, the group's Σ Tnet
        // shrinks by that job's saved wire time.
        let mut a = JobProfile::from_reference(JobId::new(10), 2.0, 8.0);
        for _ in 0..JobProfile::DENSITY_TRUST_ITERS {
            a.observe_push_density(0.25);
        }
        let b = JobProfile::from_reference(JobId::new(11), 2.0, 8.0);
        let ps = [&a, &b];
        let off = group_iteration_time_modeled(&ps, 1, false, false);
        assert_eq!(off, 16.0); // network bound: 8 + 8
        let on = group_iteration_time_modeled(&ps, 1, false, true);
        assert_eq!(on, 10.0); // 8 * 0.25 + 8
    }

    #[test]
    fn sparse_comm_charge_without_measurements_is_identity() {
        // Cold density reads 1.0 and `tnet * 1.0` is exact, so even the
        // flag-on arm reproduces the legacy time bit-for-bit.
        let a = prof(0, 10.0, 1.0);
        let b = prof(1, 8.0, 3.0);
        let ps = [&a, &b];
        for m in [1u32, 2, 4] {
            assert_eq!(
                group_iteration_time_modeled(&ps, m, false, true).to_bits(),
                group_iteration_time(&ps, m).to_bits()
            );
        }
    }

    #[test]
    fn sparse_comm_charge_off_ignores_measurements() {
        let mut a = JobProfile::from_reference(JobId::new(12), 4.0, 6.0);
        a.observe_push_density(0.1);
        let b = JobProfile::from_reference(JobId::new(13), 4.0, 6.0);
        assert_eq!(
            group_iteration_time_modeled(&[&a], 1, false, false).to_bits(),
            group_iteration_time(&[&b], 1).to_bits()
        );
    }

    #[test]
    fn sparse_comm_charge_prices_untrusted_density_dense() {
        // A young sparse job (fewer than DENSITY_TRUST_ITERS
        // measurements) is charged as if dense — never under-charged —
        // even with the flag on.
        let mut a = JobProfile::from_reference(JobId::new(14), 4.0, 6.0);
        for _ in 0..JobProfile::DENSITY_TRUST_ITERS - 1 {
            a.observe_push_density(0.1);
        }
        let b = JobProfile::from_reference(JobId::new(15), 4.0, 6.0);
        assert_eq!(
            group_iteration_time_modeled(&[&a], 1, false, true).to_bits(),
            group_iteration_time(&[&b], 1).to_bits()
        );
        // One more measurement crosses the trust threshold and the
        // charge engages.
        a.observe_push_density(0.1);
        assert!(
            group_iteration_time_modeled(&[&a], 1, false, true)
                < group_iteration_time_modeled(&[&b], 1, false, true)
        );
    }

    #[test]
    fn empty_group_is_zero() {
        assert_eq!(group_iteration_time(&[], 4), 0.0);
        assert_eq!(group_utilization(&[], 4), Utilization::default());
    }

    #[test]
    fn single_job_group_utilization_splits_iteration() {
        let a = prof(0, 6.0, 2.0);
        let u = group_utilization(&[&a], 2);
        // Iteration = 3 + 2 = 5s; CPU busy 3/5, net busy 2/5.
        assert!((u.cpu - 0.6).abs() < 1e-12);
        assert!((u.net - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cluster_utilization_is_machine_weighted() {
        let a = prof(0, 8.0, 8.0); // perfectly balanced at DoP 1
        let b = prof(1, 9.0, 1.0); // CPU bound
        let groups = vec![(vec![&a], 3u32), (vec![&b], 1u32)];
        let u = cluster_utilization(&groups);
        let ua = group_utilization(&[&a], 3);
        let ub = group_utilization(&[&b], 1);
        assert!((u.cpu - (3.0 * ua.cpu + ub.cpu) / 4.0).abs() < 1e-12);
        assert!((u.net - (3.0 * ua.net + ub.net) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn idle_machines_drag_utilization_down() {
        let a = prof(0, 5.0, 5.0);
        let busy = cluster_utilization(&[(vec![&a], 2)]);
        let with_idle = cluster_utilization(&[(vec![&a], 2), (Vec::new(), 2)]);
        assert!(with_idle.cpu < busy.cpu);
        assert!((with_idle.cpu - busy.cpu / 2.0).abs() < 1e-12);
    }

    #[test]
    fn score_weights_cpu_more() {
        let u = Utilization::new(1.0, 0.0);
        let v = Utilization::new(0.0, 1.0);
        assert!(u.score(0.7) > v.score(0.7));
        assert_eq!(u.score(0.7), 0.7);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machine_group_rejected() {
        let a = prof(0, 1.0, 1.0);
        let _ = cluster_utilization(&[(vec![&a], 0)]);
    }
}
