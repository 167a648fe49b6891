//! From measured timings back to the scheduler: turns a finished
//! [`JobReport`] into per-iteration [`IterationSample`]s and pushes
//! them into any [`ProfileSink`] (a profile store, or the drift-aware
//! `FeedbackLoop`) — the closed profiling loop of §IV-B1/§IV-B4.
//!
//! Aggregation is *canonical*: raw `JobReport::timings` arrive in event
//! order, which varies run to run with thread interleaving, and f64
//! addition is not associative — so the records are first keyed by
//! `(iteration, kind, node)` and summed in that fixed order. Two runs
//! that measured the same durations (e.g. under a
//! [`VirtualClock`](crate::VirtualClock)) therefore produce
//! bit-identical samples, whatever the executors did.

use std::collections::BTreeMap;

use harmony_core::job::JobId;
use harmony_core::{IterationSample, ProfileSink};

use crate::master::JobReport;
use crate::subtask::SubtaskKind;

/// Fixed summation rank of a subtask kind inside one iteration.
fn kind_rank(kind: SubtaskKind) -> u8 {
    match kind {
        SubtaskKind::Pull => 0,
        SubtaskKind::Comp => 1,
        SubtaskKind::Push => 2,
        SubtaskKind::Apply => 3,
    }
}

/// One profiling sample per executed iteration of `report`, attributed
/// to `job`: per-node `(tcpu, tnet)` seconds and the PUSH density at
/// the DoP the job ran with, in iteration order. APPLY records are not
/// sampled — no scheduler path prices them — but still open the
/// iteration's sample; [`JobReport::mean_tapply`] and
/// [`JobReport::timings`] report them.
///
/// A migrated job (`JobReport::migrated`) changed DoP mid-run, so each
/// iteration is normalized by — and stamped with — the DoP it actually
/// ran at: `from_dop` up to and including the boundary iteration, the
/// final `report.dop` after. A later drift measurement therefore
/// compares against the post-migration basis, not the admission-time
/// one.
///
/// The result is a pure function of the *set* of timing records —
/// independent of the order the executors delivered them.
pub fn iteration_samples(report: &JobReport, job: JobId) -> Vec<IterationSample> {
    // Canonicalize: one slot per (iteration, kind, node), then fold in
    // key order. Each slot holds a single record in practice, but the
    // BTreeMap guarantees a fixed order even if that ever changes.
    let mut canonical: BTreeMap<(u64, u8, usize), f64> = BTreeMap::new();
    for t in &report.timings {
        *canonical
            .entry((t.iteration, kind_rank(t.kind), t.node))
            .or_insert(0.0) += t.elapsed.as_secs_f64();
    }
    let dop_at = |iter: u64| -> usize {
        match &report.migrated {
            Some(m) if iter <= m.at_iteration => m.from_dop.max(1),
            _ => report.dop.max(1),
        }
    };
    // Wire densities by iteration; iterations with no recorded volume
    // (the volumes predate an abort, or an older report) charge dense.
    let density_at: BTreeMap<u64, f64> = report
        .push_volumes
        .iter()
        .map(|v| (v.iteration, v.density()))
        .collect();
    let mut per_iter: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for ((iter, rank, _node), secs) in canonical {
        let slot = per_iter.entry(iter).or_insert((0.0, 0.0));
        match rank {
            1 => slot.0 += secs,     // COMP    → tcpu
            0 | 2 => slot.1 += secs, // PULL/PUSH → tnet
            _ => {}                  // APPLY: reported, not sampled
        }
    }
    per_iter
        .into_iter()
        .map(|(iter, (tcpu, tnet))| {
            let dop = dop_at(iter);
            let dop_f = dop as f64;
            IterationSample {
                job,
                tcpu: tcpu / dop_f,
                tnet: tnet / dop_f,
                density: density_at.get(&iter).copied().unwrap_or(1.0),
                dop: dop as u32,
            }
        })
        .collect()
}

/// Feeds every iteration of `report` into `sink`, in iteration order.
/// Returns how many samples were recorded.
pub fn record_report(report: &JobReport, job: JobId, sink: &mut impl ProfileSink) -> usize {
    let samples = iteration_samples(report, job);
    let n = samples.len();
    for s in samples {
        sink.record(s);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtask::SubtaskTiming;
    use harmony_core::FeedbackLoop;
    use std::time::Duration;

    fn report_with(timings: Vec<SubtaskTiming>, iterations: u64, dop: usize) -> JobReport {
        JobReport {
            name: "t".into(),
            iterations,
            initial_loss: 1.0,
            final_loss: 0.5,
            loss_history: vec![],
            timings,
            mean_tcpu: 0.0,
            mean_tnet: 0.0,
            mean_tapply: 0.0,
            dop,
            final_model: vec![],
            migrated: None,
            converged: false,
            aborted: false,
            push_volumes: vec![],
        }
    }

    fn timing(kind: SubtaskKind, node: usize, iteration: u64, secs: f64) -> SubtaskTiming {
        SubtaskTiming {
            kind,
            node,
            iteration,
            elapsed: Duration::from_secs_f64(secs),
        }
    }

    fn two_iteration_timings() -> Vec<SubtaskTiming> {
        let mut v = Vec::new();
        for iter in 1..=2u64 {
            for node in 0..2usize {
                v.push(timing(SubtaskKind::Pull, node, iter, 0.25));
                v.push(timing(SubtaskKind::Comp, node, iter, 4.0));
                v.push(timing(SubtaskKind::Push, node, iter, 0.25));
                v.push(timing(SubtaskKind::Apply, node, iter, 0.125));
            }
        }
        v
    }

    #[test]
    fn samples_aggregate_per_iteration_per_node() {
        let report = report_with(two_iteration_timings(), 2, 2);
        let samples = iteration_samples(&report, JobId::new(7));
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert_eq!(s.job, JobId::new(7));
            assert_eq!(s.dop, 2);
            assert!((s.tcpu - 4.0).abs() < 1e-12);
            // APPLY (0.125 s per node) stays out of both terms.
            assert!((s.tnet - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_are_arrival_order_independent() {
        // Same record set, three different arrival orders → identical
        // bits. (Durations chosen non-representable in binary so a
        // different fold order would actually show.)
        let mut a = Vec::new();
        for iter in 1..=3u64 {
            for node in 0..3usize {
                let jitter = 0.1 * (iter as f64) + 0.01 * (node as f64);
                a.push(timing(SubtaskKind::Pull, node, iter, 0.3 + jitter));
                a.push(timing(SubtaskKind::Comp, node, iter, 1.7 + jitter));
                a.push(timing(SubtaskKind::Push, node, iter, 0.2 + jitter));
            }
        }
        let mut b = a.clone();
        b.reverse();
        let mut c = a.clone();
        c.rotate_left(7);
        let key = |timings: Vec<SubtaskTiming>| {
            iteration_samples(&report_with(timings, 3, 3), JobId::new(0))
                .iter()
                .flat_map(|s| [s.tcpu.to_bits(), s.tnet.to_bits()])
                .collect::<Vec<u64>>()
        };
        let ka = key(a);
        assert_eq!(ka, key(b));
        assert_eq!(ka, key(c));
    }

    #[test]
    fn migrated_report_uses_per_iteration_dop() {
        // Iter 1 ran at dop 1 (4 s on one node), iter 2 at dop 2 after
        // migrating (4 s on each of two nodes): the per-node basis is
        // 4.0 s both times, and each sample carries the DoP it ran at.
        let mut timings = vec![timing(SubtaskKind::Comp, 0, 1, 4.0)];
        for node in 0..2usize {
            timings.push(timing(SubtaskKind::Comp, node, 2, 4.0));
        }
        let mut report = report_with(timings, 2, 2);
        report.migrated = Some(crate::master::MigrationRecord {
            at_iteration: 1,
            from_dop: 1,
            checkpoint_bytes: 64,
        });
        let samples = iteration_samples(&report, JobId::new(1));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].dop, 1);
        assert_eq!(samples[1].dop, 2);
        assert!((samples[0].tcpu - 4.0).abs() < 1e-12);
        assert!((samples[1].tcpu - 4.0).abs() < 1e-12);
    }

    #[test]
    fn push_volumes_ride_the_samples_as_density() {
        let mut report = report_with(two_iteration_timings(), 2, 2);
        report.push_volumes = vec![crate::master::PushVolume {
            iteration: 1,
            bytes: 300,
            dense_bytes: 1200,
        }];
        let samples = iteration_samples(&report, JobId::new(4));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].density, 0.25);
        // Iteration 2 recorded no volume: charged dense.
        assert_eq!(samples[1].density, 1.0);
        let mut fb = FeedbackLoop::new(0.05);
        record_report(&report, JobId::new(4), &mut fb);
        let p = fb.store().get(JobId::new(4)).expect("profile created");
        let d = p.push_density();
        assert!(d > 0.25 && d < 1.0, "smoothed density was {d}");
    }

    #[test]
    fn empty_report_yields_no_samples() {
        let report = report_with(Vec::new(), 0, 2);
        assert!(iteration_samples(&report, JobId::new(0)).is_empty());
    }

    #[test]
    fn record_report_warms_a_profile() {
        let report = report_with(two_iteration_timings(), 2, 2);
        let mut fb = FeedbackLoop::new(0.05);
        let n = record_report(&report, JobId::new(3), &mut fb);
        assert_eq!(n, 2);
        let p = fb.store().get(JobId::new(3)).expect("profile created");
        // tcpu_ref folds Eq. 2: per-node 4.0 s at dop 2 → 8.0 reference.
        assert!((p.tcpu_at(1) - 8.0).abs() < 1e-9);
        assert!((p.tnet() - 0.5).abs() < 1e-9);
    }
}
