//! Subtask kinds, timing records, and the iteration synchronizer.

use std::fmt;
use std::time::Duration;

/// The subtask kinds of a PS iteration (Figure 1 / §IV-A).
///
/// `Pull` and `Push` are the network-dominant COMM subtasks; `Comp` is
/// the CPU-dominant computation subtask. `Apply` is the server-side
/// aggregation, one explicit subtask per job-iteration that folds every
/// worker's update into the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubtaskKind {
    /// Fetch the current model from the servers (COMM).
    Pull,
    /// Compute gradients / model updates locally (CPU).
    Comp,
    /// Send the update back to the servers (COMM).
    Push,
    /// Fold the received updates into the model (COMM side).
    Apply,
}

impl SubtaskKind {
    /// Whether this subtask runs on the CPU executor (vs the COMM one).
    pub fn is_cpu(self) -> bool {
        matches!(self, SubtaskKind::Comp)
    }

    /// The subtask that follows this one within an iteration, wrapping
    /// from `Apply` back to `Pull` of the next iteration.
    pub fn next(self) -> SubtaskKind {
        match self {
            SubtaskKind::Pull => SubtaskKind::Comp,
            SubtaskKind::Comp => SubtaskKind::Push,
            SubtaskKind::Push => SubtaskKind::Apply,
            SubtaskKind::Apply => SubtaskKind::Pull,
        }
    }
}

impl fmt::Display for SubtaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubtaskKind::Pull => "PULL",
            SubtaskKind::Comp => "COMP",
            SubtaskKind::Push => "PUSH",
            SubtaskKind::Apply => "APPLY",
        };
        f.write_str(s)
    }
}

/// Wall-clock timing of one executed subtask, fed to the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtaskTiming {
    /// Which kind of subtask ran.
    pub kind: SubtaskKind,
    /// Node it ran on.
    pub node: usize,
    /// Iteration it belonged to.
    pub iteration: u64,
    /// How long it ran.
    pub elapsed: Duration,
}

/// What the master should do after a subtask-completion event (see
/// [`Synchronizer::on_subtask`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAction {
    /// A worker's PULL landed: submit its COMP.
    StartCompute,
    /// A worker's COMP landed: submit its PUSH.
    StartPush,
    /// Every worker's PUSH landed: reduce (all-reduce jobs) and submit
    /// the APPLY.
    ReduceAndApply,
    /// The APPLY landed: the iteration is complete.
    IterationComplete,
    /// Other subtasks of this iteration are still in flight.
    InFlight,
}

/// Per-job barrier state for the pipelined runtime.
///
/// The pipeline issues a worker's next subtask the moment its previous
/// one completes — per-worker progress is independent until the PUSH
/// barrier, then the iteration's one APPLY ends it. The generation
/// counter stamps every submitted subtask; completion events carry it
/// back, so a stale event from a previous iteration (impossible under
/// the current master loop, but the invariant that *proves* the
/// pipeline is safe) is detected instead of silently corrupting the
/// barrier counts.
#[derive(Debug)]
pub struct Synchronizer {
    dop: usize,
    generation: u64,
    pushes_seen: usize,
    applied: bool,
}

impl Synchronizer {
    /// A synchronizer for `dop` workers and one APPLY per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `dop` is zero.
    pub fn new(dop: usize) -> Self {
        assert!(dop > 0, "need at least one worker");
        Self {
            dop,
            generation: 0,
            pushes_seen: 0,
            applied: false,
        }
    }

    /// The generation to stamp on subtasks submitted for the current
    /// iteration (0 until the first [`Synchronizer::begin_iteration`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Starts the next iteration: bumps the generation and resets the
    /// barrier counts. Returns the new generation.
    pub fn begin_iteration(&mut self) -> u64 {
        self.generation += 1;
        self.pushes_seen = 0;
        self.applied = false;
        self.generation
    }

    /// Re-shapes the barrier for a migrated job: new worker count,
    /// *same* generation counter. Migration happens at an iteration
    /// boundary (no subtasks in flight), so the generation stream stays
    /// monotonic across the move and in-flight staleness detection keeps
    /// working.
    ///
    /// # Panics
    ///
    /// Panics if `dop` is zero.
    pub fn reconfigure(&mut self, dop: usize) {
        assert!(dop > 0, "need at least one worker");
        self.dop = dop;
        self.pushes_seen = 0;
        self.applied = false;
    }

    /// Records one subtask completion and returns what to do next.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is not the current one (a stale in-flight
    /// subtask crossed an iteration boundary — a pipeline bug), or if a
    /// barrier overflows (more PUSH events than workers, or a second
    /// APPLY in one generation).
    pub fn on_subtask(&mut self, kind: SubtaskKind, generation: u64) -> SyncAction {
        assert_eq!(
            generation, self.generation,
            "stale {kind} event: generation {generation} != current {}",
            self.generation
        );
        match kind {
            SubtaskKind::Pull => SyncAction::StartCompute,
            SubtaskKind::Comp => SyncAction::StartPush,
            SubtaskKind::Push => {
                self.pushes_seen += 1;
                assert!(self.pushes_seen <= self.dop, "PUSH barrier overflow");
                if self.pushes_seen == self.dop {
                    SyncAction::ReduceAndApply
                } else {
                    SyncAction::InFlight
                }
            }
            SubtaskKind::Apply => {
                assert!(!self.applied, "APPLY barrier overflow");
                self.applied = true;
                SyncAction::IterationComplete
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_cycle() {
        assert_eq!(SubtaskKind::Pull.next(), SubtaskKind::Comp);
        assert_eq!(SubtaskKind::Comp.next(), SubtaskKind::Push);
        assert_eq!(SubtaskKind::Push.next(), SubtaskKind::Apply);
        assert_eq!(SubtaskKind::Apply.next(), SubtaskKind::Pull);
    }

    #[test]
    fn cpu_classification() {
        assert!(SubtaskKind::Comp.is_cpu());
        assert!(!SubtaskKind::Pull.is_cpu());
        assert!(!SubtaskKind::Push.is_cpu());
        assert!(!SubtaskKind::Apply.is_cpu());
    }

    #[test]
    fn display_names() {
        assert_eq!(SubtaskKind::Pull.to_string(), "PULL");
        assert_eq!(SubtaskKind::Comp.to_string(), "COMP");
        assert_eq!(SubtaskKind::Push.to_string(), "PUSH");
        assert_eq!(SubtaskKind::Apply.to_string(), "APPLY");
    }

    #[test]
    fn one_full_iteration_of_two_workers() {
        let mut sync = Synchronizer::new(2);
        let g = sync.begin_iteration();
        assert_eq!(g, 1);
        assert_eq!(
            sync.on_subtask(SubtaskKind::Pull, g),
            SyncAction::StartCompute
        );
        assert_eq!(sync.on_subtask(SubtaskKind::Comp, g), SyncAction::StartPush);
        // The second worker lags a whole phase: per-worker pipelining.
        assert_eq!(
            sync.on_subtask(SubtaskKind::Pull, g),
            SyncAction::StartCompute
        );
        assert_eq!(sync.on_subtask(SubtaskKind::Push, g), SyncAction::InFlight);
        assert_eq!(sync.on_subtask(SubtaskKind::Comp, g), SyncAction::StartPush);
        assert_eq!(
            sync.on_subtask(SubtaskKind::Push, g),
            SyncAction::ReduceAndApply
        );
        assert_eq!(
            sync.on_subtask(SubtaskKind::Apply, g),
            SyncAction::IterationComplete
        );
        assert_eq!(sync.begin_iteration(), 2);
    }

    #[test]
    fn reconfigure_preserves_generation_and_resizes_barriers() {
        let mut sync = Synchronizer::new(2);
        let g1 = sync.begin_iteration();
        let _ = sync.on_subtask(SubtaskKind::Push, g1);
        let _ = sync.on_subtask(SubtaskKind::Push, g1);
        let _ = sync.on_subtask(SubtaskKind::Apply, g1);
        // Migrate 2 workers -> 3 at the boundary: generation continues.
        sync.reconfigure(3);
        assert_eq!(sync.generation(), g1);
        let g2 = sync.begin_iteration();
        assert_eq!(g2, g1 + 1);
        assert_eq!(sync.on_subtask(SubtaskKind::Push, g2), SyncAction::InFlight);
        assert_eq!(sync.on_subtask(SubtaskKind::Push, g2), SyncAction::InFlight);
        assert_eq!(
            sync.on_subtask(SubtaskKind::Push, g2),
            SyncAction::ReduceAndApply
        );
        assert_eq!(
            sync.on_subtask(SubtaskKind::Apply, g2),
            SyncAction::IterationComplete
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_generation_is_rejected() {
        let mut sync = Synchronizer::new(1);
        sync.begin_iteration();
        sync.begin_iteration();
        let _ = sync.on_subtask(SubtaskKind::Pull, 1);
    }

    #[test]
    #[should_panic(expected = "PUSH barrier overflow")]
    fn push_overflow_is_rejected() {
        let mut sync = Synchronizer::new(1);
        let g = sync.begin_iteration();
        let _ = sync.on_subtask(SubtaskKind::Push, g);
        let _ = sync.on_subtask(SubtaskKind::Push, g);
    }

    #[test]
    #[should_panic(expected = "APPLY barrier overflow")]
    fn a_second_apply_in_one_generation_is_rejected() {
        let mut sync = Synchronizer::new(2);
        let g = sync.begin_iteration();
        let _ = sync.on_subtask(SubtaskKind::Push, g);
        let _ = sync.on_subtask(SubtaskKind::Push, g);
        let _ = sync.on_subtask(SubtaskKind::Apply, g);
        let _ = sync.on_subtask(SubtaskKind::Apply, g);
    }
}
