//! The scheduler backends as a value, and what their results claim.
//!
//! [`SchedBackend`] names a whole kernel → [`Schedule`] pipeline;
//! [`schedule_outcome_traced`](super::schedule_outcome_traced) matches on
//! it, so a new backend is one enum arm plus one match arm there. Cluster
//! assignment is one level lower, a `match` on
//! [`ClusterPolicy`](super::ClusterPolicy).
//!
//! Backends return a [`ScheduleOutcome`] whose [`SchedQuality`] records
//! what the result *claims*: a heuristic makes no claim, an exact search
//! reports one of two things — a proof, or an unproven answer cut off by
//! its node budget. Cutoffs are first-class, counted outcomes
//! ([`SchedStats::cutoffs`](super::SchedStats)) — never a silent
//! fallback: an exhausted search with an incumbent serves it as
//! [`SchedQuality::CutoffFeasible`], one without fails with
//! [`ScheduleError::SearchCutoff`](crate::schedule::ScheduleError).

use super::SchedStats;
use crate::schedule::Schedule;

/// What a backend's result claims about schedule quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedQuality {
    /// Produced by a heuristic pipeline; no optimality claim.
    Heuristic,
    /// The II is proven minimal: every smaller II ≥ MII was exhaustively
    /// refuted (or the II already equals the MII lower bound).
    ProvenOptimal,
    /// A feasible schedule, but the exact search hit its node budget at
    /// some smaller II, so optimality is unproven. The cutoff count is in
    /// [`SchedStats::cutoffs`](super::SchedStats).
    CutoffFeasible,
}

impl SchedQuality {
    /// Whether this result carries an optimality proof.
    pub fn is_proven(self) -> bool {
        matches!(self, SchedQuality::ProvenOptimal)
    }
}

/// Ignored; set only by the frozen perfbench replica, removed with the
/// benchmark-edit change. Its one value is the only exhaustion rule the
/// exact backend has: an incumbent is served as a counted
/// [`SchedQuality::CutoffFeasible`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum FallbackPolicy {
    /// Serve the incumbent as a counted cutoff.
    Heuristic,
}

/// A backend's full result: the schedule, the work counters, and the
/// quality claim.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule produced.
    pub schedule: Schedule,
    /// Work counters (trial cycles, attempts, rollbacks, placements,
    /// cutoffs).
    pub stats: SchedStats,
    /// What the backend claims about the result.
    pub quality: SchedQuality,
    /// Rau's MaxLive ([`crate::pressure::max_live`]) of the returned
    /// schedule, populated by the exact backend — for
    /// [`SchedQuality::ProvenOptimal`] results it is additionally the
    /// minimum over a bounded tie-break enumeration at the optimal II, so
    /// proven-optimal schedules also minimize register lifetimes.
    /// Heuristic backends report `None` (callers can compute it on
    /// demand).
    pub max_live: Option<u32>,
}

/// The scheduler backends, as a value the experiment grid can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedBackend {
    /// The paper's §4.3.1 pipeline: the shared front-end (latency
    /// assignment, SMS ordering), then one no-backtracking cluster
    /// assignment + slot placement pass per II.
    SwingModulo,
    /// An exact branch-and-bound modulo scheduler, the optimality
    /// yardstick of the `optgap` study: the swing front-end, then a
    /// depth-first search over `(cluster, cycle)` placements below the
    /// swing schedule's II, under a node budget.
    ExactBnB,
}

impl SchedBackend {
    /// Short name (reports, memo diagnostics, bench labels, store keys).
    pub fn name(&self) -> &'static str {
        match self {
            SchedBackend::SwingModulo => "swing",
            SchedBackend::ExactBnB => "bnb",
        }
    }

    /// Relative per-cell cost rank, used by the experiment grid to shard
    /// its work queue: heavier backends are dispatched first so their
    /// long-running cells do not become the parallel sweep's tail while
    /// cheap heuristic cells back-fill the workers. Only the order
    /// matters, not the magnitudes.
    pub fn cost_rank(&self) -> u8 {
        match self {
            SchedBackend::SwingModulo => 0,
            SchedBackend::ExactBnB => 2,
        }
    }

    /// Every backend, the heuristic pipeline first.
    pub const ALL: [SchedBackend; 2] = [SchedBackend::SwingModulo, SchedBackend::ExactBnB];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use vliw_ir::{ArrayKind, KernelBuilder, LoopKernel};
    use vliw_machine::MachineConfig;

    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Heap);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        b.finish(16.0)
    }

    #[test]
    fn heuristic_outcome_makes_no_optimality_claim() {
        let k = kernel();
        let m = MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free)).unwrap();
        assert_eq!(o.quality, SchedQuality::Heuristic);
        assert!(!o.quality.is_proven());
        assert_eq!(o.stats.cutoffs, 0, "heuristics never cut off");
    }

    #[test]
    fn backend_enum_resolves_names() {
        assert_eq!(SchedBackend::SwingModulo.name(), "swing");
        assert_eq!(SchedBackend::ExactBnB.name(), "bnb");
        assert_eq!(SchedBackend::ALL.len(), 2);
        // the exact search outranks the heuristic in the shard order
        assert!(SchedBackend::ExactBnB.cost_rank() > SchedBackend::SwingModulo.cost_rank());
    }
}
