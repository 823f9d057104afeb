//! The scheduling engine: cluster assignment and slot placement in a single
//! step (§4.2 and §4.3.1 step 4), with no backtracking — any failure bumps
//! the II and restarts, exactly as the paper describes.
//!
//! Cluster-assignment heuristics are pluggable: the engine drives a
//! [`ClusterAssign`] trait object, one implementation per policy module
//! ([`base`], [`ibc`], [`ipbc`], [`no_chains`]). [`ClusterPolicy`] is the
//! thin enum mapping the paper's names onto those implementations; adding a
//! heuristic is one new module plus one enum arm.
//!
//! # Hot-loop data layout
//!
//! The II loop restarts the whole placement pipeline on every bump, so the
//! engine is built for zero steady-state allocation: every trial opens a
//! [`Mrt`](crate::mrt::Mrt) savepoint and a failed one rolls back to it
//! (no table clones), candidate cycles come from the table's
//! word-parallel free-mask walk (occupied stretches are skipped a `u64`
//! word at a time and never counted as trial work), and all per-attempt /
//! per-op vectors live in one private `Scratch` workspace that is cleared
//! — never reallocated — across attempts. The window, copy routing and
//! normalisation live in the private `place` module, which the exact
//! backend ([`bnb`]) runs too. The placement loop's output is pinned by
//! golden digests (`tests/schedule_golden.rs`,
//! `tests/mrt_impl_equivalence.rs`, `tests/mrt_txn_equivalence.rs`, and
//! `tests/backend_golden.rs` for the exact and delay backends).

pub mod backend;
pub mod base;
pub mod bnb;
pub mod delay;
pub mod ibc;
pub mod ipbc;
pub mod no_chains;
mod place;
pub mod policy;

use vliw_ir::{Ddg, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use crate::chains::MemChains;
use crate::circuits::{elementary_circuits, EnumLimits};
use crate::latency::LatencyAssignment;
use crate::mii;
use crate::order::sms_order;
use crate::schedule::{Schedule, ScheduleError, ScheduledCopy, ScheduledOp};

pub use backend::{
    FallbackPolicy, SchedBackend, SchedQuality, ScheduleOutcome, SchedulerBackend, SwingModulo,
};
pub use bnb::{ExactBnB, DEFAULT_NODE_BUDGET};
pub use delay::DelayTracking;
pub use policy::{AssignContext, AssignState, ClusterAssign, Neighbor};

use place::{Nbr, Neighbors, PartialSchedule, Placement};

/// How memory instructions are assigned to clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterPolicy {
    /// BASE (§4.2): memory ops are placed like any other op — best
    /// communication/balance trade-off, no chain constraint. Used for the
    /// unified-cache and multiVLIW machines.
    Free,
    /// IBC — Interleaved Build Chains: memory ops use the communication/
    /// balance heuristic, but all members of a memory dependent chain
    /// follow the cluster chosen for the chain's first-scheduled member.
    BuildChains,
    /// IPBC — Interleaved Pre-Build Chains: chains are computed before
    /// scheduling and pinned to their average preferred cluster.
    PreBuildChains,
    /// Analysis-only ablation (Figures 4 and 7, fourth/third bars): every
    /// memory op goes to its own preferred cluster, ignoring chains.
    /// **Not correct for execution** — used to quantify the cost of chains.
    NoChains,
}

impl ClusterPolicy {
    /// The [`ClusterAssign`] implementation behind this policy.
    pub fn assigner(&self) -> &'static dyn ClusterAssign {
        match self {
            ClusterPolicy::Free => &base::Base,
            ClusterPolicy::BuildChains => &ibc::Ibc,
            ClusterPolicy::PreBuildChains => &ipbc::Ipbc,
            ClusterPolicy::NoChains => &no_chains::NoChains,
        }
    }

    /// All four paper policies, in the paper's presentation order.
    pub const ALL: [ClusterPolicy; 4] = [
        ClusterPolicy::Free,
        ClusterPolicy::BuildChains,
        ClusterPolicy::PreBuildChains,
        ClusterPolicy::NoChains,
    ];
}

/// Counters describing how much work one [`schedule_kernel`] call did —
/// the scheduler's throughput denominators (see the `sched` bench and the
/// `repro … sched` target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Candidate `(cluster, cycle)` slots examined across all attempts —
    /// the innermost unit of scheduling work.
    pub trial_cycles: u64,
    /// Placement attempts run (II bumps × retry reorderings).
    pub attempts: u64,
    /// Trial probes that failed and were unwound.
    pub rollbacks: u64,
    /// Operations successfully placed (committed probes), summed over all
    /// attempts including abandoned ones.
    pub placements: u64,
    /// II levels at which an exact search hit its node budget and stopped
    /// without an infeasibility proof. Always 0 for heuristic backends;
    /// nonzero means the result's [`SchedQuality`] cannot claim
    /// optimality. Surfaced (never silently absorbed) by the `optgap`
    /// report.
    pub cutoffs: u64,
    /// Retry rungs walked by [`FallbackPolicy::RetryReducedBudget`] after
    /// a budget cutoff, before the result degraded to the heuristic
    /// incumbent. Always 0 under the other policies.
    pub fallback_retries: u64,
}

impl SchedStats {
    /// Accumulates another call's counters.
    pub fn merge(&mut self, other: &SchedStats) {
        self.trial_cycles += other.trial_cycles;
        self.attempts += other.attempts;
        self.rollbacks += other.rollbacks;
        self.placements += other.placements;
        self.cutoffs += other.cutoffs;
        self.fallback_retries += other.fallback_retries;
    }
}

/// Options for [`schedule_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct ScheduleOptions {
    /// Cluster-assignment policy.
    pub policy: ClusterPolicy,
    /// A tighten-only II ceiling: the search stops at
    /// `min(max_ii, 2 × MII + 96)`, so `Some(x)` can only shorten the
    /// default II range, never extend it (the way
    /// [`ScheduleOptions::cost_ceiling`] composes with the node budget).
    /// `None` (the default) searches up to `2 × MII + 96`; a ceiling below
    /// the MII fails with [`ScheduleError::NoSchedule`] before any
    /// placement attempt.
    pub max_ii: Option<u32>,
    /// Circuit-enumeration safety caps.
    pub enum_limits: EnumLimits,
    /// Which [`SchedulerBackend`] runs the kernel → [`Schedule`]
    /// transformation (default [`SchedBackend::SwingModulo`], the paper's
    /// pipeline).
    pub backend: SchedBackend,
    /// Base node budget for the exact backend: candidate placements it
    /// may explore across all II levels of one call before reporting a
    /// cutoff. With [`ScheduleOptions::adaptive_budget`] set (the
    /// default) this base is scaled by kernel size; see
    /// [`ExactBnB::resolved_node_budget`]. Ignored by heuristic backends.
    pub node_budget: u64,
    /// Scale [`ScheduleOptions::node_budget`] by kernel size
    /// (`ops × II search range`, the ROADMAP's adaptive-budget item) so
    /// big unrolled kernels get proportional search effort instead of the
    /// flat default. Kernels at or below the reference size keep the base
    /// budget exactly, so small-suite results are unchanged.
    pub adaptive_budget: bool,
    /// Deterministic per-call deadline for the exact backend: a hard
    /// ceiling on candidate cells examined, composed by `min` with the
    /// resolved node budget (so a caller-supplied deadline can only
    /// tighten the search, never extend it). Node counts, not wall-clock:
    /// the same request hits the same deadline on any machine. `None`
    /// (the default) leaves the node budget alone. Ignored by heuristic
    /// backends.
    pub cost_ceiling: Option<u64>,
    /// What the exact backend does when the deadline runs out before the
    /// II question is decided (default [`FallbackPolicy::Heuristic`], the
    /// historical serve-the-incumbent behavior). Ignored by heuristic
    /// backends.
    pub fallback: FallbackPolicy,
    /// The [`DelayTracking`] backend's latency knob: `None` schedules
    /// each load at the *expectation* of its measured latency
    /// distribution, `Some(p)` at the p-th percentile (`p ∈ [0, 1]`;
    /// higher = more conservative, fewer broken promises, larger II).
    /// Ignored by the other backends.
    pub delay_percentile: Option<f64>,
}

impl ScheduleOptions {
    /// Options for the given policy with default limits.
    pub fn new(policy: ClusterPolicy) -> Self {
        ScheduleOptions {
            policy,
            max_ii: None,
            enum_limits: EnumLimits::default(),
            backend: SchedBackend::SwingModulo,
            node_budget: DEFAULT_NODE_BUDGET,
            adaptive_budget: true,
            cost_ceiling: None,
            fallback: FallbackPolicy::Heuristic,
            delay_percentile: None,
        }
    }

    /// The same options routed through a different backend.
    pub fn with_backend(mut self, backend: SchedBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions::new(ClusterPolicy::Free)
    }
}

/// Modulo-schedules `kernel` for `machine`.
///
/// Dispatches to the backend selected by [`ScheduleOptions::backend`]
/// (default: [`SwingModulo`], the paper's §4.3.1 pipeline of latency
/// assignment, SMS node ordering, then cluster assignment + scheduling at
/// increasing II). The cluster-assignment policy is resolved through
/// [`ClusterPolicy::assigner`] — see [`ClusterAssign`] for that extension
/// seam, and [`SchedulerBackend`] for the whole-pipeline seam.
///
/// # Errors
///
/// [`ScheduleError::EmptyKernel`] for empty kernels,
/// [`ScheduleError::NoSchedule`] if no legal schedule exists up to the II
/// limit (pathological resource pressure), and
/// [`ScheduleError::SearchCutoff`] when an exact backend exhausts its node
/// budget with no schedule at all.
pub fn schedule_kernel(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: ScheduleOptions,
) -> Result<Schedule, ScheduleError> {
    schedule_outcome(kernel, machine, options).map(|o| o.schedule)
}

/// [`schedule_kernel`] returning the full [`ScheduleOutcome`] — schedule,
/// work counters and the backend's quality claim (heuristic / proven
/// optimal / cutoff). This is the entry point callers use when the
/// distinction matters; [`schedule_kernel`] discards all but the schedule.
///
/// # Errors
///
/// Same as [`schedule_kernel`].
pub fn schedule_outcome(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: ScheduleOptions,
) -> Result<ScheduleOutcome, ScheduleError> {
    schedule_outcome_traced(kernel, machine, options, Trace::off())
}

/// [`schedule_outcome`] with a [`Trace`] handle attached: the backend's
/// per-stage spans and telemetry go to the handle's sink. With
/// [`Trace::off`] (what [`schedule_outcome`] passes) every probe reduces
/// to a skipped branch and the call is behaviorally identical.
///
/// # Errors
///
/// Same as [`schedule_kernel`].
pub fn schedule_outcome_traced(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: ScheduleOptions,
    trace: Trace<'_>,
) -> Result<ScheduleOutcome, ScheduleError> {
    // checked at the dispatch point so every backend — current and
    // future — honors the EmptyKernel contract structurally
    if kernel.ops.is_empty() {
        return Err(ScheduleError::EmptyKernel);
    }
    options
        .backend
        .backend()
        .schedule(kernel, machine, &options, trace)
}

/// The front-end's output as a self-contained public snapshot: what an
/// *external* solver needs to restate the placement problem — MII
/// bounds, the policy's cluster pins, and the latency assignment (whose
/// [`LatencyAssignment::edge_latency`](crate::latency::LatencyAssignment)
/// prices every dependence edge). Code outside the crate that restates
/// or audits the placement problem — a solver, a stage-by-stage replica
/// of the front-end — reads it from here instead of re-running the
/// stages.
#[derive(Debug, Clone)]
pub struct ScheduleProblem {
    /// Resource-constrained MII component.
    pub res_mii: u32,
    /// Recurrence-constrained MII component.
    pub rec_mii: u32,
    /// `max(res, rec, 1)` — the II search floor.
    pub mii: u32,
    /// The II search ceiling: `2 × MII + 96`, lowered to
    /// `options.max_ii` when that is smaller.
    pub max_ii: u32,
    /// Per-op cluster pins known before scheduling (IPBC / NoChains).
    pub pins: Vec<Option<usize>>,
    /// The §4.3.3 latency assignment the backends schedule against.
    pub latencies: LatencyAssignment,
    /// SMS placement order (documentation of the heuristic's search
    /// order; an external solver is free to ignore it).
    pub order: Vec<OpId>,
}

/// Runs the shared front-end and returns its output as a public
/// [`ScheduleProblem`] snapshot (see there).
pub fn schedule_problem(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
) -> ScheduleProblem {
    let (_, prep) = prepare(kernel, machine, options, Trace::off());
    ScheduleProblem {
        res_mii: prep.res,
        rec_mii: prep.rec,
        mii: prep.mii0,
        max_ii: prep.max_ii,
        pins: prep.pins,
        latencies: prep.latencies,
        order: prep.order,
    }
}

/// The shared §4.3.1 front-end every backend runs before placement:
/// circuits → policy pins → latency assignment → MII bounds → SMS node
/// ordering. Extracted so [`SwingModulo`] and [`ExactBnB`] prepare
/// bit-identically (same latencies, same MII, same order) and differ only
/// in how they search the placement space. `Clone` so the exact backend
/// runs its heuristic incumbent off the same preparation instead of
/// recomputing it.
#[derive(Clone)]
pub(crate) struct Prep {
    /// Memory dependent chains (§4.3.2).
    pub chains: MemChains,
    /// Per-op cluster pins known before scheduling (IPBC / NoChains).
    pub pins: Vec<Option<usize>>,
    /// The latency assignment (§4.3.3) computed against those pins.
    pub latencies: LatencyAssignment,
    /// Resource-constrained MII component.
    pub res: u32,
    /// Recurrence-constrained MII component.
    pub rec: u32,
    /// `max(res, rec, 1)` — the II search floor.
    pub mii0: u32,
    /// The II search ceiling: `2 × MII + 96`, lowered to
    /// `options.max_ii` when that is smaller.
    pub max_ii: u32,
    /// SMS placement order.
    pub order: Vec<OpId>,
}

/// Runs the front-end for `kernel`. The returned [`Ddg`] borrows the
/// kernel's edge list. Each stage runs under a span — `prepare.ddg`,
/// `prepare.circuits`, `prepare.chains`, `prepare.pins`,
/// `prepare.latency`, `prepare.mii` (whose close carries the resolved
/// bounds) and `prepare.order`; with [`Trace::off`] each span is two
/// skipped branches.
pub(crate) fn prepare<'k>(
    kernel: &'k LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
    trace: Trace<'_>,
) -> (Ddg<'k>, Prep) {
    let ddg = {
        let _s = trace.span("prepare.ddg");
        Ddg::build(kernel)
    };
    let circuits = {
        let _s = trace.span("prepare.circuits");
        elementary_circuits(&ddg, options.enum_limits)
    };
    let chains = {
        let _s = trace.span("prepare.chains");
        MemChains::build(kernel)
    };
    let assigner = options.policy.assigner();

    // pre-computed pins (IPBC / NoChains) — known before scheduling, so
    // the latency assignment can estimate stall against the real cluster
    let n = machine.clusters.n_clusters;
    let pins = {
        let _s = trace.span("prepare.pins");
        assigner.precompute_pins(kernel, &chains, n)
    };

    // the latency model is the one front-end stage backends may replace:
    // the delay-tracking backend schedules loads at measured expected /
    // percentile latencies instead of running the §4.3.3 class reduction
    let latencies = {
        let _s = trace.span("prepare.latency");
        match options.backend {
            SchedBackend::DelayTracking => crate::latency::assign_profiled_latencies(
                kernel,
                &ddg,
                machine,
                &pins,
                options.delay_percentile,
            ),
            _ => {
                crate::latency::assign_latencies_with_pins(kernel, &ddg, machine, &circuits, &pins)
            }
        }
    };

    let _mii_span = trace.span("prepare.mii");
    let res = mii::res_mii(kernel, machine);
    let rec = mii::rec_mii(&ddg, |op| latencies.latency_of(op));
    let mii0 = res.max(rec).max(1);
    let max_ii = (2 * mii0 + 96).min(options.max_ii.unwrap_or(u32::MAX));
    if trace.on() {
        trace.instant(
            "prepare.mii.bounds",
            &[
                ("res", res as f64),
                ("rec", rec as f64),
                ("mii", mii0 as f64),
                ("max_ii", max_ii as f64),
            ],
        );
    }
    drop(_mii_span);

    let order = {
        let _s = trace.span("prepare.order");
        sms_order(&ddg, &circuits, |op| latencies.latency_of(op))
    };
    (
        ddg,
        Prep {
            chains,
            pins,
            latencies,
            res,
            rec,
            mii0,
            max_ii,
            order,
        },
    )
}

/// The Swing-Modulo-Scheduling placement behind every swing-based backend:
/// over an already-computed front-end, one no-backtracking placement pass
/// per II, with up to six hoist-and-retry reorderings per II. The exact
/// backend runs its incumbent through here off its own preparation, so
/// the front-end runs once per call, not once per backend.
///
/// # Errors
///
/// [`ScheduleError::NoSchedule`] if no II up to the limit fits — at once,
/// with no table built and no attempt run, when the limit is below the
/// MII.
pub(crate) fn swing_with_prep(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    policy: ClusterPolicy,
    ddg: &Ddg<'_>,
    prep: Prep,
    trace: Trace<'_>,
) -> Result<(Schedule, SchedStats), ScheduleError> {
    let mut stats = SchedStats::default();
    let Prep {
        chains,
        pins,
        latencies,
        res,
        rec,
        mii0,
        max_ii,
        order,
    } = prep;
    if max_ii < mii0 {
        // a caller's ceiling below the floor: nothing to try
        return Err(ScheduleError::NoSchedule {
            loop_name: kernel.name.clone(),
            max_ii,
        });
    }
    let assigner = policy.assigner();

    // Span granularity stops here: probes wrap whole placement attempts,
    // never the inside of `TryState::run`, so the zero-allocation hot loop
    // is byte-identical with or without a sink attached.
    let _backend_span = if trace.on() {
        Some(trace.span_with(
            "backend.swing",
            &[("mii", mii0 as f64), ("max_ii", max_ii as f64)],
        ))
    } else {
        None
    };

    let mut scratch = Scratch::new(machine);
    let mut attempt_order: Vec<OpId> = Vec::with_capacity(order.len());
    for ii in mii0..=max_ii {
        // Up to six placement attempts per II: when an op cannot be
        // placed (its window was squeezed shut by loosely-connected
        // neighbors anchored earlier), hoist it to the front of the order
        // and retry — the constraint then lands on the neighbors, whose
        // loop-carried edges leave II-wide slack. This keeps the scheduler
        // backtracking-free per attempt while avoiding the pathological
        // II inflation of a single rigid order.
        attempt_order.clear();
        attempt_order.extend_from_slice(&order);
        for _retry in 0..6 {
            stats.attempts += 1;
            if trace.on() {
                trace.instant(
                    "swing.attempt",
                    &[("ii", ii as f64), ("retry", _retry as f64)],
                );
            }
            let attempt = TryState {
                kernel,
                ddg,
                machine,
                latencies: &latencies,
                chains: &chains,
                assigner,
                pins: &pins,
                order: &attempt_order,
            };
            match attempt.run(ii, &mut scratch, &mut stats) {
                Ok((ops, copies)) => {
                    if trace.on() {
                        trace.instant(
                            "swing.found",
                            &[
                                ("ii", ii as f64),
                                ("placements", stats.placements as f64),
                                ("trial_cycles", stats.trial_cycles as f64),
                            ],
                        );
                    }
                    return Ok((
                        Schedule {
                            ii,
                            ops,
                            copies,
                            mii: mii0,
                            res_mii: res,
                            rec_mii: rec,
                            latencies,
                        },
                        stats,
                    ));
                }
                Err(failed) => {
                    let pos = attempt_order
                        .iter()
                        .position(|&o| o == failed)
                        .expect("in order");
                    if pos == 0 {
                        break; // already first: retries cannot help
                    }
                    attempt_order.remove(pos);
                    attempt_order.insert(0, failed);
                }
            }
        }
    }
    Err(ScheduleError::NoSchedule {
        loop_name: kernel.name.clone(),
        max_ii,
    })
}

struct TryState<'a> {
    kernel: &'a LoopKernel,
    ddg: &'a Ddg<'a>,
    machine: &'a MachineConfig,
    latencies: &'a LatencyAssignment,
    chains: &'a MemChains,
    assigner: &'a dyn ClusterAssign,
    pins: &'a [Option<usize>],
    order: &'a [OpId],
}

/// The engine's reusable workspace: every vector the placement loop needs,
/// owned across attempts and II bumps. Buffers are cleared (`clear`) but
/// never shrunk, so after the first attempt the steady state allocates
/// nothing.
struct Scratch {
    /// The live partial schedule, reset per attempt.
    partial: PartialSchedule,
    assign_state: AssignState,
    // per-op buffers
    nbrs: Neighbors,
    nbr_preds: Vec<Neighbor>,
    nbr_succs: Vec<Neighbor>,
    candidates: Vec<usize>,
}

impl Scratch {
    fn new(machine: &MachineConfig) -> Self {
        Scratch {
            partial: PartialSchedule::new(machine),
            assign_state: AssignState::default(),
            nbrs: Neighbors::default(),
            nbr_preds: Vec::new(),
            nbr_succs: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl TryState<'_> {
    /// One no-backtracking placement attempt; `Err` carries the op that
    /// could not be placed.
    fn run(
        &self,
        ii: u32,
        scratch: &mut Scratch,
        stats: &mut SchedStats,
    ) -> Result<(Vec<ScheduledOp>, Vec<ScheduledCopy>), OpId> {
        let n = self.machine.clusters.n_clusters;
        scratch
            .partial
            .reset(ii, self.kernel.ops.len(), self.machine);
        scratch.assign_state.chain_pin.clear();
        let transfer = scratch.partial.transfer();

        for &op_id in self.order {
            let kind = self.kernel.op(op_id).fu_kind();
            let lat_self = self.latencies.latency_of(op_id) as i64;
            scratch
                .nbrs
                .gather(self.ddg, self.latencies, &scratch.partial.placed, op_id);

            // candidate clusters, chosen by the policy
            let as_neighbor = |p: &Nbr| Neighbor {
                other: p.other,
                cluster: p.other_cluster,
                regflow: p.regflow,
            };
            scratch.nbr_preds.clear();
            scratch
                .nbr_preds
                .extend(scratch.nbrs.preds.iter().map(as_neighbor));
            scratch.nbr_succs.clear();
            scratch
                .nbr_succs
                .extend(scratch.nbrs.succs.iter().map(as_neighbor));
            // the context borrows the mutable bookkeeping immutably, so it
            // is rebuilt at each policy call site instead of held across
            // the placement scan
            macro_rules! assign_ctx {
                ($ctx:ident) => {
                    let copies = &scratch.partial.copies;
                    let has_copy = |producer: OpId, cluster: usize| copies.has(producer, cluster);
                    let $ctx = AssignContext {
                        kernel: self.kernel,
                        chains: self.chains,
                        n_clusters: n,
                        preds: &scratch.nbr_preds,
                        succs: &scratch.nbr_succs,
                        has_copy: &has_copy,
                        load_count: &scratch.partial.per_cluster,
                    };
                };
            }
            {
                assign_ctx!(ctx);
                self.assigner.candidates_into(
                    op_id,
                    &ctx,
                    self.pins,
                    &scratch.assign_state,
                    &mut scratch.candidates,
                );
            }

            // first fit: the first cluster in the policy's ranking, and
            // the first free cell in its window, where the op and its
            // copies fit; `trial_cycles` counts the free cells probed
            let fits = 'fit: {
                for ci in 0..scratch.candidates.len() {
                    let cluster = scratch.candidates[ci];
                    let Some(mut window) = scratch.nbrs.window(cluster, i64::from(ii), transfer)
                    else {
                        continue;
                    };
                    while let Some(cycle) = window.next_free(&scratch.partial.mrt, cluster, kind) {
                        stats.trial_cycles += 1;
                        let at = Placement { cluster, cycle };
                        if scratch
                            .partial
                            .try_place(&scratch.nbrs, op_id, kind, lat_self, at)
                            .is_none()
                        {
                            stats.rollbacks += 1;
                            continue;
                        }
                        stats.placements += 1;
                        assign_ctx!(ctx);
                        self.assigner
                            .commit(op_id, cluster, &ctx, &mut scratch.assign_state);
                        break 'fit true;
                    }
                }
                false
            };
            if !fits {
                return Err(op_id);
            }
        }
        Ok(scratch.partial.finish(self.latencies))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, DepKind, KernelBuilder, Opcode};
    use vliw_trace::RecordingSink;

    /// A load → add → store recurrence (MII above 1).
    fn recurrence() -> LoopKernel {
        let mut b = KernelBuilder::new("rec");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 512, 4, 4, w);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        b.finish(64.0)
    }

    fn options(backend: SchedBackend, max_ii: Option<u32>) -> ScheduleOptions {
        ScheduleOptions {
            max_ii,
            ..ScheduleOptions::new(ClusterPolicy::BuildChains).with_backend(backend)
        }
    }

    #[test]
    fn max_ii_above_the_default_is_the_default() {
        let (k, m) = (recurrence(), MachineConfig::word_interleaved_4());
        for backend in [SchedBackend::SwingModulo, SchedBackend::DelayTracking] {
            let free = options(backend, None);
            let default = schedule_problem(&k, &m, &free).max_ii;
            assert!(default > 96);
            let reference = schedule_outcome(&k, &m, free).unwrap();
            for x in [default, default + 1, u32::MAX] {
                let capped = options(backend, Some(x));
                assert_eq!(schedule_problem(&k, &m, &capped).max_ii, default);
                let o = schedule_outcome(&k, &m, capped).unwrap();
                assert_eq!(o.schedule, reference.schedule);
                assert_eq!(o.stats, reference.stats);
            }
        }
    }

    #[test]
    fn max_ii_at_the_found_ii_keeps_the_answer() {
        let (k, m) = (recurrence(), MachineConfig::word_interleaved_4());
        let reference = schedule_outcome(&k, &m, options(SchedBackend::SwingModulo, None)).unwrap();
        let ii = reference.schedule.ii;
        let at = schedule_outcome(&k, &m, options(SchedBackend::SwingModulo, Some(ii))).unwrap();
        assert_eq!(at.schedule, reference.schedule);
        assert_eq!(at.stats, reference.stats);
        if ii > reference.schedule.mii {
            let below = schedule_outcome(&k, &m, options(SchedBackend::SwingModulo, Some(ii - 1)));
            assert!(matches!(below, Err(ScheduleError::NoSchedule { .. })));
        }
    }

    #[test]
    fn max_ii_below_the_mii_fails_before_any_attempt() {
        let (k, m) = (recurrence(), MachineConfig::word_interleaved_4());
        let mii = schedule_problem(&k, &m, &options(SchedBackend::SwingModulo, None)).mii;
        assert!(mii > 1);
        for backend in [SchedBackend::SwingModulo, SchedBackend::DelayTracking] {
            for x in [0, mii - 1] {
                let sink = RecordingSink::logical();
                let err =
                    schedule_outcome_traced(&k, &m, options(backend, Some(x)), Trace::new(&sink))
                        .unwrap_err();
                assert_eq!(
                    err,
                    ScheduleError::NoSchedule {
                        loop_name: "rec".into(),
                        max_ii: x
                    }
                );
                // the front-end ran; the placement loop (its span, its
                // scratch table, its attempts) never started
                let events = sink.events();
                assert!(events.iter().any(|e| e.name == "prepare.order"));
                assert!(!events
                    .iter()
                    .any(|e| e.name == "backend.swing" || e.name == "swing.attempt"));
            }
        }
    }
}
