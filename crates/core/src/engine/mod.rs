//! The scheduling engine: cluster assignment and slot placement in a single
//! step (§4.2 and §4.3.1 step 4), with no backtracking — any failure bumps
//! the II and restarts, exactly as the paper describes.
//!
//! The paper's four cluster-assignment policies are the arms of
//! [`ClusterPolicy`], and the engine matches on it directly. They differ
//! in two ways only: which pins are known before scheduling
//! ([`ClusterPolicy::precompute_pins`]), and IBC's rule that a memory
//! chain follows the cluster of its first-placed member. Every op left
//! unpinned takes the §4.2 communication/balance ranking. The exact
//! backend (the private `bnb` module) states the same pins and the same
//! chain rule as hard constraints, so its optimum is the policy's.
//!
//! # Hot-loop data layout
//!
//! The II loop restarts the whole placement pipeline on every bump, so the
//! engine is built for zero steady-state allocation: every trial opens a
//! savepoint of the modulo reservation table (the private `mrt` module's
//! `Mrt`) and a failed one rolls back to it
//! (no table clones), candidate cycles come from the table's
//! word-parallel free-mask walk (occupied stretches are skipped a `u64`
//! word at a time and never counted as trial work), and all per-attempt /
//! per-op vectors live in one private `Scratch` workspace that is cleared
//! — never reallocated — across attempts. The window, copy routing and
//! normalisation live in the private `place` module, which the exact
//! backend (the private `bnb` module) runs too. The placement loop's
//! output is pinned by golden digests (`tests/schedule_golden.rs`,
//! `tests/mrt_impl_equivalence.rs`, `tests/mrt_txn_equivalence.rs`, and
//! `tests/backend_golden.rs` for the exact backend).
//!
//! Whole pipelines are chosen one level up: [`SchedBackend`] names them
//! and [`schedule_outcome_traced`] matches on it.

mod backend;
mod bnb;
mod place;

use vliw_ir::{Ddg, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use crate::chains::MemChains;
use crate::circuits::{elementary_circuits, EnumLimits};
use crate::latency::LatencyAssignment;
use crate::mii;
use crate::order::sms_order;
use crate::schedule::{Schedule, ScheduleError, ScheduledCopy, ScheduledOp};

pub use backend::{FallbackPolicy, SchedBackend, SchedQuality, ScheduleOutcome};
pub use bnb::DEFAULT_NODE_BUDGET;

use place::{Nbr, Neighbors, PartialSchedule, Placement};

/// How memory instructions are assigned to clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterPolicy {
    /// BASE (§4.2): memory ops are placed like any other op — best
    /// communication/balance trade-off, no chain constraint and no pins.
    /// Only memory-correct where the cache serializes accesses globally:
    /// the unified-cache and multiVLIW machines.
    Free,
    /// IBC — Interleaved Build Chains (§4.3.2): memory ops use the
    /// communication/balance heuristic, but all members of a memory
    /// dependent chain follow the cluster chosen for the chain's
    /// first-scheduled member. Profile information is not consulted.
    BuildChains,
    /// IPBC — Interleaved Pre-Build Chains (§4.3.2): chains are computed
    /// before scheduling and pinned to their average preferred cluster
    /// (each member votes with its profiled preferred cluster; ties go to
    /// the lowest-numbered cluster). Chains with no profile data, and all
    /// non-memory ops, take the communication/balance heuristic.
    PreBuildChains,
    /// Analysis-only ablation (Figures 4 and 7, fourth/third bars): every
    /// memory op goes to its own preferred cluster, ignoring chains.
    /// **Not correct for execution** — used to quantify the cost of chains.
    NoChains,
}

impl ClusterPolicy {
    /// Short policy name (report labels, bench metrics, CSV keys).
    pub fn name(&self) -> &'static str {
        match self {
            ClusterPolicy::Free => "BASE",
            ClusterPolicy::BuildChains => "IBC",
            ClusterPolicy::PreBuildChains => "IPBC",
            ClusterPolicy::NoChains => "no-chains",
        }
    }

    /// The policy itself; kept so existing `policy.assigner().name()`
    /// and `policy.assigner().precompute_pins(..)` call chains still
    /// compile.
    #[doc(hidden)]
    pub fn assigner(self) -> ClusterPolicy {
        self
    }

    /// Per-op cluster pins known before scheduling starts; `None` entries
    /// are assigned while scheduling. They also steer the latency
    /// assignment, which estimates stall against the pinned cluster.
    ///
    /// BASE and IBC pin nothing up front. IPBC pins every member of a
    /// chain to the chain's vote ([`MemChains::preferred_cluster`]). The
    /// ablation pins each memory op to its own preferred cluster, clamped
    /// to the machine.
    pub fn precompute_pins(
        &self,
        kernel: &LoopKernel,
        chains: &MemChains,
        n_clusters: usize,
    ) -> Vec<Option<usize>> {
        let mut pins = vec![None; kernel.ops.len()];
        match self {
            ClusterPolicy::Free | ClusterPolicy::BuildChains => {}
            ClusterPolicy::PreBuildChains => {
                for (cid, members) in chains.iter() {
                    if let Some(c) = chains.preferred_cluster(cid, kernel, n_clusters) {
                        for &m in members {
                            pins[m.index()] = Some(c);
                        }
                    }
                }
            }
            ClusterPolicy::NoChains => {
                for op in kernel.mem_ops() {
                    if let Some(c) = op.mem.as_ref().and_then(|m| m.preferred_cluster()) {
                        pins[op.id.index()] = Some(c.min(n_clusters - 1));
                    }
                }
            }
        }
        pins
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
}

impl SchedStats {
    /// Accumulates another call's counters.
    pub fn merge(&mut self, other: &SchedStats) {
        self.trial_cycles += other.trial_cycles;
        self.attempts += other.attempts;
        self.rollbacks += other.rollbacks;
        self.placements += other.placements;
        self.cutoffs += other.cutoffs;
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
    /// Which backend runs the kernel → [`Schedule`] transformation
    /// (default [`SchedBackend::SwingModulo`], the paper's pipeline).
    pub backend: SchedBackend,
    /// Deterministic per-call deadline for the exact backend: a hard
    /// ceiling on candidate cells examined, composed by `min` with the
    /// size-scaled node budget (so a caller-supplied deadline can only
    /// tighten the search, never extend it). Node counts, not wall-clock:
    /// the same request hits the same deadline on any machine. `None`
    /// (the default) leaves the node budget alone. Ignored by heuristic
    /// backends.
    pub cost_ceiling: Option<u64>,
    /// Ignored; set only by the frozen perfbench replica, removed with the benchmark-edit change.
    #[doc(hidden)]
    pub fallback: FallbackPolicy,
    /// Ignored; set only by the frozen perfbench replica, removed with the benchmark-edit change.
    #[doc(hidden)]
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
/// Runs the backend selected by [`ScheduleOptions::backend`] (default:
/// [`SchedBackend::SwingModulo`], the paper's §4.3.1 pipeline of latency
/// assignment, SMS node ordering, then cluster assignment + scheduling at
/// increasing II) under the [`ClusterPolicy`] in
/// [`ScheduleOptions::policy`]; see [`schedule_outcome_traced`] for the
/// backend dispatch.
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
/// This is the one backend dispatch. The swing backend runs the front-end
/// and then the swing placement pass; the exact backend opens its
/// `backend.bnb` span before running the same front-end.
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
    if kernel.ops.is_empty() {
        return Err(ScheduleError::EmptyKernel);
    }
    match options.backend {
        SchedBackend::SwingModulo => {
            let (ddg, prep) = prepare(kernel, machine, &options, trace);
            swing_with_prep(kernel, machine, options.policy, &ddg, prep, trace).map(
                |(schedule, stats)| ScheduleOutcome {
                    schedule,
                    stats,
                    quality: SchedQuality::Heuristic,
                    max_live: None,
                },
            )
        }
        SchedBackend::ExactBnB => bnb::schedule(kernel, machine, &options, trace),
    }
}

/// The shared §4.3.1 front-end's output: circuits → policy pins → latency
/// assignment → MII bounds → SMS node ordering. Every backend schedules
/// against it, so the swing and exact backends prepare bit-identically
/// and differ only in how they search the placement space.
///
/// It is also what an *external* solver needs to restate the placement
/// problem — MII bounds, the policy's cluster pins, the memory chains
/// IBC co-locates, and the latency assignment (whose
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
    /// Memory dependent chains (§4.3.2); under IBC every member of a
    /// chain shares the cluster of its first-placed member.
    pub chains: MemChains,
    /// The §4.3.3 latency assignment the backends schedule against.
    pub latencies: LatencyAssignment,
    /// SMS placement order (documentation of the heuristic's search
    /// order; an external solver is free to ignore it).
    pub order: Vec<OpId>,
}

/// Runs the shared front-end and returns its output (see
/// [`ScheduleProblem`]).
pub fn schedule_problem(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
) -> ScheduleProblem {
    prepare(kernel, machine, options, Trace::off()).1
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
) -> (Ddg<'k>, ScheduleProblem) {
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

    // pre-computed pins (IPBC / NoChains) — known before scheduling, so
    // the latency assignment can estimate stall against the real cluster
    let pins = {
        let _s = trace.span("prepare.pins");
        options
            .policy
            .precompute_pins(kernel, &chains, machine.clusters.n_clusters)
    };

    let latencies = {
        let _s = trace.span("prepare.latency");
        crate::latency::assign_latencies_with_pins(kernel, &ddg, machine, &circuits, &pins)
    };

    let _mii_span = trace.span("prepare.mii");
    let res_mii = mii::res_mii(kernel, machine);
    let rec_mii = mii::rec_mii(&ddg, |op| latencies.latency_of(op));
    let mii = res_mii.max(rec_mii).max(1);
    let max_ii = (2 * mii + 96).min(options.max_ii.unwrap_or(u32::MAX));
    if trace.on() {
        trace.instant(
            "prepare.mii.bounds",
            &[
                ("res", res_mii as f64),
                ("rec", rec_mii as f64),
                ("mii", mii as f64),
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
        ScheduleProblem {
            res_mii,
            rec_mii,
            mii,
            max_ii,
            pins,
            chains,
            latencies,
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
    prep: ScheduleProblem,
    trace: Trace<'_>,
) -> Result<(Schedule, SchedStats), ScheduleError> {
    let mut stats = SchedStats::default();
    let ScheduleProblem {
        res_mii,
        rec_mii,
        mii,
        max_ii,
        pins,
        chains,
        latencies,
        order,
    } = prep;
    if max_ii < mii {
        // a caller's ceiling below the floor: nothing to try
        return Err(ScheduleError::NoSchedule {
            loop_name: kernel.name.clone(),
            max_ii,
        });
    }

    // Span granularity stops here: probes wrap whole placement attempts,
    // never the inside of `TryState::run`, so the zero-allocation hot loop
    // is byte-identical with or without a sink attached.
    let _backend_span = if trace.on() {
        Some(trace.span_with(
            "backend.swing",
            &[("mii", mii as f64), ("max_ii", max_ii as f64)],
        ))
    } else {
        None
    };

    let mut scratch = Scratch::new(machine);
    let mut attempt_order: Vec<OpId> = Vec::with_capacity(order.len());
    for ii in mii..=max_ii {
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
                policy,
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
                            mii,
                            res_mii,
                            rec_mii,
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
    policy: ClusterPolicy,
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
    /// Per chain: the cluster its first-placed member took (IBC's pin),
    /// reset per attempt.
    chain_pin: Vec<Option<usize>>,
    // per-op buffers
    nbrs: Neighbors,
    candidates: Vec<usize>,
}

impl Scratch {
    fn new(machine: &MachineConfig) -> Self {
        Scratch {
            partial: PartialSchedule::new(machine),
            chain_pin: Vec::new(),
            nbrs: Neighbors::default(),
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
        scratch
            .partial
            .reset(ii, self.kernel.ops.len(), self.machine);
        scratch.chain_pin.clear();
        scratch.chain_pin.resize(self.chains.len(), None);
        let ibc = self.policy == ClusterPolicy::BuildChains;
        let transfer = scratch.partial.transfer();

        for &op_id in self.order {
            let kind = self.kernel.op(op_id).fu_kind();
            let lat_self = self.latencies.latency_of(op_id) as i64;
            scratch
                .nbrs
                .gather(self.ddg, self.latencies, &scratch.partial.placed, op_id);

            // candidate clusters: the op's pin, or under IBC its chain's
            // pin, or else the communication/balance ranking
            let ibc_chain = self.chains.chain_id(op_id).filter(|_| ibc);
            let pin = self.pins[op_id.index()]
                .or_else(|| ibc_chain.and_then(|cid| scratch.chain_pin[cid]));
            scratch.candidates.clear();
            match pin {
                Some(c) => scratch.candidates.push(c),
                None => {
                    let copies = &scratch.partial.copies;
                    rank_clusters(
                        &scratch.nbrs.preds,
                        &scratch.nbrs.succs,
                        |producer, cluster| copies.has(producer, cluster),
                        &scratch.partial.per_cluster,
                        &mut scratch.candidates,
                    );
                }
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
                        if let Some(cid) = ibc_chain {
                            scratch.chain_pin[cid].get_or_insert(cluster);
                        }
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

/// The most clusters [`rank_clusters`] can rank: it scores clusters into
/// a stack array of this length and tracks successor clusters in a `u32`
/// bitmask. Every paper machine has 4 clusters, and the default cache
/// geometry (32-byte blocks, 4-byte interleaving) validates at most 8.
const MAX_RANKED_CLUSTERS: usize = 32;

/// The §4.2 communication/balance ranking of every cluster for an op
/// with placed neighbors `preds` and `succs`, written into `out` (cleared
/// first): prefer the cluster that (1) needs the fewest new inter-cluster
/// copies, then (2) holds the most register-flow neighbors (affinity),
/// then (3) has the lightest workload (`load_count`, one entry per
/// cluster), then (4) the lowest index. `has_copy(producer, cluster)`
/// says whether a copy of `producer`'s value already reaches `cluster`.
///
/// Each cluster is scored once — one walk of the predecessors per
/// cluster for the copy check, per-cluster affinity counts and a bitmask
/// of successor clusters shared by all of them — and the
/// `(score, cluster)` pairs are sorted. The pair is a total order, so the
/// ranking does not depend on the sort's stability.
///
/// # Panics
///
/// If there are more than 32 clusters.
fn rank_clusters(
    preds: &[Nbr],
    succs: &[Nbr],
    has_copy: impl Fn(OpId, usize) -> bool,
    load_count: &[usize],
    out: &mut Vec<usize>,
) {
    let n = load_count.len();
    assert!(
        n <= MAX_RANKED_CLUSTERS,
        "the cluster ranking supports at most {MAX_RANKED_CLUSTERS} clusters, got {n}"
    );
    // register-flow neighbors per cluster, and the clusters that hold a
    // register-flow successor (one copy each when placed elsewhere)
    let mut affinity = [0isize; MAX_RANKED_CLUSTERS];
    let mut succ_clusters = 0u32;
    for s in succs.iter().filter(|s| s.regflow) {
        affinity[s.other_cluster] += 1;
        succ_clusters |= 1 << s.other_cluster;
    }
    for p in preds.iter().filter(|p| p.regflow) {
        affinity[p.other_cluster] += 1;
    }
    let mut keys = [((0usize, 0isize, 0usize), 0usize); MAX_RANKED_CLUSTERS];
    for (c, key) in keys[..n].iter_mut().enumerate() {
        // copies needed now if placed in c
        let mut need = (succ_clusters & !(1 << c)).count_ones() as usize;
        for p in preds {
            if p.regflow && p.other_cluster != c && !has_copy(p.other, c) {
                need += 1;
            }
        }
        *key = ((need, -affinity[c], load_count[c]), c);
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    out.clear();
    out.extend(keys.iter().map(|&(_, c)| c));
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;
    use crate::examples_443::{figure3_kernel, figure3_machine};
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
        let free = options(SchedBackend::SwingModulo, None);
        let default = schedule_problem(&k, &m, &free).max_ii;
        assert!(default > 96);
        let reference = schedule_outcome(&k, &m, free).unwrap();
        for x in [default, default + 1, u32::MAX] {
            let capped = options(SchedBackend::SwingModulo, Some(x));
            assert_eq!(schedule_problem(&k, &m, &capped).max_ii, default);
            let o = schedule_outcome(&k, &m, capped).unwrap();
            assert_eq!(o.schedule, reference.schedule);
            assert_eq!(o.stats, reference.stats);
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
        for x in [0, mii - 1] {
            let sink = RecordingSink::logical();
            let capped = options(SchedBackend::SwingModulo, Some(x));
            let err = schedule_outcome_traced(&k, &m, capped, Trace::new(&sink)).unwrap_err();
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

    #[test]
    fn swing_rejects_an_empty_kernel() {
        let k = KernelBuilder::new("empty").finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        let err = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free)).unwrap_err();
        assert_eq!(err, ScheduleError::EmptyKernel);
    }

    /// §4.3.3 worked example under BASE: the schedule is legal and reaches
    /// the MII of 8, but nothing keeps the n1–n2–n4 memory chain together —
    /// BASE is the unified/multiVLIW policy, where chains need no pinning.
    #[test]
    fn figure3_base_reaches_mii_with_no_chain_guarantee() {
        let (k, _) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        assert_eq!(s.ii, 8, "BASE also achieves the MII on Figure 3");
    }

    /// §4.3.3 worked example under IBC: the n1–n2–n4 chain stays together
    /// in whichever cluster its first-scheduled member landed, REC2's load
    /// n6 lands in the other cluster purely for balance, and the schedule
    /// reaches the MII of 8.
    #[test]
    fn figure3_ibc_keeps_chain_together_at_mii() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::BuildChains))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        let c = s.op(ops.n1).cluster;
        assert_eq!(s.op(ops.n2).cluster, c, "chain member n2 follows n1");
        assert_eq!(s.op(ops.n4).cluster, c, "chain member n4 follows n1");
        assert_ne!(
            s.op(ops.n6).cluster,
            c,
            "n6 balances into the other cluster"
        );
        assert_eq!(s.ii, 8, "schedule achieves the MII");
    }

    /// §4.3.3 worked example under IPBC: the n1–n2–n4 chain (preferences
    /// {0, 0, 1}) is pre-pinned to its average preferred cluster 0, n6 goes
    /// to its preferred cluster 1, and the schedule reaches the MII of 8.
    #[test]
    fn figure3_ipbc_pins_chain_to_average_preferred_cluster() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        assert_eq!(s.op(ops.n1).cluster, 0);
        assert_eq!(s.op(ops.n2).cluster, 0);
        assert_eq!(s.op(ops.n4).cluster, 0);
        assert_eq!(
            s.op(ops.n6).cluster,
            1,
            "n6 pinned to its preferred cluster"
        );
        assert_eq!(s.ii, 8, "schedule achieves the MII");
    }

    /// The precomputed pins match the chain votes directly; BASE and IBC
    /// pin nothing up front.
    #[test]
    fn figure3_precomputed_pins_follow_the_votes() {
        let (k, ops) = figure3_kernel();
        let chains = MemChains::build(&k);
        let pins = ClusterPolicy::PreBuildChains.precompute_pins(&k, &chains, 2);
        assert_eq!(pins[ops.n1.index()], Some(0));
        assert_eq!(pins[ops.n2.index()], Some(0));
        assert_eq!(
            pins[ops.n4.index()],
            Some(0),
            "outvoted member follows the chain"
        );
        assert_eq!(pins[ops.n6.index()], Some(1));
        assert_eq!(
            pins[ops.n3.index()],
            None,
            "non-memory ops are never pinned"
        );
        for policy in [ClusterPolicy::Free, ClusterPolicy::BuildChains] {
            let pins = policy.precompute_pins(&k, &chains, 2);
            assert_eq!(pins, vec![None; k.ops.len()], "{policy:?}");
        }
    }

    /// §4.3.3 worked example under the ablation: chain membership is
    /// ignored, so n4 (preference 1) splits away from n1/n2 (preference 0)
    /// — exactly the split the chain constraint exists to forbid.
    #[test]
    fn figure3_no_chains_splits_the_chain_to_preferences() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::NoChains))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty(), "resource/dependence legal");
        assert_eq!(s.op(ops.n1).cluster, 0);
        assert_eq!(s.op(ops.n2).cluster, 0);
        assert_eq!(s.op(ops.n4).cluster, 1, "n4 follows its own preference");
        assert_eq!(s.op(ops.n6).cluster, 1);
    }

    /// The ablation's pins come from per-op preferences, clamped to the
    /// machine.
    #[test]
    fn pins_are_per_op_preferences() {
        let (k, ops) = figure3_kernel();
        let chains = MemChains::build(&k);
        let pins = ClusterPolicy::NoChains.precompute_pins(&k, &chains, 2);
        assert_eq!(pins[ops.n1.index()], Some(0));
        assert_eq!(pins[ops.n2.index()], Some(0));
        assert_eq!(pins[ops.n4.index()], Some(1), "chain membership ignored");
        assert_eq!(pins[ops.n6.index()], Some(1));
    }

    /// A placed neighbor for the ranking tests (timing fields unused).
    fn nbr(other: usize, cluster: usize, regflow: bool) -> Nbr {
        Nbr {
            other: OpId::new(other),
            other_cluster: cluster,
            other_cycle: 0,
            lat: 0,
            dist: 0,
            regflow,
        }
    }

    fn ranked(
        preds: &[Nbr],
        succs: &[Nbr],
        has_copy: impl Fn(OpId, usize) -> bool,
        load_count: &[usize],
    ) -> Vec<usize> {
        // a stale buffer must be cleared, not appended to
        let mut out = vec![99, 98];
        rank_clusters(preds, succs, has_copy, load_count, &mut out);
        out
    }

    #[test]
    fn ranking_prefers_copy_free_then_affinity_then_balance() {
        let preds = [nbr(0, 2, true)];
        let ranked = ranked(&preds, &[], |_, _| false, &[5, 0, 3, 0]);
        // cluster 2 holds the producer: no copy needed AND affinity
        assert_eq!(ranked[0], 2);
        // the rest need one copy each; balance then index break the tie
        assert_eq!(ranked[1..], [1, 3, 0]);
    }

    #[test]
    fn existing_copy_removes_the_penalty() {
        let producer = OpId::new(0);
        // a copy of the producer's value already sits in cluster 1
        let has_copy = |op: OpId, c: usize| op == producer && c == 1;
        let preds = [nbr(0, 2, true)];
        let ranked = ranked(&preds, &[], has_copy, &[0, 0, 0, 0]);
        // cluster 2 wins on affinity; cluster 1 rides the existing copy
        assert_eq!(&ranked[..2], &[2, 1]);
    }

    /// The ranking as it stood before the single-pass scoring: a stable
    /// sort that re-scores a cluster on every comparison.
    fn rank_by_resorting(
        preds: &[Nbr],
        succs: &[Nbr],
        has_copy: &dyn Fn(OpId, usize) -> bool,
        load_count: &[usize],
    ) -> Vec<usize> {
        let mut cs: Vec<usize> = (0..load_count.len()).collect();
        let score = |c: usize| -> (usize, isize, usize) {
            let mut need = 0usize;
            let mut affinity = 0isize;
            for p in preds {
                if p.regflow {
                    if p.other_cluster != c {
                        if !has_copy(p.other, c) {
                            need += 1;
                        }
                    } else {
                        affinity += 1;
                    }
                }
            }
            let mut succ_clusters: Vec<usize> = Vec::new();
            for s in succs {
                if s.regflow {
                    if s.other_cluster != c {
                        if !succ_clusters.contains(&s.other_cluster) {
                            succ_clusters.push(s.other_cluster);
                            need += 1;
                        }
                    } else {
                        affinity += 1;
                    }
                }
            }
            (need, -affinity, load_count[c])
        };
        cs.sort_by_key(|&c| (score(c), c));
        cs
    }

    #[test]
    fn single_pass_ranking_matches_the_resorting_ranking() {
        // a deterministic LCG so every case is reproducible
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut out = Vec::new();
        for case in 0..4000 {
            let n = 1 + case % 8;
            let neighbors = |count: u64, next: &mut dyn FnMut(u64) -> u64| {
                (0..count)
                    .map(|_| {
                        // few producers, so one repeats across edges
                        let other = next(6) as usize;
                        let cluster = next(n as u64) as usize;
                        nbr(other, cluster, next(3) != 0)
                    })
                    .collect::<Vec<_>>()
            };
            let n_preds = next(7);
            let preds = neighbors(n_preds, &mut next);
            // successors pile onto few clusters: several share one
            let n_succs = next(9);
            let succs = neighbors(n_succs, &mut next);
            let copies: Vec<(OpId, usize)> = (0..next(10))
                .map(|_| (OpId::new(next(6) as usize), next(n as u64) as usize))
                .collect();
            let has_copy = |op: OpId, c: usize| copies.contains(&(op, c));
            let load_count: Vec<usize> = (0..n).map(|_| next(4) as usize).collect();
            rank_clusters(&preds, &succs, has_copy, &load_count, &mut out);
            assert_eq!(
                out,
                rank_by_resorting(&preds, &succs, &has_copy, &load_count),
                "case {case}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 clusters")]
    fn more_clusters_than_the_bound_are_rejected() {
        rank_clusters(&[], &[], |_, _| false, &[0; 33], &mut Vec::new());
    }
}
