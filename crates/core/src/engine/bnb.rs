//! [`SchedBackend::ExactBnB`](super::SchedBackend::ExactBnB) — an exact
//! branch-and-bound modulo scheduler, the optimality yardstick behind the
//! `optgap` study.
//!
//! The heuristic pipeline commits to one placement per op and bumps the II
//! on any failure; how much II that greed costs is exactly what this
//! backend measures. It shares the whole front-end with the swing
//! backend — same pins, same latency assignment, same MII bounds, same
//! SMS order (`engine::prepare`) — then replaces the no-backtracking pass
//! with a depth-first search over `(cluster, cycle)` placements:
//!
//! * **MII lower-bounding.** The II search starts at
//!   `MII = max(ResMII, RecMII)`; a schedule found there is optimal by
//!   construction.
//! * **Incumbent seeding.** The heuristic schedule is computed first
//!   (off the same preparation — the front-end runs once per call) and
//!   bounds the search from above: only IIs *strictly below* the
//!   incumbent's are searched, so the exact result can never be worse
//!   than any heuristic policy run under the same front-end (the
//!   invariant `tests/backend_optimality.rs` pins).
//! * **Policy constraints, not a relaxation.** The search enforces the
//!   same hard constraints the heuristic does: precomputed cluster pins
//!   (IPBC's chain pins, the ablation's per-op preferences) restrict a
//!   pinned op to its pinned cluster, and under IBC
//!   ([`ClusterPolicy::BuildChains`]) every chain member must share the
//!   cluster of its first-placed member. A policy with a dynamic
//!   constraint of its own must be stated here too, in
//!   [`Search::try_clusters`] and [`Search::state_sig`], or the search
//!   solves a relaxation. "Optimal" therefore means optimal *for the
//!   policy's problem*; only the heuristic's soft preferences (rankings,
//!   tie-breaks, greedy first-fit) are relaxed.
//! * **Empty-cluster symmetry.** When no precomputed pin names a
//!   specific cluster, clusters holding no operation are interchangeable
//!   (the machine is homogeneous, copies only ever touch occupied
//!   clusters, and IBC's dynamic constraint references placed clusters
//!   only), so at each decision level at most one empty cluster is
//!   branched into — on a 4-cluster machine this cuts the first
//!   placement's branching factor from 4 to 1. Pins disable this rule
//!   (a pinned op distinguishes its cluster even while it is empty).
//! * **Dominance memoization.** Two branches that placed the same op
//!   prefix differently can still leave *equivalent* residual problems:
//!   everything the remaining search reads is the packed MRT occupancy,
//!   the placements of ops with edges to unplaced ops, the routed
//!   copies, and the dynamic chain pins. States are fingerprinted over
//!   exactly those feeds (two independent 64-bit hash chains) and
//!   subtrees refuted without finding any completion are memoized, so
//!   revisiting an equivalent state prunes instantly. Unlike the
//!   symmetry rule this works *under pins too* — interchangeable
//!   same-kind interior ops are the common source of duplicate states —
//!   which is where the IPBC and no-chain proof rates gain the most.
//! * **Mask-walk candidate scan.** Candidate cycles come from
//!   [`Mrt::next_free_fu_cycle`](crate::mrt::Mrt::next_free_fu_cycle) —
//!   a trailing-/leading-zeros walk over the row's free-mask — so fully
//!   occupied stretches are skipped a word at a time and only *free*
//!   cells consume node budget. At a fixed budget the search therefore
//!   reaches strictly deeper than the historical scalar probe-every-cell
//!   scan.
//! * **Node-budget cutoff.** The search examines at most one budget of
//!   candidate cells per call: [`DEFAULT_NODE_BUDGET`] scaled by the
//!   problem size (`ops × II levels / 512`, clamped to `1..=16`),
//!   tightened by `min` with
//!   [`ScheduleOptions::cost_ceiling`](super::ScheduleOptions::cost_ceiling).
//!   The search is deterministic, so it can report just two things: a
//!   proof, or an answer cut off by that budget. Exhausting the budget is
//!   a *counted, surfaced* outcome — [`SchedStats::cutoffs`](super::SchedStats)
//!   and [`SchedQuality::CutoffFeasible`](super::SchedQuality) when an
//!   incumbent exists, [`ScheduleError::SearchCutoff`] when none does —
//!   never a silent fallback to the heuristic result.
//! * **MaxLive tie-break.** Once the II is proven optimal, a bounded
//!   re-search at that II ([`TIEBREAK_NODE_BUDGET`]) enumerates further
//!   completions and keeps the one minimizing Rau's MaxLive
//!   ([`crate::pressure::max_live`]) — reported in
//!   [`ScheduleOutcome::max_live`]. The tie-break never perturbs the
//!   optimality claim or the cutoff counters: running out of its budget
//!   just keeps the incumbent completion.
//!
//! Placement itself — the neighbor walk, the anchored window, copy
//! routing, normalisation — is the crate-private `engine::place` module
//! the swing pass runs too; this file adds only the search around it.
//! Undo is the [`Mrt`](crate::mrt::Mrt) journal: one
//! [savepoint](crate::mrt::Mrt::savepoint) per decision level, and
//! backtracking is [`Mrt::rollback_to`](crate::mrt::Mrt::rollback_to) —
//! O(reservations since the savepoint), no table clones.
//!
//! # Exactness, precisely
//!
//! The search is exhaustive over the *anchored-window* schedule space:
//! each op starts within `II` cycles of the earliest start its placed
//! neighbors imply (the window the heuristic engine scans, computed by
//! the same code, here explored completely, over every policy-permitted
//! cluster, with backtracking), and inter-cluster copies take the
//! earliest free bus slot (the same routing code again). "Proven
//! optimal" therefore means: no schedule in that space — a superset of
//! everything the heuristic pass can reach under the same order and
//! constraints — has a smaller II. An II equal to the MII is
//! optimal unconditionally.

use std::collections::HashSet;

use vliw_ir::{Ddg, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use super::backend::{SchedQuality, ScheduleOutcome};
use super::place::{Neighbors, PartialSchedule, Placement};
use super::{
    prepare, swing_with_prep, ClusterPolicy, SchedStats, ScheduleOptions, ScheduleProblem,
};
use crate::schedule::{Schedule, ScheduleError};

/// Base node budget per exact-backend call: candidate `(cluster, cycle)`
/// cells examined across all II levels before the search reports a
/// cutoff, scaled up for big kernels (`scaled_node_budget`). Sized so
/// every small (factor-1) suite kernel is decided exactly while deeply
/// unrolled kernels cut off in milliseconds rather than minutes.
pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

/// Reference problem size of the node budget: a kernel of
/// `ops × II levels ≤ BUDGET_REF_CELLS` runs under
/// [`DEFAULT_NODE_BUDGET`] unchanged (the whole factor-1 suite sits below
/// this), larger kernels scale linearly.
const BUDGET_REF_CELLS: u64 = 512;

/// Upper bound on the budget's scale factor, so pathological unrolled
/// kernels cut off in bounded time instead of searching for minutes.
const BUDGET_MAX_SCALE: u64 = 16;

/// Node budget of the MaxLive tie-break re-search at the proven-optimal
/// II (capped further by whatever remains of the call's main budget).
/// The tie-break is best-effort by construction: exhausting this budget
/// keeps the incumbent completion and touches neither the quality claim
/// nor [`SchedStats::cutoffs`](super::SchedStats).
const TIEBREAK_NODE_BUDGET: u64 = 32_000;

/// Sampling stride of the budget-consumption curve: with a sink attached
/// the search emits a `bnb.nodes` counter sample every this many expanded
/// nodes. With tracing off the sample threshold is parked at `u64::MAX`,
/// so the per-node cost is one always-false compare.
const NODE_SAMPLE_EVERY: u64 = 1_024;

/// The node budget one call runs under before any cost ceiling:
/// [`DEFAULT_NODE_BUDGET`] scaled by the problem size `n_ops × ii_levels`
/// relative to [`BUDGET_REF_CELLS`] — big unrolled kernels get
/// proportionally more search effort, small kernels keep the base
/// exactly — capped at [`BUDGET_MAX_SCALE`]× the base.
fn scaled_node_budget(n_ops: usize, ii_levels: u32) -> u64 {
    let cells = (n_ops as u64).saturating_mul(u64::from(ii_levels.max(1)));
    let scale = (cells / BUDGET_REF_CELLS).clamp(1, BUDGET_MAX_SCALE);
    DEFAULT_NODE_BUDGET * scale
}

/// Runs the exact backend on a non-empty `kernel` (see the module docs).
pub(crate) fn schedule(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
    trace: Trace<'_>,
) -> Result<ScheduleOutcome, ScheduleError> {
    let _backend_span = trace.span("backend.bnb");
    let mut stats = SchedStats::default();
    let (ddg, prep) = prepare(kernel, machine, options, trace);

    // Incumbent: the heuristic result bounds the II search from above
    // (standard warm-started B&B), run off the same preparation so the
    // front-end executes once per call. Its work counters fold into ours.
    let incumbent =
        match swing_with_prep(kernel, machine, options.policy, &ddg, prep.clone(), trace) {
            Ok((s, st)) => {
                stats.merge(&st);
                Some(s)
            }
            Err(_) => None,
        };
    let upper = incumbent.as_ref().map_or(prep.max_ii + 1, |s| s.ii);
    if trace.on() {
        if let Some(s) = &incumbent {
            trace.instant("bnb.incumbent", &[("ii", s.ii as f64)]);
        }
    }

    // the budget scales here, where the real problem size (ops × II
    // levels left to decide) is known; a caller-supplied cost ceiling
    // composes by `min` — a deadline can only tighten the search, never
    // extend it
    let scaled = scaled_node_budget(kernel.ops.len(), upper.saturating_sub(prep.mii));
    let node_budget = options.cost_ceiling.map_or(scaled, |c| scaled.min(c));

    let colocate_chains = options.policy == ClusterPolicy::BuildChains;
    let mut search = Search::new(
        kernel,
        &ddg,
        machine,
        &prep,
        node_budget,
        colocate_chains,
        trace,
    );
    let out = search.walk(upper, &mut stats);
    let cutoff = matches!(out, Solve::Cutoff);
    let quality = if cutoff {
        SchedQuality::CutoffFeasible
    } else {
        SchedQuality::ProvenOptimal
    };
    let found = match out {
        Solve::Feasible(s) => Some(s),
        Solve::Infeasible | Solve::Cutoff => None,
    };
    match found.or(incumbent) {
        Some(schedule) => {
            let live = crate::pressure::max_live(kernel, &schedule) as u32;
            // with the II proven minimal, spend a bounded slice of the
            // leftover budget minimizing MaxLive among the optimal-II
            // completions; a cutoff result skips this (the remaining
            // budget belongs to nothing — it is already exhausted)
            let (schedule, live) = if quality == SchedQuality::ProvenOptimal {
                search.minimize_live(schedule.ii, (schedule, live), &mut stats)
            } else {
                (schedule, live)
            };
            Ok(ScheduleOutcome {
                schedule,
                stats,
                quality,
                max_live: Some(live),
            })
        }
        None if cutoff => Err(ScheduleError::SearchCutoff {
            loop_name: kernel.name.clone(),
            node_budget,
        }),
        None => Err(ScheduleError::NoSchedule {
            loop_name: kernel.name.clone(),
            max_ii: prep.max_ii,
        }),
    }
}

/// Outcome of one II level's depth-first search.
enum Solve {
    /// A complete placement was found (the schedule is already built).
    Feasible(Schedule),
    /// The whole anchored-window space was refuted at this II.
    Infeasible,
    /// The node budget ran out before the space was decided.
    Cutoff,
}

/// Outcome of the recursive placement of `order[depth..]`.
enum Place {
    Found(Schedule),
    Exhausted,
    Cutoff,
}

/// What a complete placement means to the search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Decide the II level: the first completion short-circuits the
    /// search ([`Place::Found`]).
    Decide,
    /// Tie-break at a decided II: every completion is scored by MaxLive,
    /// the running minimum is kept, and the search continues as if the
    /// subtree were exhausted.
    MinimizeLive,
}

/// First chain of the two-chain state fingerprint (the splitmix64
/// finalizer).
fn mix_a(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Second, independent chain (the murmur3 64-bit finalizer) — two chains
/// push the collision probability of the dominance memo far below any
/// realistic node count.
fn mix_b(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^ (x >> 33)
}

/// The search state: the partial schedule (reservation table with one
/// savepoint per decision level, placements, copies) and the search's
/// own bookkeeping.
struct Search<'a> {
    kernel: &'a LoopKernel,
    ddg: &'a Ddg<'a>,
    machine: &'a MachineConfig,
    prep: &'a ScheduleProblem,
    budget: u64,
    nodes: u64,
    /// The II level currently being decided (set by [`Search::solve`]).
    ii: i64,
    /// Whether chain members must share their first-placed member's
    /// cluster (IBC's dynamic constraint; IPBC and the ablation express
    /// theirs through `prep.pins`).
    colocate_chains: bool,
    /// Empty-cluster symmetry is only sound when no constraint names a
    /// specific cluster — i.e. when there are no precomputed pins.
    symmetry_ok: bool,
    /// The dominance memo is keyed on packed `fu_full` words, which only
    /// equal the exact occupancy when every FU capacity is 1 (true of
    /// every shipped configuration); wider units disable it.
    memo_ok: bool,
    /// What a completion means right now (see [`Mode`]).
    mode: Mode,
    /// Refuted-without-completion states: `(depth, chain-a, chain-b)`
    /// fingerprints from [`Search::state_sig`], cleared per II level.
    memo: HashSet<(u32, u64, u64)>,
    /// Completions reached so far this II level — the memo-soundness
    /// gate: a subtree is only memoized as dead when exploring it found
    /// *no* completion (in [`Mode::MinimizeLive`] completions return
    /// [`Place::Exhausted`], so the counter is the only witness).
    found_count: u64,
    /// Running `(schedule, MaxLive)` minimum of the tie-break re-search.
    best_live: Option<(Schedule, u32)>,
    /// Per-op: the largest order-position over its dependence neighbors.
    /// An op placed at depth `d` is *interior* (invisible to every
    /// remaining window computation) iff this bound is `< d`.
    last_nbr_pos: Vec<usize>,
    partial: PartialSchedule,
    /// Per-depth neighbor buffers, taken out while a level is active and
    /// put back on unwind — cleared, never reallocated.
    nbr_pool: Vec<Neighbors>,
    /// Telemetry handle. With no sink attached every probe below is a
    /// skipped branch and `next_sample` is parked at `u64::MAX`.
    trace: Trace<'a>,
    /// Node count at which the next `bnb.nodes` budget-curve sample fires.
    next_sample: u64,
    /// Dominance-memo hits per decision depth (allocated only under
    /// tracing; drained into `bnb.memo_depth` instants per II level).
    memo_hits: Vec<u64>,
    /// Dominance-memo misses (fingerprints looked up and not found) per
    /// decision depth.
    memo_misses: Vec<u64>,
}

impl<'a> Search<'a> {
    fn new(
        kernel: &'a LoopKernel,
        ddg: &'a Ddg<'a>,
        machine: &'a MachineConfig,
        prep: &'a ScheduleProblem,
        budget: u64,
        colocate_chains: bool,
        trace: Trace<'a>,
    ) -> Self {
        let mut order_pos = vec![0usize; kernel.ops.len()];
        for (pos, &op) in prep.order.iter().enumerate() {
            order_pos[op.index()] = pos;
        }
        let mut last_nbr_pos = vec![0usize; kernel.ops.len()];
        for (i, last_pos) in last_nbr_pos.iter_mut().enumerate() {
            let op = OpId::new(i);
            let mut last = 0usize;
            for e in ddg.incident_edges(op) {
                if e.from == e.to {
                    continue;
                }
                let other = if e.to == op { e.from } else { e.to };
                last = last.max(order_pos[other.index()]);
            }
            *last_pos = last;
        }
        let c = &machine.clusters;
        Search {
            kernel,
            ddg,
            machine,
            prep,
            budget,
            nodes: 0,
            ii: 1,
            colocate_chains,
            symmetry_ok: prep.pins.iter().all(Option::is_none),
            memo_ok: c.int_units == 1 && c.fp_units == 1 && c.mem_units == 1,
            mode: Mode::Decide,
            memo: HashSet::new(),
            found_count: 0,
            best_live: None,
            last_nbr_pos,
            partial: PartialSchedule::new(machine),
            nbr_pool: (0..kernel.ops.len()).map(|_| Default::default()).collect(),
            trace,
            next_sample: if trace.on() {
                NODE_SAMPLE_EVERY
            } else {
                u64::MAX
            },
            memo_hits: if trace.on() {
                vec![0; kernel.ops.len() + 1]
            } else {
                Vec::new()
            },
            memo_misses: if trace.on() {
                vec![0; kernel.ops.len() + 1]
            } else {
                Vec::new()
            },
        }
    }

    /// Decides the II levels `mii0..upper` in turn until one is feasible
    /// or the node budget runs out, counting one attempt per level and
    /// one cutoff when the budget ran out, and emitting a `bnb.solve`
    /// instant per level. [`Solve::Infeasible`] refutes every level.
    fn walk(&mut self, upper: u32, stats: &mut SchedStats) -> Solve {
        for ii in self.prep.mii..upper {
            stats.attempts += 1;
            let out = self.solve(ii, stats);
            if self.trace.on() {
                let verdict = match &out {
                    Solve::Feasible(_) => 1.0,
                    Solve::Infeasible => 0.0,
                    Solve::Cutoff => -1.0,
                };
                self.trace.instant(
                    "bnb.solve",
                    &[
                        ("ii", ii as f64),
                        ("nodes", self.nodes as f64),
                        ("feasible", verdict),
                    ],
                );
            }
            match out {
                Solve::Infeasible => {}
                // budget is global: once it is gone, no smaller II can be
                // refuted, so stop and report
                Solve::Cutoff => {
                    stats.cutoffs += 1;
                    return Solve::Cutoff;
                }
                found @ Solve::Feasible(_) => return found,
            }
        }
        Solve::Infeasible
    }

    /// Decides one II level. The node budget persists across levels.
    fn solve(&mut self, ii: u32, stats: &mut SchedStats) -> Solve {
        self.mode = Mode::Decide;
        let out = self.solve_inner(ii, stats);
        self.emit_memo_profile(ii);
        out
    }

    /// Drains the per-depth dominance-memo counters into one
    /// `bnb.memo_depth` instant per touched depth (then resets them, since
    /// the memo itself is cleared per II level). No-op without a sink.
    fn emit_memo_profile(&mut self, ii: u32) {
        if !self.trace.on() {
            return;
        }
        for depth in 0..self.memo_hits.len() {
            let (h, m) = (self.memo_hits[depth], self.memo_misses[depth]);
            if h == 0 && m == 0 {
                continue;
            }
            self.trace.instant(
                "bnb.memo_depth",
                &[
                    ("ii", ii as f64),
                    ("depth", depth as f64),
                    ("hits", h as f64),
                    ("misses", m as f64),
                ],
            );
        }
        self.memo_hits.iter_mut().for_each(|h| *h = 0);
        self.memo_misses.iter_mut().for_each(|m| *m = 0);
    }

    /// One full depth-first pass at `ii` under the current [`Mode`].
    fn solve_inner(&mut self, ii: u32, stats: &mut SchedStats) -> Solve {
        self.ii = ii as i64;
        self.partial.reset(ii, self.kernel.ops.len(), self.machine);
        self.memo.clear();
        self.found_count = 0;
        // every placement is undone on the way out; a schedule, if any,
        // is already extracted
        match self.place(0, stats) {
            Place::Found(s) => Solve::Feasible(s),
            Place::Exhausted => Solve::Infeasible,
            Place::Cutoff => Solve::Cutoff,
        }
    }

    /// The MaxLive tie-break: re-search the proven-optimal `ii`, keeping
    /// the completion with the smallest MaxLive, seeded with (and never
    /// worse than) `incumbent`. Budget: whatever remains of the call's
    /// main budget, capped at [`TIEBREAK_NODE_BUDGET`]; exhausting it is
    /// *not* a counted cutoff — the proof already stands, this pass only
    /// refines which optimal-II schedule is reported.
    fn minimize_live(
        &mut self,
        ii: u32,
        incumbent: (Schedule, u32),
        stats: &mut SchedStats,
    ) -> (Schedule, u32) {
        let slice = self
            .budget
            .saturating_sub(self.nodes)
            .min(TIEBREAK_NODE_BUDGET);
        if slice == 0 {
            return incumbent;
        }
        self.budget = self.nodes + slice;
        self.mode = Mode::MinimizeLive;
        self.best_live = Some(incumbent);
        let _ = self.solve_inner(ii, stats); // Cutoff here is benign: keep the best so far
        self.best_live.take().expect("seeded above")
    }

    /// Fingerprints the residual problem at `depth` for the dominance
    /// memo. Feeds — exactly what the remaining search can observe:
    ///
    /// * the depth (fixes *which* ops are placed: `order[..depth]`);
    /// * `(op, cluster, cycle)` of every placed op that still has a
    ///   dependence neighbor among the unplaced ops (interior ops
    ///   constrain no remaining window; their resource footprint is
    ///   covered by the occupancy words);
    /// * the packed MRT occupancy (`fu_full` + bus words);
    /// * the routed copies, XOR-combined so the fingerprint is
    ///   independent of routing order;
    /// * under IBC, the dynamic cluster pin of every unplaced chain
    ///   member (an interior placed member still pins its chain).
    ///
    /// Static facts (precomputed pins, latencies, the order itself) need
    /// no hashing — they are equal across all states of one solve.
    fn state_sig(&self, depth: usize) -> (u32, u64, u64) {
        let d = depth as u64;
        let mut h1 = mix_a(d ^ 0x9e37_79b9_7f4a_7c15);
        let mut h2 = mix_b(d ^ 0x2545_f491_4f6c_dd1d);
        for &op in &self.prep.order[..depth] {
            if self.last_nbr_pos[op.index()] < depth {
                continue; // interior: no unplaced neighbor reads it
            }
            let at = self.partial.placed[op.index()].expect("order prefix is placed");
            let key = (op.index() as u64) << 40
                | (at.cluster as u64) << 32
                | (at.cycle as u64 & 0xffff_ffff);
            h1 = mix_a(h1 ^ key);
            h2 = mix_b(h2 ^ key);
        }
        let (fu, bus) = self.partial.mrt.occupancy_words();
        for &w in fu.iter().chain(bus) {
            h1 = mix_a(h1 ^ w);
            h2 = mix_b(h2 ^ w);
        }
        let (mut x1, mut x2) = (0u64, 0u64);
        for c in self.partial.copies.routed() {
            let key = (c.producer.index() as u64) << 40
                | (c.to as u64) << 32
                | (c.cycle as u64 & 0xffff_ffff);
            x1 ^= mix_a(key ^ 0xd6e8_feb8_6659_fd93);
            x2 ^= mix_b(key ^ 0xa076_1d64_78bd_642f);
        }
        h1 = mix_a(h1 ^ x1);
        h2 = mix_b(h2 ^ x2);
        if self.colocate_chains {
            for &op in &self.prep.order[depth..] {
                let Some(cid) = self.prep.chains.chain_id(op) else {
                    continue;
                };
                if let Some(p) = self.chain_pin(op, cid) {
                    let key = (op.index() as u64) << 8 | p as u64;
                    h1 = mix_a(h1 ^ key);
                    h2 = mix_b(h2 ^ key);
                }
            }
        }
        (depth as u32, h1, h2)
    }

    /// Recursively places `order[depth..]`, backtracking through the MRT
    /// journal. Neighbor buffers come from a per-depth pool so the
    /// steady-state search allocates nothing (the engine's `Scratch`
    /// discipline, adapted to recursion).
    fn place(&mut self, depth: usize, stats: &mut SchedStats) -> Place {
        if depth == self.prep.order.len() {
            self.found_count += 1;
            match self.mode {
                Mode::Decide => return Place::Found(self.build_schedule()),
                Mode::MinimizeLive => {
                    let s = self.build_schedule();
                    let live = crate::pressure::max_live(self.kernel, &s) as u32;
                    if self.best_live.as_ref().is_none_or(|(_, b)| live < *b) {
                        self.best_live = Some((s, live));
                    }
                    return Place::Exhausted; // keep enumerating completions
                }
            }
        }
        let sig = if self.memo_ok {
            let sig = self.state_sig(depth);
            if self.memo.contains(&sig) {
                if self.trace.on() {
                    self.memo_hits[depth] += 1;
                }
                return Place::Exhausted; // dominated: a refuted twin state
            }
            if self.trace.on() {
                self.memo_misses[depth] += 1;
            }
            Some(sig)
        } else {
            None
        };
        let completions_before = self.found_count;
        let op_id = self.prep.order[depth];

        let mut nbrs = std::mem::take(&mut self.nbr_pool[depth]);
        nbrs.gather(self.ddg, &self.prep.latencies, &self.partial.placed, op_id);
        let out = self.try_clusters(depth, op_id, &nbrs, stats);
        self.nbr_pool[depth] = nbrs;
        // memoize only subtrees proven dead: fully exhausted (no cutoff
        // truncation) and — the MinimizeLive soundness gate — containing
        // no completion at all
        if let Some(sig) = sig {
            if matches!(out, Place::Exhausted) && self.found_count == completions_before {
                self.memo.insert(sig);
            }
        }
        out
    }

    /// The cluster of the first placed member of chain `cid` other than
    /// `op` — where IBC's dynamic constraint pins `op`. Derived from the
    /// placements rather than recorded on commit as the swing pass does,
    /// because backtracking can unplace the member that set it.
    fn chain_pin(&self, op: OpId, cid: usize) -> Option<usize> {
        self.prep
            .chains
            .members(cid)
            .iter()
            .find_map(|&m| self.partial.placed[m.index()].filter(|_| m != op))
            .map(|at| at.cluster)
    }

    /// Tries every policy-permitted `(cluster, cycle)` placement for
    /// `op_id` at decision level `depth`, recursing on each success.
    fn try_clusters(
        &mut self,
        depth: usize,
        op_id: OpId,
        nbrs: &Neighbors,
        stats: &mut SchedStats,
    ) -> Place {
        let kind = self.kernel.op(op_id).fu_kind();
        let lat_self = self.prep.latencies.latency_of(op_id) as i64;

        // the heuristic's hard policy constraints, so the exact II is
        // optimal for the *policy's* problem, not for a relaxation:
        // precomputed pins (IPBC / the ablation), plus dynamic chain
        // co-location under IBC
        let pinned = self.prep.pins[op_id.index()].or_else(|| {
            if !self.colocate_chains {
                return None;
            }
            self.chain_pin(op_id, self.prep.chains.chain_id(op_id)?)
        });

        let n = self.machine.clusters.n_clusters;
        let mut tried_empty = false;
        for cluster in 0..n {
            if let Some(p) = pinned {
                if cluster != p {
                    continue;
                }
            } else if self.symmetry_ok && self.partial.per_cluster[cluster] == 0 {
                // symmetry: with no cluster named by any constraint,
                // unoccupied clusters are interchangeable — branch into
                // at most one of them per level
                if tried_empty {
                    continue;
                }
                tried_empty = true;
            }

            // the anchored window, explored completely: every free cell
            // is a branch, not just the first fit
            let Some(mut window) = nbrs.window(cluster, self.ii, self.partial.transfer()) else {
                continue;
            };
            while let Some(cycle) = window.next_free(&self.partial.mrt, cluster, kind) {
                if self.nodes >= self.budget {
                    return Place::Cutoff;
                }
                self.nodes += 1;
                stats.trial_cycles += 1;
                // budget-consumption curve: with tracing off `next_sample`
                // is u64::MAX, so this is one always-false compare
                if self.nodes >= self.next_sample {
                    self.trace.counter("bnb.nodes", self.nodes as f64);
                    self.next_sample = self.nodes + NODE_SAMPLE_EVERY;
                }
                let at = Placement { cluster, cycle };
                let Some(undo) = self.partial.try_place(nbrs, op_id, kind, lat_self, at) else {
                    stats.rollbacks += 1;
                    continue;
                };
                stats.placements += 1;
                let deeper = self.place(depth + 1, stats);
                self.partial.unplace(op_id, undo);
                match deeper {
                    Place::Found(s) => return Place::Found(s),
                    Place::Cutoff => return Place::Cutoff,
                    Place::Exhausted => {}
                }
            }
        }
        Place::Exhausted
    }

    /// Builds the normalized schedule from the complete placement.
    fn build_schedule(&self) -> Schedule {
        let (ops, copies) = self.partial.finish(&self.prep.latencies);
        Schedule {
            ii: self.ii as u32,
            ops,
            copies,
            mii: self.prep.mii,
            res_mii: self.prep.res_mii,
            rec_mii: self.prep.rec_mii,
            latencies: self.prep.latencies.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, SchedBackend};
    use vliw_ir::{ArrayKind, KernelBuilder, Opcode};

    fn opts(policy: ClusterPolicy) -> ScheduleOptions {
        ScheduleOptions::new(policy).with_backend(SchedBackend::ExactBnB)
    }

    fn saxpy() -> LoopKernel {
        let mut b = KernelBuilder::new("saxpy");
        let x = b.array("x", 4096, ArrayKind::Heap);
        let y = b.array("y", 4096, ArrayKind::Heap);
        let (_, xv) = b.load("ld_x", x, 0, 4, 4);
        let (_, yv) = b.load("ld_y", y, 0, 4, 4);
        let (_, p) = b.int_op("mul", Opcode::Mul, &[xv.into()]);
        let (_, s) = b.int_op("add", Opcode::Add, &[p.into(), yv.into()]);
        b.store("st_y", y, 0, 4, 4, s);
        b.finish(1024.0)
    }

    #[test]
    fn exact_result_is_verified_and_no_worse_than_heuristic() {
        let k = saxpy();
        let m = MachineConfig::word_interleaved_4();
        for policy in ClusterPolicy::ALL {
            let h = schedule_outcome(&k, &m, ScheduleOptions::new(policy))
                .unwrap()
                .schedule;
            let o = schedule_outcome(&k, &m, opts(policy)).unwrap();
            assert!(o.schedule.ii <= h.ii, "{policy:?}");
            assert!(o.schedule.ii >= o.schedule.mii, "{policy:?}");
            let errs = o.schedule.verify(&k, &m);
            assert!(errs.is_empty(), "{policy:?}: {errs:?}");
        }
    }

    #[test]
    fn mii_match_is_proven_without_search() {
        // the heuristic already schedules saxpy at the MII, so the exact
        // backend proves optimality with an empty search range
        let k = saxpy();
        let m = MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, opts(ClusterPolicy::PreBuildChains)).unwrap();
        assert_eq!(o.quality, SchedQuality::ProvenOptimal);
        assert_eq!(o.stats.cutoffs, 0);
    }

    /// Dense all-to-all int dataflow: five producers each feeding five
    /// consumers. The copy pressure pushes the heuristic to II 4 against
    /// a ResMII of 3, so the exact search has a nonempty range to decide.
    fn dense() -> LoopKernel {
        let mut b = KernelBuilder::new("dense");
        let mut prods = Vec::new();
        for i in 0..5 {
            let (_, v) = b.int_op(format!("p{i}"), Opcode::Add, &[]);
            prods.push(v);
        }
        for j in 0..5 {
            let srcs: Vec<vliw_ir::SrcOperand> = prods.iter().map(|&v| v.into()).collect();
            let _ = b.int_op(format!("c{j}"), Opcode::Add, &srcs);
        }
        b.finish(64.0)
    }

    #[test]
    fn node_budget_scales_with_problem_size() {
        // at or below the reference size the base budget is untouched
        assert_eq!(scaled_node_budget(16, 4), DEFAULT_NODE_BUDGET);
        assert_eq!(scaled_node_budget(128, 4), DEFAULT_NODE_BUDGET);
        // beyond it the budget scales linearly…
        assert_eq!(scaled_node_budget(256, 8), 4 * DEFAULT_NODE_BUDGET);
        // …up to the cap
        assert_eq!(
            scaled_node_budget(4096, 64),
            BUDGET_MAX_SCALE * DEFAULT_NODE_BUDGET
        );
        // zero II levels still count as one (the proof at the MII)
        assert_eq!(scaled_node_budget(64, 0), DEFAULT_NODE_BUDGET);
    }

    #[test]
    fn zero_budget_surfaces_cutoff_not_silent_fallback() {
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let heuristic = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
            .unwrap()
            .schedule;
        assert!(heuristic.ii > heuristic.mii, "kernel must have a gap");
        let mut o = opts(ClusterPolicy::Free);
        o.cost_ceiling = Some(0);
        let out = schedule_outcome(&k, &m, o).unwrap();
        // the zero budget must be a *reported* cutoff: the result falls
        // back to the incumbent schedule, visibly, with the cutoff counted
        assert_eq!(out.quality, SchedQuality::CutoffFeasible);
        assert_eq!(out.stats.cutoffs, 1);
        assert_eq!(out.schedule, heuristic);
        // determinism: the same starved request is served identically
        let rerun = schedule_outcome(&k, &m, o).unwrap();
        assert_eq!(rerun.schedule, out.schedule);
        assert_eq!(rerun.stats, out.stats);
    }

    #[test]
    fn exhaustion_without_an_incumbent_is_an_error() {
        // capped at its ResMII, the dense kernel has no swing schedule, so
        // a starved search has nothing to serve
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let mut o = opts(ClusterPolicy::Free);
        o.max_ii = Some(3);
        o.cost_ceiling = Some(0);
        let err = schedule_outcome(&k, &m, o).unwrap_err();
        assert!(
            matches!(err, ScheduleError::SearchCutoff { node_budget: 0, .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn gap_kernel_is_decided_under_the_default_budget() {
        // under the default budget the search must *decide* the II-3
        // question for the dense kernel — either a better-than-heuristic
        // schedule or a proof that II 4 is optimal — and the result must
        // stay legal
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let out = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        assert!(out.schedule.verify(&k, &m).is_empty());
        match out.quality {
            SchedQuality::ProvenOptimal => assert!(out.schedule.ii <= 4),
            SchedQuality::CutoffFeasible => assert_eq!(out.stats.cutoffs, 1),
            SchedQuality::Heuristic => panic!("exact backend cannot claim Heuristic"),
        }
    }

    #[test]
    fn cost_ceiling_composes_by_min() {
        // a huge ceiling changes nothing: min picks the scaled budget
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let base = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        let mut o = opts(ClusterPolicy::Free);
        o.cost_ceiling = Some(u64::MAX);
        let out = schedule_outcome(&k, &m, o).unwrap();
        assert_eq!(out.schedule, base.schedule);
        assert_eq!(out.quality, base.quality);
        assert_eq!(out.stats, base.stats);
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let k = KernelBuilder::new("empty").finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        let err = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap_err();
        assert_eq!(err, ScheduleError::EmptyKernel);
    }

    #[test]
    fn exact_outcomes_carry_max_live_heuristics_do_not() {
        let k = saxpy();
        let m = MachineConfig::word_interleaved_4();
        for policy in ClusterPolicy::ALL {
            let o = schedule_outcome(&k, &m, opts(policy)).unwrap();
            // the reported MaxLive is the *returned* schedule's, whatever
            // the tie-break selected
            let live = o.max_live.expect("exact backend reports MaxLive");
            assert_eq!(
                live,
                crate::pressure::max_live(&k, &o.schedule) as u32,
                "{policy:?}"
            );
            let h = schedule_outcome(&k, &m, ScheduleOptions::new(policy)).unwrap();
            assert_eq!(h.max_live, None, "{policy:?}: heuristics make no claim");
        }
    }

    #[test]
    fn tie_break_never_perturbs_the_proof() {
        // the dense kernel exercises a real search range; whatever the
        // tie-break explores, the optimality claim and cutoff counters
        // must match a run that decided the same problem
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let out = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        if out.quality == SchedQuality::ProvenOptimal {
            assert_eq!(out.stats.cutoffs, 0, "a proof admits no cutoff");
        }
        assert!(out.schedule.verify(&k, &m).is_empty());
        let live = out.max_live.expect("exact backend reports MaxLive");
        assert_eq!(live, crate::pressure::max_live(&k, &out.schedule) as u32);
    }

    #[test]
    fn zero_budget_skips_the_tie_break_but_still_reports_max_live() {
        let k = dense();
        let m = MachineConfig::word_interleaved_4();
        let mut o = opts(ClusterPolicy::Free);
        o.cost_ceiling = Some(0);
        let out = schedule_outcome(&k, &m, o).unwrap();
        assert_eq!(out.quality, SchedQuality::CutoffFeasible);
        assert_eq!(
            out.max_live,
            Some(crate::pressure::max_live(&k, &out.schedule) as u32)
        );
    }
}
