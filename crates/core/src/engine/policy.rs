//! The cluster-assignment extension seam.
//!
//! [`ClusterAssign`] factors the §4 heuristics into four hooks — pins known
//! before scheduling starts, pins discovered while scheduling, candidate
//! enumeration/tie-breaking, and placement observation — so a new heuristic
//! is one new file implementing the trait (see `base.rs` / `ibc.rs` /
//! `ipbc.rs` / `no_chains.rs` for the paper's four policies).
//! [`super::ClusterPolicy`] stays a thin enum whose
//! [`assigner`](super::ClusterPolicy::assigner) method hands the engine a
//! trait object.

use std::collections::HashMap;

use vliw_ir::{LoopKernel, OpId};

use crate::chains::MemChains;

/// An already-placed dependence neighbor of the operation being assigned.
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    /// The neighbor operation.
    pub other: OpId,
    /// The cluster it was placed in.
    pub cluster: usize,
    /// Whether the connecting edge is a register-flow dependence (the only
    /// kind that forces an inter-cluster copy).
    pub regflow: bool,
}

/// Everything a policy may inspect when choosing candidate clusters for
/// one operation.
pub struct AssignContext<'a> {
    /// The kernel being scheduled.
    pub kernel: &'a LoopKernel,
    /// Its memory dependent chains.
    pub chains: &'a MemChains,
    /// Number of clusters in the target machine.
    pub n_clusters: usize,
    /// Placed predecessors of the op.
    pub preds: &'a [Neighbor],
    /// Placed successors of the op.
    pub succs: &'a [Neighbor],
    /// Whether a copy of `producer`'s value already exists in `cluster`
    /// (placing a consumer there needs no new bus transfer).
    pub has_copy: &'a dyn Fn(OpId, usize) -> bool,
    /// Operations currently placed per cluster (balance tie-breaker).
    pub load_count: &'a [usize],
}

/// Per-attempt mutable policy state, reset on every placement attempt.
///
/// IBC records here the cluster chosen for the first-scheduled member of
/// each memory dependent chain; the other paper policies keep no dynamic
/// state.
#[derive(Debug, Clone, Default)]
pub struct AssignState {
    /// `chain id → cluster` pins discovered during the attempt.
    pub chain_pin: HashMap<usize, usize>,
}

/// A cluster-assignment heuristic (§4.2 / §4.3.2).
///
/// The engine drives implementations through four hooks:
///
/// 1. [`precompute_pins`](ClusterAssign::precompute_pins) — pins known
///    *before* scheduling (IPBC's chain pins, the no-chains ablation's
///    per-op preferences). These also steer the latency assignment, which
///    estimates stall against the pinned cluster.
/// 2. [`pin`](ClusterAssign::pin) — a hard pin discovered *during*
///    scheduling (IBC's first-member chain pins).
/// 3. [`candidates_into`](ClusterAssign::candidates_into) — candidate
///    clusters in preference order, written into an engine-owned buffer;
///    the default defers to the pin, then to the shared
///    communication/balance ranking.
/// 4. [`commit`](ClusterAssign::commit) — observes a successful placement.
///
/// Implementations must be stateless (`Sync`); all dynamic state lives in
/// [`AssignState`] so one attempt cannot leak decisions into the next.
pub trait ClusterAssign: std::fmt::Debug + Sync {
    /// Short policy name (diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Cluster pins known before scheduling starts; `None` entries are
    /// assigned by the communication/balance heuristic.
    fn precompute_pins(
        &self,
        kernel: &LoopKernel,
        chains: &MemChains,
        n_clusters: usize,
    ) -> Vec<Option<usize>> {
        let _ = (chains, n_clusters);
        vec![None; kernel.ops.len()]
    }

    /// A hard pin for `op` at assignment time, if any. The default reads
    /// the precomputed pins.
    fn pin(
        &self,
        op: OpId,
        ctx: &AssignContext<'_>,
        pins: &[Option<usize>],
        state: &AssignState,
    ) -> Option<usize> {
        let _ = (ctx, state);
        pins[op.index()]
    }

    /// Writes the candidate clusters for `op`, best first, into `out`
    /// (cleared first); the engine tries them in order and keeps the first
    /// with a feasible slot and bus schedule. The engine calls this once
    /// per operation with a scratch buffer it owns, so the hot path
    /// allocates nothing. (This replaces the former allocating
    /// `candidates` hook — removed rather than kept alongside, so a
    /// policy customizing enumeration cannot silently override the wrong
    /// method.)
    fn candidates_into(
        &self,
        op: OpId,
        ctx: &AssignContext<'_>,
        pins: &[Option<usize>],
        state: &AssignState,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match self.pin(op, ctx, pins, state) {
            Some(c) => out.push(c),
            None => rank_by_communication_balance_into(ctx, out),
        }
    }

    /// Observes that `op` was committed to `cluster`.
    fn commit(&self, op: OpId, cluster: usize, ctx: &AssignContext<'_>, state: &mut AssignState) {
        let _ = (op, cluster, ctx, state);
    }

    /// Whether the policy forces every memory-chain member onto the
    /// cluster of the chain's first-placed member *during* scheduling
    /// (IBC). Policies whose chain constraints are known up front (IPBC,
    /// the ablation) express them through
    /// [`precompute_pins`](ClusterAssign::precompute_pins) instead. Exact
    /// backends mirror this as a hard search constraint so their optimal
    /// II is optimal *for the policy's problem*, not for a relaxation.
    fn constrains_chains_dynamically(&self) -> bool {
        false
    }
}

/// The most clusters [`rank_by_communication_balance_into`] can rank: it
/// scores clusters into a stack array of this length and tracks successor
/// clusters in a `u32` bitmask. Every paper machine has 4 clusters, and
/// the default cache geometry (32-byte blocks, 4-byte interleaving)
/// validates at most 8.
const MAX_RANKED_CLUSTERS: usize = 32;

/// The shared BASE ranking (§4.2), written into a caller-owned buffer
/// (cleared first): prefer the cluster that (1) needs the fewest new
/// inter-cluster copies, then (2) holds the most register-flow neighbors
/// (affinity), then (3) has the lightest workload, then (4) the lowest
/// index.
///
/// Each cluster is scored once — one walk of the predecessors per
/// cluster for the copy check, per-cluster affinity counts and a bitmask
/// of successor clusters shared by all of them — and the
/// `(score, cluster)` pairs are sorted. The pair is a total order, so the
/// ranking does not depend on the sort's stability.
///
/// # Panics
///
/// If `ctx.n_clusters` exceeds 32.
pub fn rank_by_communication_balance_into(ctx: &AssignContext<'_>, cs: &mut Vec<usize>) {
    let n = ctx.n_clusters;
    assert!(
        n <= MAX_RANKED_CLUSTERS,
        "the cluster ranking supports at most {MAX_RANKED_CLUSTERS} clusters, got {n}"
    );
    // register-flow neighbors per cluster, and the clusters that hold a
    // register-flow successor (one copy each when placed elsewhere)
    let mut affinity = [0isize; MAX_RANKED_CLUSTERS];
    let mut succ_clusters = 0u32;
    for s in ctx.succs.iter().filter(|s| s.regflow) {
        affinity[s.cluster] += 1;
        succ_clusters |= 1 << s.cluster;
    }
    for p in ctx.preds.iter().filter(|p| p.regflow) {
        affinity[p.cluster] += 1;
    }
    let mut keys = [((0usize, 0isize, 0usize), 0usize); MAX_RANKED_CLUSTERS];
    for (c, key) in keys[..n].iter_mut().enumerate() {
        // copies needed now if placed in c
        let mut need = (succ_clusters & !(1 << c)).count_ones() as usize;
        for p in ctx.preds {
            if p.regflow && p.cluster != c && !(ctx.has_copy)(p.other, c) {
                need += 1;
            }
        }
        *key = ((need, -affinity[c], ctx.load_count[c]), c);
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    cs.clear();
    cs.extend(keys.iter().map(|&(_, c)| c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, KernelBuilder};

    fn tiny_kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        b.finish(1.0)
    }

    fn ranked(ctx: &AssignContext<'_>) -> Vec<usize> {
        // a stale buffer must be cleared, not appended to
        let mut out = vec![99, 98];
        rank_by_communication_balance_into(ctx, &mut out);
        out
    }

    #[test]
    fn ranking_prefers_copy_free_then_affinity_then_balance() {
        let kernel = tiny_kernel();
        let chains = MemChains::build(&kernel);
        let no_copy = |_: OpId, _: usize| false;
        let producer = kernel.ops[0].id;
        let preds = [Neighbor {
            other: producer,
            cluster: 2,
            regflow: true,
        }];
        let load_count = [5usize, 0, 3, 0];
        let ctx = AssignContext {
            kernel: &kernel,
            chains: &chains,
            n_clusters: 4,
            preds: &preds,
            succs: &[],
            has_copy: &no_copy,
            load_count: &load_count,
        };
        let ranked = ranked(&ctx);
        // cluster 2 holds the producer: no copy needed AND affinity
        assert_eq!(ranked[0], 2);
        // the rest need one copy each; balance then index break the tie
        assert_eq!(ranked[1..], [1, 3, 0]);
    }

    #[test]
    fn existing_copy_removes_the_penalty() {
        let kernel = tiny_kernel();
        let chains = MemChains::build(&kernel);
        let producer = kernel.ops[0].id;
        // a copy of the producer's value already sits in cluster 1
        let has_copy = move |op: OpId, c: usize| op == producer && c == 1;
        let preds = [Neighbor {
            other: producer,
            cluster: 2,
            regflow: true,
        }];
        let load_count = [0usize, 0, 0, 0];
        let ctx = AssignContext {
            kernel: &kernel,
            chains: &chains,
            n_clusters: 4,
            preds: &preds,
            succs: &[],
            has_copy: &has_copy,
            load_count: &load_count,
        };
        let ranked = ranked(&ctx);
        // cluster 2 wins on affinity; cluster 1 rides the existing copy
        assert_eq!(&ranked[..2], &[2, 1]);
    }

    /// The ranking as it stood before the single-pass scoring: a stable
    /// sort that re-scores a cluster on every comparison.
    fn rank_by_resorting(ctx: &AssignContext<'_>) -> Vec<usize> {
        let mut cs: Vec<usize> = (0..ctx.n_clusters).collect();
        let score = |c: usize| -> (usize, isize, usize) {
            let mut need = 0usize;
            let mut affinity = 0isize;
            for p in ctx.preds {
                if p.regflow {
                    if p.cluster != c {
                        if !(ctx.has_copy)(p.other, c) {
                            need += 1;
                        }
                    } else {
                        affinity += 1;
                    }
                }
            }
            let mut succ_clusters: Vec<usize> = Vec::new();
            for s in ctx.succs {
                if s.regflow {
                    if s.cluster != c {
                        if !succ_clusters.contains(&s.cluster) {
                            succ_clusters.push(s.cluster);
                            need += 1;
                        }
                    } else {
                        affinity += 1;
                    }
                }
            }
            (need, -affinity, ctx.load_count[c])
        };
        cs.sort_by_key(|&c| (score(c), c));
        cs
    }

    #[test]
    fn single_pass_ranking_matches_the_resorting_ranking() {
        let kernel = tiny_kernel();
        let chains = MemChains::build(&kernel);
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
                    .map(|_| Neighbor {
                        // few producers, so one repeats across edges
                        other: OpId::new(next(6) as usize),
                        cluster: next(n as u64) as usize,
                        regflow: next(3) != 0,
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
            let ctx = AssignContext {
                kernel: &kernel,
                chains: &chains,
                n_clusters: n,
                preds: &preds,
                succs: &succs,
                has_copy: &has_copy,
                load_count: &load_count,
            };
            rank_by_communication_balance_into(&ctx, &mut out);
            assert_eq!(out, rank_by_resorting(&ctx), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 clusters")]
    fn more_clusters_than_the_bound_are_rejected() {
        let kernel = tiny_kernel();
        let chains = MemChains::build(&kernel);
        let no_copy = |_: OpId, _: usize| false;
        let load_count = [0usize; 33];
        let ctx = AssignContext {
            kernel: &kernel,
            chains: &chains,
            n_clusters: 33,
            preds: &[],
            succs: &[],
            has_copy: &no_copy,
            load_count: &load_count,
        };
        rank_by_communication_balance_into(&ctx, &mut Vec::new());
    }
}
