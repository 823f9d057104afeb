//! Minimum initiation interval: resource bound and recurrence bound.

use vliw_ir::{Ddg, DepEdge, DepKind, FuKind, LoopKernel, OpId};
use vliw_machine::MachineConfig;

/// The latency a dependence edge imposes on the schedule
/// (`t(to) ≥ t(from) + latency − II × distance`), given a per-operation
/// execution-latency function.
///
/// * register flow: the producer's latency;
/// * register anti: 0 — "two register anti-dependent instructions can be
///   scheduled in the same cycle" (§4.3.3);
/// * register output: 1;
/// * memory flow/output: 1 — within-cluster serialization only requires
///   issue order (the chain constraint puts both ends in one cluster);
/// * memory anti: 0 — the reader may issue in the same cycle slot group
///   (the single memory unit per cluster already serializes same-cycle
///   conflicts).
pub fn edge_latency(edge: &DepEdge, mut lat_of: impl FnMut(OpId) -> u32) -> u32 {
    match edge.kind {
        DepKind::RegFlow => lat_of(edge.from),
        DepKind::RegAnti => 0,
        DepKind::RegOut => 1,
        DepKind::MemFlow | DepKind::MemOut => 1,
        DepKind::MemAnti => 0,
    }
}

/// Resource-constrained MII: for each functional-unit kind, the ops of that
/// kind divided by the machine-wide unit count, rounded up.
pub fn res_mii(kernel: &LoopKernel, machine: &MachineConfig) -> u32 {
    let n = machine.clusters.n_clusters;
    let mut worst = 1u32;
    for kind in FuKind::ALL {
        let ops = kernel.ops.iter().filter(|o| o.fu_kind() == kind).count();
        let units = machine.clusters.fu_count(kind) * n;
        if units == 0 {
            assert_eq!(ops, 0, "ops of kind {kind} but no units");
            continue;
        }
        worst = worst.max(ops.div_ceil(units) as u32);
    }
    worst
}

/// Exact recurrence-constrained MII under the given per-op latency
/// function: the smallest `II` such that no dependence cycle has
/// `Σ latency > II × Σ distance`. Computed by binary search over II with
/// Bellman-Ford positive-cycle detection, so it is exact even when circuit
/// enumeration is capped.
pub fn rec_mii(ddg: &Ddg<'_>, mut lat_of: impl FnMut(OpId) -> u32) -> u32 {
    let edges: Vec<(usize, usize, i64, i64)> = ddg
        .edges()
        .iter()
        .map(|e| {
            (
                e.from.index(),
                e.to.index(),
                edge_latency(e, &mut lat_of) as i64,
                e.distance as i64,
            )
        })
        .collect();
    let total_lat: i64 = edges.iter().map(|e| e.2).sum();
    let (mut lo, mut hi) = (0i64, total_lat.max(0) + 1);
    // invariant: hi is feasible, lo-1 ... search smallest feasible
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(ddg.n_ops(), &edges, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Longest-path Bellman-Ford: does any cycle have positive total weight
/// `Σ (lat − II·dist)`?
///
/// Relaxation starts from all-zero distances (a virtual source feeding
/// every node) and records, per node, the node whose edge last raised it.
/// After each round the predecessor graph is checked for a cycle: when
/// one exists it has positive weight (each predecessor edge satisfied
/// `dist[v] = dist[u] + w` when it was recorded and `dist[u]` only grows
/// afterwards, so around the cycle `Σ w > 0`), and without a positive
/// cycle relaxation converges and no predecessor cycle ever forms. So the
/// answer is the one all `n + 1` rounds would give, usually after far
/// fewer rounds on an infeasible `II`.
fn has_positive_cycle(n: usize, edges: &[(usize, usize, i64, i64)], ii: i64) -> bool {
    if n == 0 {
        return false;
    }
    let mut dist = vec![0i64; n];
    let mut pred = vec![usize::MAX; n];
    let mut mark = vec![0usize; n];
    for round in 0..=n {
        let mut changed = false;
        for &(u, v, lat, d) in edges {
            let w = lat - ii * d;
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                pred[v] = u;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n || has_pred_cycle(&pred, &mut mark) {
            return true;
        }
    }
    false
}

/// Whether the predecessor graph (`pred[v]`, `usize::MAX` for none) has a
/// cycle: every node has at most one predecessor, so one walk per
/// unvisited start node, stamped with that start, finds it in `O(n)`.
fn has_pred_cycle(pred: &[usize], mark: &mut [usize]) -> bool {
    mark.fill(0);
    for s in 0..pred.len() {
        let mut v = s;
        while v != usize::MAX && mark[v] == 0 {
            mark[v] = s + 1;
            v = pred[v];
        }
        if v != usize::MAX && mark[v] == s + 1 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{elementary_circuits, EnumLimits};
    use vliw_ir::{ArrayKind, KernelBuilder, Opcode};

    fn lat1(_: OpId) -> u32 {
        1
    }

    #[test]
    fn res_mii_counts_fu_pressure() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        // 5 loads on 4 memory units -> ResMII 2
        for i in 0..5 {
            let _ = b.load(format!("ld{i}"), a, 4 * i, 4, 4);
        }
        // 3 int ops on 4 int units -> 1
        for i in 0..3 {
            let _ = b.int_op(format!("i{i}"), Opcode::Add, &[]);
        }
        let k = b.finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        assert_eq!(res_mii(&k, &m), 2);
    }

    #[test]
    fn rec_mii_zero_for_dag() {
        let mut b = KernelBuilder::new("t");
        let (_, r) = b.int_op("a", Opcode::Add, &[]);
        let _ = b.int_op("b", Opcode::Sub, &[r.into()]);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, lat1), 0);
    }

    #[test]
    fn rec_mii_simple_cycle() {
        // a -> b (lat 1) -> a (lat 1, dist 1): II >= 2
        let mut b = KernelBuilder::new("t");
        let (na, ra) = b.int_op("a", Opcode::Add, &[]);
        let (nb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, lat1), 2);
        // with 5-cycle ops: (5+5)/1 = 10
        assert_eq!(rec_mii(&g, |_| 5), 10);
    }

    #[test]
    fn rec_mii_distance_divides() {
        // self-recurrence at distance 3 with latency 7 -> ceil(7/3) = 3
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("acc", Opcode::Add, &[], 3);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, |_| 7), 3);
        assert_eq!(rec_mii(&g, |_| 6), 2);
    }

    #[test]
    fn rec_mii_takes_worst_recurrence() {
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("fast", Opcode::Add, &[], 2); // ceil(l/2)
        let _ = b.int_op_carried("slow", Opcode::Add, &[], 1); // l
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, |_| 4), 4);
    }

    #[test]
    fn anti_edges_are_free() {
        let mut b = KernelBuilder::new("t");
        let (na, ra) = b.int_op("a", Opcode::Add, &[]);
        let (nb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegAnti, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        // circuit latency = lat(a->b flow) + 0 (anti) = lat(a)
        assert_eq!(rec_mii(&g, |_| 3), 3);
    }

    /// The all-rounds Bellman-Ford binary search `rec_mii` ran before the
    /// predecessor-cycle early exit: every infeasible probe relaxes for
    /// all `n + 1` rounds.
    fn rec_mii_all_rounds(ddg: &Ddg<'_>, lat_of: impl Fn(OpId) -> u32) -> u32 {
        let edges: Vec<(usize, usize, i64, i64)> = ddg
            .edges()
            .iter()
            .map(|e| {
                let lat = edge_latency(e, &lat_of) as i64;
                (e.from.index(), e.to.index(), lat, e.distance as i64)
            })
            .collect();
        let positive = |ii: i64| {
            let mut dist = vec![0i64; ddg.n_ops()];
            for _ in 0..=ddg.n_ops() {
                let mut changed = false;
                for &(u, v, lat, d) in &edges {
                    if dist[u] + lat - ii * d > dist[v] {
                        dist[v] = dist[u] + lat - ii * d;
                        changed = true;
                    }
                }
                if !changed {
                    return false;
                }
            }
            true
        };
        let (mut lo, mut hi) = (0i64, edges.iter().map(|e| e.2).sum::<i64>() + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if positive(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }

    /// SplitMix64: a dependency-free seeded generator for the property
    /// tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random dependence graph over `n` ops: forward edges at distance
    /// 0–3, backward and self edges at distance 1–3 (so no cycle has
    /// zero distance), every kind, parallel edges allowed. Without back
    /// edges the graph is a DAG.
    fn random_ddg(rng: &mut SplitMix, n: usize, back_edges: bool) -> vliw_ir::LoopKernel {
        use vliw_ir::DepKind::*;
        let mut b = KernelBuilder::new("rand");
        let ids: Vec<OpId> = (0..n)
            .map(|i| b.int_op(format!("n{i}"), Opcode::Add, &[]).0)
            .collect();
        let kinds = [RegFlow, RegFlow, RegFlow, RegAnti, RegOut, MemFlow, MemAnti];
        for _ in 0..rng.below(2 * n as u64) + 1 {
            let (u, v) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            let copies = if rng.below(4) == 0 { 2 } else { 1 };
            for _ in 0..copies {
                if u < v {
                    b.raw_edge(ids[u], ids[v], kind, rng.below(4) as u32);
                } else if back_edges {
                    b.raw_edge(ids[u], ids[v], kind, 1 + rng.below(3) as u32);
                }
            }
        }
        b.finish(1.0)
    }

    #[test]
    fn rec_mii_equals_the_worst_circuit_and_the_all_rounds_search() {
        let mut rng = SplitMix(0x7ec0_0001);
        let unlimited = EnumLimits {
            max_circuits: usize::MAX,
            max_len: usize::MAX,
        };
        let mut cyclic = 0;
        for case in 0..300 {
            let n = 1 + rng.below(8) as usize;
            let k = random_ddg(&mut rng, n, case % 5 != 0);
            let lats: Vec<u32> = (0..n).map(|_| 1 + rng.below(20) as u32).collect();
            let lat_of = |op: OpId| lats[op.index()];
            let g = Ddg::build(&k);
            let got = rec_mii(&g, lat_of);
            let circuits = elementary_circuits(&g, unlimited);
            let worst = circuits
                .iter()
                .map(|c| c.ii_bound(|e| edge_latency(&g.edges()[e], lat_of)))
                .max()
                .unwrap_or(0);
            assert_eq!(got, worst, "case {case}: worst circuit");
            assert_eq!(got, rec_mii_all_rounds(&g, lat_of), "case {case}");
            cyclic += usize::from(!circuits.is_empty());
        }
        // both DAGs and cyclic graphs were drawn
        assert!(cyclic > 100 && cyclic < 300, "{cyclic} cyclic cases");
    }

    #[test]
    fn long_cycle_is_infeasible_one_below_rec_mii() {
        // one 200-node register-flow cycle at total distance 3: a
        // positive cycle at RecMII − 1 closes only after ~200 relaxation
        // rounds
        let n = 200;
        let mut b = KernelBuilder::new("ring");
        let ids: Vec<OpId> = (0..n)
            .map(|i| b.int_op(format!("n{i}"), Opcode::Add, &[]).0)
            .collect();
        for w in ids.windows(2) {
            b.raw_edge(w[0], w[1], vliw_ir::DepKind::RegFlow, 0);
        }
        b.raw_edge(ids[n - 1], ids[0], vliw_ir::DepKind::RegFlow, 3);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let lat_of = |op: OpId| 1 + (op.index() % 7) as u32;
        let sum: u32 = (0..n).map(|i| lat_of(OpId::new(i))).sum();
        let rec = rec_mii(&g, lat_of);
        assert_eq!(rec, sum.div_ceil(3));
        assert_eq!(rec, rec_mii_all_rounds(&g, lat_of));
        let edges: Vec<_> = g
            .edges()
            .iter()
            .map(|e| {
                let lat = edge_latency(e, lat_of) as i64;
                (e.from.index(), e.to.index(), lat, e.distance as i64)
            })
            .collect();
        assert!(has_positive_cycle(n, &edges, rec as i64 - 1));
        assert!(!has_positive_cycle(n, &edges, rec as i64));
    }

    #[test]
    fn edge_latency_kinds() {
        use vliw_ir::DepKind::*;
        let e = |kind| DepEdge::new(OpId::new(0), OpId::new(1), kind, 0);
        assert_eq!(edge_latency(&e(RegFlow), |_| 9), 9);
        assert_eq!(edge_latency(&e(RegAnti), |_| 9), 0);
        assert_eq!(edge_latency(&e(RegOut), |_| 9), 1);
        assert_eq!(edge_latency(&e(MemFlow), |_| 9), 1);
        assert_eq!(edge_latency(&e(MemAnti), |_| 9), 0);
        assert_eq!(edge_latency(&e(MemOut), |_| 9), 1);
    }
}
