//! Elementary-circuit enumeration (recurrences of the dependence graph).
//!
//! The latency-assignment step (§4.3.1, step 2) works "one recurrence at a
//! time, starting with the recurrence that has the highest II value", so the
//! scheduler needs the actual circuits, not just the RecMII bound. This
//! module implements Johnson's algorithm extended to multigraphs (parallel
//! dependence edges are distinguished), with caps on count and length as a
//! safety valve for adversarial graphs.
//!
//! **Distance pruning.** Before the search from each start node `s`, a
//! breadth-first search over reverse edges, restricted to nodes `>= s`,
//! gives every node's fewest edges back to `s`. The depth-first search
//! then never enters a node that cannot reach `s` (Johnson's usual
//! restriction to the start's strongly connected component), and never
//! enters a node `w` whose shortest way back would make the circuit
//! longer than [`EnumLimits::max_len`]. Unrolled loops have long
//! distance-0 chains whose paths mostly cannot return to `s` within the
//! cap; without the length cut the search re-walks every such path, at a
//! cost exponential in the cap.
//!
//! **Why a length-cut branch counts as found.** Johnson's blocking marks
//! a node that led to no circuit so that later paths skip it until one of
//! its successors is freed. A branch cut by the length cap says nothing
//! about the node itself — a shorter path may reach it later with room to
//! close a circuit — so it keeps the node unblocked exactly like a found
//! circuit. Blocking therefore stays independent of depth, and the cut
//! loses no circuit.
//!
//! **Hard count cap.** The search stops the moment
//! [`EnumLimits::max_circuits`] circuits are recorded, so the result is
//! the prefix of the full enumeration order of exactly that length (or
//! the whole enumeration, when it is shorter).

use vliw_ir::{Ddg, OpId};

/// One elementary circuit of the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// Operations on the circuit, in traversal order.
    pub nodes: Vec<OpId>,
    /// Indices into [`Ddg::edges`] of the traversed edges;
    /// `edges[k]` goes from `nodes[k]` to `nodes[(k+1) % len]`.
    pub edges: Vec<usize>,
    /// Total iteration distance around the circuit (> 0 for any legal DDG).
    pub total_distance: u32,
}

impl Circuit {
    /// Whether `op` lies on this circuit.
    pub fn contains(&self, op: OpId) -> bool {
        self.nodes.contains(&op)
    }

    /// The initiation-interval bound imposed by this circuit under the
    /// given per-edge latency function: `ceil(Σ latency / Σ distance)`.
    pub fn ii_bound(&self, mut edge_latency: impl FnMut(usize) -> u32) -> u32 {
        let lat: u64 = self.edges.iter().map(|&e| edge_latency(e) as u64).sum();
        let dist = self.total_distance as u64;
        debug_assert!(
            dist > 0,
            "circuit with zero total distance is an illegal DDG"
        );
        lat.div_ceil(dist) as u32
    }
}

/// Limits for circuit enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnumLimits {
    /// Maximum number of circuits returned.
    pub max_circuits: usize,
    /// Maximum circuit length in nodes.
    pub max_len: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_circuits: 50_000,
            max_len: 256,
        }
    }
}

/// Enumerates the elementary circuits of `ddg` (Johnson's algorithm over
/// the edge multigraph), at most `limits.max_circuits` of them, each of
/// at most `limits.max_len` nodes. Circuits are reported by ascending
/// minimum node, then in depth-first order of the edge list. Circuits
/// whose total distance is zero would make the loop unschedulable; they
/// are reported by panicking in debug builds and skipped in release
/// builds.
pub fn elementary_circuits(ddg: &Ddg<'_>, limits: EnumLimits) -> Vec<Circuit> {
    if limits.max_len == 0 {
        return Vec::new();
    }
    let n = ddg.n_ops();
    // adjacency as (edge index, target) pairs
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, e) in ddg.edges().iter().enumerate() {
        adj[e.from.index()].push((i, e.to.index()));
    }
    let mut j = Johnson {
        ddg,
        adj: &adj,
        limits,
        s: 0,
        dist: vec![UNREACHABLE; n],
        queue: Vec::with_capacity(n),
        blocked: vec![false; n],
        block_list: vec![Vec::new(); n],
        stack_nodes: Vec::new(),
        stack_edges: Vec::new(),
        result: Vec::new(),
    };
    // for each start node s (ascending), find the circuits whose minimum
    // node is s, restricted to nodes >= s
    for s in 0..n {
        if j.full() {
            break;
        }
        j.s = s;
        j.distances_to_start();
        j.blocked[s..].fill(false);
        for l in &mut j.block_list[s..] {
            l.clear();
        }
        j.circuit(s);
    }
    j.result
}

/// `Johnson::dist` of a node with no path back to the start node.
const UNREACHABLE: usize = usize::MAX;

/// Johnson's search state for one enumeration; its buffers are reused
/// across start nodes.
struct Johnson<'a, 'k> {
    ddg: &'a Ddg<'k>,
    adj: &'a [Vec<(usize, usize)>],
    limits: EnumLimits,
    /// The current start node.
    s: usize,
    /// Fewest edges from each node back to `s` over nodes `>= s`, or
    /// [`UNREACHABLE`].
    dist: Vec<usize>,
    queue: Vec<usize>,
    blocked: Vec<bool>,
    block_list: Vec<Vec<usize>>,
    stack_nodes: Vec<usize>,
    stack_edges: Vec<usize>,
    result: Vec<Circuit>,
}

impl Johnson<'_, '_> {
    fn full(&self) -> bool {
        self.result.len() >= self.limits.max_circuits
    }

    /// Fills `dist` by a breadth-first search from `s` over reverse
    /// edges, restricted to nodes `>= s`.
    fn distances_to_start(&mut self) {
        let s = self.s;
        self.dist.fill(UNREACHABLE);
        self.dist[s] = 0;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for p in self.ddg.preds(OpId::new(u)) {
                let p = p.index();
                if p >= s && self.dist[p] == UNREACHABLE {
                    self.dist[p] = self.dist[u] + 1;
                    self.queue.push(p);
                }
            }
        }
    }

    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        let pending = std::mem::take(&mut self.block_list[v]);
        for w in pending {
            if self.blocked[w] {
                self.unblock(w);
            }
        }
    }

    /// Extends the path on the stack by `v`; returns whether `v` must stay
    /// unblocked: a circuit was found through it, or a branch was cut by
    /// the length cap (a shorter path may reach `v` later).
    fn circuit(&mut self, v: usize) -> bool {
        let adj = self.adj;
        let mut found = false;
        self.stack_nodes.push(v);
        self.blocked[v] = true;
        for &(ei, w) in &adj[v] {
            if self.full() {
                break;
            }
            if w == self.s {
                self.close(ei);
                found = true;
            } else if self.dist[w] == UNREACHABLE || self.blocked[w] {
                // w lies below s, cannot reach s, or is blocked
            } else if self.stack_nodes.len() + self.dist[w] > self.limits.max_len {
                // every circuit through w from here is too long; counts
                // as found so that blocking stays depth-independent
                found = true;
            } else {
                self.stack_edges.push(ei);
                found |= self.circuit(w);
                self.stack_edges.pop();
            }
        }
        if found {
            self.unblock(v);
        } else {
            for &(_, w) in &adj[v] {
                if self.dist[w] != UNREACHABLE && !self.block_list[w].contains(&v) {
                    self.block_list[w].push(v);
                }
            }
        }
        self.stack_nodes.pop();
        found
    }

    /// Records the circuit closed by edge `ei` back to `s`.
    fn close(&mut self, ei: usize) {
        let mut edges = self.stack_edges.clone();
        edges.push(ei);
        let nodes: Vec<OpId> = self.stack_nodes.iter().map(|&i| OpId::new(i)).collect();
        let total_distance: u32 = edges.iter().map(|&e| self.ddg.edges()[e].distance).sum();
        if total_distance == 0 {
            debug_assert!(
                false,
                "zero-distance circuit through {nodes:?}: illegal dependence graph"
            );
        } else {
            self.result.push(Circuit {
                nodes,
                edges,
                total_distance,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use vliw_ir::{DepEdge, DepKind, KernelBuilder, Opcode};

    fn edge(from: usize, to: usize, distance: u32) -> DepEdge {
        DepEdge::new(OpId::new(from), OpId::new(to), DepKind::RegFlow, distance)
    }

    /// Every elementary circuit of at most `max_len` nodes in Johnson's
    /// order — ascending minimum node, then depth-first over the edge
    /// list — by plain path enumeration: no blocking, no pruning.
    fn naive_circuits(ddg: &Ddg<'_>, max_len: usize) -> Vec<Circuit> {
        fn walk(
            ddg: &Ddg<'_>,
            s: usize,
            max_len: usize,
            path: &mut Circuit,
            out: &mut Vec<Circuit>,
        ) {
            let v = path.nodes.last().expect("nonempty path").index();
            for (ei, e) in ddg.edges().iter().enumerate() {
                if e.from.index() != v {
                    continue;
                }
                let w = e.to.index();
                path.edges.push(ei);
                path.total_distance += e.distance;
                if w == s {
                    out.push(path.clone());
                } else if w > s && path.nodes.len() < max_len && !path.contains(e.to) {
                    path.nodes.push(e.to);
                    walk(ddg, s, max_len, path, out);
                    path.nodes.pop();
                }
                path.total_distance -= e.distance;
                path.edges.pop();
            }
        }
        let mut out = Vec::new();
        for s in 0..ddg.n_ops() {
            if max_len > 0 {
                let mut path = Circuit {
                    nodes: vec![OpId::new(s)],
                    edges: Vec::new(),
                    total_distance: 0,
                };
                walk(ddg, s, max_len, &mut path, &mut out);
            }
        }
        out
    }

    #[test]
    fn matches_naive_enumeration_on_random_multigraphs() {
        // splitmix64
        let mut state = 0x5eed_c1c0_u64;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut truncated = 0;
        for _ in 0..400 {
            let n = 1 + next(10);
            // forward edges may carry distance 0; every circuit takes a
            // backward edge or self-loop, whose distance is >= 1
            let edges: Vec<DepEdge> = (0..next(3 * n + 1))
                .map(|_| {
                    let (from, to) = (next(n), next(n));
                    let distance = if from < to { next(2) } else { 1 + next(2) };
                    edge(from, to, distance as u32)
                })
                .collect();
            let g = Ddg::from_edges(n, &edges);
            let max_len = next(n + 2);
            let all = naive_circuits(&g, max_len);
            let max_circuits = next(all.len() + 2);
            truncated += usize::from(max_circuits < all.len());
            let got = elementary_circuits(
                &g,
                EnumLimits {
                    max_circuits,
                    max_len,
                },
            );
            assert_eq!(
                got,
                all[..max_circuits.min(all.len())],
                "{edges:?} {max_len}"
            );
        }
        assert!(truncated > 100, "the count cap binds often ({truncated})");
    }

    #[test]
    fn count_cap_is_hard() {
        // 0→1→0 closes first, inside the call for node 1; the self-loop
        // on 0 would close a second circuit on return
        let edges = [edge(0, 1, 0), edge(1, 0, 1), edge(0, 0, 1)];
        let g = Ddg::from_edges(2, &edges);
        let limits = EnumLimits {
            max_circuits: 1,
            max_len: 8,
        };
        let cs = elementary_circuits(&g, limits);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].edges, [0, 1]);
        assert_eq!(elementary_circuits(&g, EnumLimits::default()).len(), 2);
    }

    #[test]
    fn distance_pruning_cuts_a_long_distance_zero_ladder() {
        // 70 layers of two nodes, each node feeding both nodes of the next
        // layer over distance-0 edges, and one back edge from node 4
        // (layer 2) to node 0: two circuits, and 2^63 paths from node 0
        // that reach 64 nodes without ever returning. An enumerator that
        // walks every path up to the length cap does not finish.
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let layers = 70;
            let mut edges = Vec::new();
            for v in 0..2 * (layers - 1) {
                let next = 2 * (v / 2 + 1);
                edges.extend([edge(v, next, 0), edge(v, next + 1, 0)]);
            }
            edges.push(edge(4, 0, 1));
            let g = Ddg::from_edges(2 * layers, &edges);
            let limits = EnumLimits {
                max_circuits: 4000,
                max_len: 64,
            };
            let _ = tx.send(elementary_circuits(&g, limits).len());
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(20)), Ok(2));
        worker.join().expect("the enumeration thread finished");
    }

    #[test]
    fn self_loop_is_one_circuit() {
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("acc", Opcode::Add, &[], 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].nodes.len(), 1);
        assert_eq!(cs[0].total_distance, 1);
    }

    #[test]
    fn two_node_cycle() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, rb) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        // close the cycle: a reads b's previous value
        b.raw_edge(bb, a, DepKind::RegFlow, 1);
        let _ = rb;
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].nodes.len(), 2);
        assert_eq!(cs[0].total_distance, 1);
    }

    #[test]
    fn parallel_edges_yield_distinct_circuits() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(bb, a, DepKind::RegFlow, 1);
        b.raw_edge(bb, a, DepKind::RegAnti, 2);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        // two back edges -> two circuits through {a, b}
        assert_eq!(cs.len(), 2);
        let dists: Vec<u32> = cs.iter().map(|c| c.total_distance).collect();
        assert!(dists.contains(&1) && dists.contains(&2));
    }

    #[test]
    fn dag_has_no_circuits() {
        let mut b = KernelBuilder::new("t");
        let (_, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let _ = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert!(elementary_circuits(&g, EnumLimits::default()).is_empty());
    }

    #[test]
    fn ii_bound_rounds_up() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(bb, a, DepKind::RegFlow, 2);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        // latencies 3 per edge, total 6 over distance 2 -> II 3; 7 over 2 -> 4
        assert_eq!(cs[0].ii_bound(|_| 3), 3);
        let mut i = 0;
        assert_eq!(
            cs[0].ii_bound(|_| {
                i += 1;
                if i == 1 {
                    3
                } else {
                    4
                }
            }),
            4
        );
    }

    #[test]
    fn enumeration_respects_caps() {
        // complete-ish graph with back edges: many circuits
        let mut b = KernelBuilder::new("t");
        let mut ids = Vec::new();
        for i in 0..8 {
            let (id, _) = b.int_op(format!("n{i}"), Opcode::Add, &[]);
            ids.push(id);
        }
        for &u in &ids {
            for &v in &ids {
                if u != v {
                    b.raw_edge(u, v, DepKind::RegFlow, 1);
                }
            }
        }
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(
            &g,
            EnumLimits {
                max_circuits: 100,
                max_len: 8,
            },
        );
        assert!(cs.len() <= 100);
        assert!(!cs.is_empty());
    }

    #[test]
    fn figure3_has_two_recurrences() {
        // the shape of the paper's Figure 3: two disjoint recurrences
        let mut b = KernelBuilder::new("fig3");
        let (n1, r1) = b.int_op("n1", Opcode::Add, &[]);
        let (_n2, r2) = b.int_op("n2", Opcode::Add, &[r1.into()]);
        let (_n3, r3) = b.int_op("n3", Opcode::Add, &[r2.into()]);
        let (_n5, r5) = b.int_op("n5", Opcode::Sub, &[r3.into()]);
        let (n4, _) = b.int_op("n4", Opcode::Add, &[r5.into()]);
        b.raw_edge(n4, n1, DepKind::RegAnti, 1);
        let (n6, r6) = b.int_op("n6", Opcode::Add, &[]);
        let (_n7, r7) = b.int_op("n7", Opcode::Div, &[r6.into()]);
        let (n8, _) = b.int_op("n8", Opcode::Add, &[r7.into()]);
        b.raw_edge(n8, n6, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 2);
        let sizes: Vec<usize> = cs.iter().map(|c| c.nodes.len()).collect();
        assert!(sizes.contains(&5) && sizes.contains(&3));
    }
}
