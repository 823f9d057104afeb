//! Swing-Modulo-Scheduling node ordering (§4.3.1 step 3, after \[13\]).
//!
//! The ordering gives priority to recurrences according to the constraints
//! they impose on the II (most constraining first) and guarantees that most
//! nodes — all except one per recurrence — have only predecessors or only
//! successors placed before them in the ordered list, which keeps register
//! pressure low and scheduling windows tight.
//!
//! Implementation outline (faithful to the published algorithm, in the
//! style of production SMS implementations):
//!
//! 1. Group circuits that share nodes into *recurrence sets*; sort sets by
//!    descending recurrence II, then size.
//! 2. Before ordering each set, pull in the nodes lying on intra-iteration
//!    paths between already-ordered nodes and the set.
//! 3. Remaining nodes form per-weakly-connected-component sets at the end.
//! 4. Within the accumulated work list, alternate top-down sweeps (pick
//!    highest *height* first) and bottom-up sweeps (pick highest *depth*
//!    first), seeding the direction from how the set connects to the nodes
//!    already ordered.

use vliw_ir::{Ddg, OpId};

use crate::circuits::Circuit;
use crate::mii;

/// Depth/height over the intra-iteration (distance-0) subgraph, and its
/// adjacency as `(neighbor, edge index)` entries in edge-list order.
#[derive(Debug, Clone)]
struct DagInfo {
    depth: Vec<i64>,
    height: Vec<i64>,
    preds0: Vec<Vec<(usize, usize)>>,
    succs0: Vec<Vec<(usize, usize)>>,
}

fn dag_info(ddg: &Ddg<'_>, lat_of: &dyn Fn(OpId) -> u32) -> DagInfo {
    let n = ddg.n_ops();
    let mut preds0: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut succs0: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, e) in ddg.edges().iter().enumerate() {
        // distance-0 edges always point forward in construction order (the
        // builder creates defs before uses), so this subgraph is acyclic;
        // guard against hand-built graphs violating it.
        if e.distance == 0 && e.from.index() < e.to.index() {
            preds0[e.to.index()].push((e.from.index(), i));
            succs0[e.from.index()].push((e.to.index(), i));
        }
    }
    let depth = longest_path(0..n, &preds0, ddg, lat_of);
    let height = longest_path((0..n).rev(), &succs0, ddg, lat_of);
    DagInfo {
        depth,
        height,
        preds0,
        succs0,
    }
}

/// Longest distance-0 path to each node over `adj` (predecessors for the
/// depth, successors for the height), visiting nodes in `visit` order
/// (topological for `adj`). Each edge counts at least 1.
///
/// Every duplicate adjacency entry is charged the latency of the *first*
/// distance-0 edge (in edge-list order) of its pair. A node's adjacency
/// list is in edge-list order, so the first entry naming a neighbor holds
/// that edge: `first[w]` caches its latency while `seen[w]` is the node
/// being scanned.
fn longest_path(
    visit: impl Iterator<Item = usize>,
    adj: &[Vec<(usize, usize)>],
    ddg: &Ddg<'_>,
    lat_of: &dyn Fn(OpId) -> u32,
) -> Vec<i64> {
    let n = adj.len();
    let mut len = vec![0i64; n];
    let mut seen = vec![usize::MAX; n];
    let mut first = vec![0i64; n];
    for v in visit {
        for &(w, e) in &adj[v] {
            if seen[w] != v {
                seen[w] = v;
                first[w] = mii::edge_latency(&ddg.edges()[e], lat_of) as i64;
            }
            len[v] = len[v].max(len[w] + first[w].max(1));
        }
    }
    len
}

/// Marks every node reachable from a marked node through `adj` (the
/// marked nodes included).
fn close_over(mark: &mut [bool], adj: &[Vec<(usize, usize)>], stack: &mut Vec<usize>) {
    stack.extend((0..mark.len()).filter(|&v| mark[v]));
    while let Some(v) = stack.pop() {
        for &(w, _) in &adj[v] {
            if !mark[w] {
                mark[w] = true;
                stack.push(w);
            }
        }
    }
}

/// Computes the SMS node order for a kernel.
///
/// `circuits` are the kernel's recurrences and `lat_of` the (assigned)
/// per-op latencies; both feed the recurrence priorities.
///
/// Every set is an index structure over the ops (`set_of`, `ordered`,
/// `in_r` flags and node lists), not a hash set, and every choice below
/// is a maximum under a total order or a sort with a total tie-break, so
/// the order does not depend on how a set's nodes are iterated.
pub fn sms_order(ddg: &Ddg<'_>, circuits: &[Circuit], lat_of: impl Fn(OpId) -> u32) -> Vec<OpId> {
    let n = ddg.n_ops();
    if n == 0 {
        return Vec::new();
    }
    let lat_ref: &dyn Fn(OpId) -> u32 = &lat_of;
    let info = dag_info(ddg, lat_ref);

    // --- step 1: recurrence sets ------------------------------------------------
    // union circuits sharing nodes
    let mut parent: Vec<usize> = (0..circuits.len()).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    // Union via per-node incidence (first circuit seen per node), linear in
    // Σ|circuit| instead of quadratic pairwise overlap tests. The resulting
    // partition — the transitive closure of "shares a node" — is identical,
    // and everything downstream is sorted by (priority, size, min node), so
    // the different union-find tree shapes cannot change the order.
    let mut node_first: Vec<usize> = vec![usize::MAX; n];
    for (i, c) in circuits.iter().enumerate() {
        for o in &c.nodes {
            let v = o.index();
            if node_first[v] == usize::MAX {
                node_first[v] = i;
            } else {
                let (a, b) = (find(&mut parent, node_first[v]), find(&mut parent, i));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    // a set's priority is its most constraining circuit's II
    let mut root_prio = vec![0u32; circuits.len()];
    for (i, c) in circuits.iter().enumerate() {
        let root = find(&mut parent, i);
        let ii = c.ii_bound(|e| mii::edge_latency(&ddg.edges()[e], &lat_of));
        root_prio[root] = root_prio[root].max(ii);
    }
    // a set's members are the nodes whose first circuit has its root,
    // listed in ascending node order
    let mut root_set = vec![usize::MAX; circuits.len()];
    let mut rec_sets: Vec<(u32, Vec<usize>)> = Vec::new();
    for (v, &first) in node_first.iter().enumerate() {
        if first == usize::MAX {
            continue;
        }
        let root = find(&mut parent, first);
        if root_set[root] == usize::MAX {
            root_set[root] = rec_sets.len();
            rec_sets.push((root_prio[root], Vec::new()));
        }
        rec_sets[root_set[root]].1.push(v);
    }
    rec_sets.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(b.1.len().cmp(&a.1.len()))
            .then(a.1[0].cmp(&b.1[0]))
    });

    // --- steps 2-3: build the processing sets ------------------------------------
    let mut taken = vec![false; n];
    let mut any_taken = false;
    let mut process_sets: Vec<Vec<usize>> = Vec::new();
    let (mut in_s, mut down, mut up) = (vec![false; n], vec![false; n], vec![false; n]);
    let mut stack = Vec::new();
    for (_, set) in &rec_sets {
        let mut s: Vec<usize> = set.iter().copied().filter(|&v| !taken[v]).collect();
        if s.is_empty() {
            continue;
        }
        if any_taken {
            for &v in &s {
                in_s[v] = true;
            }
            // nodes on intra-iteration paths between ordered nodes and s
            down.copy_from_slice(&taken);
            close_over(&mut down, &info.succs0, &mut stack);
            up.copy_from_slice(&in_s);
            close_over(&mut up, &info.preds0, &mut stack);
            for v in 0..n {
                if down[v] && up[v] && !taken[v] && !in_s[v] {
                    in_s[v] = true;
                    s.push(v);
                }
            }
            // and the symmetric direction (paths from s down to taken)
            down.copy_from_slice(&in_s);
            close_over(&mut down, &info.succs0, &mut stack);
            up.copy_from_slice(&taken);
            close_over(&mut up, &info.preds0, &mut stack);
            for v in 0..n {
                if down[v] && up[v] && !taken[v] && !in_s[v] {
                    in_s[v] = true;
                    s.push(v);
                }
            }
            for &v in &s {
                in_s[v] = false;
            }
        }
        for &v in &s {
            taken[v] = true;
        }
        any_taken = true;
        process_sets.push(s);
    }
    // remaining nodes: weakly-connected components over all edges, in
    // order of their minimum node (the order they are first met below)
    if taken.iter().any(|&t| !t) {
        let mut comp_parent: Vec<usize> = (0..n).collect();
        for e in ddg.edges() {
            let (a, b) = (
                find(&mut comp_parent, e.from.index()),
                find(&mut comp_parent, e.to.index()),
            );
            if a != b {
                comp_parent[a] = b;
            }
        }
        let mut root_comp = vec![usize::MAX; n];
        for v in (0..n).filter(|&v| !taken[v]) {
            let r = find(&mut comp_parent, v);
            if root_comp[r] == usize::MAX {
                root_comp[r] = process_sets.len();
                process_sets.push(Vec::new());
            }
            process_sets[root_comp[r]].push(v);
        }
    }

    // --- step 4: the swing ordering ----------------------------------------------
    #[derive(PartialEq, Clone, Copy)]
    enum Dir {
        TopDown,
        BottomUp,
    }
    // the processing sets partition the nodes
    let mut set_of = vec![0usize; n];
    for (i, s) in process_sets.iter().enumerate() {
        for &v in s {
            set_of[v] = i;
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ordered = vec![false; n];
    // membership of the ready list `r`
    let mut in_r = vec![false; n];
    // the unordered nodes of `s` with an ordered neighbor through `adj`
    // (successors of ordered nodes through `preds0`, predecessors through
    // `succs0`)
    let touching = |s: &[usize], adj: &[Vec<(usize, usize)>], ordered: &[bool]| -> Vec<usize> {
        s.iter()
            .copied()
            .filter(|&v| !ordered[v] && adj[v].iter().any(|&(w, _)| ordered[w]))
            .collect()
    };
    for (si, s) in process_sets.iter().enumerate() {
        // seed: how does this set connect to what is already ordered?
        let succ_of_ordered = touching(s, &info.preds0, &ordered);
        let pred_of_ordered = touching(s, &info.succs0, &ordered);
        // Seed priority follows SMS: prefer sweeping bottom-up from the
        // set's nodes that feed already-ordered nodes. This keeps each
        // recurrence circuit contiguous so that its closing node's window
        // is bounded by the circuit (II >= RecMII suffices), instead of by
        // unrelated far-apart anchors.
        let (mut r, mut dir) = if !pred_of_ordered.is_empty() {
            (pred_of_ordered, Dir::BottomUp)
        } else if !succ_of_ordered.is_empty() {
            (succ_of_ordered, Dir::TopDown)
        } else {
            // start bottom-up from the node with the greatest ASAP (the tail
            // of the set's longest chain), as SMS does; deterministic
            // tie-break by height then id
            let seed = s.iter().copied().filter(|&v| !ordered[v]).max_by(|&a, &b| {
                info.depth[a]
                    .cmp(&info.depth[b])
                    .then(info.height[b].cmp(&info.height[a]))
                    .then(b.cmp(&a))
            });
            match seed {
                Some(v) => (vec![v], Dir::BottomUp),
                None => continue,
            }
        };
        for &v in &r {
            in_r[v] = true;
        }
        let mut left = s.iter().filter(|&&v| !ordered[v]).count();
        loop {
            while !r.is_empty() {
                // pick by height (top-down) or depth (bottom-up)
                let (at, _) = r
                    .iter()
                    .enumerate()
                    .max_by(|&(_, &a), &(_, &b)| {
                        let (ka, kb) = match dir {
                            Dir::TopDown => (info.height[a], info.height[b]),
                            Dir::BottomUp => (info.depth[a], info.depth[b]),
                        };
                        ka.cmp(&kb)
                            .then(match dir {
                                Dir::TopDown => info.depth[b].cmp(&info.depth[a]),
                                Dir::BottomUp => info.height[b].cmp(&info.height[a]),
                            })
                            .then(b.cmp(&a))
                    })
                    .expect("nonempty");
                let v = r.swap_remove(at);
                in_r[v] = false;
                // `r` holds only unordered nodes: one leaves it when ordered
                order.push(v);
                ordered[v] = true;
                left -= 1;
                let next = match dir {
                    Dir::TopDown => &info.succs0[v],
                    Dir::BottomUp => &info.preds0[v],
                };
                for &(w, _) in next {
                    if set_of[w] == si && !ordered[w] && !in_r[w] {
                        in_r[w] = true;
                        r.push(w);
                    }
                }
            }
            if left == 0 {
                break;
            }
            // swing: reverse direction, restart from the frontier
            dir = match dir {
                Dir::TopDown => Dir::BottomUp,
                Dir::BottomUp => Dir::TopDown,
            };
            r = match dir {
                Dir::TopDown => touching(s, &info.preds0, &ordered),
                Dir::BottomUp => touching(s, &info.succs0, &ordered),
            };
            if r.is_empty() {
                // disconnected leftover inside the set: reseed
                let seed = s
                    .iter()
                    .copied()
                    .filter(|&v| !ordered[v])
                    .max_by(|&a, &b| info.height[a].cmp(&info.height[b]).then(b.cmp(&a)));
                match seed {
                    Some(v) => r.push(v),
                    None => break,
                }
            }
            for &v in &r {
                in_r[v] = true;
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every op must be ordered");
    order.into_iter().map(OpId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{elementary_circuits, EnumLimits};
    use std::collections::HashSet;
    use vliw_ir::{DepKind, KernelBuilder, Opcode};

    /// Checks the SMS invariant the paper relies on: every node except (at
    /// most) one per recurrence has, at the moment of its placement in the
    /// order, only predecessors or only successors among the earlier nodes
    /// (intra-iteration edges). Returns the number of violating nodes.
    fn order_violations(ddg: &Ddg<'_>, order: &[OpId]) -> usize {
        let mut placed = HashSet::new();
        let mut bad = 0;
        for &v in order {
            let preds: HashSet<usize> = ddg
                .pred_edges(v)
                .filter(|e| e.distance == 0)
                .map(|e| e.from.index())
                .collect();
            let succs: HashSet<usize> = ddg
                .succ_edges(v)
                .filter(|e| e.distance == 0)
                .map(|e| e.to.index())
                .collect();
            let has_p = preds.iter().any(|p| placed.contains(p));
            let has_s = succs.iter().any(|s| placed.contains(s));
            if has_p && has_s {
                bad += 1;
            }
            placed.insert(v.index());
        }
        bad
    }

    fn order_of(k: &vliw_ir::LoopKernel) -> (Vec<OpId>, Ddg<'_>) {
        let g = Ddg::build(k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let o = sms_order(&g, &cs, |_| 1);
        (o, g)
    }

    #[test]
    fn all_ops_ordered_exactly_once() {
        let mut b = KernelBuilder::new("t");
        let (_, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let _ = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let _ = b.int_op_carried("acc", Opcode::Add, &[r2.into()], 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        assert_eq!(o.len(), 4);
        let set: HashSet<_> = o.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn recurrence_nodes_come_first() {
        let mut b = KernelBuilder::new("t");
        // free chain
        let (f1, rf) = b.int_op("f1", Opcode::Add, &[]);
        let (f2, _) = b.int_op("f2", Opcode::Sub, &[rf.into()]);
        // a recurrence with higher priority
        let (r1, rr) = b.int_op("r1", Opcode::Div, &[]);
        let (r2, _) = b.int_op("r2", Opcode::Add, &[rr.into()]);
        b.raw_edge(r2, r1, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        assert!(pos(r1) < pos(f1));
        assert!(pos(r2) < pos(f2));
    }

    #[test]
    fn higher_ii_recurrence_ordered_first() {
        let mut b = KernelBuilder::new("t");
        // REC A: short (II = 2 at lat 1)
        let (a1, ra) = b.int_op("a1", Opcode::Add, &[]);
        let (a2, _) = b.int_op("a2", Opcode::Add, &[ra.into()]);
        b.raw_edge(a2, a1, DepKind::RegFlow, 1);
        // REC B: long (II = 4 at lat 1)
        let (b1, rb1) = b.int_op("b1", Opcode::Add, &[]);
        let (b2, rb2) = b.int_op("b2", Opcode::Add, &[rb1.into()]);
        let (b3, rb3) = b.int_op("b3", Opcode::Add, &[rb2.into()]);
        let (b4, _) = b.int_op("b4", Opcode::Add, &[rb3.into()]);
        b.raw_edge(b4, b1, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        for x in [b1, b2, b3, b4] {
            for y in [a1, a2] {
                assert!(pos(x) < pos(y), "REC B (higher II) must be ordered first");
            }
        }
    }

    #[test]
    fn sms_invariant_holds_on_diamond() {
        // diamond: a -> b, a -> c, b -> d, c -> d: only the closing node may
        // see both sides
        let mut b = KernelBuilder::new("t");
        let (_, ra) = b.int_op("a", Opcode::Add, &[]);
        let (_, rb) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        let (_, rc) = b.int_op("c", Opcode::Mul, &[ra.into()]);
        let _ = b.int_op("d", Opcode::Add, &[rb.into(), rc.into()]);
        let k = b.finish(1.0);
        let (o, g) = order_of(&k);
        assert!(order_violations(&g, &o) <= 1);
    }

    #[test]
    fn chain_is_ordered_monotonically() {
        let mut b = KernelBuilder::new("t");
        let (n1, r1) = b.int_op("n1", Opcode::Add, &[]);
        let (n2, r2) = b.int_op("n2", Opcode::Add, &[r1.into()]);
        let (n3, r3) = b.int_op("n3", Opcode::Add, &[r2.into()]);
        let (n4, _) = b.int_op("n4", Opcode::Add, &[r3.into()]);
        let k = b.finish(1.0);
        let (o, g) = order_of(&k);
        // a pure chain: either all top-down or all bottom-up, and the SMS
        // invariant holds with zero violations
        assert_eq!(order_violations(&g, &o), 0);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        let ps = [pos(n1), pos(n2), pos(n3), pos(n4)];
        let increasing = ps.windows(2).all(|w| w[0] < w[1]);
        let decreasing = ps.windows(2).all(|w| w[0] > w[1]);
        assert!(increasing || decreasing);
    }

    #[test]
    fn empty_kernel_orders_nothing() {
        let b = KernelBuilder::new("t");
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert!(sms_order(&g, &[], |_| 1).is_empty());
    }
}
