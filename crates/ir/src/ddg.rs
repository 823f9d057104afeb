//! Data-dependence graph: edges and adjacency view.

use std::fmt;

use crate::kernel::LoopKernel;
use crate::op::OpId;

/// The kind of a dependence edge.
///
/// The paper's example DDG (Figure 3) uses register-flow (RF), register-anti
/// (RA) and memory-anti (MA) edges; the full set also includes register
/// output and memory flow/output dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register flow (true) dependence: producer's value is read.
    RegFlow,
    /// Register anti dependence: a read must not follow the next write.
    /// Two register anti-dependent instructions may share a cycle (§4.3.3).
    RegAnti,
    /// Register output dependence (write after write).
    RegOut,
    /// Memory flow dependence (store → load, possibly unresolved).
    MemFlow,
    /// Memory anti dependence (load → store).
    MemAnti,
    /// Memory output dependence (store → store).
    MemOut,
}

impl DepKind {
    /// Whether this is a register dependence.
    pub(crate) fn is_register(self) -> bool {
        matches!(self, DepKind::RegFlow | DepKind::RegAnti | DepKind::RegOut)
    }

    /// Whether this is a memory dependence. Memory dependences define the
    /// *memory dependent chains* of §4.3.2.
    pub fn is_memory(self) -> bool {
        !self.is_register()
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::RegFlow => "RF",
            DepKind::RegAnti => "RA",
            DepKind::RegOut => "RO",
            DepKind::MemFlow => "MF",
            DepKind::MemAnti => "MA",
            DepKind::MemOut => "MO",
        };
        f.write_str(s)
    }
}

/// A dependence edge `from → to` with an iteration distance.
///
/// A distance of `d` means the instance of `to` in iteration `i + d` depends
/// on the instance of `from` in iteration `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Source operation.
    pub from: OpId,
    /// Destination operation.
    pub to: OpId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
}

impl DepEdge {
    /// Creates an edge.
    pub fn new(from: OpId, to: OpId, kind: DepKind, distance: u32) -> Self {
        DepEdge {
            from,
            to,
            kind,
            distance,
        }
    }
}

impl fmt::Display for DepEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{}:d{}-> {}",
            self.from, self.kind, self.distance, self.to
        )
    }
}

/// Adjacency view of a kernel's dependence graph.
///
/// The view *borrows* the kernel's edge list (no copy) and stores the
/// per-operation adjacency in compressed sparse row (CSR) form: one flat
/// index array per direction plus `n_ops + 1` offsets, instead of a
/// `Vec<Vec<_>>` of per-node heap allocations. Built once per kernel and
/// shared by the MII computation, the node ordering and the scheduling
/// engine — all of which are on the scheduler's restart path, so building
/// must be cheap and allocation-light.
///
/// For each operation the edge indices (into
/// [`LoopKernel::edges`](crate::LoopKernel::edges)) appear in edge-list
/// order, exactly as the old nested-`Vec` layout produced them.
#[derive(Debug, Clone)]
pub struct Ddg<'k> {
    n_ops: usize,
    edges: &'k [DepEdge],
    // CSR adjacency: node v's outgoing edge indices are
    // succ_idx[succ_off[v]..succ_off[v+1]] (incoming: pred_*).
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
}

/// Builds one CSR direction: `key(edge)` is the node an edge is filed
/// under. Counting sort over nodes keeps edge indices in edge-list order.
fn csr(n_ops: usize, edges: &[DepEdge], key: impl Fn(&DepEdge) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_ops + 1];
    for e in edges {
        off[key(e) + 1] += 1;
    }
    for v in 0..n_ops {
        off[v + 1] += off[v];
    }
    let mut idx = vec![0u32; edges.len()];
    let mut cursor = off.clone();
    for (i, e) in edges.iter().enumerate() {
        let k = key(e);
        idx[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (off, idx)
}

impl<'k> Ddg<'k> {
    /// Builds the adjacency view for `kernel`, borrowing its edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an operation id outside the kernel.
    pub fn build(kernel: &'k LoopKernel) -> Self {
        Self::from_edges(kernel.ops.len(), &kernel.edges)
    }

    /// Builds the adjacency view over an explicit edge slice (`n_ops`
    /// operations).
    ///
    /// # Panics
    ///
    /// Panics if an edge references an operation id `>= n_ops`.
    pub fn from_edges(n_ops: usize, edges: &'k [DepEdge]) -> Self {
        for e in edges {
            assert!(e.from.index() < n_ops, "edge {e} references unknown source");
            assert!(e.to.index() < n_ops, "edge {e} references unknown target");
        }
        let (succ_off, succ_idx) = csr(n_ops, edges, |e| e.from.index());
        let (pred_off, pred_idx) = csr(n_ops, edges, |e| e.to.index());
        Ddg {
            n_ops,
            edges,
            succ_off,
            succ_idx,
            pred_off,
            pred_idx,
        }
    }

    /// Number of operations in the underlying kernel.
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// All edges.
    pub fn edges(&self) -> &'k [DepEdge] {
        self.edges
    }

    /// Outgoing edges of `op`.
    pub fn succ_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        let v = op.index();
        self.succ_idx[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Incoming edges of `op`.
    pub fn pred_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        let v = op.index();
        self.pred_idx[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Every edge incident to `op`: incoming edges first (in edge-list
    /// order), then outgoing. Self-edges appear once in each half. This is
    /// the view a placement searcher walks when it computes `op`'s
    /// feasible window against already-placed neighbors.
    pub fn incident_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        self.pred_edges(op).chain(self.succ_edges(op))
    }

    /// Predecessor operations of `op` (with repetitions if multiple edges).
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.pred_edges(op).map(|e| e.from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::op::Opcode;

    impl Ddg<'_> {
        /// Successor operations of `op` (with repetitions if multiple edges).
        fn succs(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
            self.succ_edges(op).map(|e| e.to)
        }
    }

    #[test]
    fn dep_kind_classification() {
        assert!(DepKind::RegFlow.is_register());
        assert!(DepKind::RegAnti.is_register());
        assert!(DepKind::RegOut.is_register());
        assert!(DepKind::MemFlow.is_memory());
        assert!(DepKind::MemAnti.is_memory());
        assert!(DepKind::MemOut.is_memory());
    }

    #[test]
    fn adjacency_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_const("c1");
        let (o2, r2) = b.int_op("a", Opcode::Add, &[r1.into()]);
        let (o3, _) = b.int_op("b", Opcode::Sub, &[r1.into(), r2.into()]);
        let k = b.finish(10.0);
        let g = Ddg::build(&k);
        assert_eq!(g.n_ops(), 3);
        let s1: Vec<_> = g.succs(o1).collect();
        assert!(s1.contains(&o2) && s1.contains(&o3));
        let p3: Vec<_> = g.preds(o3).collect();
        assert_eq!(p3.len(), 2);
        assert!(g.succ_edges(o2).all(|e| e.kind == DepKind::RegFlow));
    }

    #[test]
    fn csr_preserves_edge_list_order() {
        // two edges out of one node, plus a loop-carried back edge: the
        // succ/pred iterators must yield edges in edge-list order
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_o2, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let (o3, _) = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(o3, o1, DepKind::RegFlow, 1));
        let g = Ddg::build(&k);
        let out1: Vec<_> = g.succ_edges(o1).collect();
        let expect: Vec<_> = k.edges.iter().filter(|e| e.from == o1).collect();
        assert_eq!(out1, expect, "succ edges keep edge-list order");
        let in1: Vec<_> = g.pred_edges(o1).map(|e| (e.from, e.distance)).collect();
        assert_eq!(in1, [(o3, 1)]);
        // edge slice is borrowed, not copied
        assert_eq!(g.edges().as_ptr(), k.edges.as_ptr());
    }

    #[test]
    fn incident_view_and_degree() {
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_op("a", Opcode::Add, &[]);
        let (o2, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let (o3, _) = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(o3, o1, DepKind::RegFlow, 2));
        let g = Ddg::build(&k);
        assert_eq!(g.incident_edges(o1).count(), 3); // in: o3; out: o2, o3
        assert_eq!(g.incident_edges(o2).count(), 2);
        let inc: Vec<_> = g.incident_edges(o1).map(|e| (e.from, e.to)).collect();
        assert_eq!(inc, [(o3, o1), (o1, o2), (o1, o3)], "preds then succs");
        // degrees sum to twice the edge count
        let total: usize = (0..g.n_ops())
            .map(|i| g.incident_edges(OpId::new(i)).count())
            .sum();
        assert_eq!(total, 2 * k.edges.len());
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn build_rejects_dangling_edges() {
        let mut b = KernelBuilder::new("t");
        let (_, r) = b.int_const("c");
        let _ = b.int_op("a", Opcode::Add, &[r.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(
            OpId::new(0),
            OpId::new(99),
            DepKind::RegFlow,
            0,
        ));
        let _ = Ddg::build(&k);
    }
}
