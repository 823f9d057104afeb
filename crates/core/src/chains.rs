//! Memory dependent chains (§4.3.2).
//!
//! Memory serialization is only guaranteed within a cluster, so every group
//! of memory operations connected by (possibly unresolved) memory
//! dependences — a *memory dependent chain* — must be scheduled in one
//! cluster. Chains are the connected components of the subgraph induced by
//! memory operations and memory dependence edges.

use vliw_ir::{LoopKernel, OpId};

/// The memory dependent chains of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemChains {
    chain_of: Vec<Option<usize>>,
    chains: Vec<Vec<OpId>>,
}

impl MemChains {
    /// Computes the chains of `kernel` (union-find over memory edges).
    /// Every memory operation belongs to exactly one chain; an unchained
    /// memory op forms a singleton chain.
    pub fn build(kernel: &LoopKernel) -> Self {
        let n = kernel.ops.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for e in kernel.edges.iter().filter(|e| e.kind.is_memory()) {
            let (a, b) = (
                find(&mut parent, e.from.index()),
                find(&mut parent, e.to.index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
        let mut chain_of = vec![None; n];
        let mut chains: Vec<Vec<OpId>> = Vec::new();
        let mut root_to_chain: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for op in &kernel.ops {
            if !op.is_mem() {
                continue;
            }
            let root = find(&mut parent, op.id.index());
            let cid = *root_to_chain.entry(root).or_insert_with(|| {
                chains.push(Vec::new());
                chains.len() - 1
            });
            chain_of[op.id.index()] = Some(cid);
            chains[cid].push(op.id);
        }
        MemChains { chain_of, chains }
    }

    /// The chain containing `op`, if `op` is a memory operation.
    pub fn chain_id(&self, op: OpId) -> Option<usize> {
        self.chain_of[op.index()]
    }

    /// Members of chain `id`, in program order.
    pub fn members(&self, id: usize) -> &[OpId] {
        &self.chains[id]
    }

    /// Number of chains.
    pub(crate) fn len(&self) -> usize {
        self.chains.len()
    }

    /// Iterator over `(chain id, members)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[OpId])> + '_ {
        self.chains
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m.as_slice()))
    }

    /// The chain's *average preferred cluster* (§4.3.2): each member votes
    /// for its own preferred cluster; the cluster with the most votes wins
    /// (ties resolve to the lowest-numbered cluster). With this rule the
    /// paper's Figure 3 chain {n1, n2, n4} — preferences {1, 1, 2} — lands
    /// in cluster 1. `None` when no member has profile data.
    pub fn preferred_cluster(
        &self,
        id: usize,
        kernel: &LoopKernel,
        n_clusters: usize,
    ) -> Option<usize> {
        let mut votes = vec![0u64; n_clusters];
        let mut any = false;
        for &op in self.members(id) {
            if let Some(pref) = kernel
                .op(op)
                .mem
                .as_ref()
                .and_then(|m| m.preferred_cluster())
            {
                if pref < n_clusters {
                    any = true;
                    votes[pref] += 1;
                }
            }
        }
        if !any {
            return None;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, DepKind, KernelBuilder, MemProfile};

    impl MemChains {
        /// Whether there are no memory operations at all.
        fn is_empty(&self) -> bool {
            self.chains.is_empty()
        }
    }

    #[test]
    fn unchained_mem_ops_are_singletons() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (_, v) = b.load("ld1", a, 0, 4, 4);
        let _ = b.load("ld2", a, 256, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|(_, m)| m.len() == 1));
    }

    #[test]
    fn mem_edges_merge_chains() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld1, v) = b.load("ld1", a, 0, 4, 4);
        let (ld2, _) = b.load("ld2", a, 256, 4, 4);
        let (st, _) = b.store("st", a, 512, 4, 4, v);
        b.mem_dep(ld1, st, DepKind::MemAnti, 0);
        b.mem_dep(st, ld1, DepKind::MemFlow, 1);
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        assert_eq!(c.len(), 2);
        assert_eq!(c.chain_id(ld1), c.chain_id(st));
        assert_ne!(c.chain_id(ld1), c.chain_id(ld2));
        let chained = c.chain_id(ld1).unwrap();
        assert_eq!(c.members(chained).len(), 2);
    }

    #[test]
    fn non_mem_ops_have_no_chain() {
        let mut b = KernelBuilder::new("t");
        let (add, _) = b.int_op("add", vliw_ir::Opcode::Add, &[]);
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        assert!(c.is_empty());
        assert_eq!(c.chain_id(add), None);
    }

    #[test]
    fn average_preferred_cluster_sums_histograms() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld1, v) = b.load("ld1", a, 0, 4, 4);
        let (ld2, _) = b.load("ld2", a, 4, 4, 4);
        let (st, _) = b.store("st", a, 512, 4, 4, v);
        b.mem_dep(ld1, st, DepKind::MemAnti, 0);
        b.mem_dep(ld2, st, DepKind::MemAnti, 0);
        // two members prefer cluster 0, one prefers cluster 1
        b.set_profile(ld1, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(ld2, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(st, MemProfile::concentrated(1.0, 1, 4));
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        let id = c.chain_id(ld1).unwrap();
        assert_eq!(c.members(id).len(), 3);
        assert_eq!(c.preferred_cluster(id, &k, 4), Some(0));
    }

    #[test]
    fn preferred_cluster_none_without_profiles() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, _) = b.load("ld", a, 0, 4, 4);
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        assert_eq!(c.preferred_cluster(c.chain_id(ld).unwrap(), &k, 4), None);
    }

    #[test]
    fn transitive_chaining() {
        // a chain of 4 ops linked pairwise collapses to one chain
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let mut ids = Vec::new();
        let mut prev_val = None;
        for i in 0..4 {
            let (id, v) = b.load(format!("ld{i}"), a, 4 * i, 4, 4);
            if let Some(p) = ids.last().copied() {
                b.mem_dep(p, id, DepKind::MemOut, 0);
            }
            ids.push(id);
            prev_val = Some(v);
        }
        let _ = prev_val;
        let k = b.finish(1.0);
        let c = MemChains::build(&k);
        assert_eq!(c.len(), 1);
        assert_eq!(c.members(0).len(), 4);
    }
}
