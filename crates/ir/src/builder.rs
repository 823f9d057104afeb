//! Fluent construction of loop kernels.

use std::collections::HashMap;

use crate::ddg::{DepEdge, DepKind};
use crate::kernel::LoopKernel;
use crate::mem_access::{ArrayId, ArrayInfo, ArrayKind, MemAccessInfo, MemProfile};
use crate::op::{OpId, Opcode, Operation, SrcOperand};
use crate::reg::VirtReg;

/// Builds a [`LoopKernel`], deriving register-flow dependence edges from
/// def-use information automatically.
///
/// Register anti/output dependences are *not* derived automatically: the
/// modulo scheduler is assumed to rename kernel lifetimes (modulo variable
/// expansion / rotating files), which removes them — exactly the assumption
/// Swing Modulo Scheduling makes. When a false register dependence matters
/// (as in the paper's Figure 3 example), add it explicitly with
/// [`KernelBuilder::raw_edge`]. Memory dependences — the output of the
/// IMPACT-style conservative disambiguator — are added with
/// [`KernelBuilder::mem_dep`].
///
/// # Example
///
/// ```
/// use vliw_ir::{ArrayKind, DepKind, KernelBuilder, Opcode};
///
/// let mut b = KernelBuilder::new("acc");
/// let a = b.array("a", 4096, ArrayKind::Heap);
/// let (ld, v) = b.load("ld", a, 0, 4, 4);
/// // loop-carried accumulation: acc += a[i]
/// let (add, acc) = b.int_op_carried("acc", Opcode::Add, &[v.into()], 1);
/// let (st, _) = b.store("st", a, 2048, 4, 4, acc);
/// b.mem_dep(st, ld, DepKind::MemAnti, 1);
/// let k = b.finish(128.0);
/// assert_eq!(k.ops.len(), 3);
/// // edges: ld->add (RF), add->add (RF d=1), acc->st (RF), st->ld (MA d=1)
/// assert_eq!(k.edges.len(), 4);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    ops: Vec<Operation>,
    arrays: Vec<ArrayInfo>,
    extra_edges: Vec<DepEdge>,
    next_reg: u32,
    invocations: f64,
}

impl KernelBuilder {
    /// Starts a new kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            ops: Vec::new(),
            arrays: Vec::new(),
            extra_edges: Vec::new(),
            next_reg: 0,
            invocations: 1.0,
        }
    }

    /// Sets how many times the loop is entered per program run.
    pub fn invocations(&mut self, n: f64) -> &mut Self {
        self.invocations = n;
        self
    }

    /// Declares an array (data object) the kernel accesses.
    pub fn array(&mut self, name: impl Into<String>, size: u64, kind: ArrayKind) -> ArrayId {
        let id = ArrayId::new(self.arrays.len());
        self.arrays.push(ArrayInfo {
            id,
            name: name.into(),
            size,
            kind,
        });
        id
    }

    /// Allocates a fresh virtual register with no definition in the loop —
    /// a live-in (loop-invariant) value.
    pub fn live_in(&mut self) -> VirtReg {
        let r = VirtReg::new(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn push_op(
        &mut self,
        name: impl Into<String>,
        opcode: Opcode,
        dst: Option<VirtReg>,
        srcs: Vec<SrcOperand>,
        mem: Option<MemAccessInfo>,
    ) -> OpId {
        debug_assert_eq!(opcode.is_mem(), mem.is_some(), "mem info iff memory opcode");
        let id = OpId::new(self.ops.len());
        self.ops.push(Operation {
            id,
            name: name.into(),
            opcode,
            dst,
            srcs,
            mem,
        });
        id
    }

    fn fresh_def(&mut self) -> VirtReg {
        let r = VirtReg::new(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Adds a non-memory operation producing a value.
    ///
    /// # Panics
    ///
    /// Panics if `opcode` is a memory or store opcode.
    pub fn int_op(
        &mut self,
        name: impl Into<String>,
        opcode: Opcode,
        srcs: &[SrcOperand],
    ) -> (OpId, VirtReg) {
        assert!(!opcode.is_mem(), "use load/store for memory operations");
        let dst = self.fresh_def();
        let id = self.push_op(name, opcode, Some(dst), srcs.to_vec(), None);
        (id, dst)
    }

    /// Adds a non-memory operation whose result feeds itself `distance`
    /// iterations later (a loop-carried recurrence like `acc += x`).
    pub fn int_op_carried(
        &mut self,
        name: impl Into<String>,
        opcode: Opcode,
        srcs: &[SrcOperand],
        distance: u32,
    ) -> (OpId, VirtReg) {
        assert!(distance > 0, "carried distance must be positive");
        let dst = self.fresh_def();
        let mut all = srcs.to_vec();
        all.push(SrcOperand::with_distance(dst, distance));
        let id = self.push_op(name, opcode, Some(dst), all, None);
        (id, dst)
    }

    /// Adds a constant/loop-invariant producing operation (no sources).
    /// Modelled as an integer move; useful to seed tests.
    pub fn int_const(&mut self, name: impl Into<String>) -> (OpId, VirtReg) {
        self.int_op(name, Opcode::Add, &[])
    }

    /// Adds a strided load. Returns the operation id and the loaded value.
    pub fn load(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        offset: i64,
        stride: i64,
        granularity: u8,
    ) -> (OpId, VirtReg) {
        let dst = self.fresh_def();
        let mem = MemAccessInfo::strided(array, offset, stride, granularity);
        let id = self.push_op(name, Opcode::Load, Some(dst), Vec::new(), Some(mem));
        (id, dst)
    }

    /// Adds an indirect load whose address depends on `index_value`
    /// (an `a[b[i]]`-style access: unknown stride, profiled cluster spread).
    pub fn load_indirect(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        index_value: VirtReg,
        granularity: u8,
    ) -> (OpId, VirtReg) {
        let dst = self.fresh_def();
        let mem = MemAccessInfo::indirect(array, granularity);
        let id = self.push_op(
            name,
            Opcode::Load,
            Some(dst),
            vec![SrcOperand::new(index_value)],
            Some(mem),
        );
        (id, dst)
    }

    /// Adds a strided store of `value`. Returns the operation id and, for
    /// symmetry with the other constructors, the stored register.
    pub fn store(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        offset: i64,
        stride: i64,
        granularity: u8,
        value: VirtReg,
    ) -> (OpId, VirtReg) {
        let mem = MemAccessInfo::strided(array, offset, stride, granularity);
        let id = self.push_op(
            name,
            Opcode::Store,
            None,
            vec![SrcOperand::new(value)],
            Some(mem),
        );
        (id, value)
    }

    /// Adds a memory dependence edge (the conservative disambiguator's
    /// output). `kind` must be a memory dependence kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a register dependence kind or either endpoint is
    /// not a memory operation.
    pub fn mem_dep(&mut self, from: OpId, to: OpId, kind: DepKind, distance: u32) -> &mut Self {
        assert!(
            kind.is_memory(),
            "mem_dep requires a memory dependence kind"
        );
        assert!(
            self.ops[from.index()].is_mem() && self.ops[to.index()].is_mem(),
            "memory dependences connect memory operations"
        );
        self.extra_edges
            .push(DepEdge::new(from, to, kind, distance));
        self
    }

    /// Adds an arbitrary extra dependence edge (register anti/output edges,
    /// or hand-built graphs like the paper's Figure 3).
    pub fn raw_edge(&mut self, from: OpId, to: OpId, kind: DepKind, distance: u32) -> &mut Self {
        self.extra_edges
            .push(DepEdge::new(from, to, kind, distance));
        self
    }

    /// Attaches profile data to a memory operation (used by tests and the
    /// worked example; the real profiling pass lives in `vliw-workloads`).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a memory operation.
    pub fn set_profile(&mut self, op: OpId, profile: MemProfile) -> &mut Self {
        let mem = self.ops[op.index()]
            .mem
            .as_mut()
            .expect("profile data attaches to memory operations");
        mem.profile = Some(profile);
        self
    }

    /// Finishes the kernel, deriving register-flow edges from def-use
    /// information.
    ///
    /// # Panics
    ///
    /// Panics if a source operand with distance 0 reads a register that is
    /// never defined and was not created with [`KernelBuilder::live_in`].
    pub fn finish(self, avg_trip: f64) -> LoopKernel {
        let mut defs: HashMap<VirtReg, OpId> = HashMap::new();
        for op in &self.ops {
            if let Some(d) = op.dst {
                let prev = defs.insert(d, op.id);
                assert!(
                    prev.is_none(),
                    "register {d} defined twice (SSA form required)"
                );
            }
        }
        let mut edges = Vec::new();
        for op in &self.ops {
            for s in &op.srcs {
                if let Some(&def) = defs.get(&s.reg) {
                    edges.push(DepEdge::new(def, op.id, DepKind::RegFlow, s.distance));
                }
                // registers with no kernel definition are live-ins: no edge
            }
        }
        edges.extend(self.extra_edges);
        LoopKernel {
            name: self.name,
            ops: self.ops,
            edges,
            arrays: self.arrays,
            avg_trip,
            invocations: self.invocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_edges_from_def_use() {
        let mut b = KernelBuilder::new("t");
        let (c, r) = b.int_const("c");
        let (u, _) = b.int_op("u", Opcode::Mul, &[r.into(), r.into()]);
        let k = b.finish(1.0);
        // two uses of r -> two flow edges c->u
        let cu: Vec<_> = k
            .edges
            .iter()
            .filter(|e| e.from == c && e.to == u)
            .collect();
        assert_eq!(cu.len(), 2);
        assert!(cu
            .iter()
            .all(|e| e.kind == DepKind::RegFlow && e.distance == 0));
    }

    #[test]
    fn live_in_creates_no_edge() {
        let mut b = KernelBuilder::new("t");
        let inv = b.live_in();
        let _ = b.int_op("u", Opcode::Add, &[inv.into()]);
        let k = b.finish(1.0);
        assert!(k.edges.is_empty());
    }

    #[test]
    fn carried_op_self_edge() {
        let mut b = KernelBuilder::new("t");
        let (a, _) = b.int_op_carried("acc", Opcode::Add, &[], 1);
        let k = b.finish(1.0);
        assert_eq!(k.edges.len(), 1);
        let e = k.edges[0];
        assert_eq!((e.from, e.to, e.distance), (a, a, 1));
    }

    #[test]
    fn mem_dep_edges() {
        let mut b = KernelBuilder::new("t");
        let arr = b.array("a", 64, ArrayKind::Global);
        let (ld, v) = b.load("ld", arr, 0, 4, 4);
        let (st, _) = b.store("st", arr, 0, 4, 4, v);
        b.mem_dep(ld, st, DepKind::MemAnti, 0);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        let k = b.finish(1.0);
        assert_eq!(k.edges.iter().filter(|e| e.kind.is_memory()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "memory dependence kind")]
    fn mem_dep_rejects_register_kind() {
        let mut b = KernelBuilder::new("t");
        let arr = b.array("a", 64, ArrayKind::Global);
        let (ld, v) = b.load("ld", arr, 0, 4, 4);
        let (st, _) = b.store("st", arr, 0, 4, 4, v);
        b.mem_dep(ld, st, DepKind::RegFlow, 0);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_definition_rejected() {
        let mut b = KernelBuilder::new("t");
        let (_, r) = b.int_const("c");
        // forge a second definition of the same register
        let id = OpId::new(b.ops.len());
        b.ops.push(Operation {
            id,
            name: "dup".into(),
            opcode: Opcode::Add,
            dst: Some(r),
            srcs: vec![],
            mem: None,
        });
        let _ = b.finish(1.0);
    }

    #[test]
    fn indirect_load_reads_index() {
        let mut b = KernelBuilder::new("t");
        let idx_arr = b.array("b", 256, ArrayKind::Global);
        let data = b.array("a", 4096, ArrayKind::Heap);
        let (_, i) = b.load("ld_idx", idx_arr, 0, 4, 4);
        let (ld2, _) = b.load_indirect("ld_data", data, i, 4);
        let k = b.finish(1.0);
        assert!(k.op(ld2).mem.as_ref().unwrap().indirect);
        // flow edge from index load to indirect load
        assert!(k
            .edges
            .iter()
            .any(|e| e.to == ld2 && e.kind == DepKind::RegFlow));
    }

    #[test]
    fn set_profile_attaches() {
        let mut b = KernelBuilder::new("t");
        let arr = b.array("a", 64, ArrayKind::Global);
        let (ld, _) = b.load("ld", arr, 0, 4, 4);
        b.set_profile(ld, MemProfile::concentrated(0.75, 1, 4));
        let k = b.finish(1.0);
        let p = k.op(ld).mem.as_ref().unwrap().profile.as_ref().unwrap();
        assert_eq!(p.preferred_cluster(), Some(1));
        assert!((p.hit_rate - 0.75).abs() < 1e-12);
    }
}
