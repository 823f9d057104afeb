//! Loop kernels.

use std::fmt;

use crate::ddg::DepEdge;
use crate::mem_access::ArrayInfo;
use crate::op::{OpId, Operation};

/// An innermost-loop body ready for modulo scheduling.
///
/// This is the unit the paper's techniques operate on: a single-basic-block
/// (hyperblock-style, if-converted) loop body with its dependence edges,
/// the arrays it references and its profiled average trip count.
///
/// Invariants maintained by [`KernelBuilder`](crate::KernelBuilder):
/// every [`Operation::id`] equals its index in `ops`; every register has at
/// most one defining operation; every dependence edge references operations
/// inside the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopKernel {
    /// Loop name (unique within a benchmark model).
    pub name: String,
    /// Operations, indexed by [`OpId`].
    pub ops: Vec<Operation>,
    /// Dependence edges (register flow edges derived from def-use, plus any
    /// explicitly added register-anti/output and memory edges).
    pub edges: Vec<DepEdge>,
    /// Arrays referenced by the kernel's memory operations.
    pub arrays: Vec<ArrayInfo>,
    /// Average iterations per entry, from profiling.
    pub avg_trip: f64,
    /// Number of times the loop is entered per program run (profiled).
    pub invocations: f64,
}

impl LoopKernel {
    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Iterator over memory operations.
    pub fn mem_ops(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter().filter(|o| o.is_mem())
    }

    /// Number of memory operations.
    pub fn n_mem_ops(&self) -> usize {
        self.mem_ops().count()
    }

    /// The defining operation of `reg`, or `None` for live-in registers.
    #[cfg(test)]
    pub(crate) fn def_of(&self, reg: crate::reg::VirtReg) -> Option<OpId> {
        self.ops.iter().find(|o| o.dst == Some(reg)).map(|o| o.id)
    }

    /// Total dynamic operations executed per program run
    /// (`ops × avg_trip × invocations`), the weight used for whole-benchmark
    /// aggregation in the paper's figures.
    pub fn dynamic_ops(&self) -> f64 {
        self.ops.len() as f64 * self.avg_trip * self.invocations
    }
}

impl fmt::Display for LoopKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loop {} (trip {:.1} x {:.1}):",
            self.name, self.avg_trip, self.invocations
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::mem_access::ArrayKind;
    use crate::op::Opcode;
    use crate::reg::VirtReg;

    fn sample() -> LoopKernel {
        let mut b = KernelBuilder::new("s");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        b.store("st", a, 512, 4, 4, w);
        b.finish(100.0)
    }

    #[test]
    fn counts_and_lookup() {
        let k = sample();
        assert_eq!(k.ops.len(), 3);
        assert_eq!(k.n_mem_ops(), 2);
        assert_eq!(k.op(OpId::new(1)).opcode, Opcode::Add);
        assert!((k.dynamic_ops() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn def_lookup() {
        let k = sample();
        let v = k.op(OpId::new(0)).dst.unwrap();
        assert_eq!(k.def_of(v), Some(OpId::new(0)));
        assert_eq!(k.def_of(VirtReg::new(999)), None);
    }

    #[test]
    fn display_is_nonempty() {
        let k = sample();
        let s = k.to_string();
        assert!(s.contains("loop s"));
        assert!(s.contains("load"));
    }
}
