//! Operations, opcodes and functional-unit kinds.

use std::fmt;

use crate::mem_access::MemAccessInfo;
use crate::reg::VirtReg;

/// Identifier of an operation within one [`LoopKernel`](crate::LoopKernel).
///
/// Ids are dense: they index into [`LoopKernel::ops`](crate::LoopKernel::ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u32);

impl OpId {
    /// Creates an id from a dense index.
    pub fn new(index: usize) -> Self {
        OpId(index as u32)
    }

    /// The dense index of this operation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of functional unit an operation executes on.
///
/// The paper's machine has one unit of each kind per cluster (Table 2).
/// Inter-cluster register copies execute on the register buses, not on a
/// functional unit, and therefore have no `FuKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer ALU / multiplier / divider.
    Int,
    /// Floating-point unit.
    Fp,
    /// Memory (load/store) unit; the only unit that talks to the cache module.
    Mem,
}

impl FuKind {
    /// All functional-unit kinds, in a fixed order.
    pub const ALL: [FuKind; 3] = [FuKind::Int, FuKind::Fp, FuKind::Mem];
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::Int => "INT",
            FuKind::Fp => "FP",
            FuKind::Mem => "MEM",
        };
        f.write_str(s)
    }
}

/// Operation opcodes.
///
/// The set is deliberately small — just enough to express Mediabench-style
/// media kernels (integer/fixed-point arithmetic, a little floating point,
/// loads and stores). Execution latencies live in the machine description
/// (`vliw-machine`), not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide.
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Integer compare (produces a predicate/flag value in a register).
    Cmp,
    /// Conditional select (predicated move, hyperblock-style if-conversion).
    Select,
    /// Floating-point add.
    FAdd,
    /// Floating-point subtract.
    FSub,
    /// Floating-point multiply.
    FMul,
    /// Floating-point divide.
    FDiv,
    /// Load from memory.
    Load,
    /// Store to memory.
    Store,
}

impl Opcode {
    /// The functional-unit kind this opcode executes on.
    pub(crate) fn fu_kind(self) -> FuKind {
        use Opcode::*;
        match self {
            Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr | Cmp | Select => FuKind::Int,
            FAdd | FSub | FMul | FDiv => FuKind::Fp,
            Load | Store => FuKind::Mem,
        }
    }

    /// Whether this opcode reads memory.
    pub(crate) fn is_load(self) -> bool {
        self == Opcode::Load
    }

    /// Whether this opcode writes memory.
    pub(crate) fn is_store(self) -> bool {
        self == Opcode::Store
    }

    /// Whether this opcode accesses memory at all.
    pub(crate) fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Cmp => "cmp",
            Opcode::Select => "select",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::Load => "load",
            Opcode::Store => "store",
        };
        f.write_str(s)
    }
}

/// A source operand: a virtual register plus an iteration distance.
///
/// `distance == 0` reads the value defined in the *current* iteration,
/// `distance == d > 0` reads the value defined `d` iterations earlier
/// (a loop-carried use). Live-in registers (no definition inside the loop)
/// always use distance 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcOperand {
    /// The register read.
    pub reg: VirtReg,
    /// How many iterations earlier the value was defined.
    pub distance: u32,
}

impl SrcOperand {
    /// Reads `reg` as defined in the current iteration.
    pub(crate) fn new(reg: VirtReg) -> Self {
        SrcOperand { reg, distance: 0 }
    }

    /// Reads the value `reg` held `distance` iterations ago.
    pub(crate) fn with_distance(reg: VirtReg, distance: u32) -> Self {
        SrcOperand { reg, distance }
    }
}

impl From<VirtReg> for SrcOperand {
    fn from(reg: VirtReg) -> Self {
        SrcOperand::new(reg)
    }
}

impl fmt::Display for SrcOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.distance == 0 {
            write!(f, "{}", self.reg)
        } else {
            write!(f, "{}[-{}]", self.reg, self.distance)
        }
    }
}

/// One operation of a loop kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Dense identifier within the kernel.
    pub id: OpId,
    /// Human-readable label (used in traces and golden tests).
    pub name: String,
    /// The opcode.
    pub opcode: Opcode,
    /// Destination register, if the operation produces a value.
    pub dst: Option<VirtReg>,
    /// Source operands.
    pub srcs: Vec<SrcOperand>,
    /// Memory-access metadata; present exactly when `opcode.is_mem()`.
    pub mem: Option<MemAccessInfo>,
}

impl Operation {
    /// The functional-unit kind this operation occupies.
    pub fn fu_kind(&self) -> FuKind {
        self.opcode.fu_kind()
    }

    /// Whether this operation is a load.
    pub fn is_load(&self) -> bool {
        self.opcode.is_load()
    }

    /// Whether this operation is a store.
    pub fn is_store(&self) -> bool {
        self.opcode.is_store()
    }

    /// Whether this operation accesses memory.
    pub fn is_mem(&self) -> bool {
        self.opcode.is_mem()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.id, self.name, self.opcode)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in &self.srcs {
            write!(f, " {s}")?;
        }
        if let Some(m) = &self.mem {
            write!(f, " [{m}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_fu_kinds() {
        assert_eq!(Opcode::Add.fu_kind(), FuKind::Int);
        assert_eq!(Opcode::Select.fu_kind(), FuKind::Int);
        assert_eq!(Opcode::FMul.fu_kind(), FuKind::Fp);
        assert_eq!(Opcode::Load.fu_kind(), FuKind::Mem);
        assert_eq!(Opcode::Store.fu_kind(), FuKind::Mem);
    }

    #[test]
    fn mem_predicates() {
        assert!(Opcode::Load.is_load() && !Opcode::Load.is_store());
        assert!(Opcode::Store.is_store() && !Opcode::Store.is_load());
        assert!(Opcode::Load.is_mem() && Opcode::Store.is_mem());
        assert!(!Opcode::Add.is_mem());
    }

    #[test]
    fn src_operand_conversions() {
        let r = VirtReg::new(4);
        let s: SrcOperand = r.into();
        assert_eq!(s, SrcOperand::new(r));
        assert_eq!(s.distance, 0);
        let p = SrcOperand::with_distance(r, 1);
        assert_eq!(p.distance, 1);
        assert_eq!(p.to_string(), "%r4[-1]");
    }

    #[test]
    fn op_id_roundtrip() {
        let id = OpId::new(12);
        assert_eq!(id.index(), 12);
        assert_eq!(id.to_string(), "n12");
    }
}
