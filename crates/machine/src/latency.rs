//! Memory access classes and latency tables.

use std::fmt;

use vliw_ir::Opcode;

/// The four classes a memory access falls into on a word-interleaved cache
/// clustered processor (§3 of the paper).
///
/// Ordered from cheapest to most expensive; the latency-assignment step of
/// the scheduler walks this order downwards from [`AccessClass::RemoteMiss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    /// The address maps to the local cache module and the data is present.
    LocalHit,
    /// The address maps to a remote module and the data is present there:
    /// bus request + remote cache access + bus reply.
    RemoteHit,
    /// The address maps to the local module but misses: local access + next
    /// memory level round-trip.
    LocalMiss,
    /// The address maps to a remote module and misses there: the most
    /// costly access.
    RemoteMiss,
}

impl AccessClass {
    /// All classes, cheapest first.
    pub const ALL: [AccessClass; 4] = [
        AccessClass::LocalHit,
        AccessClass::RemoteHit,
        AccessClass::LocalMiss,
        AccessClass::RemoteMiss,
    ];

    /// Whether the access is to the local cache module.
    pub fn is_local(self) -> bool {
        matches!(self, AccessClass::LocalHit | AccessClass::LocalMiss)
    }

    /// Whether the access hits in the first-level cache.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessClass::LocalHit | AccessClass::RemoteHit)
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessClass::LocalHit => "local hit",
            AccessClass::RemoteHit => "remote hit",
            AccessClass::LocalMiss => "local miss",
            AccessClass::RemoteMiss => "remote miss",
        };
        f.write_str(s)
    }
}

/// Latency (in core cycles) of each access class.
///
/// The defaults are the values of the paper's worked example (§4.3.3):
/// 1 / 5 / 10 / 15 cycles. They are derivable from Table 2: a remote hit is
/// a half-frequency bus request (2 cycles) + module access (1) + reply (2);
/// a miss adds the 10-cycle next-level round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemLatencies {
    /// Local hit latency.
    pub local_hit: u32,
    /// Remote hit latency.
    pub remote_hit: u32,
    /// Local miss latency.
    pub local_miss: u32,
    /// Remote miss latency.
    pub remote_miss: u32,
}

impl MemLatencies {
    /// The latency of `class`.
    pub fn of(&self, class: AccessClass) -> u32 {
        match class {
            AccessClass::LocalHit => self.local_hit,
            AccessClass::RemoteHit => self.remote_hit,
            AccessClass::LocalMiss => self.local_miss,
            AccessClass::RemoteMiss => self.remote_miss,
        }
    }
}

impl Default for MemLatencies {
    fn default() -> Self {
        MemLatencies {
            local_hit: 1,
            remote_hit: 5,
            local_miss: 10,
            remote_miss: 15,
        }
    }
}

/// Execution latencies of non-memory opcodes.
///
/// The paper does not tabulate functional-unit latencies; the example DDG
/// shows a 6-cycle divide and 1-cycle ALU operations, which the defaults
/// here extend in the usual embedded-VLIW way (2-cycle multiplies and
/// floating-point adds/multiplies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpLatencies {
    /// Simple integer ALU (add/sub/logic/shift/compare/select).
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide.
    pub int_div: u32,
    /// FP add/subtract.
    pub fp_add: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide.
    pub fp_div: u32,
    /// Store issue latency (completion is asynchronous through the store
    /// buffer; §4.3.3 schedules stores with a 1-cycle latency).
    pub store: u32,
}

impl OpLatencies {
    /// The latency of a non-memory opcode, or of a store.
    ///
    /// # Panics
    ///
    /// Panics for [`Opcode::Load`]: load latencies come from the latency
    /// assignment step, not from this table.
    pub fn of(&self, opcode: Opcode) -> u32 {
        use Opcode::*;
        match opcode {
            Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Select => self.int_alu,
            Mul => self.int_mul,
            Div => self.int_div,
            FAdd | FSub => self.fp_add,
            FMul => self.fp_mul,
            FDiv => self.fp_div,
            Store => self.store,
            Load => panic!("load latency is chosen by the latency-assignment step"),
        }
    }
}

impl Default for OpLatencies {
    fn default() -> Self {
        OpLatencies {
            int_alu: 1,
            int_mul: 2,
            int_div: 6,
            fp_add: 2,
            fp_mul: 2,
            fp_div: 6,
            store: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_cheapest_first() {
        let l = MemLatencies::default();
        let mut prev = 0;
        for c in AccessClass::ALL {
            assert!(l.of(c) > prev);
            prev = l.of(c);
        }
    }

    #[test]
    fn class_predicates() {
        assert!(AccessClass::LocalHit.is_local() && AccessClass::LocalHit.is_hit());
        assert!(!AccessClass::RemoteHit.is_local() && AccessClass::RemoteHit.is_hit());
        assert!(AccessClass::LocalMiss.is_local() && !AccessClass::LocalMiss.is_hit());
        assert!(!AccessClass::RemoteMiss.is_local() && !AccessClass::RemoteMiss.is_hit());
    }

    #[test]
    fn default_latencies_match_worked_example() {
        let l = MemLatencies::default();
        assert_eq!(l.of(AccessClass::LocalHit), 1);
        assert_eq!(l.of(AccessClass::RemoteHit), 5);
        assert_eq!(l.of(AccessClass::LocalMiss), 10);
        assert_eq!(l.of(AccessClass::RemoteMiss), 15);
    }

    #[test]
    fn op_latency_table() {
        let t = OpLatencies::default();
        assert_eq!(t.of(Opcode::Add), 1);
        assert_eq!(t.of(Opcode::Div), 6);
        assert_eq!(t.of(Opcode::FMul), 2);
        assert_eq!(t.of(Opcode::Store), 1);
    }

    #[test]
    #[should_panic(expected = "latency-assignment")]
    fn load_latency_is_not_static() {
        let _ = OpLatencies::default().of(Opcode::Load);
    }
}
