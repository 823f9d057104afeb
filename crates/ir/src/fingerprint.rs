//! Toolchain-stable structural fingerprinting of kernels.
//!
//! The fingerprint is the content address used by every cache that outlives
//! a process: the measured-profile store keys its entries by it, and the
//! schedule cache persists schedules under it. Two properties matter:
//!
//! * **Stability** — the hash must not depend on the standard library's
//!   `DefaultHasher` (explicitly unstable across releases) or on `Debug`
//!   formatting (which silently changes when a field is added or a derive
//!   is reordered). [`StableHasher`] is a hand-rolled 64-bit FNV-1a over an
//!   explicitly defined byte stream.
//! * **Profile blindness** — attached [`MemProfile`](crate::MemProfile)s describe *how* a
//!   kernel behaved, not *what* it is. [`kernel_fingerprint`] walks every
//!   schedule-relevant structural field and skips `MemAccessInfo::profile`,
//!   so attaching or re-attaching measurements never changes a kernel's
//!   identity (and a stored measurement can always be matched back to the
//!   kernel it was taken from).

use std::hash::Hasher;

use crate::kernel::LoopKernel;
use crate::mem_access::ArrayKind;
use crate::op::Opcode;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher with a fully specified byte stream.
///
/// Implements [`std::hash::Hasher`], so `#[derive(Hash)]` types (for
/// example a masked `MachineConfig`) can be fed into it directly; the
/// resulting digest depends only on the declared field order and the FNV
/// constants, never on the toolchain.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds a length-prefixed string (prefix avoids concatenation
    /// ambiguity between adjacent variable-length fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds an `Option<u64>`-shaped field with an explicit presence tag.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Fix the integer encodings to little-endian bytes so the stream does
    // not depend on the host (the default impls already do this, but the
    // contract here is load-bearing enough to spell out).
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i64(&mut self, i: i64) {
        self.write(&i.to_le_bytes());
    }
}

fn opcode_tag(op: Opcode) -> u8 {
    match op {
        Opcode::Add => 0,
        Opcode::Sub => 1,
        Opcode::Mul => 2,
        Opcode::Div => 3,
        Opcode::And => 4,
        Opcode::Or => 5,
        Opcode::Xor => 6,
        Opcode::Shl => 7,
        Opcode::Shr => 8,
        Opcode::Cmp => 9,
        Opcode::Select => 10,
        Opcode::FAdd => 11,
        Opcode::FSub => 12,
        Opcode::FMul => 13,
        Opcode::FDiv => 14,
        Opcode::Load => 15,
        Opcode::Store => 16,
    }
}

fn array_kind_tag(kind: ArrayKind) -> u8 {
    match kind {
        ArrayKind::Global => 0,
        ArrayKind::Stack => 1,
        ArrayKind::Heap => 2,
    }
}

fn dep_kind_tag(kind: crate::ddg::DepKind) -> u8 {
    use crate::ddg::DepKind::*;
    match kind {
        RegFlow => 0,
        RegAnti => 1,
        RegOut => 2,
        MemFlow => 3,
        MemAnti => 4,
        MemOut => 5,
    }
}

/// A stable structural fingerprint of a kernel.
///
/// Walks name, trip counts, arrays, operations (id, name, opcode,
/// destination, sources, memory-access shape) and dependence edges.
/// Attached profiles ([`MemAccessInfo::profile`](crate::MemAccessInfo))
/// are deliberately **excluded**: the fingerprint identifies the kernel
/// body, and measurements keyed by it must survive being attached.
pub fn kernel_fingerprint(kernel: &LoopKernel) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&kernel.name);
    h.write_f64(kernel.avg_trip);
    h.write_f64(kernel.invocations);

    h.write_u64(kernel.arrays.len() as u64);
    for a in &kernel.arrays {
        h.write_u64(a.id.index() as u64);
        h.write_str(&a.name);
        h.write_u64(a.size);
        h.write_u8(array_kind_tag(a.kind));
    }

    h.write_u64(kernel.ops.len() as u64);
    for op in &kernel.ops {
        h.write_u64(op.id.index() as u64);
        h.write_str(&op.name);
        h.write_u8(opcode_tag(op.opcode));
        h.write_opt_u64(op.dst.map(|d| u64::from(d.index())));
        h.write_u64(op.srcs.len() as u64);
        for s in &op.srcs {
            h.write_u64(u64::from(s.reg.index()));
            h.write_u64(u64::from(s.distance));
        }
        match &op.mem {
            None => h.write_u8(0),
            Some(m) => {
                h.write_u8(1);
                h.write_u64(m.array.index() as u64);
                h.write_i64(m.offset);
                match m.stride {
                    None => h.write_u8(0),
                    Some(s) => {
                        h.write_u8(1);
                        h.write_i64(s);
                    }
                }
                h.write_u8(m.granularity);
                h.write_u8(u8::from(m.indirect));
                // m.profile intentionally skipped
            }
        }
    }

    h.write_u64(kernel.edges.len() as u64);
    for e in &kernel.edges {
        h.write_u64(e.from.index() as u64);
        h.write_u64(e.to.index() as u64);
        h.write_u8(dep_kind_tag(e.kind));
        h.write_u64(u64::from(e.distance));
    }

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::mem_access::MemProfile;

    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("fp_probe");
        let a = b.array("a", 4096, ArrayKind::Heap);
        let out = b.array("b", 4096, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into(), v.into()]);
        b.store("st", out, 8, 4, 4, w);
        b.finish(128.0)
    }

    #[test]
    fn fingerprint_is_deterministic_and_structural() {
        let k = kernel();
        assert_eq!(kernel_fingerprint(&k), kernel_fingerprint(&k.clone()));

        let mut offset = kernel();
        offset.ops[0].mem.as_mut().unwrap().offset = 4;
        assert_ne!(kernel_fingerprint(&kernel()), kernel_fingerprint(&offset));

        let mut trip = kernel();
        trip.avg_trip += 1.0;
        assert_ne!(kernel_fingerprint(&kernel()), kernel_fingerprint(&trip));
    }

    #[test]
    fn fingerprint_ignores_attached_profiles() {
        let mut k = kernel();
        let before = kernel_fingerprint(&k);
        k.ops[0].mem.as_mut().unwrap().profile = Some(MemProfile::concentrated(0.5, 1, 4));
        assert_eq!(before, kernel_fingerprint(&k));
    }

    #[test]
    fn byte_stream_is_pinned() {
        // Pin the encoding against an independent FNV-1a computation: if
        // this changes, every persisted store is invalidated — bump the
        // store versions when touching the hasher.
        let mut h = StableHasher::new();
        h.write_str("ab");
        h.write_u64(7);
        let mut state = FNV_OFFSET;
        let stream = 2u64
            .to_le_bytes()
            .into_iter()
            .chain(*b"ab")
            .chain(7u64.to_le_bytes());
        for b in stream {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(h.finish(), state);
    }
}
