//! Toolchain-stable structural fingerprinting of kernels.
//!
//! The fingerprint is the content address of the schedule cache: it keys
//! the cache's cells and variant profiles, and the persistent schedule
//! store writes schedules under it. Two properties matter:
//!
//! * **Stability** — the hash must not depend on the standard library's
//!   `DefaultHasher` (explicitly unstable across releases) or on `Debug`
//!   formatting (which silently changes when a field is added or a derive
//!   is reordered). [`StableHasher`] is a hand-rolled 64-bit FNV-1a over an
//!   explicitly defined byte stream.
//! * **Profile blindness** — attached [`MemProfile`](crate::MemProfile)s describe *how* a
//!   kernel behaved, not *what* it is. [`kernel_fingerprint`] walks every
//!   schedule-relevant structural field and skips `MemAccessInfo::profile`,
//!   so attaching or re-attaching profiles never changes a kernel's
//!   identity (and a stored schedule can always be matched back to the
//!   kernel it was prepared for).
//!
//! Hashing is most of the cost of a warm schedule-cache hit, so the
//! fixed-width integer writes fold their high zero bytes: an FNV-1a step
//! over a zero byte is `s = (s ^ 0)·P = s·P`, so `k` of them are one
//! multiply by `P^k` (mod 2^64). Ids, lengths and offsets are small
//! numbers in 8-byte words, mostly zero high bytes. The byte stream, and
//! so every digest, is exactly the one a byte-at-a-time FNV-1a computes.

use std::hash::Hasher;

use crate::kernel::LoopKernel;
use crate::mem_access::ArrayKind;
use crate::op::Opcode;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k]` is `FNV_PRIME^k` (mod 2^64): `k` FNV-1a steps over zero
/// bytes in one multiply.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// A 64-bit FNV-1a hasher with a fully specified byte stream.
///
/// Implements [`std::hash::Hasher`], so `#[derive(Hash)]` types (for
/// example a masked `MachineConfig`) can be fed into it directly; the
/// resulting digest depends only on the declared field order and the FNV
/// constants, never on the toolchain or the host: integers are hashed as
/// their little-endian bytes.
///
/// The fixed-width integer writes hash a word's bytes up to its highest
/// nonzero one a byte at a time and its high zero bytes in one multiply
/// (see the module docs); the stream they digest is unchanged, so no
/// stored digest moves.
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

    /// Feeds the `width` little-endian bytes of `word` (`word < 2^(8·width)`):
    /// its live low bytes one FNV-1a step at a time, then its high zero
    /// bytes as one multiply by `FNV_PRIME^zeros`.
    #[inline]
    fn write_word(&mut self, word: u64, width: usize) {
        let live = (u64::BITS - word.leading_zeros()).div_ceil(8) as usize;
        debug_assert!(live <= width, "{word:#x} is wider than {width} bytes");
        let (mut state, mut rest) = (self.state, word);
        for _ in 0..live {
            state ^= rest & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.state = state.wrapping_mul(PRIME_POW[width - live]);
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
    // not depend on the host: std's defaults hash native-endian bytes.
    // `usize` is widened to 8 bytes, so 32- and 64-bit hosts agree.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write_word(u64::from(i), 2);
    }
    fn write_u32(&mut self, i: u32) {
        self.write_word(u64::from(i), 4);
    }
    fn write_u64(&mut self, i: u64) {
        self.write_word(i, 8);
    }
    fn write_u128(&mut self, i: u128) {
        self.write_word(i as u64, 8);
        self.write_word((i >> 64) as u64, 8);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_word(i as u64, 8);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_word(i as u64, 8);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
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
/// body, and entries keyed by it must survive profiles being attached.
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
        // Pin the encoding against an independent FNV-1a computation: a
        // change to the *byte stream* invalidates every persisted store
        // and needs a store-version bump; a faster way to hash the same
        // stream does not (`folded_writes_match_a_bytewise_reference`).
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

    /// A byte-at-a-time FNV-1a over explicitly little-endian encodings:
    /// the stream [`StableHasher`] is specified to digest.
    struct Reference(u64);

    impl Reference {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// One write, applied through the hasher's own method and spelled
    /// out as bytes for the reference.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        U128(u128),
        Usize(usize),
        I16(i16),
        I32(i32),
        I64(i64),
        I128(i128),
        Isize(isize),
        F64(f64),
        OptU64(Option<u64>),
        Str(&'static str),
    }

    impl Write {
        fn hash(self, h: &mut StableHasher) {
            match self {
                Write::U8(v) => h.write_u8(v),
                Write::U16(v) => h.write_u16(v),
                Write::U32(v) => h.write_u32(v),
                Write::U64(v) => h.write_u64(v),
                Write::U128(v) => h.write_u128(v),
                Write::Usize(v) => h.write_usize(v),
                Write::I16(v) => h.write_i16(v),
                Write::I32(v) => h.write_i32(v),
                Write::I64(v) => h.write_i64(v),
                Write::I128(v) => h.write_i128(v),
                Write::Isize(v) => h.write_isize(v),
                Write::F64(v) => h.write_f64(v),
                Write::OptU64(v) => h.write_opt_u64(v),
                Write::Str(v) => h.write_str(v),
            }
        }

        fn reference(self, r: &mut Reference) {
            match self {
                Write::U8(v) => r.bytes(&[v]),
                Write::U16(v) => r.bytes(&v.to_le_bytes()),
                Write::U32(v) => r.bytes(&v.to_le_bytes()),
                Write::U64(v) => r.bytes(&v.to_le_bytes()),
                Write::U128(v) => r.bytes(&v.to_le_bytes()),
                Write::Usize(v) => r.bytes(&(v as u64).to_le_bytes()),
                Write::I16(v) => r.bytes(&v.to_le_bytes()),
                Write::I32(v) => r.bytes(&v.to_le_bytes()),
                Write::I64(v) => r.bytes(&v.to_le_bytes()),
                Write::I128(v) => r.bytes(&v.to_le_bytes()),
                Write::Isize(v) => r.bytes(&(v as i64).to_le_bytes()),
                Write::F64(v) => r.bytes(&v.to_bits().to_le_bytes()),
                Write::OptU64(None) => r.bytes(&[0]),
                Write::OptU64(Some(v)) => {
                    r.bytes(&[1]);
                    r.bytes(&v.to_le_bytes());
                }
                Write::Str(v) => {
                    r.bytes(&(v.len() as u64).to_le_bytes());
                    r.bytes(v.as_bytes());
                }
            }
        }
    }

    /// Every integer write of `w`'s bits, truncated to each width; `hi` is
    /// the high word of the 128-bit ones.
    fn integer_writes(w: u64, hi: u64) -> [Write; 12] {
        [
            Write::U8(w as u8),
            Write::U16(w as u16),
            Write::U32(w as u32),
            Write::U64(w),
            Write::U128((u128::from(hi) << 64) | u128::from(w)),
            Write::Usize(w as usize),
            Write::I16(w as i16),
            Write::I32(w as i32),
            Write::I64(w as i64),
            Write::I128(((u128::from(hi) << 64) | u128::from(w)) as i128),
            Write::Isize(w as isize),
            Write::OptU64(Some(w)),
        ]
    }

    /// splitmix64: a seeded stream of well-mixed words.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `w` with the bytes `mask`'s low eight bits select cleared: words
    /// with zero runs at both ends and in the middle.
    fn zero_bytes(w: u64, mask: u64) -> u64 {
        (0..8)
            .filter(|i| (mask >> i) & 1 == 1)
            .fold(w, |w, i| w & !(0xff << (8 * i)))
    }

    /// The folded integer writes digest exactly the bytes a byte-at-a-time
    /// FNV-1a over their little-endian encodings does: boundary values of
    /// every width, then 10 000 seeded words with random zero bytes, all
    /// in one sequence, the state compared after every write.
    #[test]
    fn folded_writes_match_a_bytewise_reference() {
        let mut writes = Vec::new();
        let boundaries = [
            0,
            1,
            0xff,
            0x100,
            0xffff,
            1 << 56,
            u64::MAX,
            -1i64 as u64,
            i64::MIN as u64,
        ];
        for &w in &boundaries {
            for &hi in &boundaries {
                writes.push(Write::U128((u128::from(hi) << 64) | u128::from(w)));
            }
            writes.extend(integer_writes(w, w));
        }
        for v in [128.0, -0.0, 0.0, 1.0, f64::NAN, f64::INFINITY] {
            writes.push(Write::F64(v));
        }
        writes.extend([
            Write::OptU64(None),
            Write::Str(""),
            Write::Str("ab"),
            Write::Str("\0\0x\0"),
        ]);
        let mut seed = 0x5eed;
        for _ in 0..10_000 {
            let w = zero_bytes(splitmix64(&mut seed), splitmix64(&mut seed));
            let hi = zero_bytes(splitmix64(&mut seed), splitmix64(&mut seed));
            let all = integer_writes(w, hi);
            writes.push(all[(splitmix64(&mut seed) % all.len() as u64) as usize]);
            writes.push(Write::F64(f64::from_bits(w)));
        }

        let (mut h, mut r) = (StableHasher::new(), Reference(FNV_OFFSET));
        for (i, &w) in writes.iter().enumerate() {
            w.hash(&mut h);
            w.reference(&mut r);
            assert_eq!(h.finish(), r.0, "write {i}: {w:?}");
        }
    }
}
