//! Unrolling-factor computation and the selective-unrolling candidates
//! (§4.3.1, step 1). The Texec selection among them is
//! `vliw_experiments::prepare_loop`.

use vliw_ir::LoopKernel;
use vliw_machine::MachineConfig;

/// Which of the paper's three unrolling strategies a factor came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnrollChoice {
    /// No unrolling (factor 1).
    None,
    /// Unroll by the number of clusters (`unrollxN`).
    TimesN,
    /// The optimal unrolling factor (OUF) — the lcm of the individual
    /// factors, which makes every analyzable stride a multiple of `N×I`.
    Ouf,
}

impl std::fmt::Display for UnrollChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UnrollChoice::None => "no unrolling",
            UnrollChoice::TimesN => "unrollxN",
            UnrollChoice::Ouf => "OUF",
        };
        f.write_str(s)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// The *individual unrolling factor* of one memory instruction:
/// `Ui = N×I / gcd(N×I, Si mod N×I)` — the smallest unroll multiple that
/// makes the instruction's stride a multiple of `N×I`.
pub fn individual_unroll_factor(stride: i64, ni: i64) -> u32 {
    assert!(ni > 0, "N x I must be positive");
    let s = stride.rem_euclid(ni) as u64;
    let g = gcd(ni as u64, s); // gcd(ni, 0) = ni -> Ui = 1
    (ni as u64 / g) as u32
}

/// The loop's optimal unrolling factor (OUF): the lcm of the individual
/// factors over every memory instruction with a known stride, a hit rate
/// greater than zero and a granularity no larger than the interleave
/// factor; capped at `N×I` (the paper's maximum).
pub fn optimal_unroll_factor(kernel: &LoopKernel, machine: &MachineConfig) -> u32 {
    let ni = machine.ni_bytes();
    let mut uf = 1u64;
    for op in kernel.mem_ops() {
        let Some(mem) = &op.mem else { continue };
        let Some(stride) = mem.stride else { continue };
        if mem.hit_rate() <= 0.0 {
            continue;
        }
        if mem.granularity as usize > machine.cache.interleave_bytes {
            continue;
        }
        uf = lcm(uf, individual_unroll_factor(stride, ni) as u64);
    }
    (uf.min(ni as u64)) as u32
}

/// The candidate `(choice, factor)` pairs of selective unrolling, with
/// duplicate factors removed (e.g. when OUF == N).
pub fn unroll_candidates(kernel: &LoopKernel, machine: &MachineConfig) -> Vec<(UnrollChoice, u32)> {
    let n = machine.n_clusters() as u32;
    let ouf = optimal_unroll_factor(kernel, machine);
    let mut out: Vec<(UnrollChoice, u32)> = vec![(UnrollChoice::None, 1)];
    if n != 1 && ouf != n {
        out.push((UnrollChoice::TimesN, n));
    }
    if ouf != 1 {
        out.push((UnrollChoice::Ouf, ouf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, KernelBuilder};

    #[test]
    fn individual_factor_matches_paper_formula() {
        // 4 clusters x 4-byte interleave: NI = 16
        assert_eq!(individual_unroll_factor(4, 16), 4); // 4-byte stride -> x4
        assert_eq!(individual_unroll_factor(2, 16), 8); // 2-byte stride -> x8
        assert_eq!(individual_unroll_factor(1, 16), 16); // byte stride -> x16
        assert_eq!(individual_unroll_factor(8, 16), 2);
        assert_eq!(individual_unroll_factor(16, 16), 1); // already aligned
        assert_eq!(individual_unroll_factor(32, 16), 1);
        assert_eq!(individual_unroll_factor(12, 16), 4); // gcd(16,12)=4
                                                         // the gsmdec example of §4.3.4: 16-byte stride needs no unrolling
        assert_eq!(individual_unroll_factor(16, 16), 1);
    }

    #[test]
    fn ouf_is_lcm_of_eligible_ops() {
        let m = MachineConfig::word_interleaved_4();
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4096, ArrayKind::Heap);
        let (_, v) = b.load("ld4", a, 0, 4, 4); // Ui = 4
        let (_, w) = b.load("ld8", a, 1024, 8, 8); // granularity 8 > I: skipped
        let _ = b.store("st2", a, 2048, 2, 2, v); // Ui = 8
        let _ = w;
        let k = b.finish(64.0);
        assert_eq!(optimal_unroll_factor(&k, &m), 8); // lcm(4, 8)
    }

    #[test]
    fn ouf_skips_indirect_and_cold_ops() {
        let m = MachineConfig::word_interleaved_4();
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4096, ArrayKind::Heap);
        let (_, idx) = b.load("ld", a, 0, 16, 4); // aligned stride: Ui = 1
        let _ = b.load_indirect("ind", a, idx, 4); // unknown stride: skipped
        let (cold, _) = b.load("cold", a, 64, 2, 2); // would be Ui = 8…
        b.set_profile(
            cold,
            vliw_ir::MemProfile {
                hit_rate: 0.0,
                cluster_hist: vec![1, 0, 0, 0],
            },
        );
        let k = b.finish(64.0); // …but hit rate 0: skipped
        assert_eq!(optimal_unroll_factor(&k, &m), 1);
    }

    #[test]
    fn candidates_deduplicate() {
        let m = MachineConfig::word_interleaved_4();
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4096, ArrayKind::Heap);
        let (_, v) = b.load("ld4", a, 0, 4, 4); // OUF = 4 = N
        b.store("st", a, 2048, 4, 4, v);
        let k = b.finish(64.0);
        let c = unroll_candidates(&k, &m);
        assert_eq!(c, vec![(UnrollChoice::None, 1), (UnrollChoice::Ouf, 4)]);
    }
}
