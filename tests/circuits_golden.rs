//! Golden circuit-enumeration digests: `elementary_circuits`' output,
//! pinned.
//!
//! Every case enumerates the circuits of one quick-suite loop unrolled
//! ×{1, 2, 4, 8} and folds into a `StableHasher` the circuit count and,
//! in order, each circuit's nodes, edges and total distance. Two limit
//! settings run: the experiments' caps (4000 circuits of at most 64
//! nodes), under which several unrolled loops truncate at the circuit
//! cap, and a tight 200/24 cap under which both caps bind. The
//! population includes `epicdec_l19` ×8, a long distance-0 chain whose
//! paths mostly cannot return to their start within the length cap — the
//! shape that makes a length-capped enumerator slow. Any change to which
//! circuits are found, their order or where the caps cut the list
//! changes a digest; the front-end and schedule digests see the circuits
//! only through the decisions they lead to.

use std::hash::Hasher as _;

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{unroll, Ddg, StableHasher};
use interleaved_vliw::sched::{elementary_circuits, EnumLimits};

/// `(cases, circuits, digest)` over the quick suite × {1, 2, 4, 8}
/// under `limits`; `probe` sees each case's name, factor and count.
fn suite_digest(limits: EnumLimits, mut probe: impl FnMut(&str, u32, usize)) -> (u64, u64, u64) {
    let ctx = ExperimentContext::quick();
    let mut h = StableHasher::default();
    let (mut cases, mut circuits) = (0u64, 0u64);
    for model in ctx.models() {
        for lw in &model.loops {
            for factor in [1u32, 2, 4, 8] {
                let kernel = unroll(&lw.kernel, factor);
                let cs = elementary_circuits(&Ddg::build(&kernel), limits);
                probe(&lw.kernel.name, factor, cs.len());
                cases += 1;
                circuits += cs.len() as u64;
                h.write_str(&kernel.name);
                h.write_usize(cs.len());
                for c in &cs {
                    h.write_usize(c.nodes.len());
                    for op in &c.nodes {
                        h.write_usize(op.index());
                    }
                    h.write_usize(c.edges.len());
                    for &e in &c.edges {
                        h.write_usize(e);
                    }
                    h.write_u32(c.total_distance);
                }
            }
        }
    }
    (cases, circuits, h.finish())
}

#[test]
fn experiment_limits_match_the_golden_digest() {
    let limits = ExperimentContext::quick().enum_limits;
    assert_eq!(
        limits,
        EnumLimits {
            max_circuits: 4000,
            max_len: 64,
        }
    );
    let (mut truncated, mut blowup) = (0, None);
    let digest = suite_digest(limits, |name, factor, n| {
        truncated += usize::from(n == limits.max_circuits);
        if (name, factor) == ("epicdec_l19", 8) {
            blowup = Some(n);
        }
    });
    assert!(truncated > 0, "some case truncates at the circuit cap");
    assert_eq!(blowup, Some(1), "epicdec_l19 ×8 is in the population");
    assert_eq!(digest, EXPERIMENT_GOLDEN);
}

#[test]
fn tight_limits_match_the_golden_digest() {
    let limits = EnumLimits {
        max_circuits: 200,
        max_len: 24,
    };
    let mut truncated = 0;
    let digest = suite_digest(limits, |_, _, n| {
        truncated += usize::from(n == limits.max_circuits);
    });
    assert!(truncated > 0, "some case truncates at the circuit cap");
    assert_eq!(digest, TIGHT_GOLDEN);
}

/// `(cases, circuits, digest)` per limit setting.
const EXPERIMENT_GOLDEN: (u64, u64, u64) = (128, 15130, 0x96d0_963a_0050_7c9a);
const TIGHT_GOLDEN: (u64, u64, u64) = (128, 1833, 0x6954_a2c4_4e84_cf64);
