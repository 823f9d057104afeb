//! Golden outcome digests for the exact backend.
//!
//! `schedule_golden.rs` and the equivalence tests pin the swing backend;
//! these pin `ExactBnB`, which explores the same placement space
//! exhaustively (window, copy routing, normalisation, reservation-table
//! undo). Every case folds the schedule text, all five `SchedStats` counters,
//! the quality claim and the reported MaxLive (see `common::Golden`), so
//! a change that moves any exact-search decision, node count, proof or
//! tie-break changes a digest.

mod common;

use common::{dense_bus_kernel, machines, random_cases, Golden};
use interleaved_vliw::ir::{ArrayKind, DepKind, KernelBuilder, LoopKernel, Opcode};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{ClusterPolicy, SchedBackend, SchedQuality, ScheduleOptions};

fn exact(policy: ClusterPolicy) -> ScheduleOptions {
    ScheduleOptions::new(policy).with_backend(SchedBackend::ExactBnB)
}

#[test]
fn exact_seeded_random_kernels_match_the_golden_digest() {
    let mut g = Golden::outcomes();
    for (kernel, machine) in random_cases() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, exact(policy));
        }
    }
    assert_eq!(g.finish(), EXACT_RANDOM_GOLDEN);
}

#[test]
fn exact_dense_bus_matches_the_golden_digest() {
    let kernel = dense_bus_kernel();
    let mut g = Golden::outcomes();
    for machine in machines() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, exact(policy));
        }
    }
    assert_eq!(g.finish(), EXACT_DENSE_BUS_GOLDEN);
}

#[test]
fn exact_small_budget_matches_the_golden_digest() {
    let kernel = dense_bus_kernel();
    let machine = MachineConfig::word_interleaved_4();
    let mut g = Golden::outcomes();
    // a small node budget runs out before the gap below the incumbent
    // is decided: the incumbent is served as a counted cutoff
    let small = ScheduleOptions {
        cost_ceiling: Some(40),
        ..exact(ClusterPolicy::Free)
    };
    let o = g.case(&kernel, &machine, small).unwrap();
    assert_eq!(o.quality, SchedQuality::CutoffFeasible);
    assert_eq!(o.stats.cutoffs, 1);
    assert_eq!(g.finish(), EXACT_SMALL_BUDGET_GOLDEN);
}

/// Two memory chains of three ops each (two loads and the store that
/// may overwrite what they read) whose values cross in a dense int
/// dataflow. Under IBC every chain member must follow its first-placed
/// member's cluster, so the exact search prunes by co-location.
fn chained_crossing() -> LoopKernel {
    let mut b = KernelBuilder::new("chained_crossing");
    let a = b.array("a", 8192, ArrayKind::Heap);
    let c = b.array("c", 8192, ArrayKind::Heap);
    let (la0, x0) = b.load("la0", a, 0, 4, 4);
    let (la1, x1) = b.load("la1", a, 4, 4, 4);
    let (lc0, y0) = b.load("lc0", c, 0, 4, 4);
    let (lc1, y1) = b.load("lc1", c, 4, 4, 4);
    let (_, s0) = b.int_op("s0", Opcode::Add, &[x0.into(), y0.into()]);
    let (_, s1) = b.int_op("s1", Opcode::Mul, &[x1.into(), y1.into()]);
    let (_, s2) = b.int_op("s2", Opcode::Add, &[s0.into(), s1.into()]);
    let (_, s3) = b.int_op("s3", Opcode::Add, &[s0.into(), y1.into()]);
    let (sa, _) = b.store("sa", a, 4096, 4, 4, s2);
    let (sc, _) = b.store("sc", c, 4096, 4, 4, s3);
    for ld in [la0, la1] {
        b.mem_dep(ld, sa, DepKind::MemAnti, 0);
    }
    for ld in [lc0, lc1] {
        b.mem_dep(ld, sc, DepKind::MemAnti, 0);
    }
    b.finish(256.0)
}

#[test]
fn exact_ibc_chain_colocation_matches_the_golden_digest() {
    let kernel = chained_crossing();
    let mut g = Golden::outcomes();
    for machine in [
        MachineConfig::word_interleaved_4(),
        MachineConfig::word_interleaved(2),
    ] {
        let o = g
            .case(&kernel, &machine, exact(ClusterPolicy::BuildChains))
            .unwrap();
        // the exact schedule honors the chains it was searched under
        for (la, lb) in [(0, 1), (0, 8), (2, 3), (2, 9)] {
            assert_eq!(o.schedule.ops[la].cluster, o.schedule.ops[lb].cluster);
        }
    }
    assert_eq!(g.finish(), EXACT_IBC_GOLDEN);
}

/// `(cases, scheduled, digest)` per population, recorded before the
/// swing and exact backends shared their placement code.
const EXACT_RANDOM_GOLDEN: (u64, u64, u64) = (120, 120, 0x3c7b_0be4_e076_8bf9);
const EXACT_DENSE_BUS_GOLDEN: (u64, u64, u64) = (20, 20, 0x2551_787e_bd0c_a6a1);
const EXACT_SMALL_BUDGET_GOLDEN: (u64, u64, u64) = (1, 1, 0xfbcdfbf1348bda7b);
const EXACT_IBC_GOLDEN: (u64, u64, u64) = (2, 2, 0xd11c_b9ef_ec66_0897);
