//! Golden schedule digests: the swing placement engine's output, pinned.
//!
//! Every case is scheduled through `schedule_outcome` and folded into a
//! `StableHasher` — the schedule's compact text plus every `SchedStats`
//! counter, or the error's text when the case fails (see
//! `common::Golden`). The committed digests were recorded when the engine
//! still carried two live reference paths (a scalar-probe reservation
//! table and clone-based trial isolation), and all three configurations —
//! masked table with the journal, scalar table, clone-based trials —
//! produced the same digest on each population below. A change to the
//! placement loop or the reservation table that moves any decision, or
//! any work counter, changes a digest. The suite population is pinned
//! the same way in `mrt_impl_equivalence.rs` and `mrt_txn_equivalence.rs`.

mod common;

use common::{machines, random_cases, Golden};
use interleaved_vliw::ir::{KernelBuilder, Opcode, SrcOperand};
use interleaved_vliw::sched::ClusterPolicy;

#[test]
fn seeded_random_kernels_match_the_golden_digest() {
    let mut g = Golden::full();
    for (kernel, machine) in random_cases() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, policy);
        }
    }
    assert_eq!(g.finish(), RANDOM_GOLDEN);
}

#[test]
fn dense_bus_schedules_match_the_golden_digest() {
    // All-to-all int dataflow: five producers each feeding five
    // consumers. Copy pressure saturates the buses at the smallest IIs,
    // so transfers start near the II boundary and wrap while failed
    // placements roll the split bus runs back.
    let mut b = KernelBuilder::new("dense_bus");
    let mut prods = Vec::new();
    for i in 0..5 {
        let (_, v) = b.int_op(format!("p{i}"), Opcode::Add, &[]);
        prods.push(v);
    }
    for j in 0..5 {
        let srcs: Vec<SrcOperand> = prods.iter().map(|&v| v.into()).collect();
        let _ = b.int_op(format!("c{j}"), Opcode::Add, &srcs);
    }
    let kernel = b.finish(64.0);
    let mut g = Golden::full();
    for machine in machines() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, policy);
        }
    }
    assert_eq!(g.finish(), DENSE_BUS_GOLDEN);
}

/// `(cases, scheduled, digest)` per population.
const RANDOM_GOLDEN: (u64, u64, u64) = (120, 120, 0xa5a3_8670_ef70_b231);
const DENSE_BUS_GOLDEN: (u64, u64, u64) = (20, 20, 0x7485_36c1_75ef_f0f1);
