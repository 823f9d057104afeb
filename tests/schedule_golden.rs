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

use common::{machines, Golden};
use interleaved_vliw::ir::{ArrayKind, KernelBuilder, LoopKernel, Opcode, SrcOperand};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::ClusterPolicy;
use interleaved_vliw::workloads::rng::StdRng;

/// Builds a small random kernel: a few loads feeding a random int
/// dataflow, optional carried recurrences, and a store. Dense dataflow
/// forces inter-cluster copies, whose 2-cycle transfers wrap the II
/// boundary at small IIs.
fn random_kernel(rng: &mut StdRng, case: usize) -> LoopKernel {
    let mut b = KernelBuilder::new(format!("mrtprop{case}"));
    let a = b.array("a", 4096, ArrayKind::Heap);
    let mut values = Vec::new();
    for i in 0..rng.random_range(1..3usize) {
        let (_, v) = b.load(format!("ld{i}"), a, 4 * i as i64, 4, 4);
        values.push(v);
    }
    let n_ops = rng.random_range(2..9usize);
    for i in 0..n_ops {
        let mut srcs: Vec<SrcOperand> = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            srcs.push(values[rng.random_range(0..values.len())].into());
        }
        let (_, v) = if rng.random::<bool>() {
            b.int_op_carried(format!("c{i}"), Opcode::Add, &srcs, 1)
        } else {
            b.int_op(format!("c{i}"), Opcode::Mul, &srcs)
        };
        values.push(v);
    }
    let last = *values.last().expect("nonempty");
    b.store("st", a, 2048, 4, 4, last);
    b.finish(64.0)
}

#[test]
fn seeded_random_kernels_match_the_golden_digest() {
    let mut rng = StdRng::seed_from_u64(0x3a5c_0007);
    let mut g = Golden::full();
    for case in 0..30 {
        let kernel = random_kernel(&mut rng, case);
        let machine = match case % 3 {
            0 => MachineConfig::word_interleaved_4(),
            1 => MachineConfig::word_interleaved(2),
            _ => MachineConfig::multi_vliw_4(),
        };
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
