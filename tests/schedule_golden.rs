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

use common::{dense_bus_kernel, machines, random_cases, Golden};
use interleaved_vliw::sched::{ClusterPolicy, ScheduleOptions};

#[test]
fn seeded_random_kernels_match_the_golden_digest() {
    let mut g = Golden::full();
    for (kernel, machine) in random_cases() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, ScheduleOptions::new(policy));
        }
    }
    assert_eq!(g.finish(), RANDOM_GOLDEN);
}

#[test]
fn dense_bus_schedules_match_the_golden_digest() {
    // wrapped bus transfers under rollback churn (see `dense_bus_kernel`)
    let kernel = dense_bus_kernel();
    let mut g = Golden::full();
    for machine in machines() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, ScheduleOptions::new(policy));
        }
    }
    assert_eq!(g.finish(), DENSE_BUS_GOLDEN);
}

/// `(cases, scheduled, digest)` per population.
const RANDOM_GOLDEN: (u64, u64, u64) = (120, 120, 0xa5a3_8670_ef70_b231);
const DENSE_BUS_GOLDEN: (u64, u64, u64) = (20, 20, 0x7485_36c1_75ef_f0f1);
