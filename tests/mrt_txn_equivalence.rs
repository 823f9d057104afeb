//! The journaled-MRT contract: schedules produced through the MRT's undo
//! journal (a savepoint per probe, rolled back when the probe fails) are
//! bit-identical to those of clone-based trial isolation,
//! which copied the whole reservation table before each probe and
//! restored the copy on failure.
//!
//! Clone-based isolation no longer drives the engine; `mrt.rs`'s
//! random-trace test checks every `rollback_to` against a clone taken at
//! the savepoint. Through the engine, the comparison is against its
//! recorded output: the digests below were taken when clone-based trials
//! could still run the placement loop, and the journal gave the same
//! values. If a rollback ever failed to restore the exact reservation
//! state, some later placement would see a phantom (or missing)
//! reservation and the schedules would diverge.

mod common;

use common::{machines, suite_kernels, Golden};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{ClusterPolicy, ScheduleOptions};

#[test]
fn journaled_schedules_are_bit_identical_to_clone_based() {
    let mut g = Golden::schedules_only();
    for machine in machines() {
        for kernel in suite_kernels(&machine) {
            for policy in ClusterPolicy::ALL {
                g.case(&kernel, &machine, ScheduleOptions::new(policy));
            }
        }
    }
    assert_eq!(g.finish(), CLONE_BASED_SCHEDULES);
}

#[test]
fn both_trial_modes_do_identical_placement_work() {
    // same decisions ⇒ same work counters (rollbacks included): the
    // journal only changes how a failed probe is discarded
    let machine = MachineConfig::word_interleaved_4();
    let mut g = Golden::stats_only();
    for kernel in suite_kernels(&machine) {
        for policy in ClusterPolicy::ALL {
            if let Some(o) = g.case(&kernel, &machine, ScheduleOptions::new(policy)) {
                assert!(
                    o.stats.trial_cycles > 0 && o.stats.placements > 0,
                    "{policy:?} on {}",
                    kernel.name
                );
            }
        }
    }
    assert_eq!(g.finish(), CLONE_BASED_WORK);
}

/// `(cases, scheduled, digest)` of clone-based trials over the suite ×
/// 5 machines × 4 policies, schedule text only.
const CLONE_BASED_SCHEDULES: (u64, u64, u64) = (640, 640, 0x3b92_47df_e71f_b2d2);

/// `(cases, scheduled, digest)` of clone-based trials over the suite ×
/// 4 policies on the 4-cluster word-interleaved machine, work counters
/// only.
const CLONE_BASED_WORK: (u64, u64, u64) = (128, 128, 0x7bc5_668b_72d4_6ec6);
