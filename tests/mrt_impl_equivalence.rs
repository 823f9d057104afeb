//! The word-parallel MRT contract on the suite: schedules produced over
//! the bitmask reservation table are bit-identical — schedule *and* work
//! counters — to those of the scalar-probe reference table.
//!
//! The scalar table now lives only inside `mrt.rs`'s unit tests, where
//! it is compared against the masked table trace by trace. Through the
//! engine, the comparison is against its recorded output: the digest
//! below was taken when the scalar table could still drive the placement
//! loop, and the masked table gave the same value. If the free-mask walk
//! ever surfaced a different candidate cycle than probing every slot in
//! order, or a word-level journal undo restored the wrong bits, some
//! placement would diverge and the digest would change.

mod common;

use common::{machines, suite_kernels, Golden};
use interleaved_vliw::sched::{ClusterPolicy, ScheduleOptions};

#[test]
fn masked_schedules_are_bit_identical_to_scalar_reference_on_the_suite() {
    let mut g = Golden::full();
    for machine in machines() {
        for kernel in suite_kernels(&machine) {
            for policy in ClusterPolicy::ALL {
                g.case(&kernel, &machine, ScheduleOptions::new(policy));
            }
        }
    }
    assert_eq!(g.finish(), SCALAR_REFERENCE_SUITE);
}

/// `(cases, scheduled, digest)` of the scalar reference table over the
/// suite × 5 machines × 4 policies, schedule text and work counters.
const SCALAR_REFERENCE_SUITE: (u64, u64, u64) = (640, 640, 0x5c83_9d75_cd03_28e5);
