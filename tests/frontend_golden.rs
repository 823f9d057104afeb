//! Golden front-end digests: the §4.3.1 front-end's output, pinned.
//!
//! Every case runs `schedule_problem` and folds into a `StableHasher`
//! the MII bounds (`res_mii`, `rec_mii`, `mii`, `max_ii`), the cluster
//! pins, the raw latency vector, the latency assignment's `target_mii`,
//! every `BenefitStep` of the reduction log (circuit, chosen index and
//! each candidate's op, class, `delta_ii` and the bits of `delta_stall`
//! and `benefit`) and the SMS order. The schedule digests
//! (`schedule_golden.rs` and the equivalence tests) see the front-end
//! only through the schedules it leads to; these pin the reduction log
//! and the target too, so a change to the latency assignment, RecMII or
//! SMS ordering that moves any intermediate decision changes a digest
//! even when the schedule happens not to move.

mod common;

use std::hash::Hasher as _;

use common::{machines, random_cases, suite_kernels};
use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{unroll, Ddg, LoopKernel, StableHasher};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{
    elementary_circuits, schedule_problem, ClusterPolicy, EnumLimits, ScheduleOptions,
};
use interleaved_vliw::workloads::{profile_kernel, spec_by_name, synthesize, ArrayLayout};

/// A running digest over `schedule_problem` outputs.
#[derive(Default)]
struct FrontendGolden {
    hasher: StableHasher,
    cases: u64,
}

impl FrontendGolden {
    /// Folds one case in; returns the number of reduction steps.
    fn case(
        &mut self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        options: &ScheduleOptions,
    ) -> usize {
        let p = schedule_problem(kernel, machine, options);
        let h = &mut self.hasher;
        self.cases += 1;
        h.write_str(&kernel.name);
        for v in [p.res_mii, p.rec_mii, p.mii, p.max_ii] {
            h.write_u32(v);
        }
        h.write_usize(p.pins.len());
        for pin in &p.pins {
            h.write_opt_u64(pin.map(|c| c as u64));
        }
        let lat = p.latencies.raw();
        h.write_usize(lat.len());
        for &l in lat {
            h.write_u32(l);
        }
        h.write_u32(p.latencies.target_mii);
        h.write_usize(p.latencies.steps.len());
        for step in &p.latencies.steps {
            h.write_usize(step.circuit);
            h.write_usize(step.chosen);
            h.write_usize(step.candidates.len());
            for c in &step.candidates {
                h.write_usize(c.op.index());
                h.write_u8(c.to_class as u8);
                h.write_u32(c.delta_ii);
                h.write_u64(c.delta_stall.to_bits());
                h.write_u64(c.benefit.to_bits());
            }
        }
        h.write_usize(p.order.len());
        for op in &p.order {
            h.write_usize(op.index());
        }
        p.latencies.steps.len()
    }

    /// `(cases, digest)`.
    fn finish(&self) -> (u64, u64) {
        (self.cases, self.hasher.finish())
    }
}

#[test]
fn suite_front_end_matches_the_golden_digest() {
    let mut g = FrontendGolden::default();
    for machine in machines() {
        for kernel in suite_kernels(&machine) {
            for policy in ClusterPolicy::ALL {
                g.case(&kernel, &machine, &ScheduleOptions::new(policy));
            }
        }
    }
    assert_eq!(g.finish(), SUITE_GOLDEN);
}

#[test]
fn seeded_random_front_end_matches_the_golden_digest() {
    let mut g = FrontendGolden::default();
    for (kernel, machine) in random_cases() {
        for policy in ClusterPolicy::ALL {
            g.case(&kernel, &machine, &ScheduleOptions::new(policy));
        }
    }
    assert_eq!(g.finish(), RANDOM_GOLDEN);
}

#[test]
fn capped_circuit_enumeration_front_end_matches_the_golden_digest() {
    // pgpenc's first loop unrolled ×4 has more elementary circuits than
    // the experiments' enumeration cap, so the latency assignment and
    // the SMS order work from a truncated circuit list
    let ctx = ExperimentContext::quick();
    let machine = MachineConfig::word_interleaved_4();
    let spec = spec_by_name("pgpenc").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &machine);
    let lw = model.loops.iter().find(|lw| lw.kernel.name == "pgpenc_l1");
    let mut kernel = unroll(&lw.expect("pgpenc_l1").kernel, 4);
    let layout = ArrayLayout::new(&kernel, &machine, true, ctx.workloads.profile_input);
    profile_kernel(&mut kernel, &machine, &layout, &ctx.profile);
    let limits = EnumLimits {
        max_circuits: 4000,
        max_len: 64,
    };
    assert_eq!(limits, ctx.enum_limits);
    assert_eq!(
        elementary_circuits(&Ddg::build(&kernel), limits).len(),
        4000
    );
    let mut g = FrontendGolden::default();
    let mut steps = 0;
    for policy in ClusterPolicy::ALL {
        let options = ScheduleOptions {
            enum_limits: limits,
            ..ScheduleOptions::new(policy)
        };
        steps += g.case(&kernel, &machine, &options);
    }
    assert!(steps > 0, "the capped kernel exercises the reduction");
    assert_eq!(g.finish(), CAPPED_GOLDEN);
}

/// `(cases, digest)` per population.
const SUITE_GOLDEN: (u64, u64) = (640, 0x89f8_a3ea_f84c_288c);
const RANDOM_GOLDEN: (u64, u64) = (120, 0x3e7f_3b0e_1703_f175);
const CAPPED_GOLDEN: (u64, u64) = (4, 0x4135_2807_a452_2335);
