//! The exact backend's contract against the heuristic ones, pinned over
//! the suite and over seeded random kernels:
//!
//! * `SchedBackend::ExactBnB` never reports a worse II than any heuristic policy run
//!   under the same front-end (the incumbent-seeded search only explores
//!   strictly smaller IIs);
//! * every exact schedule passes `Schedule::verify`;
//! * cutoffs are counted, visible outcomes — an exact result either
//!   proves optimality or says exactly why it could not;
//! * the exact backend proves optimality on a healthy fraction of the
//!   factor-1 suite under the default node budget (the `optgap` study's
//!   precondition).

use interleaved_vliw::experiments::{optgap, ExperimentContext};
use interleaved_vliw::ir::{ArrayKind, KernelBuilder, LoopKernel, Opcode, SrcOperand};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{
    schedule_outcome, schedule_outcome_traced, ClusterPolicy, MemChains, SchedBackend,
    SchedQuality, ScheduleOptions,
};
use interleaved_vliw::trace::Trace;
use interleaved_vliw::workloads::rng::StdRng;

fn exact_opts(policy: ClusterPolicy) -> ScheduleOptions {
    ScheduleOptions::new(policy).with_backend(SchedBackend::ExactBnB)
}

/// Factor-1 suite kernels of two benchmarks — the same population slice
/// the MRT-equivalence test uses.
fn suite_kernels() -> (Vec<LoopKernel>, MachineConfig) {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "epicdec".into()];
    ctx.profile.iteration_cap = 48;
    (optgap::factor1_kernels(&ctx), ctx.machine)
}

#[test]
fn exact_backend_dominates_every_heuristic_on_the_suite() {
    let (kernels, machine) = suite_kernels();
    assert!(!kernels.is_empty());
    let mut cells = 0usize;
    let mut proven = 0usize;
    for kernel in &kernels {
        for policy in ClusterPolicy::ALL {
            let heuristic = schedule_outcome(kernel, &machine, ScheduleOptions::new(policy))
                .expect("factor-1 suite kernels schedule")
                .schedule;
            let out = schedule_outcome(kernel, &machine, exact_opts(policy))
                .expect("exact backend inherits the incumbent");
            cells += 1;
            assert!(
                out.schedule.ii <= heuristic.ii,
                "{policy:?} on {}: exact II {} > heuristic II {}",
                kernel.name,
                out.schedule.ii,
                heuristic.ii
            );
            assert!(out.schedule.ii >= out.schedule.mii, "{}", kernel.name);
            let errs = out.schedule.verify(kernel, &machine);
            assert!(errs.is_empty(), "{policy:?} on {}: {errs:?}", kernel.name);
            // the exact search honors the policy's hard constraints — its
            // "optimal" is for the policy's problem, not a relaxation
            let chains = MemChains::build(kernel);
            let pins = policy.precompute_pins(kernel, &chains, machine.clusters.n_clusters);
            for (i, pin) in pins.iter().enumerate() {
                if let Some(c) = pin {
                    assert_eq!(
                        out.schedule.ops[i].cluster, *c,
                        "{policy:?} on {}: pinned op escaped its cluster",
                        kernel.name
                    );
                }
            }
            if policy == ClusterPolicy::BuildChains {
                for (_, members) in chains.iter() {
                    let c0 = out.schedule.op(members[0]).cluster;
                    for &m in members {
                        assert_eq!(
                            out.schedule.op(m).cluster,
                            c0,
                            "{}: chain split under IBC",
                            kernel.name
                        );
                    }
                }
            }
            match out.quality {
                SchedQuality::ProvenOptimal => {
                    proven += 1;
                    assert_eq!(
                        out.stats.cutoffs, 0,
                        "{}: a proof admits no cutoff",
                        kernel.name
                    );
                }
                SchedQuality::CutoffFeasible => {
                    assert!(
                        out.stats.cutoffs > 0,
                        "{}: cutoff must be counted",
                        kernel.name
                    );
                }
                SchedQuality::Heuristic => panic!("exact backend cannot claim Heuristic"),
            }
        }
    }
    // the acceptance bar: ≥ 25% of factor-1 suite cells proven optimal
    // under the default budget (in practice it is far higher)
    assert!(
        proven * 4 >= cells,
        "only {proven}/{cells} cells proven optimal"
    );
}

/// Builds a small random kernel: a few loads feeding a random int
/// dataflow, an optional carried recurrence, and a store.
fn random_kernel(rng: &mut StdRng, case: usize) -> LoopKernel {
    let mut b = KernelBuilder::new(format!("prop{case}"));
    let a = b.array("a", 4096, ArrayKind::Heap);
    let mut values = Vec::new();
    for i in 0..rng.random_range(1..3usize) {
        let (_, v) = b.load(format!("ld{i}"), a, 4 * i as i64, 4, 4);
        values.push(v);
    }
    let n_ops = rng.random_range(2..7usize);
    for i in 0..n_ops {
        let mut srcs: Vec<SrcOperand> = Vec::new();
        for _ in 0..rng.random_range(1..3usize) {
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
fn exact_backend_dominates_on_seeded_random_kernels() {
    let mut rng = StdRng::seed_from_u64(0xb4b_0001);
    let machine = MachineConfig::word_interleaved_4();
    for case in 0..20 {
        let kernel = random_kernel(&mut rng, case);
        let policy = ClusterPolicy::ALL[rng.random_range(0..4usize)];
        let heuristic = schedule_outcome(&kernel, &machine, ScheduleOptions::new(policy))
            .expect("small random kernels schedule")
            .schedule;
        let out = schedule_outcome(&kernel, &machine, exact_opts(policy)).unwrap();
        assert!(
            out.schedule.ii <= heuristic.ii,
            "case {case} ({policy:?}): exact {} > heuristic {}",
            out.schedule.ii,
            heuristic.ii
        );
        let errs = out.schedule.verify(&kernel, &machine);
        assert!(errs.is_empty(), "case {case}: {errs:?}");
        // small kernels under the default budget must be decided exactly
        assert_eq!(
            out.quality,
            SchedQuality::ProvenOptimal,
            "case {case}: small kernels are within budget"
        );
    }
}

#[test]
fn tuple_entry_points_agree_with_outcomes() {
    // the traced entry point with tracing off and the plain one dispatch
    // through the same backend: bit-identical outcomes either way
    let (kernels, machine) = suite_kernels();
    let kernel = &kernels[0];
    for backend in SchedBackend::ALL {
        let opts = ScheduleOptions::new(ClusterPolicy::PreBuildChains).with_backend(backend);
        let via_traced = schedule_outcome_traced(kernel, &machine, opts, Trace::off()).unwrap();
        let via_outcome = schedule_outcome(kernel, &machine, opts).unwrap();
        let name = backend.name();
        assert_eq!(via_traced.schedule, via_outcome.schedule, "{name}");
        assert_eq!(via_traced.stats, via_outcome.stats, "{name}");
        assert_eq!(via_traced.quality, via_outcome.quality, "{name}");
        assert_eq!(via_traced.max_live, via_outcome.max_live, "{name}");
    }
}
