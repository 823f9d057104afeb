//! The zero-overhead-when-off contract of `vliw-trace`, pinned end to
//! end:
//!
//! * scheduling with no sink (`Trace::off()`) and with an attached
//!   [`NullSink`] both produce schedules bit-identical to the
//!   uninstrumented entry points, across every §4 cluster policy — the
//!   probes change nothing observable;
//! * the instrumented repro pass records under the logical clock, so two
//!   identical runs export byte-identical Chrome trace JSON;
//! * that export is pinned by a golden digest, so the order of the
//!   scheduler's spans and instants (`backend.bnb`, `prepare.*`,
//!   `backend.swing`, `bnb.incumbent`, `bnb.solve`) cannot drift.

use std::hash::Hasher as _;

use interleaved_vliw::experiments::{optgap, run_trace, ExperimentContext};
use interleaved_vliw::ir::{LoopKernel, StableHasher};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{
    schedule_outcome, schedule_outcome_traced, ClusterPolicy, ScheduleOptions,
};
use interleaved_vliw::trace::{NullSink, RecordingSink, Trace};

/// Factor-1 suite kernels of two benchmarks — the same population slice
/// the backend-optimality test uses.
fn suite_kernels() -> (Vec<LoopKernel>, MachineConfig) {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "epicdec".into()];
    ctx.profile.iteration_cap = 48;
    (optgap::factor1_kernels(&ctx), ctx.machine)
}

#[test]
fn disabled_tracing_is_bit_identical_across_the_policy_suite() {
    let (kernels, machine) = suite_kernels();
    assert!(!kernels.is_empty());
    let null = NullSink;
    for kernel in &kernels {
        for policy in ClusterPolicy::ALL {
            let opts = ScheduleOptions::new(policy);
            let plain =
                schedule_outcome(kernel, &machine, opts).expect("factor-1 suite kernels schedule");
            let off = schedule_outcome_traced(kernel, &machine, opts, Trace::off())
                .expect("Trace::off() must not change schedulability");
            let nulled = schedule_outcome_traced(kernel, &machine, opts, Trace::new(&null))
                .expect("NullSink must not change schedulability");
            let reference = plain.schedule.to_compact_text();
            assert_eq!(
                reference,
                off.schedule.to_compact_text(),
                "{policy:?} on {}: Trace::off() changed the schedule",
                kernel.name
            );
            assert_eq!(
                reference,
                nulled.schedule.to_compact_text(),
                "{policy:?} on {}: NullSink changed the schedule",
                kernel.name
            );
            assert_eq!(plain.quality, off.quality);
            assert_eq!(plain.quality, nulled.quality);
        }
    }
}

/// An attached recording sink must not perturb the schedules either —
/// observation is passive: the instrumented run's schedules match the
/// uninstrumented ones bit for bit while the recording is non-empty.
#[test]
fn recording_observes_without_perturbing() {
    let (kernels, machine) = suite_kernels();
    let sink = RecordingSink::logical();
    let trace = Trace::new(&sink);
    let opts = ScheduleOptions::new(ClusterPolicy::PreBuildChains);
    for kernel in &kernels {
        let plain = schedule_outcome(kernel, &machine, opts).expect("suite schedules");
        let traced =
            schedule_outcome_traced(kernel, &machine, opts, trace).expect("suite schedules");
        assert_eq!(
            plain.schedule.to_compact_text(),
            traced.schedule.to_compact_text(),
            "{}: recording perturbed the schedule",
            kernel.name
        );
    }
    assert!(
        !sink.is_empty(),
        "the traced runs must have recorded events"
    );
}

#[test]
fn logical_clock_trace_pass_is_byte_identical_twice_over() {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.profile.iteration_cap = 48;
    let a = run_trace(&ctx, 1);
    let b = run_trace(&ctx, 1);
    assert!(a.events > 0, "the instrumented pass must record events");
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "logical-clock Chrome export drifted between identical runs"
    );
    assert_eq!(a.metrics, b.metrics, "metrics snapshot drifted");
    let mut h = StableHasher::default();
    h.write_str(&a.chrome_json);
    assert_eq!(
        (a.events, h.finish()),
        (5207, 8_707_206_479_870_730_952),
        "the logical-clock Chrome export changed"
    );
}
