//! `DelayTracking` — the load-delay-tracking scheduler backend.
//!
//! The §4.3.3 class model collapses every load's behavior into four
//! latencies and a benefit-driven reduction; the delay-tracking direction
//! of the related work (see `PAPERS.md`) schedules each load at a latency
//! derived from its *measured* per-load latency distribution instead.
//! This backend is that idea behind the [`SchedulerBackend`] seam:
//!
//! * the front-end (`engine::prepare`) runs unchanged — same circuits,
//!   same policy pins, same SMS ordering machinery — except that the
//!   latency-assignment stage is
//!   [`assign_profiled_latencies`](crate::latency::assign_profiled_latencies):
//!   every load is scheduled at the expectation of its measured latency
//!   histogram (or, with
//!   [`ScheduleOptions::delay_percentile`](super::ScheduleOptions), at a
//!   chosen percentile — the risk knob), falling back to the class-mix
//!   expectation when only a synthetic profile is attached;
//! * placement is the standard swing pass (the crate-private
//!   `swing_with_prep`): identical search, identical resource model,
//!   different promises.
//!
//! The measured histograms reach the kernel through
//! [`MemProfile::latency`](vliw_ir::MemProfile) — populated by the
//! `vliw-profile` measurement subsystem, which closes the loop: simulate,
//! measure, re-schedule against what was measured.
//!
//! Like the swing pipeline this is a heuristic: the outcome claims
//! [`SchedQuality::Heuristic`], and the `optgap` study measures what the
//! richer latency model buys against the exact branch-and-bound yardstick.

use vliw_ir::LoopKernel;
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use super::backend::{SchedQuality, ScheduleOutcome, SchedulerBackend};
use super::{prepare, swing_with_prep, ScheduleOptions};
use crate::schedule::ScheduleError;

/// The delay-tracking pipeliner (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayTracking;

impl SchedulerBackend for DelayTracking {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn schedule(
        &self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        options: &ScheduleOptions,
        trace: Trace<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        if kernel.ops.is_empty() {
            return Err(ScheduleError::EmptyKernel);
        }
        // `prepare` selects the profiled latency assignment when the
        // options name this backend; force that even if a caller built
        // the options by hand with a mismatched backend field
        let opts = ScheduleOptions {
            backend: super::SchedBackend::DelayTracking,
            ..*options
        };
        let (ddg, prep) = prepare(kernel, machine, &opts, trace);
        swing_with_prep(kernel, machine, opts.policy, &ddg, prep, trace).map(|(schedule, stats)| {
            ScheduleOutcome {
                schedule,
                stats,
                quality: SchedQuality::Heuristic,
                max_live: None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, SchedBackend};
    use vliw_ir::{ArrayKind, DepKind, KernelBuilder, LatencyProfile, MemProfile, OpId, Opcode};

    /// A recurrence kernel whose load carries a measured latency
    /// distribution concentrated at `lat`.
    fn kernel_with_measured(lat: u32, samples: u64) -> LoopKernel {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 512, 4, 4, w);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        let mut p = MemProfile::with_local_ratio(0.9, 0, 0.9, 4);
        let mut lp = LatencyProfile::default();
        for _ in 0..samples {
            lp.record(lat);
        }
        p.latency = Some(lp);
        b.set_profile(ld, p);
        b.finish(64.0)
    }

    fn opts(policy: ClusterPolicy) -> ScheduleOptions {
        ScheduleOptions::new(policy).with_backend(SchedBackend::DelayTracking)
    }

    #[test]
    fn loads_are_scheduled_at_the_measured_expectation() {
        let k = kernel_with_measured(7, 50);
        let m = vliw_machine::MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        assert_eq!(o.quality, SchedQuality::Heuristic);
        assert_eq!(o.schedule.op(OpId::new(0)).assumed_latency, 7);
        assert!(o.schedule.verify(&k, &m).is_empty());
    }

    #[test]
    fn percentile_knob_raises_the_promise() {
        let mut k = kernel_with_measured(1, 90);
        // a 10% tail at the remote-miss latency
        if let Some(p) = &mut k.ops[0].mem.as_mut().unwrap().profile {
            let lp = p.latency.as_mut().unwrap();
            for _ in 0..10 {
                lp.record(15);
            }
        }
        let m = vliw_machine::MachineConfig::word_interleaved_4();
        let expected = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        // expectation = 0.9·1 + 0.1·15 = 2.4 -> rounds to 2
        assert_eq!(expected.schedule.op(OpId::new(0)).assumed_latency, 2);
        let mut conservative = opts(ClusterPolicy::Free);
        conservative.delay_percentile = Some(0.95);
        let o = schedule_outcome(&k, &m, conservative).unwrap();
        assert_eq!(o.schedule.op(OpId::new(0)).assumed_latency, 15);
        assert!(o.schedule.ii >= expected.schedule.ii);
    }

    #[test]
    fn synthetic_profiles_fall_back_to_the_class_mix_expectation() {
        // no measured histogram: hit 0.9, local 0.9 ->
        // E = .81·1 + .09·5 + .09·10 + .01·15 = 2.31 -> 2
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.9, 4));
        let k = b.finish(64.0);
        let m = vliw_machine::MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        assert_eq!(o.schedule.op(OpId::new(0)).assumed_latency, 2);
    }

    #[test]
    fn unprofiled_loads_keep_the_most_expensive_class() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        let k = b.finish(64.0);
        let m = vliw_machine::MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap();
        assert_eq!(o.schedule.op(OpId::new(0)).assumed_latency, 15);
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let k = KernelBuilder::new("empty").finish(1.0);
        let m = vliw_machine::MachineConfig::word_interleaved_4();
        let err = schedule_outcome(&k, &m, opts(ClusterPolicy::Free)).unwrap_err();
        assert_eq!(err, ScheduleError::EmptyKernel);
    }
}
