//! Golden-digest machinery shared by the schedule-pinning tests.
//!
//! A [`Golden`] schedules cases through [`schedule_outcome`] and folds
//! each into a [`StableHasher`]: the schedule's compact text, every
//! [`SchedStats`] counter, or both — or the error's text when the case
//! fails. Each test file uses a subset of these helpers.

#![allow(dead_code)]

use std::hash::Hasher as _;

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{LoopKernel, StableHasher};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{schedule_outcome, ClusterPolicy, SchedStats, ScheduleOptions};
use interleaved_vliw::workloads::{profile_kernel, spec_by_name, synthesize, ArrayLayout};

/// The paper's machine configurations (§5): 4-cluster word-interleaved,
/// 2-cluster word-interleaved, multiVLIW, and both unified latencies.
pub fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::word_interleaved_4(),
        MachineConfig::word_interleaved(2),
        MachineConfig::multi_vliw_4(),
        MachineConfig::unified_4(1),
        MachineConfig::unified_4(5),
    ]
}

/// Profiled factor-1 and ×4-unrolled kernels of two suite benchmarks:
/// chains, recurrences, and enough bus pressure that multi-slot
/// transfers wrap the II boundary and failed probes roll them back.
pub fn suite_kernels(machine: &MachineConfig) -> Vec<LoopKernel> {
    let ctx = ExperimentContext::quick();
    let mut out = Vec::new();
    for bench in ["gsmdec", "epicdec"] {
        let spec = spec_by_name(bench).unwrap();
        let model = synthesize(&spec, &ctx.workloads, machine);
        for lw in &model.loops {
            for factor in [1u32, 4] {
                let mut k = interleaved_vliw::ir::unroll(&lw.kernel, factor);
                let layout = ArrayLayout::new(&k, machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, machine, &layout, &ctx.profile);
                out.push(k);
            }
        }
    }
    out
}

/// A running digest over scheduled cases.
pub struct Golden {
    hasher: StableHasher,
    cases: u64,
    scheduled: u64,
    schedules: bool,
    stats: bool,
}

impl Golden {
    /// Folds in the schedule text and every work counter.
    pub fn full() -> Self {
        Self::folding(true, true)
    }

    /// Folds in the schedule text only.
    pub fn schedules_only() -> Self {
        Self::folding(true, false)
    }

    /// Folds in the work counters only.
    pub fn stats_only() -> Self {
        Self::folding(false, true)
    }

    fn folding(schedules: bool, stats: bool) -> Self {
        Self {
            hasher: StableHasher::default(),
            cases: 0,
            scheduled: 0,
            schedules,
            stats,
        }
    }

    /// Schedules `kernel` under `policy` and folds the result in; returns
    /// the work counters when the case schedules.
    pub fn case(
        &mut self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        policy: ClusterPolicy,
    ) -> Option<SchedStats> {
        self.cases += 1;
        self.hasher.write_str(&kernel.name);
        match schedule_outcome(kernel, machine, ScheduleOptions::new(policy)) {
            Ok(o) => {
                self.scheduled += 1;
                self.hasher.write_u8(1);
                if self.schedules {
                    self.hasher.write_str(&o.schedule.to_compact_text());
                }
                if self.stats {
                    let SchedStats {
                        trial_cycles,
                        attempts,
                        rollbacks,
                        placements,
                        cutoffs,
                        fallback_retries,
                    } = o.stats;
                    for v in [
                        trial_cycles,
                        attempts,
                        rollbacks,
                        placements,
                        cutoffs,
                        fallback_retries,
                    ] {
                        self.hasher.write_u64(v);
                    }
                }
                Some(o.stats)
            }
            Err(e) => {
                self.hasher.write_u8(0);
                self.hasher.write_str(&format!("{e:?}"));
                None
            }
        }
    }

    /// `(cases, scheduled, digest)`.
    pub fn finish(&self) -> (u64, u64, u64) {
        (self.cases, self.scheduled, self.hasher.finish())
    }
}
