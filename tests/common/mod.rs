//! Golden-digest machinery shared by the schedule-pinning tests.
//!
//! A [`Golden`] schedules cases through [`schedule_outcome`] and folds
//! each into a [`StableHasher`]: the schedule's compact text, every
//! [`SchedStats`] counter, or both — optionally with the outcome's
//! quality claim and MaxLive — or the error's text when the case fails.
//! Each test file uses a subset of these helpers.

#![allow(dead_code)]

use std::hash::Hasher as _;

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{
    ArrayKind, KernelBuilder, LoopKernel, Opcode, SrcOperand, StableHasher,
};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{schedule_outcome, SchedStats, ScheduleOptions, ScheduleOutcome};
use interleaved_vliw::workloads::rng::StdRng;
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
    profiled_kernels(machine, &["gsmdec", "epicdec"], &[1, 4])
}

/// Every loop of the named suite benchmarks, unrolled by each factor and
/// profiled on `machine` (quick-context inputs).
pub fn profiled_kernels(
    machine: &MachineConfig,
    benches: &[&str],
    factors: &[u32],
) -> Vec<LoopKernel> {
    let ctx = ExperimentContext::quick();
    let mut out = Vec::new();
    for bench in benches {
        let spec = spec_by_name(bench).unwrap();
        let model = synthesize(&spec, &ctx.workloads, machine);
        for lw in &model.loops {
            for &factor in factors {
                let mut k = interleaved_vliw::ir::unroll(&lw.kernel, factor);
                let layout = ArrayLayout::new(&k, machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, machine, &layout, &ctx.profile);
                out.push(k);
            }
        }
    }
    out
}

/// Thirty seeded random kernels (see [`random_kernel`]), each paired
/// with one of the word-interleaved 4- and 2-cluster and multiVLIW
/// machines in turn.
pub fn random_cases() -> Vec<(LoopKernel, MachineConfig)> {
    let mut rng = StdRng::seed_from_u64(0x3a5c_0007);
    (0..30)
        .map(|case| {
            let kernel = random_kernel(&mut rng, case);
            let machine = match case % 3 {
                0 => MachineConfig::word_interleaved_4(),
                1 => MachineConfig::word_interleaved(2),
                _ => MachineConfig::multi_vliw_4(),
            };
            (kernel, machine)
        })
        .collect()
}

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

/// All-to-all int dataflow: five producers each feeding five consumers.
/// Copy pressure saturates the buses at the smallest IIs, so transfers
/// start near the II boundary and wrap while failed placements roll the
/// split bus runs back.
pub fn dense_bus_kernel() -> LoopKernel {
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
    b.finish(64.0)
}

/// A running digest over scheduled cases.
pub struct Golden {
    hasher: StableHasher,
    cases: u64,
    scheduled: u64,
    schedules: bool,
    stats: bool,
    claims: bool,
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

    /// Folds in the schedule text, every work counter, the quality claim
    /// and the reported MaxLive.
    pub fn outcomes() -> Self {
        Self {
            claims: true,
            ..Self::full()
        }
    }

    fn folding(schedules: bool, stats: bool) -> Self {
        Self {
            hasher: StableHasher::default(),
            cases: 0,
            scheduled: 0,
            schedules,
            stats,
            claims: false,
        }
    }

    /// Schedules `kernel` under `options` and folds the result in;
    /// returns the outcome when the case schedules.
    pub fn case(
        &mut self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        options: ScheduleOptions,
    ) -> Option<ScheduleOutcome> {
        self.cases += 1;
        self.hasher.write_str(&kernel.name);
        match schedule_outcome(kernel, machine, options) {
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
                if self.claims {
                    self.hasher.write_str(&format!("{:?}", o.quality));
                    self.hasher
                        .write_u64(o.max_live.map_or(u64::MAX, u64::from));
                }
                Some(o)
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
