//! Shared plumbing for the bench targets and the `repro` binary.
//!
//! The bench targets use the dependency-free [`harness`] (the container
//! this workspace builds in has no registry access, so Criterion is out of
//! reach); each target regenerates one artifact of the paper on a reduced
//! context. The full 14-benchmark sweep lives in the `repro` binary —
//! run `cargo run --release -p vliw-bench --bin repro full all`.

pub mod harness;

use std::time::{Duration, Instant};

use vliw_experiments::ExperimentContext;
use vliw_ir::Ddg;
use vliw_ir::LoopKernel;
use vliw_machine::MachineConfig;
use vliw_sched::{
    elementary_circuits, schedule_outcome, schedule_problem, ClusterPolicy, SchedStats,
    ScheduleOptions,
};
use vliw_workloads::{profile_kernel, ArrayLayout};

/// A deliberately small context for the benches: two benchmarks, short
/// simulations — large enough to exercise every pipeline stage, small
/// enough to repeat.
pub fn bench_context() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "jpegenc".into()];
    ctx.sim.iteration_cap = 64;
    ctx.sim.warmup_iterations = 64;
    ctx.profile.iteration_cap = 64;
    ctx
}

/// A single-benchmark context for the microbenches.
pub fn micro_context(bench: &str) -> ExperimentContext {
    let mut ctx = bench_context();
    ctx.benchmarks = vec![bench.into()];
    ctx
}

/// The scheduling-throughput workload over the full 14-benchmark suite —
/// the population the `sched` bench measures.
pub fn sched_workload() -> (Vec<LoopKernel>, MachineConfig) {
    sched_workload_for(&ExperimentContext::full())
}

/// The scheduling-throughput workload for one context: every loop of the
/// context's benchmarks, profiled, at factor 1 plus an OUF-unrolled
/// variant when the OUF exceeds 1. Kernels any policy fails to schedule
/// are dropped so every policy measures the same population (the
/// `repro … sched` target shares this builder).
pub fn sched_workload_for(ctx: &ExperimentContext) -> (Vec<LoopKernel>, MachineConfig) {
    let mut profile = ctx.profile;
    profile.iteration_cap = 64;
    let mut kernels = Vec::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let ouf = vliw_sched::optimal_unroll_factor(&lw.kernel, &ctx.machine);
            let mut factors = vec![1u32];
            if ouf > 1 {
                factors.push(ouf);
            }
            for f in factors {
                let mut k = vliw_ir::unroll(&lw.kernel, f);
                let layout = ArrayLayout::new(&k, &ctx.machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, &ctx.machine, &layout, &profile);
                // deep unrolling can defeat the no-backtracking scheduler
                // under pinned-chain policies; keep only kernels every
                // policy can schedule so each bench case runs the same set
                let all_schedulable = ClusterPolicy::ALL.iter().all(|&p| {
                    vliw_sched::schedule_kernel(&k, &ctx.machine, ScheduleOptions::new(p)).is_ok()
                });
                if all_schedulable {
                    kernels.push(k);
                }
            }
        }
    }
    (kernels, ctx.machine.clone())
}

/// One timed scheduling pass: every workload kernel under `policy`, with
/// the work counters summed. Shared by `benches/sched.rs` and the
/// `repro … sched` target so the bench printout and the tracked
/// `BENCH_repro.json` trajectory measure exactly the same thing.
///
/// # Panics
///
/// Panics if a kernel fails to schedule — the workload is pre-filtered to
/// kernels every policy can schedule, so a failure is a scheduler bug.
pub fn sched_pass(
    kernels: &[LoopKernel],
    machine: &MachineConfig,
    policy: ClusterPolicy,
) -> (SchedStats, Duration) {
    let mut stats = SchedStats::default();
    let t = Instant::now();
    for k in kernels {
        let o = schedule_outcome(
            std::hint::black_box(k),
            std::hint::black_box(machine),
            ScheduleOptions::new(policy),
        )
        .expect("workload kernels are pre-filtered to schedule");
        std::hint::black_box(&o.schedule);
        stats.merge(&o.stats);
    }
    (stats, t.elapsed())
}

/// Deterministic work counters of one front-end pass ([`problem_pass`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Elementary circuits enumerated, summed over the kernels.
    pub circuits: u64,
    /// §4.3.3 latency-reduction steps applied, summed over the kernels.
    pub latency_steps: u64,
}

/// One timed front-end pass: `schedule_problem` (circuits, pins, latency
/// assignment, MII bounds, SMS order) for every workload kernel under
/// `policy`, over the same population as [`sched_pass`]. The circuit
/// count is taken outside the timed loop.
pub fn problem_pass(
    kernels: &[LoopKernel],
    machine: &MachineConfig,
    policy: ClusterPolicy,
) -> (FrontendStats, Duration) {
    let options = ScheduleOptions::new(policy);
    let t = Instant::now();
    let latency_steps = kernels
        .iter()
        .map(|k| {
            let p = schedule_problem(
                std::hint::black_box(k),
                std::hint::black_box(machine),
                &options,
            );
            p.latencies.steps.len() as u64
        })
        .sum();
    let elapsed = t.elapsed();
    let circuits = kernels
        .iter()
        .map(|k| elementary_circuits(&Ddg::build(k), options.enum_limits).len() as u64)
        .sum();
    let stats = FrontendStats {
        circuits,
        latency_steps,
    };
    (stats, elapsed)
}
