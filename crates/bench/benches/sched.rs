//! Scheduling-throughput bench: modulo-schedules every loop of the full
//! workload suite under all four cluster-assignment policies and reports
//! schedules/sec plus trial-cycles/sec (candidate `(cluster, cycle)` slots
//! examined per second — the scheduler's innermost unit of work), then
//! times the front-end alone (`schedule_problem`) over the same kernels:
//! problems/sec, with the circuits enumerated and the latency-reduction
//! steps applied as its deterministic work counters. A last case times
//! circuit enumeration alone at the experiments' caps over every
//! selective-unroll candidate of the suite — the variants the
//! experiments schedule, where unrolled distance-0 chains make
//! enumeration costly (the quick suite's candidates have none of those
//! shapes) — and reports circuits/sec and the circuit count.
//!
//! This is the tracked perf trajectory for the scheduler core: the `sched`
//! target of the `repro` binary records the same counters (via the shared
//! [`vliw_bench::sched_pass`]) into `BENCH_repro.json`.

use vliw_bench::{harness::Bench, problem_pass, sched_pass, sched_workload, FrontendStats};
use vliw_experiments::ExperimentContext;
use vliw_ir::{unroll, Ddg, LoopKernel};
use vliw_sched::{elementary_circuits, unroll_candidates, ClusterPolicy, SchedStats};
use vliw_workloads::{profile_kernel, ArrayLayout};

/// Every selective-unroll candidate of the context's loops, unrolled.
/// The candidates are chosen from the profiled original, as the
/// experiments choose them.
fn candidate_variants(ctx: &ExperimentContext) -> Vec<LoopKernel> {
    let mut out = Vec::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let mut k = lw.kernel.clone();
            let layout = ArrayLayout::new(&k, &ctx.machine, true, ctx.workloads.profile_input);
            profile_kernel(&mut k, &ctx.machine, &layout, &ctx.profile);
            for (_, factor) in unroll_candidates(&k, &ctx.machine) {
                out.push(unroll(&k, factor));
            }
        }
    }
    out
}

fn main() {
    let (kernels, machine) = sched_workload();
    println!(
        "sched workload: {} kernels (suite loops at factor 1 and OUF-unrolled)",
        kernels.len()
    );
    let mut b = Bench::new("sched").min_iters(5);
    let mut total_schedules = 0u64;
    let mut total_seconds = 0.0f64;
    let mut total_problem_seconds = 0.0f64;
    for policy in ClusterPolicy::ALL {
        let name = policy.name();
        let mut stats = SchedStats::default();
        let r = b.run(name, || {
            let (st, _) = sched_pass(&kernels, &machine, policy);
            stats = st;
        });
        let secs = r.median.as_secs_f64();
        println!(
            "bench sched/{name}: {:.1} schedules/sec, {:.3e} trial-cycles/sec ({} trial cycles, {} rollbacks)",
            kernels.len() as f64 / secs,
            stats.trial_cycles as f64 / secs,
            stats.trial_cycles,
            stats.rollbacks,
        );
        total_schedules += kernels.len() as u64;
        total_seconds += secs;

        let mut front = FrontendStats::default();
        let r = b.run(&format!("{name}/problem"), || {
            let (st, _) = problem_pass(&kernels, &machine, policy);
            front = st;
        });
        let secs = r.median.as_secs_f64();
        println!(
            "bench sched/{name}/problem: {:.1} problems/sec ({} circuits, {} latency steps)",
            kernels.len() as f64 / secs,
            front.circuits,
            front.latency_steps,
        );
        total_problem_seconds += secs;
    }
    println!(
        "bench sched/all-policies: {:.1} schedules/sec, {:.1} problems/sec overall",
        total_schedules as f64 / total_seconds,
        total_schedules as f64 / total_problem_seconds
    );

    let ctx = ExperimentContext::full();
    let variants = candidate_variants(&ctx);
    let limits = ctx.enum_limits;
    let mut circuits = 0;
    let r = b.run("circuits", || {
        circuits = variants
            .iter()
            .map(|k| elementary_circuits(&Ddg::build(k), limits).len())
            .sum::<usize>();
    });
    println!(
        "bench sched/circuits: {:.3e} circuits/sec ({circuits} circuits over {} unroll \
         candidates, caps {}/{})",
        circuits as f64 / r.median.as_secs_f64(),
        variants.len(),
        limits.max_circuits,
        limits.max_len,
    );
    b.finish();
}
