//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage: `repro [quick|full] [--serial] [all|table1|table2|example433|fig4|fig5|fig6|fig7|fig8|hints|interleave|mshr|sched|optgap|profile|batch|trace|faults|chains]`
//!
//! Results print to stdout and are also written as CSV under `results/`.
//! Every run additionally emits `BENCH_repro.json` — a machine-readable
//! record of per-figure wall time and headline cycle metrics, so the perf
//! trajectory of the full pipeline can be tracked across commits.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use vliw_experiments::{
    batch, chains_exp, example433, faults, fig4, fig5, fig6, fig7, fig8, hints_exp,
    interleave_study, optgap, profile_fidelity, report, tables, trace_exp, ExperimentContext,
    RunConfig, RunGrid, SchedCache, UnrollMode,
};
use vliw_ir::{Ddg, LoopKernel};
use vliw_machine::MachineConfig;
use vliw_sched::{
    elementary_circuits, schedule_outcome, schedule_problem, ClusterPolicy, SchedBackend,
    SchedStats, ScheduleOptions,
};
use vliw_workloads::{profile_kernel, ArrayLayout};

/// The scheduling-throughput workload for one context: every loop of the
/// context's benchmarks, profiled, at factor 1 plus an OUF-unrolled
/// variant when the OUF exceeds 1. Kernels any policy fails to schedule
/// are dropped so every policy measures the same population.
fn sched_workload_for(ctx: &ExperimentContext) -> (Vec<LoopKernel>, MachineConfig) {
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
                // policy can schedule so each policy runs the same set
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
/// the work counters summed.
///
/// # Panics
///
/// Panics if a kernel fails to schedule — the workload is pre-filtered to
/// kernels every policy can schedule, so a failure is a scheduler bug.
fn sched_pass(
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
#[derive(Default)]
struct FrontendStats {
    /// Elementary circuits enumerated, summed over the kernels.
    circuits: u64,
    /// §4.3.3 latency-reduction steps applied, summed over the kernels.
    latency_steps: u64,
}

/// One timed front-end pass: `schedule_problem` (circuits, pins, latency
/// assignment, MII bounds, SMS order) for every workload kernel under
/// `policy`, over the same population as [`sched_pass`]. The circuit
/// count is taken outside the timed loop.
fn problem_pass(
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

/// The scheduler-throughput record: schedules the suite under every policy
/// (wall time + work counters from [`SchedStats`]), times the front-end
/// alone over the same kernels (wall time + circuit and latency-step
/// counters from [`FrontendStats`]) and probes the schedule
/// memo, returning `BENCH_repro.json` metrics and a CSV table.
fn sched_record(ctx: &ExperimentContext) -> (Vec<(String, f64)>, String) {
    let (kernels, machine) = sched_workload_for(ctx);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut csv = String::from(
        "policy,kernels,seconds,schedules_per_sec,trial_cycles,\
         problem_seconds,problems_per_sec,circuits,latency_steps\n",
    );
    let mut total = SchedStats::default();
    let mut front = FrontendStats::default();
    let mut total_secs = 0.0;
    let mut total_problem_secs = 0.0;
    let mut total_schedules = 0u64;
    for policy in ClusterPolicy::ALL {
        let label = policy.name();
        let (stats, elapsed) = sched_pass(&kernels, &machine, policy);
        let secs = elapsed.as_secs_f64();
        let per_sec = kernels.len() as f64 / secs;
        let (fstats, felapsed) = problem_pass(&kernels, &machine, policy);
        let fsecs = felapsed.as_secs_f64();
        let fper_sec = kernels.len() as f64 / fsecs;
        println!(
            "sched {label}: {} kernels in {secs:.3}s = {per_sec:.1} schedules/sec, \
             {} trial cycles; front-end {fsecs:.3}s = {fper_sec:.1} problems/sec, \
             {} circuits, {} latency steps",
            kernels.len(),
            stats.trial_cycles,
            fstats.circuits,
            fstats.latency_steps
        );
        let _ = writeln!(
            csv,
            "{label},{},{secs},{per_sec},{},{fsecs},{fper_sec},{},{}",
            kernels.len(),
            stats.trial_cycles,
            fstats.circuits,
            fstats.latency_steps
        );
        metrics.push((format!("schedules_per_sec/{label}"), per_sec));
        metrics.push((format!("trial_cycles/{label}"), stats.trial_cycles as f64));
        metrics.push((format!("problems_per_sec/{label}"), fper_sec));
        total.merge(&stats);
        front.circuits += fstats.circuits;
        front.latency_steps += fstats.latency_steps;
        total_secs += secs;
        total_problem_secs += fsecs;
        total_schedules += kernels.len() as u64;
    }
    metrics.push(("schedules".into(), total_schedules as f64));
    metrics.push((
        "schedules_per_sec".into(),
        total_schedules as f64 / total_secs,
    ));
    metrics.push(("trial_cycles".into(), total.trial_cycles as f64));
    metrics.push((
        "problems_per_sec".into(),
        total_schedules as f64 / total_problem_secs,
    ));
    metrics.push(("circuits".into(), front.circuits as f64));
    metrics.push(("latency_steps".into(), front.latency_steps as f64));
    metrics.push((
        "trial_cycles_per_sec".into(),
        total.trial_cycles as f64 / total_secs,
    ));
    metrics.push(("attempts".into(), total.attempts as f64));
    metrics.push(("rollbacks".into(), total.rollbacks as f64));
    metrics.push(("placements".into(), total.placements as f64));
    metrics.push(("cutoffs".into(), total.cutoffs as f64));

    // memo probe: two configs differing only in a non-preparation axis
    // share every preparation, so the second sweep is all memo hits
    let memo = SchedCache::new();
    let base = RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    };
    for cfg in [base, base.with_buffers()] {
        let machine = ctx.machine_for(&cfg);
        for model in ctx.models() {
            for lw in &model.loops {
                let _ = memo.prepare(&lw.kernel, &machine, &cfg, ctx);
            }
        }
    }
    println!("sched memo: {} prepared, {} hits", memo.len(), memo.hits());
    metrics.push(("memo_prepared".into(), memo.len() as f64));
    metrics.push(("memo_hits".into(), memo.hits() as f64));
    (metrics, csv)
}

fn save(name: &str, csv: String) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[saved results/{name}.csv]");
        }
    }
}

/// One figure's machine-readable record.
struct FigureRecord {
    name: &'static str,
    wall_seconds: f64,
    metrics: Metrics,
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_bench_json(scale: &str, n_benchmarks: usize, serial: bool, figures: &[FigureRecord]) {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vliw-bench-repro/1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(scale));
    let _ = writeln!(out, "  \"benchmarks\": {n_benchmarks},");
    let _ = writeln!(out, "  \"serial\": {serial},");
    let total: f64 = figures.iter().map(|f| f.wall_seconds).sum();
    let _ = writeln!(out, "  \"total_wall_seconds\": {},", json_number(total));
    out.push_str("  \"figures\": {\n");
    for (i, f) in figures.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", json_escape(f.name));
        let _ = write!(
            out,
            "      \"wall_seconds\": {}",
            json_number(f.wall_seconds)
        );
        if f.metrics.is_empty() {
            out.push('\n');
        } else {
            out.push_str(",\n      \"metrics\": {\n");
            for (j, (k, v)) in f.metrics.iter().enumerate() {
                let comma = if j + 1 < f.metrics.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        \"{}\": {}{comma}",
                    json_escape(k),
                    json_number(*v)
                );
            }
            out.push_str("      }\n");
        }
        let comma = if i + 1 < figures.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    let path = "BENCH_repro.json";
    if let Err(e) = fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[saved {path}]");
    }
}

/// A target's `BENCH_repro.json` metrics.
type Metrics = Vec<(String, f64)>;

/// Runs one target at a scale (`quick` or `full`): prints its table,
/// saves its CSV and returns its metrics.
type Target = fn(&ExperimentContext, &str) -> Metrics;

/// Every target, in run order: `all` runs them in this order, and each
/// one's record is timed around its call.
const TARGETS: [(&str, Target); 18] = [
    ("table1", run_table1),
    ("table2", run_table2),
    ("example433", run_example433),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("hints", run_hints),
    ("interleave", run_interleave),
    ("mshr", run_mshr),
    ("sched", run_sched),
    ("optgap", run_optgap),
    ("profile", run_profile),
    ("batch", run_batch),
    ("trace", run_trace),
    ("faults", run_faults),
    ("chains", run_chains),
];

fn run_table1(ctx: &ExperimentContext, _: &str) -> Metrics {
    let t = tables::table1(ctx);
    println!("{t}");
    save("table1", t.table().to_csv());
    Vec::new()
}

fn run_table2(ctx: &ExperimentContext, _: &str) -> Metrics {
    let t = tables::table2(ctx);
    println!("{t}");
    save("table2", t.table().to_csv());
    Vec::new()
}

fn run_example433(_: &ExperimentContext, _: &str) -> Metrics {
    let e = example433::example433();
    println!("{e}");
    save("example433", e.table().to_csv());
    Vec::new()
}

fn run_fig4(ctx: &ExperimentContext, _: &str) -> Metrics {
    let f = fig4::fig4(ctx);
    println!("{f}");
    save("fig4", f.table().to_csv());
    let mut m = vec![
        ("alignment_gain".into(), f.alignment_gain()),
        ("unrolling_gain".into(), f.unrolling_gain()),
    ];
    for (b, label) in fig4::BAR_LABELS.iter().enumerate() {
        m.push((format!("local_hit_amean/{label}"), f.amean[b][0]));
    }
    m
}

fn run_fig5(ctx: &ExperimentContext, _: &str) -> Metrics {
    let f = fig5::fig5(ctx);
    println!("{f}");
    save("fig5", f.table().to_csv());
    let mut m = Vec::new();
    for r in &f.rows {
        m.push((format!("stall_ibc/{}", r.bench), r.stall.0));
        m.push((format!("stall_ipbc/{}", r.bench), r.stall.1));
    }
    m
}

fn run_fig6(ctx: &ExperimentContext, _: &str) -> Metrics {
    let f = fig6::fig6(ctx);
    println!("{f}");
    save("fig6", f.table().to_csv());
    vec![
        ("remote_hit_share_ibc".into(), f.remote_hit_share(0)),
        ("remote_hit_share_ipbc".into(), f.remote_hit_share(2)),
        ("ab_reduction_ibc".into(), f.ab_reduction(0)),
        ("ab_reduction_ipbc".into(), f.ab_reduction(2)),
    ]
}

fn run_fig7(ctx: &ExperimentContext, _: &str) -> Metrics {
    let f = fig7::fig7(ctx);
    println!("{f}");
    save("fig7", f.table().to_csv());
    fig7::CONFIG_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| (format!("wb_amean/{label}"), f.amean[i]))
        .collect()
}

fn run_fig8(ctx: &ExperimentContext, _: &str) -> Metrics {
    let f = fig8::fig8(ctx);
    println!("{f}");
    save("fig8", f.table().to_csv());
    let mut m = vec![
        ("ipbc_vs_unified5".into(), f.speedup(0, 3)),
        ("ibc_vs_unified5".into(), f.speedup(1, 3)),
        ("ipbc_vs_multivliw".into(), f.vs_multivliw()),
    ];
    for r in &f.rows {
        m.push((format!("unified1_cycles/{}", r.bench), r.unified1_cycles));
        for (i, label) in fig8::BAR_LABELS.iter().enumerate() {
            m.push((
                format!("cycles/{}/{label}", r.bench),
                r.bars[i].total() * r.unified1_cycles,
            ));
        }
    }
    m
}

fn run_hints(ctx: &ExperimentContext, _: &str) -> Metrics {
    let h = hints_exp::hints_experiment(ctx);
    println!("{h}");
    save("hints", h.table().to_csv());
    let mut m = Vec::new();
    for heuristic in ["IPBC", "IBC"] {
        for entries in [8usize, 16] {
            if let Some(r) = h.reduction(heuristic, entries) {
                m.push((format!("hint_reduction/{heuristic}/{entries}"), r));
            }
        }
    }
    m
}

fn run_interleave(ctx: &ExperimentContext, _: &str) -> Metrics {
    let s = interleave_study::interleave_study(ctx);
    println!("{s}");
    save("interleave", s.table().to_csv());
    s.rows
        .iter()
        .map(|r| (format!("cycles/{}/{}B", r.bench, r.interleave), r.cycles))
        .collect()
}

fn run_mshr(ctx: &ExperimentContext, _: &str) -> Metrics {
    // in-flight request tracking summary over the Figure 6 bars, on a
    // machine with a deliberately tight MSHR budget so capacity
    // back-pressure is visible
    let mut mshr_ctx = ctx.clone();
    mshr_ctx.machine = mshr_ctx.machine.clone().with_mshrs(2);
    let res = fig6::fig6_grid().run(&mshr_ctx);
    let t = report::mshr_table(&res);
    print!("{}", t.render());
    save("mshr", t.to_csv());
    let mix = res.mshr_by_config();
    let mut m = Vec::new();
    for (c, (label, _)) in res.configs().iter().enumerate() {
        m.push((format!("fills/{label}"), mix[c][0]));
        m.push((format!("merged/{label}"), mix[c][1]));
        m.push((format!("full_stall/{label}"), mix[c][2]));
        m.push((
            format!("peak_occupancy/{label}"),
            res.mshr_peak_by_config(c) as f64,
        ));
    }
    m
}

fn run_sched(ctx: &ExperimentContext, _: &str) -> Metrics {
    // scheduler-throughput record: modulo-schedule the whole workload
    // suite under every policy, plus a memo-effectiveness probe — the
    // tracked perf trajectory of the scheduler core
    let (s, csv) = sched_record(ctx);
    save("sched", csv);
    s
}

fn run_optgap(ctx: &ExperimentContext, _: &str) -> Metrics {
    // optimality-gap study: heuristic II vs the exact branch-and-bound
    // backend under the same front-end, per policy, with cutoffs as a
    // first-class column
    let g = optgap::optgap(ctx);
    println!("{g}");
    save("optgap", g.table().to_csv());
    let mut m = vec![
        ("kernels".into(), g.n_kernels as f64),
        ("node_budget".into(), g.node_budget as f64),
        ("proven_optimal_fraction".into(), g.proven_fraction()),
    ];
    for r in &g.rows {
        // the key names the heuristic numerator, the swing backend
        let key = format!("{}/swing", r.policy);
        m.push((format!("ii_ratio/{key}"), r.mean_ratio));
        m.push((format!("proven_fraction/{key}"), r.proven_fraction()));
        m.push((format!("matched/{key}"), r.matched as f64));
        m.push((format!("better/{key}"), r.better as f64));
        m.push((format!("cutoff/{key}"), r.cutoff as f64));
        m.push((format!("cutoff_iis/{key}"), r.cutoff_iis as f64));
        m.push((format!("max_live/{key}"), r.mean_max_live));
    }
    // the backend axis end-to-end through the grid: one benchmark,
    // both backends, with the per-config quality summary rendered
    let base = RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    };
    let mut one = ctx.clone();
    one.benchmarks.truncate(1);
    let res = RunGrid::new("backend-quality")
        .config("IPBC/swing", base)
        .config("IPBC/bnb", base.with_backend(SchedBackend::ExactBnB))
        .run(&one);
    let qt = report::backend_quality_table(&res);
    print!("{}", qt.render());
    save("backend_quality", qt.to_csv());
    let q = res.quality_by_config();
    m.push(("grid_proven/bnb".into(), q[1][1] as f64));
    m.push(("grid_cutoff/bnb".into(), q[1][2] as f64));
    m
}

fn run_profile(ctx: &ExperimentContext, scale: &str) -> Metrics {
    // the measured-profile subsystem end to end: collect profiles
    // from the timing simulator, persist the versioned store, report
    // synthetic-vs-measured divergence and per-policy cycle deltas
    let p = profile_fidelity::profile_fidelity(ctx);
    println!("{p}");
    save("profile_fidelity", p.table().to_csv());
    save("profile_divergence", p.divergence_table().to_csv());
    let store_path = Path::new("results")
        .join("profiles")
        .join(format!("factor1-{scale}.profile"));
    match p.store.save(&store_path) {
        Ok(()) => println!("[saved {}]", store_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", store_path.display()),
    }
    let mut m = vec![
        ("store_loops".into(), p.store.len() as f64),
        ("skipped".into(), p.skipped as f64),
    ];
    for r in &p.divergence {
        m.push((format!("hit_delta/{}", r.bench), r.mean_hit_delta));
        m.push((format!("pref_agreement/{}", r.bench), r.pref_agreement));
        m.push((
            format!("expected_latency/{}", r.bench),
            r.mean_expected_latency,
        ));
    }
    for pd in &p.policies {
        m.push((
            format!("cycles_synthetic/{}", pd.policy),
            pd.synthetic_cycles,
        ));
        m.push((format!("cycles_measured/{}", pd.policy), pd.measured_cycles));
        m.push((
            format!("measured_delta_pct/{}", pd.policy),
            pd.measured_delta_pct(),
        ));
    }
    m
}

fn run_batch(ctx: &ExperimentContext, scale: &str) -> Metrics {
    // the scheduling-as-a-service study: drain a replicated suite
    // queue through the schedule cache cold, warm and from
    // the round-tripped on-disk store, workers claiming the
    // most expensive requests first from one shared queue
    let target_requests = if scale == "quick" { 256 } else { 10_000 };
    let b = batch::run_batch(ctx, target_requests);
    print!("{b}");
    b.metrics()
}

fn run_trace(ctx: &ExperimentContext, scale: &str) -> Metrics {
    // the instrumented pass: a deterministic logical-clock recording
    // of the whole service (cache lifecycle, prepare stages, backends,
    // batch worker, simulation windows), exported as Chrome trace JSON
    // plus a flat metrics snapshot
    let tr = trace_exp::run_trace(ctx, 1);
    print!("{tr}");
    let dir = Path::new("results").join("trace");
    let path = dir.join(format!("trace-{scale}.json"));
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, &tr.chrome_json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
    tr.metrics
}

fn run_faults(ctx: &ExperimentContext, scale: &str) -> Metrics {
    // the fault-injection audit: seeded panics, store corruption, an
    // interrupted export and budget starvation against the batch
    // workload; every fault must land in exactly one recovery counter
    // and the drain digests must stay bit-identical
    let fopts = if scale == "quick" {
        faults::FaultOptions::quick()
    } else {
        faults::FaultOptions::full()
    };
    // keep the planned panic spew out of the run log; anything
    // unplanned still prints
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let planned = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault plan:"));
        if !planned {
            default_hook(info);
        }
    }));
    let fr = faults::run_faults(ctx, &fopts);
    let _ = std::panic::take_hook();
    print!("{fr}");
    save("faults", fr.table().to_csv());
    fr.metrics()
}

fn run_chains(ctx: &ExperimentContext, _: &str) -> Metrics {
    let c = chains_exp::chain_breaking(ctx, "epicdec");
    println!("{c}");
    save("chains", c.table().to_csv());
    vec![
        ("compute_with".into(), c.compute.0),
        ("compute_without".into(), c.compute.1),
        ("stall_with".into(), c.stall.0),
        ("stall_without".into(), c.stall.1),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "full";
    let mut serial = false;
    let mut targets: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "quick" | "full" => scale = a,
            "--serial" => serial = true,
            other => targets.push(other),
        }
    }
    if targets.is_empty() {
        targets.push("all");
    }
    if let Some(bad) = targets
        .iter()
        .find(|t| **t != "all" && !TARGETS.iter().any(|(name, _)| name == *t))
    {
        let names: Vec<&str> = TARGETS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "error: unknown target '{bad}' (expected one of: all, {})",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let mut ctx = if scale == "quick" {
        ExperimentContext::quick()
    } else {
        ExperimentContext::full()
    };
    if serial {
        // every worker pool (grids, batch, faults) runs on one thread;
        // the outputs must not change (the determinism check in CI)
        ctx.workers = 1;
    }
    println!("# scale: {scale} ({} benchmarks)\n", ctx.benchmarks.len());

    let all = targets.contains(&"all");
    let records: Vec<FigureRecord> = TARGETS
        .iter()
        .filter(|(name, _)| all || targets.contains(name))
        .map(|&(name, run)| {
            let started = Instant::now();
            let metrics = run(&ctx, scale);
            FigureRecord {
                name,
                wall_seconds: started.elapsed().as_secs_f64(),
                metrics,
            }
        })
        .collect();
    write_bench_json(scale, ctx.benchmarks.len(), serial, &records);
}
