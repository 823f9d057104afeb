//! Full-pipeline integration: synthesis → profiling → unrolling →
//! scheduling → simulation, across crates, plus figure-driver structure.

use interleaved_vliw::experiments::{
    fig4, fig7, run_benchmark_memo, tables, ExperimentContext, RunConfig,
};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::workloads::{suite, SUITE_NAMES};

fn tiny_ctx(benches: &[&str]) -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = benches.iter().map(|s| s.to_string()).collect();
    ctx.sim.iteration_cap = 48;
    ctx.sim.warmup_iterations = 48;
    ctx.profile.iteration_cap = 48;
    ctx
}

#[test]
fn suite_matches_table1_identity() {
    assert_eq!(suite().len(), SUITE_NAMES.len());
    let ctx = tiny_ctx(&["gsmdec", "mpeg2dec"]);
    let t1 = tables::table1(&ctx);
    // the synthesized dominant-granularity share lands near the paper's
    let m = t1.measured_share("gsmdec").unwrap();
    assert!(m > 0.7, "gsmdec 2-byte share {m}");
    let m = t1.measured_share("mpeg2dec").unwrap();
    assert!(m > 0.2, "mpeg2dec 8-byte share {m}");
}

#[test]
fn table2_mentions_every_parameter() {
    let ctx = ExperimentContext::full();
    let s = tables::table2(&ctx).to_string();
    for needle in [
        "number of clusters",
        "8 KB total",
        "interleaving factor",
        "4 bytes",
        "1/2 core frequency",
    ] {
        assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
    }
}

#[test]
fn benchmark_run_produces_consistent_aggregates() {
    let ctx = tiny_ctx(&["g721enc"]);
    let model = &ctx.models()[0];
    let run = run_benchmark_memo(model, &RunConfig::ipbc().with_buffers(), &ctx, None);
    assert_eq!(run.loops.len(), model.loops.len());
    assert!(run.total_cycles() > 0.0);
    assert!((run.total_cycles() - run.compute_cycles() - run.stall_cycles()).abs() < 1e-6);
    // access mix covers every memory op of every simulated iteration
    let mix = run.access_mix();
    assert!(mix.iter().all(|&x| x >= 0.0));
    assert!(mix.iter().sum::<f64>() > 0.0);
    // the stall breakdown never exceeds total stall
    assert!(run.stall_breakdown().total() <= run.stall_cycles() + 1e-6);
    let n = ctx.machine.n_clusters();
    let wb = run.workload_balance(n);
    assert!((1.0 / n as f64..=1.0).contains(&wb), "wb = {wb}");
}

#[test]
fn fig4_rows_are_normalized_distributions() {
    let ctx = tiny_ctx(&["gsmenc"]);
    let f = fig4::fig4(&ctx);
    assert_eq!(f.rows.len(), 1);
    for bar in &f.rows[0].bars {
        let sum: f64 = bar.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "bar sums to {sum}");
        assert!(bar.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
    // rendering works and includes the benchmark
    let text = f.to_string();
    assert!(text.contains("gsmenc"));
    assert!(f.table().to_csv().lines().count() >= 6);
}

#[test]
fn fig7_balance_within_bounds() {
    let ctx = tiny_ctx(&["pegwitenc"]);
    let f = fig7::fig7(&ctx);
    for r in &f.rows {
        for &wb in &r.wb {
            assert!((0.25..=1.0).contains(&wb), "{}: wb {wb}", r.bench);
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let ctx = tiny_ctx(&["jpegdec"]);
    let model = &ctx.models()[0];
    let a = run_benchmark_memo(model, &RunConfig::ipbc(), &ctx, None);
    let b = run_benchmark_memo(model, &RunConfig::ipbc(), &ctx, None);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.access_mix(), b.access_mix());
}

#[test]
fn machine_variants_validate() {
    for m in [
        MachineConfig::word_interleaved_4(),
        MachineConfig::word_interleaved_4().with_attraction_buffers(16, 2),
        MachineConfig::multi_vliw_4(),
        MachineConfig::unified_4(1),
        MachineConfig::unified_4(5),
        MachineConfig::word_interleaved(2),
    ] {
        m.validate().expect("preset machines are valid");
    }
}
