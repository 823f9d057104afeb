//! Qualitative paper claims, checked end to end on a reduced context.
//!
//! These tests assert *directions and orderings* the paper reports, not
//! absolute numbers (the substrate is a synthetic suite — see
//! EXPERIMENTS.md for the full-scale magnitude comparison).

use interleaved_vliw::experiments::{run_benchmark_memo, ExperimentContext, RunConfig, UnrollMode};
use interleaved_vliw::sched::ClusterPolicy;
use interleaved_vliw::workloads::{spec_by_name, synthesize};

fn small_ctx(benches: &[&str]) -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = benches.iter().map(|s| s.to_string()).collect();
    ctx.sim.iteration_cap = 64;
    ctx.sim.warmup_iterations = 64;
    ctx.profile.iteration_cap = 64;
    ctx
}

/// §5.2 / Figure 4: OUF unrolling raises the local hit ratio over no
/// unrolling (both aligned), and alignment raises it over no alignment.
#[test]
fn unrolling_and_alignment_raise_local_hits() {
    let ctx = small_ctx(&["gsmdec"]);
    let spec = spec_by_name("gsmdec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let base = RunConfig::ipbc();
    let mix = |cfg: &RunConfig| {
        let m = run_benchmark_memo(&model, cfg, &ctx, None).access_mix();
        let t: f64 = m.iter().sum();
        m[0] / t
    };
    let no_unroll = mix(&RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..base
    });
    let ouf_noalign = mix(&RunConfig {
        unroll: UnrollMode::Ouf,
        padding: false,
        ..base
    });
    let ouf_align = mix(&RunConfig {
        unroll: UnrollMode::Ouf,
        ..base
    });
    assert!(
        ouf_align > no_unroll + 0.05,
        "unrolling gain: {ouf_align:.3} vs {no_unroll:.3}"
    );
    assert!(
        ouf_align > ouf_noalign + 0.02,
        "alignment gain: {ouf_align:.3} vs {ouf_noalign:.3}"
    );
}

/// Figure 6: Attraction Buffers reduce stall time.
#[test]
fn attraction_buffers_reduce_stall() {
    let ctx = small_ctx(&["gsmdec"]);
    let spec = spec_by_name("gsmdec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let without = run_benchmark_memo(&model, &RunConfig::ipbc(), &ctx, None).stall_cycles();
    let with =
        run_benchmark_memo(&model, &RunConfig::ipbc().with_buffers(), &ctx, None).stall_cycles();
    assert!(
        with <= without,
        "AB must not increase stall: {with} vs {without}"
    );
    if without > 1000.0 {
        assert!(with < without, "AB reduces nontrivial stall");
    }
}

/// §5.3 / Figure 8: IPBC trades compute time for stall time relative to
/// IBC ("compute time is bigger when IPBC is used while stall time is
/// bigger for IBC").
#[test]
fn ipbc_trades_compute_for_stall_against_ibc() {
    let ctx = small_ctx(&["jpegenc", "gsmdec"]);
    let (mut ipbc_stall, mut ibc_stall) = (0.0, 0.0);
    for model in ctx.models() {
        ipbc_stall += run_benchmark_memo(&model, &RunConfig::ipbc(), &ctx, None).stall_cycles();
        ibc_stall += run_benchmark_memo(&model, &RunConfig::ibc(), &ctx, None).stall_cycles();
    }
    assert!(
        ibc_stall > ipbc_stall,
        "IBC ignores preferences, so it must stall more: IBC {ibc_stall:.0} vs IPBC {ipbc_stall:.0}"
    );
}

/// Figure 7: dropping the chain constraint can only improve (or keep)
/// workload balance, and unrolling improves it.
#[test]
fn chains_and_unrolling_affect_balance_as_reported() {
    let ctx = small_ctx(&["epicdec"]);
    let spec = spec_by_name("epicdec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let n = ctx.machine.n_clusters();
    let base = RunConfig::ipbc();
    let wb = |cfg: &RunConfig| run_benchmark_memo(&model, cfg, &ctx, None).workload_balance(n);
    let with_chains = wb(&RunConfig {
        unroll: UnrollMode::Ouf,
        ..base
    });
    let without_chains = wb(&RunConfig {
        unroll: UnrollMode::Ouf,
        policy: ClusterPolicy::NoChains,
        ..base
    });
    assert!(
        without_chains <= with_chains + 0.02,
        "chains can only hurt balance: {without_chains:.3} vs {with_chains:.3}"
    );
}

/// The unified cache at 1 cycle (optimistic) beats the realistic 5-cycle
/// configuration — sanity anchor for the Figure 8 normalization.
#[test]
fn unified_one_cycle_beats_five_cycle() {
    let ctx = small_ctx(&["g721enc"]);
    let spec = spec_by_name("g721enc").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let u1 = run_benchmark_memo(&model, &RunConfig::unified(1), &ctx, None).total_cycles();
    let u5 = run_benchmark_memo(&model, &RunConfig::unified(5), &ctx, None).total_cycles();
    assert!(u1 < u5, "u1 {u1:.0} vs u5 {u5:.0}");
}

/// The §4.3.3 worked example reproduces the paper's numbers exactly.
#[test]
fn worked_example_matches_paper() {
    let e = interleaved_vliw::experiments::example433::example433();
    assert_eq!(e.mii, 8);
    assert_eq!(e.final_latencies, (4, 1, 1));
    assert_eq!(e.ipbc_ii, 8);
    assert_eq!(e.ipbc_clusters, (0, 1));
}
