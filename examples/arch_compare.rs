//! Compare the three cache organizations on one benchmark — a single-row
//! slice of the paper's Figure 8.
//!
//! Run with `cargo run --release --example arch_compare [benchmark]`
//! (default: gsmdec).

use interleaved_vliw::experiments::{run_benchmark_memo, ExperimentContext, RunConfig};
use interleaved_vliw::workloads::{spec_by_name, synthesize};

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "gsmdec".into());
    let ctx = ExperimentContext::full();
    let spec = spec_by_name(&bench).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark `{bench}`; available: {:?}",
            interleaved_vliw::workloads::SUITE_NAMES
        );
        std::process::exit(1);
    });
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    println!(
        "benchmark {bench}: {} modulo-scheduled loops\n",
        model.loops.len()
    );

    let configs: [(&str, RunConfig); 5] = [
        (
            "word-interleaved IPBC + AB",
            RunConfig::ipbc().with_buffers(),
        ),
        ("word-interleaved IBC + AB", RunConfig::ibc().with_buffers()),
        ("multiVLIW (coherent)", RunConfig::multivliw()),
        ("unified cache, 5-cycle", RunConfig::unified(5)),
        ("unified cache, 1-cycle", RunConfig::unified(1)),
    ];

    let mut baseline = None;
    println!(
        "{:28} {:>12} {:>12} {:>12} {:>10}",
        "architecture", "compute", "stall", "total", "vs uni-1"
    );
    let mut rows = Vec::new();
    for (name, cfg) in configs {
        let run = run_benchmark_memo(&model, &cfg, &ctx, None);
        rows.push((
            name,
            run.compute_cycles(),
            run.stall_cycles(),
            run.total_cycles(),
        ));
        if name.starts_with("unified cache, 1") {
            baseline = Some(run.total_cycles());
        }
    }
    let base = baseline.expect("baseline present");
    for (name, compute, stall, total) in rows {
        println!(
            "{:28} {:>12.0} {:>12.0} {:>12.0} {:>9.2}x",
            name,
            compute,
            stall,
            total,
            total / base
        );
    }
}
