//! Sweep the Attraction Buffer geometry on a remote-heavy benchmark and
//! watch stall time fall — the design space behind the paper's fixed
//! 16-entry choice (§3 and Figure 6).
//!
//! Run with `cargo run --release --example attraction_buffer_tuning`.

use interleaved_vliw::experiments::{run_benchmark_memo, ExperimentContext, RunConfig};
use interleaved_vliw::machine::AccessClass;
use interleaved_vliw::workloads::{spec_by_name, synthesize};

fn main() {
    let ctx = ExperimentContext::full();
    let spec = spec_by_name("epicdec").expect("epicdec in suite");
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);

    println!("epicdec under IPBC, sweeping buffer entries (2-way associative):\n");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "entries", "stall", "remote-hit st.", "vs no buffer"
    );

    let mut base = None;
    for entries in [0usize, 4, 8, 16, 32, 64] {
        let cfg = if entries == 0 {
            RunConfig::ipbc()
        } else {
            RunConfig {
                attraction_buffers: Some((entries, 2)),
                ..RunConfig::ipbc()
            }
        };
        let run = run_benchmark_memo(&model, &cfg, &ctx, None);
        let stall = run.stall_cycles();
        let rh = run.stall_breakdown().of(AccessClass::RemoteHit);
        if entries == 0 {
            base = Some(stall);
        }
        let rel = stall / base.expect("base set first");
        println!(
            "{:>10} {:>12.0} {:>14.0} {:>13.2}x",
            entries, stall, rh, rel
        );
    }
    println!(
        "\nThe paper's 16-entry buffers cut average stall by 34%/29% (IBC/IPBC, Figure 6);\n\
         epicdec benefits less because one loop's 19 memory instructions overflow the\n\
         buffer (§5.2) — see `repro hints` for the compiler-hint fix."
    );
}
