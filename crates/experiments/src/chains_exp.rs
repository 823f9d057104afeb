//! The §5.4 chain-breaking study: epicdec with and without memory
//! dependent chains.
//!
//! The paper's further-work section measures loop versions without chains
//! (guarded by runtime checks): tighter schedules (compute time −67% in a
//! main loop), fewer remote accesses, better Attraction-Buffer usage. This
//! experiment compares IPBC against the chain-less ablation on epicdec.

use std::fmt;

use vliw_sched::ClusterPolicy;

use crate::context::{ExperimentContext, RunConfig};
use crate::grid::RunGrid;
use crate::report::{f3, fcycles, Table};

/// Chain-breaking results for one benchmark.
#[derive(Debug, Clone)]
pub struct ChainBreaking {
    /// Benchmark name.
    pub bench: String,
    /// `(with chains, without chains)` compute cycles.
    pub compute: (f64, f64),
    /// `(with, without)` stall cycles.
    pub stall: (f64, f64),
    /// `(with, without)` remote accesses (scaled counts).
    pub remote: (f64, f64),
    /// Largest per-loop compute reduction (the paper's "one of the main
    /// loops" −67% datum).
    pub best_loop_compute_reduction: f64,
}

impl ChainBreaking {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("§5.4: breaking memory dependent chains ({})", self.bench),
            &["metric", "with chains", "no chains", "reduction"],
        );
        let mut row = |name: &str, a: f64, b: f64| {
            let red = if a > 0.0 { 1.0 - b / a } else { 0.0 };
            t.row(vec![
                name.into(),
                fcycles(a),
                fcycles(b),
                format!("{:.0}%", 100.0 * red),
            ]);
        };
        row("compute cycles", self.compute.0, self.compute.1);
        row("stall cycles", self.stall.0, self.stall.1);
        row("remote accesses", self.remote.0, self.remote.1);
        t
    }
}

impl fmt::Display for ChainBreaking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "largest per-loop compute reduction: {} (paper: 67% in one main loop)",
            f3(self.best_loop_compute_reduction)
        )
    }
}

/// Runs the chain-breaking study on `bench` (the paper uses epicdec).
pub fn chain_breaking(ctx: &ExperimentContext, bench: &str) -> ChainBreaking {
    let mut one = ctx.clone();
    one.benchmarks = vec![bench.to_string()];
    let result = RunGrid::new("chains")
        .config("with-chains", RunConfig::ipbc().with_buffers())
        .config(
            "no-chains",
            RunConfig {
                policy: ClusterPolicy::NoChains,
                ..RunConfig::ipbc().with_buffers()
            },
        )
        .run(&one);
    let (with, without) = (result.cell(0, 0), result.cell(0, 1));
    let remote = |run: &crate::context::BenchRun| {
        let mix = run.access_mix();
        mix[1] + mix[3]
    };
    let mut best = 0.0f64;
    for (a, b) in with.loops.iter().zip(&without.loops) {
        if a.sim.compute_cycles > 0.0 {
            best = best.max(1.0 - b.sim.compute_cycles / a.sim.compute_cycles);
        }
    }
    ChainBreaking {
        bench: bench.to_string(),
        compute: (with.compute_cycles(), without.compute_cycles()),
        stall: (with.stall_cycles(), without.stall_cycles()),
        remote: (remote(with), remote(without)),
        best_loop_compute_reduction: best,
    }
}
