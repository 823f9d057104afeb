//! Figure 7: workload balance.
//!
//! `WB = instructions in the most loaded cluster / total instructions`,
//! weighted over loops by dynamic execution — 0.25 is perfect on four
//! clusters, 1.0 fully unbalanced. Three IPBC configurations: no
//! unrolling, OUF unrolling, and OUF without memory dependent chains.

use std::fmt;

use vliw_sched::ClusterPolicy;

use crate::context::{ExperimentContext, RunConfig, UnrollMode};
use crate::grid::RunGrid;
use crate::report::{amean, f3, Table};

/// The three configuration labels.
pub const CONFIG_LABELS: [&str; 3] = ["IPBC no unrolling", "IPBC OUF", "IPBC OUF no chains"];

/// One benchmark's workload balances.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub bench: String,
    /// WB per configuration, in [`CONFIG_LABELS`] order.
    pub wb: [f64; 3],
}

/// Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig7Row>,
    /// Mean WB per configuration.
    pub amean: [f64; 3],
}

impl Fig7 {
    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 7: workload balance (0.25 = perfect, 1.0 = unbalanced)",
            &[
                "bench",
                CONFIG_LABELS[0],
                CONFIG_LABELS[1],
                CONFIG_LABELS[2],
            ],
        );
        for r in &self.rows {
            t.row(vec![r.bench.clone(), f3(r.wb[0]), f3(r.wb[1]), f3(r.wb[2])]);
        }
        t.row(vec![
            "AMEAN".into(),
            f3(self.amean[0]),
            f3(self.amean[1]),
            f3(self.amean[2]),
        ]);
        t
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())
    }
}

/// Runs the Figure 7 experiment (parallel grid): the three IPBC configurations.
pub fn fig7(ctx: &ExperimentContext) -> Fig7 {
    let base = RunConfig::ipbc();
    let configs = [
        RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..base
        },
        RunConfig {
            unroll: UnrollMode::Ouf,
            ..base
        },
        RunConfig {
            unroll: UnrollMode::Ouf,
            policy: ClusterPolicy::NoChains,
            ..base
        },
    ];
    let mut grid = RunGrid::new("fig7");
    for (label, cfg) in CONFIG_LABELS.iter().zip(configs) {
        grid = grid.config(*label, cfg);
    }
    let result = grid.run(ctx);
    let n = ctx.machine.n_clusters();
    let mut rows = Vec::new();
    for (bench, runs) in result.by_bench() {
        let mut wb = [0.0; 3];
        for (i, run) in runs.iter().enumerate() {
            wb[i] = run.workload_balance(n);
        }
        rows.push(Fig7Row {
            bench: bench.to_string(),
            wb,
        });
    }
    let mut mean = [0.0; 3];
    for (i, m) in mean.iter_mut().enumerate() {
        *m = amean(rows.iter().map(|r| r.wb[i]));
    }
    Fig7 { rows, amean: mean }
}
