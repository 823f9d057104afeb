//! Figure 4: memory-access classification under IPBC.
//!
//! Four bars per benchmark: (i) no unrolling + alignment, (ii) OUF without
//! alignment, (iii) OUF + alignment, (iv) OUF + alignment without memory
//! dependent chains. Each bar splits all memory accesses into local hits,
//! remote hits, local misses, remote misses and combined accesses.
//!
//! Paper headlines this reproduces: alignment raises the local hit ratio
//! (bar iii vs ii), unrolling raises it further (iii vs i) and removing
//! chains helps the chain-bound benchmarks (iv vs iii).

use std::fmt;

use vliw_sched::ClusterPolicy;

use crate::context::{ExperimentContext, RunConfig, UnrollMode};
use crate::grid::{GridResult, RunGrid};
use crate::report::{amean, f3, Table};

/// The four bar configurations, in the paper's order.
pub const BAR_LABELS: [&str; 4] = [
    "nounroll+align",
    "OUF-align",
    "OUF+align",
    "OUF+align-nochains",
];

fn bar_configs() -> [RunConfig; 4] {
    let base = RunConfig {
        attraction_buffers: None,
        ..RunConfig::ipbc()
    };
    [
        RunConfig {
            unroll: UnrollMode::NoUnroll,
            padding: true,
            ..base
        },
        RunConfig {
            unroll: UnrollMode::Ouf,
            padding: false,
            ..base
        },
        RunConfig {
            unroll: UnrollMode::Ouf,
            padding: true,
            ..base
        },
        RunConfig {
            unroll: UnrollMode::Ouf,
            padding: true,
            policy: ClusterPolicy::NoChains,
            ..base
        },
    ]
}

/// One benchmark's four bars; each bar is the normalized access mix
/// `[local hit, remote hit, local miss, remote miss, combined]`.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Benchmark name.
    pub bench: String,
    /// The four normalized bars.
    pub bars: [[f64; 5]; 4],
}

/// Figure 4 data.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig4Row>,
    /// Arithmetic mean over benchmarks, per bar.
    pub amean: [[f64; 5]; 4],
}

impl Fig4 {
    /// Local-hit-ratio gain of alignment (bar iii − bar ii), AMEAN.
    pub fn alignment_gain(&self) -> f64 {
        self.amean[2][0] - self.amean[1][0]
    }

    /// Local-hit-ratio gain of unrolling (bar iii − bar i), AMEAN.
    pub fn unrolling_gain(&self) -> f64 {
        self.amean[2][0] - self.amean[0][0]
    }

    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 4: memory access classification (IPBC)",
            &[
                "bench",
                "bar",
                "local hit",
                "remote hit",
                "local miss",
                "remote miss",
                "combined",
            ],
        );
        for r in &self.rows {
            for (b, bar) in r.bars.iter().enumerate() {
                t.row(vec![
                    r.bench.clone(),
                    BAR_LABELS[b].into(),
                    f3(bar[0]),
                    f3(bar[1]),
                    f3(bar[2]),
                    f3(bar[3]),
                    f3(bar[4]),
                ]);
            }
        }
        for (b, bar) in self.amean.iter().enumerate() {
            t.row(vec![
                "AMEAN".into(),
                BAR_LABELS[b].into(),
                f3(bar[0]),
                f3(bar[1]),
                f3(bar[2]),
                f3(bar[3]),
                f3(bar[4]),
            ]);
        }
        t
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "local-hit gain: alignment (iii-ii) = {:+.1}pp, unrolling (iii-i) = {:+.1}pp",
            100.0 * self.alignment_gain(),
            100.0 * self.unrolling_gain()
        )
    }
}

/// The Figure 4 grid: the four bar configurations over the context's
/// benchmarks.
pub fn fig4_grid() -> RunGrid {
    let mut grid = RunGrid::new("fig4");
    for (label, cfg) in BAR_LABELS.iter().zip(bar_configs()) {
        grid = grid.config(*label, cfg);
    }
    grid
}

/// Runs the Figure 4 experiment (parallel grid).
pub fn fig4(ctx: &ExperimentContext) -> Fig4 {
    fig4_from(&fig4_grid().run(ctx))
}

/// Aggregates Figure 4 from an executed grid.
pub fn fig4_from(result: &GridResult) -> Fig4 {
    let mut rows = Vec::new();
    for (bench, runs) in result.by_bench() {
        let mut bars = [[0.0; 5]; 4];
        for (b, run) in runs.iter().enumerate() {
            let mix = run.access_mix();
            let total: f64 = mix.iter().sum();
            if total > 0.0 {
                for (i, v) in mix.iter().enumerate() {
                    bars[b][i] = v / total;
                }
            }
        }
        rows.push(Fig4Row {
            bench: bench.to_string(),
            bars,
        });
    }
    let mut mean = [[0.0; 5]; 4];
    for (b, row) in mean.iter_mut().enumerate() {
        for (i, cell) in row.iter_mut().enumerate() {
            *cell = amean(rows.iter().map(|r| r.bars[b][i]));
        }
    }
    Fig4 { rows, amean: mean }
}
