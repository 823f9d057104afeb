//! Figure 8: cycle counts across architectures.
//!
//! Four bars per benchmark, all normalized to a unified cache with 5 ports
//! at an optimistic 1-cycle latency:
//!
//! 1. word-interleaved, IPBC + 16-entry Attraction Buffers;
//! 2. word-interleaved, IBC + 16-entry Attraction Buffers;
//! 3. multiVLIW (coherent caches), scheduled with IBC;
//! 4. unified cache at a realistic 5-cycle latency (BASE).
//!
//! Each bar splits into compute time and stall time. Paper headlines: the
//! interleaved organization is ~7% behind the multiVLIW, 5%/10% ahead of
//! unified L=5 (IPBC/IBC) and 18%/11% behind the optimistic unified L=1.

use std::fmt;

use crate::context::{ExperimentContext, RunConfig};
use crate::grid::RunGrid;
use crate::report::{amean, f3, Table};

/// The bar labels, in the paper's order.
pub const BAR_LABELS: [&str; 4] = ["IPBC", "IBC", "MultiVLIW", "Unified(L=5)"];

/// One normalized cycle-count bar.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleBar {
    /// Compute (schedule-determined) cycles / unified-L1 total.
    pub compute: f64,
    /// Stall cycles / unified-L1 total.
    pub stall: f64,
}

impl CycleBar {
    /// Total normalized height.
    pub fn total(&self) -> f64 {
        self.compute + self.stall
    }
}

/// One benchmark's bars.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub bench: String,
    /// Bars in [`BAR_LABELS`] order.
    pub bars: [CycleBar; 4],
    /// Absolute cycles of the unified-L=1 normalizer.
    pub unified1_cycles: f64,
}

/// Figure 8 data.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig8Row>,
    /// Mean bars.
    pub amean: [CycleBar; 4],
}

impl Fig8 {
    /// Mean speedup of bar `a` over bar `b` (`total_b / total_a − 1`).
    pub fn speedup(&self, a: usize, b: usize) -> f64 {
        amean(
            self.rows
                .iter()
                .map(|r| r.bars[b].total() / r.bars[a].total()),
        ) - 1.0
    }

    /// Mean slowdown of bar `a` versus the unified-L=1 baseline
    /// (`total_a − 1`, since bars are normalized to that baseline).
    pub(crate) fn slowdown_vs_unified1(&self, a: usize) -> f64 {
        amean(self.rows.iter().map(|r| r.bars[a].total())) - 1.0
    }

    /// Mean cycle-count degradation of the interleaved IPBC bar versus the
    /// multiVLIW bar.
    pub fn vs_multivliw(&self) -> f64 {
        amean(
            self.rows
                .iter()
                .map(|r| r.bars[0].total() / r.bars[2].total()),
        ) - 1.0
    }

    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 8: cycle counts normalized to unified (5 ports, 1-cycle)",
            &["bench", "bar", "compute", "stall", "total"],
        );
        let mut push = |name: &str, label: &str, b: &CycleBar| {
            t.row(vec![
                name.into(),
                label.into(),
                f3(b.compute),
                f3(b.stall),
                f3(b.total()),
            ]);
        };
        for r in &self.rows {
            for (i, b) in r.bars.iter().enumerate() {
                push(&r.bench, BAR_LABELS[i], b);
            }
        }
        for (i, b) in self.amean.iter().enumerate() {
            push("AMEAN", BAR_LABELS[i], b);
        }
        t
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "IPBC vs unified(L=5): {:+.1}%  IBC vs unified(L=5): {:+.1}%  IPBC vs multiVLIW: {:+.1}%  \
             vs unified(L=1): IPBC {:+.1}%, IBC {:+.1}%",
            100.0 * self.speedup(0, 3),
            100.0 * self.speedup(1, 3),
            100.0 * self.vs_multivliw(),
            100.0 * self.slowdown_vs_unified1(0),
            100.0 * self.slowdown_vs_unified1(1),
        )
    }
}

/// Runs the Figure 8 experiment (parallel grid): the four bars plus the
/// unified-L=1 normalizer as a fifth column.
pub fn fig8(ctx: &ExperimentContext) -> Fig8 {
    let configs = [
        RunConfig::ipbc().with_buffers(),
        RunConfig::ibc().with_buffers(),
        RunConfig::multivliw(),
        RunConfig::unified(5),
    ];
    let mut grid = RunGrid::new("fig8");
    for (label, cfg) in BAR_LABELS.iter().zip(configs) {
        grid = grid.config(*label, cfg);
    }
    let result = grid.config("Unified(L=1)", RunConfig::unified(1)).run(ctx);
    let mut rows = Vec::new();
    for (bench, runs) in result.by_bench() {
        let baseline = &runs[4];
        let norm = baseline.total_cycles().max(1.0);
        let mut bars = [CycleBar::default(); 4];
        for (i, run) in runs[..4].iter().enumerate() {
            bars[i] = CycleBar {
                compute: run.compute_cycles() / norm,
                stall: run.stall_cycles() / norm,
            };
        }
        rows.push(Fig8Row {
            bench: bench.to_string(),
            bars,
            unified1_cycles: norm,
        });
    }
    let mut mean = [CycleBar::default(); 4];
    for (i, m) in mean.iter_mut().enumerate() {
        m.compute = amean(rows.iter().map(|r| r.bars[i].compute));
        m.stall = amean(rows.iter().map(|r| r.bars[i].stall));
    }
    Fig8 { rows, amean: mean }
}
