//! Figure 6: stall time by access type, with and without Attraction
//! Buffers.
//!
//! Four bars per benchmark — IBC, IBC+AB, IPBC, IPBC+AB (16-entry 2-way
//! buffers, selective unrolling) — normalized to the first bar. Stall time
//! splits into remote-hit, local-miss, remote-miss and combined components
//! (local hits never cause class stalls; the rare copy-timing residue is
//! reported in the `other` column for honesty).
//!
//! Paper headlines: remote hits cause ~76% (IBC) / ~72% (IPBC) of stall;
//! Attraction Buffers cut stall by ~34% / ~29%.

use std::fmt;

use vliw_machine::AccessClass;

use crate::context::{ExperimentContext, RunConfig};
use crate::grid::{GridResult, RunGrid};
use crate::report::{amean, f3, Table};

/// The four bar labels.
pub const BAR_LABELS: [&str; 4] = ["IBC", "IBC+AB", "IPBC", "IPBC+AB"];

/// One stall bar: components normalized to the benchmark's first bar.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallBar {
    /// Remote-hit stall share.
    pub remote_hit: f64,
    /// Local-miss stall share.
    pub local_miss: f64,
    /// Remote-miss stall share.
    pub remote_miss: f64,
    /// Combined-access stall share.
    pub combined: f64,
    /// Copy/local/MSHR-back-pressure residue (not part of the paper's
    /// four categories).
    pub other: f64,
}

impl StallBar {
    /// Total bar height.
    pub fn total(&self) -> f64 {
        self.remote_hit + self.local_miss + self.remote_miss + self.combined + self.other
    }
}

/// One benchmark's four bars.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub bench: String,
    /// Bars in [`BAR_LABELS`] order, normalized to the IBC bar's stall.
    pub bars: [StallBar; 4],
}

/// Figure 6 data.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig6Row>,
    /// Arithmetic-mean bars.
    pub amean: [StallBar; 4],
}

impl Fig6 {
    /// Remote-hit share of stall time for a no-buffer bar
    /// (0 = IBC, 2 = IPBC), AMEAN over benchmarks with stall.
    pub fn remote_hit_share(&self, bar: usize) -> f64 {
        amean(
            self.rows
                .iter()
                .filter(|r| r.bars[bar].total() > 0.0)
                .map(|r| {
                    let b = &r.bars[bar];
                    b.remote_hit / b.total()
                }),
        )
    }

    /// Average stall reduction of Attraction Buffers for a heuristic
    /// (`0` = IBC bar pair, `2` = IPBC bar pair).
    pub fn ab_reduction(&self, no_ab_bar: usize) -> f64 {
        amean(
            self.rows
                .iter()
                .filter(|r| r.bars[no_ab_bar].total() > 1e-9)
                .map(|r| 1.0 - r.bars[no_ab_bar + 1].total() / r.bars[no_ab_bar].total()),
        )
    }

    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: stall time by access type (normalized to IBC)",
            &[
                "bench",
                "bar",
                "remote hit",
                "local miss",
                "remote miss",
                "combined",
                "other",
                "total",
            ],
        );
        let mut push = |name: &str, label: &str, b: &StallBar| {
            t.row(vec![
                name.into(),
                label.into(),
                f3(b.remote_hit),
                f3(b.local_miss),
                f3(b.remote_miss),
                f3(b.combined),
                f3(b.other),
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

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "remote-hit share of stall: IBC {:.0}%, IPBC {:.0}%; AB stall reduction: IBC {:.0}%, IPBC {:.0}%",
            100.0 * self.remote_hit_share(0),
            100.0 * self.remote_hit_share(2),
            100.0 * self.ab_reduction(0),
            100.0 * self.ab_reduction(2),
        )
    }
}

/// The Figure 6 grid: IBC and IPBC, each with and without 16-entry 2-way
/// Attraction Buffers. The buffer axis shares schedules through the grid
/// memo — only the simulation differs between the paired bars.
pub fn fig6_grid() -> RunGrid {
    let configs = [
        RunConfig::ibc(),
        RunConfig::ibc().with_buffers(),
        RunConfig::ipbc(),
        RunConfig::ipbc().with_buffers(),
    ];
    let mut grid = RunGrid::new("fig6");
    for (label, cfg) in BAR_LABELS.iter().zip(configs) {
        grid = grid.config(*label, cfg);
    }
    grid
}

/// Runs the Figure 6 experiment (parallel grid).
pub fn fig6(ctx: &ExperimentContext) -> Fig6 {
    fig6_from(&fig6_grid().run(ctx))
}

/// Aggregates Figure 6 from an executed grid.
fn fig6_from(result: &GridResult) -> Fig6 {
    let mut rows = Vec::new();
    for (bench, runs) in result.by_bench() {
        let mut bars = [StallBar::default(); 4];
        let mut ibc_total = 0.0;
        for (i, run) in runs.iter().enumerate() {
            let b = run.stall_breakdown();
            let bar = StallBar {
                remote_hit: b.of(AccessClass::RemoteHit),
                local_miss: b.of(AccessClass::LocalMiss),
                remote_miss: b.of(AccessClass::RemoteMiss),
                combined: b.combined,
                other: b.of(AccessClass::LocalHit) + b.mshr_full,
            };
            if i == 0 {
                ibc_total = bar.total();
            }
            bars[i] = bar;
        }
        // normalize all four bars to the IBC total
        if ibc_total > 0.0 {
            for b in &mut bars {
                b.remote_hit /= ibc_total;
                b.local_miss /= ibc_total;
                b.remote_miss /= ibc_total;
                b.combined /= ibc_total;
                b.other /= ibc_total;
            }
        }
        rows.push(Fig6Row {
            bench: bench.to_string(),
            bars,
        });
    }
    let mut mean = [StallBar::default(); 4];
    for (i, m) in mean.iter_mut().enumerate() {
        m.remote_hit = amean(rows.iter().map(|r| r.bars[i].remote_hit));
        m.local_miss = amean(rows.iter().map(|r| r.bars[i].local_miss));
        m.remote_miss = amean(rows.iter().map(|r| r.bars[i].remote_miss));
        m.combined = amean(rows.iter().map(|r| r.bars[i].combined));
        m.other = amean(rows.iter().map(|r| r.bars[i].other));
    }
    Fig6 { rows, amean: mean }
}
