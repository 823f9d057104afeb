//! §5.1's interleaving-factor remark, made quantitative.
//!
//! The paper fixes the interleaving factor at 4 bytes because 4-byte words
//! dominate the suite, and remarks that "if a processor is to be built for
//! the gsm family of applications, a 2-byte interleaving factor would match
//! better the applications' characteristics". This study runs selected
//! benchmarks under both factors and reports the local-hit ratio and cycle
//! count each gets.

use std::fmt;

use crate::context::{ExperimentContext, RunConfig};
use crate::grid::RunGrid;
use crate::report::{f3, Table};

/// One benchmark × interleave-factor measurement.
#[derive(Debug, Clone)]
pub struct InterleaveRow {
    /// Benchmark name.
    pub bench: String,
    /// Interleave factor in bytes.
    pub interleave: usize,
    /// Local-hit fraction of all accesses.
    pub local_hits: f64,
    /// Total cycles (scaled).
    pub cycles: f64,
}

/// The study's results.
#[derive(Debug, Clone)]
pub struct InterleaveStudy {
    /// All rows, grouped by benchmark.
    pub rows: Vec<InterleaveRow>,
}

impl InterleaveStudy {
    /// The cycle improvement of `bytes`-interleaving over the baseline
    /// 4-byte factor for `bench` (positive = faster).
    pub(crate) fn improvement(&self, bench: &str, bytes: usize) -> Option<f64> {
        let at = |i: usize| {
            self.rows
                .iter()
                .find(|r| r.bench == bench && r.interleave == i)
                .map(|r| r.cycles)
        };
        Some(at(4)? / at(bytes)? - 1.0)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "§5.1: interleaving-factor study (gsm prefers 2-byte interleaving)",
            &["bench", "interleave", "local hits", "cycles"],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                format!("{} B", r.interleave),
                f3(r.local_hits),
                crate::report::fcycles(r.cycles),
            ]);
        }
        t
    }
}

impl fmt::Display for InterleaveStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        for bench in ["gsmdec", "gsmenc", "pgpdec"] {
            if let Some(imp) = self.improvement(bench, 2) {
                writeln!(
                    f,
                    "{bench}: 2-byte interleaving is {:+.1}% vs 4-byte",
                    100.0 * imp
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the study over the gsm pair (2-byte data) and a 4-byte control.
///
/// Each interleave factor is a *machine* variant, not a `RunConfig` axis,
/// so the study executes one [`RunGrid`] per factor (the grid memoizes and
/// parallelizes within a factor; machine geometry is part of the context).
pub fn interleave_study(ctx: &ExperimentContext) -> InterleaveStudy {
    let mut gsm = ctx.clone();
    gsm.benchmarks = ["gsmdec", "gsmenc", "pgpdec"].map(String::from).to_vec();
    let grid = RunGrid::new("interleave").config("IPBC+AB", RunConfig::ipbc().with_buffers());
    let mut rows = Vec::new();
    for interleave in [2usize, 4] {
        let mut variant = gsm.clone();
        variant.machine.cache.interleave_bytes = interleave;
        variant.machine.validate().expect("geometry stays valid");
        let result = grid.run(&variant);
        for (bench, runs) in result.by_bench() {
            let run = &runs[0];
            let mix = run.access_mix();
            let total: f64 = mix.iter().sum();
            rows.push(InterleaveRow {
                bench: bench.to_string(),
                interleave,
                local_hits: if total > 0.0 { mix[0] / total } else { 0.0 },
                cycles: run.total_cycles(),
            });
        }
    }
    rows.sort_by(|a, b| a.bench.cmp(&b.bench).then(a.interleave.cmp(&b.interleave)));
    InterleaveStudy { rows }
}
