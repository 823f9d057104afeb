//! The §5.2 Attraction-Buffer hints experiment on the epicdec overflow
//! loop (19 memory instructions in one cluster).

use std::fmt;

use crate::context::{ExperimentContext, RunConfig};
use crate::grid::RunGrid;
use crate::report::Table;

/// Stall cycles of the epicdec overflow loop under every combination of
/// heuristic × buffer size × hints.
#[derive(Debug, Clone)]
pub struct HintsExperiment {
    /// Rows: `(heuristic, entries, hints on, stall cycles)`.
    pub rows: Vec<(&'static str, usize, bool, f64)>,
}

impl HintsExperiment {
    fn stall(&self, heuristic: &str, entries: usize, hints: bool) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.0 == heuristic && r.1 == entries && r.2 == hints)
            .map(|r| r.3)
    }

    /// Stall reduction from hints for a heuristic and buffer size
    /// (the paper reports 20%/32% at 8 entries, 13%/6% at 16 for
    /// IPBC/IBC).
    pub fn reduction(&self, heuristic: &str, entries: usize) -> Option<f64> {
        let off = self.stall(heuristic, entries, false)?;
        let on = self.stall(heuristic, entries, true)?;
        if off <= 0.0 {
            return Some(0.0);
        }
        Some(1.0 - on / off)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "§5.2: attractable hints on the epicdec 19-load loop",
            &["heuristic", "AB entries", "hints", "stall cycles"],
        );
        for (h, e, on, stall) in &self.rows {
            t.row(vec![
                h.to_string(),
                e.to_string(),
                if *on { "on" } else { "off" }.into(),
                crate::report::fcycles(*stall),
            ]);
        }
        t
    }
}

impl fmt::Display for HintsExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        for h in ["IPBC", "IBC"] {
            for e in [8usize, 16] {
                if let Some(r) = self.reduction(h, e) {
                    writeln!(f, "{h} {e}-entry hint reduction: {:.0}%", 100.0 * r)?;
                }
            }
        }
        Ok(())
    }
}

/// Runs the hints experiment (epicdec only): a heuristic × buffer-size ×
/// hints grid over the single overflow loop. The eight cells share two
/// schedules (one per heuristic) through the grid memo — buffers and
/// hints only affect simulation.
pub fn hints_experiment(ctx: &ExperimentContext) -> HintsExperiment {
    let mut epic = ctx.clone();
    epic.benchmarks = vec!["epicdec".into()];
    let mut model = epic.models().remove(0);
    // keep only the overflow loop: that is where hints matter
    model.loops.retain(|l| l.kernel.name == "epicdec_l19");

    let mut grid = RunGrid::new("hints");
    let mut keys: Vec<(&'static str, usize, bool)> = Vec::new();
    for (name, base) in [("IBC", RunConfig::ibc()), ("IPBC", RunConfig::ipbc())] {
        for entries in [8usize, 16] {
            for hints in [false, true] {
                let cfg = RunConfig {
                    attraction_buffers: Some((entries, 2)),
                    use_hints: hints,
                    ..base
                };
                grid = grid.config(format!("{name}/{entries}/{hints}"), cfg);
                keys.push((name, entries, hints));
            }
        }
    }
    let result = grid.run_on_models(&[model], ctx);
    let rows = keys
        .into_iter()
        .enumerate()
        .map(|(c, (name, entries, hints))| (name, entries, hints, result.cell(0, c).stall_cycles()))
        .collect();
    HintsExperiment { rows }
}
