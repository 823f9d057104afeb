//! The optimality-gap study: how far from optimal are the paper's
//! heuristics?
//!
//! For every factor-1 loop of the context's suite and every §4 cluster
//! policy, this driver schedules the loop twice under the *same*
//! front-end (pins, latency assignment, MII, SMS order): once with the
//! heuristic [`SwingModulo`](vliw_sched::SchedBackend::SwingModulo)
//! pipeline and once with the exact
//! [`ExactBnB`](vliw_sched::SchedBackend::ExactBnB) branch-and-bound
//! reference. Because the exact search is seeded with the heuristic
//! incumbent and only explores strictly smaller IIs, its result is never
//! worse — the ratio `heuristic II / exact II` is a per-loop optimality
//! gap, and a [`SchedQuality::ProvenOptimal`] outcome turns "the
//! heuristic looks good" into "the heuristic is provably ≤ x from
//! optimal on this loop".
//!
//! Cutoffs (the exact search's node budget running out before the
//! smaller IIs are decided) are counted per policy and reported in their
//! own column — a cell that cut off contributes no ratio and no proof,
//! visibly.
//!
//! `repro [quick|full] optgap` prints the table, writes
//! `results/optgap.csv` and records the per-policy ratios and
//! proven-optimal fractions into the `optgap` section of
//! `BENCH_repro.json`.

use std::fmt;

use crate::context::{profiled, ExperimentContext};
use crate::report::{f3, Table};
use vliw_ir::LoopKernel;
use vliw_sched::{
    schedule_outcome, ClusterPolicy, SchedBackend, SchedQuality, ScheduleOptions,
    DEFAULT_NODE_BUDGET,
};

/// One policy's aggregate over the factor-1 suite kernels.
#[derive(Debug, Clone)]
pub struct OptGapRow {
    /// Policy name (`IPBC`, `IBC`, `BASE`, `no-chains`).
    pub policy: &'static str,
    /// Kernels the heuristic scheduled (the cell population).
    pub kernels: usize,
    /// Cells where the exact backend proved the optimal II.
    pub proven: usize,
    /// Cells where the node budget cut the proof off (feasible schedule,
    /// no optimality claim).
    pub cutoff: usize,
    /// Cells where the exact search beat the heuristic II outright.
    pub better: usize,
    /// Cells (among `proven`) where the heuristic already achieved the
    /// optimal II.
    pub matched: usize,
    /// Arithmetic mean of `heuristic II / optimal II` over proven cells
    /// (`NaN` when nothing was proven).
    pub mean_ratio: f64,
    /// Total II levels at which the exact search hit its budget.
    pub cutoff_iis: u64,
    /// Arithmetic mean of the exact backend's reported MaxLive
    /// ([`ScheduleOutcome::max_live`](vliw_sched::ScheduleOutcome)) over
    /// every cell with an exact schedule — for proven cells this is the
    /// tie-break minimum at the optimal II (`NaN` when no cell produced
    /// an exact schedule).
    pub mean_max_live: f64,
}

impl OptGapRow {
    /// Fraction of cells with a proven-optimal II.
    pub fn proven_fraction(&self) -> f64 {
        if self.kernels == 0 {
            f64::NAN
        } else {
            self.proven as f64 / self.kernels as f64
        }
    }
}

/// The whole study: one row per policy over a shared kernel population.
#[derive(Debug, Clone)]
pub struct OptGapResult {
    /// Per-policy aggregates, in the paper's policy order.
    pub rows: Vec<OptGapRow>,
    /// Factor-1 kernels in the population.
    pub n_kernels: usize,
    /// The exact backend's base node budget ([`DEFAULT_NODE_BUDGET`]; a
    /// factor-1 kernel runs under it unscaled).
    pub node_budget: u64,
}

impl OptGapResult {
    /// Fraction of all `(kernel, policy)` cells proven optimal — the
    /// headline number the acceptance bar tracks.
    pub fn proven_fraction(&self) -> f64 {
        let cells: usize = self.rows.iter().map(|r| r.kernels).sum();
        let proven: usize = self.rows.iter().map(|r| r.proven).sum();
        if cells == 0 {
            f64::NAN
        } else {
            proven as f64 / cells as f64
        }
    }

    /// The study as a rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Optimality gap vs exact B&B ({} factor-1 kernels, budget {})",
                self.n_kernels, self.node_budget
            ),
            &[
                "policy", "kernels", "proven", "proven%", "matched", "better", "cutoff",
                "II ratio", "max_live",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.policy.to_string(),
                r.kernels.to_string(),
                r.proven.to_string(),
                f3(r.proven_fraction()),
                r.matched.to_string(),
                r.better.to_string(),
                r.cutoff.to_string(),
                f3(r.mean_ratio),
                f3(r.mean_max_live),
            ]);
        }
        t
    }
}

impl fmt::Display for OptGapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// The factor-1 study population: every loop of the context's
/// benchmarks, profiled on the profile input (the same front-door the
/// scheduling pipeline uses).
pub fn factor1_kernels(ctx: &ExperimentContext) -> Vec<LoopKernel> {
    ctx.models()
        .into_iter()
        .flat_map(|model| model.loops)
        .map(|lw| profiled(lw.kernel, &ctx.machine, ctx, true))
        .collect()
}

/// One policy's aggregate over `kernels`.
fn policy_row(policy: ClusterPolicy, kernels: &[LoopKernel], ctx: &ExperimentContext) -> OptGapRow {
    let machine = &ctx.machine;
    let heuristic_opts = ScheduleOptions {
        enum_limits: ctx.enum_limits,
        ..ScheduleOptions::new(policy)
    };
    let exact_opts = heuristic_opts.with_backend(SchedBackend::ExactBnB);
    let mut row = OptGapRow {
        policy: policy.name(),
        kernels: 0,
        proven: 0,
        cutoff: 0,
        better: 0,
        matched: 0,
        mean_ratio: f64::NAN,
        cutoff_iis: 0,
        mean_max_live: f64::NAN,
    };
    let mut ratio_sum = 0.0;
    let mut live_sum = 0.0;
    let mut live_cells = 0usize;
    for kernel in kernels {
        // the heuristic II is the numerator; a (pathological) heuristic
        // failure leaves no cell to compare
        let Ok(heuristic) = schedule_outcome(kernel, machine, heuristic_opts) else {
            continue;
        };
        row.kernels += 1;
        match schedule_outcome(kernel, machine, exact_opts) {
            Ok(o) => {
                row.cutoff_iis += o.stats.cutoffs;
                if let Some(live) = o.max_live {
                    live_sum += live as f64;
                    live_cells += 1;
                }
                if o.schedule.ii < heuristic.schedule.ii {
                    row.better += 1;
                }
                match o.quality {
                    SchedQuality::ProvenOptimal => {
                        row.proven += 1;
                        if heuristic.schedule.ii == o.schedule.ii {
                            row.matched += 1;
                        }
                        ratio_sum += heuristic.schedule.ii as f64 / o.schedule.ii as f64;
                    }
                    SchedQuality::CutoffFeasible => row.cutoff += 1,
                    SchedQuality::Heuristic => {
                        unreachable!("exact backend cannot claim Heuristic")
                    }
                }
            }
            // a cutoff with no schedule at all still counts — the
            // exact column must never silently shrink the population
            Err(_) => row.cutoff += 1,
        }
    }
    if row.proven > 0 {
        row.mean_ratio = ratio_sum / row.proven as f64;
    }
    if live_cells > 0 {
        row.mean_max_live = live_sum / live_cells as f64;
    }
    row
}

/// Runs the study over the context's suite: per policy, the swing
/// pipeline against the exact reference on the factor-1 kernels.
pub fn optgap(ctx: &ExperimentContext) -> OptGapResult {
    let kernels = factor1_kernels(ctx);
    OptGapResult {
        rows: ClusterPolicy::ALL
            .iter()
            .map(|&policy| policy_row(policy, &kernels, ctx))
            .collect(),
        n_kernels: kernels.len(),
        node_budget: DEFAULT_NODE_BUDGET,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optgap_runs_on_a_reduced_context() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.profile.iteration_cap = 32;
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        let g = optgap(&ctx);
        assert_eq!(g.rows.len(), 4, "one row per policy");
        assert!(g.n_kernels > 0);
        for r in &g.rows {
            assert_eq!(r.kernels, g.n_kernels, "factor-1 always schedules");
            assert_eq!(r.proven + r.cutoff, r.kernels, "every cell is decided");
            if r.proven > 0 {
                // the exact search never returns a worse II than the
                // incumbent it was seeded with
                assert!(r.mean_ratio >= 1.0, "{}: {}", r.policy, r.mean_ratio);
            }
            // every decided cell carries the exact backend's MaxLive, so
            // the column is populated (at least one value alive per row)
            assert!(
                r.mean_max_live >= 1.0,
                "{}: max_live column empty",
                r.policy
            );
        }
        // the table renders with one line per row plus headers
        let rendered = g.table().render();
        assert_eq!(rendered.lines().count(), 3 + 4);
    }
}
