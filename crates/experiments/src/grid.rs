//! Declarative experiment grids: execute every `(benchmark, config)`
//! cell — in parallel, with schedules memoized across cells — and feed
//! the shared aggregation backbone every figure driver sits on.
//!
//! A [`RunGrid`] is built from labeled configurations (figure bars), then
//! executed over the context's benchmarks ([`ExperimentContext::models`];
//! a study over other benchmarks runs on a clone of the context with
//! [`ExperimentContext::benchmarks`] set) with [`RunGrid::run`] on
//! [`ExperimentContext::workers`] threads or with [`RunGrid::run_serial`]
//! on one. Cells are independent
//! and deterministic, and the schedule memo only *shares* results, so a
//! parallel run is bit-identical to a serial one —
//! [`GridResult::fingerprint`] makes that checkable.
//!
//! ```no_run
//! use vliw_experiments::{ExperimentContext, RunConfig, RunGrid};
//!
//! let ctx = ExperimentContext::quick();
//! let result = RunGrid::new("demo")
//!     .config("IPBC", RunConfig::ipbc())
//!     .config("IPBC+AB", RunConfig::ipbc().with_buffers())
//!     .run(&ctx);
//! for (bench, runs) in result.by_bench() {
//!     println!("{bench}: {:.0} vs {:.0} cycles", runs[0].total_cycles(), runs[1].total_cycles());
//! }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use vliw_workloads::BenchmarkModel;

use crate::context::{run_benchmark_memo, BenchRun, ExperimentContext, ProfileSource, RunConfig};
use crate::report::amean;
use crate::schedcache::SchedCache;

/// The worker pool of every experiments driver: `min(workers, n)` scoped
/// threads (inline with one) claim the positions of `order` from one
/// shared cursor until it runs past the end. At every claim worker `w`
/// calls `job(w, remaining, claimed)`: `remaining` is the queue length
/// before the claim, and `claimed` the next index of `order`, or `None`
/// on the worker's final, empty claim. With one worker the claims run
/// in `order`, and `remaining` counts down n, n−1, …, 0.
pub(crate) fn claim_loop(
    order: &[usize],
    workers: usize,
    job: impl Fn(usize, usize, Option<usize>) + Sync,
) {
    let next = AtomicUsize::new(0);
    let work = |w: usize| loop {
        let q = next.fetch_add(1, Ordering::Relaxed);
        let claimed = order.get(q).copied();
        job(w, order.len().saturating_sub(q), claimed);
        if claimed.is_none() {
            break;
        }
    };
    let workers = workers.clamp(1, order.len().max(1));
    if workers == 1 {
        work(0);
    } else {
        thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || work(w));
            }
        });
    }
}

/// A declarative experiment grid: labeled configurations × the
/// context's benchmarks.
#[derive(Debug, Clone)]
pub struct RunGrid {
    label: String,
    configs: Vec<(String, RunConfig)>,
}

impl RunGrid {
    /// An empty grid named `label` (the label shows up in diagnostics).
    pub fn new(label: impl Into<String>) -> Self {
        RunGrid {
            label: label.into(),
            configs: Vec::new(),
        }
    }

    /// Adds one labeled configuration (one figure bar).
    pub fn config(mut self, label: impl Into<String>, cfg: RunConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// The grid's name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The labeled configurations, in declaration order.
    pub fn configs(&self) -> &[(String, RunConfig)] {
        &self.configs
    }

    /// Executes every cell over [`ExperimentContext::models`] on
    /// [`ExperimentContext::workers`] threads.
    pub fn run(&self, ctx: &ExperimentContext) -> GridResult {
        self.run_on_models(&ctx.models(), ctx)
    }

    /// Executes every cell on one thread.
    pub fn run_serial(&self, ctx: &ExperimentContext) -> GridResult {
        let mut serial = ctx.clone();
        serial.workers = 1;
        self.run(&serial)
    }

    /// Executes the grid over explicit (possibly filtered or synthetic)
    /// models instead of synthesizing them from the context.
    pub fn run_on_models(&self, models: &[BenchmarkModel], ctx: &ExperimentContext) -> GridResult {
        let n_cfg = self.configs.len();
        let n_models = models.len();
        let cells_total = n_models * n_cfg;
        let memo = SchedCache::new();
        let slots: Vec<Mutex<Option<BenchRun>>> =
            (0..cells_total).map(|_| Mutex::new(None)).collect();

        // The work queue, sharded by per-cell cost: heavy cells (the
        // exact search, and any cell whose measured profile source runs
        // a whole profiling simulation per loop) are dispatched first
        // and cheap heuristic cells back-fill the workers, so a sweep
        // over `SchedBackend::ALL` does not end on a long tail of one
        // worker grinding exact cells while the rest sit idle. The sort
        // is stable, so within a shard the claim order stays
        // config-major: concurrent workers start on *different*
        // benchmarks, rarely contending on a memo slot, and a benchmark's
        // later configs hit warm entries (or block on the in-flight
        // computation instead of repeating it). Cells are independent and
        // land in their own slots, so the dispatch order cannot change
        // any result — serial and parallel runs stay bit-identical.
        let cell_cost = |cfg: &RunConfig| {
            let measure = match cfg.source {
                ProfileSource::Measured => 3,
                ProfileSource::Synthetic | ProfileSource::None => 0,
            };
            cfg.backend.cost_rank() + measure
        };
        let mut queue: Vec<usize> = (0..cells_total).collect();
        queue.sort_by_key(|&i| std::cmp::Reverse(cell_cost(&self.configs[i / n_models].1)));

        claim_loop(&queue, ctx.workers, |_, _, claimed| {
            let Some(i) = claimed else { return };
            let (b, c) = (i % n_models, i / n_models);
            let run = run_benchmark_memo(&models[b], &self.configs[c].1, ctx, Some(&memo));
            *slots[b * n_cfg + c].lock().expect("cell slot") = Some(run);
        });

        let cells: Vec<BenchRun> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("cell lock").expect("cell computed"))
            .collect();
        GridResult {
            benches: models.iter().map(|m| m.name.clone()).collect(),
            configs: self.configs.clone(),
            cells,
            memoized_schedules: memo.len(),
            memo_hits: memo.hits(),
        }
    }
}

/// The outcome of a grid run: one [`BenchRun`] per `(benchmark, config)`
/// cell, bench-major, plus the aggregation backbone the figure drivers
/// share.
#[derive(Debug)]
pub struct GridResult {
    benches: Vec<String>,
    configs: Vec<(String, RunConfig)>,
    cells: Vec<BenchRun>,
    memoized_schedules: usize,
    memo_hits: usize,
}

impl GridResult {
    /// Benchmark names, in model order.
    pub fn benches(&self) -> &[String] {
        &self.benches
    }

    /// The labeled configurations, in declaration order.
    pub fn configs(&self) -> &[(String, RunConfig)] {
        &self.configs
    }

    /// Number of distinct schedules the run actually computed (the rest
    /// were memo hits across cells).
    pub fn memoized_schedules(&self) -> usize {
        self.memoized_schedules
    }

    /// Number of loop preparations served from the schedule memo instead
    /// of being recomputed — the scheduling work the grid skipped.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// The cell for benchmark index `b` under config index `c`.
    pub fn cell(&self, b: usize, c: usize) -> &BenchRun {
        &self.cells[b * self.configs.len() + c]
    }

    /// Iterates `(benchmark name, its runs in config order)`.
    pub fn by_bench(&self) -> impl Iterator<Item = (&str, &[BenchRun])> {
        let n = self.configs.len();
        self.benches
            .iter()
            .enumerate()
            .map(move |(b, name)| (name.as_str(), &self.cells[b * n..(b + 1) * n]))
    }

    /// All runs of config index `c`, one per benchmark.
    pub fn by_config(&self, c: usize) -> impl Iterator<Item = &BenchRun> {
        let n = self.configs.len();
        self.cells.iter().skip(c).step_by(n.max(1))
    }

    /// Arithmetic mean of `f` over benchmarks, per configuration.
    pub fn amean_by_config(&self, f: impl Fn(&BenchRun) -> f64) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| amean(self.by_config(c).map(&f)))
            .collect()
    }

    /// Per-configuration MSHR activity summed over benchmarks:
    /// `[fills, merged waiters, full-stall cycles]` (scaled counts, like
    /// [`BenchRun::mshr_mix`]).
    pub fn mshr_by_config(&self) -> Vec<[f64; 3]> {
        (0..self.configs.len())
            .map(|c| {
                let mut out = [0.0; 3];
                for run in self.by_config(c) {
                    let m = run.mshr_mix();
                    for (o, v) in out.iter_mut().zip(m) {
                        *o += v;
                    }
                }
                out
            })
            .collect()
    }

    /// Highest per-cluster MSHR occupancy any cell of config `c` observed.
    pub fn mshr_peak_by_config(&self, c: usize) -> u64 {
        self.by_config(c)
            .map(|r| r.mshr_peak_occupancy())
            .max()
            .unwrap_or(0)
    }

    /// Per-configuration schedule-quality counts
    /// `[heuristic, proven optimal, cutoff]`, summed over benchmarks —
    /// how the backend axis surfaces in aggregation. A nonzero cutoff
    /// column is the visible record of exact-search budget exhaustion.
    pub fn quality_by_config(&self) -> Vec<[usize; 3]> {
        (0..self.configs.len())
            .map(|c| {
                let mut out = [0usize; 3];
                for run in self.by_config(c) {
                    let q = run.quality_counts();
                    for (o, v) in out.iter_mut().zip(q) {
                        *o += v;
                    }
                }
                out
            })
            .collect()
    }

    /// A canonical, bit-exact digest of every cell: per loop, the II, the
    /// cluster of every operation, and the exact bits of the cycle
    /// counters. Two runs produce equal fingerprints iff their reports are
    /// bit-identical — the serial/parallel determinism contract.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (b, bench) in self.benches.iter().enumerate() {
            for (c, (label, _)) in self.configs.iter().enumerate() {
                let run = self.cell(b, c);
                let _ = write!(out, "{bench}|{label}:");
                for l in &run.loops {
                    let clusters: Vec<usize> =
                        l.prepared.schedule.ops.iter().map(|o| o.cluster).collect();
                    let _ = write!(
                        out,
                        "{}#ii={},f={},cl={:?},cc={:016x},sc={:016x};",
                        l.name,
                        l.prepared.schedule.ii,
                        l.prepared.factor,
                        clusters,
                        l.sim.compute_cycles.to_bits(),
                        l.sim.stall_cycles.to_bits(),
                    );
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_sched::SchedBackend;

    #[test]
    fn quality_aggregation_distinguishes_backends() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let base = RunConfig {
            unroll: crate::UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        let grid = RunGrid::new("t")
            .config("swing", base)
            .config("bnb", base.with_backend(SchedBackend::ExactBnB));
        let res = grid.run_serial(&ctx);
        let q = res.quality_by_config();
        let n_loops = res.cell(0, 0).loops.len();
        assert_eq!(q[0], [n_loops, 0, 0], "heuristic cells claim nothing");
        assert_eq!(q[1][0], 0, "exact cells never claim Heuristic");
        assert_eq!(q[1][1] + q[1][2], n_loops, "proven + cutoff covers all");
        // distinct backends must not have shared a memo slot
        for (a, b) in res.cell(0, 0).loops.iter().zip(&res.cell(0, 1).loops) {
            assert!(!std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
            assert!(b.prepared.schedule.ii <= a.prepared.schedule.ii);
        }
    }

    #[test]
    fn grid_runs_and_indexes_cells() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let grid = RunGrid::new("t")
            .config("IPBC", RunConfig::ipbc())
            .config("IBC", RunConfig::ibc());
        let res = grid.run_serial(&ctx);
        assert_eq!(res.benches(), ["gsmdec"]);
        assert_eq!(res.configs().len(), 2);
        assert!(res.cell(0, 0).total_cycles() > 0.0);
        assert_eq!(res.by_bench().count(), 1);
        assert_eq!(res.by_config(1).count(), 1);
        assert_eq!(res.amean_by_config(|r| r.total_cycles()).len(), 2);
    }

    #[test]
    fn memo_shares_schedules_across_buffer_axis() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let grid = RunGrid::new("t")
            .config("IPBC", RunConfig::ipbc())
            .config("IPBC+AB", RunConfig::ipbc().with_buffers());
        let res = grid.run_serial(&ctx);
        let n_loops = res.cell(0, 0).loops.len();
        // both configs share one preparation per loop
        assert_eq!(res.memoized_schedules(), n_loops);
        // ...so exactly one prepare per loop was a memo hit
        assert_eq!(res.memo_hits(), n_loops);
        // ...and the shared schedule is literally the same allocation
        for (a, b) in res.cell(0, 0).loops.iter().zip(&res.cell(0, 1).loops) {
            assert!(std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
        }
    }
}
