//! The `RunGrid` execution contract: a parallel grid run is bit-identical
//! to a serial run, and both are identical to calling the pipeline stages
//! directly (no grid, no memo) per cell.

use interleaved_vliw::experiments::{
    run_benchmark, ExperimentContext, GridResult, RunConfig, RunGrid, UnrollMode,
};
use interleaved_vliw::sched::ClusterPolicy;

fn tiny_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "epicdec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.sim.warmup_iterations = 48;
    ctx.profile.iteration_cap = 48;
    // a tight MSHR budget so in-flight tracking (combining, fill-time
    // retirement, capacity back-pressure) is live in every cell
    ctx.machine.mshrs.per_cluster = 2;
    ctx
}

fn small_grid() -> RunGrid {
    // a real cross-product: policy × unroll × buffers (8 configs)
    let mut grid = RunGrid::new("determinism");
    for policy in [ClusterPolicy::PreBuildChains, ClusterPolicy::BuildChains] {
        for unroll in [UnrollMode::NoUnroll, UnrollMode::Selective] {
            for attraction_buffers in [None, Some((16, 2))] {
                let cfg = RunConfig {
                    policy,
                    unroll,
                    attraction_buffers,
                    ..RunConfig::ipbc()
                };
                grid = grid.config(
                    format!("{policy:?}/{unroll:?}/ab={attraction_buffers:?}"),
                    cfg,
                );
            }
        }
    }
    grid
}

/// The grid on four worker threads, whatever the host's core count.
fn run_on_four(grid: &RunGrid, ctx: &ExperimentContext) -> GridResult {
    let mut ctx = ctx.clone();
    ctx.workers = 4;
    grid.run(&ctx)
}

#[test]
fn parallel_equals_serial_bitwise() {
    let ctx = tiny_ctx();
    let grid = small_grid();
    let serial = grid.run_serial(&ctx);
    let parallel = run_on_four(&grid, &ctx);
    assert_eq!(serial.benches(), parallel.benches());
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "parallel grid must be bit-identical to serial"
    );
}

#[test]
fn grid_equals_direct_pipeline_calls() {
    let ctx = tiny_ctx();
    let grid = small_grid();
    let result = grid.run(&ctx);
    let models = ctx.models();
    for (b, model) in models.iter().enumerate() {
        for (c, (label, cfg)) in result.configs().iter().enumerate() {
            let direct = run_benchmark(model, cfg, &ctx);
            let cell = result.cell(b, c);
            assert_eq!(cell.loops.len(), direct.loops.len(), "{label}");
            for (x, y) in cell.loops.iter().zip(&direct.loops) {
                assert_eq!(x.name, y.name);
                assert_eq!(
                    x.prepared.schedule, y.prepared.schedule,
                    "{label}/{}",
                    x.name
                );
                assert_eq!(x.prepared.factor, y.prepared.factor);
                assert_eq!(
                    x.sim.compute_cycles.to_bits(),
                    y.sim.compute_cycles.to_bits(),
                    "{label}/{}",
                    x.name
                );
                assert_eq!(
                    x.sim.stall_cycles.to_bits(),
                    y.sim.stall_cycles.to_bits(),
                    "{label}/{}",
                    x.name
                );
            }
        }
    }
}

/// The backend-sharded work queue (heavy exact cells dispatched first,
/// heuristic cells back-filled) must not change a
/// single bit: a sweep over every backend and profile source is
/// bit-identical between the serial queue and four parallel workers.
#[test]
fn backend_sharded_queue_stays_bit_identical() {
    use interleaved_vliw::experiments::ProfileSource;
    use interleaved_vliw::sched::SchedBackend;
    let mut ctx = tiny_ctx();
    ctx.benchmarks = vec!["gsmdec".into()];
    let mut grid = RunGrid::new("sharded");
    for backend in SchedBackend::ALL {
        for source in [ProfileSource::Synthetic, ProfileSource::Measured] {
            let cfg = RunConfig {
                backend,
                source,
                unroll: UnrollMode::NoUnroll,
                ..RunConfig::ipbc()
            };
            grid = grid.config(format!("{}/{source:?}", backend.name()), cfg);
        }
    }
    let serial = grid.run_serial(&ctx);
    let parallel = run_on_four(&grid, &ctx);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "sharded parallel grid must be bit-identical to serial"
    );
    // every (backend, source) cell is a distinct preparation key
    let n_loops: usize = ctx.models().iter().map(|m| m.loops.len()).sum();
    assert_eq!(
        serial.memoized_schedules(),
        SchedBackend::ALL.len() * 2 * n_loops
    );
}

#[test]
fn memoization_prunes_redundant_schedules() {
    let ctx = tiny_ctx();
    let grid = small_grid();
    let result = grid.run(&ctx);
    // 8 configs but only 4 distinct (policy × unroll) preparation keys per
    // loop: the buffer axis must not force re-scheduling
    let n_loops: usize = ctx.models().iter().map(|m| m.loops.len()).sum();
    assert_eq!(result.memoized_schedules(), 4 * n_loops);
}
