//! Golden digests over the cycle simulator's output.
//!
//! Every `LoopSimResult` field that reaches a figure is folded into a
//! [`StableHasher`]: the `f64` bits of the compute and stall cycles, the
//! stall breakdown (per access class, combined, MSHR back-pressure), the
//! per-op stall attribution, the access mix and the MSHR counters. The
//! populations are the quick suite under the paper sweep's ten
//! configurations, the other cache organisations, a handful of edge-case
//! kernels, and one traced run whose `sim.window` instants are hashed.
//! A change to the engine or the cache models that moves any simulated
//! cycle or counter changes a digest.

use std::hash::Hasher as _;

use interleaved_vliw::experiments::{
    prepare_loop, ExperimentContext, GridResult, RunConfig, RunGrid,
};
use interleaved_vliw::ir::{
    ArrayKind, DepKind, KernelBuilder, LoopKernel, MemProfile, OpId, Opcode, StableHasher,
};
use interleaved_vliw::machine::{AccessClass, MachineConfig};
use interleaved_vliw::mem::build_cache;
use interleaved_vliw::sched::{
    attraction_hints, schedule_outcome, AttractionHints, ClusterPolicy, Schedule, ScheduleOptions,
};
use interleaved_vliw::sim::{simulate_loop, simulate_loop_traced, LoopSimResult, SimOptions};
use interleaved_vliw::trace::{RecordingSink, Trace};
use interleaved_vliw::workloads::{address_for, ArrayLayout};

/// Folds every observable field of `r` into `h`.
fn fold(h: &mut StableHasher, r: &LoopSimResult) {
    h.write_u64(r.sim_iterations);
    h.write_f64(r.scale);
    h.write_f64(r.compute_cycles);
    h.write_f64(r.stall_cycles);
    for class in AccessClass::ALL {
        h.write_f64(r.stall_by.of(class));
        h.write_u64(r.mem.count(class));
    }
    h.write_f64(r.stall_by.combined);
    h.write_f64(r.stall_by.mshr_full);
    h.write_u64(r.stall_by_op.len() as u64);
    for &s in &r.stall_by_op {
        h.write_f64(s);
    }
    h.write_u64(r.mem.combined());
    h.write_u64(r.mem.ab_hits());
    let m = r.mshr();
    h.write_u64(m.fills);
    h.write_u64(m.merged_waiters);
    h.write_u64(m.full_stall_cycles);
    h.write_u64(m.peak_occupancy);
}

/// Folds every simulated loop of `grid` (bench, config, loop order).
fn fold_grid(h: &mut StableHasher, grid: &GridResult) -> u64 {
    let mut loops = 0;
    for b in 0..grid.benches().len() {
        for c in 0..grid.configs().len() {
            for l in &grid.cell(b, c).loops {
                h.write_str(&l.name);
                fold(h, &l.sim);
                loops += 1;
            }
        }
    }
    loops
}

/// `perfbench`'s `paper_sweep` configurations: IBC and IPBC × {no
/// buffers, 8×2, 16×2 Attraction Buffers} × hints {off, on} (hints are
/// moot without buffers) — ten in all.
fn paper_sweep_grid() -> RunGrid {
    let mut grid = RunGrid::new("sim_golden");
    for (name, base) in [("IBC", RunConfig::ibc()), ("IPBC", RunConfig::ipbc())] {
        grid = grid.config(name, base);
        for (entries, assoc) in [(8, 2), (16, 2)] {
            for use_hints in [false, true] {
                grid = grid.config(
                    format!("{name}+AB{entries}x{assoc}/hints={use_hints}"),
                    RunConfig {
                        attraction_buffers: Some((entries, assoc)),
                        use_hints,
                        ..base
                    },
                );
            }
        }
    }
    grid
}

#[test]
fn paper_sweep_configs_match_the_golden_digest() {
    let ctx = ExperimentContext::quick();
    let grid = paper_sweep_grid();
    assert_eq!(grid.configs().len(), 10);
    let mut h = StableHasher::new();
    let loops = fold_grid(&mut h, &grid.run(&ctx));
    assert_eq!(loops, 320, "loops");
    assert_eq!(
        format!("{:016x}", h.finish()),
        "187e476526ff3051",
        "paper-sweep digest"
    );
}

#[test]
fn other_cache_organisations_match_the_golden_digest() {
    let ctx = ExperimentContext::quick();
    let mut h = StableHasher::new();
    let grid = RunGrid::new("sim_golden_arches")
        .config("multiVLIW", RunConfig::multivliw())
        .config("unified(L=1)", RunConfig::unified(1))
        .config("unified(L=5)", RunConfig::unified(5));
    let mut loops = fold_grid(&mut h, &grid.run(&ctx));
    // a tight MSHR budget keeps capacity back-pressure live
    let mut tight = ctx.clone();
    tight.machine.mshrs.per_cluster = 2;
    let grid = RunGrid::new("sim_golden_mshr2")
        .config("IPBC/2 MSHRs", RunConfig::ipbc())
        .config("IPBC+AB16x2/2 MSHRs", RunConfig::ipbc().with_buffers());
    loops += fold_grid(&mut h, &grid.run(&tight));
    assert_eq!(loops, 160, "loops");
    assert_eq!(
        format!("{:016x}", h.finish()),
        "3d4da5f6bfdce106",
        "organisations digest"
    );
}

/// Schedules `kernel` and simulates it with the kernel's own strided
/// addresses (`offset + stride × iteration`).
fn simulate_edge(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    policy: ClusterPolicy,
    options: SimOptions,
) -> (Schedule, LoopSimResult) {
    let schedule = schedule_outcome(kernel, machine, ScheduleOptions::new(policy))
        .unwrap()
        .schedule;
    assert!(schedule.verify(kernel, machine).is_empty());
    let mut cache = build_cache(machine);
    let hints = AttractionHints::allow_all(kernel);
    let mut addr = |op: OpId, iter: u64| -> u64 {
        let m = kernel.op(op).mem.as_ref().unwrap();
        (m.offset + m.stride.unwrap_or(0) * iter as i64) as u64
    };
    let r = simulate_loop(
        kernel,
        &schedule,
        machine,
        cache.as_mut(),
        &mut addr,
        &hints,
        &options,
    );
    (schedule, r)
}

/// A load feeding a chain of multiplies into a store: a long schedule
/// (several stages) at a small II.
fn deep_kernel(avg_trip: f64) -> LoopKernel {
    let mut b = KernelBuilder::new("deep");
    let a = b.array("a", 8192, ArrayKind::Global);
    let (_, mut v) = b.load("ld", a, 0, 4, 4);
    for i in 0..3 {
        v = b.int_op(format!("m{i}"), Opcode::Mul, &[v.into()]).1;
    }
    b.store("st", a, 4096, 4, 4, v);
    b.finish(avg_trip)
}

/// `x` reads the value `y` produced two iterations earlier, and `y`
/// reads `x`'s result of the same iteration: a distance-2 register
/// recurrence between distinct ops.
fn distance2_kernel() -> LoopKernel {
    let mut b = KernelBuilder::new("dist2");
    let arr = b.array("a", 8192, ArrayKind::Global);
    let (ld, v) = b.load("ld", arr, 0, 4, 4);
    let (x, xv) = b.int_op("x", Opcode::Add, &[v.into()]);
    let (y, yv) = b.int_op("y", Opcode::Mul, &[xv.into()]);
    b.raw_edge(y, x, DepKind::RegFlow, 2);
    b.store("st", arr, 4096, 4, 4, yv);
    b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
    b.finish(200.0)
}

/// 8-byte loads and stores on the 4-byte interleave: each access spans
/// two clusters' words.
fn wide_kernel() -> LoopKernel {
    let mut b = KernelBuilder::new("wide");
    let a = b.array("a", 8192, ArrayKind::Global);
    let (_, v) = b.load("ld", a, 0, 8, 8);
    let (_, w) = b.load("ld2", a, 2048, 8, 8);
    let (_, x) = b.int_op("add", Opcode::Add, &[v.into(), w.into()]);
    b.store("st", a, 4096, 8, 8, x);
    b.finish(150.0)
}

/// One constant and one store: a single-row schedule.
fn ii1_kernel() -> LoopKernel {
    let mut b = KernelBuilder::new("ii1");
    let a = b.array("a", 1024, ArrayKind::Global);
    let (_, c) = b.int_const("c");
    b.store("st", a, 0, 4, 4, c);
    b.finish(100.0)
}

#[test]
fn edge_case_kernels_match_the_golden_digest() {
    let m = MachineConfig::word_interleaved_4();
    let cold = SimOptions {
        iteration_cap: 1024,
        warmup_iterations: 0,
    };
    let warm = SimOptions::default();
    let mut h = StableHasher::new();
    let mut fold_case = |name: &str, (s, r): (Schedule, LoopSimResult)| {
        h.write_str(name);
        h.write_u32(s.ii);
        h.write_u32(s.stage_count());
        fold(&mut h, &r);
        (s, r)
    };

    // fewer iterations than stages: the kernel never fills the pipeline
    let (s, r) = fold_case(
        "short trip",
        simulate_edge(&deep_kernel(2.0), &m, ClusterPolicy::NoChains, warm),
    );
    assert!(u64::from(s.stage_count()) > r.sim_iterations);
    // no warm-up pass: every access starts cold
    fold_case(
        "cold",
        simulate_edge(&deep_kernel(300.0), &m, ClusterPolicy::Free, cold),
    );
    let (s, _) = fold_case(
        "II 1",
        simulate_edge(&ii1_kernel(), &m, ClusterPolicy::Free, warm),
    );
    assert_eq!(s.ii, 1);
    for policy in [ClusterPolicy::PreBuildChains, ClusterPolicy::Free] {
        fold_case(
            "distance 2",
            simulate_edge(&distance2_kernel(), &m, policy, warm),
        );
        fold_case(
            "8-byte accesses",
            simulate_edge(&wide_kernel(), &m, policy, cold),
        );
    }
    assert_eq!(
        format!("{:016x}", h.finish()),
        "bff5ca6885508919",
        "edge-case digest"
    );
}

#[test]
fn traced_window_instants_match_the_golden_digest() {
    let ctx = ExperimentContext::quick();
    let cfg = RunConfig {
        use_hints: true,
        ..RunConfig::ipbc().with_buffers()
    };
    let machine = ctx.machine_for(&cfg);
    let sink = RecordingSink::logical();
    let mut h = StableHasher::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let p = prepare_loop(&lw.kernel, &machine, &cfg, &ctx, Trace::off()).unwrap();
            let hints = attraction_hints(&p.kernel, &p.schedule, &machine);
            let layout =
                ArrayLayout::new(&p.kernel, &machine, cfg.padding, ctx.workloads.exec_input);
            let mut addresses = |op: OpId, iter: u64| address_for(&p.kernel, &layout, op, iter);
            let mut cache = build_cache(&machine);
            let traced = simulate_loop_traced(
                &p.kernel,
                &p.schedule,
                &machine,
                cache.as_mut(),
                &mut addresses,
                &hints,
                &ctx.sim,
                Trace::new(&sink),
            );
            h.write_str(&p.kernel.name);
            fold(&mut h, &traced);
        }
    }
    let mut windows = 0u64;
    for e in sink.events().iter().filter(|e| e.name == "sim.window") {
        windows += 1;
        for (key, value) in &e.args {
            h.write_str(key);
            h.write_f64(*value);
        }
    }
    assert_eq!(windows, 242, "sim.window instants");
    assert_eq!(
        format!("{:016x}", h.finish()),
        "76de71c3ac739a4a",
        "traced digest"
    );
}
