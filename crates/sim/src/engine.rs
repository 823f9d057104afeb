//! The lock-step VLIW execution engine.
//!
//! A modulo schedule issues the same rows every II cycles, so the engine
//! reads its issue order off a per-row table built once per call instead
//! of merging op instances by nominal time ([`simulate_loop`] states the
//! rule). A row whose group is empty at some kernel step (pipeline fill
//! and drain) is skipped as if absent: it neither stalls nor closes a
//! `sim.window` accounting window. Per-instance state lives in flat
//! `op × slot` rings and every op's issue-time constants (operand range,
//! request template, assumed latency) are read once per call, so an op
//! instance costs a few array reads plus its cache access.

use vliw_ir::{DepKind, LoopKernel, OpId};
use vliw_machine::{AccessClass, MachineConfig};
use vliw_mem::{AccessRequest, DataCache};
use vliw_sched::{AttractionHints, Schedule};
use vliw_trace::Trace;

/// Accounting-window length of the traced simulator's stall attribution,
/// in multiples of the schedule's II: every `II × this` cycles of
/// measured simulated time, one `sim.window` instant reports the window's
/// stall deltas by cause.
const TRACE_WINDOW_IIS: u64 = 16;

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimOptions {
    /// Maximum kernel iterations actually simulated per loop; longer trip
    /// counts are scaled (the cache reaches steady state long before this).
    pub iteration_cap: u64,
    /// Un-measured iterations executed first to warm the module caches —
    /// the paper simulates whole programs, so loops almost always find
    /// their working set resident. Attraction Buffers still flush between
    /// the warm-up and the measured pass (the paper flushes them whenever
    /// a loop finishes). Set to 0 to measure cold.
    pub warmup_iterations: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            iteration_cap: 1024,
            warmup_iterations: 256,
        }
    }
}

/// Stall cycles by cause.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallBreakdown {
    by_class: [f64; 4],
    /// Stall caused by combined (merged in-flight) accesses.
    pub combined: f64,
    /// Stall caused by accesses that waited for a free miss-status
    /// register (MSHR capacity back-pressure).
    pub mshr_full: f64,
}

impl StallBreakdown {
    /// Stall cycles attributed to accesses of `class`.
    pub fn of(&self, class: AccessClass) -> f64 {
        self.by_class[class.index()]
    }

    /// Total stall cycles.
    pub fn total(&self) -> f64 {
        self.by_class.iter().sum::<f64>() + self.combined + self.mshr_full
    }

    /// Scales every component (used when extrapolating capped runs).
    fn scaled(&self, factor: f64) -> StallBreakdown {
        StallBreakdown {
            by_class: self.by_class.map(|x| x * factor),
            combined: self.combined * factor,
            mshr_full: self.mshr_full * factor,
        }
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for i in 0..4 {
            self.by_class[i] += other.by_class[i];
        }
        self.combined += other.combined;
        self.mshr_full += other.mshr_full;
    }
}

/// Result of simulating one loop.
#[derive(Debug, Clone)]
pub struct LoopSimResult {
    /// Iterations actually simulated.
    pub sim_iterations: u64,
    /// `total dynamic iterations / simulated iterations` — multiply cycle
    /// counts by this to extrapolate to the whole run (already applied to
    /// the public cycle fields).
    pub scale: f64,
    /// Schedule-determined cycles, scaled: `(iters + SC − 1) × II`.
    pub compute_cycles: f64,
    /// Stall cycles, scaled.
    pub stall_cycles: f64,
    /// Stall attribution by access class, scaled.
    pub stall_by: StallBreakdown,
    /// Per-operation stall attribution (scaled), indexed by `OpId` — feeds
    /// the Figure 5 factor classification.
    pub stall_by_op: Vec<f64>,
    /// Cache statistics of the simulated iterations (unscaled counts).
    pub mem: vliw_mem::MemStats,
}

impl LoopSimResult {
    /// Total (compute + stall) cycles, scaled.
    pub fn total_cycles(&self) -> f64 {
        self.compute_cycles + self.stall_cycles
    }

    /// In-flight request tracking (MSHR) counters of the measured pass
    /// (unscaled counts, like [`LoopSimResult::mem`]).
    pub fn mshr(&self) -> &vliw_mem::MshrStats {
        self.mem.mshr()
    }
}

/// Why a producer ran late: access class, combined flag, and the cycles
/// it waited for a miss-status register (`None` for non-memory
/// producers).
type LateCause = Option<(AccessClass, bool, u64)>;

/// One register input of a consumer op.
struct Operand {
    producer: usize,
    distance: u64,
    /// `Some(rel)` when the value crosses clusters: the copy fires `rel`
    /// cycles after the producer's issue slot and takes the bus transfer
    rel_copy: Option<u64>,
}

/// One op's issue-time constants, read once per call rather than once
/// per instance.
struct OpPlan {
    /// `operands[first..end]` are the op's register inputs, in edge order
    first: usize,
    end: usize,
    /// the request template of a memory op (`addr` and `now` are filled
    /// in per instance); `None` for every other op
    access: Option<AccessRequest>,
    /// the scheduler's assumed latency (non-memory ops complete after it)
    latency: u64,
}

/// The recent instances of every op, flattened to `op × slot`: slot
/// `iter mod size` of op `op` lives at `op × size + slot`.
struct Rings {
    /// a power of two, so the slot is a mask
    size: usize,
    mask: u64,
    /// ready time of each op's recent instances
    ready: Vec<u64>,
    /// absolute issue time of each op's recent instances
    issued: Vec<u64>,
    /// cause of lateness of each op's recent instances (loads only)
    cause: Vec<LateCause>,
}

impl Rings {
    /// Rings holding at least `depth` instances per op.
    fn new(n_ops: usize, depth: u64) -> Self {
        let size = depth.next_power_of_two();
        let n = n_ops * size as usize;
        Rings {
            size: size as usize,
            mask: size - 1,
            ready: vec![0; n],
            issued: vec![0; n],
            cause: vec![None; n],
        }
    }

    fn index(&self, op: usize, iter: u64) -> usize {
        op * self.size + (iter & self.mask) as usize
    }
}

/// Simulates `schedule` for (a capped number of) `kernel.avg_trip`
/// iterations against `cache`.
///
/// `addresses(op, iteration)` supplies the byte address each memory
/// operation touches in each iteration (the workload crate's address
/// streams). `hints` gates Attraction-Buffer allocation per §5.2.
///
/// The engine processes issue groups in nominal schedule order; a whole
/// group stalls when any member needs an operand that is not ready —
/// the in-order, lock-step pipeline of the paper's VLIW.
///
/// A modulo schedule repeats every II, so the nominal order is read off
/// a row table built once per call: row `r` lists the ops with
/// `cycle ≡ r (mod II)` in op-index order, each with its stage. Kernel
/// step `k` (`0 ≤ k < iters + SC − 1`) issues row `r`'s group at nominal
/// cycle `k × II + r`: every member with `stage ≤ k < stage + iters`, as
/// iteration `k − stage`. A group with no such member is skipped
/// outright — it issues nothing and is not a point in simulated time, so
/// it neither stalls nor closes a trace window.
pub fn simulate_loop(
    kernel: &LoopKernel,
    schedule: &Schedule,
    machine: &MachineConfig,
    cache: &mut dyn DataCache,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    hints: &AttractionHints,
    options: &SimOptions,
) -> LoopSimResult {
    simulate_loop_traced(
        kernel,
        schedule,
        machine,
        cache,
        addresses,
        hints,
        options,
        Trace::off(),
    )
}

/// [`simulate_loop`] with per-accounting-window stall attribution wired
/// to `trace`: during the measured pass, every 16 × II cycles of
/// simulated time one `sim.window` instant carries that window's stall
/// deltas split by cause (the four access classes, combined accesses,
/// and MSHR back-pressure). Timing and results are identical to
/// [`simulate_loop`] — the probes only read the accumulators it maintains
/// anyway.
#[allow(clippy::too_many_arguments)]
pub fn simulate_loop_traced(
    kernel: &LoopKernel,
    schedule: &Schedule,
    machine: &MachineConfig,
    cache: &mut dyn DataCache,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    hints: &AttractionHints,
    options: &SimOptions,
    trace: Trace<'_>,
) -> LoopSimResult {
    let n_ops = kernel.ops.len();
    assert_eq!(schedule.ops.len(), n_ops, "schedule must match kernel");
    let ii = schedule.ii as u64;
    let sc = schedule.stage_count() as u64;
    let transfer = machine.buses.transfer_cycles as u64;

    let total_iters = (kernel.avg_trip * kernel.invocations).max(1.0);
    let sim_iters = (kernel.avg_trip.round() as u64).clamp(1, options.iteration_cap);
    let scale = total_iters / sim_iters as f64;

    // consumer-side dependence info, grouped by consumer (a stable sort
    // keeps each consumer's operands in edge order)
    let mut inputs: Vec<(usize, Operand)> = Vec::new();
    let mut max_dist = 1u64;
    for e in &kernel.edges {
        if e.kind != DepKind::RegFlow {
            continue;
        }
        if e.from == e.to {
            continue; // self-dependences are honored by the MII
        }
        let from = schedule.op(e.from);
        let to = schedule.op(e.to);
        let rel_copy = if from.cluster != to.cluster {
            schedule
                .copy_for(e.from, to.cluster)
                .map(|c| (c.cycle as i64 - from.cycle as i64).max(0) as u64)
        } else {
            None
        };
        max_dist = max_dist.max(e.distance as u64);
        inputs.push((
            e.to.index(),
            Operand {
                producer: e.from.index(),
                distance: e.distance as u64,
                rel_copy,
            },
        ));
    }
    inputs.sort_by_key(|&(to, _)| to);
    let plans: Vec<OpPlan> = (0..n_ops)
        .map(|op| {
            let o = &kernel.ops[op];
            let s = schedule.ops[op];
            OpPlan {
                first: inputs.partition_point(|&(to, _)| to < op),
                end: inputs.partition_point(|&(to, _)| to <= op),
                access: o.is_mem().then(|| AccessRequest {
                    cluster: s.cluster,
                    addr: 0,
                    size: o.mem.as_ref().map_or(4, |m| m.granularity),
                    is_store: o.is_store(),
                    attractable: hints.is_attractable(OpId::new(op)),
                    now: 0,
                }),
                latency: s.assumed_latency as u64,
            }
        })
        .collect();
    let operands: Vec<Operand> = inputs.into_iter().map(|(_, o)| o).collect();

    // the row table: per row `cycle mod II`, its `(op, stage)` members in
    // op-index order (the tie order of a nominal-time merge); rows that
    // hold no op are dropped
    let mut by_row: Vec<Vec<(usize, u64)>> = vec![Vec::new(); ii as usize];
    for (op, s) in schedule.ops.iter().enumerate() {
        let cycle = s.cycle as u64;
        by_row[(cycle % ii) as usize].push((op, cycle / ii));
    }
    let rows: Vec<(u64, Vec<(usize, u64)>)> = (0..ii)
        .zip(by_row)
        .filter(|(_, members)| !members.is_empty())
        .collect();

    // a producer's instance must stay readable until every consumer of it
    // has issued: consumers lag by up to SC-1 pipeline stages plus the
    // dependence distance
    let mut rings = Rings::new(n_ops, sc + max_dist + 2);

    // per-window counter marker (MemStats is Copy: a register snapshot,
    // not a structure clone)
    let mut window = *cache.stats();
    let mut delay: u64 = 0;
    let mut stall_by = StallBreakdown::default();
    let mut stall_by_op = vec![0.0f64; n_ops];
    let mut time_base: u64 = 0;

    let _sim_span = trace.span_with(
        "sim.loop",
        &[("ii", ii as f64), ("iters", sim_iters as f64)],
    );
    // stall-attribution accounting windows (traced measured pass only);
    // with tracing off the threshold parks at u64::MAX and the per-group
    // cost is one always-false compare
    let win_len = (ii * TRACE_WINDOW_IIS).max(1);
    let mut next_window = u64::MAX;
    let mut win_mark = StallBreakdown::default();
    let mut win_delay_mark: u64 = 0;

    let warmup = options.warmup_iterations.min(sim_iters);
    for measured in [false, true] {
        let iters = if measured { sim_iters } else { warmup };
        if iters == 0 {
            continue;
        }
        if measured && trace.on() {
            next_window = time_base + win_len;
            win_mark = stall_by.clone();
            win_delay_mark = 0;
        }
        delay = 0;

        for k in 0..iters + sc - 1 {
            for (r, members) in &rows {
                // the group: row members whose iteration k − stage is live
                let group = members
                    .iter()
                    .filter(|&&(_, stage)| stage <= k && k - stage < iters)
                    .map(|&(op, stage)| (op, k - stage));
                let nominal = time_base + k * ii + r;

                // phase 1: the group's issue time is gated by its least-ready operand
                let scheduled_issue = nominal + delay;
                let mut required = scheduled_issue;
                let mut cause: Option<(usize, LateCause)> = None;
                let mut issues = false;
                for (op, iter) in group.clone() {
                    issues = true;
                    let plan = &plans[op];
                    for operand in &operands[plan.first..plan.end] {
                        if operand.distance > iter {
                            continue; // produced before the loop: live-in, ready
                        }
                        let p = operand.producer;
                        let at = rings.index(p, iter - operand.distance);
                        let mut arrival = rings.ready[at];
                        if let Some(rel) = operand.rel_copy {
                            let copy_issue = rings.issued[at] + rel;
                            arrival = arrival.max(copy_issue) + transfer;
                        }
                        if arrival > required {
                            required = arrival;
                            cause = Some((p, rings.cause[at]));
                        }
                    }
                }
                if !issues {
                    continue;
                }
                if required > scheduled_issue {
                    let stall = required - scheduled_issue;
                    delay += stall;
                    if let Some((p, klass)) = cause {
                        if !measured {
                            // warm-up pass: timing advances, nothing is recorded
                        } else {
                            stall_by_op[p] += stall as f64;
                            match klass {
                                Some((c, combined, mshr_delay)) => {
                                    // back-pressure contributed at most its own
                                    // waiting time to this stall; the rest is
                                    // the access class (or the merged request)
                                    let d = (mshr_delay as f64).min(stall as f64);
                                    stall_by.mshr_full += d;
                                    let rest = stall as f64 - d;
                                    if combined {
                                        stall_by.combined += rest;
                                    } else {
                                        stall_by.by_class[c.index()] += rest;
                                    }
                                }
                                // non-memory producers only run late through copy
                                // timing; book those rare cycles as local hits
                                None => stall_by.by_class[0] += stall as f64,
                            }
                        }
                    }
                }
                let issue_abs = nominal + delay;
                if issue_abs >= next_window {
                    emit_sim_window(
                        trace,
                        issue_abs,
                        &stall_by,
                        &mut win_mark,
                        delay,
                        &mut win_delay_mark,
                    );
                    next_window = issue_abs + win_len;
                }

                // phase 2: issue every member (clusters issue in index order)
                for (op, iter) in group {
                    let at = rings.index(op, iter);
                    rings.issued[at] = issue_abs;
                    let plan = &plans[op];
                    if let Some(template) = plan.access {
                        let out = cache.access(AccessRequest {
                            addr: addresses(OpId::new(op), iter),
                            now: issue_abs,
                            ..template
                        });
                        rings.ready[at] = out.ready_at;
                        rings.cause[at] = Some((out.class, out.combined, out.mshr_delay));
                    } else {
                        rings.ready[at] = issue_abs + plan.latency;
                        rings.cause[at] = None;
                    }
                }
            }
        }

        if measured && trace.on() {
            // flush the final partial window
            let end = time_base + (iters + sc) * ii + delay;
            emit_sim_window(
                trace,
                end,
                &stall_by,
                &mut win_mark,
                delay,
                &mut win_delay_mark,
            );
            next_window = u64::MAX;
        }

        // advance time past this pass and flush the Attraction Buffers
        // (the paper flushes them whenever a loop finishes)
        time_base += (iters + sc) * ii + delay + 1;
        cache.flush_loop_boundary();
        if !measured {
            window = *cache.stats();
        }
    }

    // isolate the measured pass's accesses from the running totals
    let mem = cache.stats().diff(&window);

    let compute = ((sim_iters + sc - 1) * ii) as f64 * scale;
    let stall = delay as f64 * scale;
    LoopSimResult {
        sim_iterations: sim_iters,
        scale,
        compute_cycles: compute,
        stall_cycles: stall,
        stall_by: stall_by.scaled(scale),
        stall_by_op: stall_by_op.iter().map(|&x| x * scale).collect(),
        mem,
    }
}

/// Emits one `sim.window` instant carrying the stall deltas accumulated
/// since the previous window mark, then advances the marks.
fn emit_sim_window(
    trace: Trace<'_>,
    t: u64,
    total: &StallBreakdown,
    mark: &mut StallBreakdown,
    delay: u64,
    delay_mark: &mut u64,
) {
    trace.instant(
        "sim.window",
        &[
            ("t", t as f64),
            ("stall", (delay - *delay_mark) as f64),
            ("local_hit", total.by_class[0] - mark.by_class[0]),
            ("remote_hit", total.by_class[1] - mark.by_class[1]),
            ("local_miss", total.by_class[2] - mark.by_class[2]),
            ("remote_miss", total.by_class[3] - mark.by_class[3]),
            ("combined", total.combined - mark.combined),
            ("mshr_full", total.mshr_full - mark.mshr_full),
        ],
    );
    *mark = total.clone();
    *delay_mark = delay;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile, Opcode};
    use vliw_mem::build_cache;
    use vliw_sched::{schedule_outcome, ClusterPolicy, ScheduleOptions};

    fn sim(
        kernel: &LoopKernel,
        machine: &MachineConfig,
        policy: ClusterPolicy,
        cap: u64,
    ) -> (Schedule, LoopSimResult) {
        let schedule = schedule_outcome(kernel, machine, ScheduleOptions::new(policy))
            .unwrap()
            .schedule;
        assert!(schedule.verify(kernel, machine).is_empty());
        let mut cache = build_cache(machine);
        let hints = AttractionHints::allow_all(kernel);
        let kernel2 = kernel.clone();
        let mut addr = move |op: OpId, iter: u64| -> u64 {
            let m = kernel2.op(op).mem.as_ref().unwrap();
            (m.offset + m.stride.unwrap_or(0) * iter as i64) as u64
        };
        let r = simulate_loop(
            kernel,
            &schedule,
            machine,
            cache.as_mut(),
            &mut addr,
            &hints,
            &SimOptions {
                iteration_cap: cap,
                warmup_iterations: 0,
            },
        );
        (schedule, r)
    }

    /// A loop whose accesses all stay in their home cluster (stride = N×I,
    /// ops pinned to the preferred cluster) and whose loads carry the
    /// remote-miss latency promise: nothing can run late, zero stall.
    #[test]
    fn overprovisioned_latency_never_stalls() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 8192, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 16, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4096, 16, 4, w);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(st, MemProfile::concentrated(1.0, 0, 4));
        let k = b.finish(128.0);
        let m = MachineConfig::word_interleaved_4();
        let (s, r) = sim(&k, &m, ClusterPolicy::NoChains, 128);
        // loads assumed at remote-miss latency: no promise can be broken
        assert_eq!(s.op(OpId::new(0)).assumed_latency, 15);
        assert_eq!(s.op(OpId::new(0)).cluster, 0, "pinned to its home cluster");
        assert_eq!(r.stall_cycles, 0.0);
        let expected = (128 + s.stage_count() as u64 - 1) * s.ii as u64;
        assert!((r.compute_cycles - expected as f64).abs() < 1e-9);
    }

    /// A recurrence forces the load to the local-hit latency; make its
    /// addresses remote (stride walks other clusters) and stalls appear.
    #[test]
    fn broken_promises_stall_and_attribute() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 8192, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4096, 4, 4, w);
        b.mem_dep(st, ld, vliw_ir::DepKind::MemFlow, 1);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        let k = b.finish(256.0);
        let m = MachineConfig::word_interleaved_4();
        let (s, r) = sim(&k, &m, ClusterPolicy::PreBuildChains, 256);
        // the recurrence forced an optimistic latency on the load
        assert!(s.op(OpId::new(0)).assumed_latency < 15);
        // a 4-byte stride visits all four clusters: 3 in 4 accesses are
        // remote -> the too-optimistic promise breaks and the core stalls
        assert!(r.stall_cycles > 0.0, "remote accesses must stall");
        assert!(r.stall_by.total() > 0.0);
        assert!(
            r.stall_by.of(AccessClass::RemoteHit) + r.stall_by.of(AccessClass::RemoteMiss) > 0.0,
            "stall attributed to remote accesses"
        );
        // attribution identifies the load as the culprit
        assert!(r.stall_by_op[0] > 0.0);
        assert_eq!(r.stall_by_op[1], 0.0);
    }

    #[test]
    fn scaling_extrapolates_cycles() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 512, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 256, 4, 4, v);
        let k = b.finish(10_000.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 100);
        assert_eq!(r.sim_iterations, 100);
        assert!((r.scale - 100.0).abs() < 1e-9);
        // compute per simulated iteration times the scale
        assert!(r.compute_cycles > 9_000.0);
    }

    #[test]
    fn stores_never_stall_consumers() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 512, ArrayKind::Global);
        let (_, c) = b.int_const("c");
        b.store("st", a, 0, 4, 4, c);
        let k = b.finish(64.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 64);
        assert_eq!(r.stall_cycles, 0.0);
    }

    #[test]
    fn mem_stats_cover_all_accesses() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 2048, ArrayKind::Global);
        let (_, v) = b.load("ld1", a, 0, 4, 4);
        let (_, w) = b.load("ld2", a, 1024, 4, 4);
        let (_, x) = b.int_op("add", Opcode::Add, &[v.into(), w.into()]);
        b.store("st", a, 512, 4, 4, x);
        let k = b.finish(50.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 50);
        assert_eq!(r.mem.total(), 3 * 50);
    }
}
