//! The experiment pipeline: profile → unroll → schedule → simulate.

use std::sync::Arc;

use vliw_ir::{unroll, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_mem::build_cache;
use vliw_sched::{
    attraction_hints, schedule_outcome_traced, unroll_candidates, AttractionHints, ClusterPolicy,
    EnumLimits, FallbackPolicy, SchedBackend, SchedQuality, Schedule, ScheduleError,
    ScheduleOptions, UnrollChoice,
};
use vliw_sim::{simulate_loop_traced, LoopSimResult, SimOptions};
use vliw_trace::Trace;
use vliw_workloads::{
    profile_kernel, suite, synthesize, ArrayLayout, BenchmarkModel, ProfileOptions, WorkloadConfig,
    SUITE_NAMES,
};

use crate::schedcache::{CacheKey, ProfileMemo, SchedCache};

/// How loops are unrolled in an experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnrollMode {
    /// No unrolling (factor 1).
    NoUnroll,
    /// Always the optimal unrolling factor.
    Ouf,
    /// The paper's selective unrolling: evaluate no-unroll / ×N / OUF and
    /// keep the variant with the lowest `Texec` estimate.
    Selective,
}

/// Which of the three cache organizations a run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchVariant {
    /// The word-interleaved distributed cache.
    WordInterleaved,
    /// The multiVLIW (coherent per-cluster caches).
    MultiVliw,
    /// The unified cache at the given access latency (1 or 5).
    Unified(u32),
}

/// Where the per-load profiles the scheduler consumes come from — the
/// feedback-directed axis of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileSource {
    /// No profile information at all: loads carry no hit rates, no
    /// preferred clusters. The ablation measuring what profiling buys.
    None,
    /// The functional-cache profiling pass (`vliw-workloads`): timeless
    /// hit/miss replay of the profile input. The default.
    Synthetic,
    /// Retired: profiles measured in the timing simulator (DESIGN.md,
    /// "Retired: measured profiles"); preparing under it panics. The
    /// variant stays, last so every other discriminant and cache key is
    /// unchanged, only because the frozen perfbench replica matches on it.
    Measured,
}

/// One experiment configuration: architecture, scheduling policy,
/// unrolling, alignment and Attraction Buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Target cache organization.
    pub arch: ArchVariant,
    /// Cluster-assignment policy (IPBC / IBC / no-chains / BASE).
    pub policy: ClusterPolicy,
    /// Scheduler backend (the paper's heuristic pipeline or the exact
    /// branch-and-bound reference).
    pub backend: SchedBackend,
    /// Where the per-load profiles the scheduler consumes come from.
    pub source: ProfileSource,
    /// Unrolling mode.
    pub unroll: UnrollMode,
    /// Variable alignment (§4.3.4 padding) on or off.
    pub padding: bool,
    /// Attraction Buffers `(entries, associativity)`, word-interleaved only.
    pub attraction_buffers: Option<(usize, usize)>,
    /// Whether the §5.2 compiler hints gate buffer allocation.
    pub use_hints: bool,
}

impl RunConfig {
    /// The paper's headline interleaved configuration: IPBC, selective
    /// unrolling, alignment, no buffers.
    pub fn ipbc() -> Self {
        RunConfig {
            arch: ArchVariant::WordInterleaved,
            policy: ClusterPolicy::PreBuildChains,
            backend: SchedBackend::SwingModulo,
            source: ProfileSource::Synthetic,
            unroll: UnrollMode::Selective,
            padding: true,
            attraction_buffers: None,
            use_hints: false,
        }
    }

    /// IBC, selective unrolling, alignment, no buffers.
    pub fn ibc() -> Self {
        RunConfig {
            policy: ClusterPolicy::BuildChains,
            ..Self::ipbc()
        }
    }

    /// The multiVLIW bar of Figure 8 (scheduled with IBC, as in §5.1).
    pub fn multivliw() -> Self {
        RunConfig {
            arch: ArchVariant::MultiVliw,
            policy: ClusterPolicy::BuildChains,
            ..Self::ipbc()
        }
    }

    /// A unified-cache bar (BASE scheduling) at the given latency.
    pub fn unified(latency: u32) -> Self {
        RunConfig {
            arch: ArchVariant::Unified(latency),
            policy: ClusterPolicy::Free,
            ..Self::ipbc()
        }
    }

    /// Adds 16-entry 2-way Attraction Buffers.
    pub fn with_buffers(mut self) -> Self {
        self.attraction_buffers = Some((16, 2));
        self
    }

    /// The same configuration routed through a different scheduler
    /// backend.
    pub fn with_backend(mut self, backend: SchedBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Scale knobs for the whole experiment suite.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The word-interleaved machine experiments derive variants from.
    pub machine: MachineConfig,
    /// Workload build configuration (seeds; padding is a per-run
    /// [`RunConfig::padding`]).
    pub workloads: WorkloadConfig,
    /// Simulated iterations per loop.
    pub sim: SimOptions,
    /// Profiled iterations per loop.
    pub profile: ProfileOptions,
    /// Benchmarks to run (subset of the suite for quick modes).
    pub benchmarks: Vec<String>,
    /// Circuit-enumeration caps passed to the scheduler.
    pub enum_limits: EnumLimits,
    /// Ignored; set only by the frozen perfbench replica, removed with the benchmark-edit change.
    #[doc(hidden)]
    pub delay_percentile: Option<f64>,
    /// Deterministic deadline for the exact backend (see
    /// [`ScheduleOptions::cost_ceiling`]): a hard node-count ceiling
    /// composed by `min` with the size-scaled node budget. Part of the
    /// schedule-cache key.
    pub cost_ceiling: Option<u64>,
    /// Ignored; set only by the frozen perfbench replica, removed with the benchmark-edit change.
    #[doc(hidden)]
    pub fallback: FallbackPolicy,
    /// Worker threads of the grid, batch and fault pools (one per core;
    /// `repro --serial` sets 1). Outputs do not depend on it, so it is
    /// not part of the schedule-cache key.
    pub workers: usize,
}

impl ExperimentContext {
    /// The full 14-benchmark context at paper scale.
    pub fn full() -> Self {
        ExperimentContext {
            machine: MachineConfig::word_interleaved_4(),
            workloads: WorkloadConfig::default(),
            sim: SimOptions {
                iteration_cap: 512,
                warmup_iterations: 256,
            },
            profile: ProfileOptions { iteration_cap: 256 },
            benchmarks: suite().iter().map(|s| s.name.to_string()).collect(),
            enum_limits: EnumLimits {
                max_circuits: 4000,
                max_len: 64,
            },
            delay_percentile: None,
            cost_ceiling: None,
            fallback: FallbackPolicy::Heuristic,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// A reduced context for tests: four representative benchmarks, short
    /// simulations.
    pub fn quick() -> Self {
        let mut ctx = Self::full();
        ctx.sim.iteration_cap = 96;
        ctx.profile.iteration_cap = 96;
        ctx.benchmarks = ["epicdec", "gsmdec", "jpegenc", "mpeg2dec"]
            .into_iter()
            .map(String::from)
            .collect();
        ctx
    }

    /// The benchmark models of this context, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if a name in [`ExperimentContext::benchmarks`] is not in the
    /// suite — a typo must fail loudly, not produce a shorter report.
    pub fn models(&self) -> Vec<BenchmarkModel> {
        if let Some(bad) = self
            .benchmarks
            .iter()
            .find(|b| !SUITE_NAMES.contains(&b.as_str()))
        {
            panic!("unknown benchmark '{bad}'");
        }
        suite()
            .iter()
            .filter(|s| self.benchmarks.iter().any(|b| b == s.name))
            .map(|s| synthesize(s, &self.workloads, &self.machine))
            .collect()
    }

    /// Builds the machine variant for a run configuration.
    pub fn machine_for(&self, cfg: &RunConfig) -> MachineConfig {
        match cfg.arch {
            ArchVariant::WordInterleaved => {
                let mut m = self.machine.clone();
                if let Some((entries, assoc)) = cfg.attraction_buffers {
                    m = m.with_attraction_buffers(entries, assoc);
                }
                m
            }
            ArchVariant::MultiVliw => MachineConfig::multi_vliw_4(),
            ArchVariant::Unified(lat) => MachineConfig::unified_4(lat),
        }
    }
}

/// A fully prepared (unrolled + profiled + scheduled) loop.
#[derive(Debug, Clone)]
pub struct PreparedLoop {
    /// The kernel actually scheduled (after unrolling), with profiles.
    pub kernel: LoopKernel,
    /// Its schedule.
    pub schedule: Schedule,
    /// The backend's quality claim for that schedule
    /// ([`SchedQuality::Heuristic`] for the paper pipeline; proven-optimal
    /// or counted-cutoff for the exact backend — never a silent
    /// fallback).
    pub quality: SchedQuality,
    /// Which unrolling variant won.
    pub choice: UnrollChoice,
    /// The unroll factor applied.
    pub factor: u32,
}

/// Profiles `kernel` in place on the *profile* input and returns it.
pub(crate) fn profiled(
    mut kernel: LoopKernel,
    machine: &MachineConfig,
    ctx: &ExperimentContext,
    padding: bool,
) -> LoopKernel {
    let layout = ArrayLayout::new(&kernel, machine, padding, ctx.workloads.profile_input);
    profile_kernel(&mut kernel, machine, &layout, &ctx.profile);
    kernel
}

/// `kernel` — the run's original unrolled by `factor` — synthetically
/// profiled, through `profiles` (a cache's variant-profile memo and the
/// run's key) when there is one.
fn synthetic_profile(
    kernel: LoopKernel,
    factor: u32,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    profiles: Option<(&ProfileMemo, &CacheKey)>,
) -> LoopKernel {
    let profile = |k| profiled(k, machine, ctx, cfg.padding);
    match profiles {
        Some((memo, key)) => memo.profiled(key, factor, kernel, profile),
        None => profile(kernel),
    }
}

/// Builds the unroll variants of one original kernel per a
/// configuration's profile source.
///
/// Synthetic profiles come from the schedule cache's variant-profile memo
/// when the builder is given one, so a cache profiles each variant once
/// whatever policies and unroll modes ask for it.
pub(crate) struct VariantBuilder<'a> {
    original: LoopKernel,
    machine: &'a MachineConfig,
    cfg: &'a RunConfig,
    ctx: &'a ExperimentContext,
    profiles: Option<(&'a ProfileMemo, &'a CacheKey)>,
}

impl<'a> VariantBuilder<'a> {
    /// Profiles `original` per the source axis and wraps it for variant
    /// building, drawing synthetic profiles from `profiles` when given.
    ///
    /// # Panics
    ///
    /// Panics under the retired `ProfileSource::Measured`.
    pub(crate) fn new(
        original: &LoopKernel,
        machine: &'a MachineConfig,
        cfg: &'a RunConfig,
        ctx: &'a ExperimentContext,
        profiles: Option<(&'a ProfileMemo, &'a CacheKey)>,
    ) -> Self {
        // hit rates steer the OUF analysis: profile the original first
        let original = match cfg.source {
            ProfileSource::None => original.clone(),
            ProfileSource::Synthetic => {
                synthetic_profile(original.clone(), 1, machine, cfg, ctx, profiles)
            }
            ProfileSource::Measured => panic!(
                "ProfileSource::Measured is retired (DESIGN.md, \"Retired: measured profiles\")"
            ),
        };
        VariantBuilder {
            original,
            machine,
            cfg,
            ctx,
            profiles,
        }
    }

    /// The (synthetically profiled) factor-1 kernel.
    pub(crate) fn original(&self) -> &LoopKernel {
        &self.original
    }

    /// One unrolled variant, synthetically profiled. Factor 1 is the
    /// original itself: unrolling by 1 copies it, and a synthetic profile
    /// depends only on the kernel's structure and the run's settings, so
    /// profiling it again would reproduce the profile it already carries.
    fn synthetic(&self, factor: u32) -> LoopKernel {
        if factor == 1 {
            return self.original.clone();
        }
        synthetic_profile(
            unroll(&self.original, factor),
            factor,
            self.machine,
            self.cfg,
            self.ctx,
            self.profiles,
        )
    }

    /// One unrolled variant's kernel, profiled per the source axis.
    pub(crate) fn build(&self, factor: u32) -> LoopKernel {
        match self.cfg.source {
            ProfileSource::None => unroll(&self.original, factor),
            // `new` refused the retired source
            _ => self.synthetic(factor),
        }
    }
}

/// The scheduler options a configuration resolves to.
pub(crate) fn schedule_options(cfg: &RunConfig, ctx: &ExperimentContext) -> ScheduleOptions {
    ScheduleOptions {
        enum_limits: ctx.enum_limits,
        backend: cfg.backend,
        cost_ceiling: ctx.cost_ceiling,
        ..ScheduleOptions::new(cfg.policy)
    }
}

/// The largest II at which a candidate of `avg_trip` iterations could
/// still beat an incumbent whose `Texec` is `incumbent` under
/// [`prepare_loop`]'s tie rule, or `None` when no II is ruled out.
///
/// A candidate wins only if `texec < bt·0.99 || (texec ≤ bt·1.01 && …)`,
/// so only if `texec ≤ bt·1.01` (for `bt ≥ 0`). Its `texec` is
/// [`Schedule::texec`] at a stage count of at least 1, and IEEE rounding
/// is monotone, so it is at least the same expression evaluated at stage
/// count 1 — `((avg_trip + 1) − 1)·II`, which grows with II. The answer
/// is the largest II where that lower bound still passes `≤ bt·1.01`,
/// evaluated in f64 exactly as the tie rule evaluates it.
fn texec_ceiling(avg_trip: f64, incumbent: f64) -> Option<u32> {
    let per_ii = avg_trip + 1.0 - 1.0;
    let limit = incumbent * 1.01;
    if !(per_ii > 0.0 && incumbent >= 0.0 && limit.is_finite()) {
        return None;
    }
    let texec_at = |ii: u32| per_ii * f64::from(ii);
    // the quotient lands within an II or two of the answer; step onto it
    let mut ii = (limit / per_ii).floor().min(f64::from(u32::MAX)) as u32;
    while ii < u32::MAX && texec_at(ii + 1) <= limit {
        ii += 1;
    }
    while ii > 0 && texec_at(ii) > limit {
        ii -= 1;
    }
    Some(ii)
}

/// Runs unrolling (per `cfg.unroll`), profiling and scheduling for one
/// original kernel. The work runs under a `prepare_loop` span on `trace`,
/// with one `unroll.variant` instant per candidate recording the factor,
/// II and Texec (both 0 when the candidate found no schedule), the II
/// ceiling it was scheduled under (0 = none) and whether it became the
/// incumbent.
///
/// Once an incumbent exists, the first-fit backend
/// ([`SchedBackend::SwingModulo`]: it returns the first II from the MII
/// upward that places) schedules a later candidate with
/// [`ScheduleOptions::max_ii`] set to the largest II that could still win
/// (`texec_ceiling`). Any II above it loses whatever
/// its schedule, and every II up to it is searched exactly as before, so
/// the chosen variant is the one an uncapped search chooses.
/// [`SchedBackend::ExactBnB`] is never capped: its adaptive node budget
/// scales with the II range.
///
/// # Errors
///
/// Propagates scheduling failures (pathological kernels only).
pub fn prepare_loop(
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> Result<PreparedLoop, ScheduleError> {
    prepare_with_profiles(original, machine, cfg, ctx, None, trace)
}

/// [`prepare_loop`], its synthetic profiles drawn from `profiles` (a
/// schedule cache's variant-profile memo and the request's key) when
/// given — the schedule cache's default fill.
///
/// # Errors
///
/// As [`prepare_loop`].
pub(crate) fn prepare_with_profiles(
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    profiles: Option<(&ProfileMemo, &CacheKey)>,
    trace: Trace<'_>,
) -> Result<PreparedLoop, ScheduleError> {
    let _loop_span = trace.span("prepare_loop");
    let opts = schedule_options(cfg, ctx);
    let builder = VariantBuilder::new(original, machine, cfg, ctx, profiles);
    let ouf = vliw_sched::optimal_unroll_factor(builder.original(), machine);
    let candidates: Vec<(UnrollChoice, u32)> = match cfg.unroll {
        UnrollMode::NoUnroll => vec![(UnrollChoice::None, 1)],
        UnrollMode::Ouf => vec![(UnrollChoice::Ouf, ouf)],
        UnrollMode::Selective => unroll_candidates(builder.original(), machine),
    };
    let first_fit = opts.backend == SchedBackend::SwingModulo;
    let variant_instant = |factor: u32, ceiling: Option<u32>, ii: u32, texec: f64, best: bool| {
        if trace.on() {
            trace.instant(
                "unroll.variant",
                &[
                    ("factor", f64::from(factor)),
                    ("ii", f64::from(ii)),
                    ("texec", texec),
                    ("ceiling", f64::from(ceiling.unwrap_or(0))),
                    ("best", if best { 1.0 } else { 0.0 }),
                ],
            );
        }
    };
    let mut best: Option<PreparedLoop> = None;
    let mut last_err = None;
    for (choice, factor) in candidates {
        let kernel = builder.build(factor);
        let ceiling = match &best {
            Some(b) if first_fit => {
                texec_ceiling(kernel.avg_trip, b.schedule.texec(b.kernel.avg_trip))
            }
            _ => None,
        };
        let capped = ScheduleOptions {
            max_ii: ceiling,
            ..opts
        };
        // an unschedulable variant is simply not a candidate (giant pinned
        // chains after deep unrolling can defeat the no-backtracking
        // scheduler), and neither is one with no schedule under its
        // ceiling, which could not have won; factor 1 virtually always
        // schedules
        let outcome = match schedule_outcome_traced(&kernel, machine, capped, trace) {
            Ok(o) => o,
            Err(e) => {
                variant_instant(factor, ceiling, 0, 0.0, false);
                last_err = Some(e);
                continue;
            }
        };
        let (schedule, quality) = (outcome.schedule, outcome.quality);
        let texec = schedule.texec(kernel.avg_trip);
        // Texec ignores stall time, so near-ties are common between the
        // unrolled variants and factor 1. Within 1%, prefer the OUF factor
        // (that is where the locality is), then the smaller factor —
        // unrolling past the OUF buys nothing and multiplies chains.
        let rank = |f: u32| (f == ouf, std::cmp::Reverse(f));
        let better = match &best {
            None => true,
            Some(b) => {
                let bt = b.schedule.texec(b.kernel.avg_trip);
                texec < bt * 0.99 || (texec <= bt * 1.01 && rank(factor) > rank(b.factor))
            }
        };
        variant_instant(factor, ceiling, schedule.ii, texec, better);
        if better {
            best = Some(PreparedLoop {
                kernel,
                schedule,
                quality,
                choice,
                factor,
            });
        }
    }
    match best {
        Some(b) => Ok(b),
        // the Ouf-only mode's single candidate failed: fall back to
        // factor 1, which the other modes have already tried
        None if matches!(cfg.unroll, UnrollMode::Ouf) => {
            let kernel = builder.build(1);
            let outcome = schedule_outcome_traced(&kernel, machine, opts, trace)
                .map_err(|_| last_err.expect("at least one failure recorded"))?;
            Ok(PreparedLoop {
                kernel,
                schedule: outcome.schedule,
                quality: outcome.quality,
                choice: UnrollChoice::None,
                factor: 1,
            })
        }
        None => Err(last_err.expect("at least one failure recorded")),
    }
}

/// The outcome of one loop under one configuration.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Loop name.
    pub name: String,
    /// Aggregation weight (dynamic operations).
    pub weight: f64,
    /// The prepared loop (kernel + schedule), possibly shared with other
    /// runs through a [`SchedCache`].
    pub prepared: Arc<PreparedLoop>,
    /// Simulation result (cycles, stalls, access mix).
    pub sim: LoopSimResult,
}

/// The outcome of a whole benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: String,
    /// Per-loop outcomes.
    pub loops: Vec<LoopRun>,
}

impl BenchRun {
    /// Total scaled cycles (compute + stall).
    pub fn total_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.total_cycles()).sum()
    }

    /// Total scaled compute cycles.
    pub fn compute_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.compute_cycles).sum()
    }

    /// Total scaled stall cycles.
    pub fn stall_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.stall_cycles).sum()
    }

    /// Scaled access-class counts `[LH, RH, LM, RM, combined]`.
    pub fn access_mix(&self) -> [f64; 5] {
        use vliw_machine::AccessClass as C;
        let mut out = [0.0; 5];
        for l in &self.loops {
            let s = &l.sim.mem;
            let w = l.sim.scale;
            out[0] += s.count(C::LocalHit) as f64 * w;
            out[1] += s.count(C::RemoteHit) as f64 * w;
            out[2] += s.count(C::LocalMiss) as f64 * w;
            out[3] += s.count(C::RemoteMiss) as f64 * w;
            out[4] += s.combined() as f64 * w;
        }
        out
    }

    /// Scaled stall breakdown summed over loops.
    pub fn stall_breakdown(&self) -> vliw_sim::StallBreakdown {
        let mut out = vliw_sim::StallBreakdown::default();
        for l in &self.loops {
            out.merge(&l.sim.stall_by);
        }
        out
    }

    /// Weighted workload balance over loops.
    pub fn workload_balance(&self, n_clusters: usize) -> f64 {
        vliw_sched::weighted_workload_balance(
            self.loops
                .iter()
                .map(|l| (l.weight, l.prepared.schedule.workload_balance(n_clusters))),
        )
    }
}

/// Runs one benchmark model under one configuration: prepares every loop
/// and simulates it on the *execution* input. An optional shared
/// [`SchedCache`] lets grids sweeping buffer/hint axes schedule each loop
/// once per distinct preparation key; results are identical with or
/// without it.
pub fn run_benchmark_memo(
    model: &BenchmarkModel,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    memo: Option<&SchedCache>,
) -> BenchRun {
    let machine = ctx.machine_for(cfg);
    let mut loops = Vec::new();
    for lw in &model.loops {
        let prepared = match memo {
            Some(m) => m.prepare(&lw.kernel, &machine, cfg, ctx),
            None => prepare_loop(&lw.kernel, &machine, cfg, ctx, Trace::off()).map(Arc::new),
        };
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                // pathological loop: report and skip rather than abort the
                // whole benchmark
                eprintln!("warning: skipping {}: {e}", lw.kernel.name);
                continue;
            }
        };
        let sim = simulate_prepared(&prepared, &machine, cfg, ctx, Trace::off());
        loops.push(LoopRun {
            name: prepared.kernel.name.clone(),
            weight: prepared.kernel.dynamic_ops(),
            prepared,
            sim,
        });
    }
    BenchRun {
        name: model.name.clone(),
        loops,
    }
}

/// Simulates one prepared loop on the *execution* input under `cfg`'s
/// hints and alignment, with `trace` attached to the simulator.
pub(crate) fn simulate_prepared(
    prepared: &PreparedLoop,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> LoopSimResult {
    let hints = if cfg.use_hints {
        attraction_hints(&prepared.kernel, &prepared.schedule, machine)
    } else {
        AttractionHints::allow_all(&prepared.kernel)
    };
    let layout = ArrayLayout::new(
        &prepared.kernel,
        machine,
        cfg.padding,
        ctx.workloads.exec_input,
    );
    let mut cache = build_cache(machine);
    let mut addresses =
        |op: OpId, iter: u64| vliw_workloads::address_for(&prepared.kernel, &layout, op, iter);
    simulate_loop_traced(
        &prepared.kernel,
        &prepared.schedule,
        machine,
        cache.as_mut(),
        &mut addresses,
        &hints,
        &ctx.sim,
        trace,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;
    use vliw_ir::kernel_fingerprint;
    use vliw_sched::schedule_outcome;
    use vliw_trace::RecordingSink;

    #[test]
    fn ceiling_keeps_the_exact_boundary_and_cuts_one_ii_more() {
        let bt = 100.0;
        assert_eq!(bt * 1.01, 101.0, "the tie rule's bound is exact here");
        for (avg_trip, ii) in [(1.0, 101), (25.25, 4), (20.2, 5), (0.5, 202)] {
            // avg_trip · ii lands exactly on bt · 1.01: kept; ii + 1: cut
            assert_eq!(avg_trip * f64::from(ii), 101.0);
            assert_eq!(texec_ceiling(avg_trip, bt), Some(ii), "{avg_trip}");
        }
    }

    #[test]
    fn ceiling_is_absent_without_a_usable_bound() {
        assert_eq!(texec_ceiling(0.0, 100.0), None);
        assert_eq!(texec_ceiling(f64::NAN, 100.0), None);
        assert_eq!(texec_ceiling(4.0, f64::INFINITY), None);
        assert_eq!(texec_ceiling(4.0, -1.0), None);
        // an incumbent below one II's worth of iterations rules out all
        assert_eq!(texec_ceiling(100.0, 10.0), Some(0));
        // a huge bound saturates instead of wrapping
        assert_eq!(texec_ceiling(1.0, 1e300), Some(u32::MAX));
        // an iteration count lost to rounding in `Schedule::texec`
        // (`(1e-300 + 1) − 1 == 0`) bounds nothing
        assert_eq!(texec_ceiling(1e-300, 1e300), None);
    }

    #[test]
    fn ceiling_never_cuts_an_ii_that_could_win() {
        // every II at or under the ceiling passes the tie rule's `≤ bt·1.01`
        // at stage count 1; the next one fails it at any stage count
        for &avg_trip in &[0.1, 1.0 / 3.0, 7.0, 12.75, 64.0, 1000.3] {
            for &bt in &[0.0, 1.0, 33.3, 100.0, 4096.5, 1e6 / 7.0] {
                let c = texec_ceiling(avg_trip, bt).unwrap();
                let texec = |ii: u32, sc: u32| (avg_trip + f64::from(sc) - 1.0) * f64::from(ii);
                assert!(c == 0 || texec(c, 1) <= bt * 1.01, "{avg_trip} {bt}");
                for sc in [1, 2, 9] {
                    assert!(texec(c + 1, sc) > bt * 1.01, "{avg_trip} {bt} {sc}");
                }
            }
        }
    }

    /// The selection [`prepare_loop`] makes, without the II ceiling: every
    /// candidate scheduled by `schedule_outcome` over its full II range
    /// and kept under the same tie rule. Also returns each candidate's
    /// factor and uncapped II (`None`: no II up to `2 × MII + 96` fits).
    fn uncapped_reference(
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> (PreparedLoop, Vec<(u32, Option<u32>)>) {
        let opts = schedule_options(cfg, ctx);
        let builder = VariantBuilder::new(original, machine, cfg, ctx, None);
        let ouf = vliw_sched::optimal_unroll_factor(builder.original(), machine);
        let mut best: Option<PreparedLoop> = None;
        let mut tried = Vec::new();
        for (choice, factor) in unroll_candidates(builder.original(), machine) {
            let kernel = builder.build(factor);
            let outcome = schedule_outcome(&kernel, machine, opts);
            tried.push((factor, outcome.as_ref().ok().map(|o| o.schedule.ii)));
            let Ok(o) = outcome else { continue };
            let texec = o.schedule.texec(kernel.avg_trip);
            let rank = |f: u32| (f == ouf, std::cmp::Reverse(f));
            let better = best.as_ref().is_none_or(|b| {
                let bt = b.schedule.texec(b.kernel.avg_trip);
                texec < bt * 0.99 || (texec <= bt * 1.01 && rank(factor) > rank(b.factor))
            });
            if better {
                best = Some(PreparedLoop {
                    kernel,
                    schedule: o.schedule,
                    quality: o.quality,
                    choice,
                    factor,
                });
            }
        }
        let best = best.unwrap_or_else(|| {
            let kernel = builder.build(1);
            let o = schedule_outcome(&kernel, machine, opts).unwrap();
            PreparedLoop {
                kernel,
                schedule: o.schedule,
                quality: o.quality,
                choice: UnrollChoice::None,
                factor: 1,
            }
        });
        (best, tried)
    }

    fn assert_same_loop(got: &PreparedLoop, want: &PreparedLoop, what: &str) {
        assert_eq!(got.choice, want.choice, "{what}");
        assert_eq!(got.factor, want.factor, "{what}");
        assert_eq!(got.quality, want.quality, "{what}");
        assert_eq!(
            got.schedule.to_compact_text(),
            want.schedule.to_compact_text(),
            "{what}"
        );
        assert_eq!(
            kernel_fingerprint(&got.kernel),
            kernel_fingerprint(&want.kernel),
            "{what}"
        );
    }

    /// The `unroll.variant` instants of one traced `prepare_loop` call, as
    /// `(factor, ii, ceiling)`.
    fn traced_variants(
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> (PreparedLoop, Vec<(u32, u32, u32)>) {
        let sink = RecordingSink::logical();
        let got = prepare_loop(original, machine, cfg, ctx, Trace::new(&sink)).unwrap();
        let arg = |e: &vliw_trace::RecordedEvent, k: &str| {
            e.args.iter().find(|(n, _)| n == k).unwrap().1 as u32
        };
        let variants = sink
            .events()
            .iter()
            .filter(|e| e.name == "unroll.variant")
            .map(|e| (arg(e, "factor"), arg(e, "ii"), arg(e, "ceiling")))
            .collect();
        (got, variants)
    }

    #[test]
    fn ceiling_leaves_every_selective_choice_unchanged() {
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        let mut capped_out = 0;
        for policy in ClusterPolicy::ALL {
            let cfg = RunConfig {
                policy,
                ..RunConfig::ipbc()
            };
            let machine = ctx.machine_for(&cfg);
            for lw in models.iter().flat_map(|m| &m.loops) {
                let what = format!("{} {policy:?}", lw.kernel.name);
                let (got, variants) = traced_variants(&lw.kernel, &machine, &cfg, &ctx);
                let (want, tried) = uncapped_reference(&lw.kernel, &machine, &cfg, &ctx);
                assert_same_loop(&got, &want, &what);
                // one instant per candidate, and a capped candidate
                // either matches its uncapped II or found none
                assert_eq!(variants.len(), tried.len(), "{what}");
                for ((factor, ii, ceiling), (f, uncapped)) in variants.iter().zip(&tried) {
                    assert_eq!(factor, f, "{what}");
                    match uncapped {
                        Some(u) if *ii != 0 => assert_eq!(ii, u, "{what}"),
                        Some(u) => {
                            assert!(*ceiling != 0 && u > ceiling, "{what}");
                            capped_out += 1;
                        }
                        None => assert_eq!(*ii, 0, "{what}"),
                    }
                }
            }
        }
        assert!(capped_out > 0, "the ceiling never cut a candidate");
    }

    #[test]
    fn ceiling_stops_a_candidate_that_exhausts_the_ii_range() {
        // epicdec_l5 unrolled ×8: a distance-0 path squeezes an op's window
        // shut at every II, so the uncapped search walks all of them
        let ctx = ExperimentContext::full();
        let model = ctx
            .models()
            .into_iter()
            .find(|m| m.name == "epicdec")
            .unwrap();
        let lw = model
            .loops
            .iter()
            .find(|l| l.kernel.name == "epicdec_l5")
            .unwrap();
        let mut seen = 0;
        for policy in ClusterPolicy::ALL {
            let cfg = RunConfig {
                policy,
                ..RunConfig::ipbc()
            };
            let machine = ctx.machine_for(&cfg);
            let (want, tried) = uncapped_reference(&lw.kernel, &machine, &cfg, &ctx);
            let exhausted = tried.iter().any(|(f, ii)| *f == 8 && ii.is_none());
            if !exhausted {
                continue;
            }
            seen += 1;
            let (got, variants) = traced_variants(&lw.kernel, &machine, &cfg, &ctx);
            assert_same_loop(&got, &want, &format!("{policy:?}"));
            let (_, ii, ceiling) = variants.iter().find(|(f, _, _)| *f == 8).unwrap();
            assert_eq!(*ii, 0, "{policy:?}: the ×8 candidate still fails");
            assert!(*ceiling > 0, "{policy:?}: it failed under a ceiling");
        }
        assert!(seen > 0, "epicdec_l5 ×8 no longer exhausts the II range");
    }

    #[test]
    fn factor_one_variant_is_the_profiled_original() {
        // the builder serves its profiled original as the factor-1
        // variant; profiling that again must reproduce it exactly
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        for padding in [false, true] {
            let cfg = RunConfig {
                padding,
                ..RunConfig::ipbc()
            };
            let machine = ctx.machine_for(&cfg);
            for lw in models.iter().flat_map(|m| &m.loops) {
                let builder = VariantBuilder::new(&lw.kernel, &machine, &cfg, &ctx, None);
                let again = profiled(unroll(builder.original(), 1), &machine, &ctx, padding);
                assert_eq!(builder.build(1), again, "{}", lw.kernel.name);
            }
        }
    }

    #[test]
    fn quick_context_prepares_and_runs_a_benchmark() {
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        assert_eq!(models.len(), 4);
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let run = run_benchmark_memo(gsm, &RunConfig::ipbc(), &ctx, None);
        assert_eq!(run.loops.len(), gsm.loops.len(), "no loop skipped");
        assert!(run.total_cycles() > 0.0);
        let mix = run.access_mix();
        assert!(mix.iter().sum::<f64>() > 0.0);
        // every schedule is legal
        let m = ctx.machine_for(&RunConfig::ipbc());
        for l in &run.loops {
            assert!(l
                .prepared
                .schedule
                .verify(&l.prepared.kernel, &m)
                .is_empty());
        }
    }

    #[test]
    fn backends_never_share_a_memo_slot() {
        // same loop, same cell, two backends: the memo must keep two
        // entries and serve zero cross-backend hits
        let mut ctx = ExperimentContext::quick();
        ctx.profile.iteration_cap = 32;
        let models = ctx.models();
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let kernel = &gsm.loops[0].kernel;
        let swing = RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        let bnb = swing.with_backend(SchedBackend::ExactBnB);
        let machine = ctx.machine_for(&swing);
        let memo = SchedCache::new();
        let a = memo.prepare(kernel, &machine, &swing, &ctx).unwrap();
        let b = memo.prepare(kernel, &machine, &bnb, &ctx).unwrap();
        assert_eq!(memo.len(), 2, "one slot per backend");
        assert_eq!(memo.hits(), 0, "no cross-backend sharing");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.quality, SchedQuality::Heuristic);
        assert_ne!(b.quality, SchedQuality::Heuristic);
        // the exact backend never reports a worse II
        assert!(b.schedule.ii <= a.schedule.ii);
        // a repeat on either key is a hit on its own slot
        let a2 = memo.prepare(kernel, &machine, &swing, &ctx).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn profile_entries_are_shared_across_policies_and_unroll_modes_only() {
        // the variant-profile memo keys on (loop, environment, padding,
        // factor): other policies and unroll modes of a loop reuse its
        // entries, while another padding or arch profiles afresh
        let mut ctx = ExperimentContext::quick();
        ctx.profile.iteration_cap = 32;
        let models = ctx.models();
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let kernel = &gsm.loops[0].kernel;
        let entries = |memo: &SchedCache, cfg: &RunConfig| {
            memo.prepare(kernel, &ctx.machine_for(cfg), cfg, &ctx)
                .unwrap();
            memo.profiled_variants()
        };
        let base = RunConfig::ipbc();
        let memo = SchedCache::new();
        let own = entries(&memo, &base);
        assert!(own >= 2, "selective unrolling profiles factor 1 and more");
        for cfg in [
            RunConfig {
                policy: ClusterPolicy::BuildChains,
                ..base
            },
            RunConfig {
                policy: ClusterPolicy::Free,
                unroll: UnrollMode::NoUnroll,
                ..base
            },
            RunConfig {
                unroll: UnrollMode::Ouf,
                ..base
            },
        ] {
            assert_eq!(entries(&memo, &cfg), own, "{cfg:?} shares the entries");
        }
        assert_eq!(memo.len(), 4, "one schedule slot per configuration");
        let mut total = own;
        for cfg in [
            RunConfig {
                padding: false,
                ..base
            },
            RunConfig {
                arch: ArchVariant::MultiVliw,
                ..base
            },
            RunConfig {
                arch: ArchVariant::Unified(1),
                ..base
            },
            RunConfig {
                arch: ArchVariant::Unified(5),
                ..base
            },
        ] {
            // a fresh cache counts the configuration's own variants; the
            // shared one adds every one of them
            total += entries(&SchedCache::new(), &cfg);
            assert_eq!(entries(&memo, &cfg), total, "{cfg:?} shares no entry");
        }
        // no source at all profiles nothing
        let none = RunConfig {
            source: ProfileSource::None,
            ..base
        };
        assert_eq!(entries(&SchedCache::new(), &none), 0);
    }

    #[test]
    #[should_panic(expected = "ProfileSource::Measured is retired")]
    fn the_retired_measured_source_never_prepares() {
        let ctx = ExperimentContext::quick();
        let cfg = RunConfig {
            source: ProfileSource::Measured,
            ..RunConfig::ipbc()
        };
        let k = &ctx.models()[0].loops[0].kernel;
        let _ = prepare_loop(k, &ctx.machine, &cfg, &ctx, Trace::off());
    }

    #[test]
    fn unroll_modes_differ() {
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let machine = ctx.machine.clone();
        let base = RunConfig::ipbc();
        let no = RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..base
        };
        let ouf = RunConfig {
            unroll: UnrollMode::Ouf,
            ..base
        };
        let k = &gsm.loops[0].kernel;
        let p_no = prepare_loop(k, &machine, &no, &ctx, Trace::off()).unwrap();
        let p_ouf = prepare_loop(k, &machine, &ouf, &ctx, Trace::off()).unwrap();
        assert_eq!(p_no.factor, 1);
        assert!(p_ouf.factor >= 1);
        assert_eq!(p_ouf.kernel.ops.len(), k.ops.len() * p_ouf.factor as usize);
    }

    #[test]
    fn models_follow_suite_order() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["mpeg2dec".into(), "epicdec".into()];
        let names: Vec<String> = ctx.models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["epicdec", "mpeg2dec"]);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark 'gsmdecc'")]
    fn models_reject_an_unknown_benchmark() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks.push("gsmdecc".into());
        ctx.models();
    }
}
