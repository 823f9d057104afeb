//! The batch scheduling service: drain a large kernel×config request
//! queue through the schedule cache ([`SchedCache`]) with a pool of
//! workers, and prove the answers identical cold, warm and
//! reloaded-from-disk.
//!
//! The workload replicates the suite: every factor-1 loop of the context
//! is cloned into perturbed variants (fresh name → fresh array placement
//! and fingerprint; jittered trip count), and each variant is requested
//! under every §4 cluster policy × unroll mode — the shape of a
//! compiler-server clientele, thousands of near-duplicate jobs with a
//! long cost tail.
//!
//! Every pass drains the requests most-expensive-first (backend
//! [`cost_rank`](vliw_sched::SchedBackend::cost_rank), then dynamic
//! size): each worker claims the next request of that order from one
//! shared cursor (the crate's one worker pool, `grid::claim_loop`), so
//! the expensive head spreads over the workers and the cheap tail
//! back-fills them. Four passes over the *same* request list:
//!
//! 1. **cold serial** — fresh cache, one worker: the reference answers
//!    and the throughput floor;
//! 2. **cold parallel** — fresh cache, every worker;
//! 3. **warm memory** — the pass-2 cache drained again five times
//!    (`WARM_REPEATS`): every request is an in-memory hit (hit
//!    rate exactly 1.0), and the pass reports the median drain's time,
//!    since one drain takes a few milliseconds and host noise alone can
//!    halve its rate;
//! 4. **warm disk** — the cache is exported to a [`ScheduleStore`],
//!    reloaded through its text form, and a *fresh* cache backed by it
//!    drains the queue: no candidate scheduling, only rebuild+verify.
//!
//! Every drain folds its per-request schedule digests in request order,
//! whatever order they were answered in, into one fingerprint; all of
//! them must be bit-identical. The cold parallel pass also counts how often a
//! worker blocked on another's in-flight fill of the same cell. Last, each
//! request's [`CacheKey`] is computed alone on one thread and the median
//! time reported (`key_ns`): the hashing that is most of a warm hit.

use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use vliw_ir::{kernel_fingerprint, LoopKernel, StableHasher};
use vliw_sched::{ClusterPolicy, ScheduleError};
use vliw_trace::Trace;

use crate::context::{ExperimentContext, RunConfig, UnrollMode};
use crate::grid::claim_loop;
use crate::schedcache::{CacheKey, SchedCache, ScheduleStore};

/// How many times one request re-attempts a preparation whose previous
/// attempt panicked (the cache contains the panic and marks the slot
/// failed; the retry adopts and refills it). Transient faults — the
/// fault harness's once-per-generation panic shims, or a real bug tied
/// to lost in-memory state — heal within one retry; a deterministic
/// panic exhausts the retries and fails the request, never the worker.
pub(crate) const PANIC_RETRIES: u32 = 3;

/// One job: schedule `kernel` under `cfg`.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The (possibly perturbed) original kernel.
    pub kernel: LoopKernel,
    /// The configuration to prepare it under.
    pub cfg: RunConfig,
}

/// One timed drain of the queue.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Wall time of the drain.
    pub seconds: f64,
    /// Requests per second.
    pub per_sec: f64,
    /// The order-sensitive fold of all request digests.
    pub fingerprint: u64,
}

/// The whole batch study.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Requests drained per pass.
    pub requests: usize,
    /// Distinct cache keys the queue resolves to.
    pub unique_keys: usize,
    /// Distinct loop variants the cold parallel pass profiled: keys that
    /// differ only in policy or unroll mode share their variants'
    /// profiles.
    pub profiled_variants: usize,
    /// Perturbed variants per suite loop.
    pub variants: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Median wall time of one [`CacheKey::of`] over the queue, timed
    /// serially in nanoseconds: the hashing every cache request starts
    /// with, and most of a warm hit.
    pub key_ns: f64,
    /// Pass 1: cold, one worker.
    pub cold_serial: PassReport,
    /// Pass 2: cold, every worker.
    pub cold_parallel: PassReport,
    /// Pass 3: pass-2 cache drained again (all in-memory hits); the
    /// median of five drains.
    pub warm_mem: PassReport,
    /// Pass 4: fresh cache fed by the round-tripped store.
    pub warm_disk: PassReport,
    /// In-memory hit rate over every warm-memory drain (must be 1.0).
    pub warm_hit_rate: f64,
    /// Fraction of warm-disk requests served by store rebuilds.
    pub store_hit_rate: f64,
    /// Store entries rejected as stale in the warm-disk pass.
    pub store_stale: u64,
    /// Entries in the exported store.
    pub store_entries: usize,
    /// Whether the store's text form survived serialize → parse intact.
    pub store_roundtrip_ok: bool,
    /// What the passes' caches contained and their drains retried,
    /// caught and failed, and whether all their fingerprints agree.
    pub containment: Containment,
    /// Times a cold-parallel worker blocked on another's in-flight fill
    /// of the same cell.
    pub inflight_waits: u64,
}

impl BatchReport {
    /// Warm-memory throughput over cold parallel throughput — the
    /// headline "what does the cache buy a batch server" ratio.
    pub(crate) fn warm_over_cold(&self) -> f64 {
        self.warm_mem.per_sec / self.cold_parallel.per_sec
    }

    /// The `batch` metrics of `BENCH_repro.json`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b = |x: bool| if x { 1.0 } else { 0.0 };
        let mut m = vec![
            ("requests".into(), self.requests as f64),
            ("unique_keys".into(), self.unique_keys as f64),
            ("profiled_variants".into(), self.profiled_variants as f64),
            ("variants".into(), self.variants as f64),
            ("workers".into(), self.workers as f64),
            ("key_ns".into(), self.key_ns),
            ("cold_serial_seconds".into(), self.cold_serial.seconds),
            ("cold_serial_per_sec".into(), self.cold_serial.per_sec),
            ("cold_seconds".into(), self.cold_parallel.seconds),
            ("cold_schedules_per_sec".into(), self.cold_parallel.per_sec),
            ("warm_seconds".into(), self.warm_mem.seconds),
            ("warm_schedules_per_sec".into(), self.warm_mem.per_sec),
            ("warm_hit_rate".into(), self.warm_hit_rate),
            ("warm_over_cold".into(), self.warm_over_cold()),
            ("disk_seconds".into(), self.warm_disk.seconds),
            ("disk_schedules_per_sec".into(), self.warm_disk.per_sec),
            ("store_hit_rate".into(), self.store_hit_rate),
            ("store_stale".into(), self.store_stale as f64),
            ("store_entries".into(), self.store_entries as f64),
            ("store_roundtrip_ok".into(), b(self.store_roundtrip_ok)),
        ];
        m.extend(self.containment.metrics());
        m.push(("inflight_waits".into(), self.inflight_waits as f64));
        m
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.containment;
        writeln!(
            f,
            "batch: {} requests ({} unique keys, {} profiled loop variants, {} variants/loop), \
             {} workers",
            self.requests, self.unique_keys, self.profiled_variants, self.variants, self.workers
        )?;
        writeln!(
            f,
            "  cold serial   {:>9.1} req/s ({:.3}s)",
            self.cold_serial.per_sec, self.cold_serial.seconds
        )?;
        writeln!(
            f,
            "  cold parallel {:>9.1} req/s ({:.3}s)",
            self.cold_parallel.per_sec, self.cold_parallel.seconds
        )?;
        writeln!(
            f,
            "  warm memory   {:>9.1} req/s ({:.3}s, hit rate {:.3}, {:.1}x cold; key {:.0} ns)",
            self.warm_mem.per_sec,
            self.warm_mem.seconds,
            self.warm_hit_rate,
            self.warm_over_cold(),
            self.key_ns
        )?;
        writeln!(
            f,
            "  warm disk     {:>9.1} req/s ({:.3}s, store hit rate {:.3}, {} stale)",
            self.warm_disk.per_sec, self.warm_disk.seconds, self.store_hit_rate, self.store_stale
        )?;
        writeln!(
            f,
            "  store: {} entries, round-trip {}; determinism {}; {} failures",
            self.store_entries,
            if self.store_roundtrip_ok {
                "exact"
            } else {
                "BROKEN"
            },
            if c.deterministic { "ok" } else { "BROKEN" },
            c.failures,
        )?;
        if c.panics_contained + c.slots_recovered + c.worker_panics > 0 {
            writeln!(
                f,
                "  faults: {} panics contained, {} slots recovered, {} retries, \
                 {} worker-level catches, {} unrecovered",
                c.panics_contained,
                c.slots_recovered,
                c.panic_retries,
                c.worker_panics,
                c.unrecovered_slots
            )?;
        }
        for reason in &c.failed_slot_reasons {
            writeln!(f, "  failed slot: {reason}")?;
        }
        Ok(())
    }
}

/// Builds the request queue: every suite loop × perturbed variant ×
/// (policy × unroll) configuration, at least `target` requests long.
pub fn build_requests(ctx: &ExperimentContext, target: usize) -> (Vec<BatchRequest>, usize) {
    let configs: Vec<RunConfig> = ClusterPolicy::ALL
        .iter()
        .flat_map(|&policy| {
            [UnrollMode::NoUnroll, UnrollMode::Selective].map(|unroll| RunConfig {
                policy,
                unroll,
                ..RunConfig::ipbc()
            })
        })
        .collect();
    let loops: Vec<LoopKernel> = ctx
        .models()
        .into_iter()
        .flat_map(|m| m.loops.into_iter().map(|l| l.kernel))
        .collect();
    let per_variant = loops.len() * configs.len();
    let variants = target.div_ceil(per_variant.max(1)).max(1);
    let mut requests = Vec::with_capacity(per_variant * variants);
    for v in 0..variants {
        for kernel in &loops {
            let kernel = perturb(kernel, v);
            for cfg in &configs {
                requests.push(BatchRequest {
                    kernel: kernel.clone(),
                    cfg: *cfg,
                });
            }
        }
    }
    (requests, variants)
}

/// Variant `v` of a suite kernel: `v == 0` is the kernel itself; later
/// variants get a fresh name (fresh array placement, fresh fingerprint)
/// and a jittered trip count — distinct cache keys doing comparable work,
/// like near-duplicate loops across a program population.
fn perturb(kernel: &LoopKernel, v: usize) -> LoopKernel {
    if v == 0 {
        return kernel.clone();
    }
    let mut k = kernel.clone();
    k.name = format!("{}_v{v}", kernel.name);
    k.avg_trip = (kernel.avg_trip * (1.0 + 0.03 * ((v % 7) as f64))).max(8.0);
    k
}

/// The deterministic digest of one answered request.
fn digest(
    result: &Result<std::sync::Arc<crate::context::PreparedLoop>, vliw_sched::ScheduleError>,
) -> u64 {
    let mut h = StableHasher::new();
    match result {
        Ok(p) => {
            h.write_str(&p.schedule.to_compact_text());
            h.write_u64(kernel_fingerprint(&p.kernel));
        }
        Err(e) => h.write_str(&format!("err {e}")),
    }
    h.finish()
}

/// Most-expensive-first drain order: backend cost rank, then dynamic
/// size. Ties keep queue order, so the order is deterministic.
fn cost_order(requests: &[BatchRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        let r = &requests[i];
        let size = (r.kernel.ops.len() as u64) * (r.kernel.avg_trip as u64).max(1);
        (
            std::cmp::Reverse(r.cfg.backend.cost_rank()),
            std::cmp::Reverse(size),
            i,
        )
    });
    order
}

/// Warm-memory drains per batch study; the report times the median one.
const WARM_REPEATS: usize = 5;

pub(crate) struct Drain {
    pub(crate) digests: Vec<u64>,
    pub(crate) seconds: f64,
    pub(crate) failures: u64,
    pub(crate) panic_retries: u64,
    pub(crate) worker_panics: u64,
}

/// Answers one request: prepare through the cache, re-attempting after a
/// contained panic (bounded by [`PANIC_RETRIES`]), the whole body under
/// its own `catch_unwind` so even a panic escaping the cache's
/// containment fails this request rather than the worker thread.
/// Returns `(digest, failed, panic_retries, worker_panic)`.
fn answer(
    cache: &SchedCache,
    req: &BatchRequest,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> (u64, bool, u64, bool) {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let machine = ctx.machine_for(&req.cfg);
        let mut retries = 0u64;
        let mut result = cache.prepare_traced(&req.kernel, &machine, &req.cfg, ctx, trace);
        while matches!(&result, Err(ScheduleError::PreparationPanicked { .. }))
            && retries < u64::from(PANIC_RETRIES)
        {
            retries += 1;
            result = cache.prepare_traced(&req.kernel, &machine, &req.cfg, ctx, trace);
        }
        (digest(&result), result.is_err(), retries)
    }));
    match attempt {
        Ok((d, failed, retries)) => (d, failed, retries, false),
        Err(_) => {
            // the belt-and-braces layer: whatever unwound to here, the
            // worker survives and the request is the only casualty
            let mut h = StableHasher::new();
            h.write_str("err worker-level panic");
            (h.finish(), true, 0, true)
        }
    }
}

/// One drain of the whole queue through `cache`: `workers` claim the
/// requests in [`cost_order`], and each digest lands at its request's
/// index.
///
/// With an attached trace, worker `w` records on track `w + 1` (track 0
/// stays the main pipeline): each claim samples the requests not yet
/// claimed as a `batch.queue_depth` counter.
pub(crate) fn drain(
    cache: &SchedCache,
    requests: &[BatchRequest],
    ctx: &ExperimentContext,
    workers: usize,
    trace: Trace<'_>,
) -> Drain {
    let slots: Vec<OnceLock<u64>> = (0..requests.len()).map(|_| OnceLock::new()).collect();
    let failures = AtomicU64::new(0);
    let panic_retries = AtomicU64::new(0);
    let worker_panics = AtomicU64::new(0);
    let t0 = Instant::now();
    claim_loop(&cost_order(requests), workers, |w, remaining, claimed| {
        let wtrace = trace.with_track(w as u32 + 1);
        if wtrace.on() {
            wtrace.counter("batch.queue_depth", remaining as f64);
        }
        let Some(i) = claimed else { return };
        let (d, failed, retries, panicked) = answer(cache, &requests[i], ctx, wtrace);
        if failed {
            failures.fetch_add(1, Ordering::Relaxed);
        }
        if retries > 0 {
            panic_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if panicked {
            worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        slots[i].set(d).expect("each request answered once");
    });
    let seconds = t0.elapsed().as_secs_f64();
    Drain {
        digests: slots
            .into_iter()
            .map(|s| s.into_inner().expect("request drained"))
            .collect(),
        seconds,
        failures: failures.into_inner(),
        panic_retries: panic_retries.into_inner(),
        worker_panics: worker_panics.into_inner(),
    }
}

fn fold(digests: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

fn pass(d: &Drain, n: usize) -> PassReport {
    PassReport {
        seconds: d.seconds,
        per_sec: n as f64 / d.seconds.max(1e-9),
        fingerprint: fold(&d.digests),
    }
}

/// The failure-containment audit of one run, computed by
/// `Containment::of` over every cache and drain the run made: what the
/// caches contained and recovered, what the drains retried, caught and
/// failed, and whether every drain folded to the same fingerprint.
#[derive(Debug, Clone)]
pub struct Containment {
    /// Preparation panics contained at the caches' slot boundary (0
    /// without injected faults).
    pub panics_contained: u64,
    /// Failed slots recovered (reset and re-attempted) by later requests.
    pub slots_recovered: u64,
    /// Re-attempts the drains made after a
    /// [`ScheduleError::PreparationPanicked`] answer (at most 3 per
    /// request).
    pub panic_retries: u64,
    /// Panics that escaped the caches' containment and were caught at
    /// the worker-loop boundary instead (the belt-and-braces layer; 0 in
    /// every shipped configuration). Whatever this counts, no worker
    /// thread dies.
    pub worker_panics: u64,
    /// Slots still marked failed after every drain — the "zero
    /// unrecovered slots" gate (retries re-adopt every failed slot, so
    /// this must be 0).
    pub unrecovered_slots: u64,
    /// Requests whose answer was an error, maximized over drains (hashed
    /// into the fingerprints; 0 on the shipped suite).
    pub failures: u64,
    /// Whether every drain's fingerprint agrees.
    pub deterministic: bool,
    /// Panic reasons of the slots still marked failed (the diagnostic
    /// payload behind `unrecovered_slots`; empty on clean runs).
    pub failed_slot_reasons: Vec<String>,
}

impl Containment {
    /// The audit of a run that drained `drains` through `caches`.
    pub(crate) fn of(caches: &[&SchedCache], drains: &[&Drain]) -> Self {
        let failed_slot_reasons: Vec<String> = caches
            .iter()
            .flat_map(|c| c.failed_slot_reasons())
            .collect();
        let fps: Vec<u64> = drains.iter().map(|d| fold(&d.digests)).collect();
        Containment {
            panics_contained: caches.iter().map(|c| c.panics_contained()).sum(),
            slots_recovered: caches.iter().map(|c| c.slots_recovered()).sum(),
            panic_retries: drains.iter().map(|d| d.panic_retries).sum(),
            worker_panics: drains.iter().map(|d| d.worker_panics).sum(),
            unrecovered_slots: failed_slot_reasons.len() as u64,
            failures: drains.iter().map(|d| d.failures).max().unwrap_or(0),
            deterministic: fps.iter().all(|&f| f == fps[0]),
            failed_slot_reasons,
        }
    }

    /// The audit's `BENCH_repro.json` metrics, shared by the `batch` and
    /// `faults` sections.
    pub(crate) fn metrics(&self) -> [(String, f64); 7] {
        [
            ("panics_contained".into(), self.panics_contained as f64),
            ("slots_recovered".into(), self.slots_recovered as f64),
            ("panic_retries".into(), self.panic_retries as f64),
            ("worker_panics".into(), self.worker_panics as f64),
            ("unrecovered_slots".into(), self.unrecovered_slots as f64),
            ("failures".into(), self.failures as f64),
            (
                "deterministic".into(),
                f64::from(u8::from(self.deterministic)),
            ),
        ]
    }
}

/// The median wall time of one [`CacheKey::of`] over `requests`, in
/// nanoseconds, each key timed alone on this thread (machines built
/// outside the timed region).
fn median_key_ns(requests: &[BatchRequest], ctx: &ExperimentContext) -> f64 {
    let mut ns: Vec<u128> = requests
        .iter()
        .map(|r| {
            let machine = ctx.machine_for(&r.cfg);
            let t0 = Instant::now();
            std::hint::black_box(CacheKey::of(&r.kernel, &machine, &r.cfg, ctx));
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    ns.get(ns.len() / 2).map_or(0.0, |&t| t as f64)
}

/// Runs the whole batch study over a queue of at least `target_requests`
/// (sized as [`build_requests`] does), the parallel passes on
/// [`ExperimentContext::workers`] threads. See the module docs for the
/// four passes.
pub fn run_batch(ctx: &ExperimentContext, target_requests: usize) -> BatchReport {
    let (requests, variants) = build_requests(ctx, target_requests);
    let n = requests.len();

    // pass 1: cold serial (the reference answers)
    let serial_cache = SchedCache::new();
    let serial = drain(&serial_cache, &requests, ctx, 1, Trace::off());

    // pass 2: cold parallel
    let cache = SchedCache::new();
    let cold = drain(&cache, &requests, ctx, ctx.workers, Trace::off());
    let inflight_waits = cache.inflight_waits();
    let unique_keys = cache.len();
    let profiled_variants = cache.profiled_variants();

    // pass 3: warm memory (same cache; every request hits), timed at the
    // median of its repeats
    let hits_before = cache.hits();
    let mut warm: Vec<Drain> = (0..WARM_REPEATS)
        .map(|_| drain(&cache, &requests, ctx, ctx.workers, Trace::off()))
        .collect();
    let warm_hit_rate = (cache.hits() - hits_before) as f64 / (n * WARM_REPEATS) as f64;
    warm.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));

    // pass 4: warm disk (export -> text round-trip -> fresh cache)
    let store = cache.export_store();
    let reloaded = ScheduleStore::from_text(&store.to_text());
    let store_roundtrip_ok = reloaded
        .as_ref()
        .map(|r| r.to_text() == store.to_text())
        .unwrap_or(false);
    let disk_cache = SchedCache::with_store(reloaded.unwrap_or_else(|_| store.clone()));
    let disk = drain(&disk_cache, &requests, ctx, ctx.workers, Trace::off());
    let store_hit_rate = disk_cache.store_hits() as f64 / n as f64;
    let store_stale = disk_cache.stale();

    let key_ns = median_key_ns(&requests, ctx);

    let drains: Vec<&Drain> = [&serial, &cold, &disk].into_iter().chain(&warm).collect();
    BatchReport {
        requests: n,
        unique_keys,
        profiled_variants,
        variants,
        workers: ctx.workers,
        key_ns,
        cold_serial: pass(&serial, n),
        cold_parallel: pass(&cold, n),
        warm_mem: pass(&warm[WARM_REPEATS / 2], n),
        warm_disk: pass(&disk, n),
        warm_hit_rate,
        store_hit_rate,
        store_stale,
        store_entries: store.len(),
        store_roundtrip_ok,
        containment: Containment::of(&[&serial_cache, &cache, &disk_cache], &drains),
        inflight_waits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 48;
        ctx.profile.iteration_cap = 48;
        ctx
    }

    #[test]
    fn batch_is_deterministic_and_fully_warm() {
        let mut ctx = tiny_ctx();
        ctx.workers = 4;
        let r = run_batch(&ctx, 64);
        assert!(r.requests >= 64);
        let c = &r.containment;
        assert!(c.deterministic, "pass fingerprints diverged");
        assert_eq!(c.failures, 0);
        // clean runs never trip the containment machinery
        assert_eq!(c.panics_contained, 0);
        assert_eq!(c.slots_recovered, 0);
        assert_eq!(c.worker_panics, 0);
        assert_eq!(c.unrecovered_slots, 0);
        assert!(
            (r.warm_hit_rate - 1.0).abs() < 1e-12,
            "warm pass must hit every request"
        );
        assert!(r.store_roundtrip_ok);
        assert_eq!(r.store_entries, r.unique_keys);
        assert!(
            r.store_hit_rate > 0.9,
            "disk pass should rebuild from the store (rate {})",
            r.store_hit_rate
        );
        assert_eq!(r.store_stale, 0, "fresh store entries must never be stale");
        // the metrics carry the cold pass's in-flight waits, profiled
        // variants and key time
        let metric = |name: &str| r.metrics().into_iter().find(|(k, _)| k == name);
        assert_eq!(
            metric("inflight_waits").map(|(_, v)| v),
            Some(r.inflight_waits as f64)
        );
        assert_eq!(
            metric("profiled_variants").map(|(_, v)| v),
            Some(r.profiled_variants as f64)
        );
        assert_eq!(metric("key_ns").map(|(_, v)| v), Some(r.key_ns));
        assert!(r.key_ns > 0.0, "every request computes a key");
        assert!(r.profiled_variants < r.unique_keys);
        // a slot left failed shows its reason; a clean report shows none
        assert!(!r.to_string().contains("failed slot"));
        let mut failed = r.clone();
        failed
            .containment
            .failed_slot_reasons
            .push("injected".into());
        assert!(failed.to_string().contains("failed slot: injected"));
    }

    #[test]
    fn profiled_variants_are_shared_and_worker_independent() {
        // the queue asks for every loop under every policy × unroll mode,
        // which share their variants' profiles, and the memo's length does
        // not depend on which worker filled which key
        let ctx = tiny_ctx();
        let (requests, _) = build_requests(&ctx, 1);
        let counts = [1, 4].map(|workers| {
            let cache = SchedCache::new();
            drain(&cache, &requests, &ctx, workers, Trace::off());
            (cache.profiled_variants(), cache.len())
        });
        assert_eq!(counts[0], counts[1], "1 vs 4 workers");
        let (profiled, keys) = counts[0];
        assert!(
            profiled > 0 && profiled < keys,
            "{profiled} profiled variants for {keys} keys"
        );
    }

    #[test]
    fn empty_queue_drains_to_no_digests() {
        let ctx = tiny_ctx();
        for workers in [1, 4] {
            let d = drain(&SchedCache::new(), &[], &ctx, workers, Trace::off());
            assert!(d.digests.is_empty());
            assert_eq!(d.failures, 0);
        }
    }

    /// More workers than requests: each request is answered exactly once
    /// (a second answer would trip the slot's `OnceLock`) and the digests
    /// fold exactly as one worker's do.
    #[test]
    fn surplus_workers_answer_each_request_once() {
        let ctx = tiny_ctx();
        let (requests, _) = build_requests(&ctx, 1);
        let requests = &requests[..3];
        let one = drain(&SchedCache::new(), requests, &ctx, 1, Trace::off());
        let cache = SchedCache::new();
        let many = drain(&cache, requests, &ctx, 8, Trace::off());
        assert_eq!(many.digests.len(), requests.len());
        assert_eq!(fold(&many.digests), fold(&one.digests));
        assert_eq!(
            cache.hits() as u64 + cache.prepares(),
            requests.len() as u64
        );
    }

    /// One worker samples the unclaimed queue at each of its n + 1
    /// claims, the final empty claim included, on track 1.
    #[test]
    fn one_worker_samples_the_queue_depth_down_to_zero() {
        let ctx = tiny_ctx();
        let (requests, _) = build_requests(&ctx, 1);
        let requests = &requests[..5];
        let sink = vliw_trace::RecordingSink::logical();
        drain(&SchedCache::new(), requests, &ctx, 1, Trace::new(&sink));
        let depths: Vec<(u32, f64)> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "batch.queue_depth")
            .map(|e| (e.track, e.args[0].1))
            .collect();
        let expected: Vec<(u32, f64)> = (0..=requests.len()).rev().map(|d| (1, d as f64)).collect();
        assert_eq!(depths, expected);
    }

    #[test]
    fn request_queue_reaches_target_and_perturbs_fingerprints() {
        let ctx = tiny_ctx();
        let (reqs, variants) = build_requests(&ctx, 100);
        assert!(reqs.len() >= 100);
        assert!(variants >= 2);
        let fp0 = kernel_fingerprint(&reqs[0].kernel);
        let other = reqs
            .iter()
            .find(|r| r.kernel.name != reqs[0].kernel.name)
            .expect("multiple kernels");
        assert_ne!(fp0, kernel_fingerprint(&other.kernel));
    }
}
