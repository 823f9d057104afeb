//! The batch scheduling service: drain a large kernel×config request
//! queue through the sharded schedule cache ([`crate::schedcache`]) with
//! work-stealing workers, and prove the answers identical cold, warm and
//! reloaded-from-disk.
//!
//! The workload replicates the suite: every factor-1 loop of the context
//! is cloned into perturbed variants (fresh name → fresh array placement
//! and fingerprint; jittered trip count), and each variant is requested
//! under every §4 cluster policy × unroll mode — the shape of a
//! compiler-server clientele, thousands of near-duplicate jobs with a
//! long cost tail.
//!
//! Four passes over the *same* request list:
//!
//! 1. **cold serial** — fresh cache, one thread, request order: the
//!    reference answers and the throughput floor;
//! 2. **cold parallel** — fresh cache, work-stealing drain: requests are
//!    sorted most-expensive-first (backend
//!    [`cost_rank`](vliw_sched::SchedBackend::cost_rank),
//!    then dynamic size) and dealt round-robin to per-worker deques;
//!    idle workers steal the *back half* of a victim's deque, so the
//!    expensive head jobs spread out and the cheap tail amortizes;
//! 3. **warm memory** — the pass-2 cache drained again: every request is
//!    an in-memory hit (hit rate exactly 1.0);
//! 4. **warm disk** — the cache is exported to a [`ScheduleStore`],
//!    reloaded through its text form, and a *fresh* cache backed by it
//!    drains the queue: no candidate scheduling, only rebuild+verify.
//!
//! Every pass folds its per-request schedule digests (in request order)
//! into one fingerprint; all four must be bit-identical. Per-shard
//! hit/contention counters from the cold parallel pass expose how the
//! lock striping behaved under real load.

use std::collections::VecDeque;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use vliw_ir::{kernel_fingerprint, LoopKernel, StableHasher};
use vliw_sched::{ClusterPolicy, ScheduleError};
use vliw_trace::Trace;

use crate::context::{ExperimentContext, RunConfig, UnrollMode};
use crate::schedcache::{SchedCache, ScheduleStore, ShardCounters};

/// How many times one request re-attempts a preparation whose previous
/// attempt panicked (the cache contains the panic and marks the slot
/// failed; the retry adopts and refills it). Transient faults — the
/// fault harness's once-per-generation panic shims, or a real bug tied
/// to lost in-memory state — heal within one retry; a deterministic
/// panic exhausts the retries and fails the request, never the worker.
pub const PANIC_RETRIES: u32 = 3;

/// One job: schedule `kernel` under `cfg`.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The (possibly perturbed) original kernel.
    pub kernel: LoopKernel,
    /// The configuration to prepare it under.
    pub cfg: RunConfig,
}

/// Knobs of the batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Minimum request count; the suite is replicated into perturbed
    /// variants until the queue is at least this long.
    pub target_requests: usize,
    /// Worker threads of the parallel passes.
    pub workers: usize,
    /// Shard count of the caches.
    pub shards: usize,
    /// Completed-entry cap per cache shard
    /// ([`SchedCache::into_capped`]); `None` (both presets) keeps every
    /// cache unbounded.
    pub per_shard_cap: Option<usize>,
}

impl BatchOptions {
    /// Paper-scale defaults: 10k+ requests, one worker per core.
    pub fn full() -> Self {
        BatchOptions {
            target_requests: 10_000,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            shards: 16,
            per_shard_cap: None,
        }
    }

    /// CI-scale defaults: a few hundred requests, bounded workers.
    pub fn quick() -> Self {
        BatchOptions {
            target_requests: 256,
            workers: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(8),
            shards: 16,
            per_shard_cap: None,
        }
    }
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
    /// Deque steals performed (0 for the serial pass).
    pub steals: u64,
}

/// The whole batch study.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Requests drained per pass.
    pub requests: usize,
    /// Distinct cache keys the queue resolves to (under a capacity cap:
    /// the keys still resident after the cold parallel pass).
    pub unique_keys: usize,
    /// Perturbed variants per suite loop.
    pub variants: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Cache shards used.
    pub shards: usize,
    /// Pass 1: cold, one thread, request order.
    pub cold_serial: PassReport,
    /// Pass 2: cold, work-stealing drain.
    pub cold_parallel: PassReport,
    /// Pass 3: pass-2 cache drained again (all in-memory hits).
    pub warm_mem: PassReport,
    /// Pass 4: fresh cache fed by the round-tripped store.
    pub warm_disk: PassReport,
    /// In-memory hit rate of the warm-memory pass (must be 1.0).
    pub warm_hit_rate: f64,
    /// Fraction of warm-disk requests served by store rebuilds.
    pub store_hit_rate: f64,
    /// Store entries rejected as stale in the warm-disk pass.
    pub store_stale: u64,
    /// Entries in the exported store.
    pub store_entries: usize,
    /// Whether the store's text form survived serialize → parse intact.
    pub store_roundtrip_ok: bool,
    /// Whether all four pass fingerprints agree.
    pub deterministic: bool,
    /// Requests whose preparation failed (hashed into the fingerprint;
    /// 0 on the shipped suite).
    pub failures: u64,
    /// Completed-entry cap per shard the caches ran under (`None` =
    /// unbounded).
    pub per_shard_cap: Option<usize>,
    /// LRU evictions in the cold parallel pass (always 0 unbounded).
    pub evictions: u64,
    /// Preparation panics contained at the cache's slot boundary, summed
    /// over every pass's cache (0 without injected faults).
    pub panics_contained: u64,
    /// Failed slots recovered (reset + re-attempted) by later requests,
    /// summed over every pass's cache.
    pub slots_recovered: u64,
    /// Re-attempts the drivers made after a
    /// [`ScheduleError::PreparationPanicked`] answer (bounded by
    /// [`PANIC_RETRIES`] per request).
    pub panic_retries: u64,
    /// Panics that escaped the cache's containment and were caught at
    /// the worker-loop boundary instead (the belt-and-braces layer; 0 in
    /// every shipped configuration). Whatever this counts, no worker
    /// thread dies.
    pub worker_panics: u64,
    /// Slots still marked failed after all passes drained — the "zero
    /// unrecovered slots" acceptance gate (retries re-adopt every failed
    /// slot, so this must be 0).
    pub unrecovered_slots: u64,
    /// Per-shard counters captured after the cold parallel pass.
    pub cold_shards: Vec<ShardCounters>,
    /// Steals performed by each worker in the cold parallel pass.
    pub worker_steals: Vec<u64>,
    /// Peak own-deque depth each worker saw in the cold parallel pass.
    pub worker_peak_depth: Vec<u64>,
    /// Panic reasons of slots still marked failed after all passes
    /// (the diagnostic payload behind `unrecovered_slots`; empty on
    /// clean runs).
    pub failed_slot_reasons: Vec<String>,
}

impl BatchReport {
    /// Warm-memory throughput over cold parallel throughput — the
    /// headline "what does the cache buy a batch server" ratio.
    pub fn warm_over_cold(&self) -> f64 {
        self.warm_mem.per_sec / self.cold_parallel.per_sec
    }

    /// The per-shard counter CSV (`results/batch_shards.csv`).
    ///
    /// The trailing `worker_steals`/`worker_peak_depth` columns are a
    /// parallel table: row `i` carries worker `i`'s cold-parallel-pass
    /// stats. Shards and workers are independent dimensions, so there is
    /// one row per shard or worker, whichever is more; shard columns past
    /// the shard count and worker columns past the worker count read 0.
    pub fn shard_csv(&self) -> String {
        let mut out = String::from(
            "shard,entries,hits,store_hits,prepares,stale,inflight_waits,map_contended,evictions,\
             panics_contained,slots_recovered,worker_steals,worker_peak_depth\n",
        );
        let rows = self.cold_shards.len().max(self.worker_steals.len());
        for i in 0..rows {
            let s = self.cold_shards.get(i).copied().unwrap_or_default();
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.entries,
                s.hits,
                s.store_hits,
                s.prepares,
                s.stale,
                s.inflight_waits,
                s.map_contended,
                s.evictions,
                s.panics_contained,
                s.slots_recovered,
                self.worker_steals.get(i).copied().unwrap_or(0),
                self.worker_peak_depth.get(i).copied().unwrap_or(0),
            ));
        }
        out
    }

    /// The `batch` metrics of `BENCH_repro.json`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b = |x: bool| if x { 1.0 } else { 0.0 };
        vec![
            ("requests".into(), self.requests as f64),
            ("unique_keys".into(), self.unique_keys as f64),
            ("variants".into(), self.variants as f64),
            ("workers".into(), self.workers as f64),
            ("shards".into(), self.shards as f64),
            ("cold_serial_seconds".into(), self.cold_serial.seconds),
            ("cold_serial_per_sec".into(), self.cold_serial.per_sec),
            ("cold_seconds".into(), self.cold_parallel.seconds),
            ("cold_schedules_per_sec".into(), self.cold_parallel.per_sec),
            ("cold_steals".into(), self.cold_parallel.steals as f64),
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
            ("deterministic".into(), b(self.deterministic)),
            ("failures".into(), self.failures as f64),
            ("panics_contained".into(), self.panics_contained as f64),
            ("slots_recovered".into(), self.slots_recovered as f64),
            ("panic_retries".into(), self.panic_retries as f64),
            ("worker_panics".into(), self.worker_panics as f64),
            ("unrecovered_slots".into(), self.unrecovered_slots as f64),
            (
                "inflight_waits".into(),
                self.cold_shards
                    .iter()
                    .map(|s| s.inflight_waits)
                    .sum::<u64>() as f64,
            ),
            (
                "map_contended".into(),
                self.cold_shards
                    .iter()
                    .map(|s| s.map_contended)
                    .sum::<u64>() as f64,
            ),
            ("evictions".into(), self.evictions as f64),
        ]
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} requests ({} unique keys, {} variants/loop), \
             {} workers x {} shards",
            self.requests, self.unique_keys, self.variants, self.workers, self.shards
        )?;
        writeln!(
            f,
            "  cold serial   {:>9.1} req/s ({:.3}s)",
            self.cold_serial.per_sec, self.cold_serial.seconds
        )?;
        writeln!(
            f,
            "  cold parallel {:>9.1} req/s ({:.3}s, {} steals)",
            self.cold_parallel.per_sec, self.cold_parallel.seconds, self.cold_parallel.steals
        )?;
        writeln!(
            f,
            "  warm memory   {:>9.1} req/s ({:.3}s, hit rate {:.3}, {:.1}x cold)",
            self.warm_mem.per_sec,
            self.warm_mem.seconds,
            self.warm_hit_rate,
            self.warm_over_cold()
        )?;
        writeln!(
            f,
            "  warm disk     {:>9.1} req/s ({:.3}s, store hit rate {:.3}, {} stale)",
            self.warm_disk.per_sec, self.warm_disk.seconds, self.store_hit_rate, self.store_stale
        )?;
        writeln!(
            f,
            "  store: {} entries, round-trip {}; determinism {}; {} failures; {} evictions{}",
            self.store_entries,
            if self.store_roundtrip_ok {
                "exact"
            } else {
                "BROKEN"
            },
            if self.deterministic { "ok" } else { "BROKEN" },
            self.failures,
            self.evictions,
            match self.per_shard_cap {
                Some(cap) => format!(" (cap {cap}/shard)"),
                None => String::new(),
            }
        )?;
        if self.panics_contained + self.slots_recovered + self.worker_panics > 0 {
            writeln!(
                f,
                "  faults: {} panics contained, {} slots recovered, {} retries, \
                 {} worker-level catches, {} unrecovered",
                self.panics_contained,
                self.slots_recovered,
                self.panic_retries,
                self.worker_panics,
                self.unrecovered_slots
            )?;
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

pub(crate) struct Drain {
    pub(crate) digests: Vec<u64>,
    pub(crate) seconds: f64,
    pub(crate) steals: u64,
    pub(crate) failures: u64,
    pub(crate) panic_retries: u64,
    pub(crate) worker_panics: u64,
    /// Steals performed by each worker (empty for the serial drain).
    pub(crate) worker_steals: Vec<u64>,
    /// Peak depth each worker's own deque reached during the drain
    /// (empty for the serial drain).
    pub(crate) worker_peak_depth: Vec<u64>,
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

/// One work-stealing drain of the whole queue through `cache`.
///
/// With an attached trace, worker `w` records on track `w + 1` (track 0
/// stays the main pipeline): each pop samples the worker's own deque
/// depth as a `batch.queue_depth` counter, and each steal emits a
/// `batch.steal` instant naming the victim and the number of jobs moved.
pub(crate) fn drain(
    cache: &SchedCache,
    requests: &[BatchRequest],
    ctx: &ExperimentContext,
    workers: usize,
    trace: Trace<'_>,
) -> Drain {
    let workers = workers.max(1).min(requests.len().max(1));
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, idx) in cost_order(requests).into_iter().enumerate() {
        deques[i % workers]
            .lock()
            .expect("deque lock")
            .push_back(idx);
    }
    let slots: Vec<OnceLock<u64>> = (0..requests.len()).map(|_| OnceLock::new()).collect();
    let steals = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let panic_retries = AtomicU64::new(0);
    let worker_panics = AtomicU64::new(0);
    let per_worker_steals: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let per_worker_peak: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let steals = &steals;
            let failures = &failures;
            let panic_retries = &panic_retries;
            let worker_panics = &worker_panics;
            let per_worker_steals = &per_worker_steals;
            let per_worker_peak = &per_worker_peak;
            let wtrace = trace.with_track(w as u32 + 1);
            s.spawn(move || loop {
                let (job, depth) = {
                    let mut own = deques[w].lock().expect("deque lock");
                    let depth = own.len() as u64;
                    (own.pop_front(), depth)
                };
                per_worker_peak[w].fetch_max(depth, Ordering::Relaxed);
                if wtrace.on() {
                    wtrace.counter("batch.queue_depth", depth as f64);
                }
                let job = match job {
                    Some(j) => Some(j),
                    None => {
                        // steal the back half of the first non-empty victim:
                        // the head (expensive) jobs stay with their owner,
                        // the tail spreads out
                        let mut found = None;
                        for off in 1..workers {
                            let v = (w + off) % workers;
                            let mut victim = deques[v].lock().expect("deque lock");
                            let len = victim.len();
                            if len == 0 {
                                continue;
                            }
                            let mut stolen = victim.split_off(len - len.div_ceil(2));
                            drop(victim);
                            steals.fetch_add(1, Ordering::Relaxed);
                            per_worker_steals[w].fetch_add(1, Ordering::Relaxed);
                            if wtrace.on() {
                                wtrace.instant(
                                    "batch.steal",
                                    &[("victim", v as f64), ("grabbed", stolen.len() as f64)],
                                );
                            }
                            let first = stolen.pop_front();
                            if !stolen.is_empty() {
                                deques[w].lock().expect("deque lock").append(&mut stolen);
                            }
                            found = first;
                            break;
                        }
                        found
                    }
                };
                let Some(i) = job else { break };
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
        }
    });
    let seconds = t0.elapsed().as_secs_f64();
    Drain {
        digests: slots
            .into_iter()
            .map(|s| s.into_inner().expect("request drained"))
            .collect(),
        seconds,
        steals: steals.load(Ordering::Relaxed),
        failures: failures.load(Ordering::Relaxed),
        panic_retries: panic_retries.load(Ordering::Relaxed),
        worker_panics: worker_panics.load(Ordering::Relaxed),
        worker_steals: per_worker_steals
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        worker_peak_depth: per_worker_peak
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
    }
}

/// The strictly serial reference drain, in request order.
pub(crate) fn drain_serial(
    cache: &SchedCache,
    requests: &[BatchRequest],
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> Drain {
    let t0 = Instant::now();
    let mut failures = 0;
    let mut panic_retries = 0;
    let mut worker_panics = 0;
    let digests = requests
        .iter()
        .map(|req| {
            let (d, failed, retries, panicked) = answer(cache, req, ctx, trace);
            if failed {
                failures += 1;
            }
            panic_retries += retries;
            if panicked {
                worker_panics += 1;
            }
            d
        })
        .collect();
    Drain {
        digests,
        seconds: t0.elapsed().as_secs_f64(),
        steals: 0,
        failures,
        panic_retries,
        worker_panics,
        worker_steals: Vec::new(),
        worker_peak_depth: Vec::new(),
    }
}

pub(crate) fn fold(digests: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

pub(crate) fn pass(d: &Drain, n: usize) -> PassReport {
    PassReport {
        seconds: d.seconds,
        per_sec: n as f64 / d.seconds.max(1e-9),
        fingerprint: fold(&d.digests),
        steals: d.steals,
    }
}

/// Runs the whole batch study. See the module docs for the four passes.
pub fn run_batch(ctx: &ExperimentContext, opts: &BatchOptions) -> BatchReport {
    let (requests, variants) = build_requests(ctx, opts.target_requests);
    let n = requests.len();
    let new_cache = || {
        let c = SchedCache::with_shards(opts.shards);
        match opts.per_shard_cap {
            Some(cap) => c.into_capped(cap),
            None => c,
        }
    };

    // pass 1: cold serial (the reference answers)
    let serial_cache = new_cache();
    let serial = drain_serial(&serial_cache, &requests, ctx, Trace::off());

    // pass 2: cold parallel (work-stealing)
    let cache = new_cache();
    let cold = drain(&cache, &requests, ctx, opts.workers, Trace::off());
    let cold_shards = cache.shard_counters();
    let evictions = cache.evictions();
    let unique_keys = cache.len();

    // pass 3: warm memory (same cache; every request hits)
    let hits_before = cache.hits();
    let warm = drain(&cache, &requests, ctx, opts.workers, Trace::off());
    let warm_hit_rate = (cache.hits() - hits_before) as f64 / n as f64;

    // pass 4: warm disk (export -> text round-trip -> fresh cache)
    let store = cache.export_store();
    let reloaded = ScheduleStore::from_text(&store.to_text());
    let store_roundtrip_ok = reloaded
        .as_ref()
        .map(|r| r.to_text() == store.to_text())
        .unwrap_or(false);
    let disk_cache = new_cache().into_stored(reloaded.unwrap_or_else(|_| store.clone()));
    let disk = drain(&disk_cache, &requests, ctx, opts.workers, Trace::off());
    let store_hit_rate = disk_cache.store_hits() as f64 / n as f64;
    let store_stale = disk_cache.stale();

    let fps = [
        fold(&serial.digests),
        fold(&cold.digests),
        fold(&warm.digests),
        fold(&disk.digests),
    ];
    BatchReport {
        requests: n,
        unique_keys,
        variants,
        workers: opts.workers,
        shards: opts.shards,
        cold_serial: pass(&serial, n),
        cold_parallel: pass(&cold, n),
        warm_mem: pass(&warm, n),
        warm_disk: pass(&disk, n),
        warm_hit_rate,
        store_hit_rate,
        store_stale,
        store_entries: store.len(),
        store_roundtrip_ok,
        deterministic: fps.iter().all(|&f| f == fps[0]),
        failures: serial
            .failures
            .max(cold.failures)
            .max(warm.failures)
            .max(disk.failures),
        per_shard_cap: opts.per_shard_cap,
        evictions,
        panics_contained: serial_cache.panics_contained()
            + cache.panics_contained()
            + disk_cache.panics_contained(),
        slots_recovered: serial_cache.slots_recovered()
            + cache.slots_recovered()
            + disk_cache.slots_recovered(),
        panic_retries: serial.panic_retries
            + cold.panic_retries
            + warm.panic_retries
            + disk.panic_retries,
        worker_panics: serial.worker_panics
            + cold.worker_panics
            + warm.worker_panics
            + disk.worker_panics,
        unrecovered_slots: (serial_cache.failed_slots()
            + cache.failed_slots()
            + disk_cache.failed_slots()) as u64,
        cold_shards,
        worker_steals: cold.worker_steals,
        worker_peak_depth: cold.worker_peak_depth,
        failed_slot_reasons: [&serial_cache, &cache, &disk_cache]
            .iter()
            .flat_map(|c| c.failed_slot_reasons())
            .collect(),
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
        let ctx = tiny_ctx();
        let opts = BatchOptions {
            target_requests: 64,
            workers: 4,
            shards: 8,
            per_shard_cap: None,
        };
        let r = run_batch(&ctx, &opts);
        assert!(r.requests >= 64);
        assert_eq!(r.evictions, 0, "unbounded caches never evict");
        assert!(r.cold_shards.iter().all(|s| s.evictions == 0));
        assert!(r.deterministic, "pass fingerprints diverged");
        assert_eq!(r.failures, 0);
        // clean runs never trip the containment machinery
        assert_eq!(r.panics_contained, 0);
        assert_eq!(r.slots_recovered, 0);
        assert_eq!(r.worker_panics, 0);
        assert_eq!(r.unrecovered_slots, 0);
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
        // every request answered exactly once across shards
        let total: u64 = r.cold_shards.iter().map(|s| s.hits + s.prepares).sum();
        assert_eq!(total, r.requests as u64);
    }

    /// A far-too-small capacity cap forces evictions through the whole
    /// run yet never changes any answer: the four pass fingerprints
    /// still agree, the evictions show up in the per-shard counters, and
    /// residency respects the cap (modulo slots a concurrent reader held
    /// during an eviction scan — bounded by the worker count).
    #[test]
    fn capped_batch_evicts_but_stays_deterministic() {
        let ctx = tiny_ctx();
        let cap = 4;
        let opts = BatchOptions {
            target_requests: 64,
            workers: 4,
            shards: 2,
            per_shard_cap: Some(cap),
        };
        let r = run_batch(&ctx, &opts);
        assert_eq!(r.per_shard_cap, Some(cap));
        assert!(r.deterministic, "eviction must never change an answer");
        assert_eq!(r.failures, 0);
        assert!(
            r.evictions > 0,
            "a {}-entry cache under {} requests must evict",
            cap * opts.shards,
            r.requests
        );
        let per_shard: u64 = r.cold_shards.iter().map(|s| s.evictions).sum();
        assert_eq!(per_shard, r.evictions, "counters surface the evictions");
        for s in &r.cold_shards {
            assert!(
                s.entries <= (cap + opts.workers) as u64,
                "shard residency {} far above cap {cap}",
                s.entries
            );
        }
        // evicted keys re-prepare: strictly more prepares than resident keys
        let prepares: u64 = r.cold_shards.iter().map(|s| s.prepares).sum();
        assert!(prepares > r.unique_keys as u64);
        // one CSV row per worker when workers outnumber shards, so no
        // worker's steal and depth columns are dropped
        let csv = r.shard_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), opts.workers.max(opts.shards));
        let column = |row: &str, i: usize| -> u64 {
            let cell = row.split(',').nth(i).expect("13 columns");
            cell.parse().expect("integer cell")
        };
        for (w, row) in rows.iter().enumerate() {
            assert_eq!(column(row, 11), r.worker_steals[w], "worker {w} steals");
            assert_eq!(
                column(row, 12),
                r.worker_peak_depth[w],
                "worker {w} peak depth"
            );
            if w >= opts.shards {
                assert!((1..11).all(|i| column(row, i) == 0), "no shard {w}: {row}");
            }
        }
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
