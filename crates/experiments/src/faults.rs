//! The deterministic fault-injection harness: every failure-containment
//! mechanism of the scheduling service, exercised on purpose and
//! audited by count.
//!
//! A seeded [`FaultPlan`] derives, from one `u64`, every fault the run
//! injects into the batch workload of [`crate::batch`]:
//!
//! * **preparation panics** — a [`PrepareFn`] shim that panics the
//!   first time each victim kernel is prepared per cache generation
//!   (the cache contains the panic, marks the slot failed, and the
//!   request's bounded retry heals it);
//! * **store corruption** — digit flips inside the checksummed region
//!   of chosen records (each must drop as `dropped_corrupt`), a
//!   truncation inside the final record (`dropped_truncated`), and a
//!   version tamper on a separate copy (`version_rejected`);
//! * **an interrupted export** — [`ScheduleStore::save_interrupted`]
//!   killing a rewrite before the atomic rename (the committed store
//!   must survive byte-intact);
//! * **budget starvation** — exact-search requests under a zero cost
//!   ceiling, which must serve the heuristic incumbent as *counted*
//!   [`SchedQuality::CutoffFeasible`] answers that round-trip through
//!   the version-2 store.
//!
//! Four drains of the same request queue run under these faults (cold
//! serial on one worker, cold parallel, warm memory, warm from the
//! *salvaged* store), each through the batch driver's claim loop and a
//! fresh [`SchedCache`]; their digest folds (in request
//! order) must agree bit-for-bit — injected faults may cost retries and
//! hit rate, never answers. The [`FaultReport`] closes the loop:
//! [`FaultReport::accounted`] is true only when every injected fault
//! shows up in exactly one recovery counter and nothing leaked (no
//! worker-level panic, no unrecovered slot, no failed request).
//!
//! Everything is deterministic: same seed, same context, same faults,
//! same counters. `repro [quick|full] faults` prints the lane table,
//! writes `results/faults.csv` and records the counters into the
//! `faults` section of `BENCH_repro.json`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use vliw_ir::LoopKernel;
use vliw_sched::{SchedBackend, SchedQuality};
use vliw_trace::Trace;
use vliw_workloads::rng::StdRng;

use crate::batch::{build_requests, drain, BatchRequest, Containment};
use crate::context::{prepare_loop, ExperimentContext, RunConfig, UnrollMode};
use crate::report::Table;
use crate::schedcache::{PrepareFn, SalvageReport, SchedCache, ScheduleStore, RECORD_LINES};

/// Seed every injected fault derives from.
const FAULT_SEED: u64 = 0xFA17_F00D;

/// Knobs of the fault run.
#[derive(Debug, Clone, Copy)]
pub struct FaultOptions {
    /// Minimum request count of the batch queue.
    pub target_requests: usize,
    /// Kernels whose first preparation panics, per cache generation.
    pub panic_victims: usize,
    /// Store records corrupted by a digit flip.
    pub bit_flips: usize,
    /// Exact-search requests run under the starvation ceiling.
    pub starved_requests: usize,
}

impl FaultOptions {
    /// Paper-scale defaults.
    pub fn full() -> Self {
        FaultOptions {
            target_requests: 2_000,
            panic_victims: 6,
            bit_flips: 8,
            starved_requests: 8,
        }
    }

    /// CI-scale defaults.
    pub fn quick() -> Self {
        FaultOptions {
            target_requests: 192,
            panic_victims: 3,
            bit_flips: 4,
            starved_requests: 4,
        }
    }
}

/// The seeded plan: which kernels panic, which store records are
/// flipped, where the truncation cuts. Pure data — deriving it twice
/// from the same seed and queue yields the same plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Kernel names whose first preparation panics per cache generation.
    pub victims: Vec<String>,
    /// Indices (in store-text record order) of the records to flip a
    /// digit in.
    pub flip_records: Vec<usize>,
}

impl FaultPlan {
    /// Derives the plan from the seed, the request queue, and the
    /// healthy store's record count.
    pub fn derive(
        seed: u64,
        requests: &[BatchRequest],
        n_records: usize,
        opts: &FaultOptions,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // distinct kernels in queue order, then a seeded draw without
        // replacement
        let kernels = distinct_kernels(requests);
        let victims = draw(&mut rng, kernels.len(), opts.panic_victims)
            .into_iter()
            .map(|i| kernels[i].name.clone())
            .collect();
        // flips hit distinct records, never the last one (the truncation
        // lane owns it) so corrupt and truncated counters stay disjoint
        let flippable = n_records.saturating_sub(1);
        let mut flip_records = draw(&mut rng, flippable, opts.bit_flips);
        flip_records.sort_unstable();
        FaultPlan {
            victims,
            flip_records,
        }
    }
}

/// The first request's kernel of each distinct kernel name, in queue
/// order.
fn distinct_kernels(requests: &[BatchRequest]) -> Vec<&LoopKernel> {
    let mut seen = HashSet::new();
    requests
        .iter()
        .map(|r| &r.kernel)
        .filter(|k| seen.insert(k.name.as_str()))
        .collect()
}

/// `k` distinct indices drawn from `0..n` (all of them if `k >= n`).
fn draw(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.random_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// A preparer that panics the first time each victim kernel is prepared
/// through the cache holding it, then behaves normally — the transient
/// fault the containment machinery is built for. One shim = one cache
/// generation; each generation fires each victim at most once.
fn panic_shim(victims: Arc<HashSet<String>>) -> Arc<PrepareFn> {
    let fired: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
    Arc::new(move |kernel, machine, cfg, ctx| {
        let fresh = victims.contains(&kernel.name)
            && fired
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(kernel.name.clone());
        if fresh {
            panic!(
                "fault plan: injected preparation panic on `{}`",
                kernel.name
            );
        }
        prepare_loop(kernel, machine, cfg, ctx, Trace::off())
    })
}

/// Byte offset just past each line of `text` (the trailing newline
/// included).
fn line_ends(text: &str) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 0;
    for l in text.lines() {
        off += l.len() + 1;
        ends.push(off.min(text.len()));
    }
    ends
}

/// Applies the corruption lanes to a healthy version-2 store text:
/// one digit flipped inside the schedule block of each planned record,
/// and a cut inside the final record's `endentry` line. Returns the
/// damaged text and the number of records actually flipped.
fn corrupt_store_text(healthy: &str, plan: &FaultPlan) -> (String, usize) {
    let ends = line_ends(healthy);
    let n_records = (ends.len() - 2) / RECORD_LINES;
    let mut bytes = healthy.as_bytes().to_vec();
    let mut flipped = 0;
    for &r in &plan.flip_records {
        if r >= n_records {
            continue;
        }
        // first digit of the record's schedule block (line 1 of the
        // record, right after the header): inside the checksummed
        // region, so the flip must surface as `dropped_corrupt`
        let lo = ends[2 + r * RECORD_LINES];
        let hi = ends[2 + r * RECORD_LINES + 4];
        if let Some(i) = (lo..hi).find(|&i| bytes[i].is_ascii_digit()) {
            bytes[i] = if bytes[i] == b'9' { b'8' } else { bytes[i] + 1 };
            flipped += 1;
        }
    }
    // cut mid-way through the last record's closing line
    let cut = ends[ends.len() - 1].saturating_sub(4);
    bytes.truncate(cut);
    let text = String::from_utf8(bytes).expect("digit flips and truncation preserve utf8");
    (text, flipped)
}

/// The whole fault run, audited by count.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Requests per drain.
    pub requests: usize,
    /// Victim kernels of the panic lane.
    pub victims: usize,
    /// Panics the plan injected (victims × cache generations that
    /// actually prepare them).
    pub injected_panics: u64,
    /// What the probe's and the four drains' caches contained, what the
    /// drains retried, caught and failed (worker panics, unrecovered
    /// slots and failures must be 0: the caches contain everything the
    /// plan injects, and every injected fault heals), and whether all
    /// five digest folds agree.
    pub containment: Containment,
    /// Records the plan flipped a digit in.
    pub injected_flips: usize,
    /// Records the truncation cut (always 1: the final record).
    pub injected_truncations: usize,
    /// What the salvage loader recovered and dropped.
    pub salvage: SalvageReport,
    /// Whether the version-tampered copy was rejected wholesale.
    pub version_tamper_rejected: bool,
    /// Whether the committed store survived an interrupted re-export
    /// byte-intact.
    pub atomic_export_ok: bool,
    /// Exact-search requests run under the starvation ceiling.
    pub starved_requests: usize,
    /// Starved requests served as a counted
    /// [`SchedQuality::CutoffFeasible`] answer (must equal
    /// `starved_requests`).
    pub starved_cutoffs: usize,
    /// Whether the cutoff quality claim survives a store round-trip.
    pub quality_roundtrip_ok: bool,
    /// Wall time of the whole run.
    pub seconds: f64,
}

impl FaultReport {
    /// The audit: every injected fault appears in exactly one recovery
    /// counter, and nothing leaked past the containment layers.
    pub fn accounted(&self) -> bool {
        let c = &self.containment;
        c.panics_contained == self.injected_panics
            && c.worker_panics == 0
            && c.unrecovered_slots == 0
            && c.failures == 0
            && self.salvage.dropped_corrupt == self.injected_flips
            && self.salvage.dropped_truncated == self.injected_truncations
            && !self.salvage.version_rejected
            && self.version_tamper_rejected
            && self.atomic_export_ok
            && self.starved_cutoffs == self.starved_requests
            && self.quality_roundtrip_ok
    }

    /// The `faults` metrics of `BENCH_repro.json`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b = |x: bool| if x { 1.0 } else { 0.0 };
        let mut m = vec![
            ("requests".into(), self.requests as f64),
            ("victims".into(), self.victims as f64),
            ("injected_panics".into(), self.injected_panics as f64),
        ];
        m.extend(self.containment.metrics());
        m.extend([
            ("injected_flips".into(), self.injected_flips as f64),
            (
                "dropped_corrupt".into(),
                self.salvage.dropped_corrupt as f64,
            ),
            (
                "injected_truncations".into(),
                self.injected_truncations as f64,
            ),
            (
                "dropped_truncated".into(),
                self.salvage.dropped_truncated as f64,
            ),
            ("salvaged_records".into(), self.salvage.recovered as f64),
            (
                "version_tamper_rejected".into(),
                b(self.version_tamper_rejected),
            ),
            ("atomic_export_ok".into(), b(self.atomic_export_ok)),
            ("starved_requests".into(), self.starved_requests as f64),
            ("starved_cutoffs".into(), self.starved_cutoffs as f64),
            ("quality_roundtrip_ok".into(), b(self.quality_roundtrip_ok)),
            ("accounted".into(), b(self.accounted())),
            ("seconds".into(), self.seconds),
        ]);
        m
    }

    /// The per-lane audit table (`results/faults.csv`).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fault injection audit ({} requests, {} drains)",
                self.requests, 4
            ),
            &["lane", "injected", "observed", "counter"],
        );
        let b = |x: bool| if x { "1" } else { "0" }.to_string();
        t.row(vec![
            "preparation panic".into(),
            self.injected_panics.to_string(),
            self.containment.panics_contained.to_string(),
            "panics_contained".into(),
        ]);
        t.row(vec![
            "slot recovery".into(),
            self.injected_panics.to_string(),
            self.containment.slots_recovered.to_string(),
            "slots_recovered".into(),
        ]);
        t.row(vec![
            "digit flip".into(),
            self.injected_flips.to_string(),
            self.salvage.dropped_corrupt.to_string(),
            "dropped_corrupt".into(),
        ]);
        t.row(vec![
            "truncation".into(),
            self.injected_truncations.to_string(),
            self.salvage.dropped_truncated.to_string(),
            "dropped_truncated".into(),
        ]);
        t.row(vec![
            "version tamper".into(),
            "1".into(),
            b(self.version_tamper_rejected),
            "version_rejected".into(),
        ]);
        t.row(vec![
            "interrupted export".into(),
            "1".into(),
            b(self.atomic_export_ok),
            "atomic rename".into(),
        ]);
        t.row(vec![
            "budget starvation".into(),
            self.starved_requests.to_string(),
            self.starved_cutoffs.to_string(),
            "starved_cutoffs".into(),
        ]);
        t
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.containment;
        f.write_str(&self.table().render())?;
        writeln!(
            f,
            "faults: {} requests x 4 drains in {:.2}s; {} failures, {} worker panics, \
             {} unrecovered slots; salvage {}/{} records; determinism {}; audit {}",
            self.requests,
            self.seconds,
            c.failures,
            c.worker_panics,
            c.unrecovered_slots,
            self.salvage.recovered,
            self.salvage.recovered + self.salvage.dropped(),
            if c.deterministic { "ok" } else { "BROKEN" },
            if self.accounted() {
                "every fault accounted"
            } else {
                "LEAK"
            }
        )
    }
}

/// Runs the fault plan against the batch workload, the parallel drains on
/// [`ExperimentContext::workers`] threads. See the module docs for the
/// lanes; determinism and the audit are the acceptance gates.
pub fn run_faults(ctx: &ExperimentContext, opts: &FaultOptions) -> FaultReport {
    let t0 = Instant::now();
    let (requests, _variants) = build_requests(ctx, opts.target_requests);
    let n = requests.len();

    // a probe generation with no faults yields the healthy store the
    // corruption lanes need, and the record count the plan draws from
    let probe = SchedCache::new();
    let probe_drain = drain(&probe, &requests, ctx, ctx.workers, Trace::off());
    let healthy_store = probe.export_store();
    let healthy = healthy_store.to_text();

    let plan = FaultPlan::derive(FAULT_SEED, &requests, healthy_store.len(), opts);
    let victims: Arc<HashSet<String>> = Arc::new(plan.victims.iter().cloned().collect());

    // drains 1-3: cold serial, cold parallel, warm memory — each cold
    // cache is one shim generation (each victim panics once per cache)
    let serial_cache = SchedCache::new().into_preparer(panic_shim(Arc::clone(&victims)));
    let serial = drain(&serial_cache, &requests, ctx, 1, Trace::off());
    let cache = SchedCache::new().into_preparer(panic_shim(Arc::clone(&victims)));
    let cold = drain(&cache, &requests, ctx, ctx.workers, Trace::off());
    let warm = drain(&cache, &requests, ctx, ctx.workers, Trace::off());

    // interrupted-export lane: commit the healthy store, kill a rewrite
    // before the rename, verify the committed bytes survived
    let path = std::env::temp_dir().join(format!("vliw-faults-{}.store", std::process::id()));
    let atomic_export_ok = healthy_store.save(&path).is_ok()
        && healthy_store
            .save_interrupted(&path, healthy.len() / 2)
            .is_err()
        && std::fs::read_to_string(&path)
            .map(|t| t == healthy)
            .unwrap_or(false);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ScheduleStore::temp_sibling(&path)).ok();

    // corruption lanes: flips + truncation on one copy, version tamper
    // on another; salvage the first, reject the second
    let (damaged, injected_flips) = corrupt_store_text(&healthy, &plan);
    let (salvaged, salvage) = ScheduleStore::from_text_salvage(&damaged);
    let version_tamper_rejected = {
        let tampered = healthy.replacen("vliw-sched-store 2", "vliw-sched-store 99", 1);
        let (s, rep) = ScheduleStore::from_text_salvage(&tampered);
        s.is_empty() && rep.version_rejected
    };

    // drain 4: a fresh cache over the *salvaged* store, under a fresh
    // shim generation — dropped records re-prepare cold, and a victim
    // among them panics once more on the way
    let expected_disk_panics = plan
        .victims
        .iter()
        .filter(|v| {
            healthy_store
                .entries()
                .any(|e| &e.name == *v && salvaged.get(&e.key).is_none())
        })
        .count() as u64;
    let disk_cache =
        SchedCache::with_store(salvaged).into_preparer(panic_shim(Arc::clone(&victims)));
    let disk = drain(&disk_cache, &requests, ctx, ctx.workers, Trace::off());

    // starvation lane: exact search under a zero cost ceiling — every
    // request must be served as a cutoff, visibly
    let mut starved_ctx = ctx.clone();
    starved_ctx.cost_ceiling = Some(0);
    let bnb_cfg = RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    }
    .with_backend(SchedBackend::ExactBnB);
    let machine = starved_ctx.machine_for(&bnb_cfg);
    let mut starved_kernels = distinct_kernels(&requests);
    starved_kernels.truncate(opts.starved_requests);
    let starved_cache = SchedCache::new();
    let starved_cutoffs = starved_kernels
        .iter()
        .filter(|k| {
            starved_cache
                .prepare(k, &machine, &bnb_cfg, &starved_ctx)
                .map(|p| p.quality == SchedQuality::CutoffFeasible)
                .unwrap_or(false)
        })
        .count();
    let quality_roundtrip_ok = {
        let s = starved_cache.export_store();
        ScheduleStore::from_text(&s.to_text())
            .map(|r| {
                r.len() == starved_kernels.len()
                    && r.entries()
                        .all(|e| e.quality == SchedQuality::CutoffFeasible)
            })
            .unwrap_or(false)
    };

    FaultReport {
        requests: n,
        victims: plan.victims.len(),
        // serial and cold generations prepare every victim; the disk
        // generation only re-prepares victims whose records the salvage
        // dropped
        injected_panics: 2 * plan.victims.len() as u64 + expected_disk_panics,
        containment: Containment::of(
            &[&probe, &serial_cache, &cache, &disk_cache],
            &[&probe_drain, &serial, &cold, &warm, &disk],
        ),
        injected_flips,
        injected_truncations: 1,
        salvage,
        version_tamper_rejected,
        atomic_export_ok,
        starved_requests: starved_kernels.len(),
        starved_cutoffs,
        quality_roundtrip_ok,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_disjoint() {
        let opts = FaultOptions::quick();
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 32;
        ctx.profile.iteration_cap = 32;
        let (requests, _) = build_requests(&ctx, 32);
        let a = FaultPlan::derive(FAULT_SEED, &requests, 40, &opts);
        let b = FaultPlan::derive(FAULT_SEED, &requests, 40, &opts);
        assert_eq!(a.victims, b.victims);
        assert_eq!(a.flip_records, b.flip_records);
        assert_eq!(a.victims.len(), opts.panic_victims);
        assert_eq!(a.flip_records.len(), opts.bit_flips);
        // flips never touch the last record (the truncation lane's)
        assert!(a.flip_records.iter().all(|&r| r < 39));
        let distinct: HashSet<_> = a.flip_records.iter().collect();
        assert_eq!(distinct.len(), a.flip_records.len());
        let c = FaultPlan::derive(FAULT_SEED + 1, &requests, 40, &opts);
        assert!(c.victims != a.victims || c.flip_records != a.flip_records);
    }

    #[test]
    fn draw_without_replacement() {
        let mut rng = StdRng::seed_from_u64(7);
        let picks = draw(&mut rng, 10, 10);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(draw(&mut rng, 3, 100).len() == 3);
        assert!(draw(&mut rng, 0, 5).is_empty());
    }
}
