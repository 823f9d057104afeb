//! The schedule cache: one key→slot map in memory, versioned on disk.
//!
//! This is the orchestration layer of "scheduling as a service": a
//! content-addressed cache that (a) serves concurrent worker threads
//! from one key→slot map, and (b) outlives a process via a persistent
//! integers-only text store.
//!
//! * **Key** ([`CacheKey`]): `kernel_fingerprint × env fingerprint ×
//!   (arch, policy, backend, profile source, unroll, padding)`. Both
//!   fingerprints are structural FNV-1a digests
//!   ([`vliw_ir::StableHasher`]) — no `Debug`-string hashing, no
//!   per-lookup formatting allocation, stable across toolchains. The env
//!   fingerprint masks Attraction Buffers and MSHRs (consumed by the
//!   cache timing model, downstream of scheduling), so buffer/hint/MSHR
//!   sweeps share preparations exactly as before.
//! * **Slots** ([`SchedCache`]): one locked map resolves a key to its
//!   slot, and its lock is held for that lookup only. A slot is just its
//!   mutex, which doubles as the in-flight guard: concurrent requests
//!   for the *same* cell block on the first computer (one preparation
//!   per key, ever), while requests for other cells proceed as soon as
//!   the map lock is released. No path waits on a slot mutex while it
//!   holds the map lock. A completed cell stays for the cache's
//!   lifetime.
//! * **Store** ([`ScheduleStore`]): completed cells can be exported to a
//!   versioned text form and fed back into a fresh cache. A warm hit
//!   rebuilds the prepared kernel (unroll + profile — no candidate
//!   scheduling) and accepts the stored schedule only if the rebuilt
//!   kernel's fingerprint matches the stored one *and* the schedule
//!   verifies against it; anything else counts as stale and falls
//!   through to a cold preparation. Schedules therefore survive across
//!   runs, and a stale store can only cost time, never correctness.
//! * **Variant profiles** (`ProfileMemo`): a synthetic profile depends
//!   on the kernel, the unroll factor, the machine, the padding flag and
//!   the profile input — not on the policy, backend, profile source or
//!   unroll mode. Each cache therefore keeps one memo keyed by
//!   `(kernel_fp, env_fp, padding, factor)` (the arch enters through the
//!   machine in `env_fp`) whose entry is a variant's per-memory-op
//!   [`MemProfile`]s, flattened into one `Arc<[u64]>`. The default fill
//!   and store rebuilds re-unroll the original and attach a stored entry
//!   instead of profiling again; a miss profiles outside the memo lock
//!   and inserts the finished entry if it is still absent, so a panicking
//!   fill leaves nothing behind. The memo lives exactly as long as its
//!   cache. `ProfileSource::None` never touches it, and custom preparers
//!   bypass it. Whole kernels, schedule outcomes and
//!   dependence graphs are *not* shared: in a prototype, memoizing whole
//!   kernels raised the `cold_service` benchmark's peak RSS from 36.3 to
//!   44.1 MB, and kernels plus outcomes to 51.3 MB (DESIGN.md, "Variant
//!   profiles").
//! * **Failure containment**: a slot fill runs under `catch_unwind`, so
//!   a panicking preparation fails its own request
//!   ([`ScheduleError::PreparationPanicked`]), marks the slot `Failed`
//!   (counted in [`SchedCache::panics_contained`]) and leaves the mutex
//!   clean; the next request for the key recovers the slot
//!   ([`SchedCache::slots_recovered`]) and re-attempts. Store records
//!   carry per-record checksums (format v2) and exports are atomic
//!   (temp file + rename), so a torn file is salvageable record by
//!   record — see [`ScheduleStore::from_text_salvage`]. DESIGN.md
//!   ("Failure model & recovery") walks the full lifecycle.

use std::collections::HashMap;
use std::hash::{Hash, Hasher as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use vliw_ir::{kernel_fingerprint, LoopKernel, MemProfile, StableHasher};
use vliw_machine::MachineConfig;
use vliw_sched::{
    ClusterPolicy, SchedBackend, SchedQuality, Schedule, ScheduleError, UnrollChoice,
};

use vliw_trace::Trace;

use crate::context::{
    prepare_with_profiles, ArchVariant, ExperimentContext, PreparedLoop, ProfileSource, RunConfig,
    UnrollMode, VariantBuilder,
};

/// On-disk format version of [`ScheduleStore`], the only one either
/// loader reads. Version 2 added one `check <u64>` line per record (a
/// [`StableHasher`] digest of the header and schedule lines) so the
/// salvage loader can tell a torn or bit-flipped record from a good one;
/// version-1 stores (no check lines) are rejected.
pub(crate) const SCHED_STORE_VERSION: u32 = 2;

/// The preparation-relevant identity of one cache cell.
///
/// `kernel_fp` is the structural fingerprint of the *original* (factor-1,
/// profile-blind) kernel; `env_fp` digests the masked machine and every
/// context knob preparation reads (workload seeds/inputs, profiling and
/// simulation caps, enumeration limits, the exact backend's deadline). The
/// remaining axes are the `RunConfig` fields preparation depends on —
/// not Attraction Buffers, MSHRs or hints, which act downstream of
/// scheduling. Backend and source are part of the key: two backends on
/// the same cell produce different schedules and must never share a slot
/// (`backends_never_share_a_memo_slot` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`kernel_fingerprint`] of the original kernel.
    pub kernel_fp: u64,
    /// Stable digest of the masked machine + context knobs.
    pub env_fp: u64,
    /// Target cache organization.
    pub arch: ArchVariant,
    /// Cluster-assignment policy.
    pub policy: ClusterPolicy,
    /// Scheduler backend.
    pub backend: SchedBackend,
    /// Profile source.
    pub source: ProfileSource,
    /// Unrolling mode.
    pub unroll: UnrollMode,
    /// §4.3.4 padding flag.
    pub padding: bool,
}

/// The environment fingerprint: masked machine (buffers and MSHRs zeroed
/// — they do not affect preparation) plus every context knob the
/// preparation pipeline reads. Computed with the derived `Hash` of
/// `MachineConfig` fed into a [`StableHasher`], so it is structural and
/// toolchain-stable.
fn env_fingerprint(machine: &MachineConfig, ctx: &ExperimentContext) -> u64 {
    let mut masked = machine.clone();
    masked.attraction_buffers = None;
    masked.mshrs = Default::default();
    let mut h = StableHasher::new();
    masked.hash(&mut h);
    let w = &ctx.workloads;
    w.seed.hash(&mut h);
    // the byte the retired workload padding flag (always on) wrote: every
    // key stays unchanged
    true.hash(&mut h);
    (w.profile_input, w.exec_input).hash(&mut h);
    ctx.profile.hash(&mut h);
    ctx.sim.hash(&mut h);
    ctx.enum_limits.hash(&mut h);
    // the slot of the retired delay percentile, always empty: writing it
    // keeps every env fingerprint, and so every stored key, unchanged
    h.write_opt_u64(None);
    h.write_opt_u64(ctx.cost_ceiling);
    // the discriminant the retired fallback policy's derived `Hash`
    // wrote for its only surviving value: every key stays unchanged
    h.write_isize(1);
    h.finish()
}

/// The store tokens of each enum, one two-way table apiece: the writer
/// ([`token`]) and the parser ([`parse_token`]) read the same table.
const ARCH_TOKENS: [(ArchVariant, &str); 2] = [
    (ArchVariant::WordInterleaved, "wi"),
    (ArchVariant::MultiVliw, "mv"),
];
const POLICY_TOKENS: [(ClusterPolicy, &str); 4] = [
    (ClusterPolicy::Free, "base"),
    (ClusterPolicy::BuildChains, "ibc"),
    (ClusterPolicy::PreBuildChains, "ipbc"),
    (ClusterPolicy::NoChains, "nochains"),
];
const SOURCE_TOKENS: [(ProfileSource, &str); 2] = [
    (ProfileSource::None, "none"),
    (ProfileSource::Synthetic, "syn"),
];
const UNROLL_TOKENS: [(UnrollMode, &str); 3] = [
    (UnrollMode::NoUnroll, "no"),
    (UnrollMode::Ouf, "ouf"),
    (UnrollMode::Selective, "sel"),
];
const CHOICE_TOKENS: [(UnrollChoice, &str); 3] = [
    (UnrollChoice::None, "none"),
    (UnrollChoice::TimesN, "xn"),
    (UnrollChoice::Ouf, "ouf"),
];
const QUALITY_TOKENS: [(SchedQuality, &str); 3] = [
    (SchedQuality::Heuristic, "heur"),
    (SchedQuality::ProvenOptimal, "opt"),
    (SchedQuality::CutoffFeasible, "cutoff"),
];

/// The token of `value` in `table`.
fn token<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    table
        .iter()
        .find(|(v, _)| v == value)
        .map(|&(_, tok)| tok)
        .expect("every value has a store token")
}

/// The value of `tok` in `table`; `what` names the field in the error.
fn parse_token<T: Copy>(table: &[(T, &str)], what: &str, tok: &str) -> Result<T, String> {
    table
        .iter()
        .find(|&&(_, t)| t == tok)
        .map(|&(v, _)| v)
        .ok_or_else(|| format!("unknown {what} token `{tok}`"))
}

/// Arch tokens are the table's, except a unified cache's `uni{lat}`.
fn arch_token(arch: ArchVariant) -> String {
    match arch {
        ArchVariant::Unified(lat) => format!("uni{lat}"),
        _ => token(&ARCH_TOKENS, &arch).into(),
    }
}

fn parse_arch(tok: &str) -> Result<ArchVariant, String> {
    match tok.strip_prefix("uni").and_then(|l| l.parse().ok()) {
        Some(lat) => Ok(ArchVariant::Unified(lat)),
        None => parse_token(&ARCH_TOKENS, "arch", tok),
    }
}

/// The backend's store token is its [`SchedBackend::name`].
fn parse_backend(tok: &str) -> Result<SchedBackend, String> {
    SchedBackend::ALL
        .into_iter()
        .find(|b| b.name() == tok)
        .ok_or_else(|| format!("unknown backend token `{tok}`"))
}

impl CacheKey {
    /// The key of `(original, machine, cfg, ctx)`.
    pub fn of(
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> Self {
        CacheKey {
            kernel_fp: kernel_fingerprint(original),
            env_fp: env_fingerprint(machine, ctx),
            arch: cfg.arch,
            policy: cfg.policy,
            backend: cfg.backend,
            source: cfg.source,
            unroll: cfg.unroll,
            padding: cfg.padding,
        }
    }
}

/// Locks `m`, recovering from poison: a mutex poisoned by some panic
/// elsewhere still holds coherent data here, because every fill path
/// contains its panics *inside* the guard scope (`catch_unwind` around
/// the computation, never around the lock) and writes a whole
/// [`SlotState`] or nothing. Recovery is therefore always safe, and no
/// waiter ever sees `PoisonError`.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The variant-profile memo's key: variant `factor` of the original
/// kernel `kernel_fp`, laid out in the environment `env_fp` with or
/// without §4.3.4 padding. A synthetic profile reads nothing else — not
/// the policy, backend, profile source or unroll mode — and the arch
/// reaches it only through the machine, which `env_fp` digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileKey {
    kernel_fp: u64,
    env_fp: u64,
    padding: bool,
    factor: u32,
}

/// The variant-profile memo of one [`SchedCache`] (see the module docs):
/// per profiled loop variant, the synthetic [`MemProfile`] of each memory
/// op, in op order, flattened to the hit rate's bits followed by the
/// cluster histogram.
#[derive(Debug, Default)]
pub(crate) struct ProfileMemo {
    map: Mutex<HashMap<ProfileKey, Arc<[u64]>>>,
}

impl ProfileMemo {
    /// `kernel` — variant `factor` of the original `key` names — with its
    /// synthetic profiles: attached from the memo, or computed by
    /// `profile` outside the memo lock and recorded unless another fill
    /// recorded them first. A `profile` that panics records nothing.
    pub(crate) fn profiled(
        &self,
        key: &CacheKey,
        factor: u32,
        mut kernel: LoopKernel,
        profile: impl FnOnce(LoopKernel) -> LoopKernel,
    ) -> LoopKernel {
        let pk = ProfileKey {
            kernel_fp: key.kernel_fp,
            env_fp: key.env_fp,
            padding: key.padding,
            factor,
        };
        let stored = lock_recover(&self.map).get(&pk).cloned();
        if let Some(words) = stored {
            attach_profiles(&mut kernel, &words);
            return kernel;
        }
        let kernel = profile(kernel);
        let words = flatten_profiles(&kernel);
        lock_recover(&self.map).entry(pk).or_insert(words);
        kernel
    }
}

/// The memo entry of a synthetically profiled kernel.
fn flatten_profiles(kernel: &LoopKernel) -> Arc<[u64]> {
    kernel
        .mem_ops()
        .flat_map(|op| {
            let p = op
                .mem
                .as_ref()
                .and_then(|m| m.profile.as_ref())
                .expect("a profiled kernel's memory ops carry profiles");
            std::iter::once(p.hit_rate.to_bits()).chain(p.cluster_hist.iter().copied())
        })
        .collect()
}

/// Sets every memory op's profile of `kernel` from a memo entry
/// [`flatten_profiles`] made of a kernel of the same shape.
fn attach_profiles(kernel: &mut LoopKernel, words: &[u64]) {
    let n = kernel.n_mem_ops();
    if n == 0 {
        return;
    }
    // every op's histogram has one count per cluster
    let stride = words.len() / n;
    let mem_ops = kernel.ops.iter_mut().filter(|op| op.is_mem());
    for (op, w) in mem_ops.zip(words.chunks_exact(stride)) {
        op.mem.as_mut().expect("a memory op has an access").profile = Some(MemProfile {
            hit_rate: f64::from_bits(w[0]),
            cluster_hist: w[1..].to_vec(),
        });
    }
}

/// The lifecycle of one cache cell.
#[derive(Debug, Default)]
enum SlotState {
    /// No completed preparation; the slot mutex being held is what marks
    /// a fill in flight.
    #[default]
    Empty,
    /// A completed preparation, served to every later request.
    Ready(Arc<PreparedLoop>),
    /// The last filler panicked (contained at the slot boundary). The
    /// next thread to take the slot observes this, counts the recovery,
    /// resets the slot to [`SlotState::Empty`] and re-attempts — a panic
    /// can fail its own request but never wedges the cell.
    Failed(String),
}

/// A cache cell: its own mutex is the key's in-flight guard.
type Slot = Arc<Mutex<SlotState>>;

/// Signature of the function a cache invokes to fill a cold slot —
/// the preparation seam. The default is
/// [`prepare_loop`](crate::prepare_loop); the
/// fault-injection harness (and the panic-storm test) swap in shims that
/// panic or starve on selected keys, exercising exactly the containment
/// paths production code runs.
pub type PrepareFn = dyn Fn(
        &LoopKernel,
        &MachineConfig,
        &RunConfig,
        &ExperimentContext,
    ) -> Result<PreparedLoop, ScheduleError>
    + Send
    + Sync;

/// The persistable schedule cache. See the module docs.
#[derive(Default)]
pub struct SchedCache {
    /// Key → slot; locked only to resolve or list slots, never while
    /// waiting on one.
    map: Mutex<HashMap<CacheKey, Slot>>,
    store: Option<ScheduleStore>,
    /// Slot-fill override (`None` =
    /// [`prepare_loop`](crate::prepare_loop)).
    preparer: Option<Arc<PrepareFn>>,
    /// The variant-profile memo of the default fill and store rebuilds.
    profiles: ProfileMemo,
    hits: AtomicU64,
    store_hits: AtomicU64,
    prepares: AtomicU64,
    stale: AtomicU64,
    inflight_waits: AtomicU64,
    panics_contained: AtomicU64,
    slots_recovered: AtomicU64,
}

impl std::fmt::Debug for SchedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedCache")
            .field("store", &self.store.as_ref().map(ScheduleStore::len))
            .field("custom_preparer", &self.preparer.is_some())
            .finish()
    }
}

impl SchedCache {
    /// An empty cache with no backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache warmed by `store`: lookups that miss in memory consult the
    /// store and rebuild its schedules instead of re-scheduling.
    pub fn with_store(store: ScheduleStore) -> Self {
        SchedCache {
            store: Some(store),
            ..Self::default()
        }
    }

    /// This cache, filling cold slots through `preparer` instead of
    /// [`prepare_loop`](crate::prepare_loop) — the
    /// fault-injection seam. Panics thrown by the
    /// preparer are contained exactly like panics from the real pipeline.
    pub fn into_preparer(mut self, preparer: Arc<PrepareFn>) -> Self {
        self.preparer = Some(preparer);
        self
    }

    /// Every slot with its key. The handles are cloned under the map
    /// lock and the lock is released before the caller inspects any
    /// slot, so a fill in flight never holds up a lookup.
    fn slots(&self) -> Vec<(CacheKey, Slot)> {
        lock_recover(&self.map)
            .iter()
            .map(|(key, slot)| (*key, Arc::clone(slot)))
            .collect()
    }

    /// Number of cached schedules (completed preparations).
    pub fn len(&self) -> usize {
        self.slots()
            .iter()
            .filter(|(_, slot)| matches!(*lock_recover(slot), SlotState::Ready(_)))
            .count()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prepares served from a completed in-memory slot — the scheduler
    /// work the cache saved within this run.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed) as usize
    }

    /// Prepares served by rebuilding persistent-store entries — the
    /// scheduler work a previous run saved this one.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Cold preparations computed.
    pub fn prepares(&self) -> u64 {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Persistent-store entries rejected as stale.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Distinct loop variants synthetically profiled: the variant-profile
    /// memo's length. Every fill profiles the same variants whichever
    /// worker runs it, so the count does not depend on the worker count.
    pub(crate) fn profiled_variants(&self) -> usize {
        lock_recover(&self.profiles.map).len()
    }

    /// Times a thread blocked on another's in-flight preparation of the
    /// same cell (work deduplicated, not duplicated).
    pub(crate) fn inflight_waits(&self) -> u64 {
        self.inflight_waits.load(Ordering::Relaxed)
    }

    /// Preparation panics contained at the slot boundary.
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.load(Ordering::Relaxed)
    }

    /// Failed slots observed, reset and re-attempted by a later request.
    pub fn slots_recovered(&self) -> u64 {
        self.slots_recovered.load(Ordering::Relaxed)
    }

    /// The panic reasons of every slot still marked failed (no request
    /// has come back to recover it) — the diagnostic surface for
    /// post-mortems. The batch driver drains every request to
    /// completion, so after a batch this must be empty — the "zero
    /// unrecovered slots" acceptance gate.
    pub fn failed_slot_reasons(&self) -> Vec<String> {
        self.slots()
            .iter()
            .filter_map(|(_, slot)| match &*lock_recover(slot) {
                SlotState::Failed(reason) => Some(reason.clone()),
                _ => None,
            })
            .collect()
    }

    /// Looks up or computes the prepared loop for `(original, cfg)` —
    /// the service entry point. Same-key requests dedupe onto one
    /// preparation; different keys never serialize against each other
    /// beyond the map's key→slot resolution.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures (pathological kernels only), and
    /// reports a contained preparation panic as
    /// [`ScheduleError::PreparationPanicked`]. Failures are not cached:
    /// they are deterministic and rare, so a retry by a later waiter is
    /// harmless. A panic marks the slot `Failed` — the next request for
    /// the key observes that, counts the recovery and re-attempts.
    pub fn prepare(
        &self,
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> Result<Arc<PreparedLoop>, ScheduleError> {
        self.prepare_traced(original, machine, cfg, ctx, Trace::off())
    }

    /// [`prepare`](SchedCache::prepare) with an attached [`Trace`] handle:
    /// the slot lifecycle becomes visible as events. A served request emits
    /// exactly one of `cache.hit`, `cache.store_hit` or a `cache.miss`
    /// followed by a `cache.fill` span around the cold preparation; waiting
    /// on another thread's in-flight fill is a `cache.wait` span; observing
    /// and resetting a failed slot is `cache.recovered`; a contained panic
    /// is `cache.failed`; a rejected store entry is `cache.stale`.
    ///
    /// # Errors
    ///
    /// As [`prepare`](SchedCache::prepare).
    pub(crate) fn prepare_traced(
        &self,
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
        trace: Trace<'_>,
    ) -> Result<Arc<PreparedLoop>, ScheduleError> {
        let key = CacheKey::of(original, machine, cfg, ctx);
        let slot = Arc::clone(lock_recover(&self.map).entry(key).or_default());
        // the slot lock is held across the computation: waiters for the
        // same key block here (instead of duplicating the dominant cost),
        // while cells with other keys proceed untouched
        let mut guard = match slot.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                // the wait span brackets blocking on another thread's fill
                // of the same cell — waiter wake latency in trace time
                let _wait = trace.span("cache.wait");
                lock_recover(&slot)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        match &*guard {
            SlotState::Ready(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.hit", &[]);
                return Ok(Arc::clone(hit));
            }
            SlotState::Failed(_) => {
                // a previous filler panicked; this request adopts the
                // cell and re-attempts from scratch
                self.slots_recovered.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.recovered", &[]);
                *guard = SlotState::Empty;
            }
            SlotState::Empty => {}
        }
        if let Some(entry) = self.store.as_ref().and_then(|s| s.get(&key)) {
            match rebuild(entry, original, machine, cfg, ctx, &self.profiles) {
                Ok(p) => {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    trace.instant("cache.store_hit", &[]);
                    let p = Arc::new(p);
                    *guard = SlotState::Ready(Arc::clone(&p));
                    return Ok(p);
                }
                Err(_) => {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    trace.instant("cache.stale", &[]);
                }
            }
        }
        self.prepares.fetch_add(1, Ordering::Relaxed);
        trace.instant("cache.miss", &[]);
        let fill_span = trace.span("cache.fill");
        // the panic boundary: the computation — and only the computation —
        // runs under `catch_unwind`, inside the guard scope, so a panic
        // can neither unwind through (poisoning the mutex and wedging
        // every waiter) nor kill the calling worker thread. The shared
        // state a panic could have left half-written is the closure's
        // own; the slot is updated only from a completed result.
        let computed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &self.preparer {
                // custom preparers (fault-injection shims) take no trace
                // and bypass the variant-profile memo
                Some(f) => f(original, machine, cfg, ctx),
                None => {
                    let profiles = Some((&self.profiles, &key));
                    prepare_with_profiles(original, machine, cfg, ctx, profiles, trace)
                }
            }));
        drop(fill_span);
        let prepared = match computed {
            Ok(Ok(p)) => Arc::new(p),
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                self.panics_contained.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.failed", &[]);
                *guard = SlotState::Failed(reason.clone());
                return Err(ScheduleError::PreparationPanicked {
                    loop_name: original.name.clone(),
                    reason,
                });
            }
        };
        *guard = SlotState::Ready(Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Exports every completed cell into a [`ScheduleStore`].
    pub fn export_store(&self) -> ScheduleStore {
        let mut store = ScheduleStore::new();
        for (key, slot) in self.slots() {
            if let SlotState::Ready(p) = &*lock_recover(&slot) {
                store.insert(StoreEntry {
                    name: p.kernel.name.clone(),
                    key,
                    choice: p.choice,
                    factor: p.factor,
                    prepared_fp: kernel_fingerprint(&p.kernel),
                    quality: p.quality,
                    schedule: p.schedule.clone(),
                });
            }
        }
        store
    }
}

/// Rebuilds a [`PreparedLoop`] from a store entry: re-derives the
/// prepared kernel (unroll + profile at the stored factor, the profiles
/// served by `profiles` — no candidate scheduling), then accepts the
/// stored schedule only if the rebuilt kernel's fingerprint matches and
/// the schedule verifies against it.
fn rebuild(
    entry: &StoreEntry,
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    profiles: &ProfileMemo,
) -> Result<PreparedLoop, String> {
    let memo = Some((profiles, &entry.key));
    let kernel = VariantBuilder::new(original, machine, cfg, ctx, memo).build(entry.factor);
    let fp = kernel_fingerprint(&kernel);
    if fp != entry.prepared_fp {
        return Err(format!(
            "stale: rebuilt kernel fingerprint {fp} != stored {}",
            entry.prepared_fp
        ));
    }
    if !entry.schedule.verify(&kernel, machine).is_empty() {
        return Err("stale: stored schedule fails verification".into());
    }
    Ok(PreparedLoop {
        kernel,
        schedule: entry.schedule.clone(),
        quality: entry.quality,
        choice: entry.choice,
        factor: entry.factor,
    })
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads; anything else gets a placeholder).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One persisted cell: its key, the unrolling decision, the fingerprint
/// of the prepared (unrolled) kernel the schedule belongs to, and the
/// schedule itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Original kernel name (readability + sort key; no whitespace).
    pub name: String,
    /// The cache key.
    pub key: CacheKey,
    /// Which unrolling variant won.
    pub choice: UnrollChoice,
    /// The unroll factor applied.
    pub factor: u32,
    /// [`kernel_fingerprint`] of the prepared (unrolled) kernel — the
    /// staleness gate: a rebuilt kernel must hash to this before the
    /// stored schedule is trusted.
    pub prepared_fp: u64,
    /// The backend's quality claim.
    pub quality: SchedQuality,
    /// The schedule.
    pub schedule: Schedule,
}

impl StoreEntry {
    fn header_line(&self) -> String {
        format!(
            "entry {} kfp {} efp {} arch {} policy {} backend {} source {} unroll {} pad {} \
             choice {} factor {} pfp {} quality {}",
            self.name,
            self.key.kernel_fp,
            self.key.env_fp,
            arch_token(self.key.arch),
            token(&POLICY_TOKENS, &self.key.policy),
            self.key.backend.name(),
            token(&SOURCE_TOKENS, &self.key.source),
            token(&UNROLL_TOKENS, &self.key.unroll),
            u8::from(self.key.padding),
            token(&CHOICE_TOKENS, &self.choice),
            self.factor,
            self.prepared_fp,
            token(&QUALITY_TOKENS, &self.quality),
        )
    }

    /// Parses one serialized record — its [`RECORD_LINES`] lines, from
    /// the `entry` header through `endentry` — and checks its digest.
    fn parse_record(rec: &[&str]) -> Result<Self, String> {
        let &[head, s0, s1, s2, s3, check, end] = rec else {
            return Err(format!(
                "a record has {RECORD_LINES} lines, found {}",
                rec.len()
            ));
        };
        let t: Vec<&str> = head.split_whitespace().collect();
        if t.len() != 26 || t[0] != "entry" {
            return Err(format!("bad entry header: `{head}`"));
        }
        let name = t[1];
        let sched_text = format!("{s0}\n{s1}\n{s2}\n{s3}\n");
        let stored: u64 = check
            .strip_prefix("check ")
            .ok_or_else(|| format!("entry `{name}`: bad check line"))?
            .parse()
            .map_err(|e| format!("entry `{name}`: bad checksum: {e}"))?;
        let computed = record_checksum(head, &sched_text);
        if stored != computed {
            return Err(format!(
                "entry `{name}`: checksum mismatch (stored {stored}, computed {computed})"
            ));
        }
        if end != "endentry" {
            return Err(format!("entry `{name}`: missing endentry"));
        }
        let field = |tag: usize, name: &str| -> Result<&str, String> {
            if t[tag] != name {
                return Err(format!(
                    "entry header: expected `{name}`, found `{}`",
                    t[tag]
                ));
            }
            Ok(t[tag + 1])
        };
        let int = |s: &str| s.parse::<u64>().map_err(|e| format!("entry header: {e}"));
        let key = CacheKey {
            kernel_fp: int(field(2, "kfp")?)?,
            env_fp: int(field(4, "efp")?)?,
            arch: parse_arch(field(6, "arch")?)?,
            policy: parse_token(&POLICY_TOKENS, "policy", field(8, "policy")?)?,
            backend: parse_backend(field(10, "backend")?)?,
            source: parse_token(&SOURCE_TOKENS, "source", field(12, "source")?)?,
            unroll: parse_token(&UNROLL_TOKENS, "unroll", field(14, "unroll")?)?,
            padding: match field(16, "pad")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad pad flag `{other}`")),
            },
        };
        Ok(StoreEntry {
            name: name.to_string(),
            key,
            choice: parse_token(&CHOICE_TOKENS, "choice", field(18, "choice")?)?,
            factor: int(field(20, "factor")?)? as u32,
            prepared_fp: int(field(22, "pfp")?)?,
            quality: parse_token(&QUALITY_TOKENS, "quality", field(24, "quality")?)?,
            schedule: Schedule::from_compact_text(&sched_text)
                .map_err(|e| format!("entry `{name}`: {e}"))?,
        })
    }
}

/// Lines of one serialized record: the `entry` header, the 4-line
/// schedule block, `check` and `endentry`.
pub(crate) const RECORD_LINES: usize = 7;

/// The versioned on-disk form of a [`SchedCache`]: plain text, integers
/// only, deterministic (entries sorted), byte-exact round-trips,
/// committed-file diffable.
///
/// Format (version 2):
///
/// ```text
/// vliw-sched-store 2
/// entries <N>
/// entry <name> kfp <u64> efp <u64> arch <tok> policy <tok> backend <tok>
///       source <tok> unroll <tok> pad <0|1> choice <tok> factor <k>
///       pfp <u64> quality <tok>          (one line)
/// sched ii … (4 lines, `Schedule::to_compact_text`)
/// check <u64>                            (digest of the 5 lines above)
/// endentry
/// ```
///
/// Two loaders read the format through one record scan: the salvage
/// loader ([`ScheduleStore::from_text_salvage`]) never errors — it skips
/// records that fail their checksum or parse, stops at broken framing,
/// counts everything it dropped in a [`SalvageReport`], and serves the
/// surviving records — and the strict loader ([`ScheduleStore::from_text`],
/// for stores this build wrote) accepts only a scan with nothing to
/// report. A torn or bit-flipped store therefore degrades hit rate, never
/// correctness or availability.
#[derive(Debug, Clone, Default)]
pub struct ScheduleStore {
    entries: Vec<StoreEntry>,
    index: HashMap<CacheKey, usize>,
}

/// What [`ScheduleStore::from_text_salvage`] recovered and dropped.
/// Every record of the damaged file lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Records recovered intact (checksum and parse both good).
    pub recovered: usize,
    /// Records skipped because their checksum or parse failed while the
    /// record framing was still intact (bit flips, tampered fields).
    pub dropped_corrupt: usize,
    /// Records lost to truncation or broken framing: the partial record
    /// at the damage point plus every declared record after it.
    pub dropped_truncated: usize,
    /// The store prelude named a version this build does not read (or
    /// was itself damaged); nothing was salvaged.
    pub version_rejected: bool,
}

impl SalvageReport {
    /// Total records dropped (everything except `recovered`).
    pub fn dropped(&self) -> usize {
        self.dropped_corrupt + self.dropped_truncated
    }
}

/// The per-record integrity digest: a [`StableHasher`] pass over the
/// header line and the schedule block exactly as serialized.
fn record_checksum(header: &str, sched_text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(header);
    h.write_str(sched_text);
    h.finish()
}

/// One pass of the record scan behind both loaders: the records it
/// kept, what it dropped, and the first error the strict loader reports.
#[derive(Default)]
struct Scan {
    store: ScheduleStore,
    report: SalvageReport,
    error: Option<String>,
}

impl Scan {
    /// Records `e` unless an earlier error was recorded.
    fn fail(&mut self, e: String) {
        self.error.get_or_insert(e);
    }
}

/// Reads a store text record by record:
///
/// * The prelude must be exactly `vliw-sched-store 2`. Any other prelude
///   — another version, or one too damaged to parse — reads nothing
///   (`version_rejected`; a reinterpreted framing would be worse than an
///   empty cache).
/// * A record whose framing is intact but whose checksum or tokens fail
///   is skipped (`dropped_corrupt`) and the scan continues — later
///   records survive.
/// * Broken framing (a line where `entry`/`endentry` should be, or
///   end-of-file mid-record) ends the scan: alignment downstream of the
///   break cannot be trusted. The partial record and every declared
///   record after it count as `dropped_truncated`.
/// * Records past the declared count are still read; they, an
///   unreadable count line and duplicate keys are errors only.
fn scan(text: &str) -> Scan {
    let mut scan = Scan::default();
    let lines: Vec<&str> = text.lines().collect();
    let version: Option<u32> = lines
        .first()
        .and_then(|l| l.strip_prefix("vliw-sched-store "))
        .and_then(|v| v.parse().ok());
    if version != Some(SCHED_STORE_VERSION) {
        scan.report.version_rejected = true;
        scan.fail(match (lines.first(), version) {
            (None, _) => "empty store".into(),
            (_, Some(v)) => {
                format!("store version {v}, this build reads version {SCHED_STORE_VERSION}")
            }
            (Some(l), None) => format!("bad version line: `{l}`"),
        });
        return scan;
    }
    let declared: Option<usize> = lines
        .get(1)
        .and_then(|l| l.strip_prefix("entries "))
        .and_then(|n| n.parse().ok());
    if declared.is_none() {
        scan.fail(format!("bad count line: `{}`", lines.get(1).unwrap_or(&"")));
    }
    let records = lines.get(2..).unwrap_or_default().chunks(RECORD_LINES);
    for (k, rec) in records.enumerate() {
        if Some(k) == declared {
            scan.fail(format!(
                "store declares {k} entries but continues with `{}`",
                rec[0]
            ));
        }
        if rec.len() < RECORD_LINES {
            scan.report.dropped_truncated += 1; // partial record at the tail
            scan.fail(format!("truncated record at `{}`", rec[0]));
            break;
        }
        if !rec[0].starts_with("entry ") || rec[RECORD_LINES - 1] != "endentry" {
            scan.report.dropped_truncated += 1; // framing broken: stop here
            scan.fail(format!("broken record framing at `{}`", rec[0]));
            break;
        }
        match StoreEntry::parse_record(rec) {
            Ok(e) => {
                scan.store.insert(e);
                scan.report.recovered += 1;
            }
            Err(e) => {
                scan.report.dropped_corrupt += 1;
                scan.fail(e);
            }
        }
    }
    if let Some(n) = declared {
        // records the damage swallowed wholesale (truncation past whole
        // records): the declared count still names them
        let rep = &mut scan.report;
        let seen = rep.recovered + rep.dropped_corrupt + rep.dropped_truncated;
        if seen < n {
            rep.dropped_truncated += n - seen;
            scan.fail(format!("store declares {n} entries but ends after {seen}"));
        }
        let keys = scan.store.len();
        if keys != n {
            scan.fail(format!(
                "store declares {n} entries but {keys} distinct keys"
            ));
        }
    }
    scan
}

impl ScheduleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry under `key`, if present.
    pub fn get(&self, key: &CacheKey) -> Option<&StoreEntry> {
        self.index.get(key).map(|&i| &self.entries[i])
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Inserts (or replaces) an entry.
    pub fn insert(&mut self, entry: StoreEntry) {
        match self.index.get(&entry.key) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.key, self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// Serializes the store (entries sorted by header line, so the text
    /// is deterministic regardless of insertion order).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut sorted: Vec<&StoreEntry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| e.header_line());
        let mut out = String::new();
        let _ = writeln!(out, "vliw-sched-store {SCHED_STORE_VERSION}");
        let _ = writeln!(out, "entries {}", sorted.len());
        for e in sorted {
            assert!(
                !e.name.chars().any(char::is_whitespace),
                "kernel names must not contain whitespace"
            );
            let header = e.header_line();
            let sched = e.schedule.to_compact_text();
            let check = record_checksum(&header, &sched);
            out.push_str(&header);
            out.push('\n');
            out.push_str(&sched);
            let _ = writeln!(out, "check {check}");
            out.push_str("endentry\n");
        }
        out
    }

    /// Parses a store serialized by [`ScheduleStore::to_text`]: `Ok` only
    /// when the record scan (`scan`) is clean — version accepted, nothing
    /// dropped, exactly the declared count of distinct keys and no line
    /// after the last record.
    ///
    /// # Errors
    ///
    /// Returns the scan's first error: a version mismatch (stale major
    /// format, not silently reinterpreted), a framing, token or checksum
    /// error, or a miscounted store (not silently cut short or extended).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let scan = scan(text);
        match scan.error {
            None => Ok(scan.store),
            Some(e) => Err(e),
        }
    }

    /// Parses a (possibly damaged) store, recovering every record whose
    /// framing, checksum and tokens are intact. Never errors: damage is
    /// counted, not propagated. The rules are `scan`'s.
    ///
    /// The serving path still verifies every recovered schedule against
    /// the rebuilt kernel before trusting it (`rebuild`).
    pub fn from_text_salvage(text: &str) -> (Self, SalvageReport) {
        let scan = scan(text);
        (scan.store, scan.report)
    }

    /// Writes the store to `path`, creating parent directories. The
    /// write is crash-safe: the text goes to a temporary file in the
    /// same directory which is then atomically renamed over `path`, so a
    /// crash mid-export leaves either the old store or the new one —
    /// never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temporary file is cleaned up).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = Self::temp_sibling(path);
        let result =
            std::fs::write(&tmp, self.to_text()).and_then(|()| std::fs::rename(&tmp, path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Fault-injection seam for the crash-mid-export regression test:
    /// performs [`ScheduleStore::save`]'s first phase but dies before the
    /// rename, leaving only `truncate_at` bytes of the temporary file
    /// behind (the debris a real crash would leave). The destination is
    /// never touched. Always returns the interruption as an error.
    ///
    /// # Errors
    ///
    /// Always — the simulated crash.
    pub fn save_interrupted(&self, path: &Path, truncate_at: usize) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let text = self.to_text();
        let cut = truncate_at.min(text.len());
        std::fs::write(Self::temp_sibling(path), &text.as_bytes()[..cut])?;
        Err(std::io::Error::other("export interrupted by fault plan"))
    }

    /// The temporary-file path [`ScheduleStore::save`] writes before the
    /// rename: a sibling of `path` (same filesystem, so the rename is
    /// atomic), suffixed with the process id.
    pub(crate) fn temp_sibling(path: &Path) -> std::path::PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    }

    /// Reads a store from `path` with the strict parser.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures as strings.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_text(&text)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    /// The schedule lines of an empty schedule.
    const EMPTY_SCHED: &str =
        "sched ii 1 mii 1 res 1 rec 1 tmii 1 nops 0 ncopies 0\nops\nlats\ncopies\n";

    /// Parses the record made of `header` and an empty schedule.
    fn entry(header: &str) -> StoreEntry {
        StoreEntry::parse_record(&record(header, EMPTY_SCHED).lines().collect::<Vec<_>>()).unwrap()
    }

    /// The serialized record of `header` and the schedule block `sched`,
    /// correctly checksummed.
    fn record(header: &str, sched: &str) -> String {
        let check = record_checksum(header, sched);
        format!("{header}\n{sched}check {check}\nendentry\n")
    }

    /// A record header with kernel fingerprint `kfp` and the given
    /// backend and quality tokens.
    fn corpus_header(kfp: u64, backend: &str, quality: &str) -> String {
        format!(
            "entry k{kfp} kfp {kfp} efp 11 arch wi policy ipbc backend {backend} source syn \
             unroll sel pad 1 choice xn factor 4 pfp 13 quality {quality}"
        )
    }

    /// A small healthy store of four records over both backends and every
    /// quality, two of them with non-empty schedule blocks.
    fn corpus_store_text() -> String {
        const SCHED: &str = "sched ii 2 mii 2 res 2 rec 1 tmii 2 nops 3 ncopies 1\n\
                             ops 0 0 1 1 0 5 2 1 1\nlats 1 5 1\ncopies 0 0 1 1 0\n";
        let mut store = ScheduleStore::new();
        for (kfp, backend, quality, sched) in [
            (7, "swing", "heur", SCHED),
            (8, "bnb", "opt", EMPTY_SCHED),
            (9, "bnb", "cutoff", SCHED),
            (10, "swing", "heur", EMPTY_SCHED),
        ] {
            let rec = record(&corpus_header(kfp, backend, quality), sched);
            store.insert(StoreEntry::parse_record(&rec.lines().collect::<Vec<_>>()).unwrap());
        }
        store.to_text()
    }

    /// The loader corpus: the healthy store, every byte truncation of it,
    /// seeded single-bit flips, version tampers, miscounted stores,
    /// duplicate keys, retired `delay` / `degraded` records and trailing
    /// lines. No input has a prelude with trailing tokens or extra
    /// whitespace.
    fn loader_corpus() -> Vec<String> {
        let text = corpus_store_text();
        let first = text.find("entry ").unwrap();
        let second = first + text[first..].find("endentry\n").unwrap() + "endentry\n".len();
        let (prelude, first_record, rest) = (&text[..first], &text[first..second], &text[second..]);
        let splice = |rec: &str| {
            let prelude = prelude.replace("entries 4", "entries 5");
            format!("{prelude}{first_record}{rec}{rest}")
        };
        let mut corpus = vec![text.clone()];
        corpus.extend((0..text.len()).map(|cut| text[..cut].to_string()));
        let mut rng = vliw_workloads::rng::StdRng::seed_from_u64(0x5707E);
        for _ in 0..400 {
            let mut bytes = text.clone().into_bytes();
            let byte = rng.random_range(0..bytes.len());
            bytes[byte] ^= 1 << rng.random_range(0..8u32);
            corpus.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        for version in ["1", "3", "99", "", "x"] {
            let tag = format!("vliw-sched-store {version}\n");
            corpus.push(text.replacen("vliw-sched-store 2\n", &tag, 1));
        }
        for count in ["0", "3", "5", "40", "", "-1", "x"] {
            corpus.push(text.replacen("entries 4", &format!("entries {count}"), 1));
        }
        corpus.push(text.replacen("entries 4\n", "", 1));
        corpus.push(splice(first_record)); // a duplicate key, counted
        corpus.push(format!("{text}{first_record}")); // duplicate, uncounted
        corpus.push(text.replace("entries 4", "entries 5") + first_record);
        for (backend, quality) in [("delay", "heur"), ("swing", "degraded")] {
            let retired = record(&corpus_header(8, backend, quality), EMPTY_SCHED);
            corpus.push(splice(&retired));
        }
        for tail in ["\n", "junk\n", "endentry\n"] {
            corpus.push(format!("{text}{tail}"));
        }
        corpus.push("vliw-sched-store 2\nentries 0\n".into());
        corpus.push("vliw-sched-store 2\n".into());
        corpus
    }

    /// The declared record count of a store text, if its count line parses.
    fn declared_count(text: &str) -> Option<usize> {
        text.lines().nth(1)?.strip_prefix("entries ")?.parse().ok()
    }

    /// Both loaders' verdicts over the loader corpus, pinned: the strict
    /// loader's `(ok, store text)` and the salvage loader's `(store text,
    /// report)` for every input, folded into one digest.
    #[test]
    fn loader_corpus_verdicts_are_pinned() {
        let corpus = loader_corpus();
        let mut h = StableHasher::new();
        for text in &corpus {
            match ScheduleStore::from_text(text) {
                Ok(store) => {
                    h.write_u8(1);
                    h.write_str(&store.to_text());
                }
                Err(_) => h.write_u8(0),
            }
            let (store, rep) = ScheduleStore::from_text_salvage(text);
            h.write_str(&store.to_text());
            for n in [rep.recovered, rep.dropped_corrupt, rep.dropped_truncated] {
                h.write_u64(n as u64);
            }
            h.write_u8(u8::from(rep.version_rejected));
        }
        assert_eq!((corpus.len(), h.finish()), (1_430, 0xc42b_18e4_73bd_cc82));
    }

    /// The strict loader accepts exactly the texts the salvage loader
    /// reads cleanly: version accepted, nothing dropped, and as many
    /// distinct keys recovered as the store declares. An accepted store
    /// is the salvaged one.
    #[test]
    fn strict_accepts_exactly_the_clean_salvages() {
        let text = corpus_store_text();
        let preludes = [
            "vliw-sched-store 2 x\n",
            "vliw-sched-store  2\n",
            " vliw-sched-store 2\n",
        ];
        let corpus = loader_corpus()
            .into_iter()
            .chain(preludes.map(|p| text.replacen("vliw-sched-store 2\n", p, 1)));
        for text in corpus {
            let (salvaged, rep) = ScheduleStore::from_text_salvage(&text);
            let clean = !rep.version_rejected
                && rep.dropped() == 0
                && declared_count(&text) == Some(rep.recovered)
                && salvaged.len() == rep.recovered;
            let strict = ScheduleStore::from_text(&text);
            assert_eq!(strict.is_ok(), clean, "{text:?}: {strict:?} vs {rep:?}");
            if let Ok(store) = strict {
                assert_eq!(store.to_text(), salvaged.to_text());
            }
        }
    }

    #[test]
    fn entry_headers_round_trip_over_every_backend_and_quality() {
        let backends = [
            (SchedBackend::SwingModulo, "swing"),
            (SchedBackend::ExactBnB, "bnb"),
        ];
        let qualities = [
            (SchedQuality::Heuristic, "heur"),
            (SchedQuality::ProvenOptimal, "opt"),
            (SchedQuality::CutoffFeasible, "cutoff"),
        ];
        assert_eq!(backends.len(), SchedBackend::ALL.len());
        let header = |backend: &str, quality: &str| {
            format!(
                "entry k kfp 7 efp 11 arch wi policy ipbc backend {backend} source syn \
                 unroll sel pad 1 choice xn factor 4 pfp 13 quality {quality}"
            )
        };
        let template = entry(&header("swing", "heur"));
        for (backend, backend_tok) in backends {
            for (quality, quality_tok) in qualities {
                let want = StoreEntry {
                    key: CacheKey {
                        backend,
                        ..template.key
                    },
                    quality,
                    ..template.clone()
                };
                // the store text is pinned token for token
                let line = want.header_line();
                assert_eq!(line, header(backend_tok, quality_tok));
                assert_eq!(entry(&line), want);
            }
        }
        for tok in ["exact", "delay"] {
            assert_eq!(
                parse_backend(tok),
                Err(format!("unknown backend token `{tok}`"))
            );
        }
    }

    /// Every token table is two-way: each token parses back to its own
    /// value, and an unknown token names its field.
    #[test]
    fn token_tables_round_trip() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(table: &[(T, &'static str)], what: &str) {
            for (value, tok) in table {
                assert_eq!(token(table, value), *tok);
                assert_eq!(parse_token(table, what, tok), Ok(*value));
            }
            let err = format!("unknown {what} token `x`");
            assert_eq!(parse_token(table, what, "x"), Err(err));
        }
        // One exhaustive match per enum: a new variant stops this test
        // compiling until it is listed, and `token` then panics unless
        // its table has a token for it.
        for v in [
            ArchVariant::WordInterleaved,
            ArchVariant::MultiVliw,
            ArchVariant::Unified(1),
        ] {
            match v {
                ArchVariant::WordInterleaved | ArchVariant::MultiVliw => token(&ARCH_TOKENS, &v),
                ArchVariant::Unified(_) => "uni",
            };
        }
        for v in ClusterPolicy::ALL {
            match v {
                ClusterPolicy::Free
                | ClusterPolicy::BuildChains
                | ClusterPolicy::PreBuildChains
                | ClusterPolicy::NoChains => token(&POLICY_TOKENS, &v),
            };
        }
        for v in [ProfileSource::None, ProfileSource::Synthetic] {
            match v {
                ProfileSource::None | ProfileSource::Synthetic => token(&SOURCE_TOKENS, &v),
                // retired: never prepared, so never written to a store
                ProfileSource::Measured => unreachable!(),
            };
        }
        for v in [UnrollMode::NoUnroll, UnrollMode::Ouf, UnrollMode::Selective] {
            match v {
                UnrollMode::NoUnroll | UnrollMode::Ouf | UnrollMode::Selective => {
                    token(&UNROLL_TOKENS, &v)
                }
            };
        }
        for v in [UnrollChoice::None, UnrollChoice::TimesN, UnrollChoice::Ouf] {
            match v {
                UnrollChoice::None | UnrollChoice::TimesN | UnrollChoice::Ouf => {
                    token(&CHOICE_TOKENS, &v)
                }
            };
        }
        for v in [
            SchedQuality::Heuristic,
            SchedQuality::ProvenOptimal,
            SchedQuality::CutoffFeasible,
        ] {
            match v {
                SchedQuality::Heuristic
                | SchedQuality::ProvenOptimal
                | SchedQuality::CutoffFeasible => token(&QUALITY_TOKENS, &v),
            };
        }
        check(&ARCH_TOKENS, "arch");
        check(&POLICY_TOKENS, "policy");
        check(&SOURCE_TOKENS, "source");
        check(&UNROLL_TOKENS, "unroll");
        check(&CHOICE_TOKENS, "choice");
        check(&QUALITY_TOKENS, "quality");
        let uni = ArchVariant::Unified(3);
        assert_eq!(parse_arch(&arch_token(uni)), Ok(uni));
        assert_eq!(parse_arch("uni"), Err("unknown arch token `uni`".into()));
    }

    /// Splices a well-framed, correctly checksummed record with header
    /// `bad` between two records with headers `good(7)` and `good(9)`:
    /// the strict loader must fail with `want_err`, and the salvage
    /// loader must keep the two good records and drop `bad` as corrupt.
    fn assert_salvaged_as_corrupt(good: impl Fn(u64) -> String, bad: &str, want_err: &str) {
        let mut store = ScheduleStore::new();
        for kfp in [7, 9] {
            store.insert(entry(&good(kfp)));
        }
        let text = store.to_text().replacen("entries 2", "entries 3", 1);
        let record = format!(
            "{bad}\n{EMPTY_SCHED}check {}\nendentry\n",
            record_checksum(bad, EMPTY_SCHED)
        );
        let at = text.find("entry k9").unwrap();
        let text = format!("{}{record}{}", &text[..at], &text[at..]);
        let err = ScheduleStore::from_text(&text).unwrap_err();
        assert!(err.contains(want_err), "{err}");
        let (salvaged, rep) = ScheduleStore::from_text_salvage(&text);
        assert_eq!(salvaged.len(), 2);
        assert_eq!(
            (rep.recovered, rep.dropped_corrupt, rep.dropped()),
            (2, 1, 1)
        );
    }

    /// A store written while the retired `delay` backend existed: its
    /// delay records fail the strict loader and are dropped one by one by
    /// the salvage loader, so they cost a cold preparation, never an error
    /// on the serving path.
    #[test]
    fn retired_delay_records_salvage_as_corrupt() {
        let header = |kfp: u64, backend: &str| {
            format!(
                "entry k{kfp} kfp {kfp} efp 11 arch wi policy ipbc backend {backend} source syn \
                 unroll sel pad 1 choice xn factor 4 pfp 13 quality heur"
            )
        };
        assert_salvaged_as_corrupt(
            |kfp| header(kfp, "swing"),
            &header(8, "delay"),
            "unknown backend token `delay`",
        );
    }

    /// A store written while measured profiles existed: its `meas` records
    /// fail the strict loader and are dropped one by one by the salvage
    /// loader, so they cost a cold preparation, never an error on the
    /// serving path.
    #[test]
    fn retired_measured_records_salvage_as_corrupt() {
        let header = |kfp: u64, source: &str| {
            format!(
                "entry k{kfp} kfp {kfp} efp 11 arch wi policy ipbc backend swing source {source} \
                 unroll sel pad 1 choice xn factor 4 pfp 13 quality heur"
            )
        };
        assert_salvaged_as_corrupt(
            |kfp| header(kfp, "syn"),
            &header(8, "meas"),
            "unknown source token `meas`",
        );
    }

    /// A store written while the exact backend's retry ladder existed: a
    /// record claiming the retired `degraded` quality fails the strict
    /// loader and is dropped by the salvage loader like any corrupt
    /// record, costing a cold preparation, never an error on the serving
    /// path.
    #[test]
    fn retired_degraded_records_salvage_as_corrupt() {
        let header = |kfp: u64, quality: &str| {
            format!(
                "entry k{kfp} kfp {kfp} efp 11 arch wi policy ipbc backend bnb source syn \
                 unroll no pad 1 choice none factor 1 pfp 13 quality {quality}"
            )
        };
        assert_salvaged_as_corrupt(
            |kfp| header(kfp, "cutoff"),
            &header(8, "degraded"),
            "unknown quality token `degraded`",
        );
    }

    /// Both loaders follow one prelude rule, the exact
    /// `vliw-sched-store 2`: a prelude with trailing tokens or extra
    /// whitespace is rejected by the strict loader and salvages nothing.
    #[test]
    fn both_loaders_reject_a_loose_prelude() {
        let text = corpus_store_text();
        assert!(ScheduleStore::from_text(&text).is_ok());
        for prelude in [
            "vliw-sched-store 2 x",
            "vliw-sched-store 2 ",
            "vliw-sched-store\t2",
        ] {
            let loose = text.replacen("vliw-sched-store 2", prelude, 1);
            let err = ScheduleStore::from_text(&loose).unwrap_err();
            assert!(err.contains("version"), "{err}");
            let (salvaged, rep) = ScheduleStore::from_text_salvage(&loose);
            assert!(rep.version_rejected && salvaged.is_empty());
        }
    }

    /// The strict loader rejects records past the declared count, where
    /// the salvage loader still recovers every intact record.
    #[test]
    fn strict_loader_rejects_records_past_the_declared_count() {
        let header = |kfp: u64| {
            format!(
                "entry k{kfp} kfp {kfp} efp 11 arch wi policy ipbc backend swing source syn \
                 unroll sel pad 1 choice xn factor 4 pfp 13 quality heur"
            )
        };
        let mut store = ScheduleStore::new();
        for kfp in [7, 8] {
            store.insert(entry(&header(kfp)));
        }
        let text = store.to_text();
        assert_eq!(ScheduleStore::from_text(&text).unwrap().len(), 2);
        let miscounted = text.replacen("entries 2", "entries 1", 1);
        let err = ScheduleStore::from_text(&miscounted).unwrap_err();
        assert!(err.contains("declares 1 entries"), "{err}");
        let (salvaged, rep) = ScheduleStore::from_text_salvage(&miscounted);
        assert_eq!((salvaged.len(), rep.recovered, rep.dropped()), (2, 2, 0));
    }

    /// The key of one quick-suite kernel under the quick context, pinned:
    /// a change to what `env_fingerprint` or `kernel_fingerprint` writes
    /// re-keys every cached and stored schedule, and fails here first.
    /// The worker count is not part of the key.
    #[test]
    fn quick_suite_cache_key_is_pinned() {
        let mut ctx = ExperimentContext::quick();
        let models = ctx.models();
        let original = &models[0].loops[0].kernel;
        let cfg = RunConfig::ipbc().with_backend(SchedBackend::ExactBnB);
        assert_eq!(original.name, "epicdec_l0");
        for workers in [ctx.workers, 1, 4] {
            ctx.workers = workers;
            let key = CacheKey::of(original, &ctx.machine_for(&cfg), &cfg, &ctx);
            assert_eq!(
                (key.env_fp, key.kernel_fp),
                (0x4c11f2401468df36, 0x6c3058494290d6e9),
                "workers = {workers}"
            );
        }
    }
}
