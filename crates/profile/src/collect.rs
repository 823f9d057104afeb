//! Measurement collection: the [`AccessObserver`] that records a timed
//! simulation's per-iteration access samples, and the driver that runs a
//! kernel in profiling mode.

use vliw_ir::{kernel_fingerprint, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_mem::{build_cache, AccessObserver, AccessOutcome, AccessRequest, ObservedCache};
use vliw_sched::{
    schedule_outcome, AttractionHints, ClusterPolicy, EnumLimits, SchedBackend, ScheduleError,
    ScheduleOptions,
};
use vliw_sim::{simulate_loop, SimOptions};
use vliw_workloads::{address_for, ArrayLayout};

use crate::store::{LoopProfile, OpProfile};

/// The measurement sink: records one [`AccessSample`] per observed access
/// of each operation, in iteration order.
///
/// The simulator runs a warm-up pass before the measured pass and calls
/// [`AccessObserver::loop_boundary`] at the end of each; the collector
/// keeps the segment closed by the *last* boundary, which is always the
/// measured pass (with a warm-up the first boundary closes the warm-up
/// segment and the second closes the measurement; without one, the single
/// boundary closes the measurement directly).
#[derive(Debug)]
struct Collector {
    n_clusters: usize,
    interleave: u64,
    current: Vec<Vec<AccessSample>>,
    finished: Option<Vec<Vec<AccessSample>>>,
}

impl Collector {
    /// A collector for `n_ops` operations on `machine`'s geometry.
    fn new(n_ops: usize, machine: &MachineConfig) -> Self {
        Collector {
            n_clusters: machine.n_clusters(),
            interleave: machine.cache.interleave_bytes as u64,
            current: vec![Vec::new(); n_ops],
            finished: None,
        }
    }

    /// The per-operation samples of the measured segment: the one closed
    /// by the last loop boundary, or the running segment if no boundary
    /// was seen yet.
    fn into_samples(self) -> Vec<Vec<AccessSample>> {
        self.finished.unwrap_or(self.current)
    }
}

impl AccessObserver for Collector {
    fn observe(&mut self, req: &AccessRequest, out: &AccessOutcome) {
        if req.tag == AccessRequest::UNTAGGED {
            return;
        }
        let home = (req.addr / self.interleave) % self.n_clusters as u64;
        let Some(samples) = self.current.get_mut(req.tag as usize) else {
            return;
        };
        samples.push(AccessSample {
            class: out.class.index() as u8,
            home: home as u8,
            combined: out.combined,
            ab_hit: out.ab_hit,
            latency: (out.ready_at - req.now).min(u64::from(u32::MAX)) as u32,
        });
    }

    fn loop_boundary(&mut self) {
        let fresh = vec![Vec::new(); self.current.len()];
        self.finished = Some(std::mem::replace(&mut self.current, fresh));
    }
}

/// One observed access of one operation in one measured iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSample {
    /// Access-class index (the `classes` slot order of [`OpProfile`]).
    pub class: u8,
    /// Home cluster of the accessed address.
    pub home: u8,
    /// Whether the access was served by §5.2 combining.
    pub combined: bool,
    /// Whether an Attraction Buffer hit served it.
    pub ab_hit: bool,
    /// Observed latency (`ready_at − now`), contention included.
    pub latency: u32,
}

/// One measurement run: the per-iteration sample stream of every
/// operation of the measured kernel. Its aggregate and the measurements
/// of *unrolled* variants are both **derived** from it
/// ([`StreamProfile::derive_unrolled`] at factor 1 and at factor `U`), so
/// no variant needs another run.
///
/// Copy `k` of an unroll-by-`U` kernel executes exactly the original
/// iterations `≡ k (mod U)` (unrolling rewrites `offset += k·stride`,
/// `stride ×= U`), and the simulator replays iterations `0..cap` from
/// zero in the measured pass — so slicing the factor-1 stream by residue
/// reproduces each copy's access stream without another bootstrap
/// schedule + timing simulation per variant. What the derivation cannot
/// reproduce is the *timing context* of a factor-`U` bootstrap run
/// (contention under a different schedule); the samples carry the
/// factor-1 run's timing, which is the defined semantics of a derived
/// profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// Kernel name (of the factor-1 kernel).
    pub name: String,
    /// [`kernel_fingerprint`] of the factor-1 kernel measured.
    pub fingerprint: u64,
    /// Operation count of the factor-1 kernel.
    pub n_ops: usize,
    /// Per-operation sample streams, indexed by op; sample `j` is measured
    /// iteration `j`. Non-memory operations carry empty streams.
    pub samples: Vec<Vec<AccessSample>>,
}

impl StreamProfile {
    /// Aggregates one residue class of one op's stream into an
    /// [`OpProfile`].
    fn aggregate_residue(
        &self,
        op: usize,
        factor: usize,
        residue: usize,
        n_clusters: usize,
    ) -> OpProfile {
        let mut p = OpProfile::new(n_clusters);
        for s in self.samples[op]
            .iter()
            .enumerate()
            .filter(|(j, _)| j % factor == residue)
            .map(|(_, s)| s)
        {
            p.classes[s.class as usize] = p.classes[s.class as usize].saturating_add(1);
            p.cluster_hist[s.home as usize] = p.cluster_hist[s.home as usize].saturating_add(1);
            if s.combined {
                p.combined = p.combined.saturating_add(1);
            }
            if s.ab_hit {
                p.ab_hits = p.ab_hits.saturating_add(1);
            }
            p.latency.record(s.latency);
        }
        p
    }

    /// Derives the measurement of `unrolled` (the factor-`factor` variant
    /// of the measured kernel) by residue-slicing the factor-1 streams:
    /// copy `k` of original op `i` (unrolled index `k·n + i`) receives the
    /// samples of iterations `≡ k (mod factor)`. At factor 1 this is the
    /// aggregate of the run itself.
    ///
    /// # Errors
    ///
    /// Rejects an `unrolled` kernel whose shape does not match
    /// (`n_ops × factor`), a factor-1 kernel whose [`kernel_fingerprint`]
    /// is not the measured one (a different body with the same op count
    /// must not receive these measurements), or, above factor 1, a stream
    /// in which some memory operation recorded a different number of
    /// samples than its peers (which would break the sample-index =
    /// iteration-index alignment the slicing relies on).
    pub fn derive_unrolled(
        &self,
        unrolled: &LoopKernel,
        factor: u32,
        machine: &MachineConfig,
    ) -> Result<LoopProfile, String> {
        let n = self.n_ops;
        let u = factor as usize;
        if unrolled.ops.len() != n * u {
            return Err(format!(
                "unrolled kernel has {} ops, expected {} × {}",
                unrolled.ops.len(),
                n,
                u
            ));
        }
        if u == 1 && kernel_fingerprint(unrolled) != self.fingerprint {
            return Err(format!(
                "kernel `{}` is not the measured body of `{}` (stale stream)",
                unrolled.name, self.name
            ));
        }
        let mut counts = self
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, s.len()));
        // factor 1 takes every sample, so only slicing needs the alignment
        if let Some((_, first)) = counts.next().filter(|_| u > 1) {
            if let Some((i, len)) = counts.find(|&(_, len)| len != first) {
                return Err(format!(
                    "op {i} recorded {len} samples where its peers recorded {first}; \
                     streams are not iteration-aligned"
                ));
            }
        }
        let n_clusters = machine.n_clusters();
        let mut ops = Vec::new();
        for (idx, op) in unrolled.ops.iter().enumerate() {
            if !op.is_mem() {
                continue;
            }
            let (copy, orig) = (idx / n, idx % n);
            ops.push((idx, self.aggregate_residue(orig, u, copy, n_clusters)));
        }
        Ok(LoopProfile {
            name: unrolled.name.clone(),
            fingerprint: kernel_fingerprint(unrolled),
            n_ops: unrolled.ops.len(),
            ops,
        })
    }
}

/// Knobs of one measurement run.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Cluster-assignment policy of the bootstrap schedule (the schedule
    /// the kernel executes under while being measured).
    pub policy: ClusterPolicy,
    /// Circuit-enumeration caps for the bootstrap schedule.
    pub enum_limits: EnumLimits,
    /// Simulation caps of the measurement run.
    pub sim: SimOptions,
}

/// Runs `kernel` in profiling mode: schedules it with the paper's
/// heuristic pipeline (the bootstrap — measurement needs *a* schedule,
/// and before any measurement exists the class-based pipeline is the only
/// one available), lays its arrays out for `input` (with or without
/// §4.3.4 padding), simulates it against an observed cache on those
/// addresses, and returns the per-iteration samples of the measured pass.
///
/// The kernel should carry its synthetic (functional) profiles, so the
/// bootstrap schedule is exactly the one the synthetic pipeline would
/// execute — the measurements then describe the feedback-directed loop's
/// real starting point.
///
/// # Errors
///
/// Propagates bootstrap scheduling failures.
pub fn measure_kernel(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    padding: bool,
    input: u64,
    options: &MeasureOptions,
) -> Result<StreamProfile, ScheduleError> {
    let sched_opts = ScheduleOptions {
        enum_limits: options.enum_limits,
        backend: SchedBackend::SwingModulo,
        ..ScheduleOptions::new(options.policy)
    };
    let schedule = schedule_outcome(kernel, machine, sched_opts)?.schedule;
    let layout = ArrayLayout::new(kernel, machine, padding, input);
    let mut addresses = |op: OpId, iter: u64| address_for(kernel, &layout, op, iter);
    let mut cache = ObservedCache::new(
        build_cache(machine),
        Collector::new(kernel.ops.len(), machine),
    );
    simulate_loop(
        kernel,
        &schedule,
        machine,
        &mut cache,
        &mut addresses,
        &AttractionHints::allow_all(kernel),
        &options.sim,
    );
    let (_, collector) = cache.into_parts();
    Ok(StreamProfile {
        name: kernel.name.clone(),
        fingerprint: kernel_fingerprint(kernel),
        n_ops: kernel.ops.len(),
        samples: collector.into_samples(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::attach_measurements;
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile};

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    /// A streaming kernel with an N×I stride: every access lands in the
    /// home cluster of its first address (a padded heap array, so that
    /// home is cluster 0 — globals are never padded, §4.3.4).
    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("probe");
        let a = b.array("a", 8192, ArrayKind::Heap);
        let (ld, v) = b.load("ld", a, 0, 16, 4);
        let (st, _) = b.store("st", a, 4096, 16, 4, v);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(st, MemProfile::concentrated(1.0, 0, 4));
        b.finish(128.0)
    }

    fn opts() -> MeasureOptions {
        MeasureOptions {
            policy: ClusterPolicy::PreBuildChains,
            enum_limits: EnumLimits::default(),
            sim: SimOptions {
                iteration_cap: 128,
                warmup_iterations: 128,
            },
        }
    }

    /// The factor-1 aggregate of one measurement run.
    fn aggregate(k: &LoopKernel, m: &MachineConfig) -> LoopProfile {
        measure_kernel(k, m, true, 1, &opts())
            .unwrap()
            .derive_unrolled(k, 1, m)
            .unwrap()
    }

    #[test]
    fn measurement_counts_the_measured_pass_only() {
        let k = kernel();
        let m = machine();
        let lp = aggregate(&k, &m);
        assert_eq!(lp.n_ops, 2);
        assert_eq!(lp.fingerprint, kernel_fingerprint(&k));
        assert_eq!(lp.ops.len(), 2, "both memory ops measured");
        let (idx, ld) = &lp.ops[0];
        assert_eq!(*idx, 0);
        // exactly the 128 measured iterations, not warm-up + measured
        assert_eq!(ld.total(), 128);
        // N×I stride: every access in one cluster
        assert_eq!(ld.cluster_hist.iter().filter(|&&c| c > 0).count(), 1);
        // the warm-up already touched the whole (small) working set, so
        // the measured pass hits locally every time…
        assert!(ld.hit_rate() > 0.9, "hit rate {}", ld.hit_rate());
        assert_eq!(ld.classes[0], ld.total(), "all local hits");
        // …but the observed latency folds in real port contention with
        // the co-located store, which is exactly what measurement adds
        // over the 1-cycle class latency
        let half = ld.latency.total().div_ceil(2);
        let mut seen = 0;
        let median = ld
            .latency
            .counts
            .iter()
            .find(|&&(_, c)| {
                seen += c;
                seen >= half
            })
            .map(|&(l, _)| l)
            .unwrap();
        assert!((1..=5).contains(&median), "median latency {median}");
    }

    #[test]
    fn attach_feeds_measurements_back_into_the_kernel() {
        let mut k = kernel();
        let m = machine();
        let lp = aggregate(&k, &m);
        attach_measurements(&mut k, &lp).unwrap();
        let p = k.ops[0].mem.as_ref().unwrap().profile.as_ref().unwrap();
        assert!(p.latency.as_ref().is_some_and(|l| !l.is_empty()));
        // attaching is idempotent: the fingerprint ignores profiles
        attach_measurements(&mut k, &lp).unwrap();
        // a different kernel body is rejected
        let mut other = kernel();
        other.ops[0].mem.as_mut().unwrap().offset = 4;
        let err = attach_measurements(&mut other, &lp).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn factor1_derivation_rejects_a_different_body() {
        let k = kernel();
        let m = machine();
        let stream = measure_kernel(&k, &m, true, 1, &opts()).unwrap();
        // same op count, one memory offset moved: another loop
        let mut other = k.clone();
        other.ops[0].mem.as_mut().unwrap().offset += 4;
        let err = stream.derive_unrolled(&other, 1, &m).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn derived_unroll_slices_by_residue() {
        let k = kernel();
        let m = machine();
        let stream = measure_kernel(&k, &m, true, 1, &opts()).unwrap();
        let unrolled = vliw_ir::unroll(&k, 4);
        let lp = stream.derive_unrolled(&unrolled, 4, &m).unwrap();
        assert_eq!(lp.n_ops, k.ops.len() * 4);
        assert_eq!(lp.fingerprint, kernel_fingerprint(&unrolled));
        // each copy receives exactly a quarter of the 128 measured
        // iterations, and the total reconstructs the factor-1 aggregate
        let direct = stream.derive_unrolled(&k, 1, &m).unwrap();
        let copies_total: u64 = lp
            .ops
            .iter()
            .filter(|(idx, _)| idx % k.ops.len() == 0)
            .map(|(_, p)| p.total())
            .sum();
        assert_eq!(copies_total, direct.ops[0].1.total());
        for (_, p) in &lp.ops {
            assert_eq!(p.total(), 32);
        }
        // a wrong-shape kernel is rejected
        assert!(stream.derive_unrolled(&unrolled, 2, &m).is_err());
    }

    #[test]
    fn measurement_is_deterministic() {
        let k = kernel();
        let m = machine();
        let a = measure_kernel(&k, &m, true, 1, &opts()).unwrap();
        let b = measure_kernel(&k, &m, true, 1, &opts()).unwrap();
        assert_eq!(a, b);
    }
}
