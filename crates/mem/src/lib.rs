//! Timing models for the three data-cache organizations of the paper.
//!
//! * [`InterleavedCache`] — the word-interleaved distributed cache of §3:
//!   per-cluster modules holding subblocks, replicated tags, memory buses at
//!   half the core frequency, request combining, and optional per-cluster
//!   [Attraction Buffers](InterleavedCache) flushed at loop boundaries.
//! * [`CoherentCache`] — the multiVLIW organization: per-cluster caches with
//!   MSI snooping and data replication.
//! * [`UnifiedCache`] — a central multi-ported cache.
//!
//! All three implement [`DataCache`], a *deterministic queueing* timing
//! model: each request immediately receives its completion time, computed
//! from per-resource next-free counters (bus slots, cache ports, next-level
//! ports). Outstanding transactions are tracked in per-cluster miss-status
//! registers (MSHRs): a second access to an in-flight subblock
//! combines with the transaction and retires at its fill (it is never
//! served before the data arrives), Attraction-Buffer entries allocate at
//! fill time, and a cluster whose registers are all busy delays its next
//! request. With the default configuration and no contention, the four
//! access classes complete in exactly the 1 / 5 / 10 / 15 cycles of the
//! paper's worked example:
//!
//! * local hit = module access (1);
//! * remote hit = bus (2) + module (1) + bus (2);
//! * local miss = next level (10, tag probe overlapped);
//! * remote miss = bus (2) + module (1) + next level (10) + bus (2).
//!
//! Requests must be issued in non-decreasing time order (the in-order VLIW
//! engine guarantees this).
//!
//! The crate also provides [`FunctionalCache`], the timeless hit/miss model
//! the profiling pass uses to gather hit rates and preferred-cluster
//! histograms.
//!
//! # Example
//!
//! ```
//! use vliw_machine::{AccessClass, MachineConfig};
//! use vliw_mem::{AccessRequest, DataCache, InterleavedCache};
//!
//! let machine = MachineConfig::word_interleaved_4();
//! let mut cache = InterleavedCache::new(&machine);
//! // cluster 0 reads address 0 (home cluster 0): a local miss first…
//! let a = cache.access(AccessRequest::load(0, 0, 4, 0));
//! assert_eq!(a.class, AccessClass::LocalMiss);
//! assert_eq!(a.ready_at, 10);
//! // …then a local hit
//! let b = cache.access(AccessRequest::load(0, 0, 4, 20));
//! assert_eq!(b.class, AccessClass::LocalHit);
//! assert_eq!(b.ready_at, 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod coherent;
mod functional;
mod interleaved;
mod lru;
mod mshr;
mod pool;
mod stats;
mod unified;

pub use coherent::CoherentCache;
pub use functional::FunctionalCache;
pub use interleaved::InterleavedCache;
pub use pool::ResourcePool;
pub use stats::{MemStats, MshrStats};
pub use unified::UnifiedCache;

use vliw_machine::{AccessClass, ArchKind, MachineConfig};

/// One memory request presented to a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
    /// Cluster issuing the access.
    pub cluster: usize,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
    /// Whether this is a store.
    pub is_store: bool,
    /// Whether the access may allocate an Attraction Buffer entry
    /// (compiler hint, §5.2; ignored by caches without buffers).
    pub attractable: bool,
    /// Issue cycle. Must be non-decreasing across calls.
    pub now: u64,
}

impl AccessRequest {
    /// A load request with the attraction hint enabled.
    pub fn load(cluster: usize, addr: u64, size: u8, now: u64) -> Self {
        AccessRequest {
            cluster,
            addr,
            size,
            is_store: false,
            attractable: true,
            now,
        }
    }

    /// A store request.
    pub fn store(cluster: usize, addr: u64, size: u8, now: u64) -> Self {
        AccessRequest {
            cluster,
            addr,
            size,
            is_store: true,
            attractable: true,
            now,
        }
    }
}

/// The outcome of a request: when the data is available and how the access
/// classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Absolute cycle the result is available to the issuing cluster.
    pub ready_at: u64,
    /// Access classification (local/remote × hit/miss).
    pub class: AccessClass,
    /// The request merged into an in-flight request for the same subblock
    /// ("combined accesses", counted separately in Figures 4 and 6).
    pub combined: bool,
    /// The access was served by the cluster's Attraction Buffer
    /// (a subset of the local hits).
    pub ab_hit: bool,
    /// Cycles the request waited for a free miss-status register before it
    /// could issue (MSHR capacity back-pressure; 0 = none). The magnitude
    /// lets stall attribution split back-pressure from class latency.
    pub mshr_delay: u64,
}

/// Common interface of the three cache-organization timing models.
pub trait DataCache {
    /// Issues a request and returns its timing and classification.
    fn access(&mut self, req: AccessRequest) -> AccessOutcome;

    /// Informs the cache that a software-pipelined loop finished — flushes
    /// Attraction Buffers (the paper's coherence guarantee) and forgets
    /// in-flight combining state.
    fn flush_loop_boundary(&mut self);

    /// Access statistics since construction or the last reset.
    fn stats(&self) -> &MemStats;

    /// Clears statistics (e.g. after cache warm-up).
    fn reset_stats(&mut self);
}

/// Builds the cache model matching `machine.arch`.
pub fn build_cache(machine: &MachineConfig) -> Box<dyn DataCache> {
    match machine.arch {
        ArchKind::WordInterleaved => Box::new(InterleavedCache::new(machine)),
        ArchKind::MultiVliw => Box::new(CoherentCache::new(machine)),
        ArchKind::Unified => Box::new(UnifiedCache::new(machine)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cache_dispatches_on_arch() {
        let m = MachineConfig::word_interleaved_4();
        let mut c = build_cache(&m);
        let o = c.access(AccessRequest::load(1, 4, 4, 0));
        assert_eq!(o.class, AccessClass::LocalMiss);

        let m = MachineConfig::unified_4(1);
        let mut c = build_cache(&m);
        let o = c.access(AccessRequest::load(0, 4, 4, 0));
        assert_eq!(o.class, AccessClass::LocalMiss);

        let m = MachineConfig::multi_vliw_4();
        let mut c = build_cache(&m);
        let o = c.access(AccessRequest::load(0, 4, 4, 0));
        assert_eq!(o.class, AccessClass::LocalMiss);
    }

    #[test]
    fn request_constructors() {
        let l = AccessRequest::load(2, 64, 4, 7);
        assert!(!l.is_store && l.attractable && l.cluster == 2 && l.now == 7);
        let s = AccessRequest::store(1, 32, 2, 3);
        assert!(s.is_store);
    }
}
