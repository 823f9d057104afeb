//! The unified (centralized, multi-ported) data cache.

use vliw_machine::{AccessClass, ArchKind, MachineConfig};

use crate::lru::SetAssoc;
use crate::mshr::{MshrEntry, MshrFile};
use crate::pool::ResourcePool;
use crate::stats::MemStats;
use crate::{AccessOutcome, AccessRequest, DataCache};

/// A central cache shared by all clusters through `unified_ports`
/// read/write ports (5 in the paper). The access latency — 1 cycle in the
/// optimistic configuration, 5 in the realistic one that pays the cluster ↔
/// cache propagation delay — comes from
/// [`MemLatencies::local_hit`](vliw_machine::MemLatencies); a miss adds the
/// next-level round trip. All accesses classify as local.
///
/// Misses to the next level occupy a miss-status register (MSHR)
/// until the fill completes. The tag is installed when the miss issues, so
/// a second access to the block hits — but the register keeps it honest:
/// the hit cannot complete before the in-flight fill arrives, and it
/// counts as a combined access instead of a fresh one. The cache is one
/// shared structure, so the per-cluster MSHR budget aggregates into a
/// single file of `per_cluster × N` registers.
#[derive(Debug)]
pub struct UnifiedCache {
    tags: SetAssoc,
    ports: ResourcePool,
    nl_ports: ResourcePool,
    block_bytes: u64,
    hit_latency: u64,
    nl_latency: u64,
    mshrs: MshrFile,
    stats: MemStats,
}

impl UnifiedCache {
    /// Builds the cache for a unified machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not a unified configuration.
    pub(crate) fn new(machine: &MachineConfig) -> Self {
        assert_eq!(machine.arch, ArchKind::Unified, "machine must be unified");
        let sets =
            machine.cache.total_bytes / (machine.cache.block_bytes * machine.cache.associativity);
        UnifiedCache {
            tags: SetAssoc::new(sets, machine.cache.associativity),
            ports: ResourcePool::new(machine.cache.unified_ports),
            nl_ports: ResourcePool::new(machine.next_level.ports),
            block_bytes: machine.cache.block_bytes as u64,
            hit_latency: machine.mem_latencies.local_hit as u64,
            nl_latency: machine.next_level.latency as u64,
            mshrs: MshrFile::new(1, machine.mshrs.per_cluster * machine.n_clusters()),
            stats: MemStats::new(),
        }
    }
}

impl DataCache for UnifiedCache {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.mshrs.retire_up_to(req.now, &mut |_, _| {});
        let block = req.addr / self.block_bytes;
        let port_start = self.ports.acquire(req.now, 1);
        let hit = self.tags.probe(block);
        // a load to a block whose fill is still in flight combines with
        // the transaction — whether or not the tag survived eviction in
        // the meantime. Stores never merge: they complete through the
        // store buffer and must not inflate the combined counters.
        if !req.is_store {
            if let Some(e) = self.mshrs.lookup(0, block) {
                e.waiters += 1;
                self.stats.mshr_mut().on_merge();
                let class = if hit { AccessClass::LocalHit } else { e.class };
                self.stats.record(class, true, false);
                return AccessOutcome {
                    ready_at: (port_start + self.hit_latency).max(e.fill_at),
                    class,
                    combined: true,
                    ab_hit: false,
                    mshr_delay: 0,
                };
            }
        }
        let (ready, class, delay) = if hit {
            (port_start + self.hit_latency, AccessClass::LocalHit, 0)
        } else if req.is_store && self.mshrs.lookup(0, block).is_some() {
            // store to an in-flight block whose tag was evicted: the
            // write folds into the existing fill, no second transaction
            (req.now + 1, AccessClass::LocalMiss, 0)
        } else {
            // write-allocate for stores too (the store buffer hides the
            // fill latency from the core)
            let earliest = port_start + self.hit_latency;
            let start = self.mshrs.earliest_start(0, earliest);
            if start > earliest {
                self.stats.mshr_mut().on_full_stall(start - earliest);
            }
            let nl_start = self.nl_ports.acquire(start, 1);
            self.tags.insert(block);
            let fill = nl_start + self.nl_latency;
            let occ = self.mshrs.allocate(
                0,
                start,
                MshrEntry {
                    key: block,
                    fill_at: fill,
                    class: AccessClass::LocalMiss,
                    waiters: 0,
                    attract: false,
                },
            );
            self.stats.mshr_mut().on_fill_issued(occ);
            // stores never stall the core, so the back-pressure delay only
            // marks loads
            let delay = if req.is_store { 0 } else { start - earliest };
            (fill, AccessClass::LocalMiss, delay)
        };
        let ready = if req.is_store { req.now + 1 } else { ready };
        self.stats.record(class, false, false);
        AccessOutcome {
            ready_at: ready,
            class,
            combined: false,
            ab_hit: false,
            mshr_delay: delay,
        }
    }

    fn flush_loop_boundary(&mut self) {
        // nothing to flush: no Attraction Buffers, and in-flight fills
        // stay tracked so post-boundary accesses cannot outrun them
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_latencies_optimistic() {
        let m = MachineConfig::unified_4(1);
        let mut c = UnifiedCache::new(&m);
        let o = c.access(AccessRequest::load(0, 0, 4, 0));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalMiss, 11));
        let o = c.access(AccessRequest::load(3, 0, 4, 50));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalHit, 51));
    }

    #[test]
    fn hit_and_miss_latencies_realistic() {
        let m = MachineConfig::unified_4(5);
        let mut c = UnifiedCache::new(&m);
        let o = c.access(AccessRequest::load(0, 0, 4, 0));
        assert_eq!(o.ready_at, 15); // 5 + 10
        let o = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!(o.ready_at, 55);
    }

    #[test]
    fn five_ports_serve_five_per_cycle() {
        let m = MachineConfig::unified_4(1);
        let mut c = UnifiedCache::new(&m);
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm
        for i in 0..5 {
            let o = c.access(AccessRequest::load(i % 4, 0, 4, 10));
            assert_eq!(o.ready_at, 11, "port {i} free at cycle 10");
        }
        let o = c.access(AccessRequest::load(0, 0, 4, 10));
        assert_eq!(o.ready_at, 12, "sixth access waits a cycle");
    }

    /// Regression: a hit on a block whose fill is still in flight used to
    /// complete at the plain hit latency — before the data arrived.
    #[test]
    fn hit_on_inflight_fill_waits_for_the_fill() {
        let m = MachineConfig::unified_4(1);
        let mut c = UnifiedCache::new(&m);
        let a = c.access(AccessRequest::load(0, 0, 4, 0)); // miss, fills at 11
        assert_eq!(a.ready_at, 11);
        let b = c.access(AccessRequest::load(1, 0, 4, 2));
        assert!(b.combined, "attaches to the in-flight fill");
        assert_eq!(b.ready_at, 11, "cannot complete before the fill");
        assert_eq!(c.stats().mshr().merged_waiters, 1);
        // once the fill lands, plain hits again
        let d = c.access(AccessRequest::load(2, 0, 4, 20));
        assert!(!d.combined);
        assert_eq!(d.ready_at, 21);
    }

    #[test]
    fn stores_never_merge_into_inflight_fills() {
        let m = MachineConfig::unified_4(1);
        let mut c = UnifiedCache::new(&m);
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // miss, fills at 11
        let s = c.access(AccessRequest::store(1, 0, 4, 2)); // same block, in flight
        assert!(!s.combined, "stores complete through the store buffer");
        assert_eq!(s.ready_at, 3);
        assert_eq!(c.stats().mshr().merged_waiters, 0);
    }

    #[test]
    fn stores_complete_through_store_buffer() {
        let m = MachineConfig::unified_4(5);
        let mut c = UnifiedCache::new(&m);
        let o = c.access(AccessRequest::store(0, 64, 4, 7));
        assert_eq!(o.ready_at, 8, "store buffer completes next cycle");
        assert_eq!(o.class, AccessClass::LocalMiss);
        let o = c.access(AccessRequest::load(0, 64, 4, 20));
        assert_eq!(
            o.class,
            AccessClass::LocalHit,
            "write-allocate filled the block"
        );
    }

    #[test]
    fn all_accesses_classify_local() {
        let m = MachineConfig::unified_4(1);
        let mut c = UnifiedCache::new(&m);
        for i in 0..50u64 {
            let o = c.access(AccessRequest::load((i % 4) as usize, i * 8, 8, i * 2));
            assert!(o.class.is_local());
        }
        assert_eq!(c.stats().total(), 50);
    }
}
