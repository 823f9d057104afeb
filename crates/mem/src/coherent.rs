//! The multiVLIW cache organization: per-cluster caches with snoopy
//! coherence and data replication (Sánchez & González, MICRO-33 \[20\]).

use vliw_machine::{AccessClass, ArchKind, MachineConfig};

use crate::lru::SetAssoc;
use crate::mshr::{MshrEntry, MshrFile};
use crate::pool::ResourcePool;
use crate::stats::MemStats;
use crate::{AccessOutcome, AccessRequest, DataCache};

/// Per-cluster caches with an invalidate-on-write snoopy protocol.
///
/// * A load hitting the local cache is a **local hit** (1 cycle).
/// * A load missing locally but present in another cluster's cache is
///   served cache-to-cache over a memory bus — classified **remote hit**
///   with the same bus + access + bus latency as a remote hit on the
///   interleaved machine. The block is *replicated* into the local cache
///   (the multiVLIW's advantage, bought with extra hardware: its effective
///   capacity shrinks and the coherence protocol complicates bus & cache).
/// * A load absent everywhere goes to the next level — **local miss**.
/// * A store invalidates every other cluster's copy (bus transaction).
///
/// Write-back traffic of dirty evictions is not timed (the paper's
/// benchmarks fit their working sets in cache; the relevant behaviours are
/// replication and invalidation).
///
/// Load fills — cache-to-cache transfers and next-level round trips —
/// occupy a per-cluster miss-status register (MSHR) until they
/// complete: a load hitting a block whose fill is still in flight combines
/// with the transaction instead of being served before the data arrives,
/// and a cluster with every register busy delays its next miss. Store
/// fills are folded into the store buffer (as in the rest of the model)
/// and are not tracked.
#[derive(Debug)]
pub struct CoherentCache {
    n: usize,
    block_bytes: u64,
    transfer: u64,
    access_latency: u64,
    nl_latency: u64,
    tags: Vec<SetAssoc>,
    local_ports: Vec<ResourcePool>,
    buses: ResourcePool,
    nl_ports: ResourcePool,
    mshrs: MshrFile,
    stats: MemStats,
}

impl CoherentCache {
    /// Builds the multiVLIW cache model.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not a multiVLIW configuration.
    pub fn new(machine: &MachineConfig) -> Self {
        assert_eq!(
            machine.arch,
            ArchKind::MultiVliw,
            "machine must be multiVLIW"
        );
        let n = machine.n_clusters();
        let module_bytes = machine.cache.module_bytes(n);
        let sets = module_bytes / (machine.cache.block_bytes * machine.cache.associativity);
        CoherentCache {
            n,
            block_bytes: machine.cache.block_bytes as u64,
            transfer: machine.buses.transfer_cycles as u64,
            access_latency: machine.mem_latencies.local_hit as u64,
            nl_latency: machine.next_level.latency as u64,
            tags: (0..n)
                .map(|_| SetAssoc::new(sets, machine.cache.associativity))
                .collect(),
            local_ports: (0..n).map(|_| ResourcePool::new(1)).collect(),
            buses: ResourcePool::new(machine.buses.mem_buses),
            nl_ports: ResourcePool::new(machine.next_level.ports),
            mshrs: MshrFile::new(n, machine.mshrs.per_cluster),
            stats: MemStats::new(),
        }
    }

    fn holder_other_than(&self, block: u64, cluster: usize) -> Option<usize> {
        (0..self.n).find(|&c| c != cluster && self.tags[c].contains(block))
    }

    /// Coherence invariant check for tests: number of clusters holding
    /// `addr`'s block.
    pub fn copies_of(&self, addr: u64) -> usize {
        let block = addr / self.block_bytes;
        (0..self.n)
            .filter(|&c| self.tags[c].contains(block))
            .count()
    }
}

impl DataCache for CoherentCache {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.mshrs.retire_up_to(req.now, &mut |_, _| {});
        let block = req.addr / self.block_bytes;
        let port_start = self.local_ports[req.cluster].acquire(req.now, 1);
        let local_hit = self.tags[req.cluster].probe(block);

        if req.is_store {
            let class = if local_hit {
                AccessClass::LocalHit
            } else if self.holder_other_than(block, req.cluster).is_some() {
                AccessClass::RemoteHit
            } else {
                AccessClass::LocalMiss
            };
            if !local_hit {
                // read-for-ownership fill (timing folded into the store
                // buffer; the traffic still occupies a bus)
                self.buses
                    .acquire(port_start + self.access_latency, self.transfer);
                self.tags[req.cluster].insert(block);
            }
            // invalidate every other copy (snoop) — including fills still
            // in the air: a dead fill must not serve a later load, which
            // has to re-fetch cache-to-cache from the writer instead
            let mut invalidated = false;
            for c in 0..self.n {
                if c != req.cluster && self.tags[c].invalidate(block) {
                    invalidated = true;
                }
            }
            self.mshrs.invalidate_other(req.cluster, block);
            if invalidated {
                self.buses.acquire(port_start, self.transfer);
            }
            self.stats.record(class, false, false);
            return AccessOutcome {
                ready_at: req.now + 1,
                class,
                combined: false,
                ab_hit: false,
                mshr_delay: 0,
            };
        }

        // a load to a block whose fill is still in flight combines with
        // the transaction — whether or not the tag survived eviction in
        // the meantime
        if let Some(e) = self.mshrs.lookup(req.cluster, block) {
            e.waiters += 1;
            let base = port_start + self.access_latency;
            let (ready, class) = (base.max(e.fill_at), e.class);
            self.stats.mshr_mut().on_merge();
            self.stats.record(class, true, false);
            return AccessOutcome {
                ready_at: ready,
                class,
                combined: true,
                ab_hit: false,
                mshr_delay: 0,
            };
        }

        if local_hit {
            let base = port_start + self.access_latency;
            self.stats.record(AccessClass::LocalHit, false, false);
            return AccessOutcome {
                ready_at: base,
                class: AccessClass::LocalHit,
                combined: false,
                ab_hit: false,
                mshr_delay: 0,
            };
        }

        // a fill is about to issue: it needs a free miss-status register
        let start = self.mshrs.earliest_start(req.cluster, port_start);
        let delay = start - port_start;
        if delay > 0 {
            self.stats.mshr_mut().on_full_stall(delay);
        }
        let (ready, class) = if let Some(holder) = self.holder_other_than(block, req.cluster) {
            // cache-to-cache transfer: bus + remote access + bus. If the
            // holder's own fill is still in flight, it cannot supply the
            // data before that fill lands.
            let holder_fill = self.mshrs.lookup(holder, block).map_or(0, |e| e.fill_at);
            let bus_start = self
                .buses
                .acquire(start + self.access_latency - 1, self.transfer);
            let supply = self.local_ports[holder]
                .acquire(bus_start + self.transfer, 1)
                .max(holder_fill);
            let reply = self
                .buses
                .acquire(supply + self.access_latency, self.transfer);
            self.tags[req.cluster].insert(block); // replicate
            (reply + self.transfer, AccessClass::RemoteHit)
        } else {
            let nl_start = self.nl_ports.acquire(start, 1);
            self.tags[req.cluster].insert(block);
            (nl_start + self.nl_latency, AccessClass::LocalMiss)
        };
        let occ = self.mshrs.allocate(
            req.cluster,
            start,
            MshrEntry {
                key: block,
                fill_at: ready,
                class,
                waiters: 0,
                attract: false,
            },
        );
        self.stats.mshr_mut().on_fill_issued(occ);
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

    fn cache() -> CoherentCache {
        CoherentCache::new(&MachineConfig::multi_vliw_4())
    }

    #[test]
    fn replication_makes_sharers_local() {
        let mut c = cache();
        let o = c.access(AccessRequest::load(0, 0, 4, 0));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalMiss, 10));
        // cluster 1 pulls the block cache-to-cache and keeps a copy
        let o = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!(o.class, AccessClass::RemoteHit);
        assert_eq!(o.ready_at - 50, 5, "c2c costs bus + access + bus");
        assert_eq!(c.copies_of(0), 2, "data replicated");
        // …so its next access is local — the multiVLIW advantage
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalHit, 101));
    }

    #[test]
    fn store_invalidates_other_copies() {
        let mut c = cache();
        let _ = c.access(AccessRequest::load(0, 0, 4, 0));
        let _ = c.access(AccessRequest::load(1, 0, 4, 50));
        let _ = c.access(AccessRequest::load(2, 0, 4, 100));
        assert_eq!(c.copies_of(0), 3);
        let o = c.access(AccessRequest::store(1, 0, 4, 150));
        assert_eq!(o.class, AccessClass::LocalHit);
        assert_eq!(c.copies_of(0), 1, "single-writer invariant");
        // readers re-fetch from the writer
        let o = c.access(AccessRequest::load(0, 0, 4, 200));
        assert_eq!(o.class, AccessClass::RemoteHit);
    }

    #[test]
    fn store_miss_fetches_for_ownership() {
        let mut c = cache();
        let _ = c.access(AccessRequest::load(0, 0, 4, 0));
        let o = c.access(AccessRequest::store(3, 0, 4, 50));
        assert_eq!(o.class, AccessClass::RemoteHit, "fetched from cluster 0");
        assert_eq!(o.ready_at, 51, "stores never stall the core");
        assert_eq!(c.copies_of(0), 1);
    }

    /// Regression: a load hitting a block whose fill was still in flight
    /// used to complete at the plain hit latency — before the data arrived.
    #[test]
    fn load_on_inflight_fill_waits_for_the_fill() {
        let mut c = cache();
        let a = c.access(AccessRequest::load(0, 0, 4, 0)); // miss, fills at 10
        assert_eq!(a.ready_at, 10);
        let b = c.access(AccessRequest::load(0, 0, 4, 2));
        assert!(b.combined, "attaches to the in-flight fill");
        assert_eq!(b.ready_at, 10, "cannot complete before the fill");
        assert_eq!(c.stats().mshr().merged_waiters, 1);
    }

    /// Regression: a store used to invalidate only the *tags* of other
    /// clusters — a fill still in flight kept its MSHR entry, so the next
    /// load combined with dead data instead of re-fetching from the writer.
    #[test]
    fn store_invalidates_other_clusters_inflight_fills() {
        let mut c = cache();
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // fill in flight to 10
        let _ = c.access(AccessRequest::store(1, 0, 4, 2)); // writer snoops
        let o = c.access(AccessRequest::load(0, 0, 4, 3));
        assert!(!o.combined, "dead fill must not serve the load");
        assert_eq!(o.class, AccessClass::RemoteHit, "re-fetches from writer");
    }

    #[test]
    fn c2c_transfer_waits_for_holders_inflight_fill() {
        let mut c = cache();
        let a = c.access(AccessRequest::load(0, 0, 4, 0)); // miss, fills at 10
        let b = c.access(AccessRequest::load(1, 0, 4, 2)); // c2c from cluster 0
        assert_eq!(b.class, AccessClass::RemoteHit);
        assert_eq!(
            b.ready_at, 13,
            "supply waits for the holder's fill at {}, then access + bus",
            a.ready_at
        );
    }

    #[test]
    fn capacity_is_per_cluster() {
        // each cluster cache is 2 KB = 64 blocks (32 sets x 2 ways); 128
        // distinct blocks thrash one cluster but leave others untouched
        let mut c = cache();
        let mut now = 0;
        for i in 0..128u64 {
            now += 20;
            let _ = c.access(AccessRequest::load(0, i * 32, 4, now));
        }
        now += 20;
        let o = c.access(AccessRequest::load(0, 0, 4, now));
        assert_eq!(o.class, AccessClass::LocalMiss, "evicted by capacity");
    }

    #[test]
    fn never_classifies_remote_miss() {
        let mut c = cache();
        let mut now = 0;
        for i in 0..200u64 {
            now += 7;
            let _ = c.access(AccessRequest::load(
                (i % 4) as usize,
                (i * 16) % 4096,
                4,
                now,
            ));
        }
        assert_eq!(c.stats().count(AccessClass::RemoteMiss), 0);
    }
}
