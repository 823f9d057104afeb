//! The word-interleaved distributed data cache (§3 of the paper).

use vliw_machine::{AccessClass, MachineConfig};

use crate::lru::SetAssoc;
use crate::mshr::{MshrEntry, MshrFile};
use crate::pool::ResourcePool;
use crate::stats::MemStats;
use crate::{AccessOutcome, AccessRequest, DataCache};

/// The `(home module, block)` parts of one access — stack-allocated in
/// the common single-subblock case, heap-allocated only when an oversized
/// element spans modules.
enum Parts {
    One([(usize, u64); 1]),
    Many(Vec<(usize, u64)>),
}

impl Parts {
    fn as_slice(&self) -> &[(usize, u64)] {
        match self {
            Parts::One(p) => p,
            Parts::Many(v) => v,
        }
    }
}

/// Word-interleaved cache: cluster `c` owns the words whose address
/// satisfies `(addr / I) mod N == c`. Subblocks live in exactly one module
/// (no replication); tags are replicated, so hit/miss is known locally.
///
/// Timing is composed from physical components — memory buses at half the
/// core frequency, one local port and one bus-side port per module, and the
/// shared next level — so that the four access classes land exactly on the
/// configured 1 / 5 / 10 / 15 cycles when uncontended (see the crate docs).
///
/// Every transaction a cluster *requests* that takes time — a remote
/// request over the buses, a local next-level fill (load or store
/// write-allocate) — occupies one of that cluster's miss-status registers
/// ([`MshrFile`]) from issue to fill. The registers are what make the
/// timing honest: a second access to an in-flight subblock *combines* with
/// the existing transaction and retires at its fill (it can never be served
/// before the data arrives), and a cluster whose registers are all busy
/// delays its next request until one frees. Tracking is per requesting
/// cluster; a *remote* module's own next-level traffic (e.g. a fill another
/// cluster triggered) is approximated by its tags, which install at issue.
/// Remote *store* updates are fire-and-forget through the store buffer —
/// they charge their bus/port/next-level resources but, like the coherent
/// model's stores, claim no register.
///
/// Optional per-cluster **Attraction Buffers** hold remote subblocks: a
/// remote load attracts its whole subblock into the requester's buffer.
/// The buffer entry is allocated when the fill *completes* (MSHR
/// retirement), not when the request issues. Buffers are flushed at loop
/// boundaries ([`DataCache::flush_loop_boundary`]), which together with the
/// memory-dependent-chain scheduling constraint guarantees correctness.
///
/// Elements larger than the interleaving factor span several modules
/// (§5.2): the fetch is split across every spanning module, each part
/// paying its own bus transfers and bus-side port, and the load completes
/// when the last part arrives.
#[derive(Debug)]
pub struct InterleavedCache {
    n: usize,
    interleave: u64,
    block_bytes: u64,
    transfer: u64,
    module_access: u64,
    nl_latency: u64,
    tags: Vec<SetAssoc>,
    local_ports: Vec<ResourcePool>,
    bus_ports: Vec<ResourcePool>,
    mem_buses: ResourcePool,
    nl_ports: ResourcePool,
    buffers: Option<Vec<SetAssoc>>,
    mshrs: MshrFile,
    stats: MemStats,
    last_now: u64,
}

impl InterleavedCache {
    /// Builds the cache for a word-interleaved machine.
    ///
    /// # Panics
    ///
    /// Panics if `machine` fails validation or is not word-interleaved.
    pub fn new(machine: &MachineConfig) -> Self {
        machine.validate().expect("valid machine");
        assert!(
            machine.has_remote_accesses(),
            "machine must be word-interleaved"
        );
        let n = machine.n_clusters();
        let module_bytes = machine.cache.module_bytes(n);
        let subblock = machine.cache.subblock_bytes(n);
        let sets = module_bytes / (subblock * machine.cache.associativity);
        let buffers = machine.attraction_buffers.map(|ab| {
            let ab_sets = (ab.entries / ab.associativity).max(1);
            (0..n)
                .map(|_| SetAssoc::new(ab_sets, ab.associativity))
                .collect()
        });
        InterleavedCache {
            n,
            interleave: machine.cache.interleave_bytes as u64,
            block_bytes: machine.cache.block_bytes as u64,
            transfer: machine.buses.transfer_cycles as u64,
            module_access: machine.mem_latencies.local_hit as u64,
            nl_latency: machine.next_level.latency as u64,
            tags: (0..n)
                .map(|_| SetAssoc::new(sets, machine.cache.associativity))
                .collect(),
            local_ports: (0..n).map(|_| ResourcePool::new(1)).collect(),
            bus_ports: (0..n).map(|_| ResourcePool::new(1)).collect(),
            mem_buses: ResourcePool::new(machine.buses.mem_buses),
            nl_ports: ResourcePool::new(machine.next_level.ports),
            buffers,
            mshrs: MshrFile::new(n, machine.mshrs.per_cluster),
            stats: MemStats::new(),
            last_now: 0,
        }
    }

    /// The cluster owning `addr`.
    pub fn home_cluster(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.n as u64) as usize
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr / self.block_bytes
    }

    /// Attraction Buffer key for a (block, home-module) subblock.
    fn subblock_key(&self, block: u64, home: usize) -> u64 {
        block * self.n as u64 + home as u64
    }

    /// The `(home module, block)` pairs an access touches: the single
    /// `(home, block)` subblock for ordinary accesses (stack-allocated —
    /// this is the simulator's innermost hot path), every spanning module
    /// for `size > interleave` elements (§5.2). The oversized walk visits
    /// interleave-unit boundaries from the aligned base so an unaligned
    /// access still covers its last byte's module.
    fn parts_of(&self, addr: u64, size: u8, home: usize, block: u64, oversized: bool) -> Parts {
        if !oversized {
            return Parts::One([(home, block)]);
        }
        let mut parts = Vec::with_capacity(2);
        let mut a = addr - addr % self.interleave;
        while a < addr + size.max(1) as u64 {
            let part = (self.home_cluster(a), self.block_of(a));
            if !parts.contains(&part) {
                parts.push(part);
            }
            a += self.interleave;
        }
        Parts::Many(parts)
    }

    /// Retires every transaction whose fill time has passed; arriving
    /// attractable subblocks allocate their Attraction-Buffer entry here —
    /// at fill time, never at request time.
    fn retire(&mut self, now: u64) {
        let buffers = &mut self.buffers;
        self.mshrs.retire_up_to(now, &mut |cluster, e: MshrEntry| {
            if e.attract {
                if let Some(bufs) = buffers.as_mut() {
                    bufs[cluster].insert(e.key);
                }
            }
        });
    }

    /// MSHR capacity back-pressure: the cycle a new transaction for
    /// `cluster` may claim a register, at or after `earliest`, plus the
    /// cycles waited (0 when a register was free).
    fn mshr_gate(&mut self, cluster: usize, earliest: u64) -> (u64, u64) {
        let start = self.mshrs.earliest_start(cluster, earliest);
        let delay = start - earliest;
        if delay > 0 {
            self.stats.mshr_mut().on_full_stall(delay);
        }
        (start, delay)
    }

    /// One remote-module fetch starting at `start`: request bus → remote
    /// module (bus-side port) → reply bus, with the next-level round trip
    /// on a miss.
    fn fetch_remote(&mut self, start: u64, home: usize, block: u64) -> (u64, AccessClass) {
        let bus_start = self.mem_buses.acquire(start, self.transfer);
        let acc_start = self.bus_ports[home].acquire(bus_start + self.transfer, 1);
        let hit = self.tags[home].probe(block);
        if hit {
            let reply = self
                .mem_buses
                .acquire(acc_start + self.module_access, self.transfer);
            (reply + self.transfer, AccessClass::RemoteHit)
        } else {
            let nl_start = self.nl_ports.acquire(acc_start + self.module_access, 1);
            let filled = nl_start + self.nl_latency;
            self.tags[home].insert(block);
            let reply = self.mem_buses.acquire(filled, self.transfer);
            (reply + self.transfer, AccessClass::RemoteMiss)
        }
    }
}

impl DataCache for InterleavedCache {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        debug_assert!(
            req.now >= self.last_now,
            "requests must arrive in time order"
        );
        self.last_now = req.now;
        // simulated time reached `now`: completed fills retire (and
        // allocate their Attraction-Buffer entries) before anything can
        // observe them
        self.retire(req.now);
        let home = self.home_cluster(req.addr);
        let block = self.block_of(req.addr);
        // elements larger than the interleave factor span clusters and are
        // always remote (§5.2)
        let oversized = req.size as u64 > self.interleave;
        let local = home == req.cluster && !oversized;
        let key = self.subblock_key(block, home);

        if req.is_store {
            let parts = self.parts_of(req.addr, req.size, home, block, oversized);
            let parts = parts.as_slice();
            let class = if local {
                let port_start = self.local_ports[req.cluster].acquire(req.now, 1);
                let hit = self.tags[req.cluster].probe(block);
                if hit {
                    AccessClass::LocalHit
                } else if self.mshrs.lookup(req.cluster, key).is_some() {
                    // tag evicted while a fill for the subblock is still
                    // in flight: the write folds into that transaction
                    AccessClass::LocalMiss
                } else {
                    // write-allocate: fetch the subblock (store buffer hides
                    // the latency; the next-level port traffic still counts).
                    // The next-level port is reached only after the local
                    // port and tag probe — same order as the load-miss path —
                    // and the fill occupies a miss-status register like any
                    // other, so a later load waits for it instead of hitting
                    // on data still in the air.
                    let (start, _) = self.mshr_gate(req.cluster, port_start);
                    let nl_start = self.nl_ports.acquire(start, 1);
                    self.tags[req.cluster].insert(block);
                    let occ = self.mshrs.allocate(
                        req.cluster,
                        start,
                        MshrEntry {
                            key,
                            fill_at: nl_start + self.nl_latency,
                            class: AccessClass::LocalMiss,
                            waiters: 0,
                            attract: false,
                        },
                    );
                    self.stats.mshr_mut().on_fill_issued(occ);
                    AccessClass::LocalMiss
                }
            } else {
                // send the update over a memory bus to each touched module
                let mut class = AccessClass::RemoteHit;
                for &(p_home, p_block) in parts {
                    let bus_start = self.mem_buses.acquire(req.now, self.transfer);
                    let acc = self.bus_ports[p_home].acquire(bus_start + self.transfer, 1);
                    let hit = self.tags[p_home].probe(p_block);
                    if !hit {
                        self.nl_ports.acquire(acc + self.module_access, 1);
                        self.tags[p_home].insert(p_block);
                        class = AccessClass::RemoteMiss;
                    }
                }
                class
            };
            // keep Attraction Buffers coherent: the writer's own copy is
            // updated through the write, every other cluster's copy of
            // every touched subblock dies — including copies still in the
            // air (in-flight fills must not allocate a stale buffer entry
            // when they land)
            for &(p_home, p_block) in parts {
                let p_key = self.subblock_key(p_block, p_home);
                if let Some(bufs) = &mut self.buffers {
                    for (c, buf) in bufs.iter_mut().enumerate() {
                        if c != req.cluster {
                            buf.invalidate(p_key);
                        }
                    }
                }
                self.mshrs.clear_attract(req.cluster, p_key);
            }
            self.stats.record(class, false, false);
            // stores complete through the store buffer next cycle
            return AccessOutcome {
                ready_at: req.now + 1,
                class,
                combined: false,
                ab_hit: false,
                mshr_delay: 0,
            };
        }

        // local loads
        if local {
            let port_start = self.local_ports[req.cluster].acquire(req.now, 1);
            // a load to a subblock whose fill is still in flight combines
            // with the transaction — whether or not the tag survived
            // eviction in the meantime
            if let Some(e) = self.mshrs.lookup(req.cluster, key) {
                e.waiters += 1;
                let (ready, class) = (e.fill_at.max(port_start + self.module_access), e.class);
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
            let hit = self.tags[req.cluster].probe(block);
            if hit {
                self.stats.record(AccessClass::LocalHit, false, false);
                return AccessOutcome {
                    ready_at: port_start + self.module_access,
                    class: AccessClass::LocalHit,
                    combined: false,
                    ab_hit: false,
                    mshr_delay: 0,
                };
            }
            let (start, delay) = self.mshr_gate(req.cluster, port_start);
            let nl_start = self.nl_ports.acquire(start, 1);
            self.tags[req.cluster].insert(block);
            let fill = nl_start + self.nl_latency;
            let occ = self.mshrs.allocate(
                req.cluster,
                start,
                MshrEntry {
                    key,
                    fill_at: fill,
                    class: AccessClass::LocalMiss,
                    waiters: 0,
                    attract: false,
                },
            );
            self.stats.mshr_mut().on_fill_issued(occ);
            self.stats.record(AccessClass::LocalMiss, false, false);
            return AccessOutcome {
                ready_at: fill,
                class: AccessClass::LocalMiss,
                combined: false,
                ab_hit: false,
                mshr_delay: delay,
            };
        }

        // remote loads: Attraction Buffer first — it can only hold
        // subblocks whose fill has completed, so a hit is always real data
        if !oversized {
            if let Some(bufs) = &mut self.buffers {
                if bufs[req.cluster].probe(key) {
                    let ready = req.now + self.module_access;
                    self.stats.record(AccessClass::LocalHit, false, true);
                    return AccessOutcome {
                        ready_at: ready,
                        class: AccessClass::LocalHit,
                        combined: false,
                        ab_hit: true,
                        mshr_delay: 0,
                    };
                }
            }
        }

        // one part per spanning module (exactly one unless oversized, so
        // the common case stays allocation-free); parts already in flight
        // merge into their transaction, the rest issue — the whole load
        // retires when the last part arrives
        let parts = self.parts_of(req.addr, req.size, home, block, oversized);
        let mut ready = 0u64;
        let mut class = AccessClass::RemoteHit;
        let mut issued = false;
        let mut delay = 0u64;
        for &(p_home, p_block) in parts.as_slice() {
            let p_key = self.subblock_key(p_block, p_home);
            if let Some(e) = self.mshrs.lookup(req.cluster, p_key) {
                e.waiters += 1;
                ready = ready.max(e.fill_at);
                class = class.max(e.class);
                self.stats.mshr_mut().on_merge();
            } else {
                let (start, d) = self.mshr_gate(req.cluster, req.now);
                delay = delay.max(d);
                let (p_ready, p_class) = self.fetch_remote(start, p_home, p_block);
                let attract = !oversized && req.attractable && self.buffers.is_some();
                let occ = self.mshrs.allocate(
                    req.cluster,
                    start,
                    MshrEntry {
                        key: p_key,
                        fill_at: p_ready,
                        class: p_class,
                        waiters: 0,
                        attract,
                    },
                );
                self.stats.mshr_mut().on_fill_issued(occ);
                ready = ready.max(p_ready);
                class = class.max(p_class);
                issued = true;
            }
        }
        let combined = !issued;
        self.stats.record(class, combined, false);
        AccessOutcome {
            ready_at: ready,
            class,
            combined,
            ab_hit: false,
            mshr_delay: delay,
        }
    }

    fn flush_loop_boundary(&mut self) {
        if let Some(bufs) = &mut self.buffers {
            for b in bufs {
                b.clear();
            }
        }
        // a finished loop's in-flight fills must not allocate buffer
        // entries for the next loop — but the transactions stay tracked:
        // dropping them would let an access right after the boundary hit
        // on a tag whose data has not arrived
        self.mshrs.strip_attract();
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
    use crate::MshrStats;

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    fn machine_ab() -> MachineConfig {
        MachineConfig::word_interleaved_4().with_attraction_buffers(16, 2)
    }

    #[test]
    fn uncontended_class_latencies_match_worked_example() {
        let mut c = InterleavedCache::new(&machine());
        // local miss then local hit (cluster 0 owns address 0)
        let o = c.access(AccessRequest::load(0, 0, 4, 0));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalMiss, 10));
        let o = c.access(AccessRequest::load(0, 0, 4, 100));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalHit, 101));
        // remote miss then remote hit (cluster 1 reads address 0)
        let o = c.access(AccessRequest::load(1, 128, 4, 200));
        assert_eq!((o.class, o.ready_at - 200), (AccessClass::RemoteMiss, 15));
        let o = c.access(AccessRequest::load(1, 128, 4, 300));
        assert_eq!((o.class, o.ready_at - 300), (AccessClass::RemoteHit, 5));
    }

    #[test]
    fn home_cluster_mapping() {
        let c = InterleavedCache::new(&machine());
        assert_eq!(c.home_cluster(0), 0);
        assert_eq!(c.home_cluster(4), 1);
        assert_eq!(c.home_cluster(12), 3);
        assert_eq!(c.home_cluster(16), 0); // wraps every N*I = 16 bytes
    }

    #[test]
    fn no_replication_outside_buffers() {
        // a remote access must NOT copy the subblock into the requester's
        // module: the next access from the home cluster still hits at home,
        // and the requester stays remote
        let mut c = InterleavedCache::new(&machine());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // cluster 0 local miss -> fills module 0
        let o = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!(o.class, AccessClass::RemoteHit);
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!(
            o.class,
            AccessClass::RemoteHit,
            "still remote without buffers"
        );
    }

    #[test]
    fn attraction_buffer_turns_remote_into_local() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm module 0
        let o = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!(o.class, AccessClass::RemoteHit);
        // subblock now in cluster 1's buffer: next access is a local hit
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!(o.class, AccessClass::LocalHit);
        assert!(o.ab_hit);
        assert_eq!(o.ready_at, 101);
        // the whole subblock was attracted: word 16 (same block, module 0)
        let o = c.access(AccessRequest::load(1, 16, 4, 150));
        assert_eq!(
            o.class,
            AccessClass::LocalHit,
            "sibling word of the subblock"
        );
    }

    /// Regression: the pre-MSHR model inserted the Attraction-Buffer entry
    /// at *request* time, so a load issued 1 cycle after a remote miss
    /// AB-hit at `now + module_access` (= cycle 2) — 13 cycles before the
    /// data arrived. With fill-time allocation the second load combines
    /// with the in-flight transaction and retires no earlier than the
    /// first fill.
    #[test]
    fn second_load_to_inflight_remote_subblock_waits_for_fill() {
        let mut c = InterleavedCache::new(&machine_ab());
        let a = c.access(AccessRequest::load(1, 0, 4, 0));
        assert_eq!((a.class, a.ready_at), (AccessClass::RemoteMiss, 15));
        let b = c.access(AccessRequest::load(1, 16, 4, 1)); // same subblock
        assert!(!b.ab_hit, "data has not arrived yet");
        assert!(b.combined, "merges into the in-flight transaction");
        assert!(b.ready_at >= a.ready_at, "cannot be served before the fill");
        assert_eq!(b.ready_at, a.ready_at);
        assert_eq!(c.stats().mshr().merged_waiters, 1);
    }

    #[test]
    fn attraction_buffer_allocates_at_fill_time() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm module 0
        let a = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!((a.class, a.ready_at), (AccessClass::RemoteHit, 55));
        // 2 cycles before the fill: still in flight, not an AB hit
        let b = c.access(AccessRequest::load(1, 16, 4, 53));
        assert!(!b.ab_hit && b.combined);
        assert_eq!(b.ready_at, 55);
        // after the fill: the buffer entry exists
        let d = c.access(AccessRequest::load(1, 16, 4, 60));
        assert!(d.ab_hit);
        assert_eq!((d.class, d.ready_at), (AccessClass::LocalHit, 61));
    }

    #[test]
    fn flush_empties_buffers() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0));
        let _ = c.access(AccessRequest::load(1, 0, 4, 50));
        c.flush_loop_boundary();
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!(
            o.class,
            AccessClass::RemoteHit,
            "buffer flushed between loops"
        );
    }

    #[test]
    fn stores_invalidate_other_buffers() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0));
        let _ = c.access(AccessRequest::load(1, 0, 4, 50)); // cluster 1 attracts
        let _ = c.access(AccessRequest::store(2, 0, 4, 100)); // cluster 2 writes
        let o = c.access(AccessRequest::load(1, 0, 4, 150));
        assert_eq!(
            o.class,
            AccessClass::RemoteHit,
            "stale buffer entry invalidated"
        );
    }

    #[test]
    fn stores_strip_attraction_from_inflight_fills() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm module 0
        let _ = c.access(AccessRequest::load(1, 0, 4, 50)); // fill lands at 55
        let _ = c.access(AccessRequest::store(2, 0, 4, 52)); // store before the fill
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!(
            o.class,
            AccessClass::RemoteHit,
            "the stale in-flight fill must not allocate a buffer entry"
        );
    }

    #[test]
    fn non_attractable_requests_bypass_buffer() {
        let mut c = InterleavedCache::new(&machine_ab());
        let _ = c.access(AccessRequest::load(0, 0, 4, 0));
        let mut r = AccessRequest::load(1, 0, 4, 50);
        r.attractable = false;
        let _ = c.access(r);
        let o = c.access(AccessRequest::load(1, 0, 4, 100));
        assert_eq!(
            o.class,
            AccessClass::RemoteHit,
            "hint suppressed allocation"
        );
    }

    #[test]
    fn combining_merges_inflight_subblock_requests() {
        let mut c = InterleavedCache::new(&machine());
        let a = c.access(AccessRequest::load(1, 0, 4, 0)); // remote miss, ready at 15
        assert_eq!(a.class, AccessClass::RemoteMiss);
        let b = c.access(AccessRequest::load(1, 16, 4, 2)); // same subblock (block 0, module 0)
        assert!(b.combined);
        assert_eq!(b.ready_at, a.ready_at);
        assert_eq!(c.stats().combined(), 1);
        assert_eq!(c.stats().mshr().merged_waiters, 1);
        // after completion, no combining
        let d = c.access(AccessRequest::load(1, 0, 4, 40));
        assert!(!d.combined);
        assert_eq!(c.stats().mshr().fills, 2);
    }

    #[test]
    fn oversized_accesses_are_always_remote() {
        let mut c = InterleavedCache::new(&machine());
        // 8-byte element at address 0: home is cluster 0, but granularity 8 > I=4
        let o = c.access(AccessRequest::load(0, 0, 8, 0));
        assert!(!o.class.is_local());
        let o = c.access(AccessRequest::load(0, 0, 8, 100));
        assert!(!o.class.is_local());
    }

    /// Regression: the pre-split model fetched an oversized element from
    /// its first word's home module only, leaving the second spanning
    /// module untouched and its bus/port resources uncharged.
    #[test]
    fn oversized_fetch_fills_both_spanning_modules() {
        let mut c = InterleavedCache::new(&machine());
        let o = c.access(AccessRequest::load(2, 0, 8, 0)); // spans modules 0 and 1
        assert_eq!(o.class, AccessClass::RemoteMiss);
        assert_eq!(o.ready_at, 15, "halves fetch in parallel on separate buses");
        assert_eq!(c.stats().mshr().fills, 2, "one transaction per module");
        // the second module was really filled: its word is now a remote hit
        let o = c.access(AccessRequest::load(2, 4, 4, 100));
        assert_eq!(o.class, AccessClass::RemoteHit, "module 1 holds the block");
        let o = c.access(AccessRequest::load(2, 0, 4, 200));
        assert_eq!(o.class, AccessClass::RemoteHit, "module 0 holds the block");
    }

    #[test]
    fn unaligned_oversized_access_spans_all_touched_modules() {
        // bytes 2..10 touch words 0, 4 and 8 — modules 0, 1 AND 2; sampling
        // only addr+k*I would have missed module 2
        let mut c = InterleavedCache::new(&machine());
        let o = c.access(AccessRequest::load(3, 2, 8, 0));
        assert_eq!(o.class, AccessClass::RemoteMiss);
        assert_eq!(c.stats().mshr().fills, 3, "one transaction per module");
        let o = c.access(AccessRequest::load(3, 8, 4, 100));
        assert_eq!(o.class, AccessClass::RemoteHit, "last module was filled");
    }

    /// Regression: a local miss whose tag was evicted while its fill was
    /// still in flight used to issue a *second* transaction for the same
    /// subblock (double fill, double register, duplicate MSHR key).
    #[test]
    fn local_miss_after_tag_eviction_combines_with_inflight_fill() {
        let mut c = InterleavedCache::new(&machine());
        // blocks 0, 128 and 256 map to the same 2-way set of module 0
        let a = c.access(AccessRequest::load(0, 0, 4, 0)); // fill at 10
        let _ = c.access(AccessRequest::load(0, 4096, 4, 1));
        let _ = c.access(AccessRequest::load(0, 8192, 4, 2)); // evicts block 0's tag
        let b = c.access(AccessRequest::load(0, 0, 4, 3)); // fill still in flight
        assert!(b.combined, "must merge, not re-fetch");
        assert_eq!(b.ready_at, a.ready_at);
        assert_eq!(c.stats().mshr().fills, 3, "no duplicate transaction");
    }

    #[test]
    fn flush_keeps_inflight_fills_tracked() {
        // a loop boundary right after a miss: the tag is installed but the
        // data is still in the air — the next loop's first access must not
        // be served early (flush only strips the attraction flags)
        let mut c = InterleavedCache::new(&machine_ab());
        let a = c.access(AccessRequest::load(1, 0, 4, 0)); // remote miss, fill 15
        c.flush_loop_boundary();
        let b = c.access(AccessRequest::load(1, 0, 4, 2));
        assert!(b.combined);
        assert_eq!(b.ready_at, a.ready_at, "still waits for the fill");
        // …and the stripped attract flag means no buffer entry at the fill
        let d = c.access(AccessRequest::load(1, 0, 4, 50));
        assert_eq!(d.class, AccessClass::RemoteHit, "no stale AB allocation");
    }

    /// Regression: a local store's write-allocate fill used to claim no
    /// register, so a load to another word of the same subblock hit at
    /// the 1-cycle latency while the fill was still in the air.
    #[test]
    fn load_after_store_miss_waits_for_write_allocate_fill() {
        let mut c = InterleavedCache::new(&machine());
        let s = c.access(AccessRequest::store(0, 0, 4, 0)); // miss, fill at 10
        assert_eq!((s.class, s.ready_at), (AccessClass::LocalMiss, 1));
        let b = c.access(AccessRequest::load(0, 16, 4, 1)); // same subblock
        assert!(b.combined, "merges with the write-allocate fill");
        assert_eq!(b.ready_at, 10, "waits for the fill, not tag-hit at 2");
    }

    /// Regression: an oversized store used to invalidate only its first
    /// word's subblock key, leaving other clusters' Attraction-Buffer
    /// copies of the second spanning subblock alive with stale data.
    #[test]
    fn oversized_store_invalidates_every_spanning_subblock() {
        let mut c = InterleavedCache::new(&machine_ab());
        // cluster 3 attracts both subblocks of block 0 (modules 0 and 1)
        let _ = c.access(AccessRequest::load(3, 0, 4, 0));
        let _ = c.access(AccessRequest::load(3, 4, 4, 20));
        let o = c.access(AccessRequest::load(3, 4, 4, 60));
        assert!(o.ab_hit, "warmed: subblock (block 0, module 1) attracted");
        // an 8-byte store from cluster 2 touches both subblocks
        let _ = c.access(AccessRequest::store(2, 0, 8, 100));
        let a = c.access(AccessRequest::load(3, 0, 4, 150));
        assert_eq!(a.class, AccessClass::RemoteHit, "module-0 copy died");
        let b = c.access(AccessRequest::load(3, 4, 4, 200));
        assert_eq!(b.class, AccessClass::RemoteHit, "module-1 copy died too");
    }

    #[test]
    fn oversized_fetch_charges_both_bus_transfers() {
        let mut m = machine();
        m.buses.mem_buses = 1; // a single bus serializes the two halves
        let mut c = InterleavedCache::new(&m);
        let o = c.access(AccessRequest::load(2, 0, 8, 0));
        assert_eq!(o.class, AccessClass::RemoteMiss);
        assert_eq!(
            o.ready_at, 30,
            "the halves serialize on the single bus (requests book in \
             issue order), instead of the second riding along for free"
        );
    }

    /// Regression: the local-store write-allocate path used to book the
    /// next-level port at `req.now` even when the local port (and the tag
    /// probe behind it) was not free until later — the fill traffic
    /// occupied the next level before the miss was even detected.
    #[test]
    fn store_miss_books_nl_port_after_local_port_and_probe() {
        let mut m = machine();
        m.next_level.ports = 1; // make next-level bookings observable
        let mut c = InterleavedCache::new(&m);
        // uncontended store miss: the booking lands exactly at req.now
        // (port granted immediately, probe overlapped) …
        let o = c.access(AccessRequest::store(0, 0, 4, 7));
        assert_eq!((o.class, o.ready_at), (AccessClass::LocalMiss, 8));
        let o = c.access(AccessRequest::load(1, 4, 4, 7)); // local miss, needs the NL port
        assert_eq!(
            o.ready_at, 18,
            "NL port busy at 7: the store booked it at its port grant"
        );

        // … but a store whose local port is contended reaches the next
        // level only at its port grant (cycle 21), not at req.now (20)
        let mut c = InterleavedCache::new(&m);
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm block 0 (NL busy 0..1)
        let _ = c.access(AccessRequest::store(0, 0, 4, 20)); // hit: occupies port 20..21
        let _ = c.access(AccessRequest::store(0, 128, 4, 20)); // miss: port granted at 21
        let o = c.access(AccessRequest::load(1, 4, 4, 20)); // next NL user in queue order
        assert_eq!(
            o.ready_at, 32,
            "the store occupies the NL port 21..22, so the load fills 22..32 \
             (the old req.now booking at 20..21 would have given 31)"
        );
    }

    #[test]
    fn mshr_capacity_backpressures_new_requests() {
        let m = machine().with_mshrs(1);
        let mut c = InterleavedCache::new(&m);
        let a = c.access(AccessRequest::load(1, 0, 4, 0)); // occupies the only register
        assert_eq!(a.ready_at, 15);
        let b = c.access(AccessRequest::load(1, 64, 4, 1)); // different subblock
        assert_eq!(b.mshr_delay, 14, "no free register until the first fill");
        assert_eq!(b.ready_at, 30, "issues at 15: bus 15-17, probe, miss, fill");
        assert_eq!(c.stats().mshr().full_stall_cycles, 14);
        assert_eq!(c.stats().mshr().peak_occupancy, 1);
    }

    #[test]
    fn bus_contention_delays_remote_hits() {
        let mut m = machine();
        m.buses.mem_buses = 1; // single bus
        let mut c = InterleavedCache::new(&m);
        let _ = c.access(AccessRequest::load(0, 0, 4, 0)); // warm module 0
        let a = c.access(AccessRequest::load(1, 0, 4, 100));
        let b = c.access(AccessRequest::load(2, 128, 4, 100));
        assert_eq!(a.ready_at - 100, 5);
        assert!(b.ready_at - 100 > 5, "second request waits for the bus");
    }

    #[test]
    fn capacity_evictions_cause_misses() {
        // module 0 holds 2 KB = 256 subblocks in 128 sets x 2 ways; streaming
        // 4x its capacity through one set-mapping evicts earlier blocks
        let mut c = InterleavedCache::new(&machine());
        let mut now = 0;
        // touch 512 distinct blocks (addresses 0, 32, 64, …), all module 0
        for i in 0..512u64 {
            now += 20;
            let _ = c.access(AccessRequest::load(0, i * 32, 4, now));
        }
        // re-touch the first block: evicted long ago
        now += 20;
        let o = c.access(AccessRequest::load(0, 0, 4, now));
        assert_eq!(o.class, AccessClass::LocalMiss);
    }

    #[test]
    fn stats_conserve_total() {
        let mut c = InterleavedCache::new(&machine_ab());
        let mut now = 0;
        for i in 0..100u64 {
            now += 3;
            let _ = c.access(AccessRequest::load(
                (i % 4) as usize,
                (i * 4) % 1024,
                4,
                now,
            ));
        }
        let s = c.stats();
        let sum = AccessClass::ALL.iter().map(|&cl| s.count(cl)).sum::<u64>() + s.combined();
        assert_eq!(sum, 100);
    }

    /// The contended stream: `accesses` requests, all targeting eight
    /// blocks homed on cluster 0, issued round-robin by all four clusters
    /// one cycle apart, with a store every 97th access to exercise the
    /// attraction-invalidation path. The opening accesses combine with
    /// in-flight fills or wait for a free miss-status register; once the
    /// blocks are attracted, almost every access is a local hit.
    fn hammer(machine: &MachineConfig, accesses: u64) -> MemStats {
        let mut cache = InterleavedCache::new(machine);
        let mut now = 0;
        for i in 0..accesses {
            now += 1;
            let cluster = (i % 4) as usize;
            let addr = (i % 8) * 32;
            if i % 97 == 0 {
                let _ = cache.access(AccessRequest::store(cluster, addr, 4, now));
            } else {
                let _ = cache.access(AccessRequest::load(cluster, addr, 4, now));
            }
        }
        *cache.stats()
    }

    /// Counters of [`hammer`] pinned exactly: the default MSHR file never
    /// runs out of registers, while a single register per cluster turns
    /// 39 cycles of back-pressure into 6 more combined accesses.
    #[test]
    fn contended_stream_counters_are_pinned() {
        let cases = [
            (
                machine_ab(),
                MshrStats {
                    fills: 8,
                    merged_waiters: 8,
                    full_stall_cycles: 0,
                    peak_occupancy: 2,
                },
                [19_829, 155, 2, 6],
                8,
            ),
            (
                machine_ab().with_mshrs(1),
                MshrStats {
                    fills: 8,
                    merged_waiters: 14,
                    full_stall_cycles: 39,
                    peak_occupancy: 1,
                },
                [19_823, 155, 2, 6],
                14,
            ),
        ];
        for (m, mshr, counts, combined) in cases {
            let s = hammer(&m, 20_000);
            assert_eq!(*s.mshr(), mshr);
            assert_eq!(AccessClass::ALL.map(|c| s.count(c)), counts);
            assert_eq!(s.combined(), combined);
        }
    }
}
