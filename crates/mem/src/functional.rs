//! Timeless hit/miss model used by the profiling pass.

use vliw_machine::MachineConfig;

use crate::lru::SetAssoc;

/// A functional (no timing, no contention) model of the word-interleaved
/// cache: it answers, for each access in program order, which cluster owns
/// the address and whether the access hits. The profiling pass in
/// `vliw-workloads` drives it with the profile input's address streams to
/// produce each memory operation's hit rate and preferred-cluster
/// histogram — the role IMPACT profiling plays in the paper.
#[derive(Debug, Clone)]
pub struct FunctionalCache {
    n: usize,
    interleave: u64,
    block_bytes: u64,
    tags: Vec<SetAssoc>,
}

impl FunctionalCache {
    /// Builds the functional model with `machine`'s cache geometry.
    pub fn new(machine: &MachineConfig) -> Self {
        let n = machine.n_clusters();
        let module_bytes = machine.cache.module_bytes(n);
        let subblock = machine.cache.subblock_bytes(n);
        let sets = module_bytes / (subblock * machine.cache.associativity);
        FunctionalCache {
            n,
            interleave: machine.cache.interleave_bytes as u64,
            block_bytes: machine.cache.block_bytes as u64,
            tags: (0..n)
                .map(|_| SetAssoc::new(sets, machine.cache.associativity))
                .collect(),
        }
    }

    /// The cluster owning `addr`.
    pub(crate) fn home_cluster(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.n as u64) as usize
    }

    /// Processes one access; returns `(home cluster, hit)`. Misses allocate
    /// (stores included — the profile cares about locality, not policy
    /// detail).
    pub fn access(&mut self, addr: u64) -> (usize, bool) {
        let home = self.home_cluster(addr);
        let block = addr / self.block_bytes;
        let hit = self.tags[home].probe(block);
        if !hit {
            self.tags[home].insert(block);
        }
        (home, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FunctionalCache {
        /// Forgets all cached state (between profiling different loops).
        fn clear(&mut self) {
            for t in &mut self.tags {
                t.clear();
            }
        }
    }

    #[test]
    fn miss_then_hit_and_homes() {
        let m = MachineConfig::word_interleaved_4();
        let mut c = FunctionalCache::new(&m);
        let (home, hit) = c.access(8);
        assert_eq!(home, 2);
        assert!(!hit);
        let (_, hit) = c.access(8);
        assert!(hit);
        // same block, different word, different module: separate tags
        let (home, hit) = c.access(12);
        assert_eq!(home, 3);
        assert!(!hit);
    }

    #[test]
    fn clear_resets() {
        let m = MachineConfig::word_interleaved_4();
        let mut c = FunctionalCache::new(&m);
        let _ = c.access(64);
        c.clear();
        let (_, hit) = c.access(64);
        assert!(!hit);
    }

    #[test]
    fn strided_sweep_has_high_hit_rate_on_second_pass() {
        let m = MachineConfig::word_interleaved_4();
        let mut c = FunctionalCache::new(&m);
        // a 1 KB array fits comfortably in 8 KB total
        for pass in 0..2 {
            let mut hits = 0;
            for i in 0..256u64 {
                let (_, hit) = c.access(i * 4);
                hits += hit as u64;
            }
            if pass == 1 {
                assert_eq!(hits, 256, "everything resident on the second pass");
            }
        }
    }
}
