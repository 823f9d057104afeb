//! Generic set-associative tag array with LRU replacement.

/// A set-associative array of opaque `u64` keys with true-LRU replacement.
///
/// Used for cache-module tags, Attraction Buffer entries and the multiVLIW
/// per-cluster caches. The *key* is the full block/subblock identifier; the
/// set index is derived internally (`key % sets`), so callers never split
/// tag from index themselves.
#[derive(Debug, Clone)]
pub(crate) struct SetAssoc {
    sets: usize,
    ways: usize,
    entries: Vec<Option<u64>>,
    last_use: Vec<u64>,
    stamp: u64,
}

impl SetAssoc {
    /// Creates an array with `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "geometry must be nonzero");
        SetAssoc {
            sets,
            ways,
            entries: vec![None; sets * ways],
            last_use: vec![0; sets * ways],
            stamp: 0,
        }
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key % self.sets as u64) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Probes for `key`; a hit refreshes its LRU position.
    pub(crate) fn probe(&mut self, key: u64) -> bool {
        self.stamp += 1;
        let range = self.set_range(key);
        for i in range {
            if self.entries[i] == Some(key) {
                self.last_use[i] = self.stamp;
                return true;
            }
        }
        false
    }

    /// Whether `key` is present, without touching LRU state.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.set_range(key)
            .into_iter()
            .any(|i| self.entries[i] == Some(key))
    }

    /// Inserts `key`, evicting the LRU way of its set if needed.
    /// Returns the evicted key, if any. Inserting a present key refreshes
    /// it instead.
    pub(crate) fn insert(&mut self, key: u64) -> Option<u64> {
        self.stamp += 1;
        let range = self.set_range(key);
        // refresh if present
        for i in range.clone() {
            if self.entries[i] == Some(key) {
                self.last_use[i] = self.stamp;
                return None;
            }
        }
        // free way?
        for i in range.clone() {
            if self.entries[i].is_none() {
                self.entries[i] = Some(key);
                self.last_use[i] = self.stamp;
                return None;
            }
        }
        // evict LRU
        let victim = range.min_by_key(|&i| self.last_use[i]).expect("ways > 0");
        let evicted = self.entries[victim];
        self.entries[victim] = Some(key);
        self.last_use[victim] = self.stamp;
        evicted
    }

    /// Removes `key` if present; returns whether it was there.
    pub(crate) fn invalidate(&mut self, key: u64) -> bool {
        let range = self.set_range(key);
        for i in range {
            if self.entries[i] == Some(key) {
                self.entries[i] = None;
                return true;
            }
        }
        false
    }

    /// Empties the array (Attraction Buffer flush).
    pub(crate) fn clear(&mut self) {
        self.entries.fill(None);
        self.last_use.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SetAssoc {
        /// Number of valid entries.
        fn len(&self) -> usize {
            self.entries.iter().filter(|e| e.is_some()).count()
        }

        /// Whether the array holds no entries.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut a = SetAssoc::new(4, 2);
        assert!(!a.probe(12));
        a.insert(12);
        assert!(a.probe(12));
        assert!(a.contains(12));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut a = SetAssoc::new(1, 2); // single set, 2 ways
        a.insert(10);
        a.insert(20);
        assert!(a.probe(10)); // 20 is now LRU
        let evicted = a.insert(30);
        assert_eq!(evicted, Some(20));
        assert!(a.contains(10) && a.contains(30) && !a.contains(20));
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut a = SetAssoc::new(4, 1);
        // keys 0..4 go to different sets: no eviction
        for k in 0..4 {
            assert_eq!(a.insert(k), None);
        }
        assert_eq!(a.len(), 4);
        // key 4 collides with key 0 (set 0)
        assert_eq!(a.insert(4), Some(0));
    }

    #[test]
    fn insert_refreshes_existing() {
        let mut a = SetAssoc::new(1, 2);
        a.insert(1);
        a.insert(2);
        a.insert(1); // refresh, not duplicate
        assert_eq!(a.len(), 2);
        assert_eq!(a.insert(3), Some(2)); // 2 was LRU
    }

    #[test]
    fn invalidate_and_clear() {
        let mut a = SetAssoc::new(2, 2);
        a.insert(5);
        assert!(a.invalidate(5));
        assert!(!a.invalidate(5));
        a.insert(6);
        a.insert(7);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_rejected() {
        let _ = SetAssoc::new(0, 2);
    }
}
