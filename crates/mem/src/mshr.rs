//! In-flight request tracking: miss-status holding registers (MSHRs).
//!
//! Every memory transaction that takes time to complete — a remote request
//! over the memory buses, a next-level fill — is recorded in a per-cluster
//! [`MshrFile`] from the cycle it issues until its fill time. The file is
//! the single source of truth about what is *in flight*, which fixes two
//! timing bugs the previous ad-hoc `pending` map had structurally:
//!
//! * **Data is never served before it arrives.** Attraction-Buffer
//!   allocation (and any other "the data is now here" side effect) happens
//!   when an entry *retires* at its fill time, not when the request issues.
//!   A second access to an in-flight subblock finds the MSHR entry and
//!   waits for the fill instead of hitting on data that has not arrived.
//! * **Request combining is exact.** A combined access attaches to the
//!   entry as a waiter and retires with it (§3's "combined accesses"); the
//!   entry records how many requests it merged.
//!
//! Entries retire lazily as simulated time advances: every cache call
//! passes the current cycle to [`MshrFile::retire_up_to`] first, so the
//! file never grows beyond its configured capacity and never relies on
//! loop-boundary flushes for correctness. When every register of a cluster
//! is busy, a new transaction waits for the earliest fill
//! ([`MshrFile::earliest_start`]) — the structural back-pressure a real
//! MSHR file applies.
//!
//! Since every cache call retires first, most calls find nothing due. The
//! file keeps a watermark `next_fill`, a lower bound on every entry's fill
//! time: [`MshrFile::allocate`] lowers it, a retiring scan recomputes it
//! exactly, and removals ([`MshrFile::invalidate_other`]) leave it where it
//! is, which can only make it lower than the true minimum. A retire at a
//! cycle below the watermark returns without scanning; a retire at or past
//! it scans every list as before, so the delivery order is unchanged.

use vliw_machine::AccessClass;

/// One in-flight transaction: a requested subblock on its way to a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Subblock (or block) identity the transaction fills.
    pub key: u64,
    /// Absolute cycle the data arrives at the requesting cluster.
    pub fill_at: u64,
    /// How the original request classified (the class combined waiters
    /// inherit).
    pub class: AccessClass,
    /// Requests merged into this transaction after it issued — the
    /// per-entry record delivered to [`MshrFile::retire_up_to`] callbacks
    /// (aggregate counting lives in `MemStats`).
    pub waiters: u32,
    /// Whether the fill allocates an Attraction-Buffer entry on arrival.
    pub attract: bool,
}

/// Per-cluster miss-status register files of fixed capacity.
///
/// `filled` holds entries whose register was handed to a newer transaction
/// exactly at their fill time (capacity back-pressure): their data is still
/// "in the air" for lookup purposes until simulated time reaches the fill,
/// at which point [`MshrFile::retire_up_to`] delivers them like any other
/// entry. Only `inflight` counts toward capacity.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    inflight: Vec<Vec<MshrEntry>>,
    filled: Vec<Vec<MshrEntry>>,
    /// A lower bound on every entry's `fill_at` (`u64::MAX` when empty):
    /// nothing can retire before it.
    next_fill: u64,
}

impl MshrFile {
    /// A file of `capacity` registers for each of `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` or `capacity` is zero.
    pub fn new(clusters: usize, capacity: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(capacity > 0, "need at least one MSHR per cluster");
        MshrFile {
            capacity,
            inflight: vec![Vec::new(); clusters],
            filled: vec![Vec::new(); clusters],
            next_fill: u64::MAX,
        }
    }

    /// Registers per cluster.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Busy registers of `cluster` (entries still counting toward
    /// capacity).
    pub fn occupancy(&self, cluster: usize) -> usize {
        self.inflight[cluster].len()
    }

    /// Retires every entry whose fill time has been reached, delivering it
    /// to `on_fill(cluster, entry)` (Attraction-Buffer allocation lives in
    /// that callback). Must be called with the current cycle before any
    /// lookup — arrival is what turns an in-flight subblock into data.
    /// Returns at once while `now` is below the fill watermark.
    pub fn retire_up_to(&mut self, now: u64, on_fill: &mut dyn FnMut(usize, MshrEntry)) {
        if now < self.next_fill {
            return;
        }
        let mut next_fill = u64::MAX;
        for cluster in 0..self.inflight.len() {
            for list in [&mut self.inflight[cluster], &mut self.filled[cluster]] {
                let mut i = 0;
                while i < list.len() {
                    if list[i].fill_at <= now {
                        on_fill(cluster, list.swap_remove(i));
                    } else {
                        next_fill = next_fill.min(list[i].fill_at);
                        i += 1;
                    }
                }
            }
        }
        self.next_fill = next_fill;
    }

    /// The in-flight entry for `(cluster, key)`, if the transaction has
    /// not yet filled. Mutable so callers can attach waiters; a caller
    /// must never lower `fill_at` (the retire watermark assumes fills only
    /// enter through [`MshrFile::allocate`]).
    pub fn lookup(&mut self, cluster: usize, key: u64) -> Option<&mut MshrEntry> {
        // search order is irrelevant: a key is never in both lists (a new
        // transaction for a key only starts once the old one retired or
        // was looked up and merged with)
        self.inflight[cluster]
            .iter_mut()
            .chain(self.filled[cluster].iter_mut())
            .find(|e| e.key == key)
    }

    /// The earliest cycle ≥ `now` a *new* transaction can claim a register
    /// of `cluster`: `now` when a register is free, otherwise the earliest
    /// fill among the busy ones. Call [`MshrFile::retire_up_to`]`(now)`
    /// first so already-complete entries do not count as busy.
    pub fn earliest_start(&self, cluster: usize, now: u64) -> u64 {
        if self.inflight[cluster].len() < self.capacity {
            now
        } else {
            self.inflight[cluster]
                .iter()
                .map(|e| e.fill_at)
                .min()
                .expect("full file is nonempty")
                .max(now)
        }
    }

    /// Claims a register of `cluster` at `start` (a cycle ≥
    /// [`MshrFile::earliest_start`]) for `entry`; returns the occupancy
    /// after allocation. If the file is full, the register whose fill
    /// frees it (fill ≤ `start`) moves to the `filled` shelf — its data
    /// is still findable by [`MshrFile::lookup`] until time reaches it.
    ///
    /// # Panics
    ///
    /// Panics if the file is full and no entry fills by `start` (the
    /// caller skipped `earliest_start`).
    pub fn allocate(&mut self, cluster: usize, start: u64, entry: MshrEntry) -> usize {
        if self.inflight[cluster].len() >= self.capacity {
            let (idx, _) = self.inflight[cluster]
                .iter()
                .enumerate()
                .min_by_key(|&(i, e)| (e.fill_at, i))
                .expect("full file is nonempty");
            let evicted = self.inflight[cluster].swap_remove(idx);
            assert!(
                evicted.fill_at <= start,
                "allocation at {start} before the earliest fill {}",
                evicted.fill_at
            );
            self.filled[cluster].push(evicted);
        }
        self.next_fill = self.next_fill.min(entry.fill_at);
        self.inflight[cluster].push(entry);
        self.inflight[cluster].len()
    }

    /// Drops every *other* cluster's in-flight entry for `key`: a store
    /// invalidated those clusters' copies, so the fills in the air are
    /// dead and their next access must re-fetch from the writer
    /// (replicating-cache coherence, the multiVLIW snoop). The fill
    /// watermark stays put: still a lower bound, and the next retire past
    /// it recomputes it.
    pub fn invalidate_other(&mut self, writer: usize, key: u64) {
        for cluster in 0..self.inflight.len() {
            if cluster == writer {
                continue;
            }
            self.inflight[cluster].retain(|e| e.key != key);
            self.filled[cluster].retain(|e| e.key != key);
        }
    }

    /// Clears the attraction flag of every other cluster's in-flight entry
    /// for `key`: a store made the data stale, so the fill must not
    /// allocate an Attraction-Buffer copy (the writer's own copy is
    /// updated through the write).
    pub fn clear_attract(&mut self, writer: usize, key: u64) {
        for cluster in 0..self.inflight.len() {
            if cluster == writer {
                continue;
            }
            for e in self.inflight[cluster]
                .iter_mut()
                .chain(self.filled[cluster].iter_mut())
            {
                if e.key == key {
                    e.attract = false;
                }
            }
        }
    }

    /// Strips the attraction flag from every entry (loop-boundary flush):
    /// a finished loop's in-flight fills must not allocate Attraction-
    /// Buffer entries for the next loop, but the transactions themselves
    /// are still in the air — dropping them would let the tags they
    /// installed serve data that never arrived.
    pub fn strip_attract(&mut self) {
        for list in self.inflight.iter_mut().chain(self.filled.iter_mut()) {
            for e in list {
                e.attract = false;
            }
        }
    }

    /// Drops every entry (full reset; loop boundaries use
    /// [`MshrFile::strip_attract`] instead, so in-flight timing survives).
    pub fn clear(&mut self) {
        for list in self.inflight.iter_mut().chain(self.filled.iter_mut()) {
            list.clear();
        }
        self.next_fill = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: u64, fill_at: u64) -> MshrEntry {
        MshrEntry {
            key,
            fill_at,
            class: AccessClass::RemoteMiss,
            waiters: 0,
            attract: true,
        }
    }

    #[test]
    fn retire_delivers_completed_entries_once() {
        let mut f = MshrFile::new(2, 4);
        f.allocate(0, 0, entry(7, 10));
        f.allocate(1, 0, entry(8, 20));
        let mut seen = Vec::new();
        f.retire_up_to(5, &mut |c, e| seen.push((c, e.key)));
        assert!(seen.is_empty(), "nothing filled yet");
        f.retire_up_to(10, &mut |c, e| seen.push((c, e.key)));
        assert_eq!(seen, [(0, 7)]);
        f.retire_up_to(100, &mut |c, e| seen.push((c, e.key)));
        assert_eq!(seen, [(0, 7), (1, 8)]);
        f.retire_up_to(200, &mut |_, _| panic!("nothing left"));
    }

    #[test]
    fn lookup_finds_only_inflight_keys_per_cluster() {
        let mut f = MshrFile::new(2, 4);
        f.allocate(0, 0, entry(7, 10));
        assert!(f.lookup(0, 7).is_some());
        assert!(f.lookup(1, 7).is_none(), "files are per cluster");
        assert!(f.lookup(0, 8).is_none());
        f.retire_up_to(10, &mut |_, _| {});
        assert!(f.lookup(0, 7).is_none(), "retired entries are gone");
    }

    #[test]
    fn full_file_backpressures_to_earliest_fill() {
        let mut f = MshrFile::new(1, 2);
        f.allocate(0, 0, entry(1, 12));
        f.allocate(0, 0, entry(2, 18));
        assert_eq!(f.earliest_start(0, 5), 12, "waits for the first fill");
        // allocating at that start shelves the filled entry but keeps it
        // findable until time catches up
        f.allocate(0, 12, entry(3, 30));
        assert_eq!(f.occupancy(0), 2);
        assert!(f.lookup(0, 1).is_some(), "shelved entry still in the air");
        let mut keys = Vec::new();
        f.retire_up_to(12, &mut |_, e| keys.push(e.key));
        assert_eq!(keys, [1]);
    }

    #[test]
    fn earliest_start_is_now_when_a_register_is_free() {
        let mut f = MshrFile::new(1, 2);
        f.allocate(0, 0, entry(1, 12));
        assert_eq!(f.earliest_start(0, 5), 5);
    }

    #[test]
    #[should_panic(expected = "before the earliest fill")]
    fn allocate_rejects_starts_before_a_register_frees() {
        let mut f = MshrFile::new(1, 1);
        f.allocate(0, 0, entry(1, 12));
        f.allocate(0, 5, entry(2, 20));
    }

    #[test]
    fn stores_strip_attraction_from_other_clusters() {
        let mut f = MshrFile::new(2, 2);
        f.allocate(0, 0, entry(7, 10));
        f.allocate(1, 0, entry(7, 10));
        f.clear_attract(0, 7);
        assert!(f.lookup(0, 7).unwrap().attract, "writer keeps its copy");
        assert!(!f.lookup(1, 7).unwrap().attract, "reader's fill is stale");
    }

    #[test]
    fn waiters_ride_the_entry_to_retirement() {
        let mut f = MshrFile::new(1, 2);
        f.allocate(0, 0, entry(7, 10));
        f.lookup(0, 7).expect("in flight").waiters += 1;
        f.lookup(0, 7).expect("in flight").waiters += 1;
        let mut delivered = 0;
        f.retire_up_to(10, &mut |_, e| delivered = e.waiters);
        assert_eq!(delivered, 2, "the fill reports how many requests merged");
    }

    #[test]
    fn strip_attract_keeps_entries_in_flight() {
        let mut f = MshrFile::new(1, 2);
        f.allocate(0, 0, entry(7, 10));
        f.strip_attract();
        let e = f.lookup(0, 7).expect("entry still tracked");
        assert!(!e.attract, "fill will not allocate a buffer entry");
        assert_eq!(e.fill_at, 10, "timing untouched");
    }

    #[test]
    fn clear_empties_everything() {
        let mut f = MshrFile::new(2, 1);
        f.allocate(0, 0, entry(1, 10));
        f.allocate(0, 10, entry(2, 20)); // shelves key 1
        f.clear();
        assert_eq!(f.occupancy(0), 0);
        assert!(f.lookup(0, 1).is_none() && f.lookup(0, 2).is_none());
    }

    #[test]
    fn retire_below_the_watermark_is_a_no_op() {
        let mut f = MshrFile::new(2, 4);
        assert_eq!(f.next_fill, u64::MAX, "an empty file never retires");
        f.allocate(1, 0, entry(8, 20));
        f.allocate(0, 0, entry(7, 10));
        assert_eq!(f.next_fill, 10, "allocate lowers the watermark");
        f.retire_up_to(9, &mut |_, _| panic!("nothing fills before 10"));
        assert_eq!(f.next_fill, 10);
        let mut seen = Vec::new();
        f.retire_up_to(10, &mut |c, e| seen.push((c, e.key)));
        assert_eq!(seen, [(0, 7)]);
        assert_eq!(f.next_fill, 20, "a retiring scan recomputes it exactly");
        f.retire_up_to(20, &mut |c, e| seen.push((c, e.key)));
        assert_eq!(f.next_fill, u64::MAX);
    }

    #[test]
    fn shelved_entry_retires_at_its_fill_time() {
        let mut f = MshrFile::new(1, 1);
        f.allocate(0, 0, entry(1, 12));
        f.retire_up_to(5, &mut |_, _| panic!("nothing fills before 12"));
        // the register frees at 12: key 1 moves to the filled shelf
        f.allocate(0, 12, entry(2, 30));
        assert_eq!(f.next_fill, 12, "the shelved fill still bounds it");
        f.retire_up_to(11, &mut |_, _| panic!("key 1 fills at 12"));
        let mut keys = Vec::new();
        f.retire_up_to(12, &mut |_, e| keys.push(e.key));
        assert_eq!(keys, [1]);
        assert_eq!(f.next_fill, 30);
    }

    #[test]
    fn invalidation_leaves_the_watermark_a_lower_bound() {
        let mut f = MshrFile::new(2, 2);
        f.allocate(1, 0, entry(7, 10));
        f.allocate(0, 0, entry(8, 20));
        f.invalidate_other(0, 7);
        assert!(f.lookup(1, 7).is_none(), "cluster 1's fill is dead");
        assert_eq!(f.next_fill, 10, "below the true minimum 20: conservative");
        f.retire_up_to(15, &mut |_, _| panic!("nothing fills before 20"));
        assert_eq!(f.next_fill, 20, "the scan at 15 tightened it");
        let mut keys = Vec::new();
        f.retire_up_to(20, &mut |_, e| keys.push(e.key));
        assert_eq!(keys, [8]);
    }

    /// Drives two files through the same seeded stream of allocations,
    /// invalidations and retires; `reference` forgets its watermark before
    /// every retire, so it scans every list every time.
    #[test]
    fn watermark_retire_order_matches_a_full_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut fast = MshrFile::new(4, 2);
        let mut reference = MshrFile::new(4, 2);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0;
        for _ in 0..5_000 {
            now += next(4);
            fast.retire_up_to(now, &mut |c, e| got.push((now, c, e)));
            reference.next_fill = 0;
            reference.retire_up_to(now, &mut |c, e| want.push((now, c, e)));
            let cluster = next(4) as usize;
            let key = next(16);
            match next(8) {
                0 => {
                    fast.invalidate_other(cluster, key);
                    reference.invalidate_other(cluster, key);
                }
                1..=5 if fast.lookup(cluster, key).is_none() => {
                    let start = fast.earliest_start(cluster, now);
                    assert_eq!(start, reference.earliest_start(cluster, now));
                    let e = entry(key, start + 1 + next(40));
                    assert_eq!(
                        fast.allocate(cluster, start, e),
                        reference.allocate(cluster, start, e)
                    );
                }
                _ => {}
            }
        }
        fast.retire_up_to(u64::MAX, &mut |c, e| got.push((u64::MAX, c, e)));
        reference.retire_up_to(u64::MAX, &mut |c, e| want.push((u64::MAX, c, e)));
        assert!(
            want.len() > 1_000,
            "the stream retires {} fills",
            want.len()
        );
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "at least one MSHR")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(1, 0);
    }
}
