//! Access statistics (the raw material of Figures 4 and 6).

use std::fmt;

use vliw_machine::AccessClass;

/// Counters for the in-flight request tracking (MSHR) subsystem.
///
/// All fields are additive across [`MemStats::merge`] except
/// `peak_occupancy`, which merges by maximum and survives
/// [`MemStats::diff`] unchanged (a peak cannot be attributed to one
/// measurement interval).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Transactions that claimed a miss-status register (fills issued).
    pub fills: u64,
    /// Requests merged into an already-in-flight transaction (waiters).
    pub merged_waiters: u64,
    /// Cycles requests waited because every register of their cluster was
    /// busy (capacity back-pressure).
    pub full_stall_cycles: u64,
    /// Highest per-cluster register occupancy observed.
    pub peak_occupancy: u64,
}

impl MshrStats {
    fn merge(&mut self, other: &MshrStats) {
        self.fills += other.fills;
        self.merged_waiters += other.merged_waiters;
        self.full_stall_cycles += other.full_stall_cycles;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
    }

    fn diff(&self, before: &MshrStats) -> MshrStats {
        MshrStats {
            fills: self.fills.saturating_sub(before.fills),
            merged_waiters: self.merged_waiters.saturating_sub(before.merged_waiters),
            full_stall_cycles: self
                .full_stall_cycles
                .saturating_sub(before.full_stall_cycles),
            peak_occupancy: self.peak_occupancy,
        }
    }

    /// Records an allocation that left `occupancy` registers busy.
    pub fn on_fill_issued(&mut self, occupancy: usize) {
        self.fills += 1;
        self.peak_occupancy = self.peak_occupancy.max(occupancy as u64);
    }

    /// Records one request attaching to an in-flight transaction.
    pub fn on_merge(&mut self) {
        self.merged_waiters += 1;
    }

    /// Records a request delayed `cycles` waiting for a free register.
    pub fn on_full_stall(&mut self, cycles: u64) {
        self.full_stall_cycles += cycles;
    }
}

/// Counters for every access class plus the combined/AB special cases.
///
/// The struct is `Copy` (fixed-size counters, no heap), so opening an
/// accounting window over a live cache is a register-level snapshot —
/// `let window = *cache.stats();` … `cache.stats().diff(&window)` — not a
/// structure clone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    counts: [u64; 4],
    combined: u64,
    ab_hits: u64,
    mshr: MshrStats,
}

impl MemStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access. A `combined` access is counted **only** in the
    /// combined bucket (the paper treats combined accesses as a separate
    /// group that "can derive in hits or misses").
    pub fn record(&mut self, class: AccessClass, combined: bool, ab_hit: bool) {
        if combined {
            self.combined += 1;
        } else {
            self.counts[class.index()] += 1;
        }
        if ab_hit {
            self.ab_hits += 1;
        }
    }

    /// Accesses of `class` (excluding combined ones).
    pub fn count(&self, class: AccessClass) -> u64 {
        self.counts[class.index()]
    }

    /// Combined accesses.
    pub fn combined(&self) -> u64 {
        self.combined
    }

    /// Accesses served by Attraction Buffers (subset of local hits).
    pub fn ab_hits(&self) -> u64 {
        self.ab_hits
    }

    /// In-flight request tracking (MSHR) counters.
    pub fn mshr(&self) -> &MshrStats {
        &self.mshr
    }

    /// Mutable access to the MSHR counters (cache models only).
    pub(crate) fn mshr_mut(&mut self) -> &mut MshrStats {
        &mut self.mshr
    }

    /// Total accesses including combined ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.combined
    }

    /// Fraction of all accesses classified as `class`.
    pub fn ratio(&self, class: AccessClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(class) as f64 / t as f64
        }
    }

    /// Hit rate over classified (non-combined) accesses.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.count(AccessClass::LocalHit) + self.count(AccessClass::RemoteHit);
        let classified: u64 = self.counts.iter().sum();
        if classified == 0 {
            0.0
        } else {
            hits as f64 / classified as f64
        }
    }

    /// Counter-wise difference `self − before` (saturating) — used to
    /// isolate the accesses of one simulated loop (an accounting window
    /// opened by copying the stats) from a shared cache's running totals.
    /// `peak_occupancy` survives unchanged — a peak cannot be attributed
    /// to one window.
    pub fn diff(&self, before: &MemStats) -> MemStats {
        let mut out = MemStats::new();
        for i in 0..4 {
            out.counts[i] = self.counts[i].saturating_sub(before.counts[i]);
        }
        out.combined = self.combined.saturating_sub(before.combined);
        out.ab_hits = self.ab_hits.saturating_sub(before.ab_hits);
        out.mshr = self.mshr.diff(&before.mshr);
        out
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &MemStats) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
        }
        self.combined += other.combined;
        self.ab_hits += other.ab_hits;
        self.mshr.merge(&other.mshr);
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = MemStats::default();
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LH {} RH {} LM {} RM {} combined {} (AB hits {}, MSHR fills {} merges {} peak {})",
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3],
            self.combined,
            self.ab_hits,
            self.mshr.fills,
            self.mshr.merged_waiters,
            self.mshr.peak_occupancy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_ratios() {
        let mut s = MemStats::new();
        for _ in 0..6 {
            s.record(AccessClass::LocalHit, false, false);
        }
        for _ in 0..2 {
            s.record(AccessClass::RemoteHit, false, false);
        }
        s.record(AccessClass::LocalMiss, false, false);
        s.record(AccessClass::RemoteMiss, true, false); // combined
        assert_eq!(s.total(), 10);
        assert_eq!(
            s.count(AccessClass::RemoteMiss),
            0,
            "combined not double-counted"
        );
        assert!((s.ratio(AccessClass::LocalHit) - 0.6).abs() < 1e-12);
        assert_eq!(s.combined(), 1);
        assert!((s.hit_rate() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_classes_plus_combined() {
        let mut s = MemStats::new();
        let classes = [
            AccessClass::LocalHit,
            AccessClass::RemoteHit,
            AccessClass::LocalMiss,
            AccessClass::RemoteMiss,
        ];
        for (i, c) in classes.iter().enumerate() {
            for _ in 0..=i {
                s.record(*c, false, false);
            }
        }
        s.record(AccessClass::LocalHit, true, false);
        let sum: u64 = classes.iter().map(|&c| s.count(c)).sum::<u64>() + s.combined();
        assert_eq!(sum, s.total());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = MemStats::new();
        a.record(AccessClass::LocalHit, false, true);
        let mut b = MemStats::new();
        b.record(AccessClass::RemoteHit, false, false);
        b.record(AccessClass::LocalHit, true, false);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.ab_hits(), 1);
        assert_eq!(a.combined(), 1);
    }

    #[test]
    fn mshr_counters_merge_and_diff() {
        let mut a = MemStats::new();
        a.mshr_mut().on_fill_issued(3);
        a.mshr_mut().on_merge();
        a.mshr_mut().on_full_stall(5);
        let mut b = MemStats::new();
        b.mshr_mut().on_fill_issued(2);
        b.mshr_mut().on_fill_issued(1);
        a.merge(&b);
        assert_eq!(a.mshr().fills, 3);
        assert_eq!(a.mshr().merged_waiters, 1);
        assert_eq!(a.mshr().full_stall_cycles, 5);
        assert_eq!(a.mshr().peak_occupancy, 3, "peak merges by max");
        let d = a.diff(&b);
        assert_eq!(d.mshr().fills, 1);
        assert_eq!(d.mshr().peak_occupancy, 3, "peak survives diff");
    }

    #[test]
    fn copy_window_isolates_one_accounting_interval() {
        let mut s = MemStats::new();
        s.record(AccessClass::LocalHit, false, true);
        s.mshr_mut().on_fill_issued(2);
        let window = s; // Copy: the window marker is a register snapshot
        s.record(AccessClass::RemoteMiss, false, false);
        s.record(AccessClass::LocalHit, true, false);
        s.mshr_mut().on_fill_issued(3);
        s.mshr_mut().on_full_stall(4);
        let delta = s.diff(&window);
        assert_eq!(delta.count(AccessClass::RemoteMiss), 1);
        assert_eq!(delta.count(AccessClass::LocalHit), 0);
        assert_eq!(delta.combined(), 1);
        assert_eq!(delta.ab_hits(), 0);
        assert_eq!(delta.mshr().fills, 1);
        assert_eq!(delta.mshr().full_stall_cycles, 4);
        assert_eq!(delta.mshr().peak_occupancy, 3, "peak survives the window");
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = MemStats::new();
        assert_eq!(s.ratio(AccessClass::LocalHit), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
