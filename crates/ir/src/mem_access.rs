//! Memory-access metadata: arrays, static access descriptors and profiles.

use std::fmt;

/// Identifier of a logical array (data object) referenced by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(u32);

impl ArrayId {
    /// Creates an id from a dense index.
    pub fn new(index: usize) -> Self {
        ArrayId(index as u32)
    }

    /// The dense index of this array.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Storage class of an array — determines how its base address behaves
/// across different program inputs (§4.3.4 of the paper).
///
/// * Globals are always mapped at the same address regardless of input, so
///   the paper applies no padding to them.
/// * Stack and heap objects land at input-dependent addresses; the paper
///   aligns stack frames and `malloc` results to an `N×I` boundary
///   ("variable alignment") so their `mod N×I` placement is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Statically allocated; base address is input-independent.
    Global,
    /// Stack-allocated (locals, incoming/outgoing parameters).
    Stack,
    /// Dynamically allocated via the `malloc` family.
    Heap,
}

impl fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArrayKind::Global => "global",
            ArrayKind::Stack => "stack",
            ArrayKind::Heap => "heap",
        };
        f.write_str(s)
    }
}

/// A logical array referenced by one or more memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Identifier (dense within the kernel).
    pub id: ArrayId,
    /// Human-readable name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Storage class.
    pub kind: ArrayKind,
}

/// A measured per-access latency distribution: how many dynamic accesses
/// of one memory operation completed in each observed latency, as counted
/// by a profiling run against the *timing* simulator (the delay-tracking
/// direction of the related work — richer than the four-class model,
/// because it folds in contention, combining and MSHR back-pressure).
///
/// Counts saturate instead of wrapping, entries are kept sorted by
/// latency, and the whole structure is plain integers so it serializes
/// and round-trips exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyProfile {
    /// `(observed latency, dynamic access count)`, sorted by latency.
    pub counts: Vec<(u32, u64)>,
}

impl LatencyProfile {
    /// Records one access observed at `latency` cycles (saturating).
    pub fn record(&mut self, latency: u32) {
        match self.counts.binary_search_by_key(&latency, |&(l, _)| l) {
            Ok(i) => self.counts[i].1 = self.counts[i].1.saturating_add(1),
            Err(i) => self.counts.insert(i, (latency, 1)),
        }
    }

    /// Total accesses recorded (saturating sum).
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |a, &(_, c)| a.saturating_add(c))
    }

    /// Whether no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The expectation of the distribution, or `None` when empty.
    pub fn expected(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let sum: f64 = self.counts.iter().map(|&(l, c)| l as f64 * c as f64).sum();
        Some(sum / total as f64)
    }
}

/// Profile information for a single memory operation, gathered on the
/// *profile* input data set (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct MemProfile {
    /// Fraction of dynamic accesses that hit in the cache, in `[0, 1]`.
    pub hit_rate: f64,
    /// Dynamic access counts per cluster (the "preferred cluster"
    /// histogram). Its length is the number of clusters profiled for.
    pub cluster_hist: Vec<u64>,
    /// Measured latency distribution, when the profile came from a timed
    /// (measured) profiling run; `None` for synthetic / functional
    /// profiles. Read by the profile-fidelity divergence report.
    pub latency: Option<LatencyProfile>,
}

impl MemProfile {
    /// A profile that sends every access to `cluster` with the given hit
    /// rate — convenient for tests and the paper's worked example, where the
    /// preferred cluster and the local-access ratio are given directly.
    pub fn concentrated(hit_rate: f64, cluster: usize, n_clusters: usize) -> Self {
        let mut cluster_hist = vec![0; n_clusters];
        cluster_hist[cluster] = 100;
        MemProfile {
            hit_rate,
            cluster_hist,
            latency: None,
        }
    }

    /// A profile with an explicit local-access ratio: a fraction `local` of
    /// accesses go to `cluster`, the rest are spread evenly over the others.
    pub fn with_local_ratio(hit_rate: f64, cluster: usize, local: f64, n_clusters: usize) -> Self {
        assert!((0.0..=1.0).contains(&local), "local ratio must be in [0,1]");
        let total = 1_000_000.0;
        let mut cluster_hist = vec![0u64; n_clusters];
        for (c, slot) in cluster_hist.iter_mut().enumerate() {
            if c == cluster {
                // +1 guarantees the designated cluster wins histogram ties
                // (e.g. a 0.5 local ratio over two clusters, as in §4.3.3)
                *slot = (total * local) as u64 + 1;
            } else if n_clusters > 1 {
                *slot = (total * (1.0 - local) / (n_clusters as f64 - 1.0)) as u64;
            }
        }
        MemProfile {
            hit_rate,
            cluster_hist,
            latency: None,
        }
    }

    /// Total profiled accesses.
    pub fn total(&self) -> u64 {
        self.cluster_hist.iter().sum()
    }

    /// The preferred cluster: the one receiving the most accesses.
    /// Ties resolve to the lowest-numbered cluster. Returns `None` if the
    /// histogram is empty or all-zero.
    pub fn preferred_cluster(&self) -> Option<usize> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        self.cluster_hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }

    /// Fraction of accesses that would be local if the operation were
    /// scheduled in `cluster`.
    pub fn local_ratio(&self, cluster: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.cluster_hist.get(cluster).copied().unwrap_or(0) as f64 / total as f64
    }

    /// The paper's "distribution of the preferred cluster information":
    /// ranges from `1.0` (all accesses in one cluster) down to
    /// `1/n_clusters` (evenly spread). Zero-access profiles report 0.
    pub fn concentration(&self) -> f64 {
        match self.preferred_cluster() {
            Some(c) => self.local_ratio(c),
            None => 0.0,
        }
    }
}

/// Static (compiler-visible) description of one memory operation's access
/// pattern, plus its profile once the profiling pass has run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemAccessInfo {
    /// The array accessed.
    pub array: ArrayId,
    /// Byte offset of the iteration-0 access within the array.
    pub offset: i64,
    /// Byte stride per loop iteration, if the compiler can determine it.
    /// `None` for indirect accesses (`a[b[i]]`) and other unanalyzable
    /// address computations.
    pub stride: Option<i64>,
    /// Size of the accessed element in bytes (1, 2, 4 or 8).
    pub granularity: u8,
    /// Whether the address is computed from a previously loaded value.
    pub indirect: bool,
    /// Profile data (hit rate, preferred-cluster histogram); `None` until
    /// the profiling pass runs.
    pub profile: Option<MemProfile>,
}

impl MemAccessInfo {
    /// Creates a strided access descriptor.
    pub fn strided(array: ArrayId, offset: i64, stride: i64, granularity: u8) -> Self {
        MemAccessInfo {
            array,
            offset,
            stride: Some(stride),
            granularity,
            indirect: false,
            profile: None,
        }
    }

    /// Creates an indirect (unknown-stride) access descriptor.
    pub fn indirect(array: ArrayId, granularity: u8) -> Self {
        MemAccessInfo {
            array,
            offset: 0,
            stride: None,
            granularity,
            indirect: true,
            profile: None,
        }
    }

    /// The profiled hit rate, or a conservative default of 1.0 (the paper
    /// only considers instructions with hit rate > 0 for unrolling, and a
    /// missing profile should not disable the analysis in tests).
    pub fn hit_rate(&self) -> f64 {
        self.profile.as_ref().map_or(1.0, |p| p.hit_rate)
    }

    /// The profiled preferred cluster, if any.
    pub fn preferred_cluster(&self) -> Option<usize> {
        self.profile.as_ref().and_then(|p| p.preferred_cluster())
    }
}

impl fmt::Display for MemAccessInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stride {
            Some(s) => write!(
                f,
                "{}+{}:{}B stride {}",
                self.array, self.offset, self.granularity, s
            ),
            None => write!(f, "{}[indirect]:{}B", self.array, self.granularity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentrated_profile() {
        let p = MemProfile::concentrated(0.9, 2, 4);
        assert_eq!(p.preferred_cluster(), Some(2));
        assert_eq!(p.local_ratio(2), 1.0);
        assert_eq!(p.local_ratio(0), 0.0);
        assert_eq!(p.concentration(), 1.0);
    }

    #[test]
    fn local_ratio_profile() {
        let p = MemProfile::with_local_ratio(0.6, 1, 0.5, 2);
        assert_eq!(p.preferred_cluster(), Some(1));
        assert!((p.local_ratio(1) - 0.5).abs() < 1e-5);
        assert!((p.local_ratio(0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn even_spread_concentration() {
        let p = MemProfile {
            hit_rate: 1.0,
            cluster_hist: vec![25, 25, 25, 25],
            latency: None,
        };
        assert!((p.concentration() - 0.25).abs() < 1e-9);
        // tie resolves to the lowest cluster
        assert_eq!(p.preferred_cluster(), Some(0));
    }

    #[test]
    fn empty_profile() {
        let p = MemProfile {
            hit_rate: 0.0,
            cluster_hist: vec![0, 0],
            latency: None,
        };
        assert_eq!(p.preferred_cluster(), None);
        assert_eq!(p.concentration(), 0.0);
    }

    #[test]
    fn latency_profile_statistics() {
        let mut lp = LatencyProfile::default();
        assert!(lp.is_empty());
        assert_eq!(lp.expected(), None);
        for _ in 0..3 {
            lp.record(1);
        }
        lp.record(15);
        // entries stay sorted regardless of record order
        lp.record(5);
        assert_eq!(lp.counts, vec![(1, 3), (5, 1), (15, 1)]);
        assert_eq!(lp.total(), 5);
        assert!((lp.expected().unwrap() - 23.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn latency_profile_saturates() {
        let mut lp = LatencyProfile {
            counts: vec![(4, u64::MAX)],
        };
        lp.record(4);
        assert_eq!(lp.counts, vec![(4, u64::MAX)], "count saturates");
        assert_eq!(lp.total(), u64::MAX);
        // a second entry at another latency is kept in order, and the
        // total still saturates
        lp.record(9);
        assert_eq!(lp.counts, vec![(4, u64::MAX), (9, 1)]);
        assert_eq!(lp.total(), u64::MAX);
    }

    #[test]
    fn access_descriptors() {
        let a = ArrayId::new(0);
        let m = MemAccessInfo::strided(a, 8, 16, 2);
        assert_eq!(m.stride, Some(16));
        assert!(!m.indirect);
        assert_eq!(m.hit_rate(), 1.0);
        let i = MemAccessInfo::indirect(a, 4);
        assert!(i.indirect);
        assert_eq!(i.stride, None);
        assert_eq!(i.to_string(), "@0[indirect]:4B");
    }
}
