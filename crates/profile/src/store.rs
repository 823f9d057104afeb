//! The measurement store: per-operation measurements, per-loop bundles,
//! and the versioned deterministic text format they persist in.

use std::fmt::Write as _;
use std::path::Path;

use vliw_ir::{kernel_fingerprint, LatencyProfile, LoopKernel, MemProfile};

/// Everything measured about one memory operation: the four-class access
/// counts, the home-cluster histogram, combining / Attraction-Buffer
/// activity, and the observed-latency distribution. All counts saturate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Access counts per class, indexed by
    /// [`AccessClass::index`](vliw_machine::AccessClass::index)
    /// (`[LH, RH, LM, RM]`).
    pub classes: [u64; 4],
    /// Dynamic access counts per *home* cluster of the address.
    pub cluster_hist: Vec<u64>,
    /// Accesses that merged into an in-flight request.
    pub combined: u64,
    /// Accesses served by an Attraction Buffer.
    pub ab_hits: u64,
    /// Observed completion-latency histogram (`ready_at − issue`).
    pub latency: LatencyProfile,
}

impl OpProfile {
    /// An empty measurement over `n_clusters` clusters.
    pub fn new(n_clusters: usize) -> Self {
        OpProfile {
            cluster_hist: vec![0; n_clusters],
            ..Default::default()
        }
    }

    /// Total accesses measured (saturating).
    pub fn total(&self) -> u64 {
        self.classes.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Accesses that hit in the first-level cache.
    pub fn hits(&self) -> u64 {
        self.classes[0].saturating_add(self.classes[1])
    }

    /// Measured hit rate (`0` when nothing was measured).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Derives the [`MemProfile`] the scheduler consumes: measured hit
    /// rate, measured home-cluster histogram, and the measured latency
    /// distribution (read by the profile-fidelity divergence table).
    pub fn to_mem_profile(&self) -> MemProfile {
        MemProfile {
            hit_rate: self.hit_rate(),
            cluster_hist: self.cluster_hist.clone(),
            latency: Some(self.latency.clone()),
        }
    }
}

/// One loop's measurements: an [`OpProfile`] per memory operation,
/// identified by the kernel's name and a content fingerprint so stale
/// measurements can never be attached to a different kernel body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopProfile {
    /// Kernel name (must contain no whitespace — suite names never do).
    pub name: String,
    /// [`kernel_fingerprint`] of the kernel the measurements describe.
    pub fingerprint: u64,
    /// Operation count of that kernel (all operations, not just memory).
    pub n_ops: usize,
    /// `(op index, measurements)` for every memory operation, ascending.
    pub ops: Vec<(usize, OpProfile)>,
}

/// Attaches a loop's measurements to its kernel: every measured memory
/// operation's profile becomes the derived [`MemProfile`]
/// ([`OpProfile::to_mem_profile`]).
///
/// # Errors
///
/// Rejects (without touching the kernel) measurements whose name,
/// fingerprint or operation count do not match — a stale store entry must
/// fail loudly, not silently steer the scheduler.
pub fn attach_measurements(kernel: &mut LoopKernel, profile: &LoopProfile) -> Result<(), String> {
    if profile.name != kernel.name {
        return Err(format!(
            "profile is for loop `{}`, kernel is `{}`",
            profile.name, kernel.name
        ));
    }
    if profile.n_ops != kernel.ops.len() {
        return Err(format!(
            "profile describes {} ops, kernel has {}",
            profile.n_ops,
            kernel.ops.len()
        ));
    }
    let fp = kernel_fingerprint(kernel);
    if profile.fingerprint != fp {
        return Err(format!(
            "stale profile for `{}`: fingerprint {:016x} != kernel {:016x}",
            profile.name, profile.fingerprint, fp
        ));
    }
    // validate every index before the first mutation, so a malformed
    // entry can never leave the kernel half measured, half synthetic
    for (idx, _) in &profile.ops {
        if kernel.ops.get(*idx).is_none_or(|o| o.mem.is_none()) {
            return Err(format!("profile names op {idx}, which is not a memory op"));
        }
    }
    for (idx, op) in &profile.ops {
        let mem = kernel.ops[*idx].mem.as_mut().expect("validated above");
        mem.profile = Some(op.to_mem_profile());
    }
    Ok(())
}

/// The format version [`ProfileStore::to_text`] writes.
pub const STORE_VERSION: u32 = 1;

/// A collection of [`LoopProfile`]s with a deterministic, versioned,
/// integers-only text representation — byte-identical across runs and
/// platforms, so a committed store can be diffed against a fresh
/// collection in CI. The store is an output only: nothing parses it back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileStore {
    loops: Vec<LoopProfile>,
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces, on equal name + fingerprint) one loop's
    /// measurements, keeping the store sorted by `(name, fingerprint)`.
    pub fn insert(&mut self, profile: LoopProfile) {
        let key = (profile.name.as_str(), profile.fingerprint);
        match self
            .loops
            .binary_search_by(|l| (l.name.as_str(), l.fingerprint).cmp(&key))
        {
            Ok(i) => self.loops[i] = profile,
            Err(i) => self.loops.insert(i, profile),
        }
    }

    /// Number of stored loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Serializes the store to its versioned text format.
    ///
    /// # Panics
    ///
    /// Panics if a stored loop name contains whitespace (the format is
    /// whitespace-delimited; suite names never do).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vliw-profile-store {STORE_VERSION}");
        let _ = writeln!(out, "loops {}", self.loops.len());
        for l in &self.loops {
            assert!(
                !l.name.chars().any(char::is_whitespace),
                "loop name `{}` contains whitespace",
                l.name
            );
            let _ = writeln!(
                out,
                "loop {} fp {:016x} ops {} mem {}",
                l.name,
                l.fingerprint,
                l.n_ops,
                l.ops.len()
            );
            for (idx, p) in &l.ops {
                let _ = write!(
                    out,
                    "op {idx} classes {} {} {} {} combined {} ab {} clusters {}",
                    p.classes[0],
                    p.classes[1],
                    p.classes[2],
                    p.classes[3],
                    p.combined,
                    p.ab_hits,
                    p.cluster_hist.len()
                );
                for c in &p.cluster_hist {
                    let _ = write!(out, " {c}");
                }
                let _ = write!(out, " lat {}", p.latency.counts.len());
                for (lat, n) in &p.latency.counts {
                    let _ = write!(out, " {lat} {n}");
                }
                out.push('\n');
            }
            let _ = writeln!(out, "endloop");
        }
        out
    }

    /// Writes the store to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> OpProfile {
        OpProfile {
            classes: [90, 5, 4, 1],
            cluster_hist: vec![80, 10, 5, 5],
            combined: 3,
            ab_hits: 12,
            latency: LatencyProfile {
                counts: vec![(1, 90), (5, 5), (10, 4), (15, 1)],
            },
        }
    }

    fn sample_store() -> ProfileStore {
        let mut s = ProfileStore::new();
        s.insert(LoopProfile {
            name: "bench_l0".into(),
            fingerprint: 0xdead_beef_0123_4567,
            n_ops: 6,
            ops: vec![(0, sample_op()), (3, OpProfile::new(4))],
        });
        s.insert(LoopProfile {
            name: "a_first".into(),
            fingerprint: 1,
            n_ops: 1,
            ops: vec![(0, {
                let mut p = OpProfile::new(2);
                // single-access op with a saturated latency count
                p.classes[0] = 1;
                p.cluster_hist[1] = 1;
                p.latency = LatencyProfile {
                    counts: vec![(2, u64::MAX)],
                };
                p
            })],
        });
        s
    }

    #[test]
    fn insert_sorts_by_key_and_replaces_same_key() {
        assert_eq!(
            ProfileStore::new().to_text(),
            "vliw-profile-store 1\nloops 0\n"
        );
        let mut s = sample_store();
        // inserted second, written first: the store is sorted by key
        let text = s.to_text();
        assert!(
            text.starts_with(
                "vliw-profile-store 1\nloops 2\nloop a_first fp 0000000000000001 ops 1 mem 1\n"
            ),
            "{text}"
        );
        let n = s.len();
        s.insert(LoopProfile {
            name: "a_first".into(),
            fingerprint: 1,
            n_ops: 9,
            ops: Vec::new(),
        });
        assert_eq!(s.len(), n);
        assert!(s
            .to_text()
            .contains("loop a_first fp 0000000000000001 ops 9 mem 0\nendloop\n"));
    }

    #[test]
    fn derived_mem_profile_matches_measurements() {
        let p = sample_op();
        assert_eq!(p.total(), 100);
        assert!((p.hit_rate() - 0.95).abs() < 1e-12);
        let mp = p.to_mem_profile();
        assert!((mp.hit_rate - 0.95).abs() < 1e-12);
        assert_eq!(mp.preferred_cluster(), Some(0));
        assert_eq!(mp.latency.as_ref().unwrap().total(), 100);
        assert_eq!(OpProfile::new(4).hit_rate(), 0.0, "nothing measured");
    }
}
