//! The measurement store: per-operation measurements, per-loop bundles,
//! and the versioned deterministic text format they persist in.

use std::fmt::Write as _;
use std::path::Path;

use vliw_ir::{LatencyProfile, LoopKernel, MemProfile};
use vliw_machine::AccessClass;

/// Everything measured about one memory operation: the four-class access
/// counts, the home-cluster histogram, combining / Attraction-Buffer
/// activity, and the observed-latency distribution. All counts saturate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Access counts per class, indexed `[LH, RH, LM, RM]`.
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

/// Dense index of a class in [`OpProfile::classes`].
pub(crate) fn class_index(c: AccessClass) -> usize {
    match c {
        AccessClass::LocalHit => 0,
        AccessClass::RemoteHit => 1,
        AccessClass::LocalMiss => 2,
        AccessClass::RemoteMiss => 3,
    }
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

/// A content fingerprint of a kernel *body*: re-exported from
/// [`vliw_ir::kernel_fingerprint`], which walks the kernel's structural
/// fields (skipping attached profiles) and hashes them with a hand-rolled
/// FNV-1a — stable across runs, platforms *and toolchains*, with no
/// dependence on `Debug` formatting or std's `DefaultHasher`.
pub use vliw_ir::kernel_fingerprint;

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
/// collection in CI.
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

    /// Looks one loop up by name + fingerprint.
    pub fn get(&self, name: &str, fingerprint: u64) -> Option<&LoopProfile> {
        self.loops
            .iter()
            .find(|l| l.name == name && l.fingerprint == fingerprint)
    }

    /// The stored loops, in `(name, fingerprint)` order.
    pub fn loops(&self) -> &[LoopProfile] {
        &self.loops
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

    /// Parses a store from its text format.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty store")?;
        let mut it = header.split_whitespace();
        if it.next() != Some("vliw-profile-store") {
            return Err(format!("bad header: `{header}`"));
        }
        let version: u32 = it
            .next()
            .ok_or("missing version")?
            .parse()
            .map_err(|e| format!("bad version: {e}"))?;
        if version != STORE_VERSION {
            return Err(format!(
                "unsupported store version {version} (expected {STORE_VERSION})"
            ));
        }
        let count_line = lines.next().ok_or("missing loop count")?;
        let n_loops: usize = count_line
            .strip_prefix("loops ")
            .ok_or_else(|| format!("expected `loops <n>`, got `{count_line}`"))?
            .parse()
            .map_err(|e| format!("bad loop count: {e}"))?;

        let mut store = ProfileStore::new();
        for _ in 0..n_loops {
            let head = lines.next().ok_or("truncated store: missing loop")?;
            let mut it = head.split_whitespace();
            let parse_kw =
                |it: &mut dyn Iterator<Item = &str>, kw: &str| -> Result<String, String> {
                    if it.next() != Some(kw) {
                        return Err(format!("expected `{kw}` in `{head}`"));
                    }
                    it.next()
                        .map(String::from)
                        .ok_or_else(|| format!("missing value after `{kw}` in `{head}`"))
                };
            let name = parse_kw(&mut it, "loop")?;
            let fingerprint = u64::from_str_radix(&parse_kw(&mut it, "fp")?, 16)
                .map_err(|e| format!("bad fingerprint: {e}"))?;
            let n_ops: usize = parse_kw(&mut it, "ops")?
                .parse()
                .map_err(|e| format!("bad op count: {e}"))?;
            let n_mem: usize = parse_kw(&mut it, "mem")?
                .parse()
                .map_err(|e| format!("bad mem count: {e}"))?;
            // counts come from the (possibly corrupt) file: cap the
            // pre-allocation so a bad count returns Err instead of aborting
            let mut ops: Vec<(usize, OpProfile)> = Vec::with_capacity(n_mem.min(1024));
            for _ in 0..n_mem {
                let line = lines.next().ok_or("truncated store: missing op")?;
                let (idx, op) = parse_op_line(line)?;
                // ascending unique indices below the declared op count:
                // reject corruption at the line that carries it instead
                // of surfacing a confusing error at attach time
                if idx >= n_ops {
                    return Err(format!("op index {idx} >= ops {n_ops} in `{line}`"));
                }
                if ops.last().is_some_and(|(prev, _)| *prev >= idx) {
                    return Err(format!("op indices out of order in `{line}`"));
                }
                ops.push((idx, op));
            }
            let end = lines.next().ok_or("truncated store: missing endloop")?;
            if end != "endloop" {
                return Err(format!("expected `endloop`, got `{end}`"));
            }
            store.insert(LoopProfile {
                name,
                fingerprint,
                n_ops,
                ops,
            });
        }
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(format!("trailing content after store: `{extra}`"));
        }
        Ok(store)
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

    /// Loads a store from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed content.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_text(&text)
    }
}

fn parse_op_line(line: &str) -> Result<(usize, OpProfile), String> {
    struct Tokens<'a> {
        it: std::str::SplitWhitespace<'a>,
        line: &'a str,
    }
    impl Tokens<'_> {
        fn keyword(&mut self, kw: &str) -> Result<(), String> {
            match self.it.next() {
                Some(t) if t == kw => Ok(()),
                other => Err(format!(
                    "expected `{kw}`, got {other:?} in op line `{}`",
                    self.line
                )),
            }
        }
        fn u64(&mut self, what: &str) -> Result<u64, String> {
            self.it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad {what} in op line `{}`", self.line))
        }
    }
    let mut t = Tokens {
        it: line.split_whitespace(),
        line,
    };
    t.keyword("op")?;
    let idx = t.u64("index")? as usize;
    t.keyword("classes")?;
    let mut classes = [0u64; 4];
    for (i, c) in classes.iter_mut().enumerate() {
        *c = t.u64(&format!("class count {i}"))?;
    }
    t.keyword("combined")?;
    let combined = t.u64("combined count")?;
    t.keyword("ab")?;
    let ab_hits = t.u64("ab count")?;
    t.keyword("clusters")?;
    let n_clusters = t.u64("cluster count")? as usize;
    let mut cluster_hist = Vec::with_capacity(n_clusters.min(1024));
    for i in 0..n_clusters {
        cluster_hist.push(t.u64(&format!("cluster {i}"))?);
    }
    t.keyword("lat")?;
    let n_lat = t.u64("latency entry count")? as usize;
    let mut counts = Vec::with_capacity(n_lat.min(1024));
    let mut prev: Option<u32> = None;
    for i in 0..n_lat {
        let lat = u32::try_from(t.u64(&format!("latency {i}"))?)
            .map_err(|_| format!("latency out of range in op line `{line}`"))?;
        if prev.is_some_and(|p| p >= lat) {
            return Err(format!("latencies out of order in op line `{line}`"));
        }
        prev = Some(lat);
        let n = t.u64(&format!("latency count {i}"))?;
        counts.push((lat, n));
    }
    if let Some(extra) = t.it.next() {
        return Err(format!("trailing token `{extra}` in op line `{line}`"));
    }
    Ok((
        idx,
        OpProfile {
            classes,
            cluster_hist,
            combined,
            ab_hits,
            latency: LatencyProfile { counts },
        },
    ))
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
    fn text_round_trip_is_exact() {
        let s = sample_store();
        let text = s.to_text();
        let back = ProfileStore::from_text(&text).unwrap();
        assert_eq!(s, back);
        // and the re-serialization is byte-identical (determinism)
        assert_eq!(text, back.to_text());
        // insertion order does not matter: the store is sorted
        assert_eq!(s.loops()[0].name, "a_first");
    }

    #[test]
    fn empty_and_edge_ops_round_trip() {
        // an op with zero accesses (empty latency list) and an empty store
        let empty = ProfileStore::new();
        assert_eq!(ProfileStore::from_text(&empty.to_text()).unwrap(), empty);
        let mut s = ProfileStore::new();
        s.insert(LoopProfile {
            name: "never_ran".into(),
            fingerprint: 0,
            n_ops: 2,
            ops: vec![(1, OpProfile::new(4))],
        });
        let back = ProfileStore::from_text(&s.to_text()).unwrap();
        assert_eq!(s, back);
        let p = &back.loops()[0].ops[0].1;
        assert!(p.latency.is_empty());
        assert_eq!(p.hit_rate(), 0.0);
    }

    #[test]
    fn malformed_stores_are_rejected() {
        for (text, why) in [
            ("", "empty"),
            ("vliw-profile-store 2\nloops 0\n", "future version"),
            ("vliw-profile-store 1\n", "missing loop count"),
            (
                "vliw-profile-store 1\nloops 1\nloop x fp 0 ops 1 mem 0\n",
                "missing endloop",
            ),
            (
                "vliw-profile-store 1\nloops 1\nloop x fp 0 ops 1 mem 1\nop 0 classes 1 0 0 0 combined 0 ab 0 clusters 0 lat 2 5 1 3 1\nendloop\n",
                "latencies out of order",
            ),
            (
                "vliw-profile-store 1\nloops 0\ntrailing\n",
                "trailing content",
            ),
        ] {
            assert!(ProfileStore::from_text(text).is_err(), "{why}");
        }
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut s = sample_store();
        let n = s.len();
        let mut updated = s.loops()[0].clone();
        updated.n_ops = 9;
        s.insert(updated);
        assert_eq!(s.len(), n);
        assert_eq!(s.loops()[0].n_ops, 9);
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
    }
}
