//! Compiler "attractable" hints for Attraction Buffers (§5.2).
//!
//! One epicdec loop schedules 19 memory instructions in a single cluster,
//! overflowing the Attraction Buffer and destroying its benefit. The paper
//! sketches the fix: rank memory instructions by a benefit estimate and mark
//! only the top `K` as *attractable* (allowed to allocate buffer entries),
//! with `K` chosen so the marked instructions cannot overflow the buffer.

use vliw_ir::{LoopKernel, OpId};
use vliw_machine::MachineConfig;

use crate::schedule::Schedule;

/// Per-op attraction hints: `true` = the access may allocate an Attraction
/// Buffer entry, `false` = it bypasses the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttractionHints {
    allowed: Vec<bool>,
}

impl AttractionHints {
    /// Hints that allow every access (the default hardware behaviour).
    pub fn allow_all(kernel: &LoopKernel) -> Self {
        AttractionHints {
            allowed: vec![true; kernel.ops.len()],
        }
    }

    /// Whether `op` may allocate into the Attraction Buffer.
    pub fn is_attractable(&self, op: OpId) -> bool {
        self.allowed.get(op.index()).copied().unwrap_or(true)
    }
}

/// Computes attraction hints for a scheduled loop: within each cluster, rank
/// the memory instructions by estimated buffer benefit — the expected
/// remote-hit traffic they generate, `(1 − local ratio) × hit rate`, scaled
/// by nothing else since all ops in a loop execute equally often — and mark
/// the top `K = buffer entries` as attractable.
///
/// Instructions with no profile are ranked last (benefit 0); clusters whose
/// memory-instruction count does not exceed the buffer capacity keep all
/// instructions attractable (the paper observes the hints change nothing on
/// benchmarks that never overflow).
pub fn attraction_hints(
    kernel: &LoopKernel,
    schedule: &Schedule,
    machine: &MachineConfig,
) -> AttractionHints {
    let mut allowed = vec![true; kernel.ops.len()];
    let Some(ab) = machine.attraction_buffers else {
        return AttractionHints { allowed };
    };
    let n = machine.clusters.n_clusters;
    for cluster in 0..n {
        let mut mem_ops: Vec<(OpId, f64)> = kernel
            .mem_ops()
            .filter(|o| schedule.op(o.id).cluster == cluster)
            .map(|o| {
                let benefit = o
                    .mem
                    .as_ref()
                    .and_then(|m| m.profile.as_ref())
                    .map(|p| (1.0 - p.local_ratio(cluster)) * p.hit_rate)
                    .unwrap_or(0.0);
                (o.id, benefit)
            })
            .collect();
        if mem_ops.len() <= ab.entries {
            continue;
        }
        mem_ops.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for &(op, _) in mem_ops.iter().skip(ab.entries) {
            allowed[op.index()] = false;
        }
    }
    AttractionHints { allowed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile};

    /// A loop with `n` loads all preferring cluster 0 (IPBC packs them).
    fn packed_loop(n: usize) -> LoopKernel {
        let mut b = KernelBuilder::new("packed");
        let a = b.array("a", 65536, ArrayKind::Heap);
        for i in 0..n {
            let (ld, _) = b.load(format!("ld{i}"), a, 16 * i as i64, 16, 4);
            b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.6, 4));
        }
        b.finish(256.0)
    }

    #[test]
    fn no_overflow_keeps_everything_attractable() {
        let m = MachineConfig::word_interleaved_4().with_attraction_buffers(16, 2);
        let k = packed_loop(5);
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .unwrap()
            .schedule;
        let h = attraction_hints(&k, &s, &m);
        assert!(k.ops.iter().all(|o| h.is_attractable(o.id)));
    }

    #[test]
    fn overflowing_cluster_is_capped_at_buffer_entries() {
        let m = MachineConfig::word_interleaved_4().with_attraction_buffers(8, 2);
        let k = packed_loop(19); // the epicdec situation
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .unwrap()
            .schedule;
        // all 19 loads land in cluster 0 under IPBC
        assert!(k.mem_ops().all(|o| s.op(o.id).cluster == 0));
        let h = attraction_hints(&k, &s, &m);
        let attractable = k.mem_ops().filter(|o| h.is_attractable(o.id)).count();
        assert_eq!(attractable, 8);
    }

    #[test]
    fn machines_without_buffers_allow_all() {
        let m = MachineConfig::word_interleaved_4();
        let k = packed_loop(19);
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .unwrap()
            .schedule;
        let h = attraction_hints(&k, &s, &m);
        assert!(k.ops.iter().all(|o| h.is_attractable(o.id)));
    }
}
