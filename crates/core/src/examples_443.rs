//! Reconstruction of the paper's worked example (§4.3.3, Figure 3).
//!
//! The example is a 2-cluster word-interleaved machine with latencies
//! 15 / 10 / 5 / 1 and a loop with two recurrences:
//!
//! * **REC1** — `n1 (load) → n2 (load) → n3 (add) → n5 (sub) → n4 (store)`,
//!   closed by a memory dependence from the store back to `n1` at
//!   distance 1. At local-hit latencies its II is 5; with all loads at
//!   the remote-miss latency it is 33.
//! * **REC2** — `n6 (load) → n7 (div, 6 cycles) → n8 (add)`, closed by a
//!   register flow at distance 1. Local-hit II 8, remote-miss II 22.
//!
//! `n1, n2, n4` form a memory-dependent chain (with preferences
//! {1, 1, 2} → average preferred cluster 1); `n6` prefers cluster 2.
//! Cluster numbers here are 0-based: the paper's "cluster 1" is cluster 0.
//!
//! The golden tests in this module check every number the paper reports:
//! the MII (8), the initial recurrence IIs, the per-step benefit-table
//! entries, the final latencies (`n2 → 1`, `n1 → 4`, `n6 → 1`) and the
//! IBC/IPBC cluster placements.

use vliw_ir::{ArrayKind, DepKind, KernelBuilder, LoopKernel, MemProfile, OpId, Opcode};
use vliw_machine::MachineConfig;

/// Handles to the example's operations, using the paper's names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure3Ops {
    /// `n1`: load, hit rate 0.6, local ratio 0.5, preferred cluster 0.
    pub n1: OpId,
    /// `n2`: load, hit rate 0.9, local ratio 0.5, preferred cluster 0.
    pub n2: OpId,
    /// `n3`: add.
    pub n3: OpId,
    /// `n4`: store, preferred cluster 1.
    pub n4: OpId,
    /// `n5`: sub (feeds `n1`'s address in the next iteration).
    pub n5: OpId,
    /// `n6`: load, preferred cluster 1.
    pub n6: OpId,
    /// `n7`: divide (6 cycles).
    pub n7: OpId,
    /// `n8`: add.
    pub n8: OpId,
}

/// Builds the Figure 3 kernel.
pub fn figure3_kernel() -> (LoopKernel, Figure3Ops) {
    let mut b = KernelBuilder::new("figure3");
    let a = b.array("a", 4096, ArrayKind::Global);
    let c = b.array("c", 4096, ArrayKind::Global);

    // REC1 (creation order n1, n2, n3, n5, n4 so distance-0 flow goes
    // forward; `n5 -> n1` closes through distance 1)
    let (n1, _v1) = b.load("n1", a, 0, 8, 4);
    let (n2, v2) = b.load("n2", a, 1024, 8, 4);
    b.raw_edge(n1, n2, DepKind::RegFlow, 0); // n2's address uses n1's value
    let (n3, v3) = b.int_op("n3", Opcode::Add, &[v2.into()]);
    let (n5, v5) = b.int_op("n5", Opcode::Sub, &[v3.into()]);
    let (n4, _) = b.store("n4", a, 2048, 8, 4, v5);
    b.raw_edge(n5, n1, DepKind::RegFlow, 1); // n1's next-iteration address
    b.mem_dep(n2, n4, DepKind::MemAnti, 0);
    b.mem_dep(n4, n1, DepKind::MemFlow, 1); // closes REC1

    // REC2
    let (n6, v6) = b.load("n6", c, 0, 8, 4);
    let (n7, v7) = b.int_op("n7", Opcode::Div, &[v6.into()]);
    let (n8, _v8) = b.int_op("n8", Opcode::Add, &[v7.into()]);
    b.raw_edge(n8, n6, DepKind::RegFlow, 1); // closes REC2

    // profiles (2-cluster machine)
    b.set_profile(n1, MemProfile::with_local_ratio(0.6, 0, 0.5, 2));
    b.set_profile(n2, MemProfile::with_local_ratio(0.9, 0, 0.5, 2));
    b.set_profile(n4, MemProfile::concentrated(1.0, 1, 2));
    b.set_profile(n6, MemProfile::with_local_ratio(0.9, 1, 0.5, 2));

    let kernel = b.finish(200.0);
    (
        kernel,
        Figure3Ops {
            n1,
            n2,
            n3,
            n4,
            n5,
            n6,
            n7,
            n8,
        },
    )
}

/// The example's 2-cluster machine (latencies 15/10/5/1 are the defaults).
pub fn figure3_machine() -> MachineConfig {
    MachineConfig::word_interleaved(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::MemChains;
    use crate::circuits::{elementary_circuits, EnumLimits};
    use crate::engine::{schedule_kernel, ClusterPolicy, ScheduleOptions};
    use crate::latency::assign_latencies_with_pins;
    use crate::mii;
    use vliw_ir::Ddg;
    use vliw_machine::AccessClass;

    fn setup() -> (LoopKernel, Figure3Ops, MachineConfig) {
        let (k, ops) = figure3_kernel();
        (k, ops, figure3_machine())
    }

    #[test]
    fn recurrence_iis_match_paper() {
        let (k, ops, _m) = setup();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        // REC1 main circuit: n1 n2 n3 n5 n4
        let rec1 = cs
            .iter()
            .find(|c| c.nodes.len() == 5 && c.contains(ops.n4))
            .expect("REC1 exists");
        let rec2 = cs.iter().find(|c| c.contains(ops.n6)).expect("REC2 exists");
        // with local-hit (1-cycle) loads: REC1 = 5, REC2 = 8
        let lat_lh = |o: OpId| -> u32 {
            let op = k.op(o);
            match op.opcode {
                Opcode::Load => 1,
                Opcode::Div => 6,
                Opcode::Store => 1,
                _ => 1,
            }
        };
        let g2 = &g;
        assert_eq!(
            rec1.ii_bound(|e| mii::edge_latency(&g2.edges()[e], lat_lh)),
            5
        );
        assert_eq!(
            rec2.ii_bound(|e| mii::edge_latency(&g2.edges()[e], lat_lh)),
            8
        );
        // with remote-miss (15-cycle) loads: REC1 = 33, REC2 = 22
        let lat_rm = |o: OpId| -> u32 {
            let op = k.op(o);
            match op.opcode {
                Opcode::Load => 15,
                Opcode::Div => 6,
                Opcode::Store => 1,
                _ => 1,
            }
        };
        assert_eq!(
            rec1.ii_bound(|e| mii::edge_latency(&g2.edges()[e], lat_rm)),
            33
        );
        assert_eq!(
            rec2.ii_bound(|e| mii::edge_latency(&g2.edges()[e], lat_rm)),
            22
        );
    }

    #[test]
    fn loop_mii_is_8() {
        let (k, _ops, m) = setup();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let asg = assign_latencies_with_pins(&k, &g, &m, &cs, &[]);
        assert_eq!(asg.target_mii, 8);
    }

    #[test]
    fn final_latencies_match_paper() {
        let (k, ops, m) = setup();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let asg = assign_latencies_with_pins(&k, &g, &m, &cs, &[]);
        // "…achieved after assigning the local hit latency to instruction n2
        // and a latency of 4 cycles to instruction n1"
        assert_eq!(asg.latency_of(ops.n2), 1, "n2 ends at local hit");
        assert_eq!(asg.latency_of(ops.n1), 4, "n1 de-slacked to 4 cycles");
        // "…an II of 8 is achieved after changing the latency of n6 from
        // remote miss to local hit"
        assert_eq!(asg.latency_of(ops.n6), 1);
        // the resulting recurrence MII equals the target
        assert_eq!(mii::rec_mii(&g, |o| asg.latency_of(o)), 8);
    }

    #[test]
    fn step1_benefit_table_matches_paper() {
        let (k, ops, m) = setup();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let asg = assign_latencies_with_pins(&k, &g, &m, &cs, &[]);
        // first applied step must be on the 5-node REC1 circuit
        let step1 = &asg.steps[0];
        let find = |op: OpId, class: AccessClass| {
            step1
                .candidates
                .iter()
                .find(|c| c.op == op && c.to_class == class)
                .unwrap_or_else(|| panic!("candidate {op} -> {class} missing"))
        };
        // paper STEP 1 rows (n1 -> LH is the known inconsistency: the
        // reconstructed model gives ∆stall 5.8 where the paper prints 6.8;
        // every other entry matches — see EXPERIMENTS.md)
        let c = find(ops.n1, AccessClass::LocalMiss);
        assert_eq!(c.delta_ii, 5);
        assert!((c.delta_stall - 1.0).abs() < 1e-4);
        assert!((c.benefit - 5.0).abs() < 1e-3);
        let c = find(ops.n1, AccessClass::RemoteHit);
        assert_eq!(c.delta_ii, 10);
        assert!((c.delta_stall - 3.0).abs() < 1e-4);
        assert!((c.benefit - 3.333).abs() < 1e-2);
        let c = find(ops.n2, AccessClass::LocalMiss);
        assert_eq!(c.delta_ii, 5);
        assert!((c.delta_stall - 0.25).abs() < 1e-5);
        assert!((c.benefit - 20.0).abs() < 1e-3);
        let c = find(ops.n2, AccessClass::RemoteHit);
        assert_eq!(c.delta_ii, 10);
        assert!((c.delta_stall - 0.75).abs() < 1e-5);
        assert!((c.benefit - 13.333).abs() < 1e-2);
        let c = find(ops.n2, AccessClass::LocalHit);
        assert_eq!(c.delta_ii, 14);
        assert!((c.delta_stall - 2.95).abs() < 1e-4);
        assert!((c.benefit - 4.745).abs() < 1e-2);
        // the applied change is n2 -> local miss (B = 20), as in the paper
        let chosen = &step1.candidates[step1.chosen];
        assert_eq!(chosen.op, ops.n2);
        assert_eq!(chosen.to_class, AccessClass::LocalMiss);
    }

    #[test]
    fn step2_applies_n2_to_remote_hit() {
        let (k, ops, m) = setup();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let asg = assign_latencies_with_pins(&k, &g, &m, &cs, &[]);
        let step2 = &asg.steps[1];
        let chosen = &step2.candidates[step2.chosen];
        assert_eq!(chosen.op, ops.n2);
        assert_eq!(chosen.to_class, AccessClass::RemoteHit);
        // paper STEP 2: ∇II 5, ∆stall 0.5, B 10
        assert_eq!(chosen.delta_ii, 5);
        assert!((chosen.delta_stall - 0.5).abs() < 1e-5);
        assert!((chosen.benefit - 10.0).abs() < 1e-3);
        // and its sibling row: n2 -> LH with ∇II 9, ∆stall 2.7, B 3.33
        let lh = step2
            .candidates
            .iter()
            .find(|c| c.op == ops.n2 && c.to_class == AccessClass::LocalHit)
            .unwrap();
        assert_eq!(lh.delta_ii, 9);
        assert!((lh.delta_stall - 2.7).abs() < 1e-4);
        assert!((lh.benefit - 3.333).abs() < 1e-2);
    }

    #[test]
    fn chain_membership_and_preference() {
        let (k, ops, _m) = setup();
        let chains = MemChains::build(&k);
        let c1 = chains.chain_id(ops.n1).unwrap();
        assert_eq!(chains.chain_id(ops.n2), Some(c1));
        assert_eq!(chains.chain_id(ops.n4), Some(c1));
        assert_ne!(chains.chain_id(ops.n6), Some(c1));
        // preferences {0, 0, 1} -> the chain prefers cluster 0
        assert_eq!(chains.preferred_cluster(c1, &k, 2), Some(0));
    }

    #[test]
    fn ipbc_places_chain_in_preferred_clusters() {
        let (k, ops, m) = setup();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        // the n1-n2-n4 chain sits in its average preferred cluster (0)
        assert_eq!(s.op(ops.n1).cluster, 0);
        assert_eq!(s.op(ops.n2).cluster, 0);
        assert_eq!(s.op(ops.n4).cluster, 0);
        // n6 goes to its preferred cluster (1)
        assert_eq!(s.op(ops.n6).cluster, 1);
        assert_eq!(s.ii, 8, "schedule achieves the MII");
    }

    #[test]
    fn ibc_keeps_chain_together() {
        let (k, ops, m) = setup();
        let s = schedule_kernel(&k, &m, ScheduleOptions::new(ClusterPolicy::BuildChains))
            .expect("schedulable");
        assert!(s.verify(&k, &m).is_empty());
        let c = s.op(ops.n1).cluster;
        assert_eq!(s.op(ops.n2).cluster, c);
        assert_eq!(s.op(ops.n4).cluster, c);
        // IBC ignores preferences, so REC1 and REC2 land in different
        // clusters purely for balance
        assert_ne!(s.op(ops.n6).cluster, c);
        assert_eq!(s.ii, 8);
    }
}
