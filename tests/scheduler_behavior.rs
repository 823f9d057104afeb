//! Behavioral tests of the scheduling engine across crates: copies on
//! register buses, II growth under pressure, latency classes, pressure
//! estimates.

use interleaved_vliw::ir::{ArrayKind, DepKind, KernelBuilder, MemProfile, Opcode};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{max_live, schedule_outcome, ClusterPolicy, ScheduleOptions};

#[test]
fn forced_cross_cluster_flow_inserts_a_copy() {
    // two pinned memory ops in different clusters with a register flow
    // between them: the schedule must carry the value over a register bus
    let mut b = KernelBuilder::new("t");
    let a = b.array("a", 4096, ArrayKind::Global);
    let (ld, v) = b.load("ld", a, 0, 16, 4);
    let (_, w) = b.int_op("inc", Opcode::Add, &[v.into()]);
    let (st, _) = b.store("st", a, 2052, 16, 4, w); // home cluster 1
    b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
    b.set_profile(st, MemProfile::concentrated(1.0, 1, 4));
    let k = b.finish(64.0);
    let m = MachineConfig::word_interleaved_4();
    let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::NoChains))
        .unwrap()
        .schedule;
    assert!(s.verify(&k, &m).is_empty());
    assert_eq!(s.op(ld).cluster, 0);
    assert_eq!(s.op(st).cluster, 1);
    // the value chain ld -> inc -> st crosses clusters at least once
    assert!(s.n_comms() >= 1, "a register-bus copy must exist");
    for c in &s.copies {
        assert!(c.bus < m.buses.reg_buses);
        assert_ne!(c.from, c.to);
    }
}

#[test]
fn mem_unit_pressure_raises_ii() {
    // 9 loads pinned to one cluster: one memory unit -> II >= 9
    let mut b = KernelBuilder::new("t");
    let a = b.array("a", 8192, ArrayKind::Global);
    for i in 0..9 {
        let (ld, _) = b.load(format!("ld{i}"), a, 16 * i, 16, 4);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
    }
    let k = b.finish(64.0);
    let m = MachineConfig::word_interleaved_4();
    let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::NoChains))
        .unwrap()
        .schedule;
    assert!(
        s.ii >= 9,
        "II {} must serialize 9 loads on one MEM unit",
        s.ii
    );
    // the same loads unpinned spread over four units: II can reach ~3
    let free = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
        .unwrap()
        .schedule;
    assert!(
        free.ii < s.ii,
        "free placement beats pinned: {} vs {}",
        free.ii,
        s.ii
    );
}

#[test]
fn recurrence_free_loads_keep_the_remote_miss_promise() {
    let mut b = KernelBuilder::new("t");
    let a = b.array("a", 4096, ArrayKind::Global);
    let (ld, v) = b.load("ld", a, 0, 4, 4);
    let _ = b.int_op("use", Opcode::Add, &[v.into()]);
    let k = b.finish(64.0);
    let m = MachineConfig::word_interleaved_4();
    let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
        .unwrap()
        .schedule;
    assert_eq!(s.op(ld).assumed_latency, m.mem_latencies.remote_miss);
}

#[test]
fn recurrence_loads_get_reduced_and_the_ii_hits_the_target() {
    let mut b = KernelBuilder::new("t");
    let a = b.array("a", 4096, ArrayKind::Global);
    let (ld, v) = b.load("ld", a, 0, 4, 4);
    let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
    let (st, _) = b.store("st", a, 2048, 4, 4, w);
    b.mem_dep(st, ld, DepKind::MemFlow, 1);
    b.set_profile(ld, MemProfile::with_local_ratio(0.95, 0, 0.9, 4));
    let k = b.finish(64.0);
    let m = MachineConfig::word_interleaved_4();
    let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
        .unwrap()
        .schedule;
    // local-hit circuit: ld(1) + add(1) + st->ld(1) = 3 over distance 1
    assert_eq!(s.latencies.target_mii, 3);
    assert!(s.op(ld).assumed_latency <= m.mem_latencies.local_miss);
    assert_eq!(s.ii, 3, "the schedule achieves the recurrence-limited MII");
}

#[test]
fn stage_count_tracks_promised_latencies() {
    // the same dataflow with cheap vs expensive promises: the remote-miss
    // version must span more stages
    let build = |stride: i64| {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 8192, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, stride, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        b.store("st", a, 4096, stride, 4, w);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        b.finish(64.0)
    };
    let m = MachineConfig::word_interleaved_4();
    let k = build(16);
    let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
        .unwrap()
        .schedule;
    // the load promises 15 cycles: consumer sits >= 15 later -> SC spans it
    let sc = s.stage_count();
    assert!(
        sc as u64 * s.ii as u64 > 15,
        "SC {sc} x II {} must cover the 15-cycle promise",
        s.ii
    );
}

#[test]
fn max_live_grows_with_promised_latency() {
    let m = MachineConfig::word_interleaved_4();
    // cheap chain
    let mut b = KernelBuilder::new("cheap");
    let (_, r) = b.int_op("a", Opcode::Add, &[]);
    let _ = b.int_op("b", Opcode::Sub, &[r.into()]);
    let cheap = b.finish(16.0);
    let s1 = schedule_outcome(&cheap, &m, ScheduleOptions::new(ClusterPolicy::Free))
        .unwrap()
        .schedule;
    // long-latency load feeding a consumer
    let mut b = KernelBuilder::new("hot");
    let a = b.array("a", 4096, ArrayKind::Global);
    let (_, v) = b.load("ld", a, 0, 4, 4);
    let _ = b.int_op("use", Opcode::Add, &[v.into()]);
    let hot = b.finish(16.0);
    let s2 = schedule_outcome(&hot, &m, ScheduleOptions::new(ClusterPolicy::Free))
        .unwrap()
        .schedule;
    assert!(
        max_live(&hot, &s2) > max_live(&cheap, &s1),
        "15-cycle lifetimes need more registers"
    );
}

#[test]
fn schedules_are_deterministic() {
    let mut b = KernelBuilder::new("t");
    let a = b.array("a", 4096, ArrayKind::Global);
    let (_, v) = b.load("ld", a, 0, 4, 4);
    let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
    b.store("st", a, 2048, 4, 4, w);
    let k = b.finish(64.0);
    let m = MachineConfig::word_interleaved_4();
    let s1 = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::BuildChains))
        .unwrap()
        .schedule;
    let s2 = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::BuildChains))
        .unwrap()
        .schedule;
    assert_eq!(s1, s2);
}
