//! Property-style tests over randomly generated kernels: scheduling
//! legality, unrolling semantics and cache-model invariants must hold for
//! *arbitrary* inputs, not just the synthesized suite.
//!
//! Cases are drawn from the workspace's own deterministic PRNG (the
//! container builds offline, so proptest is not available); seeds are
//! fixed, so every run exercises the same cases and failures reproduce.

use interleaved_vliw::ir::{
    unroll, ArrayKind, DepKind, KernelBuilder, LoopKernel, MemProfile, Opcode,
};
use interleaved_vliw::machine::{AccessClass, MachineConfig};
use interleaved_vliw::mem::{AccessRequest, CoherentCache, DataCache, InterleavedCache};
use interleaved_vliw::sched::{
    optimal_unroll_factor, schedule_outcome, ClusterPolicy, MemChains, ScheduleOptions,
};
use interleaved_vliw::workloads::rng::StdRng;

/// Compact description of one generated operation.
#[derive(Debug, Clone)]
enum GenOp {
    Load {
        array: usize,
        offset: u8,
        stride: u8,
        gran_pow: u8,
        hit: u8,
        pref: u8,
    },
    Compute {
        opcode: u8,
        src_a: u8,
        src_b: Option<u8>,
        carried: bool,
    },
    Store {
        array: usize,
        offset: u8,
        stride: u8,
        gran_pow: u8,
        value: u8,
    },
}

fn gen_op(rng: &mut StdRng) -> GenOp {
    match rng.random_range(0..3usize) {
        0 => GenOp::Load {
            array: rng.random_range(0..2usize),
            offset: rng.random::<u64>() as u8,
            stride: rng.random_range(1..32u32) as u8,
            gran_pow: rng.random_range(0..3u32) as u8,
            hit: rng.random_range(0..=10u32) as u8,
            pref: rng.random_range(0..4u32) as u8,
        },
        1 => GenOp::Compute {
            opcode: rng.random_range(0..6u32) as u8,
            src_a: rng.random::<u64>() as u8,
            src_b: if rng.random::<bool>() {
                Some(rng.random::<u64>() as u8)
            } else {
                None
            },
            carried: rng.random::<bool>(),
        },
        _ => GenOp::Store {
            array: rng.random_range(0..2usize),
            offset: rng.random::<u64>() as u8,
            stride: rng.random_range(1..32u32) as u8,
            gran_pow: rng.random_range(0..3u32) as u8,
            value: rng.random::<u64>() as u8,
        },
    }
}

fn gen_ops(rng: &mut StdRng, min: usize, max_exclusive: usize) -> Vec<GenOp> {
    let n = rng.random_range(min..max_exclusive);
    (0..n).map(|_| gen_op(rng)).collect()
}

fn gen_chain_pairs(rng: &mut StdRng, max_exclusive: usize) -> Vec<(u8, u8)> {
    let n = rng.random_range(0..max_exclusive);
    (0..n)
        .map(|_| (rng.random::<u64>() as u8, rng.random::<u64>() as u8))
        .collect()
}

/// Builds a valid kernel from the op descriptions (always at least one op).
fn build_kernel(ops: &[GenOp], chain_pairs: &[(u8, u8)], recur: bool) -> LoopKernel {
    let mut b = KernelBuilder::new("prop");
    let a0 = b.array("a0", 4096, ArrayKind::Heap);
    let a1 = b.array("a1", 4096, ArrayKind::Global);
    let arrays = [a0, a1];
    let mut values = Vec::new();
    let mut mem_ids = Vec::new();
    let mut store_ids = Vec::new();
    let mut load_ids = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            GenOp::Load {
                array,
                offset,
                stride,
                gran_pow,
                hit,
                pref,
            } => {
                let gran = 1u8 << gran_pow; // 1, 2 or 4 bytes
                let (id, v) = b.load(
                    format!("ld{i}"),
                    arrays[*array],
                    (*offset as i64) * gran as i64,
                    (*stride as i64) * gran as i64,
                    gran,
                );
                b.set_profile(
                    id,
                    MemProfile::with_local_ratio(*hit as f64 / 10.0, *pref as usize, 0.7, 4),
                );
                values.push(v);
                mem_ids.push(id);
                load_ids.push(id);
            }
            GenOp::Compute {
                opcode,
                src_a,
                src_b,
                carried,
            } => {
                let table = [
                    Opcode::Add,
                    Opcode::Sub,
                    Opcode::Mul,
                    Opcode::And,
                    Opcode::FAdd,
                    Opcode::FMul,
                ];
                let mut srcs = Vec::new();
                if !values.is_empty() {
                    srcs.push(values[*src_a as usize % values.len()].into());
                    if let Some(sb) = src_b {
                        srcs.push(values[*sb as usize % values.len()].into());
                    }
                }
                let (_, v) = if *carried {
                    b.int_op_carried(format!("c{i}"), table[*opcode as usize % 6], &srcs, 1)
                } else {
                    b.int_op(format!("c{i}"), table[*opcode as usize % 6], &srcs)
                };
                values.push(v);
            }
            GenOp::Store {
                array,
                offset,
                stride,
                gran_pow,
                value,
            } => {
                if values.is_empty() {
                    continue; // nothing to store yet
                }
                let gran = 1u8 << gran_pow;
                let v = values[*value as usize % values.len()];
                let (id, _) = b.store(
                    format!("st{i}"),
                    arrays[*array],
                    2048 + (*offset as i64) * gran as i64,
                    (*stride as i64) * gran as i64,
                    gran,
                    v,
                );
                mem_ids.push(id);
                store_ids.push(id);
            }
        }
    }
    if values.is_empty() {
        let (_, v) = b.int_op("seed", Opcode::Add, &[]);
        values.push(v);
    }
    // conservative chains: forward memory edges between chosen pairs
    for &(x, y) in chain_pairs {
        if mem_ids.len() >= 2 {
            let i = x as usize % mem_ids.len();
            let j = y as usize % mem_ids.len();
            if i != j {
                let (from, to) = (mem_ids[i.min(j)], mem_ids[i.max(j)]);
                b.mem_dep(from, to, DepKind::MemOut, 0);
            }
        }
    }
    // optional memory recurrence
    if recur {
        if let (Some(&st), Some(&ld)) = (store_ids.first(), load_ids.first()) {
            b.mem_dep(st, ld, DepKind::MemFlow, 1);
        }
    }
    b.finish(64.0)
}

/// Any generated kernel schedules legally under every policy.
#[test]
fn schedules_are_always_legal() {
    let mut rng = StdRng::seed_from_u64(0x5ced_0001);
    for case in 0..24 {
        let ops = gen_ops(&mut rng, 1, 10);
        let chains = gen_chain_pairs(&mut rng, 4);
        let recur = rng.random::<bool>();
        let policy = ClusterPolicy::ALL[rng.random_range(0..4usize)];
        let kernel = build_kernel(&ops, &chains, recur);
        let machine = MachineConfig::word_interleaved_4();
        let s = schedule_outcome(&kernel, &machine, ScheduleOptions::new(policy))
            .expect("generated kernels are schedulable")
            .schedule;
        let errs = s.verify(&kernel, &machine);
        assert!(
            errs.is_empty(),
            "case {case}: violations: {errs:?}\nkernel: {kernel}"
        );
        assert!(s.ii >= s.mii, "case {case}");
        // chain co-location under the chain-respecting policies
        if matches!(
            policy,
            ClusterPolicy::BuildChains | ClusterPolicy::PreBuildChains
        ) {
            let mc = MemChains::build(&kernel);
            for (_, members) in mc.iter() {
                let c0 = s.op(members[0]).cluster;
                for &m in members {
                    assert_eq!(s.op(m).cluster, c0, "case {case}: chain split");
                }
            }
        }
    }
}

/// Unrolling preserves dynamic work and makes every eligible stride a
/// multiple of N×I at the OUF.
#[test]
fn unrolling_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5ced_0002);
    for case in 0..24 {
        let ops = gen_ops(&mut rng, 1, 8);
        let factor = rng.random_range(1..9u32);
        let kernel = build_kernel(&ops, &[], false);
        let machine = MachineConfig::word_interleaved_4();
        let u = unroll(&kernel, factor);
        assert_eq!(
            u.ops.len(),
            kernel.ops.len() * factor as usize,
            "case {case}"
        );
        assert!(
            (u.dynamic_ops() - kernel.dynamic_ops()).abs() < 1e-6,
            "case {case}"
        );
        // SSA preserved
        let mut seen = std::collections::HashSet::new();
        for op in &u.ops {
            if let Some(d) = op.dst {
                assert!(seen.insert(d), "case {case}: duplicate def");
            }
        }
        // OUF property
        let ouf = optimal_unroll_factor(&kernel, &machine);
        let at_ouf = unroll(&kernel, ouf);
        for op in at_ouf.mem_ops() {
            let m = op.mem.as_ref().unwrap();
            if let Some(stride) = m.stride {
                if m.granularity as usize <= machine.cache.interleave_bytes && m.hit_rate() > 0.0 {
                    assert_eq!(
                        stride % machine.ni_bytes(),
                        0,
                        "case {case}: op {} stride {} not aligned at OUF {}",
                        op.name,
                        stride,
                        ouf
                    );
                }
            }
        }
    }
}

/// Cache models conserve accesses and the interleaved cache never
/// replicates data outside Attraction Buffers.
#[test]
fn cache_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5ced_0003);
    for _case in 0..24 {
        let n = rng.random_range(1..200usize);
        let addrs: Vec<(u64, usize, bool)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0..4096u64),
                    rng.random_range(0..4usize),
                    rng.random::<bool>(),
                )
            })
            .collect();
        let machine = MachineConfig::word_interleaved_4();
        let mut cache = InterleavedCache::new(&machine);
        let mut now = 0;
        for &(addr, cluster, is_store) in &addrs {
            now += 3;
            let req = if is_store {
                AccessRequest::store(cluster, addr, 4, now)
            } else {
                AccessRequest::load(cluster, addr, 4, now)
            };
            let out = cache.access(req);
            assert!(out.ready_at >= now);
            // a local access classifies local iff the home matches
            let home = cache.home_cluster(addr);
            if out.class.is_local() && !out.combined {
                assert_eq!(home, cluster);
            }
        }
        let s = cache.stats();
        let sum: u64 = AccessClass::ALL.iter().map(|&c| s.count(c)).sum::<u64>() + s.combined();
        assert_eq!(sum, addrs.len() as u64);
    }
}

/// The coherent (multiVLIW) cache keeps the single-writer invariant.
#[test]
fn coherent_single_writer() {
    let mut rng = StdRng::seed_from_u64(0x5ced_0004);
    for _case in 0..24 {
        let n = rng.random_range(1..150usize);
        let addrs: Vec<(u64, usize, bool)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0..1024u64),
                    rng.random_range(0..4usize),
                    rng.random::<bool>(),
                )
            })
            .collect();
        let machine = MachineConfig::multi_vliw_4();
        let mut cache = CoherentCache::new(&machine);
        let mut now = 0;
        for &(addr, cluster, is_store) in &addrs {
            now += 3;
            let req = if is_store {
                AccessRequest::store(cluster, addr, 4, now)
            } else {
                AccessRequest::load(cluster, addr, 4, now)
            };
            let _ = cache.access(req);
            if is_store {
                assert_eq!(cache.copies_of(addr), 1, "store must leave one copy");
            } else {
                assert!(cache.copies_of(addr) >= 1);
            }
        }
    }
}
