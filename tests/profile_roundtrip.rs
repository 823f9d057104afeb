//! The profile subsystem's persistence contract: collect → persist →
//! reload yields identical `MemProfile`s and bit-identical schedules
//! (grid-determinism style), across every policy.

use interleaved_vliw::experiments::{profile_fidelity, ExperimentContext};
use interleaved_vliw::ir::{LatencyProfile, LoopKernel};
use interleaved_vliw::profile::{attach_measurements, kernel_fingerprint, ProfileStore};
use interleaved_vliw::sched::{schedule_kernel, ClusterPolicy, ScheduleOptions};

fn tiny_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "mpeg2dec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.sim.warmup_iterations = 48;
    ctx.profile.iteration_cap = 48;
    ctx
}

/// Re-attaches a store's measurements onto freshly synthetic-profiled
/// kernels (what a consumer reloading the store from disk would do).
fn attach_from(store: &ProfileStore, loops: &[profile_fidelity::MeasuredLoop]) -> Vec<LoopKernel> {
    loops
        .iter()
        .map(|l| {
            let mut k = l.synthetic.clone();
            let lp = store
                .get(&k.name, kernel_fingerprint(&k))
                .expect("stored measurement");
            attach_measurements(&mut k, lp).expect("attach");
            k
        })
        .collect()
}

#[test]
fn collect_persist_reload_is_identity() {
    let ctx = tiny_ctx();
    let suite = profile_fidelity::collect_suite(&ctx);
    assert_eq!(suite.skipped, 0);
    assert!(!suite.store.is_empty());

    // persist → reload through the text format
    let text = suite.store.to_text();
    let reloaded = ProfileStore::from_text(&text).expect("parse");
    assert_eq!(reloaded, suite.store, "store round-trips exactly");
    assert_eq!(reloaded.to_text(), text, "serialization is a fixpoint");

    // attaching fresh vs reloaded measurements yields identical profiles
    let fresh = &suite.loops;
    let from_store = attach_from(&reloaded, fresh);
    for (a, b) in fresh.iter().zip(&from_store) {
        assert_eq!(a.measured, *b, "{}: reloaded kernel differs", b.name);
        for (x, y) in a.measured.ops.iter().zip(&b.ops) {
            let (Some(mx), Some(my)) = (&x.mem, &y.mem) else {
                continue;
            };
            assert_eq!(mx.profile, my.profile, "{}: MemProfile differs", b.name);
        }
    }
}

/// The committed quick-scale store is the golden of the whole measurement
/// path: bootstrap schedule, observed timing simulation, per-op
/// aggregation and serialization.
#[test]
fn quick_collection_matches_the_committed_store() {
    let suite = profile_fidelity::collect_suite(&ExperimentContext::quick());
    assert!(
        suite.store.to_text() == include_str!("../results/profiles/factor1-quick.profile"),
        "a fresh quick-scale collection differs from results/profiles/factor1-quick.profile"
    );
}

#[test]
fn reloaded_profiles_schedule_bit_identically() {
    let ctx = tiny_ctx();
    let suite = profile_fidelity::collect_suite(&ctx);
    let reloaded = ProfileStore::from_text(&suite.store.to_text()).expect("parse");
    let from_store = attach_from(&reloaded, &suite.loops);

    for policy in ClusterPolicy::ALL {
        let opts = ScheduleOptions {
            enum_limits: ctx.enum_limits,
            ..ScheduleOptions::new(policy)
        };
        for (a, b) in suite.loops.iter().zip(&from_store) {
            let x = schedule_kernel(&a.measured, &ctx.machine, opts);
            let y = schedule_kernel(b, &ctx.machine, opts);
            match (x, y) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "{}: schedules differ under {policy:?}", b.name),
                (Err(_), Err(_)) => {}
                _ => panic!("{}: one source scheduled, the other failed", b.name),
            }
        }
    }
}

#[test]
fn store_lookup_rejects_stale_fingerprints() {
    let ctx = tiny_ctx();
    let suite = profile_fidelity::collect_suite(&ctx);
    let l = &suite.loops[0];
    let lp = suite
        .store
        .get(&l.synthetic.name, kernel_fingerprint(&l.synthetic))
        .expect("present");
    // a mutated kernel body must not accept the stored measurements
    let mut mutated = l.synthetic.clone();
    mutated
        .ops
        .iter_mut()
        .find_map(|o| o.mem.as_mut())
        .expect("mem op")
        .offset += 4;
    assert!(
        suite
            .store
            .get(&mutated.name, kernel_fingerprint(&mutated))
            .is_none(),
        "lookup keys on the body fingerprint"
    );
    assert!(attach_measurements(&mut mutated, lp).is_err());
}

#[test]
fn histogram_edge_cases_survive_the_store() {
    use interleaved_vliw::profile::{LoopProfile, OpProfile};
    // empty loads (never-executed op), single-access ops, saturating
    // counts — every edge the serializer must carry
    let mut empty = OpProfile::new(4);
    empty.cluster_hist = vec![0; 4];
    let mut single = OpProfile::new(4);
    single.classes[0] = 1;
    single.cluster_hist[2] = 1;
    single.latency = LatencyProfile {
        counts: vec![(1, 1)],
    };
    let mut saturated = OpProfile::new(4);
    saturated.classes[3] = u64::MAX;
    saturated.cluster_hist[0] = u64::MAX;
    saturated.latency = LatencyProfile {
        counts: vec![(15, u64::MAX), (4096, 1)],
    };
    let mut store = ProfileStore::new();
    store.insert(LoopProfile {
        name: "edges".into(),
        fingerprint: 42,
        n_ops: 3,
        ops: vec![(0, empty), (1, single), (2, saturated)],
    });
    let back = ProfileStore::from_text(&store.to_text()).expect("parse");
    assert_eq!(back, store);
    let ops = &back.loops()[0].ops;
    assert!(ops[0].1.latency.is_empty());
    assert_eq!(ops[1].1.total(), 1);
    assert_eq!(ops[1].1.latency.counts, vec![(1, 1)]);
    assert_eq!(ops[2].1.classes[3], u64::MAX);
    assert_eq!(ops[2].1.latency.total(), u64::MAX, "totals saturate");
}
