//! The profile subsystem's persistence contract: the store is an output,
//! written in a deterministic text format that a fresh collection
//! reproduces byte for byte, and measurements only attach to the kernel
//! body they were taken on.

use interleaved_vliw::experiments::{profile_fidelity, ExperimentContext};
use interleaved_vliw::ir::LatencyProfile;
use interleaved_vliw::profile::{
    attach_measurements, measure_kernel, MeasureOptions, ProfileStore,
};
use interleaved_vliw::sched::ClusterPolicy;

fn tiny_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into(), "mpeg2dec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.sim.warmup_iterations = 48;
    ctx.profile.iteration_cap = 48;
    ctx
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
fn store_lookup_rejects_stale_fingerprints() {
    let ctx = tiny_ctx();
    let suite = profile_fidelity::collect_suite(&ctx);
    let l = &suite.loops[0];
    // the collection's own measurement of this loop (same bootstrap
    // policy, caps and profile input as `collect_suite`)
    let opts = MeasureOptions {
        policy: ClusterPolicy::PreBuildChains,
        enum_limits: ctx.enum_limits,
        sim: ctx.sim,
    };
    let lp = measure_kernel(
        &l.synthetic,
        &ctx.machine,
        true,
        ctx.workloads.profile_input,
        &opts,
    )
    .expect("bootstrap schedule")
    .derive_unrolled(&l.synthetic, 1, &ctx.machine)
    .expect("a kernel's own run derives at factor 1");
    let mut fresh = l.synthetic.clone();
    attach_measurements(&mut fresh, &lp).expect("attach");
    assert_eq!(fresh, l.measured, "measurement is deterministic");
    // a mutated kernel body must not accept the stored measurements
    let mut mutated = l.synthetic.clone();
    mutated
        .ops
        .iter_mut()
        .find_map(|o| o.mem.as_mut())
        .expect("mem op")
        .offset += 4;
    assert!(attach_measurements(&mut mutated, &lp).is_err());
}

#[test]
fn histogram_edge_cases_survive_the_store() {
    use interleaved_vliw::profile::{LoopProfile, OpProfile};
    // empty loads (never-executed op), single-access ops, saturating
    // counts — every edge the serializer must carry
    let mut empty = OpProfile::new(4);
    empty.cluster_hist = vec![0; 4];
    assert!(empty.latency.is_empty());
    let mut single = OpProfile::new(4);
    single.classes[0] = 1;
    single.cluster_hist[2] = 1;
    single.latency = LatencyProfile {
        counts: vec![(1, 1)],
    };
    assert_eq!(single.total(), 1);
    let mut saturated = OpProfile::new(4);
    saturated.classes[3] = u64::MAX;
    saturated.cluster_hist[0] = u64::MAX;
    saturated.latency = LatencyProfile {
        counts: vec![(15, u64::MAX), (4096, 1)],
    };
    assert_eq!(saturated.latency.total(), u64::MAX, "totals saturate");
    let mut store = ProfileStore::new();
    store.insert(LoopProfile {
        name: "edges".into(),
        fingerprint: 42,
        n_ops: 3,
        ops: vec![(0, empty), (1, single), (2, saturated)],
    });
    assert_eq!(
        store.to_text(),
        "vliw-profile-store 1\n\
         loops 1\n\
         loop edges fp 000000000000002a ops 3 mem 3\n\
         op 0 classes 0 0 0 0 combined 0 ab 0 clusters 4 0 0 0 0 lat 0\n\
         op 1 classes 1 0 0 0 combined 0 ab 0 clusters 4 0 0 1 0 lat 1 1 1\n\
         op 2 classes 0 0 0 18446744073709551615 combined 0 ab 0 clusters 4 \
         18446744073709551615 0 0 0 lat 2 15 18446744073709551615 4096 1\n\
         endloop\n"
    );
}
