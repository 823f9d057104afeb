//! Cross-crate integration: every schedule the pipeline produces is legal
//! and honors the paper's structural guarantees.

use interleaved_vliw::experiments::{prepare_loop, ExperimentContext, RunConfig};
use interleaved_vliw::sched::{ClusterPolicy, MemChains};
use interleaved_vliw::trace::Trace;
use interleaved_vliw::workloads::{spec_by_name, synthesize};

fn ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["g721dec".into()];
    ctx
}

#[test]
fn schedules_verify_for_every_policy() {
    let ctx = ctx();
    let spec = spec_by_name("g721dec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    for policy in [
        ClusterPolicy::Free,
        ClusterPolicy::BuildChains,
        ClusterPolicy::PreBuildChains,
        ClusterPolicy::NoChains,
    ] {
        let cfg = RunConfig {
            policy,
            ..RunConfig::ipbc()
        };
        let machine = ctx.machine_for(&cfg);
        for lw in &model.loops {
            let p =
                prepare_loop(&lw.kernel, &machine, &cfg, &ctx, Trace::off()).expect("schedulable");
            let errs = p.schedule.verify(&p.kernel, &machine);
            assert!(errs.is_empty(), "{policy:?} {}: {errs:?}", p.kernel.name);
            // the achieved II never undercuts the MII bound
            assert!(p.schedule.ii >= p.schedule.mii);
        }
    }
}

#[test]
fn chain_members_share_a_cluster_under_ibc_and_ipbc() {
    let ctx = ctx();
    let spec = spec_by_name("g721dec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    for policy in [ClusterPolicy::BuildChains, ClusterPolicy::PreBuildChains] {
        let cfg = RunConfig {
            policy,
            ..RunConfig::ipbc()
        };
        let machine = ctx.machine_for(&cfg);
        for lw in &model.loops {
            let p =
                prepare_loop(&lw.kernel, &machine, &cfg, &ctx, Trace::off()).expect("schedulable");
            let chains = MemChains::build(&p.kernel);
            for (cid, members) in chains.iter() {
                let clusters: Vec<usize> =
                    members.iter().map(|&m| p.schedule.op(m).cluster).collect();
                assert!(
                    clusters.windows(2).all(|w| w[0] == w[1]),
                    "{policy:?}: chain {cid} split across clusters {clusters:?} in {}",
                    p.kernel.name
                );
            }
        }
    }
}

#[test]
fn ipbc_pins_chains_to_their_average_preferred_cluster() {
    let ctx = ctx();
    let spec = spec_by_name("g721dec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let cfg = RunConfig::ipbc();
    let machine = ctx.machine_for(&cfg);
    let n = machine.n_clusters();
    for lw in &model.loops {
        let p = prepare_loop(&lw.kernel, &machine, &cfg, &ctx, Trace::off()).expect("schedulable");
        let chains = MemChains::build(&p.kernel);
        for (cid, members) in chains.iter() {
            if let Some(pref) = chains.preferred_cluster(cid, &p.kernel, n) {
                for &m in members {
                    assert_eq!(
                        p.schedule.op(m).cluster,
                        pref,
                        "chain {cid} not in preferred cluster in {}",
                        p.kernel.name
                    );
                }
            }
        }
    }
}

#[test]
fn loads_never_assume_less_than_the_assigned_class() {
    // every load's assumed latency is positive and at most the remote miss
    let ctx = ctx();
    let spec = spec_by_name("g721dec").unwrap();
    let model = synthesize(&spec, &ctx.workloads, &ctx.machine);
    let cfg = RunConfig::ipbc();
    let machine = ctx.machine_for(&cfg);
    let rm = machine.mem_latencies.remote_miss;
    for lw in &model.loops {
        let p = prepare_loop(&lw.kernel, &machine, &cfg, &ctx, Trace::off()).expect("schedulable");
        for op in p.kernel.ops.iter().filter(|o| o.is_load()) {
            let lat = p.schedule.op(op.id).assumed_latency;
            assert!(lat >= 1 && lat <= rm, "load {} assumed {lat}", op.name);
        }
    }
}
