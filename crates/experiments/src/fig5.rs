//! Figure 5: why remote hits stall — factor classification.
//!
//! For each benchmark, the stall time generated by memory operations is
//! attributed to the (non-exclusive) factors the paper enumerates:
//!
//! 1. the instruction accesses more than one cluster (non-`N×I` stride or
//!    indirect addressing under selective unrolling);
//! 2. its preferred-cluster information is "unclear" (spread histogram);
//! 3. it was not scheduled in its preferred cluster;
//! 4. its granularity exceeds the interleave factor.
//!
//! Left bar IBC, right bar IPBC, selective unrolling, no Attraction
//! Buffers. An operation's stall weight counts once per factor it matches,
//! then bars normalize to 1 — the paper also counts overlapping factors
//! "more than once".

use std::fmt;

use crate::context::{BenchRun, ExperimentContext, RunConfig};
use crate::grid::RunGrid;
use crate::report::{f3, Table};

/// One benchmark's two bars (IBC, IPBC), each a normalized 4-factor split.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark name.
    pub bench: String,
    /// IBC factor shares.
    pub ibc: [f64; 4],
    /// IPBC factor shares.
    pub ipbc: [f64; 4],
    /// Total (unnormalized, scaled) stall cycles under IBC / IPBC — rows
    /// with negligible stall are excluded from the paper's plot.
    pub stall: (f64, f64),
}

/// Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig5Row>,
}

fn factor_split(run: &BenchRun, machine: &vliw_machine::MachineConfig) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    for l in &run.loops {
        let k = &l.prepared.kernel;
        let s = &l.prepared.schedule;
        for op in k.mem_ops() {
            let stall = l.sim.stall_by_op[op.id.index()];
            if stall <= 0.0 {
                continue;
            }
            let mem = op.mem.as_ref().expect("mem op");
            let profile = mem.profile.as_ref();
            let conc = profile.map_or(0.0, |p| p.concentration());
            let multi_cluster = mem.indirect
                || mem.stride.is_none_or(|st| st % machine.ni_bytes() != 0)
                || conc < 0.999;
            let unclear = conc < 0.6;
            let not_pref = profile
                .and_then(|p| p.preferred_cluster())
                .is_some_and(|p| p != s.op(op.id).cluster);
            let oversized = mem.granularity as usize > machine.cache.interleave_bytes;
            for (i, hit) in [multi_cluster, unclear, not_pref, oversized]
                .into_iter()
                .enumerate()
            {
                if hit {
                    acc[i] += stall;
                }
            }
        }
    }
    let total: f64 = acc.iter().sum();
    if total > 0.0 {
        acc.map(|x| x / total)
    } else {
        [0.0; 4]
    }
}

impl Fig5 {
    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 5: classification of stall-generating accesses (IBC | IPBC)",
            &[
                "bench",
                "heuristic",
                ">1 cluster",
                "unclear pref",
                "not in pref",
                "granularity",
                "stall",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                "IBC".into(),
                f3(r.ibc[0]),
                f3(r.ibc[1]),
                f3(r.ibc[2]),
                f3(r.ibc[3]),
                crate::report::fcycles(r.stall.0),
            ]);
            t.row(vec![
                r.bench.clone(),
                "IPBC".into(),
                f3(r.ipbc[0]),
                f3(r.ipbc[1]),
                f3(r.ipbc[2]),
                f3(r.ipbc[3]),
                crate::report::fcycles(r.stall.1),
            ]);
        }
        t
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())
    }
}

/// Runs the Figure 5 experiment (parallel grid): IBC and IPBC over the
/// context's benchmarks.
pub fn fig5(ctx: &ExperimentContext) -> Fig5 {
    let result = RunGrid::new("fig5")
        .config("IBC", RunConfig::ibc())
        .config("IPBC", RunConfig::ipbc())
        .run(ctx);
    let machine = ctx.machine_for(&RunConfig::ipbc());
    let mut rows = Vec::new();
    for (bench, runs) in result.by_bench() {
        let (ibc, ipbc) = (&runs[0], &runs[1]);
        rows.push(Fig5Row {
            bench: bench.to_string(),
            ibc: factor_split(ibc, &machine),
            ipbc: factor_split(ipbc, &machine),
            stall: (ibc.stall_cycles(), ipbc.stall_cycles()),
        });
    }
    Fig5 { rows }
}
