//! Tables 1 and 2 of the paper.

use std::fmt;

use crate::context::ExperimentContext;
use crate::report::Table;

/// Table 1: benchmarks, inputs and dominant data sizes — both the spec
/// values (from the paper) and the shares measured on the synthesized
/// suite.
#[derive(Debug, Clone)]
pub struct Table1 {
    rows: Vec<(String, String, String, u8, f64, f64)>,
}

impl Table1 {
    /// The measured dominant-granularity share of `bench`.
    pub fn measured_share(&self, bench: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == bench).map(|r| r.5)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table 1: benchmarks and inputs",
            &[
                "bench",
                "profile input",
                "exec input",
                "main size",
                "paper share",
                "measured",
            ],
        );
        for (name, pi, ei, gran, paper, measured) in &self.rows {
            t.row(vec![
                name.clone(),
                pi.clone(),
                ei.clone(),
                format!("{gran} bytes"),
                format!("{:.0}%", 100.0 * paper),
                format!("{:.0}%", 100.0 * measured),
            ]);
        }
        t
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())
    }
}

/// Builds Table 1 from the context's models
/// ([`ExperimentContext::models`], the step every figure driver's grid
/// runs over).
pub fn table1(ctx: &ExperimentContext) -> Table1 {
    let mut rows = Vec::new();
    for model in ctx.models() {
        let spec = &model.spec;
        let (mut dominant, mut total) = (0.0f64, 0.0f64);
        for l in &model.loops {
            for op in l.kernel.mem_ops() {
                let w = l.kernel.avg_trip * l.kernel.invocations;
                total += w;
                if op.mem.as_ref().expect("mem").granularity == spec.main_gran {
                    dominant += w;
                }
            }
        }
        rows.push((
            model.name.clone(),
            spec.profile_input.to_string(),
            spec.exec_input.to_string(),
            spec.main_gran,
            spec.main_share,
            if total > 0.0 { dominant / total } else { 0.0 },
        ));
    }
    Table1 { rows }
}

/// Table 2: the machine configuration.
#[derive(Debug, Clone)]
pub struct Table2 {
    machine: vliw_machine::MachineConfig,
}

impl Table2 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let m = &self.machine;
        let mut t = Table::new("Table 2: configuration parameters", &["parameter", "value"]);
        let mut kv = |k: &str, v: String| {
            t.row(vec![k.into(), v]);
        };
        kv("number of clusters", m.clusters.n_clusters.to_string());
        kv(
            "functional units",
            format!(
                "{} FP / {} integer / {} memory per cluster",
                m.clusters.fp_units, m.clusters.int_units, m.clusters.mem_units
            ),
        );
        kv(
            "cache",
            format!(
                "{} KB total ({} x {} KB modules), {}-byte blocks, {}-way",
                m.cache.total_bytes / 1024,
                m.clusters.n_clusters,
                m.cache.module_bytes(m.clusters.n_clusters) / 1024,
                m.cache.block_bytes,
                m.cache.associativity
            ),
        );
        kv(
            "latencies",
            format!(
                "{} / {} / {} / {} cycles (LH/RH/LM/RM)",
                m.mem_latencies.local_hit,
                m.mem_latencies.remote_hit,
                m.mem_latencies.local_miss,
                m.mem_latencies.remote_miss
            ),
        );
        kv(
            "register buses",
            format!("{} at 1/2 core frequency", m.buses.reg_buses),
        );
        kv(
            "memory buses",
            format!("{} at 1/2 core frequency", m.buses.mem_buses),
        );
        kv(
            "next memory level",
            format!(
                "{} ports, {} cycles, always hit",
                m.next_level.ports, m.next_level.latency
            ),
        );
        kv(
            "interleaving factor",
            format!("{} bytes", m.cache.interleave_bytes),
        );
        t
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())
    }
}

/// Builds Table 2 from the context's machine.
pub fn table2(ctx: &ExperimentContext) -> Table2 {
    Table2 {
        machine: ctx.machine.clone(),
    }
}
