//! The §4.3.3 worked example, reproduced end to end.

use std::fmt;

use vliw_ir::Ddg;
use vliw_machine::AccessClass;
use vliw_sched::examples_443::{figure3_kernel, figure3_machine};
use vliw_sched::{
    assign_latencies_with_pins, elementary_circuits, schedule_kernel, ClusterPolicy, EnumLimits,
    ScheduleOptions,
};

use crate::report::Table;

/// Everything the §4.3.3 narrative reports, recomputed.
#[derive(Debug, Clone)]
pub struct Example433 {
    /// The benefit-table rows actually evaluated, per applied step:
    /// `(step, op name, to-class, ∇II, ∆stall, B, applied)`.
    pub steps: Vec<(usize, String, AccessClass, u32, f64, f64, bool)>,
    /// Final latencies of (n1, n2, n6).
    pub final_latencies: (u32, u32, u32),
    /// The loop MII.
    pub mii: u32,
    /// IPBC cluster of the n1-n2-n4 chain and of n6.
    pub ipbc_clusters: (usize, usize),
    /// Achieved II under IPBC.
    pub ipbc_ii: u32,
}

impl Example433 {
    /// Renders the benefit table in the paper's layout.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "§4.3.3 benefit table (latency reduction steps for Figure 3)",
            &["step", "load", "change to", "dII", "dStall", "B", "applied"],
        );
        for (step, op, class, dii, dstall, b, applied) in &self.steps {
            t.row(vec![
                step.to_string(),
                op.clone(),
                class.to_string(),
                dii.to_string(),
                format!("{dstall:.2}"),
                if b.is_infinite() {
                    "inf".into()
                } else {
                    format!("{b:.2}")
                },
                if *applied { "<-".into() } else { String::new() },
            ]);
        }
        t
    }
}

impl fmt::Display for Example433 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table().render())?;
        writeln!(f, "loop MII = {} (paper: 8)", self.mii)?;
        writeln!(
            f,
            "final latencies: n1 = {} (paper: 4), n2 = {} (paper: 1 local hit), n6 = {} (paper: 1)",
            self.final_latencies.0, self.final_latencies.1, self.final_latencies.2
        )?;
        writeln!(
            f,
            "IPBC: chain n1-n2-n4 in cluster {} (paper: its average preferred cluster), n6 in cluster {}; II = {}",
            self.ipbc_clusters.0, self.ipbc_clusters.1, self.ipbc_ii
        )
    }
}

/// Recomputes the worked example.
pub fn example433() -> Example433 {
    let (kernel, ops) = figure3_kernel();
    let machine = figure3_machine();
    let ddg = Ddg::build(&kernel);
    let circuits = elementary_circuits(&ddg, EnumLimits::default());
    let asg = assign_latencies_with_pins(&kernel, &ddg, &machine, &circuits, &[]);

    let mut steps = Vec::new();
    for (i, s) in asg.steps.iter().enumerate() {
        for (ci, c) in s.candidates.iter().enumerate() {
            steps.push((
                i + 1,
                kernel.op(c.op).name.clone(),
                c.to_class,
                c.delta_ii,
                c.delta_stall,
                c.benefit,
                ci == s.chosen,
            ));
        }
    }

    let schedule = schedule_kernel(
        &kernel,
        &machine,
        ScheduleOptions::new(ClusterPolicy::PreBuildChains),
    )
    .expect("figure 3 schedules");
    Example433 {
        steps,
        final_latencies: (
            asg.latency_of(ops.n1),
            asg.latency_of(ops.n2),
            asg.latency_of(ops.n6),
        ),
        mii: asg.target_mii,
        ipbc_clusters: (schedule.op(ops.n1).cluster, schedule.op(ops.n6).cluster),
        ipbc_ii: schedule.ii,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    #[test]
    fn narrative_numbers() {
        let e = example433();
        assert_eq!(e.mii, 8);
        assert_eq!(e.final_latencies, (4, 1, 1));
        assert_eq!(e.ipbc_ii, 8);
        assert_eq!(e.ipbc_clusters, (0, 1));
        // the first applied change is n2 -> local miss with B = 20
        let first_applied = e.steps.iter().find(|s| s.6).unwrap();
        assert_eq!(first_applied.1, "n2");
        assert_eq!(first_applied.2, AccessClass::LocalMiss);
        assert!((first_applied.5 - 20.0).abs() < 1e-2);
    }
}
