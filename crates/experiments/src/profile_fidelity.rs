//! The profile-fidelity study: what does *measuring* profiles buy over
//! inventing them?
//!
//! The study closes the feedback-directed scheduling loop end to end and
//! quantifies every link:
//!
//! 1. **Collection** ([`collect_suite`]): every factor-1 loop of the
//!    context's suite is profiled synthetically (the functional-cache
//!    pass), then *measured* — its synthetic-pipeline schedule runs in
//!    the timing simulator on the profile input while a `vliw-profile`
//!    collector records per-load class mixes, home-cluster histograms and
//!    latency distributions. The measurements land in a versioned
//!    [`ProfileStore`] (persisted under `results/profiles/` by the
//!    `repro … profile` target, and diffed against a fresh collection in
//!    CI).
//! 2. **Divergence**: per benchmark, how far the synthetic profiles sit
//!    from the measured truth — hit-rate deltas, preferred-cluster
//!    agreement, locality deltas, and the measured expected latencies the
//!    class model never sees.
//! 3. **Cycle deltas per policy**: each §4 cluster policy runs the
//!    factor-1 suite under [`ProfileSource::Synthetic`] and
//!    [`ProfileSource::Measured`] — the simulated total cycles of
//!    feedback-directed scheduling vs the synthetic baseline.

use std::fmt;

use vliw_ir::LoopKernel;
use vliw_profile::{attach_measurements, measure_kernel, MeasureOptions, ProfileStore};
use vliw_sched::ClusterPolicy;

use crate::context::{profiled, ExperimentContext, ProfileSource, RunConfig, UnrollMode};
use crate::grid::RunGrid;
use crate::report::{f3, fcycles, Table};

/// One factor-1 loop in both profile worlds.
#[derive(Debug, Clone)]
pub struct MeasuredLoop {
    /// The benchmark the loop belongs to.
    pub bench: String,
    /// The kernel with synthetic (functional-cache) profiles.
    pub synthetic: LoopKernel,
    /// The same kernel with measured profiles attached.
    pub measured: LoopKernel,
}

/// The collection result: the store plus both kernel populations.
#[derive(Debug, Clone)]
pub struct CollectedSuite {
    /// Every loop's measurements, keyed and sorted.
    pub store: ProfileStore,
    /// The loops, in model order.
    pub loops: Vec<MeasuredLoop>,
    /// Loops whose bootstrap schedule failed (no measurement possible).
    pub skipped: usize,
}

/// Collects measured profiles for every factor-1 loop of the context's
/// suite (bootstrap policy: IPBC, the paper's headline configuration, so
/// one canonical store describes the whole suite).
pub fn collect_suite(ctx: &ExperimentContext) -> CollectedSuite {
    let opts = MeasureOptions {
        policy: ClusterPolicy::PreBuildChains,
        enum_limits: ctx.enum_limits,
        sim: ctx.sim,
    };
    let mut store = ProfileStore::new();
    let mut loops = Vec::new();
    let mut skipped = 0;
    for model in ctx.models() {
        for lw in &model.loops {
            let synthetic = profiled(lw.kernel.clone(), &ctx.machine, ctx, true);
            match measure_kernel(
                &synthetic,
                &ctx.machine,
                true,
                ctx.workloads.profile_input,
                &opts,
            ) {
                Ok(stream) => {
                    let profile = stream
                        .derive_unrolled(&synthetic, 1, &ctx.machine)
                        .expect("a kernel's own run derives at factor 1");
                    let mut measured = synthetic.clone();
                    attach_measurements(&mut measured, &profile)
                        .expect("fresh measurement attaches");
                    store.insert(profile);
                    loops.push(MeasuredLoop {
                        bench: model.name.clone(),
                        synthetic,
                        measured,
                    });
                }
                Err(_) => skipped += 1,
            }
        }
    }
    CollectedSuite {
        store,
        loops,
        skipped,
    }
}

/// Per-benchmark synthetic-vs-measured profile divergence over loads.
#[derive(Debug, Clone)]
pub struct DivergenceRow {
    /// Benchmark name.
    pub bench: String,
    /// Loads compared.
    pub loads: usize,
    /// Mean `|synthetic hit rate − measured hit rate|`.
    pub mean_hit_delta: f64,
    /// Fraction of loads whose preferred cluster agrees.
    pub pref_agreement: f64,
    /// Mean `|synthetic concentration − measured concentration|`.
    pub mean_local_delta: f64,
    /// Mean measured expected latency (cycles) — the quantity the class
    /// model approximates with 1/5/10/15.
    pub mean_expected_latency: f64,
}

/// One policy's simulated cycles under each profile source.
#[derive(Debug, Clone)]
pub struct PolicyDelta {
    /// Policy name.
    pub policy: &'static str,
    /// Arithmetic-mean total cycles, synthetic profiles.
    pub synthetic_cycles: f64,
    /// Arithmetic-mean total cycles, measured profiles.
    pub measured_cycles: f64,
}

impl PolicyDelta {
    /// `(measured − synthetic) / synthetic`, in percent (negative =
    /// measurement helped).
    pub fn measured_delta_pct(&self) -> f64 {
        100.0 * (self.measured_cycles - self.synthetic_cycles) / self.synthetic_cycles
    }
}

/// The whole study.
#[derive(Debug)]
pub struct ProfileFidelityResult {
    /// Per-benchmark profile divergence.
    pub divergence: Vec<DivergenceRow>,
    /// Per-policy cycle deltas.
    pub policies: Vec<PolicyDelta>,
    /// The collected store (persisted by the repro driver).
    pub store: ProfileStore,
    /// Loops skipped during collection (bootstrap failures).
    pub skipped: usize,
}

impl ProfileFidelityResult {
    /// The divergence table.
    pub fn divergence_table(&self) -> Table {
        let mut t = Table::new(
            "Profile divergence: synthetic vs measured (factor-1 loads)",
            &[
                "bench",
                "loads",
                "|d hit|",
                "pref agree",
                "|d local|",
                "E[lat] meas",
            ],
        );
        for r in &self.divergence {
            t.row(vec![
                r.bench.clone(),
                r.loads.to_string(),
                f3(r.mean_hit_delta),
                f3(r.pref_agreement),
                f3(r.mean_local_delta),
                f3(r.mean_expected_latency),
            ]);
        }
        t
    }

    /// The per-policy cycle table (the headline `profile_fidelity.csv`).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Cycles by policy and profile source (factor-1, amean)",
            &["policy", "synthetic", "measured", "d meas %"],
        );
        for p in &self.policies {
            t.row(vec![
                p.policy.to_string(),
                fcycles(p.synthetic_cycles),
                fcycles(p.measured_cycles),
                f3(p.measured_delta_pct()),
            ]);
        }
        t
    }
}

impl fmt::Display for ProfileFidelityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.divergence_table().render())?;
        f.write_str(&self.table().render())?;
        writeln!(
            f,
            "store: {} loops ({} skipped)",
            self.store.len(),
            self.skipped
        )
    }
}

fn divergence_rows(suite: &CollectedSuite) -> Vec<DivergenceRow> {
    let mut rows: Vec<DivergenceRow> = Vec::new();
    for l in &suite.loops {
        let row = match rows.iter_mut().find(|r| r.bench == l.bench) {
            Some(r) => r,
            None => {
                rows.push(DivergenceRow {
                    bench: l.bench.clone(),
                    loads: 0,
                    mean_hit_delta: 0.0,
                    pref_agreement: 0.0,
                    mean_local_delta: 0.0,
                    mean_expected_latency: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        for (syn_op, meas_op) in l.synthetic.ops.iter().zip(&l.measured.ops) {
            if !syn_op.is_load() {
                continue;
            }
            let (Some(sm), Some(mm)) = (&syn_op.mem, &meas_op.mem) else {
                continue;
            };
            let (Some(sp), Some(mp)) = (&sm.profile, &mm.profile) else {
                continue;
            };
            row.loads += 1;
            row.mean_hit_delta += (sp.hit_rate - mp.hit_rate).abs();
            if sp.preferred_cluster() == mp.preferred_cluster() {
                row.pref_agreement += 1.0;
            }
            row.mean_local_delta += (sp.concentration() - mp.concentration()).abs();
            row.mean_expected_latency += mp
                .latency
                .as_ref()
                .and_then(|lp| lp.expected())
                .unwrap_or(0.0);
        }
    }
    for r in &mut rows {
        if r.loads > 0 {
            let n = r.loads as f64;
            r.mean_hit_delta /= n;
            r.pref_agreement /= n;
            r.mean_local_delta /= n;
            r.mean_expected_latency /= n;
        }
    }
    rows
}

/// Runs the whole study on the context's suite.
pub fn profile_fidelity(ctx: &ExperimentContext) -> ProfileFidelityResult {
    let suite = collect_suite(ctx);

    // per-policy cycles through the grid, one config pair per policy
    // (factor-1 so the simulated kernels match the collected store)
    let mut grid = RunGrid::new("profile-fidelity");
    for policy in ClusterPolicy::ALL {
        let name = policy.name();
        let base = RunConfig {
            policy,
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        grid = grid.config(format!("{name}/synthetic"), base).config(
            format!("{name}/measured"),
            base.with_source(ProfileSource::Measured),
        );
    }
    let res = grid.run(ctx);
    let means = res.amean_by_config(|r| r.total_cycles());
    let policies = ClusterPolicy::ALL
        .iter()
        .enumerate()
        .map(|(i, policy)| PolicyDelta {
            policy: policy.name(),
            synthetic_cycles: means[2 * i],
            measured_cycles: means[2 * i + 1],
        })
        .collect();

    ProfileFidelityResult {
        divergence: divergence_rows(&suite),
        policies,
        skipped: suite.skipped,
        store: suite.store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 48;
        ctx.sim.warmup_iterations = 48;
        ctx.profile.iteration_cap = 48;
        ctx
    }

    #[test]
    fn fidelity_study_runs() {
        let ctx = tiny_ctx();
        let r = profile_fidelity(&ctx);
        assert_eq!(r.skipped, 0, "factor-1 loops always measure");
        assert!(!r.store.is_empty());
        assert_eq!(r.policies.len(), 4);
        for p in &r.policies {
            assert!(p.synthetic_cycles > 0.0);
            assert!(p.measured_cycles > 0.0);
        }
        // divergence rows cover the benchmark and found its loads
        assert_eq!(r.divergence.len(), 1);
        assert!(r.divergence[0].loads > 0);
        assert!(r.divergence[0].mean_expected_latency >= 1.0);
    }

    #[test]
    fn collection_is_deterministic() {
        let ctx = tiny_ctx();
        let a = collect_suite(&ctx);
        let b = collect_suite(&ctx);
        assert_eq!(a.store, b.store);
        assert_eq!(a.store.to_text(), b.store.to_text());
    }
}
