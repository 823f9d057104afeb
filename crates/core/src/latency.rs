//! Latency assignment for memory instructions (§4.3.1, step 2).
//!
//! Every load starts at the most expensive latency (remote miss on the
//! word-interleaved machine, miss on unified/multiVLIW machines). Then, one
//! recurrence at a time — most II-constraining first — individual loads are
//! lowered to cheaper classes, choosing at each step the change with the
//! best *benefit* `B = ΔII / Δstall`, until the recurrence II reaches the
//! loop MII computed with all-local-hit latencies. Finally the last lowered
//! load is raised again ("de-slacked") so the recurrence sits exactly at the
//! MII instead of below it.
//!
//! The stall estimator — which the paper omits "due to lack of space" — is
//! reconstructed from the worked example's benefit table (see `DESIGN.md`):
//! with `f` the profiled local-access ratio and `h` the hit rate, the four
//! class probabilities are `f·h, (1−f)·h, f·(1−h), (1−f)·(1−h)` and
//! `stall(L) = Σ p_c · max(0, latency_c − L)`.

use std::fmt;

use vliw_ir::{Ddg, DepEdge, DepKind, LoopKernel, OpId, Opcode};
use vliw_machine::{AccessClass, MachineConfig};

use crate::circuits::Circuit;
use crate::mii;

/// The per-operation latencies the scheduler will assume.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAssignment {
    lat: Vec<u32>,
    /// The MII target the reduction aimed for
    /// (`max(ResMII, RecMII at all-local-hit latencies)`).
    pub target_mii: u32,
    /// Reduction log, for inspection and the §4.3.3 table reproduction.
    pub steps: Vec<BenefitStep>,
}

impl LatencyAssignment {
    /// The assumed latency of `op`.
    pub fn latency_of(&self, op: OpId) -> u32 {
        self.lat[op.index()]
    }

    /// The scheduling latency of a dependence edge under this assignment.
    pub fn edge_latency(&self, edge: &DepEdge) -> u32 {
        mii::edge_latency(edge, |op| self.lat[op.index()])
    }

    /// Internal: sets one op's latency; the reduction goes through
    /// `CircuitSums::set`, which keeps the circuit sums in step.
    fn set(&mut self, op: OpId, lat: u32) {
        self.lat[op.index()] = lat;
    }

    /// Rebuilds an assignment from its persisted parts. The reduction log
    /// (`steps`) is not persisted — it exists for inspection of a live
    /// reduction, and nothing downstream of a finished schedule reads it —
    /// so a rebuilt assignment carries an empty log.
    pub(crate) fn from_raw(lat: Vec<u32>, target_mii: u32) -> Self {
        LatencyAssignment {
            lat,
            target_mii,
            steps: Vec::new(),
        }
    }

    /// The raw per-operation latency vector (the persisted form).
    pub fn raw(&self) -> &[u32] {
        &self.lat
    }
}

/// One candidate evaluation inside a reduction step (a row of the paper's
/// §4.3.3 benefit table).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEval {
    /// The load considered.
    pub op: OpId,
    /// The class considered as the new latency.
    pub to_class: AccessClass,
    /// Decrease in the recurrence II ("∇II").
    pub delta_ii: u32,
    /// Estimated increase in stall time per execution ("∆stall").
    pub delta_stall: f64,
    /// The benefit `∇II / ∆stall` (infinite when `∆stall ≤ 0`).
    pub benefit: f64,
}

impl fmt::Display for CandidateEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}: dII {} dStall {:.2} B {:.2}",
            self.op, self.to_class, self.delta_ii, self.delta_stall, self.benefit
        )
    }
}

/// One applied reduction step.
#[derive(Debug, Clone, PartialEq)]
pub struct BenefitStep {
    /// Which circuit (index into the enumerated list) was being reduced.
    pub circuit: usize,
    /// All candidates evaluated this step.
    pub candidates: Vec<CandidateEval>,
    /// The candidate applied (index into `candidates`).
    pub chosen: usize,
}

/// Estimated stall per execution of a load scheduled with latency
/// `assumed`, from its profile (hit rate × local-ratio class mix).
///
/// `cluster` is the cluster the operation is known to execute in, when the
/// policy fixes it before scheduling (IPBC pre-builds its chains): the
/// local fraction is then the profiled ratio of accesses to that cluster.
/// Without a pin the estimate optimistically assumes the preferred cluster
/// (the profile's concentration).
///
/// Accesses with granularity larger than the interleave factor are always
/// remote on the word-interleaved machine (§5.2), so their local fraction
/// is zero. On machines without remote accesses only hit/miss classes
/// exist. Loads without a profile use a local fraction of `1/N` (uniform).
pub(crate) fn stall_estimate(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    op: OpId,
    cluster: Option<usize>,
    assumed: u32,
) -> f64 {
    let Some(mem) = &kernel.op(op).mem else {
        return 0.0;
    };
    let h = mem.hit_rate();
    let lats = &machine.mem_latencies;
    let stall = |p: f64, class_latency: u32| p * class_latency.saturating_sub(assumed) as f64;
    if machine.has_remote_accesses() {
        let f = if mem.granularity as usize > machine.cache.interleave_bytes {
            0.0
        } else {
            match (&mem.profile, cluster) {
                (Some(p), Some(c)) => p.local_ratio(c),
                (Some(p), None) => p.concentration(),
                (None, _) => 1.0 / machine.n_clusters() as f64,
            }
        };
        stall(f * h, lats.local_hit)
            + stall((1.0 - f) * h, lats.remote_hit)
            + stall(f * (1.0 - h), lats.local_miss)
            + stall((1.0 - f) * (1.0 - h), lats.remote_miss)
    } else {
        stall(h, lats.local_hit) + stall(1.0 - h, lats.local_miss)
    }
}

/// The latency classes available for assignment on `machine`, cheapest
/// first: all four on the word-interleaved machine, hit/miss otherwise.
pub(crate) fn available_classes(machine: &MachineConfig) -> Vec<AccessClass> {
    if machine.has_remote_accesses() {
        AccessClass::ALL.to_vec()
    } else {
        vec![AccessClass::LocalHit, AccessClass::LocalMiss]
    }
}

/// Runs the latency-assignment step for `kernel`.
///
/// `circuits` must be the kernel's elementary circuits (recurrences); the
/// returned assignment also stores the MII target and the reduction log.
/// `pins` are known per-op cluster pins (IPBC pre-built chains / per-op
/// preferences), which sharpen the stall estimates; `&[]` pins nothing.
pub fn assign_latencies_with_pins(
    kernel: &LoopKernel,
    ddg: &Ddg<'_>,
    machine: &MachineConfig,
    circuits: &[Circuit],
    pins: &[Option<usize>],
) -> LatencyAssignment {
    let classes = available_classes(machine);
    let max_class = *classes.last().expect("at least one class");
    let lats = &machine.mem_latencies;

    // base latencies: non-memory ops from the FU table, stores at the store
    // issue latency, loads initially at the most expensive class
    let base: Vec<u32> = kernel
        .ops
        .iter()
        .map(|o| match o.opcode {
            Opcode::Load => lats.of(max_class),
            op => machine.op_latencies.of(op),
        })
        .collect();

    // the target: MII as if every load were a (local) hit
    let hit = lats.of(AccessClass::LocalHit);
    let rec_target = mii::rec_mii(ddg, |op| {
        if kernel.op(op).is_load() {
            hit
        } else {
            base[op.index()]
        }
    });
    let target = mii::res_mii(kernel, machine).max(rec_target);

    let mut asg = LatencyAssignment {
        lat: base,
        target_mii: target,
        steps: Vec::new(),
    };
    let mut sums = CircuitSums::new(kernel, ddg, circuits, &asg.lat);

    // circuits that could not be reduced below the target (e.g. recurrences
    // through stores only) are skipped so the outer loop terminates
    let mut stuck = vec![false; circuits.len()];
    loop {
        // the most constraining recurrence still above the target (ties:
        // the lowest index)
        let worst = (0..circuits.len())
            .filter(|&i| !stuck[i])
            .map(|i| (sums.ii(i), i))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .filter(|&(ii, _)| ii > target);
        let Some((_, ci)) = worst else { break };
        let circuit = &circuits[ci];

        let mut last_changed: Option<OpId> = None;
        while sums.ii(ci) > target {
            let cur_ii = sums.ii(ci);
            let mut candidates = Vec::new();
            // a load's latency counts on this circuit only through its
            // outgoing register-flow edge; elsewhere lowering it leaves
            // the circuit's II where it is
            for (&m, &e) in circuit.nodes.iter().zip(&circuit.edges) {
                if !kernel.op(m).is_load() {
                    continue;
                }
                let flows = ddg.edges()[e].kind == DepKind::RegFlow;
                let cur = asg.latency_of(m);
                for &class in &classes {
                    let to = lats.of(class);
                    if to >= cur {
                        continue;
                    }
                    let new_ii = if flows {
                        sums.ii_with(ci, sums.sum[ci] - u64::from(cur) + u64::from(to))
                    } else {
                        cur_ii
                    };
                    let delta_ii = cur_ii - new_ii;
                    let pin = pins.get(m.index()).copied().flatten();
                    let delta_stall = stall_estimate(kernel, machine, m, pin, to)
                        - stall_estimate(kernel, machine, m, pin, cur);
                    let benefit = if delta_stall <= 1e-12 {
                        f64::INFINITY
                    } else {
                        delta_ii as f64 / delta_stall
                    };
                    candidates.push(CandidateEval {
                        op: m,
                        to_class: class,
                        delta_ii,
                        delta_stall,
                        benefit,
                    });
                }
            }
            if candidates.is_empty() {
                break; // recurrence cannot be reduced further (stores only…)
            }
            // best benefit; ties: larger II decrease, then lower op id,
            // then cheaper class
            let chosen = candidates
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.benefit
                        .partial_cmp(&b.benefit)
                        .unwrap()
                        .then(a.delta_ii.cmp(&b.delta_ii))
                        .then(b.op.cmp(&a.op))
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("nonempty");
            let c = &candidates[chosen];
            if c.delta_ii == 0 && c.benefit.is_finite() {
                // no candidate makes progress on the II: stop to avoid
                // lowering latencies for nothing
                let best_dii = candidates.iter().map(|x| x.delta_ii).max().unwrap_or(0);
                if best_dii == 0 {
                    break;
                }
            }
            let op = c.op;
            sums.set(&mut asg, op, lats.of(c.to_class));
            last_changed = Some(op);
            asg.steps.push(BenefitStep {
                circuit: ci,
                candidates,
                chosen,
            });
        }

        if sums.ii(ci) > target {
            stuck[ci] = true;
        }

        // De-slack: raise the last-changed load so this recurrence sits at
        // exactly the target — bounded by every circuit the load's latency
        // counts on.
        if let Some(m) = last_changed {
            let cur = asg.latency_of(m);
            let mut bound = lats.of(max_class);
            for c in sums.flows_on(m) {
                let sum_others = sums.sum[c] as i64 - i64::from(cur);
                let max_here =
                    i64::from(target) * i64::from(circuits[c].total_distance) - sum_others;
                bound = bound.min(max_here.max(0) as u32);
            }
            if bound > cur {
                sums.set(&mut asg, m, bound);
            }
        }
    }

    asg
}

/// Each circuit's latency sum under the assignment being reduced, kept
/// current as loads change latency.
///
/// A load's latency enters a circuit's sum exactly when the load's
/// outgoing edge on that circuit is a register flow
/// ([`mii::edge_latency`]), and only loads change latency during the
/// reduction, so each load keeps the list of circuits it flows on:
/// lowering or raising a load updates only those sums, and a circuit's II
/// is `⌈sum / distance⌉` — the same integers [`Circuit::ii_bound`] folds,
/// without re-walking the circuit.
struct CircuitSums<'c> {
    circuits: &'c [Circuit],
    /// `Σ edge latency` per circuit.
    sum: Vec<u64>,
    /// Per op, the circuits its latency counts on, ascending (empty for
    /// every op but loads).
    flows_on: Vec<Vec<u32>>,
}

impl<'c> CircuitSums<'c> {
    fn new(kernel: &LoopKernel, ddg: &Ddg<'_>, circuits: &'c [Circuit], lat: &[u32]) -> Self {
        let edges = ddg.edges();
        let mut flows_on = vec![Vec::new(); kernel.ops.len()];
        let mut sum = Vec::with_capacity(circuits.len());
        for (i, c) in circuits.iter().enumerate() {
            let mut total = 0u64;
            for (&m, &e) in c.nodes.iter().zip(&c.edges) {
                total += u64::from(mii::edge_latency(&edges[e], |op| lat[op.index()]));
                if edges[e].kind == DepKind::RegFlow && kernel.op(m).is_load() {
                    flows_on[m.index()].push(i as u32);
                }
            }
            sum.push(total);
        }
        CircuitSums {
            circuits,
            sum,
            flows_on,
        }
    }

    /// Circuit `c`'s II bound, `⌈Σ latency / Σ distance⌉`.
    fn ii(&self, c: usize) -> u32 {
        self.ii_with(c, self.sum[c])
    }

    /// Circuit `c`'s II bound were its latency sum `sum`.
    fn ii_with(&self, c: usize, sum: u64) -> u32 {
        sum.div_ceil(u64::from(self.circuits[c].total_distance)) as u32
    }

    /// The circuits load `op`'s latency counts on.
    fn flows_on(&self, op: OpId) -> impl Iterator<Item = usize> + '_ {
        self.flows_on[op.index()].iter().map(|&c| c as usize)
    }

    /// Sets load `op`'s latency in `asg` and moves the sums it counts on.
    fn set(&mut self, asg: &mut LatencyAssignment, op: OpId, lat: u32) {
        let old = asg.latency_of(op);
        for &c in &self.flows_on[op.index()] {
            let sum = &mut self.sum[c as usize];
            *sum = *sum - u64::from(old) + u64::from(lat);
        }
        asg.set(op, lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{elementary_circuits, EnumLimits};
    use vliw_ir::{ArrayKind, DepKind, KernelBuilder, MemProfile};

    /// A single-recurrence kernel: ld -> add -> st -MF(d1)-> ld.
    fn rec_kernel(hit: f64, local: f64) -> LoopKernel {
        let mut b = KernelBuilder::new("rec");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4, 4, 4, w);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        b.set_profile(ld, MemProfile::with_local_ratio(hit, 0, local, 4));
        b.finish(100.0)
    }

    fn run(k: &LoopKernel, m: &MachineConfig) -> LatencyAssignment {
        let g = Ddg::build(k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assign_latencies_with_pins(k, &g, m, &cs, &[])
    }

    #[test]
    fn non_recurrence_loads_keep_remote_miss() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let _ = b.int_op("add", Opcode::Add, &[v.into()]);
        let k = b.finish(10.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.latency_of(ld), 15);
        assert!(asg.steps.is_empty());
    }

    #[test]
    fn recurrence_load_reduced_to_target() {
        let k = rec_kernel(0.9, 0.9);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        let ld = OpId::new(0);
        // target: circuit = lh(ld) + 1 (add) + 1 (MF st->ld) over distance 1 = 3
        assert_eq!(asg.target_mii, 3);
        // after reduction the circuit II must be exactly the target:
        // ld latency de-slacked to 3*1 - 2 = 1
        assert_eq!(asg.latency_of(ld), 1);
        assert!(!asg.steps.is_empty());
    }

    #[test]
    fn deslack_raises_latency_to_fill_gap() {
        // Two recurrences with different lengths: the shorter one gets
        // de-slacked up to the global target.
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        // REC A: ld1 -> div -> st1 -MF-> ld1 (local-hit II = 1+6+1 = 8)
        let (ld1, v1) = b.load("ld1", a, 0, 4, 4);
        let (_, w1) = b.int_op("div", Opcode::Div, &[v1.into()]);
        let (st1, _) = b.store("st1", a, 256, 4, 4, w1);
        b.mem_dep(st1, ld1, DepKind::MemFlow, 1);
        // REC B: ld2 -> add -> st2 -MF-> ld2 (local-hit II = 1+1+1 = 3)
        let (ld2, v2) = b.load("ld2", a, 512, 4, 4);
        let (_, w2) = b.int_op("add", Opcode::Add, &[v2.into()]);
        let (st2, _) = b.store("st2", a, 768, 4, 4, w2);
        b.mem_dep(st2, ld2, DepKind::MemFlow, 1);
        b.set_profile(ld1, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        b.set_profile(ld2, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.target_mii, 8);
        // REC A: 15 + 6 + 1 = 22 > 8 -> reduce ld1, then de-slack to 8-7=1
        assert_eq!(asg.latency_of(OpId::new(0)), 1);
        // REC B: 15 + 1 + 1 = 17 > 8 -> reduce ld2; de-slack raises it so
        // the recurrence II equals 8: lat = 8 - 2 = 6
        assert_eq!(asg.latency_of(OpId::new(3)), 6);
    }

    #[test]
    fn two_class_machines_use_hit_miss_only() {
        let k = rec_kernel(0.5, 1.0);
        let m = MachineConfig::unified_4(5);
        let asg = run(&k, &m);
        // init = miss latency (15); target = 5 + 1 + 1 = 7; de-slack: 7-2=5
        assert_eq!(asg.target_mii, 7);
        assert_eq!(asg.latency_of(OpId::new(0)), 5);
        for s in &asg.steps {
            for c in &s.candidates {
                assert!(matches!(c.to_class, AccessClass::LocalHit));
            }
        }
    }

    #[test]
    fn stall_estimate_matches_worked_example_n2() {
        // n2: hit rate 0.9, local ratio 0.5 -> stall(10)=0.25, stall(5)=0.75,
        // stall(1)=2.95 (paper's STEP 1 column for n2)
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, _) = b.load("ld", a, 0, 4, 4);
        b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.5, 2));
        let k = b.finish(1.0);
        let mut m = MachineConfig::word_interleaved(2);
        m.cache.block_bytes = 32;
        let s10 = stall_estimate(&k, &m, ld, None, 10);
        let s5 = stall_estimate(&k, &m, ld, None, 5);
        let s1 = stall_estimate(&k, &m, ld, None, 1);
        let s15 = stall_estimate(&k, &m, ld, None, 15);
        assert!((s15 - 0.0).abs() < 1e-6);
        assert!((s10 - 0.25).abs() < 1e-5, "stall(10) = {s10}");
        assert!((s5 - 0.75).abs() < 1e-5, "stall(5) = {s5}");
        assert!((s1 - 2.95).abs() < 1e-4, "stall(1) = {s1}");
    }

    #[test]
    fn oversized_granularity_is_always_remote() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, _) = b.load("ld", a, 0, 8, 8); // double precision
        b.set_profile(ld, MemProfile::with_local_ratio(1.0, 0, 1.0, 4));
        let k = b.finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        // perfect hit rate but f = 0: stall(1) = 1.0 * (5 - 1) = 4
        let s = stall_estimate(&k, &m, ld, None, 1);
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn benefit_prefers_high_hit_rate_loads() {
        // two loads in one recurrence; the hotter one is cheaper to lower
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld1, v1) = b.load("ld1", a, 0, 4, 4);
        let (ld2, v2) = b.load("ld2", a, 4, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v1.into(), v2.into()]);
        let (st, _) = b.store("st", a, 512, 4, 4, w);
        b.mem_dep(st, ld1, DepKind::MemFlow, 1);
        b.mem_dep(st, ld2, DepKind::MemFlow, 1);
        b.raw_edge(ld1, ld2, DepKind::RegFlow, 0); // chain the loads serially
        b.set_profile(ld1, MemProfile::with_local_ratio(0.6, 0, 0.5, 4));
        b.set_profile(ld2, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        // first applied step must lower ld2 (hit rate 0.9 -> higher B)
        let first = &asg.steps[0];
        assert_eq!(first.candidates[first.chosen].op, ld2);
    }

    /// A div → add → add integer recurrence closed at distance 1: II 8
    /// at every latency assignment, so it fixes the target at 8.
    fn target_eight(b: &mut KernelBuilder) {
        let (d, rd) = b.int_op("div", Opcode::Div, &[]);
        let (_, r1) = b.int_op("a1", Opcode::Add, &[rd.into()]);
        let (a2, _) = b.int_op("a2", Opcode::Add, &[r1.into()]);
        b.raw_edge(a2, d, DepKind::RegFlow, 1);
    }

    /// `(circuit, op, to_class)` of every applied step.
    fn applied(asg: &LatencyAssignment) -> Vec<(usize, OpId, AccessClass)> {
        asg.steps
            .iter()
            .map(|s| {
                let c = &s.candidates[s.chosen];
                (s.circuit, c.op, c.to_class)
            })
            .collect()
    }

    #[test]
    fn load_counts_only_on_circuits_it_flows_on() {
        // ld sits on three circuits: through its register flow into the
        // add (II 17 at the initial remote miss), and through a memory
        // anti edge and a register anti edge, where its latency does not
        // count (II 4 and 5 whatever ld's latency). Only the flow circuit
        // is reduced, and only it bounds the de-slack: the anti circuits
        // would cap ld at 4 and 3 if they counted.
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        target_eight(&mut b);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 256, 4, 4, w);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        let (_, c) = b.int_op("c", Opcode::Add, &[]);
        let (s1, _) = b.store("s1", a, 0, 4, 4, c);
        let (s2, _) = b.store("s2", a, 0, 4, 4, c);
        let (s3, _) = b.store("s3", a, 0, 4, 4, c);
        b.mem_dep(ld, s1, DepKind::MemAnti, 0);
        b.mem_dep(s1, s2, DepKind::MemOut, 0);
        b.mem_dep(s2, s3, DepKind::MemOut, 0);
        b.mem_dep(s3, ld, DepKind::MemFlow, 1);
        let (x, _) = b.int_op("x", Opcode::Add, &[]);
        let (y, _) = b.int_op("y", Opcode::Div, &[]);
        b.raw_edge(ld, x, DepKind::RegAnti, 0);
        b.raw_edge(x, y, DepKind::RegFlow, 0);
        b.raw_edge(y, ld, DepKind::RegOut, 1);
        b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.target_mii, 8);
        assert_eq!(asg.latency_of(ld), 6);
        assert_eq!(
            applied(&asg),
            vec![
                (1, ld, AccessClass::LocalMiss),
                (1, ld, AccessClass::RemoteHit)
            ]
        );
    }

    #[test]
    fn recurrences_through_stores_only_are_skipped() {
        // a store-only recurrence (II 1) and an unreducible two-load
        // recurrence, II ⌈47 / 16⌉ = 3 against a target of 2 (ResMII, and
        // the two-load recurrence at local hits): no single lowering moves
        // the II below 3, so the reduction gives up on it instead of
        // looping, and leaves both loads at the remote miss
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (_, c) = b.int_op("c", Opcode::Add, &[]);
        let (s1, _) = b.store("s1", a, 0, 4, 4, c);
        let (s2, _) = b.store("s2", a, 0, 4, 4, c);
        let (s3, _) = b.store("s3", a, 0, 4, 4, c);
        b.mem_dep(s1, s2, DepKind::MemOut, 0);
        b.mem_dep(s2, s3, DepKind::MemOut, 0);
        b.mem_dep(s3, s1, DepKind::MemOut, 3);
        let (ld1, _) = b.load("ld1", a, 512, 4, 4);
        let (ld2, v2) = b.load("ld2", a, 516, 4, 4);
        b.raw_edge(ld1, ld2, DepKind::RegFlow, 0);
        let (_, r1) = b.int_op("d1", Opcode::Div, &[v2.into()]);
        let (_, r2) = b.int_op("d2", Opcode::Div, &[r1.into()]);
        let (_, r3) = b.int_op("mul", Opcode::Mul, &[r2.into()]);
        let (_, r4) = b.int_op("a1", Opcode::Add, &[r3.into()]);
        let (_, r5) = b.int_op("a2", Opcode::Add, &[r4.into()]);
        let (st, _) = b.store("st", a, 768, 4, 4, r5);
        b.mem_dep(st, ld1, DepKind::MemFlow, 16);
        b.set_profile(ld1, MemProfile::with_local_ratio(0.6, 0, 0.5, 4));
        b.set_profile(ld2, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let asg = assign_latencies_with_pins(&k, &g, &m, &cs, &[]);
        assert_eq!(cs.len(), 2);
        assert_eq!(asg.target_mii, 2);
        assert_eq!(asg.latency_of(ld1), 15);
        assert_eq!(asg.latency_of(ld2), 15);
        assert!(asg.steps.is_empty());
        assert_eq!(mii::rec_mii(&g, |o| asg.latency_of(o)), 3);
    }

    #[test]
    fn deslack_is_bounded_by_a_second_circuit_through_the_load() {
        // ld closes two register-flow recurrences: A (ld → add → st, II
        // 17 at distance 1) and B (ld → div → div → st, II 14 at
        // distance 2). A is reduced first, to ld = 5; A alone would let
        // the de-slack raise ld to 8 − 2 = 6, but B caps it at
        // 8·2 − 13 = 3. B (now 9) is reduced next and de-slacked to 3.
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        target_eight(&mut b);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st_a, _) = b.store("st_a", a, 256, 4, 4, w);
        b.mem_dep(st_a, ld, DepKind::MemFlow, 1);
        let (_, d1) = b.int_op("d1", Opcode::Div, &[v.into()]);
        let (_, d2) = b.int_op("d2", Opcode::Div, &[d1.into()]);
        let (st_b, _) = b.store("st_b", a, 512, 4, 4, d2);
        b.mem_dep(st_b, ld, DepKind::MemFlow, 2);
        b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.target_mii, 8);
        assert_eq!(asg.latency_of(ld), 3);
        assert_eq!(
            applied(&asg),
            vec![
                (1, ld, AccessClass::LocalMiss),
                (1, ld, AccessClass::RemoteHit),
                (2, ld, AccessClass::LocalHit)
            ]
        );
    }
}
