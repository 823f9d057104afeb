//! Loop-kernel synthesis from benchmark specs.

use crate::rng::StdRng;

use vliw_ir::{ArrayId, ArrayKind, DepKind, KernelBuilder, LoopKernel, OpId, Opcode, VirtReg};
use vliw_machine::MachineConfig;

use crate::spec::{BenchSpec, WorkloadConfig};

/// One synthesized loop plus its dynamic-execution weight.
#[derive(Debug, Clone)]
pub struct LoopWorkload {
    /// The original (not yet unrolled, not yet profiled) kernel.
    pub kernel: LoopKernel,
}

/// A whole benchmark: its spec and its loops.
#[derive(Debug, Clone)]
pub struct BenchmarkModel {
    /// Benchmark name.
    pub name: String,
    /// The spec the loops were synthesized from.
    pub spec: BenchSpec,
    /// The synthesized loops (the ~80% of the dynamic instruction stream
    /// the paper modulo-schedules).
    pub loops: Vec<LoopWorkload>,
}

fn hash_name(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct LoopGen<'a> {
    spec: &'a BenchSpec,
    machine: &'a MachineConfig,
    rng: StdRng,
}

impl LoopGen<'_> {
    fn pick_granularity(&mut self) -> u8 {
        if self.spec.double_share > 0.0 && self.rng.random::<f64>() < self.spec.double_share {
            return 8;
        }
        if self.rng.random::<f64>() < self.spec.main_share {
            self.spec.main_gran
        } else {
            let others: Vec<u8> = [1u8, 2, 4]
                .into_iter()
                .filter(|&g| g != self.spec.main_gran)
                .collect();
            others[self.rng.random_range(0..others.len())]
        }
    }

    fn array_kind(&mut self) -> ArrayKind {
        if self.rng.random::<f64>() < self.spec.dynamic_frac {
            if self.rng.random::<f64>() < 0.3 {
                ArrayKind::Stack
            } else {
                ArrayKind::Heap
            }
        } else {
            ArrayKind::Global
        }
    }

    fn stride_for(&mut self, gran: u8) -> i64 {
        let g = gran as i64;
        if self.rng.random::<f64>() < self.spec.stray_stride {
            // element strides that keep visiting several clusters even
            // after moderate unrolling
            g * [3i64, 5, 6, 7][self.rng.random_range(0..4usize)]
        } else if self.rng.random::<f64>() < 0.15 {
            g * 2
        } else {
            g
        }
    }

    fn compute_opcode(&mut self) -> Opcode {
        if self.rng.random::<f64>() < self.spec.fp_frac {
            [Opcode::FAdd, Opcode::FMul, Opcode::FSub][self.rng.random_range(0..3usize)]
        } else {
            [
                Opcode::Add,
                Opcode::Sub,
                Opcode::Mul,
                Opcode::And,
                Opcode::Shl,
                Opcode::Xor,
            ][self.rng.random_range(0..6usize)]
        }
    }

    fn generate(&mut self, name: String) -> LoopKernel {
        let mut b = KernelBuilder::new(name);
        let n_arrays = self.rng.random_range(2..=4usize);
        let mut arrays: Vec<(ArrayId, u8, u64)> = Vec::new(); // (id, gran, size)
        for i in 0..n_arrays {
            let gran = self.pick_granularity();
            let size = self
                .rng
                .random_range(self.spec.array_bytes.0..=self.spec.array_bytes.1)
                .next_multiple_of(64);
            let kind = self.array_kind();
            let id = b.array(format!("a{i}"), size, kind);
            arrays.push((id, gran, size));
        }

        let n_loads = self
            .rng
            .random_range(self.spec.loads_per_loop.0..=self.spec.loads_per_loop.1);
        let n_stores = self
            .rng
            .random_range(self.spec.stores_per_loop.0..=self.spec.stores_per_loop.1);

        let mut values: Vec<VirtReg> = Vec::new();
        let mut loads: Vec<(OpId, ArrayId)> = Vec::new();
        for i in 0..n_loads {
            let (arr, gran, size) = arrays[self.rng.random_range(0..arrays.len())];
            let indirect =
                !values.is_empty() && self.rng.random::<f64>() < self.spec.indirect_share;
            let (id, v) = if indirect {
                let idx = values[self.rng.random_range(0..values.len())];
                b.load_indirect(format!("ld{i}"), arr, idx, gran)
            } else {
                let stride = self.stride_for(gran);
                let offset = (self.rng.random_range(0..(size / 4).max(1)) as i64 * gran as i64)
                    .min(size as i64 / 2);
                b.load(format!("ld{i}"), arr, offset, stride, gran)
            };
            values.push(v);
            loads.push((id, arr));
        }

        // arithmetic: a chain combining the loaded values
        let n_compute = n_loads + self.rng.random_range(1..=4usize);
        let mut acc_done = false;
        for i in 0..n_compute {
            let op = self.compute_opcode();
            let mut srcs: Vec<vliw_ir::SrcOperand> = Vec::new();
            for _ in 0..self.rng.random_range(1..=2usize) {
                if !values.is_empty() {
                    srcs.push(values[self.rng.random_range(0..values.len())].into());
                }
            }
            let (_, v) = if !acc_done && self.rng.random::<f64>() < self.spec.accumulator {
                acc_done = true;
                b.int_op_carried(format!("c{i}"), op, &srcs, 1)
            } else {
                b.int_op(format!("c{i}"), op, &srcs)
            };
            values.push(v);
        }

        let mut stores: Vec<(OpId, ArrayId)> = Vec::new();
        for i in 0..n_stores {
            let (arr, gran, size) = arrays[self.rng.random_range(0..arrays.len())];
            let val = values[values.len() - 1 - self.rng.random_range(0..2.min(values.len()))];
            let stride = self.stride_for(gran);
            let offset = (size as i64 / 2)
                + self.rng.random_range(0..(size / 8).max(1)) as i64 * gran as i64;
            let (id, _) = b.store(
                format!("st{i}"),
                arr,
                offset.min(size as i64 - 64),
                stride,
                gran,
                val,
            );
            stores.push((id, arr));
        }

        // store→load memory recurrences (what the latency-assignment step
        // exists for)
        if !stores.is_empty() {
            for &(ld, arr) in &loads {
                if self.rng.random::<f64>() < self.spec.mem_recurrence {
                    let same: Vec<&(OpId, ArrayId)> =
                        stores.iter().filter(|(_, a)| *a == arr).collect();
                    let (st, _) = if same.is_empty() {
                        stores[self.rng.random_range(0..stores.len())]
                    } else {
                        *same[self.rng.random_range(0..same.len())]
                    };
                    b.mem_dep(st, ld, DepKind::MemFlow, 1);
                }
            }
        }

        // conservative-disambiguation chains
        let mut mem_ops: Vec<OpId> = loads.iter().map(|&(id, _)| id).collect();
        mem_ops.extend(stores.iter().map(|&(id, _)| id));
        mem_ops.sort();
        for w in 1..mem_ops.len() {
            if self.rng.random::<f64>() < self.spec.chain_density {
                // chain_conflict decides whether to link across arrays
                // (different placements -> costly chains) or within one
                let earlier = if self.rng.random::<f64>() < self.spec.chain_conflict {
                    mem_ops[self.rng.random_range(0..w)]
                } else {
                    mem_ops[w - 1]
                };
                b.mem_dep(earlier, mem_ops[w], DepKind::MemAnti, 0);
            }
        }

        let trip =
            self.rng
                .random_range(self.spec.trip_range.0..=self.spec.trip_range.1) as f64;
        b.invocations(self.rng.random_range(1..=16) as f64);
        b.finish(trip)
    }

    /// The epicdec loop of §5.2: 19 memory instructions welded into one
    /// chain, each striding `N×I` at a different word offset — IPBC packs
    /// them into one cluster where their 19 concurrent subblock streams
    /// overflow a 16-entry Attraction Buffer.
    fn epicdec_overflow_loop(&mut self) -> LoopKernel {
        let ni = self.machine.ni_bytes();
        let mut b = KernelBuilder::new("epicdec_l19");
        let n_arrays = 5;
        let mut arrays = Vec::new();
        for i in 0..n_arrays {
            let id = b.array(format!("band{i}"), 2048, ArrayKind::Heap);
            arrays.push(id);
        }
        let mut values = Vec::new();
        let mut prev: Option<OpId> = None;
        for i in 0..19 {
            let arr = arrays[i % n_arrays];
            // word offset i % 4 -> homes spread over all clusters
            let offset = ((i as i64) % 4) * 4 + (i as i64 / 4) * ni * 8;
            let (id, v) = b.load(format!("ld{i}"), arr, offset, ni, 4);
            values.push(v);
            if let Some(p) = prev {
                b.mem_dep(p, id, DepKind::MemOut, 0);
            }
            prev = Some(id);
        }
        let mut acc = values[0];
        for i in 0..6 {
            let (_, v) = b.int_op(
                format!("c{i}"),
                Opcode::Add,
                &[acc.into(), values[(i * 3 + 1) % values.len()].into()],
            );
            acc = v;
        }
        let (st, _) = b.store("st0", arrays[0], 1024, ni, 4, acc);
        if let Some(p) = prev {
            b.mem_dep(p, st, DepKind::MemAnti, 0);
        }
        // the chain carries a memory recurrence into the next iteration, so
        // the latency assignment must schedule these loads optimistically —
        // the precondition for the stall time the paper reports here
        b.mem_dep(st, OpId::new(0), DepKind::MemFlow, 1);
        b.invocations(8.0);
        b.finish(512.0)
    }
}

/// Synthesizes the loop suite of one benchmark.
pub fn synthesize(
    spec: &BenchSpec,
    config: &WorkloadConfig,
    machine: &MachineConfig,
) -> BenchmarkModel {
    spec.validate().expect("valid spec");
    let mut loops = Vec::new();
    for l in 0..spec.n_loops {
        let seed = config.seed ^ hash_name(spec.name).rotate_left(l as u32 + 1) ^ (l as u64);
        let mut generator = LoopGen {
            spec,
            machine,
            rng: StdRng::seed_from_u64(seed),
        };
        let kernel = generator.generate(format!("{}_l{}", spec.name, l));
        loops.push(LoopWorkload { kernel });
    }
    if spec.name == "epicdec" {
        let seed = config.seed ^ hash_name("epicdec_l19");
        let mut generator = LoopGen {
            spec,
            machine,
            rng: StdRng::seed_from_u64(seed),
        };
        loops.push(LoopWorkload {
            kernel: generator.epicdec_overflow_loop(),
        });
    }
    BenchmarkModel {
        name: spec.name.to_string(),
        spec: spec.clone(),
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{spec_by_name, suite};
    use vliw_ir::Ddg;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig::default()
    }

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    #[test]
    fn synthesis_is_deterministic() {
        let spec = spec_by_name("gsmdec").unwrap();
        let a = synthesize(&spec, &cfg(), &machine());
        let b = synthesize(&spec, &cfg(), &machine());
        assert_eq!(a.loops.len(), b.loops.len());
        for (x, y) in a.loops.iter().zip(&b.loops) {
            assert_eq!(x.kernel, y.kernel);
        }
    }

    #[test]
    fn every_benchmark_synthesizes_valid_kernels() {
        let m = machine();
        for spec in suite() {
            let model = synthesize(&spec, &cfg(), &m);
            assert_eq!(
                model.loops.len(),
                spec.n_loops + (spec.name == "epicdec") as usize
            );
            for lw in &model.loops {
                let k = &lw.kernel;
                assert!(!k.ops.is_empty());
                assert!(k.n_mem_ops() >= spec.loads_per_loop.0);
                assert!(k.avg_trip >= 8.0, "paper excludes short loops");
                // structural validity: Ddg::build panics on dangling edges
                let _ = Ddg::build(k);
                // d=0 edges point forward (acyclic intra-iteration body)
                for e in &k.edges {
                    if e.distance == 0 {
                        assert!(e.from < e.to, "forward d0 edge in {}", k.name);
                    }
                }
            }
        }
    }

    #[test]
    fn epicdec_has_the_overflow_loop() {
        let spec = spec_by_name("epicdec").unwrap();
        let model = synthesize(&spec, &cfg(), &machine());
        let l19 = model
            .loops
            .iter()
            .find(|l| l.kernel.name == "epicdec_l19")
            .expect("special loop present");
        assert_eq!(l19.kernel.ops.iter().filter(|o| o.is_load()).count(), 19);
        // all 19 loads plus the store form one memory-dependent chain
        let chains = vliw_sched::MemChains::build(&l19.kernel);
        let first = chains.chain_id(OpId::new(0)).unwrap();
        assert_eq!(chains.members(first).len(), 20);
        // every load strides N×I: a single home cluster each
        for op in l19.kernel.ops.iter().filter(|o| o.is_load()) {
            assert_eq!(op.mem.as_ref().unwrap().stride, Some(16));
        }
    }

    #[test]
    fn mpeg2dec_is_double_heavy() {
        let spec = spec_by_name("mpeg2dec").unwrap();
        let model = synthesize(&spec, &cfg(), &machine());
        let (mut doubles, mut total) = (0usize, 0usize);
        for l in &model.loops {
            for op in l.kernel.mem_ops() {
                total += 1;
                doubles += (op.mem.as_ref().unwrap().granularity == 8) as usize;
            }
        }
        let share = doubles as f64 / total as f64;
        assert!(share > 0.25, "mpeg2dec double share {share} too low");
    }

    #[test]
    fn pegwitdec_is_indirect_heavy() {
        let spec = spec_by_name("pegwitdec").unwrap();
        let model = synthesize(&spec, &cfg(), &machine());
        let (mut ind, mut total) = (0usize, 0usize);
        for l in &model.loops {
            for op in l.kernel.ops.iter().filter(|o| o.is_load()) {
                total += 1;
                ind += op.mem.as_ref().unwrap().indirect as usize;
            }
        }
        let share = ind as f64 / total as f64;
        assert!(share > 0.5, "pegwitdec indirect share {share} too low");
    }
}
