//! Per-benchmark parameterization (the published characteristics).

/// Global knobs of a workload build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    /// Master seed for loop synthesis (structure of the kernels).
    pub seed: u64,
    /// Input-identity seed of the profiling data set.
    pub profile_input: u64,
    /// Input-identity seed of the execution data set.
    pub exec_input: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x6182_2002,
            profile_input: 1,
            exec_input: 2,
        }
    }
}

/// The synthesis parameters of one benchmark, mirroring Table 1 and the
/// per-benchmark facts of §5.2.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Benchmark name (Table 1).
    pub name: &'static str,
    /// Profile data set label (Table 1).
    pub profile_input: &'static str,
    /// Execution data set label (Table 1).
    pub exec_input: &'static str,
    /// Dominant element size in bytes (Table 1 "main data size").
    pub main_gran: u8,
    /// Share of accesses at the dominant size (Table 1 percentage).
    pub main_share: f64,
    /// Number of modulo-scheduled loops to synthesize.
    pub n_loops: usize,
    /// Range of loads per loop (inclusive).
    pub loads_per_loop: (usize, usize),
    /// Range of stores per loop (inclusive).
    pub stores_per_loop: (usize, usize),
    /// Fraction of loads with data-dependent addresses (`a[b[i]]`).
    pub indirect_share: f64,
    /// Fraction of accesses to 8-byte (double-precision) elements.
    pub double_share: f64,
    /// Fraction of arithmetic done on the FP unit.
    pub fp_frac: f64,
    /// Fraction of arrays that are heap/stack (alignment-sensitive);
    /// the rest are globals.
    pub dynamic_frac: f64,
    /// Probability that two memory ops in a loop are connected by an
    /// unresolved (conservative) memory dependence, forming chains.
    pub chain_density: f64,
    /// Probability a chain deliberately mixes arrays whose preferred
    /// clusters differ (what makes chains costly in epicdec/pgp*/rasta).
    pub chain_conflict: f64,
    /// Probability of a store→load memory recurrence (distance 1).
    pub mem_recurrence: f64,
    /// Probability of a loop-carried arithmetic accumulator.
    pub accumulator: f64,
    /// Average-trip-count range.
    pub trip_range: (u64, u64),
    /// Array size range in bytes.
    pub array_bytes: (u64, u64),
    /// Probability a strided access uses a non-unit element stride
    /// (creating accesses that visit several clusters even after OUF).
    pub stray_stride: f64,
}

impl BenchSpec {
    /// Sanity-check the parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let fracs = [
            ("main_share", self.main_share),
            ("indirect_share", self.indirect_share),
            ("double_share", self.double_share),
            ("fp_frac", self.fp_frac),
            ("dynamic_frac", self.dynamic_frac),
            ("chain_density", self.chain_density),
            ("chain_conflict", self.chain_conflict),
            ("mem_recurrence", self.mem_recurrence),
            ("accumulator", self.accumulator),
            ("stray_stride", self.stray_stride),
        ];
        for (n, f) in fracs {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{n} = {f} out of [0,1] in {}", self.name));
            }
        }
        if self.n_loops == 0 {
            return Err(format!("{} needs at least one loop", self.name));
        }
        if self.loads_per_loop.0 > self.loads_per_loop.1 || self.loads_per_loop.0 == 0 {
            return Err(format!("bad loads_per_loop in {}", self.name));
        }
        if self.trip_range.0 < 8 {
            return Err(format!(
                "{}: loops iterating fewer than 8 times are not modulo-scheduled (§5.1)",
                self.name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_seeded() {
        let c = WorkloadConfig::default();
        assert_ne!(c.profile_input, c.exec_input);
    }
}
