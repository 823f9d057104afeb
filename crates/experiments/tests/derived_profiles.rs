//! Satellite check for the stream-derivation optimization: on the quick
//! suite, profiles of unrolled variants are *derived* from the factor-1
//! measurement stream instead of re-measured per variant.
//!
//! A measurement run (`measure_kernel`) records only the per-iteration
//! sample stream; its factor-1 derivation is the loop's aggregate
//! profile, pinned byte-for-byte by the committed
//! `results/profiles/factor1-quick.profile` (see
//! `tests/profile_roundtrip.rs`). What this test pins end-to-end through
//! layout, bootstrap scheduling and the timing simulator:
//!
//! 1. for every quick-suite loop and every factor the pipeline would
//!    pick, the derivation **succeeds** (the fast path is actually taken;
//!    the re-measurement fallback stays dormant);
//! 2. the slicing is **exact**: copy `k` of a `U`-unrolled kernel gets
//!    precisely the samples of base iterations `≡ k (mod U)`, so the
//!    per-copy profiles reconstruct the factor-1 aggregate
//!    count-for-count.
//!
//! What it deliberately does *not* assert: equality with a fresh
//! measurement run of the unrolled kernel. That measurement answers a
//! different question — it simulates the variant's *own* bootstrap
//! schedule over `iteration_cap` unrolled iterations (U× the base
//! window), and the synthetic address generator treats the rewritten
//! kernel as a different program (indirect streams hash op names, which
//! unroll rewrites to `name#k`; strided wrap periods rescale with the
//! U× stride). The derivation is the faithful model of "the same program,
//! unrolled": copy `k` sees exactly the original program's base
//! iterations `≡ k (mod U)`. See DESIGN.md §"Schedule cache & batch
//! service" for the full argument.

use vliw_experiments::ExperimentContext;
use vliw_ir::unroll;
use vliw_profile::{measure_kernel, MeasureOptions};
use vliw_sched::optimal_unroll_factor;

#[test]
fn stream_derivation_is_exact_on_quick_suite() {
    let ctx = ExperimentContext::quick();
    let machine = &ctx.machine;
    let opts = MeasureOptions {
        policy: vliw_sched::ClusterPolicy::PreBuildChains,
        enum_limits: ctx.enum_limits,
        sim: ctx.sim,
    };
    let mut variants = 0usize;
    for model in ctx.models() {
        for lw in &model.loops {
            let stream = match measure_kernel(
                &lw.kernel,
                machine,
                false,
                ctx.workloads.profile_input,
                &opts,
            ) {
                Ok(s) => s,
                Err(_) => continue, // no bootstrap schedule: nothing to derive either
            };
            let base = stream
                .derive_unrolled(&lw.kernel, 1, machine)
                .expect("factor-1 derivation");

            let ouf = optimal_unroll_factor(&lw.kernel, machine);
            let mut factors = vec![2, 4, ouf];
            factors.sort_unstable();
            factors.dedup();
            for factor in factors.into_iter().filter(|&f| f > 1) {
                let unrolled = unroll(&lw.kernel, factor);
                // (1) the fast path is taken on the real suite
                let derived = stream
                    .derive_unrolled(&unrolled, factor, machine)
                    .unwrap_or_else(|e| {
                        panic!("{} x{factor}: derivation rejected: {e}", lw.kernel.name)
                    });
                // (2) exact residue slicing: per-copy counts and the
                // copy-sum reconstruction of the factor-1 aggregate
                let n = lw.kernel.ops.len();
                let samples = stream.samples[stream
                    .samples
                    .iter()
                    .position(|s| !s.is_empty())
                    .expect("suite loops have memory ops")]
                .len() as u64;
                for (idx, op) in derived.ops.iter() {
                    let copy = (idx / n) as u64;
                    let expect =
                        samples / factor as u64 + u64::from(samples % factor as u64 > copy);
                    assert_eq!(
                        op.classes.iter().sum::<u64>(),
                        expect,
                        "{} x{factor} op {idx}: residue slice has wrong sample count",
                        lw.kernel.name
                    );
                }
                for (orig, op1) in base.ops.iter() {
                    let mut summed = [0u64; 4];
                    for copy in 0..factor as usize {
                        let (_, opc) = derived
                            .ops
                            .iter()
                            .find(|(i, _)| *i == copy * n + orig)
                            .expect("every copy derived");
                        for (s, c) in summed.iter_mut().zip(opc.classes.iter()) {
                            *s += c;
                        }
                    }
                    assert_eq!(
                        summed.as_slice(),
                        op1.classes.as_slice(),
                        "{} x{factor} op {orig}: copies do not reconstruct the factor-1 classes",
                        lw.kernel.name
                    );
                }
                variants += 1;
            }
        }
    }
    assert!(
        variants >= 8,
        "quick suite verified only {variants} variants"
    );
}
