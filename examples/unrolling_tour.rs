//! A tour of step 1 of the paper's algorithm: individual unrolling
//! factors, the OUF, and the selective three-way choice.
//!
//! Run with `cargo run --example unrolling_tour`.

use interleaved_vliw::experiments::{
    prepare_loop, ExperimentContext, ProfileSource, RunConfig, UnrollMode,
};
use interleaved_vliw::ir::{ArrayKind, KernelBuilder, Opcode};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{individual_unroll_factor, optimal_unroll_factor, unroll_candidates};
use interleaved_vliw::trace::{RecordingSink, Trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::word_interleaved_4();
    let ni = machine.ni_bytes();
    println!("N x I = {ni} bytes (4 clusters x 4-byte interleave)\n");

    // individual factors, as in §4.3.1's formula
    println!("individual unrolling factors Ui = NxI / gcd(NxI, Si mod NxI):");
    for stride in [1i64, 2, 4, 8, 12, 16, 24] {
        println!(
            "  stride {stride:>2} bytes -> Ui = {}",
            individual_unroll_factor(stride, ni)
        );
    }

    // a mixed loop: a 4-byte stream, a 2-byte stream and a double stream
    let mut b = KernelBuilder::new("mixed");
    let a = b.array("a", 8192, ArrayKind::Heap);
    let c = b.array("c", 8192, ArrayKind::Heap);
    let d = b.array("d", 8192, ArrayKind::Heap);
    let (_, x) = b.load("ld4", a, 0, 4, 4); // Ui = 4
    let (_, y) = b.load("ld2", c, 0, 2, 2); // Ui = 8
    let (_, z) = b.load("ld8", d, 0, 8, 8); // granularity 8 > I: not considered
    let (_, s) = b.int_op("sum", Opcode::Add, &[x.into(), y.into()]);
    let (_, t) = b.int_op("sum2", Opcode::Add, &[s.into(), z.into()]);
    b.store("st", a, 4096, 4, 4, t);
    let kernel = b.finish(512.0);

    let ouf = optimal_unroll_factor(&kernel, &machine);
    println!("\nloop OUF = lcm(4, 8) = {ouf}");

    // selective unrolling schedules every candidate and keeps the one
    // with the lowest Texec; each candidate leaves an `unroll.variant`
    // instant in the trace
    let cfg = RunConfig {
        source: ProfileSource::None,
        unroll: UnrollMode::Selective,
        ..RunConfig::ipbc()
    };
    let sink = RecordingSink::logical();
    let prepared = prepare_loop(
        &kernel,
        &machine,
        &cfg,
        &ExperimentContext::quick(),
        Trace::new(&sink),
    )?;
    let candidates = unroll_candidates(&kernel, &machine);
    println!("\nselective unrolling evaluated:");
    for event in sink.events().iter().filter(|e| e.name == "unroll.variant") {
        let arg = |key: &str| {
            event
                .args
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0.0, |&(_, v)| v)
        };
        let factor = arg("factor") as u32;
        let choice = candidates
            .iter()
            .find(|&&(_, f)| f == factor)
            .map_or(String::new(), |(c, _)| c.to_string());
        println!(
            "  {choice:<14} factor {factor:>2}: II {:>3}, Texec {:>9.0}",
            arg("ii"),
            arg("texec")
        );
    }
    println!(
        "\nchosen: {} (factor {}) -> II {} with {} ops in the kernel",
        prepared.choice,
        prepared.factor,
        prepared.schedule.ii,
        prepared.kernel.ops.len()
    );
    Ok(())
}
