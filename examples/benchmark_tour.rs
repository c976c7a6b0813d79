//! A tour of the paper's Table IV benchmark suite: synthesize a
//! representative subset, verify every circuit by simulation, and print
//! gates/cost like the paper's table.
//!
//! Run with: `cargo run --release --example benchmark_tour`

use rmrls::core::{synthesize, Pruning, SynthesisOptions};
use rmrls::spec::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_gates(80)
        .with_max_nodes(250_000);

    println!(
        "{:<12} {:>6} {:>7} {:>6} {:>9}   circuit",
        "benchmark", "wires", "garbage", "gates", "cost"
    );
    for name in [
        "3_17",
        "4_49",
        "rd32",
        "xor5",
        "4mod5",
        "hwb4",
        "decod24",
        "graycode10",
        "6one135",
        "majority3",
        "mod32adder",
        "shift10",
    ] {
        let bench = benchmarks::find(name).expect("suite benchmark");
        let spec = bench.to_multi_pprm();
        match synthesize(&spec, &opts) {
            Ok(result) => {
                // Verify the cascade realizes the specification.
                let limit = 1u64 << bench.width().min(16);
                for x in 0..limit {
                    assert_eq!(result.circuit.apply(x), spec.eval(x), "{name} at {x}");
                }
                let text = result.circuit.to_string();
                let short = if text.len() > 60 {
                    format!("{}…", &text[..60])
                } else {
                    text
                };
                println!(
                    "{:<12} {:>6} {:>7} {:>6} {:>9}   {short}",
                    name,
                    bench.width(),
                    bench.garbage_inputs,
                    result.circuit.gate_count(),
                    result.circuit.quantum_cost(),
                );
            }
            Err(e) => println!("{name:<12} failed within the budget: {e}"),
        }
    }
    Ok(())
}
