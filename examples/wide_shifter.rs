//! Synthesis beyond explicit truth tables: the paper's `shifter` family
//! (Example 14) on 18 wires has a 2¹⁸-row table, but its PPRM expansion
//! has only ~150 terms — the benchmark is specified symbolically and
//! synthesized directly from the expansion, exactly how the paper
//! handles `shift28` on 30 wires.
//!
//! Run with: `cargo run --release --example wide_shifter`

use rmrls::core::{synthesize, Pruning, SynthesisOptions};
use rmrls::spec::benchmarks::shifter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 16 data lines + 2 select lines = 18 wires.
    let bench = shifter("shift16", 16);
    let spec = bench.to_multi_pprm();
    println!(
        "{}: {} wires, PPRM has {} terms (a truth table would have {} rows)",
        bench.name,
        bench.width(),
        spec.total_terms(),
        1u64 << bench.width()
    );

    let opts = SynthesisOptions::new()
        .with_pruning(Pruning::Greedy)
        .with_max_nodes(200_000);
    let result = synthesize(&spec, &opts)?;
    println!(
        "\nsynthesized {} gates, quantum cost {} ({})",
        result.circuit.gate_count(),
        result.circuit.quantum_cost(),
        result.stats
    );
    println!("{}", result.circuit);

    // Verify the add-mod-2^n semantics on sampled words: with selects
    // s0 (wire 16) and s1 (wire 17), the data word is shifted by
    // s0 + 2·s1 positions.
    let data_mask = (1u64 << 16) - 1;
    for i in 0..10_000u64 {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << 18) - 1);
        let k = (x >> 16 & 1) + 2 * (x >> 17 & 1);
        let y = result.circuit.apply(x);
        assert_eq!(
            y & data_mask,
            (x & data_mask).wrapping_add(k) & data_mask,
            "at {x}"
        );
        assert_eq!(y >> 16, x >> 16, "selects pass through at {x}");
    }
    println!("\nverified on 10000 sampled inputs: data := data + s0 + 2*s1 (mod 2^16)");
    Ok(())
}
