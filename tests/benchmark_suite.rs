//! Integration tests over the Table IV benchmark suite: semantic checks
//! against the definitions in the paper, reversibility, and synthesis of
//! the fast subset with verification by simulation.

use rmrls::core::{synthesize, Pruning, SynthesisOptions};
use rmrls::spec::benchmarks::{self, table4_suite};
use rmrls::spec::Permutation;

#[test]
fn suite_is_complete_and_reversible() {
    let suite = table4_suite();
    assert_eq!(suite.len(), 29, "all Table IV rows present");
    for b in &suite {
        if b.width() <= 12 {
            let perm = b.to_multi_pprm().to_permutation();
            assert!(
                Permutation::from_vec(perm).is_ok(),
                "{} must be reversible",
                b.name
            );
        }
    }
}

#[test]
fn fast_benchmarks_synthesize_and_verify() {
    // The benchmarks the paper reports as quick; each must synthesize in
    // a short budget (about 20 s of search in a test build) and the
    // circuit must realize the specification. First solution suffices
    // here (we verify semantics, not quality), keeping the test fast in
    // debug builds too.
    let opts = SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_gates(60)
        .with_stop_at_first(true)
        .with_max_nodes(2_000_000);
    for name in [
        "3_17",
        "4_49",
        "xor5",
        "4mod5",
        "rd32",
        "hwb4",
        "decod24",
        "graycode6",
        "graycode10",
        "6one135",
        "6one0246",
        "majority3",
        "ham3",
    ] {
        let b = benchmarks::find(name).unwrap_or_else(|| panic!("missing {name}"));
        let spec = b.to_multi_pprm();
        let result = synthesize(&spec, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        for x in 0..1u64 << b.width() {
            assert_eq!(
                result.circuit.apply(x),
                spec.eval(x),
                "{name}: mismatch at input {x}"
            );
        }
    }
}

#[test]
fn linear_benchmarks_hit_published_gate_counts() {
    // graycode6/10/20, xor5, 6one135, 6one0246 have exact published gate
    // counts that a linear-friendly synthesizer must reproduce.
    // About 5 s of search in a test build, most of it on graycode20.
    let opts = SynthesisOptions::new().with_max_nodes(200_000);
    for (name, gates) in [
        ("xor5", 4),
        ("graycode6", 5),
        ("graycode10", 9),
        ("graycode20", 19),
        ("6one135", 5),
        ("6one0246", 6),
    ] {
        let b = benchmarks::find(name).unwrap();
        let result =
            synthesize(&b.to_multi_pprm(), &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            result.circuit.gate_count(),
            gates,
            "{name}: expected the published count"
        );
    }
}

#[test]
fn shifter_synthesis_verifies_by_sampling() {
    // shift10 (12 wires): verify the synthesized cascade on sampled words.
    let b = benchmarks::find("shift10").unwrap();
    let spec = b.to_multi_pprm();
    let opts = SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_gates(60)
        .with_stop_at_first(true)
        .with_max_nodes(2_000_000);
    let result = synthesize(&spec, &opts).expect("shift10 synthesizes");
    for i in 0..2048u64 {
        let x = i.wrapping_mul(0x9e37_79b9) & 0xfff;
        assert_eq!(result.circuit.apply(x), spec.eval(x), "at {x:#014b}");
    }
}

#[test]
fn mod_adders_add() {
    for (name, bits, modulus) in [
        ("mod5adder", 3u32, 5u64),
        ("mod15adder", 4, 15),
        ("mod32adder", 5, 32),
        ("mod64adder", 6, 64),
    ] {
        let b = benchmarks::find(name).unwrap();
        let perm = b.to_permutation().unwrap();
        for a in 0..modulus.min(8) {
            for v in 0..modulus.min(8) {
                let x = a << bits | v;
                let y = perm.apply(x);
                assert_eq!(y >> bits, a, "{name}: a must pass through");
                assert_eq!(y & ((1 << bits) - 1), (a + v) % modulus, "{name}: sum");
            }
        }
    }
}

#[test]
fn counting_benchmarks_count() {
    for (name, inputs) in [("rd32", 3u32), ("rd53", 5)] {
        let b = benchmarks::find(name).unwrap();
        let perm = b.to_permutation().unwrap();
        let output_bits = (u32::BITS - inputs.leading_zeros()) as usize;
        let garbage_outputs = b.width() - output_bits;
        for x in 0..1u64 << inputs {
            assert_eq!(
                perm.apply(x) >> garbage_outputs,
                u64::from(x.count_ones()),
                "{name} at {x}"
            );
        }
    }
}

#[test]
fn indicator_benchmarks_indicate() {
    type Indicator<'a> = &'a dyn Fn(u32) -> bool;
    let cases: [(&str, Indicator, usize); 4] = [
        ("majority5", &|w| w >= 3, 5),
        ("5one013", &|w| [0, 1, 3].contains(&w), 5),
        ("5one245", &|w| [2, 4, 5].contains(&w), 5),
        ("2of5", &|w| w == 2, 5),
    ];
    for (name, f, inputs) in cases {
        let b = benchmarks::find(name).unwrap();
        let perm = b.to_permutation().unwrap();
        let top = b.width() - 1;
        for x in 0..1u64 << inputs {
            assert_eq!(
                perm.apply(x) >> top,
                u64::from(f(x.count_ones())),
                "{name} at {x}"
            );
        }
    }
}

#[test]
fn example_suite_matches_published_specs() {
    let examples = benchmarks::example_suite();
    assert_eq!(examples.len(), 8);
    assert_eq!(
        examples[0].to_permutation().unwrap().as_slice(),
        &[1, 0, 3, 2, 5, 7, 4, 6],
    );
}
