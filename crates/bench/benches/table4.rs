//! Table IV: the reversible-logic benchmark suite — gate count and
//! quantum cost per benchmark, side by side with the paper's reported
//! results (RMRLS and the best published results from Maslov's page
//! [13]).
//!
//! Default: 200k nodes per benchmark (about 3 s on average);
//! `RMRLS_FULL=1` scales the budget to the paper's 60 s.

use rmrls_bench::{print_row, print_rule, table4_options};
use rmrls_core::synthesize;
use rmrls_spec::benchmarks::table4_suite;

/// Paper Table IV: (name, ours gates, ours cost, [13] gates, [13] cost);
/// `None` where the paper prints `—`.
#[allow(clippy::type_complexity)]
const PAPER: &[(&str, usize, u64, Option<usize>, Option<u64>)] = &[
    ("2of5", 20, 100, Some(15), Some(107)),
    ("rd32", 4, 8, Some(4), Some(8)),
    ("3_17", 6, 14, Some(6), Some(12)),
    ("4_49", 13, 61, Some(16), Some(58)),
    ("alu", 18, 114, None, None),
    ("rd53", 13, 116, Some(16), Some(75)),
    ("xor5", 4, 4, Some(4), Some(4)),
    ("4mod5", 5, 13, Some(5), Some(13)),
    ("5mod5", 11, 91, Some(10), Some(90)),
    ("ham3", 5, 9, Some(5), Some(7)),
    ("ham7", 24, 68, Some(23), Some(81)),
    ("hwb4", 15, 35, Some(17), Some(63)),
    ("decod24", 11, 31, None, None),
    ("shift10", 27, 1469, Some(19), Some(1198)),
    ("shift15", 30, 3500, None, None),
    ("shift28", 56, 14310, None, None),
    ("5one013", 19, 95, None, None),
    ("5one245", 20, 104, None, None),
    ("6one135", 5, 5, None, None),
    ("6one0246", 6, 6, None, None),
    ("majority3", 4, 16, None, None),
    ("majority5", 16, 104, None, None),
    ("graycode6", 5, 5, Some(5), Some(5)),
    ("graycode10", 9, 9, Some(9), Some(9)),
    ("graycode20", 19, 19, Some(19), Some(19)),
    ("mod5adder", 19, 127, Some(21), Some(125)),
    ("mod32adder", 15, 154, None, None),
    ("mod15adder", 10, 71, None, None),
    ("mod64adder", 26, 333, None, None),
];

fn opt_str<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

fn main() {
    let opts = table4_options();
    println!("# Table IV — reversible logic benchmarks");
    println!(
        "node budget {} per benchmark (paper: 60 s); verification by simulation\n",
        opts.max_nodes.unwrap()
    );

    let widths = [11usize, 6, 8, 6, 8, 11, 10, 10, 10];
    print_row(
        &[
            "benchmark".into(),
            "wires".into(),
            "garbage".into(),
            "gates".into(),
            "cost".into(),
            "paper gates".into(),
            "paper cost".into(),
            "[13] gates".into(),
            "[13] cost".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    for bench in table4_suite() {
        let paper = PAPER.iter().find(|r| r.0 == bench.name);
        let spec = bench.to_multi_pprm();
        let (gates, cost) = match synthesize(&spec, &opts) {
            Ok(r) => {
                // Verify: exhaustively up to 2^20 rows, sampled beyond.
                let circuit = &r.circuit;
                if bench.width() <= 20 {
                    for x in 0..1u64 << bench.width() {
                        assert_eq!(circuit.apply(x), spec.eval(x), "{}: row {x}", bench.name);
                    }
                } else {
                    for i in 0..4096u64 {
                        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << bench.width()) - 1);
                        assert_eq!(circuit.apply(x), spec.eval(x), "{}: row {x}", bench.name);
                    }
                }
                (Some(circuit.gate_count()), Some(circuit.quantum_cost()))
            }
            Err(_) => (None, None),
        };
        print_row(
            &[
                bench.name.into(),
                bench.width().to_string(),
                bench.garbage_inputs.to_string(),
                opt_str(gates),
                opt_str(cost),
                opt_str(paper.map(|r| r.1)),
                opt_str(paper.map(|r| r.2)),
                opt_str(paper.and_then(|r| r.3)),
                opt_str(paper.and_then(|r| r.4)),
            ],
            &widths,
        );
    }
    println!("\n'-' under gates/cost: not synthesized within the node budget (paper hit the same on ham#/hwb#/symm families of [13]).");
}
