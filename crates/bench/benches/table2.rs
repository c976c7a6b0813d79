//! Table II: circuit-size distribution of random four-variable
//! reversible functions (§V-B: 50 000 samples, 60 s limit, 40-gate cap,
//! greedy-family pruning; all synthesized).
//!
//! Default: 300 samples with a 50k-node budget (about 250 ms);
//! `RMRLS_FULL=1` for the paper-scale run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rmrls_bench::{print_row, print_rule, scaled, table2_options, SizeHistogram};
use rmrls_core::synthesize;
use rmrls_spec::random_permutation;

/// Paper Table II: (circuit size, number of circuits) for 50 000 samples.
const PAPER: &[(usize, usize)] = &[
    (7, 3),
    (8, 34),
    (9, 159),
    (10, 604),
    (11, 1753),
    (12, 3917),
    (13, 6726),
    (14, 8704),
    (15, 9053),
    (16, 7665),
    (17, 5435),
    (18, 3225),
    (19, 1631),
    (20, 728),
    (21, 264),
    (22, 77),
    (23, 20),
    (24, 1),
];

fn main() {
    let samples = scaled(300, 50_000);
    let opts = table2_options();
    println!("# Table II — random 4-variable reversible functions");
    println!(
        "sample: {samples} functions, node budget {}, cap {} gates (paper: 50000 @ 60s)\n",
        opts.max_nodes.unwrap(),
        opts.max_gates.unwrap()
    );

    let mut rng = StdRng::seed_from_u64(0x4242);
    let mut hist = SizeHistogram::new();
    let mut failures = 0usize;
    for i in 0..samples {
        let spec = random_permutation(4, &mut rng);
        match synthesize(&spec.to_multi_pprm(), &opts) {
            Ok(r) => {
                assert_eq!(
                    r.circuit.to_permutation(),
                    spec.as_slice(),
                    "sample {i}: invalid circuit"
                );
                hist.record(r.circuit.gate_count());
            }
            Err(_) => failures += 1,
        }
    }

    let widths = [12usize, 15, 18];
    print_row(
        &[
            "circuit size".into(),
            "no. of circuits".into(),
            "paper (of 50000)".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    let paper_max = PAPER.iter().map(|r| r.0).max().unwrap();
    for size in 1..=hist.max_size().max(paper_max) {
        let paper = PAPER
            .iter()
            .find(|r| r.0 == size)
            .map(|r| r.1.to_string())
            .unwrap_or_default();
        if hist.count(size) == 0 && paper.is_empty() {
            continue;
        }
        print_row(
            &[size.to_string(), hist.count(size).to_string(), paper],
            &widths,
        );
    }
    print_rule(&widths);
    println!(
        "synthesized {}/{samples} ({} failed); average size {:.2} (paper: all 50000 synthesized)",
        hist.samples(),
        failures,
        hist.average()
    );
}
