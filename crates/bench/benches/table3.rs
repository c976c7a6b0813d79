//! Table III: circuit-size distribution of random five-variable
//! reversible functions (§V-B: 3 000 samples, 180 s limit, 60-gate cap;
//! 194 of 3 000 = 6.5 % failed in the paper).
//!
//! Default: 60 samples with a 120k-node budget (about 600 ms);
//! `RMRLS_FULL=1` for the paper-scale run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rmrls_bench::{print_row, print_rule, scaled, table3_options, SizeHistogram};
use rmrls_core::synthesize;
use rmrls_spec::random_permutation;

/// Paper Table III: (circuit size, number of circuits) for 3 000 samples.
const PAPER: &[(usize, usize)] = &[
    (28, 1),
    (29, 3),
    (30, 8),
    (31, 29),
    (32, 45),
    (33, 82),
    (34, 130),
    (35, 202),
    (36, 206),
    (37, 310),
    (38, 344),
    (39, 307),
    (40, 304),
    (41, 297),
    (42, 176),
    (43, 151),
    (44, 117),
    (45, 47),
    (46, 27),
    (47, 15),
    (48, 4),
    (51, 1),
];

fn main() {
    let samples = scaled(60, 3_000);
    let opts = table3_options();
    println!("# Table III — random 5-variable reversible functions");
    println!(
        "sample: {samples} functions, node budget {}, cap {} gates (paper: 3000 @ 180s, 6.5% failed)\n",
        opts.max_nodes.unwrap(),
        opts.max_gates.unwrap()
    );

    let mut rng = StdRng::seed_from_u64(0x5151);
    let mut hist = SizeHistogram::new();
    let mut failures = 0usize;
    for i in 0..samples {
        let spec = random_permutation(5, &mut rng);
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

    let widths = [12usize, 15, 17];
    print_row(
        &[
            "circuit size".into(),
            "no. of circuits".into(),
            "paper (of 3000)".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    let paper_max = PAPER.iter().map(|r| r.0).max().unwrap();
    for size in 20..=hist.max_size().max(paper_max) {
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
        "synthesized {}/{samples}, failed {failures} ({:.1}%); average size {:.2} (paper: 6.5% failed, sizes centered 37-41)",
        hist.samples(),
        100.0 * failures as f64 / samples as f64,
        hist.average()
    );
}
