//! Pins Table I's RMRLS NCT column over the default sample: every 20th
//! of the 40 320 three-variable functions by rank (2 016 functions),
//! synthesized with `table1_options`. The options bound each search by
//! nodes, so the histogram and its average are the same on every host;
//! a change to the search that moves either shows up as a diff against
//! `golden/table1_rmrls_nct.txt`.

use std::fmt::Write;

use rmrls_bench::{table1_options, SizeHistogram};
use rmrls_core::synthesize;
use rmrls_spec::Permutation;

const GOLDEN: &str = include_str!("golden/table1_rmrls_nct.txt");

fn rmrls_nct_column() -> String {
    let opts = table1_options();
    let mut hist = SizeHistogram::new();
    for rank in (0..40320u128).step_by(20) {
        let spec = Permutation::from_rank(3, rank);
        let result = synthesize(&spec.to_multi_pprm(), &opts)
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert_eq!(
            result.circuit.to_permutation(),
            spec.as_slice(),
            "rank {rank}"
        );
        hist.record(result.circuit.gate_count());
    }
    let mut text = String::from("# gates functions (Table I, RMRLS NCT, every 20th rank)\n");
    for gates in (0..=hist.max_size()).rev() {
        writeln!(text, "{gates} {}", hist.count(gates)).unwrap();
    }
    writeln!(text, "avg {:.2}", hist.average()).unwrap();
    text
}

#[test]
fn table1_rmrls_column_matches_its_golden() {
    assert_eq!(rmrls_nct_column(), GOLDEN);
}
