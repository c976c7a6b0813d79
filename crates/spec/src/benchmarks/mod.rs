//! The benchmark functions evaluated in the paper (§V-C, §V-D, Table IV),
//! including the explicit specifications the paper publishes for its new
//! benchmarks and deterministic reconstructions of the literature
//! benchmarks from their stated definitions.

mod arithmetic;
mod coding;
mod counting;
mod literature;

use std::fmt;

use rmrls_pprm::MultiPprm;

use crate::Permutation;

pub use arithmetic::{graycode, mod_adder, shifter};
pub use coding::{decod24, hamming_encoder, hwb};
pub use counting::{count_ones_benchmark, majority, ones_indicator, two_of_five};
pub use literature::paper_example;

/// How a benchmark's reversible specification is stated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BenchmarkSpec {
    /// An explicit permutation (feasible widths).
    Perm(Permutation),
    /// A symbolic multi-output PPRM expansion (used for wide linear /
    /// structured functions such as `graycode20` and `shift28`, whose
    /// truth tables would be huge but whose expansions are tiny).
    Pprm(MultiPprm),
}

/// A named benchmark function with the wire bookkeeping reported in
/// Table IV.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Benchmark {
    /// Benchmark name as used in the paper (e.g. `"rd53"`).
    pub name: &'static str,
    /// One-line description of the function.
    pub description: &'static str,
    /// Number of real (non-constant) inputs.
    pub real_inputs: usize,
    /// Number of constant garbage inputs.
    pub garbage_inputs: usize,
    /// The reversible specification.
    pub spec: BenchmarkSpec,
}

impl Benchmark {
    /// Circuit width (real + garbage inputs).
    pub fn width(&self) -> usize {
        match &self.spec {
            BenchmarkSpec::Perm(p) => p.num_vars(),
            BenchmarkSpec::Pprm(m) => m.num_vars(),
        }
    }

    /// The multi-output PPRM expansion — the synthesis input.
    pub fn to_multi_pprm(&self) -> MultiPprm {
        match &self.spec {
            BenchmarkSpec::Perm(p) => p.to_multi_pprm(),
            BenchmarkSpec::Pprm(m) => m.clone(),
        }
    }

    /// The explicit permutation, when the width allows tabulation
    /// (`width <= 20`); `None` for wider symbolic benchmarks.
    pub fn to_permutation(&self) -> Option<Permutation> {
        match &self.spec {
            BenchmarkSpec::Perm(p) => Some(p.clone()),
            BenchmarkSpec::Pprm(m) if m.num_vars() <= 20 => {
                Some(Permutation::from_vec(m.to_permutation()).expect("spec is reversible"))
            }
            BenchmarkSpec::Pprm(_) => None,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} wires = {} real + {} garbage): {}",
            self.name,
            self.width(),
            self.real_inputs,
            self.garbage_inputs,
            self.description
        )
    }
}

/// The full Table IV benchmark suite, in the paper's row order.
pub fn table4_suite() -> Vec<Benchmark> {
    vec![
        two_of_five(),
        count_ones_benchmark("rd32", 3),
        literature::three_17(),
        literature::four_49(),
        literature::alu(),
        count_ones_benchmark("rd53", 5),
        counting::xor_parity("xor5", 5, false),
        arithmetic::mod_k_indicator("4mod5", 4, 5),
        arithmetic::mod_k_indicator("5mod5", 5, 5),
        hamming_encoder("ham3", 3),
        hamming_encoder("ham7", 7),
        hwb("hwb4", 4),
        decod24(),
        shifter("shift10", 10),
        shifter("shift15", 15),
        shifter("shift28", 28),
        ones_indicator("5one013", 5, &[0, 1, 3]),
        ones_indicator("5one245", 5, &[2, 4, 5]),
        counting::xor_parity("6one135", 6, false),
        counting::xor_parity("6one0246", 6, true),
        majority("majority3", 3),
        majority("majority5", 5),
        graycode("graycode6", 6),
        graycode("graycode10", 10),
        graycode("graycode20", 20),
        mod_adder("mod5adder", 3, 5),
        mod_adder("mod32adder", 5, 32),
        mod_adder("mod15adder", 4, 15),
        mod_adder("mod64adder", 6, 64),
    ]
}

/// The paper's worked examples 1–8 (§V-C) as named benchmarks
/// (`"ex1"`..`"ex8"`).
pub fn example_suite() -> Vec<Benchmark> {
    (1..=8).map(paper_example).collect()
}

/// The larger instances of the literature families the paper cites from
/// \[13\] (§V-D notes RMRLS runs out of memory on some of these — they are
/// provided so that limit is reproducible too).
pub fn extended_suite() -> Vec<Benchmark> {
    vec![
        hwb("hwb5", 5),
        hwb("hwb6", 6),
        hwb("hwb7", 7),
        hwb("hwb8", 8),
        count_ones_benchmark("rd73", 7),
        count_ones_benchmark("rd84", 8),
        hamming_encoder("ham15", 15),
        graycode("graycode12", 12),
        mod_adder("mod128adder", 7, 128),
        shifter("shift20", 20),
    ]
}

/// Looks up a benchmark by name across the Table IV suite, the worked
/// examples, and the extended literature suite.
pub fn find(name: &str) -> Option<Benchmark> {
    table4_suite()
        .into_iter()
        .chain(example_suite())
        .chain(extended_suite())
        .find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_table4_rows() {
        let suite = table4_suite();
        assert_eq!(suite.len(), 29);
        let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
        for expected in [
            "2of5",
            "rd32",
            "3_17",
            "4_49",
            "alu",
            "rd53",
            "xor5",
            "4mod5",
            "5mod5",
            "ham3",
            "ham7",
            "hwb4",
            "decod24",
            "shift10",
            "shift15",
            "shift28",
            "5one013",
            "5one245",
            "6one135",
            "6one0246",
            "majority3",
            "majority5",
            "graycode6",
            "graycode10",
            "graycode20",
            "mod5adder",
            "mod32adder",
            "mod15adder",
            "mod64adder",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn widths_match_table4() {
        // Table IV: width = real + garbage inputs.
        let expect = [
            ("2of5", 5, 2),
            ("rd32", 3, 1),
            ("3_17", 3, 0),
            ("4_49", 4, 0),
            ("alu", 5, 0),
            ("rd53", 5, 2),
            ("xor5", 5, 0),
            ("4mod5", 4, 1),
            ("5mod5", 5, 1),
            ("hwb4", 4, 0),
            // Example 11 counts 2 real + 2 garbage inputs (Table IV folds
            // them into "4 real"); we keep the Example 11 accounting.
            ("decod24", 2, 2),
            ("shift10", 12, 0),
            ("shift15", 17, 0),
            ("shift28", 30, 0),
            ("5one013", 5, 0),
            ("5one245", 5, 0),
            ("6one135", 6, 0),
            ("6one0246", 6, 0),
            ("majority3", 3, 0),
            ("majority5", 5, 0),
            ("graycode6", 6, 0),
            ("graycode10", 10, 0),
            ("graycode20", 20, 0),
            ("mod5adder", 6, 0),
            ("mod32adder", 10, 0),
            ("mod15adder", 8, 0),
            ("mod64adder", 12, 0),
        ];
        for (name, real, garbage) in expect {
            let b = find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(b.real_inputs, real, "{name} real inputs");
            assert_eq!(b.garbage_inputs, garbage, "{name} garbage inputs");
            assert_eq!(b.width(), real + garbage, "{name} width");
        }
    }

    #[test]
    fn every_benchmark_spec_is_reversible() {
        for b in table4_suite().into_iter().chain(example_suite()) {
            if b.width() <= 14 {
                let m = b.to_multi_pprm();
                let perm = m.to_permutation();
                assert!(
                    Permutation::from_vec(perm).is_ok(),
                    "{} spec is not reversible",
                    b.name
                );
            }
        }
    }

    #[test]
    fn find_unknown_is_none() {
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn extended_suite_is_reversible_and_named() {
        let ext = extended_suite();
        assert_eq!(ext.len(), 10);
        for b in &ext {
            if b.width() <= 12 {
                let perm = b.to_multi_pprm().to_permutation();
                assert!(
                    Permutation::from_vec(perm).is_ok(),
                    "{} must be reversible",
                    b.name
                );
            }
        }
        assert!(find("hwb6").is_some());
        assert!(find("rd84").is_some());
    }

    #[test]
    fn rd73_counts_ones_of_seven() {
        let b = find("rd73").unwrap();
        let p = b.to_permutation().unwrap();
        // 3 real outputs in the top bits.
        let garbage = b.width() - 3;
        for x in 0..128u64 {
            assert_eq!(p.apply(x) >> garbage, u64::from(x.count_ones()));
        }
    }

    #[test]
    fn display_summarizes() {
        let s = find("rd32").unwrap().to_string();
        assert!(s.contains("rd32") && s.contains("4 wires"), "{s}");
    }
}
