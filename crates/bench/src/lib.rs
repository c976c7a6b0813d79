//! Shared infrastructure for the experiment harness that regenerates
//! every table and figure of the paper.
//!
//! Each `benches/tableN.rs` target is a plain `harness = false` binary
//! run by `cargo bench`: it generates the paper's workload, synthesizes
//! with the configuration the paper describes, and prints the same rows
//! the paper reports, side by side with the paper's published numbers.
//!
//! Sample sizes default to laptop scale; set `RMRLS_FULL=1` to run the
//! paper-scale workloads (50 000 four-variable functions, node budgets
//! scaled to the paper's 60–180 s per function, …). Every table header
//! states the sample size and node budget actually used.
//!
//! Every preset bounds a search by expanded nodes, not by wall-clock
//! time, so a table is the same on every host. Each reduced budget was
//! calibrated to about the time limit it replaces on a 2-vCPU host, and
//! each full-scale budget multiplies it by the paper's time over that
//! limit (EXPERIMENTS.md records the calibration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rmrls_core::{NoSolutionError, Pruning, Synthesis, SynthesisOptions};

/// Whether paper-scale workloads were requested via `RMRLS_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("RMRLS_FULL")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// Picks the reduced or full-scale value.
pub fn scaled(reduced: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        reduced
    }
}

/// The synthesis configuration for the Table I sweep (basic algorithm,
/// three variables). No three-variable search comes near its node
/// budget, so the full sweep keeps it.
pub fn table1_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_max_gates(20)
        .with_max_nodes(20_000)
}

/// The synthesis configuration of §V-B for four-variable functions:
/// greedy-family pruning, 40-gate cap, 60 s in the paper (50k nodes is
/// about 250 ms).
pub fn table2_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_gates(40)
        .with_max_nodes(scaled(50_000, 12_000_000) as u64)
}

/// The §V-B five-variable configuration: 60-gate cap, 180 s in the
/// paper (120k nodes is about 600 ms).
pub fn table3_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        // Deep solutions (30-50 gates) need the greedier heuristic
        // weight; see the AStar weight docs and the ablation bench.
        .with_astar_weight(1.0)
        .with_max_gates(60)
        .with_max_nodes(scaled(120_000, 36_000_000) as u64)
}

/// The benchmark-suite configuration (§V-C/V-D): 60 s in the paper
/// (200k nodes, the batch engine's per-job budget, is about 3 s per
/// benchmark on average across the suite).
pub fn table4_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_gates(150)
        .with_max_nodes(scaled(200_000, 4_000_000) as u64)
}

/// The scalability configuration (§V-E): greedy pruning, 60 s in the
/// paper, and "as soon as a solution was found we chose to move on"
/// (20k nodes is about 500 ms).
pub fn scalability_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_pruning(Pruning::Greedy)
        .with_max_gates(60)
        .with_stop_at_first(true)
        .with_max_nodes(scaled(20_000, 2_400_000) as u64)
}

/// A histogram over exact circuit sizes.
#[derive(Clone, Debug, Default)]
pub struct SizeHistogram {
    counts: Vec<usize>,
    total_gates: usize,
    samples: usize,
}

impl SizeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        SizeHistogram::default()
    }

    /// Records one synthesized circuit size.
    pub fn record(&mut self, gates: usize) {
        if self.counts.len() <= gates {
            self.counts.resize(gates + 1, 0);
        }
        self.counts[gates] += 1;
        self.total_gates += gates;
        self.samples += 1;
    }

    /// Number of circuits with exactly `gates` gates.
    pub fn count(&self, gates: usize) -> usize {
        self.counts.get(gates).copied().unwrap_or(0)
    }

    /// Largest recorded size.
    pub fn max_size(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Number of recorded circuits.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Mean circuit size.
    pub fn average(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_gates as f64 / self.samples as f64
        }
    }

    /// Counts bucketed into the ranges used by Tables V–VII
    /// (1–5, 6–10, …, 36–40).
    pub fn bucketed(&self, bucket_width: usize, num_buckets: usize) -> Vec<usize> {
        let mut out = vec![0usize; num_buckets];
        for (size, &count) in self.counts.iter().enumerate() {
            if size == 0 {
                continue;
            }
            let b = ((size - 1) / bucket_width).min(num_buckets - 1);
            out[b] += count;
        }
        out
    }
}

/// Appends one run-report line for a finished synthesis attempt — the
/// same JSON shape the CLI's `--report` flag writes (see
/// [`rmrls_core::run_report`] and DESIGN.md for the schema), so tooling
/// that parses CLI reports parses bench output unchanged.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_report_line<W: std::io::Write>(
    w: &mut W,
    options: &SynthesisOptions,
    result: &Result<Synthesis, NoSolutionError>,
) -> std::io::Result<()> {
    let (stats, circuit) = match result {
        Ok(r) => (&r.stats, Some(&r.circuit)),
        Err(e) => (&e.stats, None),
    };
    let json = rmrls_core::run_report(options, stats, circuit, None, 0);
    writeln!(w, "{json}")
}

/// Opens the JSON-lines run-report sink requested via the
/// `RMRLS_REPORT` environment variable, if any. Each synthesis attempt
/// of a table sweep appends one report line.
pub fn report_sink_from_env() -> Option<(String, std::io::BufWriter<std::fs::File>)> {
    let path = std::env::var("RMRLS_REPORT")
        .ok()
        .filter(|p| !p.is_empty())?;
    match std::fs::File::create(&path) {
        Ok(f) => Some((path, std::io::BufWriter::new(f))),
        Err(e) => {
            eprintln!("RMRLS_REPORT: cannot create {path}: {e}");
            None
        }
    }
}

/// Runs one of the scalability experiments (Tables V–VII, §V-E): for
/// each width 6..=16, generate random GT-library circuits with
/// `workload_gates` gates, simulate them into specifications, and
/// re-synthesize with the greedy option, moving on at the first solution
/// exactly as the paper does. Prints the bucketed size histogram and the
/// failure rate next to the paper's reported failure rate.
pub fn run_scalability_table(
    table_name: &str,
    workload_gates: usize,
    default_samples: usize,
    full_samples: usize,
    paper_failure_pct: &[(usize, f64)],
    seed: u64,
) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmrls_core::synthesize;
    use rmrls_spec::{random_circuit_spec, GateLibrary};

    let samples = scaled(default_samples, full_samples);
    let opts = scalability_options();
    println!("# {table_name} — random reversible circuits, max {workload_gates} gates");
    println!(
        "sample: {samples} specs per width (paper: {full_samples}), node budget {} (paper: 60s), greedy pruning, first solution\n",
        opts.max_nodes.unwrap()
    );

    let buckets = [
        "1-5", "6-10", "11-15", "16-20", "21-25", "26-30", "31-35", "36-40",
    ];
    let mut widths_fmt = vec![9usize];
    widths_fmt.extend(std::iter::repeat_n(7, buckets.len()));
    widths_fmt.extend([7, 7, 12]);
    let mut header: Vec<String> = vec!["variables".into()];
    header.extend(buckets.iter().map(|b| b.to_string()));
    header.extend(["failed".into(), "fail %".into(), "paper fail %".into()]);
    print_row(&header, &widths_fmt);
    print_rule(&widths_fmt);

    let mut report_sink = report_sink_from_env();
    let mut reports_written = 0u64;

    for num_vars in 6..=16usize {
        let mut rng = StdRng::seed_from_u64(seed ^ (num_vars as u64) << 8);
        let mut hist = SizeHistogram::new();
        let mut failures = 0usize;
        for i in 0..samples {
            let (spec, _circuit) =
                random_circuit_spec(num_vars, workload_gates, GateLibrary::Gt, &mut rng);
            let result = synthesize(&spec.to_multi_pprm(), &opts);
            if let Some((path, w)) = &mut report_sink {
                match write_report_line(w, &opts, &result) {
                    Ok(()) => reports_written += 1,
                    Err(e) => eprintln!("RMRLS_REPORT: write to {path} failed: {e}"),
                }
            }
            match result {
                Ok(r) => {
                    debug_assert_eq!(
                        r.circuit.to_permutation(),
                        spec.as_slice(),
                        "width {num_vars} sample {i}"
                    );
                    hist.record(r.circuit.gate_count());
                }
                Err(_) => failures += 1,
            }
        }
        let bucketed = hist.bucketed(5, buckets.len());
        let mut row: Vec<String> = vec![num_vars.to_string()];
        row.extend(bucketed.iter().map(|c| c.to_string()));
        row.push(failures.to_string());
        row.push(format!("{:.1}", 100.0 * failures as f64 / samples as f64));
        row.push(
            paper_failure_pct
                .iter()
                .find(|(v, _)| *v == num_vars)
                .map(|(_, p)| format!("{p:.1}"))
                .unwrap_or_default(),
        );
        print_row(&row, &widths_fmt);
    }

    if let Some((path, w)) = &mut report_sink {
        use std::io::Write;
        if let Err(e) = w.flush() {
            eprintln!("RMRLS_REPORT: flushing {path} failed: {e}");
        } else {
            println!("\nwrote {reports_written} run-report lines to {path}");
        }
    }
}

/// Prints a Markdown-ish table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!(" {cell:>w$} |"));
    }
    println!("{line}");
}

/// Prints a rule under a header.
pub fn print_rule(widths: &[usize]) {
    let mut line = String::from("|");
    for w in widths {
        line.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_average() {
        let mut h = SizeHistogram::new();
        for g in [3, 3, 5, 7] {
            h.record(g);
        }
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.max_size(), 7);
        assert_eq!(h.samples(), 4);
        assert!((h.average() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn bucketing_matches_table5_ranges() {
        let mut h = SizeHistogram::new();
        for g in [1, 5, 6, 10, 11, 40, 60] {
            h.record(g);
        }
        let b = h.bucketed(5, 8);
        assert_eq!(b[0], 2, "sizes 1-5");
        assert_eq!(b[1], 2, "sizes 6-10");
        assert_eq!(b[2], 1, "sizes 11-15");
        assert_eq!(b[7], 2, "sizes 36+ clamp into the last bucket");
    }

    #[test]
    fn scaled_respects_env() {
        // Not set in the test environment by default.
        if !full_scale() {
            assert_eq!(scaled(10, 100), 10);
        }
    }

    #[test]
    fn report_line_matches_cli_report_shape() {
        use rmrls_core::synthesize;
        use rmrls_obs::Json;
        use rmrls_spec::Permutation;

        // Figure 1 example: a small spec every preset solves instantly.
        let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap();
        let opts = table1_options();
        let result = synthesize(&spec.to_multi_pprm(), &opts);
        assert!(result.is_ok());

        let mut buf = Vec::new();
        write_report_line(&mut buf, &opts, &result).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let json = Json::parse(line.trim()).expect("report line must be valid JSON");

        let obj = match &json {
            Json::Obj(pairs) => pairs,
            other => panic!("expected object, got {other:?}"),
        };
        let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(get("schema_version"), Some(&Json::Num(7.0)));
        assert_eq!(get("solved"), Some(&Json::Bool(true)));
        assert!(matches!(get("circuit"), Some(Json::Obj(_))));
        assert!(matches!(get("stats"), Some(Json::Obj(_))));
        // Bench reports carry no metrics registry.
        assert_eq!(get("metrics"), Some(&Json::Null));

        // A failed attempt reports a null circuit on the same schema.
        let tight = table1_options().with_max_gates(0);
        let failed = synthesize(&spec.to_multi_pprm(), &tight);
        assert!(failed.is_err());
        let mut buf = Vec::new();
        write_report_line(&mut buf, &tight, &failed).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let json = Json::parse(line.trim()).unwrap();
        let Json::Obj(pairs) = json else { panic!() };
        let circuit = pairs
            .iter()
            .find(|(k, _)| k == "circuit")
            .map(|(_, v)| v.clone());
        assert_eq!(circuit, Some(Json::Null));
    }

    #[test]
    fn option_presets_differ() {
        assert_eq!(table2_options().max_gates, Some(40));
        assert_eq!(table3_options().max_gates, Some(60));
        assert!(scalability_options().stop_at_first);
    }
}
