//! The one-shot subcommands: `mmd`, `info`, `analyze`, `simplify`, `embed`, `benchmarks`.

use std::fmt::Write;
use std::time::{Duration, Instant};

use rmrls_baselines::{mmd_synthesize, MmdVariant};
use rmrls_circuit::{analyze, render, simplify, tfc};
use rmrls_core::synthesize_embedded;
use rmrls_engine::BatchOptions;
use rmrls_spec::{benchmarks, TruthTable};

use crate::EXPLICIT_WIRES;
use crate::{err, explicit_permutation, load_tfc, report, write_file, CliResult, SpecSource};

/// Runs `rmrls benchmarks`: the Table IV suite, then the examples.
pub fn run_benchmarks(out: &mut dyn Write) -> CliResult {
    for b in [benchmarks::table4_suite(), benchmarks::example_suite()].concat() {
        writeln!(out, "{b}")?;
    }
    Ok(())
}

/// Runs `rmrls mmd`: the MMD transformation baseline.
pub fn run_mmd(source: &SpecSource, unidirectional: bool, out: &mut dyn Write) -> CliResult {
    let (pprm, name) = source.resolve()?;
    let perm = explicit_permutation(&pprm, "mmd needs an explicit truth table (≤ 16 wires)")?;
    let variant = if unidirectional {
        MmdVariant::Unidirectional
    } else {
        MmdVariant::Bidirectional
    };
    Ok(report(&mmd_synthesize(&perm, variant), &name, out)?)
}

/// Runs `rmrls embed`: embeds an irreversible table, then synthesizes it.
pub fn run_embed(
    table_path: &str,
    outputs: usize,
    wall_clock: Option<Duration>,
    out: &mut dyn Write,
) -> CliResult {
    let text = std::fs::read_to_string(table_path)
        .map_err(|e| err(format!("cannot read {table_path}: {e}")))?;
    let word = |w: &str| {
        w.parse()
            .map_err(|e| err(format!("bad output word '{w}': {e}")))
    };
    let rows: Vec<u64> = text
        .split_whitespace()
        .map(word)
        .collect::<CliResult<_>>()?;
    let n = rows.len();
    if !n.is_power_of_two() {
        return Err(err(format!("table has {n} rows; need a power of two")));
    }
    if !(1..=64).contains(&outputs) {
        return Err(err("--outputs must be between 1 and 64"));
    }
    let fits = |r: u64| r.checked_shr(outputs as u32).unwrap_or(0) == 0;
    if let Some(x) = rows.iter().position(|&r| !fits(r)) {
        return Err(err(format!("row {x} has more than {outputs} output bits")));
    }
    let inputs = n.trailing_zeros() as usize;
    let table = TruthTable::from_rows(inputs, outputs, rows);
    // The embedding is an explicit table over all its wires: the outputs
    // plus ⌈log₂ p⌉ garbage lines for the largest output multiplicity p
    // (§II-A). Like every other explicit table here it is capped at 16.
    let p = table.max_output_multiplicity();
    let width = inputs.max(outputs + (usize::BITS - (p - 1).leading_zeros()) as usize);
    if width > EXPLICIT_WIRES {
        return Err(err(format!(
            "the embedding needs {width} wires; embed is limited to {EXPLICIT_WIRES}"
        )));
    }
    // Each completion search gets a batch job's node budget, so the
    // portfolio is bounded with or without --time-limit.
    let mut opts = BatchOptions::default().synthesis;
    if let Some(deadline) = wall_clock.and_then(|d| Instant::now().checked_add(d)) {
        opts = opts.with_deadline(deadline);
    }
    let best = synthesize_embedded(&table, &opts).map_err(|e| err(e.to_string()))?;
    writeln!(
        out,
        "embedding ({:?}): {} wires = {} real + {} constant inputs; {} garbage outputs",
        best.strategy,
        best.embedding.width(),
        best.embedding.real_inputs,
        best.embedding.garbage_inputs,
        best.embedding.garbage_outputs
    )?;
    Ok(report(&best.synthesis.circuit, table_path, out)?)
}

/// Runs `rmrls info`: costs and a diagram of a TFC circuit.
pub fn run_info(tfc_path: &str, out: &mut dyn Write) -> CliResult {
    let circuit = load_tfc(tfc_path)?;
    report(&circuit, tfc_path, out)?;
    out.write_str(&render(&circuit))?;
    Ok(())
}

/// Runs `rmrls analyze`: gate-size histogram, depth and idle wires.
pub fn run_analyze(tfc_path: &str, out: &mut dyn Write) -> CliResult {
    let stats = analyze(&load_tfc(tfc_path)?);
    writeln!(out, "{tfc_path}: {stats}")?;
    for (size, count) in stats.gate_size_histogram.iter().enumerate() {
        if *count > 0 {
            writeln!(out, "  size-{size} gates: {count}")?;
        }
    }
    writeln!(out, "  idle wires: {}", stats.idle_wires())?;
    Ok(())
}

/// Runs `rmrls simplify`, writing the result to `tfc_out` or stdout.
pub fn run_simplify(tfc_path: &str, tfc_out: Option<&str>, out: &mut dyn Write) -> CliResult {
    let mut circuit = load_tfc(tfc_path)?;
    let before = circuit.gate_count();
    let removed = simplify(&mut circuit);
    writeln!(
        out,
        "{before} gates -> {} (removed {removed})",
        circuit.gate_count()
    )?;
    match tfc_out {
        Some(path) => write_file(out, path, &tfc::write(&circuit)),
        None => Ok(out.write_str(&tfc::write(&circuit))?),
    }
}
