//! `rmrls trace`: summarize a flight-recorder dump.

use std::fmt::Write;

use rmrls_obs::{chrome_trace_json, Json, RecorderSnapshot, TraceKind, TraceRecord};

use crate::{err, write_file, CliResult};

/// Runs `rmrls trace`: top phases, record kinds, anomaly tally and the
/// records before each anomaly; with `chrome_out`, the Chrome export.
pub fn run_trace(dump: &str, chrome_out: Option<&str>, out: &mut dyn Write) -> CliResult {
    let text =
        std::fs::read_to_string(dump).map_err(|e| err(format!("cannot read {dump}: {e}")))?;
    let json = Json::parse(&text).map_err(|e| err(format!("cannot parse {dump}: {e}")))?;
    let snapshot = RecorderSnapshot::from_json(&json).map_err(|e| err(format!("{dump}: {e}")))?;
    writeln!(out, "trace: {dump}")?;
    if let Some(job) = json.get("job").and_then(Json::as_str) {
        writeln!(out, "job: {job}")?;
    }
    if let Some(trigger) = json.get("trigger").and_then(Json::as_str) {
        writeln!(out, "trigger: {trigger}")?;
    }
    let span_micros = snapshot.records.last().map(|r| r.ts_micros).unwrap_or(0);
    writeln!(
        out,
        "records: {} ({} evicted)   anomalies: {}   span: {:.3} ms",
        snapshot.records.len(),
        snapshot.dropped,
        snapshot.anomalies,
        span_micros as f64 / 1e3
    )?;

    let phases = phase_spans(&snapshot.records);
    if !phases.is_empty() {
        writeln!(out, "top phases:")?;
        for (name, calls, micros) in &phases {
            let ms = *micros as f64 / 1e3;
            writeln!(out, "  {name:<14} {ms:>10.3} ms  x{calls}")?;
        }
    }

    // Record-kind census in first-seen order.
    let kinds = tally(snapshot.records.iter().map(|r| (r.kind.tag(), 0)));
    if !kinds.is_empty() {
        let census: Vec<String> = kinds.iter().map(|(t, n, _)| format!("{t} x{n}")).collect();
        writeln!(out, "record kinds: {}", census.join("  "))?;
    }

    // Anomaly tally: kind @ site occurrence counts in first-seen order —
    // the one-glance answer to "what went wrong, and how often" for an
    // .anomaly.json dump.
    let anomalies = tally(snapshot.records.iter().filter_map(|r| match &r.kind {
        TraceKind::Anomaly { kind, site } => Some((format!("{kind} @ {site}"), 0)),
        _ => None,
    }));
    if !anomalies.is_empty() {
        writeln!(out, "anomaly tally:")?;
        for (key, n, _) in &anomalies {
            writeln!(out, "  {key} x{n}")?;
        }
    }

    // Each anomaly with the records leading up to it — the trailing
    // context that names the failing site.
    for (i, r) in snapshot.records.iter().enumerate() {
        let TraceKind::Anomaly { kind, site } = &r.kind else {
            continue;
        };
        let ms = r.ts_micros as f64 / 1e3;
        writeln!(out, "anomaly at {ms:.3} ms: {kind} @ {site}")?;
        for prev in &snapshot.records[i.saturating_sub(3)..i] {
            let (ms, tag) = (prev.ts_micros as f64 / 1e3, prev.kind.tag());
            writeln!(out, "  before: [{ms:.3} ms] {tag}")?;
        }
    }

    if let Some(path) = chrome_out {
        write_file(out, path, &format!("{}\n", chrome_trace_json(&snapshot)))?;
    }
    Ok(())
}

/// `(key, occurrences, sum of values)` per key, in first-seen order.
fn tally<K: PartialEq>(items: impl Iterator<Item = (K, u64)>) -> Vec<(K, u64, u64)> {
    let mut totals: Vec<(K, u64, u64)> = Vec::new();
    for (key, value) in items {
        match totals.iter_mut().find(|(k, ..)| *k == key) {
            Some(t) => (t.1, t.2) = (t.1 + 1, t.2 + value),
            None => totals.push((key, 1, value)),
        }
    }
    totals
}

/// Folds phase-enter/exit record pairs into per-phase totals
/// `(name, spans, total_micros)`, sorted by total descending. Unmatched
/// enters (a dump cut short by eviction or a panic) are ignored rather
/// than failing the summary.
fn phase_spans(records: &[TraceRecord]) -> Vec<(String, u64, u64)> {
    let mut stack: Vec<(&str, u64)> = Vec::new();
    let mut spans = Vec::new();
    for r in records {
        match &r.kind {
            TraceKind::PhaseEnter { phase } => stack.push((phase, r.ts_micros)),
            TraceKind::PhaseExit { phase } => {
                if let Some(pos) = stack.iter().rposition(|(p, _)| p == phase) {
                    let (_, started) = stack.remove(pos);
                    spans.push((phase.clone(), r.ts_micros.saturating_sub(started)));
                }
            }
            _ => {}
        }
    }
    let mut totals = tally(spans.into_iter());
    totals.sort_by_key(|t| std::cmp::Reverse(t.2));
    totals
}
