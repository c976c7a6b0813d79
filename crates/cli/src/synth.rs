//! `rmrls synth`: one search with its observability files and telemetry.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use rmrls_circuit::{real, render, simplify_with_stats, tfc, Circuit};
use rmrls_core::{
    run_report, synthesize_bidirectional, synthesize_with_observer, FlightRecorder, FredkinMode,
    Observer, Progress, ProgressFn, Pruning, SearchStats, SynthesisOptions,
};
use rmrls_engine::BatchTelemetry;
use rmrls_obs::{chrome_trace_json, prometheus_text, JsonLinesSink};

use crate::{err, explicit_permutation, live_board, report, write_file, CliResult, Command, Flags};

/// Builds `Command::Synth`, rejecting flag combinations that would
/// interleave on stderr or instrument two searches.
pub fn parse(flags: &Flags) -> CliResult<Command> {
    let pruning = flags.parse_with("--pruning", |v| match v {
        "greedy" => Ok(Pruning::Greedy),
        "exhaustive" => Ok(Pruning::Exhaustive),
        other => other
            .strip_prefix("top")
            .and_then(|k| k.parse().ok())
            .map(Pruning::TopK)
            .ok_or_else(|| err(format!("bad --pruning value '{other}'"))),
    })?;
    let wall_clock = flags.seconds("--time-limit")?;
    let max_gates = flags.number("--max-gates")?;
    let fredkin = flags.parse_with("--fredkin", |v| match v {
        "swap" => Ok(FredkinMode::SwapOnly),
        "full" => Ok(FredkinMode::Full),
        other => Err(err(format!("bad --fredkin value '{other}'"))),
    })?;
    let bidirectional = flags.has("--bidi");
    let progress = flags.has("--progress");
    let log_json = flags.string("--log-json");
    let trace = flags.string("--trace");
    let trace_out = flags.string("--trace-out");
    if progress && log_json.as_deref() == Some("-") {
        return Err(err(
            "--progress and '--log-json -' both write to stderr; pick one",
        ));
    }
    if bidirectional && (progress || log_json.is_some()) {
        return Err(err(
            "--progress/--log-json instrument a single search; drop --bidi \
             (--report works with --bidi)",
        ));
    }
    if bidirectional && (trace.is_some() || trace_out.is_some()) {
        return Err(err(
            "--trace/--trace-out record a single search; drop --bidi",
        ));
    }
    Ok(Command::Synth {
        source: flags.spec_source()?,
        pruning: pruning.unwrap_or(Pruning::Exhaustive),
        wall_clock,
        max_gates,
        bidirectional,
        fredkin: fredkin.unwrap_or(FredkinMode::Off),
        simplify: flags.has("--simplify"),
        render: flags.has("--render"),
        tfc_out: flags.string("--tfc-out"),
        real_out: flags.string("--real-out"),
        report: flags.string("--report"),
        progress,
        log_json,
        trace,
        trace_out,
        metrics_out: flags.string("--metrics-out"),
        metrics_addr: flags.string("--metrics-addr"),
    })
}

/// Runs `rmrls synth`.
pub fn run_synth(command: Command, out: &mut dyn Write) -> CliResult {
    let Command::Synth {
        source,
        pruning,
        wall_clock,
        max_gates,
        bidirectional,
        fredkin,
        simplify,
        render: do_render,
        tfc_out,
        real_out,
        report: report_path,
        progress,
        log_json,
        trace,
        trace_out,
        metrics_out,
        metrics_addr,
    } = command
    else {
        unreachable!("run dispatches only synth here")
    };
    let (pprm, name) = source.resolve()?;
    let mut opts = SynthesisOptions::new()
        .with_pruning(pruning)
        .with_fredkin_substitutions(fredkin);
    opts.max_gates = max_gates;
    let files = RunFiles {
        // One recorder serves both the raw dump and the Chrome export;
        // absent both flags the search pays nothing.
        recorder: (trace.is_some() || trace_out.is_some())
            .then(FlightRecorder::with_default_budget),
        report: report_path,
        trace,
        trace_out,
        metrics_out,
    };
    let mut obs = files.observer(log_json.as_deref())?;
    // Live telemetry: a one-job status board plus latency histograms,
    // served over HTTP while the search runs. Observation-only — the
    // progress hook writes slot atomics and a histogram, so the
    // synthesized circuit is byte-identical with or without
    // --metrics-addr.
    let board = live_board(metrics_addr.as_deref(), || vec![name.clone()])?;
    let telemetry = board.as_ref().map(|(t, _)| t);
    if progress || telemetry.is_some() {
        obs = obs.with_progress(progress_hook(progress, telemetry));
    }
    if let Some(t) = telemetry {
        t.jobs.mark_running(0);
    }
    let job_started = Instant::now();
    // A limit too far off for the clock to represent is no limit.
    if let Some(deadline) = wall_clock.and_then(|d| job_started.checked_add(d)) {
        opts = opts.with_deadline(deadline);
    }
    let outcome = if bidirectional {
        let too_wide = "--bidi needs an explicit truth table (<= 16 wires)";
        synthesize_bidirectional(&explicit_permutation(&pprm, too_wide)?, &opts)
    } else {
        synthesize_with_observer(&pprm, &opts, &mut obs)
    };
    if let Some(t) = telemetry {
        t.job_seconds.record(job_started.elapsed().as_secs_f64());
        match &outcome {
            Ok(_) => t.jobs.mark_done(0, Some(rmrls_engine::SolveTier::Rmrls)),
            Err(_) => t.jobs.mark_failed(0),
        }
    }
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            // Failed runs still get their files (stop reason and
            // counters are exactly what post-mortems need).
            files.write(&opts, &e.stats, None, &obs, out)?;
            return Err(err(e.to_string()));
        }
    };
    let mut circuit = result.circuit;
    if simplify {
        let s = simplify_with_stats(&mut circuit);
        writeln!(
            out,
            "template simplification removed {} gates \
             ({} cancellations, {} merges, {} passes)",
            s.removed(),
            s.cancellations,
            s.merges,
            s.passes
        )?;
    }
    files.write(&opts, &result.stats, Some(&circuit), &obs, out)?;
    report(&circuit, &name, out)?;
    writeln!(out, "search: {}", result.stats)?;
    if do_render {
        out.write_str(&render(&circuit))?;
    }
    if let Some(path) = tfc_out {
        write_file(out, &path, &tfc::write(&circuit))?;
    }
    if let Some(path) = real_out {
        write_file(out, &path, &real::write(&real::RealDocument::new(circuit)))?;
    }
    Ok(())
}

/// The progress callback: the board's hook, and with `print` a line on
/// stderr.
fn progress_hook(print: bool, telemetry: Option<&Arc<BatchTelemetry>>) -> ProgressFn {
    let mut board = telemetry.map(|t| t.progress_hook(0));
    Box::new(move |p: &Progress| {
        if let Some(hook) = &mut board {
            hook(p);
        }
        if print {
            let best = p.best_gates.map_or_else(|| "-".into(), |g| g.to_string());
            eprintln!(
                "progress: {} nodes, queue {}, best {best}, {} restarts, {:.1}s",
                p.nodes_expanded,
                p.queue_depth,
                p.restarts,
                p.elapsed.as_secs_f64()
            );
        }
    })
}

/// The run report, recorder dump, Chrome export and metrics files. They
/// are written on failures too — a run that died of a budget or anomaly
/// is exactly the one worth inspecting.
struct RunFiles {
    recorder: Option<FlightRecorder>,
    report: Option<String>,
    trace: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl RunFiles {
    /// The observer: events to `log_json` (`-` is stderr), plus the
    /// metrics registry and the recorder when a file needs them.
    fn observer(&self, log_json: Option<&str>) -> CliResult<Observer> {
        let mut obs = match log_json {
            Some("-") => Observer::with_sink(Box::new(JsonLinesSink::new(std::io::stderr()))),
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| err(format!("cannot create {path}: {e}")))?;
                Observer::with_sink(Box::new(JsonLinesSink::new(std::io::BufWriter::new(file))))
            }
            None => Observer::null(),
        };
        if self.report.is_some() || self.metrics_out.is_some() {
            obs = obs.with_metrics();
        }
        if let Some(r) = &self.recorder {
            obs = obs.with_recorder(r.clone());
        }
        Ok(obs)
    }

    fn write(
        &self,
        opts: &SynthesisOptions,
        stats: &SearchStats,
        circuit: Option<&Circuit>,
        obs: &Observer,
        out: &mut dyn Write,
    ) -> CliResult {
        if let Some(path) = &self.report {
            let metrics = obs.metrics_snapshot();
            let json = run_report(opts, stats, circuit, metrics.as_ref(), obs.dropped_events());
            write_file(out, path, &format!("{json}\n"))?;
        }
        if let Some(r) = &self.recorder {
            let snapshot = r.snapshot();
            if snapshot.dropped > 0 {
                writeln!(
                    out,
                    "note: {} trace records evicted (ring budget); the dump \
                     holds the most recent history",
                    snapshot.dropped
                )?;
            }
            if let Some(path) = &self.trace {
                write_file(out, path, &format!("{}\n", snapshot.to_json()))?;
            }
            if let Some(path) = &self.trace_out {
                write_file(out, path, &format!("{}\n", chrome_trace_json(&snapshot)))?;
            }
        }
        if let Some(path) = &self.metrics_out {
            let snapshot = obs.metrics_snapshot().unwrap_or_default();
            write_file(out, path, &prometheus_text(&snapshot))?;
        }
        Ok(())
    }
}
