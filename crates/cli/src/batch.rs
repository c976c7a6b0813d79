//! `rmrls batch`, and the engine flags it shares with `rmrls serve`.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::Mutex;
use std::time::Duration;

use rmrls_engine::{BatchOptions, CompletedJob, JournalHeader, JournalWriter, SharedStore};

use crate::{err, live_board, write_file, BatchSource, CliError, CliResult, Command, Flags};

/// The widest `--canon-limit`. Canonicalization runs before the search,
/// outside any deadline or cancel token, at `n!` relabelings; 8 wires is
/// the widest its class tracking and pinned canonical keys cover.
const MAX_CANON_LIMIT: usize = 8;

/// The flags `batch` and `serve` share: they configure the engine that runs every job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineFlags {
    /// Worker threads (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// Per-job wall-clock deadline (serve: the default for requests
    /// without their own `deadline_ms`).
    pub deadline: Option<Duration>,
    /// Result-cache capacity (`None` disables the cache).
    pub cache_size: Option<usize>,
    /// Widest spec canonicalized for caching.
    pub canon_limit: usize,
    /// Verify each circuit against its specification.
    pub verify: bool,
    /// Run the fallback ladder so every well-formed job solves.
    pub fallback: bool,
    /// Persistent circuit store opened (or created) for the run.
    pub store: Option<String>,
}

impl EngineFlags {
    /// Reads the engine flags; what is not given keeps the value of
    /// [`BatchOptions::default`].
    pub(crate) fn parse(flags: &Flags) -> CliResult<EngineFlags> {
        let defaults = BatchOptions::default();
        let jobs = flags.count("--jobs")?;
        let deadline = flags.number("--deadline-ms")?.map(Duration::from_millis);
        let cache_size = flags.number("--cache-size")?;
        let canon_limit = flags.parse_with("--canon-limit", |v| match v.parse() {
            Ok(n) if n > MAX_CANON_LIMIT => Err(err(format!(
                "--canon-limit must be at most {MAX_CANON_LIMIT}"
            ))),
            n => n.map_err(|_| err("bad --canon-limit")),
        })?;
        let no_cache = flags.has("--no-cache");
        if no_cache && cache_size.is_some() {
            return Err(err("--no-cache conflicts with --cache-size"));
        }
        Ok(EngineFlags {
            jobs,
            deadline,
            cache_size: cache_size.or(defaults.cache_size).filter(|_| !no_cache),
            canon_limit: canon_limit.unwrap_or(defaults.canon_limit),
            verify: !flags.has("--no-verify"),
            fallback: flags.has("--fallback"),
            store: flags.string("--store"),
        })
    }

    /// The flags applied on top of [`BatchOptions::default`]. A store that
    /// cannot be opened degrades to a store-less run (results stay correct,
    /// just not remembered); the returned warning is the only difference.
    pub(crate) fn batch_options(&self) -> (BatchOptions, Option<String>) {
        let workers = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut options = BatchOptions {
            workers,
            deadline: self.deadline,
            cache_size: self.cache_size,
            canon_limit: self.canon_limit,
            verify: self.verify,
            fallback: self.fallback,
            ..BatchOptions::default()
        };
        let mut warning = None;
        if let Some(path) = &self.store {
            match SharedStore::open(path) {
                Ok(s) => options.store = Some(s),
                Err(e) => {
                    warning = Some(format!(
                        "warning: --store {path}: {e}; continuing without a store"
                    ));
                }
            }
        }
        (options, warning)
    }
}

/// Builds `Command::Batch`.
pub fn parse(flags: &Flags) -> CliResult<Command> {
    let engine = EngineFlags::parse(flags)?;
    let source = match (flags.string("--manifest"), flags.string("--suite")) {
        (Some(m), None) => BatchSource::Manifest(m),
        (None, Some(s)) => BatchSource::Suite(s),
        _ => return Err(err("batch needs exactly one of --manifest, --suite")),
    };
    Ok(Command::Batch {
        source,
        engine,
        results: flags.string("--results"),
        resume: flags.string("--resume"),
        report: flags.string("--report"),
        trace_dir: flags.string("--trace"),
        strict: flags.has("--strict"),
        metrics_addr: flags.string("--metrics-addr"),
    })
}

/// Runs `rmrls batch`.
pub fn run_batch(command: Command, out: &mut dyn Write) -> CliResult {
    let Command::Batch {
        source,
        engine,
        results,
        resume,
        report: report_path,
        trace_dir,
        strict,
        metrics_addr,
    } = command
    else {
        unreachable!("run dispatches only batch here")
    };
    let admissions = match &source {
        BatchSource::Manifest(path) => rmrls_engine::load_manifest(path).map_err(CliError)?,
        BatchSource::Suite(name) => rmrls_engine::suite_admissions(name).ok_or_else(|| {
            err(format!(
                "unknown suite '{name}' (table4, examples, extended, all)"
            ))
        })?,
    };
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create --trace dir {dir}: {e}")))?;
    }
    let (mut options, warning) = engine.batch_options();
    options.trace_dir = trace_dir.clone();
    if let Some(w) = warning {
        writeln!(out, "{w}")?;
    }
    if let Some(st) = options.store.as_ref().map(SharedStore::stats) {
        if st.quarantined_records > 0 || st.verify_rejected > 0 {
            writeln!(
                out,
                "warning: store {}: {} corrupt records quarantined, {} rejected \
                 by re-verification (run 'rmrls store fsck' for details)",
                engine.store.as_deref().unwrap_or(""),
                st.quarantined_records,
                st.verify_rejected
            )?;
        }
    }
    // Live telemetry: per-job status board, latency histograms, and
    // live gauges served over HTTP for the whole run. Deliberately
    // excluded from the options fingerprint — a scraped run resumes a
    // plain journal and vice versa.
    let board = live_board(metrics_addr.as_deref(), || {
        admissions.iter().map(|a| a.name().to_string()).collect()
    })?;
    options.telemetry = board.as_ref().map(|(t, _)| t.clone());
    let header = JournalHeader::new(&admissions, &options);
    let resumed = match &resume {
        Some(path) => Some(read_resume(path, &header, admissions.len(), out)?),
        None => None,
    };

    // The journal target: --results when given, else continue
    // journaling into the --resume file itself. Recovered records are
    // re-seeded first, so the journal is complete from the moment the
    // resumed run starts.
    let journal_path = results.or(resume);
    let journal = match &journal_path {
        Some(path) => {
            let mut w = JournalWriter::create(path, &header).map_err(CliError)?;
            if let Some(done) = &resumed {
                let mut indices: Vec<usize> = done.keys().copied().collect();
                indices.sort_unstable();
                for i in indices {
                    w.append(&done[&i].json.to_string()).map_err(CliError)?;
                }
            }
            Some(Mutex::new(w))
        }
        None => None,
    };

    // Ctrl-C once drains (running jobs finish, the rest are skipped and
    // the partial report is still written); twice aborts in-flight
    // searches.
    let shutdown = rmrls_engine::ShutdownHandles::install_sigint();
    let run = rmrls_engine::run_batch_resumable(
        &admissions,
        &options,
        &shutdown,
        journal.as_ref(),
        resumed.as_ref(),
    );
    drop(journal);

    print_summary(&run, &options, trace_dir.as_deref(), out)?;
    if let Some(path) = &journal_path {
        // Rewrite the journal in admission order (journal order was
        // completion order) — atomically, so a crash here still leaves
        // a complete, resumable file.
        let mut text = header.to_json().to_string();
        text.push('\n');
        for (i, record) in run.records.iter().enumerate() {
            text.push_str(&record.to_json_indexed(i).to_string());
            text.push('\n');
        }
        write_file(out, path, &text)?;
    }
    if let Some(path) = &report_path {
        write_file(out, path, &format!("{}\n", run.report_json(&options)))?;
    }
    let c = &run.counters;
    let faults = c.jobs_errored + c.panics_contained + c.verify_failures + c.journal_append_errors;
    if strict && faults > 0 {
        return Err(err(format!(
            "strict batch failed: {} errors, {} panics, {} verification failures, \
             {} journal append failures",
            c.jobs_errored, c.panics_contained, c.verify_failures, c.journal_append_errors
        )));
    }
    Ok(())
}

/// `--resume`: the completed jobs of a journal, refusing one that was
/// written for a different job list or configuration.
fn read_resume(
    path: &str,
    header: &JournalHeader,
    jobs: usize,
    out: &mut dyn Write,
) -> CliResult<HashMap<usize, CompletedJob>> {
    let data = rmrls_engine::read_journal(path).map_err(CliError)?;
    if data.header.manifest_hash != header.manifest_hash {
        return Err(err(format!(
            "--resume {path}: journal was written for a different job list \
             (manifest hash {:016x}, expected {:016x})",
            data.header.manifest_hash, header.manifest_hash
        )));
    }
    if data.header.options_fingerprint != header.options_fingerprint {
        return Err(err(format!(
            "--resume {path}: journal was written under different options \
             (fingerprint {:016x}, expected {:016x})",
            data.header.options_fingerprint, header.options_fingerprint
        )));
    }
    if data.torn_tail {
        writeln!(
            out,
            "note: {path} ends in a torn record (crash mid-append); \
             that job will re-run"
        )?;
    }
    let done = data.completed.len();
    writeln!(out, "resuming: {done} of {jobs} jobs already complete")?;
    Ok(data.completed)
}

/// The run's counters, one line per facet that was switched on.
fn print_summary(
    run: &rmrls_engine::BatchRun,
    options: &BatchOptions,
    trace_dir: Option<&str>,
    out: &mut dyn Write,
) -> fmt::Result {
    let c = &run.counters;
    writeln!(
        out,
        "batch: {} jobs on {} workers in {:.2}s ({:.1} specs/sec)",
        c.jobs_total,
        run.workers,
        run.elapsed.as_secs_f64(),
        run.specs_per_second()
    )?;
    writeln!(
        out,
        "  solved: {}   unsolved: {}   errors: {}   \
         panics_contained: {}   skipped: {}",
        c.jobs_completed, c.jobs_unsolved, c.jobs_errored, c.panics_contained, c.jobs_skipped
    )?;
    if let Some(rate) = c.cache_hit_rate() {
        let (hits, misses, pct) = (c.cache_hits, c.cache_misses, rate * 100.0);
        writeln!(
            out,
            "  cache: {hits} hits / {misses} misses ({pct:.0}% hit rate)"
        )?;
    }
    if let Some(st) = options.store.as_ref().map(SharedStore::stats) {
        writeln!(
            out,
            "  store: {} hits, {} inserts, {} append errors; \
             {} entries on disk ({} bytes)",
            c.store_hits, c.store_inserts, c.store_append_errors, st.entries, st.file_bytes
        )?;
    }
    if options.verify {
        let (ok, failed) = (c.verified_ok, c.verify_failures);
        writeln!(out, "  verified: {ok} ok, {failed} failed")?;
    }
    if options.fallback {
        let (rmrls, relaxed, mmd) = (c.solved_by_rmrls, c.solved_by_relaxed, c.solved_by_mmd);
        writeln!(
            out,
            "  solved_by: {rmrls} rmrls, {relaxed} relaxed, {mmd} mmd"
        )?;
    }
    if c.jobs_resumed > 0 {
        writeln!(out, "  resumed from journal: {}", c.jobs_resumed)?;
    }
    if let Some(dir) = trace_dir {
        // Truncation and write failures are reported, never silent: a
        // missing or shortened dump is itself a fact the operator
        // needs.
        writeln!(
            out,
            "  traces: {dir} ({} anomaly dumps, {} records evicted, {} write errors)",
            c.anomaly_dumps, c.trace_records_dropped, c.trace_write_errors
        )?;
    }
    Ok(())
}
