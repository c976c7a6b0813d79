//! Pins what one batch run leaves behind, end to end: the aggregate
//! counters, the results stream, the job board and the trace-dump
//! files, for a plain run and for a resume. Every expected value was
//! captured from an earlier release, so any change to the per-job path
//! (cache, ladder, verify, tallies, board, journal, dumps) shows here.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rmrls_engine::{
    read_journal, run_batch_resumable, suite_admissions, BatchCounters, BatchOptions, BatchRun,
    BatchTelemetry, CompletedJob, JournalHeader, JournalWriter, ShutdownHandles,
};

const GOLDEN: &str = include_str!("../../../tests/golden/examples.results.jsonl");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmrls-job-path-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The golden journal's records with their `index` field dropped: the
/// results stream every run of the examples suite must produce.
fn golden_results() -> String {
    GOLDEN
        .lines()
        .skip(1)
        .enumerate()
        .map(|(i, line)| line.replacen(&format!("{{\"index\":{i},"), "{", 1) + "\n")
        .collect()
}

struct Observed {
    run: BatchRun,
    board: Vec<(String, &'static str, Option<&'static str>)>,
    dumps: Vec<String>,
}

/// One worker, cache on, telemetry attached, traces on, journaled.
fn run_examples(tag: &str, resumed: Option<&HashMap<usize, CompletedJob>>) -> (Observed, String) {
    let jobs = suite_admissions("examples").unwrap();
    let dir = scratch(tag);
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    let telemetry = Arc::new(BatchTelemetry::new(
        jobs.iter().map(|a| a.name().to_string()).collect(),
    ));
    let opts = BatchOptions {
        workers: 1,
        cache_size: Some(1024),
        trace_dir: Some(traces.to_str().unwrap().to_string()),
        telemetry: Some(Arc::clone(&telemetry)),
        ..BatchOptions::default()
    };
    let journal = dir.join("journal.jsonl").to_str().unwrap().to_string();
    let writer =
        Mutex::new(JournalWriter::create(&journal, &JournalHeader::new(&jobs, &opts)).unwrap());
    let run = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        Some(&writer),
        resumed,
    );
    drop(writer);
    let board = telemetry
        .jobs
        .statuses()
        .into_iter()
        .map(|s| (s.name, s.state.as_str(), s.solved_by.map(|t| t.as_str())))
        .collect();
    let mut dumps: Vec<String> = std::fs::read_dir(&traces)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
        .collect();
    dumps.sort();
    (Observed { run, board, dumps }, journal)
}

fn board(
    rows: &[(&str, &'static str, Option<&'static str>)],
) -> Vec<(String, &'static str, Option<&'static str>)> {
    rows.iter()
        .map(|(n, s, t)| (n.to_string(), *s, *t))
        .collect()
}

#[test]
fn the_job_path_is_pinned_for_a_run_and_a_resume() {
    let (first, journal) = run_examples("first", None);
    assert_eq!(first.run.results_jsonl(), golden_results());
    assert_eq!(
        first.run.counters,
        BatchCounters {
            jobs_total: 8,
            jobs_completed: 8,
            jobs_unsolved: 0,
            jobs_errored: 0,
            panics_contained: 0,
            jobs_skipped: 0,
            cache_hits: 0,
            cache_misses: 8,
            store_hits: 0,
            store_inserts: 0,
            store_append_errors: 0,
            deadline_expired: 0,
            cancelled: 0,
            verified_ok: 8,
            verify_failures: 0,
            solved_by_rmrls: 8,
            solved_by_relaxed: 0,
            solved_by_mmd: 0,
            jobs_resumed: 0,
            journal_append_errors: 0,
            anomaly_dumps: 0,
            trace_records_dropped: 0,
            trace_write_errors: 0,
        }
    );
    assert_eq!(
        first.board,
        board(&[
            ("ex1", "done", Some("rmrls")),
            ("ex2", "done", Some("rmrls")),
            ("ex3", "done", Some("rmrls")),
            ("ex4", "done", Some("rmrls")),
            ("ex5", "done", Some("rmrls")),
            ("ex6", "done", Some("rmrls")),
            ("ex7", "done", Some("rmrls")),
            ("ex8", "done", Some("rmrls")),
        ])
    );
    assert_eq!(
        first.dumps,
        [
            "0000-ex1.trace.json",
            "0001-ex2.trace.json",
            "0002-ex3.trace.json",
            "0003-ex4.trace.json",
            "0004-ex5.trace.json",
            "0005-ex6.trace.json",
            "0006-ex7.trace.json",
            "0007-ex8.trace.json",
        ]
    );

    let mut done = read_journal(&journal).unwrap().completed;
    assert_eq!(done.len(), 8, "the journal holds every job");
    done.retain(|i, _| [0, 3, 5].contains(i));
    let (resumed, journal) = run_examples("resumed", Some(&done));
    assert_eq!(resumed.run.results_jsonl(), golden_results());
    assert_eq!(
        resumed.run.counters,
        BatchCounters {
            jobs_total: 8,
            jobs_completed: 8,
            jobs_unsolved: 0,
            jobs_errored: 0,
            panics_contained: 0,
            jobs_skipped: 0,
            cache_hits: 0,
            cache_misses: 5,
            store_hits: 0,
            store_inserts: 0,
            store_append_errors: 0,
            deadline_expired: 0,
            cancelled: 0,
            verified_ok: 8,
            verify_failures: 0,
            solved_by_rmrls: 8,
            solved_by_relaxed: 0,
            solved_by_mmd: 0,
            jobs_resumed: 3,
            journal_append_errors: 0,
            anomaly_dumps: 0,
            trace_records_dropped: 0,
            trace_write_errors: 0,
        }
    );
    assert_eq!(
        resumed.board,
        board(&[
            ("ex1", "done", None),
            ("ex2", "done", Some("rmrls")),
            ("ex3", "done", Some("rmrls")),
            ("ex4", "done", None),
            ("ex5", "done", Some("rmrls")),
            ("ex6", "done", None),
            ("ex7", "done", Some("rmrls")),
            ("ex8", "done", Some("rmrls")),
        ])
    );
    assert_eq!(
        resumed.dumps,
        [
            "0001-ex2.trace.json",
            "0002-ex3.trace.json",
            "0004-ex5.trace.json",
            "0006-ex7.trace.json",
            "0007-ex8.trace.json",
        ]
    );
    // Only the re-run jobs are appended to the resumed run's journal.
    let mut rerun: Vec<usize> = read_journal(&journal)
        .unwrap()
        .completed
        .into_keys()
        .collect();
    rerun.sort_unstable();
    assert_eq!(rerun, vec![1, 2, 4, 6, 7]);
}
