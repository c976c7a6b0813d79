//! Checkpoint/resume integration: the write-ahead journal plus
//! `run_batch_resumable`, including the simulated-SIGKILL path with a
//! torn final record.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rmrls_engine::{
    admit_inline, read_journal, run_batch_resumable, suite_admissions, Admission, BatchCounters,
    BatchOptions, BatchTelemetry, CompletedJob, JournalHeader, JournalWriter, SharedStore,
    ShutdownHandles,
};
use rmrls_obs::Json;

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("rmrls-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn journaled_batch_records_every_job() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("full.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);
    assert_eq!(run.counters.jobs_completed, 8);
    assert_eq!(run.counters.journal_append_errors, 0);
    let data = read_journal(&path).unwrap();
    assert_eq!(data.header, header);
    assert!(!data.torn_tail);
    assert_eq!(data.completed.len(), 8, "one journal record per job");
    for i in 0..8 {
        let status = data.completed[&i].json.get("status").and_then(Json::as_str);
        assert_eq!(status, Some("solved"));
    }
}

#[test]
fn resume_after_simulated_sigkill_reruns_only_the_remainder() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);

    // Reference: an uninterrupted journaled run.
    let full_path = scratch("reference.jsonl");
    let writer = Mutex::new(JournalWriter::create(&full_path, &header).unwrap());
    let reference = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);

    // Simulate a SIGKILL mid-append: keep the header and the first
    // three records, then half of the fourth record's bytes.
    let text = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "header plus one record per job");
    let mut torn = lines[..4].join("\n");
    torn.push('\n');
    torn.push_str(&lines[4][..lines[4].len() / 2]);
    let partial_path = scratch("partial.jsonl");
    std::fs::write(&partial_path, &torn).unwrap();

    // Recover: exactly the three intact records come back.
    let data = read_journal(&partial_path).unwrap();
    assert_eq!(data.header, header, "hashes survive the crash");
    assert!(data.torn_tail, "the half-written record is detected");
    assert_eq!(data.completed.len(), 3, "SIGKILL lost at most one job");

    // Resume into a fresh journal.
    let resumed_path = scratch("resumed.jsonl");
    let writer = Mutex::new(JournalWriter::create(&resumed_path, &header).unwrap());
    let resumed = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        Some(&writer),
        Some(&data.completed),
    );
    drop(writer);

    assert_eq!(resumed.counters.jobs_resumed, 3);
    assert_eq!(
        resumed.counters.jobs_completed, reference.counters.jobs_completed,
        "aggregate counters cover resumed and re-run jobs alike"
    );
    assert_eq!(resumed.counters.verified_ok, reference.counters.verified_ok);
    assert_eq!(
        resumed.results_jsonl(),
        reference.results_jsonl(),
        "a resumed batch's results stream is byte-identical"
    );
    // The new journal holds only the re-run jobs — proof the resumed
    // three were skipped, not re-synthesized.
    let rerun = read_journal(&resumed_path).unwrap();
    assert_eq!(rerun.completed.len(), 8 - 3);
    for i in 0..3 {
        assert!(
            !rerun.completed.contains_key(&i),
            "job {i} must not have re-run"
        );
    }
}

#[test]
fn resumed_records_serialize_without_index_but_journal_with() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("roundtrip.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);
    let data = read_journal(&path).unwrap();
    let resumed = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        None,
        Some(&data.completed),
    );
    assert_eq!(resumed.counters.jobs_resumed, 8);
    assert_eq!(resumed.results_jsonl(), run.results_jsonl());
    for (i, record) in resumed.records.iter().enumerate() {
        let indexed = record.to_json_indexed(i);
        assert_eq!(
            indexed.get("index").unwrap().as_u64(),
            Some(i as u64),
            "journal form keeps the index"
        );
        assert!(
            record.to_json().get("index").is_none(),
            "results form strips the index"
        );
    }
}

/// One journaled record of every kind a resume can meet, plus one job
/// the journal does not hold, which runs live.
const EVERY_KIND: [&str; 10] = [
    r#"{"index":0,"job":"tier1","origin":"test","status":"solved","solved_by":"rmrls","width":2,"gates":1,"quantum_cost":1,"verified":true,"circuit":["TOF1(a)"]}"#,
    r#"{"index":1,"job":"tier2","origin":"test","status":"solved","solved_by":"rmrls-relaxed","width":2,"gates":1,"quantum_cost":1,"verified":true,"circuit":["TOF1(a)"]}"#,
    r#"{"index":2,"job":"tier3","origin":"test","status":"solved","solved_by":"mmd","width":2,"gates":1,"quantum_cost":1,"verified":true,"circuit":["TOF1(a)"]}"#,
    r#"{"index":3,"job":"pre-fallback","origin":"test","status":"solved","width":2,"gates":1,"quantum_cost":1,"verified":true,"circuit":["TOF1(a)"]}"#,
    r#"{"index":4,"job":"bad-circuit","origin":"test","status":"solved","solved_by":"rmrls","width":2,"gates":1,"quantum_cost":1,"verified":false,"circuit":["TOF1(b)"]}"#,
    r#"{"index":5,"job":"budget","origin":"test","status":"unsolved","stop_reason":"node budget"}"#,
    r#"{"index":6,"job":"late","origin":"test","status":"unsolved","stop_reason":"deadline expired"}"#,
    r#"{"index":7,"job":"stopped","origin":"test","status":"unsolved","stop_reason":"cancelled"}"#,
    r#"{"index":8,"job":"broken","origin":"test","status":"error","message":"not a permutation"}"#,
    r#"{"index":9,"job":"crashed","origin":"test","status":"panicked","message":"boom"}"#,
];

#[test]
fn resumed_records_of_every_kind_are_tallied() {
    let names = [
        "tier1",
        "tier2",
        "tier3",
        "pre-fallback",
        "bad-circuit",
        "budget",
        "late",
        "stopped",
        "broken",
        "crashed",
        "live",
    ];
    let jobs: Vec<_> = names
        .iter()
        .map(|n| admit_inline(n, "perm", "1,0,2,3", "test".to_string()))
        .collect();
    let telemetry = Arc::new(BatchTelemetry::new(
        names.iter().map(|n| n.to_string()).collect(),
    ));
    let opts = BatchOptions {
        telemetry: Some(Arc::clone(&telemetry)),
        ..BatchOptions::default()
    };
    let path = scratch("every-kind.jsonl");
    let mut text = JournalHeader::new(&jobs, &opts).to_json().to_string();
    for record in EVERY_KIND {
        text.push('\n');
        text.push_str(record);
    }
    text.push('\n');
    std::fs::write(&path, text).unwrap();
    let data = read_journal(&path).unwrap();
    assert!(!data.torn_tail);
    assert_eq!(data.completed.len(), EVERY_KIND.len());

    let run = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        None,
        Some(&data.completed),
    );
    assert_eq!(
        run.counters,
        BatchCounters {
            jobs_total: 11,
            jobs_completed: 6,
            jobs_unsolved: 3,
            jobs_errored: 1,
            panics_contained: 1,
            jobs_skipped: 0,
            cache_hits: 0,
            cache_misses: 1,
            store_hits: 0,
            store_inserts: 0,
            store_append_errors: 0,
            deadline_expired: 1,
            cancelled: 1,
            verified_ok: 5,
            verify_failures: 1,
            solved_by_rmrls: 4,
            solved_by_relaxed: 1,
            solved_by_mmd: 1,
            jobs_resumed: 10,
            journal_append_errors: 0,
            anomaly_dumps: 0,
            trace_records_dropped: 0,
            trace_write_errors: 0,
        }
    );
    assert_eq!(
        run.report_json(&opts).get("counters").unwrap().to_string(),
        concat!(
            r#"{"jobs_total":11,"jobs_completed":6,"jobs_unsolved":3,"jobs_errored":1,"#,
            r#""panics_contained":1,"jobs_skipped":0,"cache_hits":0,"cache_misses":1,"#,
            r#""store_hits":0,"store_inserts":0,"store_append_errors":0,"#,
            r#""deadline_expired":1,"cancelled":1,"verified_ok":5,"verify_failures":1,"#,
            r#""solved_by_rmrls":4,"solved_by_relaxed":1,"solved_by_mmd":1,"#,
            r#""jobs_resumed":10,"journal_append_errors":0,"anomaly_dumps":0,"#,
            r#""trace_records_dropped":0,"trace_write_errors":0}"#,
        )
    );
    // Resumed records come back verbatim, without their index.
    let results = run.results_jsonl();
    let lines: Vec<&str> = results.lines().collect();
    for (record, line) in EVERY_KIND.iter().zip(&lines) {
        let index = Json::parse(record).unwrap().get("index").unwrap().as_u64();
        assert_eq!(
            *line,
            record.replacen(&format!("\"index\":{},", index.unwrap()), "", 1)
        );
    }
    assert!(lines[10].contains("\"status\":\"solved\""), "{}", lines[10]);
    // A resumed record is done only if it was solved; its tier is not
    // replayed, so only the live job shows one.
    let board: Vec<_> = telemetry
        .jobs
        .statuses()
        .into_iter()
        .map(|s| (s.name, s.state.as_str(), s.solved_by.map(|t| t.as_str())))
        .collect();
    let want = [
        ("tier1", "done", None),
        ("tier2", "done", None),
        ("tier3", "done", None),
        ("pre-fallback", "done", None),
        ("bad-circuit", "done", None),
        ("budget", "failed", None),
        ("late", "failed", None),
        ("stopped", "failed", None),
        ("broken", "failed", None),
        ("crashed", "failed", None),
        ("live", "done", Some("rmrls")),
    ]
    .map(|(n, s, t)| (n.to_string(), s, t));
    assert_eq!(board, want);
    assert!(telemetry
        .healthz_json()
        .contains("\"jobs_done\":6,\"jobs_failed\":5"));
}

/// Writes [`EVERY_KIND`] as a journal for `jobs` and reads it back.
fn every_kind_journal(
    tag: &str,
    jobs: &[Admission],
    opts: &BatchOptions,
) -> HashMap<usize, CompletedJob> {
    let path = scratch(tag);
    let mut text = JournalHeader::new(jobs, opts).to_json().to_string();
    for record in EVERY_KIND {
        text.push('\n');
        text.push_str(record);
    }
    std::fs::write(&path, text + "\n").unwrap();
    read_journal(&path).unwrap().completed
}

/// Counters are incremented by name, so a misspelt name would register
/// a counter no report shows. A run that tallies every kind of record
/// and meets the cache, the store and the trace directory registers
/// exactly the report's counters, less the two counts of its admission
/// list.
#[test]
fn a_run_registers_exactly_the_reported_counters() {
    let mut jobs: Vec<Admission> = EVERY_KIND
        .iter()
        .map(|record| {
            let json = Json::parse(record).unwrap();
            let name = json.get("job").unwrap().as_str().unwrap().to_string();
            admit_inline(&name, "perm", "1,0,2,3", "test".to_string())
        })
        .collect();
    for name in ["live", "again"] {
        jobs.push(admit_inline(name, "perm", "0,1,3,2", "test".to_string()));
    }
    let dir = scratch("registered");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let telemetry = Arc::new(BatchTelemetry::new(
        jobs.iter().map(|a| a.name().to_string()).collect(),
    ));
    let opts = BatchOptions {
        telemetry: Some(Arc::clone(&telemetry)),
        trace_dir: Some(dir.clone()),
        store: Some(SharedStore::open(&format!("{dir}/circuits.store")).unwrap()),
        ..BatchOptions::default()
    };
    let done = every_kind_journal("registered.jsonl", &jobs, &opts);
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), None, Some(&done));
    assert_eq!(
        (run.counters.cache_hits, run.counters.store_inserts),
        (1, 1)
    );

    let mut registered: Vec<String> = telemetry
        .registry()
        .snapshot()
        .counters
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    registered.sort();
    let report = run.report_json(&opts);
    let Some(Json::Obj(fields)) = report.get("counters") else {
        panic!("the report has a counters object");
    };
    let mut reported: Vec<String> = fields
        .iter()
        .map(|(key, _)| key.clone())
        .filter(|key| key != "jobs_total" && key != "jobs_skipped")
        .collect();
    reported.sort();
    assert_eq!(registered, reported);
}
