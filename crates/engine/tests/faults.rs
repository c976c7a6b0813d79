//! Fault-injection integration: every fault class the `failpoints`
//! facility can inject is driven through a real batch run and must be
//! contained — a clean exit, correct tallies, no aborts.
//!
//! The failpoint registry is process-global, so these tests serialize
//! on a mutex and run every batch with one worker for deterministic
//! hit ordering.

#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use rmrls_engine::{
    fsck, read_journal, run_batch, run_batch_resumable, suite_admissions, BatchOptions, JobOutcome,
    JournalHeader, JournalWriter, SharedStore, ShutdownHandles,
};
use rmrls_obs::{fail, Json, RecorderSnapshot, TraceKind};

static GUARD: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn options() -> BatchOptions {
    BatchOptions::default()
}

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("rmrls-faults-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn injected_dispatch_error_becomes_an_error_record() {
    let _g = serial();
    fail::configure("engine/worker/dispatch=err@2").unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.counters.jobs_errored, 1);
    assert_eq!(run.counters.jobs_completed, 7);
    assert_eq!(run.counters.panics_contained, 0);
    let errored: Vec<_> = run
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            JobOutcome::Error { message } => Some(message.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(errored.len(), 1);
    assert!(
        errored[0].contains("injected fault at engine/worker/dispatch"),
        "{}",
        errored[0]
    );
}

#[test]
fn injected_dispatch_panic_is_contained() {
    let _g = serial();
    fail::configure("engine/worker/dispatch=panic@3").unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.counters.panics_contained, 1, "panic caught, run alive");
    assert_eq!(run.counters.jobs_completed, 7);
    let panicked: Vec<_> = run
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            JobOutcome::Panicked { message } => Some(message.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(panicked.len(), 1);
    assert!(
        panicked[0].contains("engine/worker/dispatch"),
        "{}",
        panicked[0]
    );
}

#[test]
fn injected_cache_lookup_failure_degrades_to_a_miss() {
    let _g = serial();
    let jobs: Vec<_> = suite_admissions("examples")
        .unwrap()
        .into_iter()
        .take(1)
        .collect();
    // Same job twice: without faults the second run of the pair would
    // hit; with the lookup failpoint armed it must quietly re-solve.
    let doubled: Vec<_> = jobs.iter().cloned().chain(jobs.iter().cloned()).collect();
    fail::configure("engine/cache/lookup=err").unwrap();
    let run = run_batch(&doubled, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.counters.jobs_completed, 2);
    assert_eq!(run.counters.cache_hits, 0, "lookups failed into misses");
    assert_eq!(run.counters.verified_ok, 2, "both jobs still verify");
    assert_eq!(run.counters.jobs_errored, 0);
}

#[test]
fn injected_cache_insert_failure_only_costs_future_hits() {
    let _g = serial();
    let jobs: Vec<_> = suite_admissions("examples")
        .unwrap()
        .into_iter()
        .take(1)
        .collect();
    let doubled: Vec<_> = jobs.iter().cloned().chain(jobs.iter().cloned()).collect();
    fail::configure("engine/cache/insert=err").unwrap();
    let run = run_batch(&doubled, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.counters.jobs_completed, 2);
    assert_eq!(run.counters.cache_hits, 0, "nothing was ever inserted");
    assert_eq!(run.counters.verified_ok, 2);
}

#[test]
fn injected_verifier_failure_is_an_error_not_a_false_solve() {
    let _g = serial();
    fail::configure("engine/worker/pre-verify=err@1").unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.counters.jobs_errored, 1);
    assert_eq!(run.counters.jobs_completed, 7);
    assert_eq!(run.counters.verify_failures, 0, "no false verdicts");
    assert_eq!(run.counters.verified_ok, 7);
}

#[test]
fn injected_journal_append_failure_is_tallied_not_fatal() {
    let _g = serial();
    let jobs = suite_admissions("examples").unwrap();
    let opts = options();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("append-fault.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    fail::configure("engine/journal/append=err@2").unwrap();
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    fail::clear();
    drop(writer);
    assert_eq!(run.counters.journal_append_errors, 1);
    assert_eq!(run.counters.jobs_completed, 8, "the batch itself is fine");
    // The journal is short one record but still well-formed and
    // resumable: exactly the 7 appended records come back.
    let data = read_journal(&path).unwrap();
    assert!(!data.torn_tail);
    assert_eq!(data.completed.len(), 7);
}

#[test]
fn injected_budget_poll_cancellation_stops_the_search_cleanly() {
    let _g = serial();
    fail::configure("core/search/budget-poll=err@1").unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::clear();
    // The poisoned poll cancels exactly one search; every other job is
    // untouched and the run exits cleanly.
    assert_eq!(run.counters.panics_contained, 0);
    assert_eq!(
        run.counters.jobs_completed + run.counters.jobs_unsolved,
        8,
        "every job is accounted for"
    );
    assert_eq!(run.counters.jobs_unsolved, run.counters.cancelled);
    assert!(run.counters.jobs_unsolved <= 1);
}

#[test]
fn injected_delay_slows_but_does_not_change_results() {
    let _g = serial();
    let jobs = suite_admissions("examples").unwrap();
    let reference = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::configure("engine/worker/pre-verify=delay:5").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    fail::clear();
    assert_eq!(run.results_jsonl(), reference.results_jsonl());
}

/// Parses every `.anomaly.json` in `dir` and returns true when any of
/// them carries an anomaly record matching `kind` at `site`.
fn any_dump_names(dir: &std::path::Path, kind: &str, site: &str) -> bool {
    std::fs::read_dir(dir).unwrap().any(|entry| {
        let path = entry.unwrap().path();
        if !path.to_str().unwrap().ends_with(".anomaly.json") {
            return false;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(&text).expect("anomaly dump is valid JSON");
        let snapshot = RecorderSnapshot::from_json(&json).expect("dump parses");
        snapshot.records.iter().any(|r| {
            matches!(&r.kind, TraceKind::Anomaly { kind: k, site: s } if k == kind && s == site)
        })
    })
}

#[test]
fn every_fault_class_produces_an_anomaly_dump_naming_the_site() {
    let _g = serial();
    // (failpoint config, expected anomaly kind, expected failing site).
    // The panic class is attributed to the containment site — the
    // worker's catch_unwind — because the panic unwound past the
    // injection point before anything could record it.
    let matrix = [
        (
            "engine/worker/dispatch=err@2",
            "injected_fault",
            "engine/worker/dispatch",
        ),
        (
            "engine/worker/pre-verify=err@1",
            "injected_fault",
            "engine/worker/pre-verify",
        ),
        (
            "engine/worker/dispatch=panic@3",
            "panic",
            "engine/worker/job",
        ),
        (
            "core/search/budget-poll=err@1",
            "cancelled",
            "core/search/budget-poll",
        ),
    ];
    for (config, kind, site) in matrix {
        let dir = std::env::temp_dir().join(format!("rmrls-fault-dump-{}", kind.replace('/', "_")));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        fail::configure(config).unwrap();
        let jobs = suite_admissions("examples").unwrap();
        let opts = BatchOptions {
            trace_dir: Some(dir.to_str().unwrap().to_string()),
            ..options()
        };
        let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
        fail::clear();
        assert!(
            run.counters.anomaly_dumps >= 1,
            "{config}: fault left no anomaly dump ({:?})",
            run.counters
        );
        assert_eq!(run.counters.trace_write_errors, 0, "{config}");
        assert!(
            any_dump_names(&dir, kind, site),
            "{config}: no dump records {kind}@{site}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn journal_append_fault_lands_in_the_anomaly_dump() {
    let _g = serial();
    let dir = std::env::temp_dir().join("rmrls-fault-dump-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions {
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..options()
    };
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("append-fault-dump.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    fail::configure("engine/journal/append=err@2").unwrap();
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    fail::clear();
    drop(writer);
    assert_eq!(run.counters.journal_append_errors, 1);
    assert!(run.counters.anomaly_dumps >= 1);
    assert!(
        any_dump_names(&dir, "journal_append_failed", "engine/journal/append"),
        "append fault must surface in the job's anomaly dump"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_store_append_failure_is_tallied_rolled_back_and_dumped() {
    let _g = serial();
    let path = scratch("store-append-err.store");
    let _ = std::fs::remove_file(&path);
    let dir = std::env::temp_dir().join("rmrls-fault-dump-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let mut opts = BatchOptions {
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..options()
    };
    opts.store = Some(SharedStore::open(&path).unwrap());
    fail::configure("engine/store/append=err@2").unwrap();
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    fail::clear();
    drop(opts);
    // The store merely under-remembers: every job completes and
    // verifies, one append is tallied as an error and surfaced in the
    // job's anomaly dump.
    assert_eq!(run.counters.jobs_completed, 8);
    assert_eq!(run.counters.verify_failures, 0);
    assert_eq!(run.counters.store_append_errors, 1);
    assert!(run.counters.store_inserts >= 1);
    assert!(
        any_dump_names(&dir, "store_append_failed", "engine/store/append"),
        "append fault must surface in the job's anomaly dump"
    );
    // The failed append was rolled back, leaving a structurally clean
    // file holding exactly the successful inserts.
    let report = fsck(&path).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.valid_records, run.counters.store_inserts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_store_load_failure_degrades_to_no_store() {
    let _g = serial();
    let path = scratch("store-load-err.store");
    let _ = std::fs::remove_file(&path);
    fail::configure("engine/store/load=err").unwrap();
    let opened = SharedStore::open(&path);
    fail::clear();
    let e = opened.expect_err("injected load fault must fail the open");
    assert!(e.contains("engine/store/load"), "{e}");
    // The caller (the CLI) answers a failed open by running store-less;
    // the same batch without a store is unaffected.
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_completed, 8);
    assert_eq!(run.counters.verify_failures, 0);
}

#[test]
fn injected_compact_failure_leaves_the_file_untouched() {
    let _g = serial();
    let path = scratch("store-compact-err.store");
    let _ = std::fs::remove_file(&path);
    let jobs = suite_admissions("examples").unwrap();
    let mut opts = options();
    opts.store = Some(SharedStore::open(&path).unwrap());
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert!(run.counters.store_inserts >= 1);
    let before = std::fs::read(&path).unwrap();

    let shared = opts.store.take().unwrap();
    fail::configure("engine/store/compact=err").unwrap();
    let compacted = shared.lock().compact();
    fail::clear();
    let e = compacted.expect_err("injected compact fault must fail the compact");
    assert!(e.contains("engine/store/compact"), "{e}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "a failed compact must not modify the store"
    );
    // And the store is still fully usable afterwards.
    assert!(fsck(&path).unwrap().clean());
    drop(shared);
    let reopened = SharedStore::open(&path).unwrap();
    assert_eq!(reopened.len() as u64, run.counters.store_inserts);
}

#[test]
fn a_crash_mid_append_truncates_cleanly_and_the_rerun_is_byte_identical() {
    let _g = serial();
    // The crash-safety acceptance path, end to end: a panic injected
    // between the two halves of a frame write leaves exactly the torn
    // tail a SIGKILL would; reopening truncates it; the rerun re-solves
    // the one lost job and serves the rest from the store,
    // byte-identical to a run that never involved a store.
    let jobs = suite_admissions("examples").unwrap();
    let reference = run_batch(&jobs, &options(), &ShutdownHandles::new());

    // Cold run, counting the appends so the panic can be aimed at the
    // LAST one (the torn tail must stay at end of file: a later append
    // from the same stale handle would paper over it).
    let path = scratch("store-crash.store");
    let _ = std::fs::remove_file(&path);
    let mut opts = options();
    opts.store = Some(SharedStore::open(&path).unwrap());
    let cold = run_batch(&jobs, &opts, &ShutdownHandles::new());
    let inserts = cold.counters.store_inserts;
    assert!(inserts >= 2, "need at least two unique canonicals");
    assert_eq!(cold.results_jsonl(), reference.results_jsonl());

    let crash_path = scratch("store-crash-torn.store");
    let _ = std::fs::remove_file(&crash_path);
    let mut opts = options();
    opts.store = Some(SharedStore::open(&crash_path).unwrap());
    fail::configure(&format!("engine/store/append=panic@{inserts}")).unwrap();
    let crashed = run_batch(&jobs, &opts, &ShutdownHandles::new());
    fail::clear();
    drop(opts);
    assert_eq!(crashed.counters.panics_contained, 1, "crash is contained");

    // fsck (read-only) sees the torn tail and the intact prefix.
    let report = fsck(&crash_path).unwrap();
    assert!(!report.clean(), "{report:?}");
    assert!(report.torn_tail_bytes > 0, "{report:?}");
    assert!(report.quarantined.is_empty(), "a tear is not corruption");
    assert_eq!(report.valid_records, inserts - 1);

    // Reopen: the tail is physically truncated, every surviving record
    // re-verified; nothing corrupt can reach the cache.
    let store = SharedStore::open(&crash_path).unwrap();
    let stats = store.stats();
    assert!(stats.torn_bytes_truncated > 0, "{stats:?}");
    assert_eq!(stats.entries, inserts - 1);
    assert_eq!(stats.verify_rejected, 0);

    // Rerun against the recovered store: byte-identical results, the
    // survivors served from the store, the lost circuit re-solved and
    // re-inserted.
    let mut opts = options();
    opts.store = Some(store);
    let rerun = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(rerun.results_jsonl(), reference.results_jsonl());
    assert!(
        rerun.counters.store_hits >= inserts - 1,
        "{:?}",
        rerun.counters
    );
    assert_eq!(rerun.counters.store_inserts, 1, "the torn record re-solves");
    assert_eq!(rerun.counters.verify_failures, 0);
    assert!(fsck(&crash_path).unwrap().clean());
}

#[test]
fn env_configuration_round_trips() {
    let _g = serial();
    // `configure_from_env` with the variable unset clears the registry.
    std::env::remove_var("RMRLS_FAILPOINTS");
    fail::configure("engine/worker/dispatch=err").unwrap();
    fail::configure_from_env().unwrap();
    let jobs = suite_admissions("examples").unwrap();
    let run = run_batch(&jobs, &options(), &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_errored, 0, "env cleared the failpoint");
}
