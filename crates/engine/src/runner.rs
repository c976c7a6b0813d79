//! The engine's one per-job path.
//!
//! [`JobRunner`] is built once, holds the options and the shared cache,
//! and [`JobRunner::run`] executes one admission under a caller-chosen
//! deadline and cancel token: canonicalize, cache, ladder, verify,
//! panic containment (see [`engine`](crate::engine)), plus the
//! bookkeeping around the job — its flight recorder, its job-board
//! slot, its latency sample, its batch-journal line and its trace dump.
//!
//! The runner counts on one [`SyncRegistry`]: the telemetry board's
//! when one is attached, so every counter is also a live `/metrics`
//! series, and a registry of its own otherwise. Events (cache and store
//! traffic, failed appends, trace dumps) are counted where they happen;
//! how a job ended is counted once per record, by the one function that
//! also marks its board slot, for live and journal-recovered records
//! alike. A batch run's [`BatchCounters`] are read from that registry
//! when the pool joins.
//!
//! Both long-lived shapes drive the same runner. A batch run
//! ([`run_batch_resumable`](crate::engine::run_batch_resumable)) is a
//! worker pool over one runner fed from a fixed admission list; the
//! serve daemon keeps one runner for its whole life and hands it
//! requests one at a time, so its cache stays warm across requests.
//! Everything that makes batch results trustworthy — `catch_unwind`,
//! the fallback ladder, verification, `solved_by`/cache attribution —
//! is therefore literally the same code in both.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rmrls_circuit::Circuit;
use rmrls_core::{CancelToken, StopReason};
use rmrls_obs::{FlightRecorder, SyncRegistry};

use crate::cache::{CacheKey, SharedCache};
use crate::engine::{
    lock, run_one, write_job_traces, BatchCounters, BatchOptions, Ending, JobContext, JobOutcome,
    JobRecord, SinkFactory, SolveTier,
};
use crate::journal::JournalWriter;
use crate::manifest::Admission;
use crate::store::CircuitStore;
use crate::telemetry::BatchTelemetry;

/// Executes admissions one at a time against a persistent shared cache
/// and counter registry. Cheap to share behind an `Arc`;
/// [`run`](JobRunner::run) takes `&self`, so any number of threads can run
/// jobs concurrently (the cache is the only shared mutable state, and
/// it has its own lock).
pub struct JobRunner {
    pub(crate) opts: BatchOptions,
    cache: Option<SharedCache>,
    /// Counted on when no telemetry board is attached.
    registry: SyncRegistry,
}

impl JobRunner {
    /// A runner over `opts`. The cache is built from `opts.cache_size`
    /// and persists across every [`run`](JobRunner::run) on this
    /// runner. Counters register on `opts.telemetry`'s registry when
    /// present, so they feed `/metrics` live; every counter is
    /// registered here, so a scrape lists it before its first count.
    pub fn new(opts: BatchOptions) -> JobRunner {
        let cache = opts.cache_size.map(SharedCache::new);
        let runner = JobRunner {
            opts,
            cache,
            registry: SyncRegistry::new(),
        };
        for name in BatchCounters::registry_names() {
            runner.registry().counter(name);
        }
        if let Some(store) = &runner.opts.store {
            runner.set_store_gauges(&store.lock());
        }
        runner
    }

    /// Inserts a canonical circuit into the cache, when there is one,
    /// and sets the board's `cache_entries` gauge under the cache lock,
    /// so the gauge moves in the order the cache does.
    pub(crate) fn cache_insert(&self, key: &CacheKey, circuit: &Circuit, tier: SolveTier) {
        let Some(cache) = &self.cache else {
            return;
        };
        let mut cache = cache.lock();
        cache.insert(key.clone(), circuit.clone(), tier);
        if let Some(t) = self.telemetry() {
            t.cache_entries.set(cache.len() as u64);
        }
    }

    /// Sets the board's four store gauges from `store`: when the runner
    /// is built, and under the store lock after each append. Without a
    /// board, a runner registers no store gauges.
    pub(crate) fn set_store_gauges(&self, store: &CircuitStore) {
        let Some(t) = self.telemetry() else {
            return;
        };
        let stats = store.stats();
        for (name, value) in [
            ("store_entries", stats.entries),
            ("store_file_bytes", stats.file_bytes),
            ("store_quarantined_records", stats.quarantined_records),
            ("store_verify_rejected", stats.verify_rejected),
        ] {
            t.registry().gauge(name).set(value);
        }
    }

    /// The registry the runner counts on.
    pub(crate) fn registry(&self) -> &SyncRegistry {
        match &self.opts.telemetry {
            Some(t) => t.registry(),
            None => &self.registry,
        }
    }

    /// Adds `n` to the run counter `name`.
    pub(crate) fn count(&self, name: &str, n: u64) {
        debug_assert!(
            BatchCounters::registry_names().any(|known| known == name),
            "`{name}` is not a batch counter"
        );
        self.registry().counter(name).add(n);
    }

    /// Books one finished record, live or recovered from a journal:
    /// counts how it ended and marks its job-board slot. The only place
    /// outcome counters are incremented.
    pub(crate) fn finish(&self, index: usize, outcome: &JobOutcome) {
        match outcome.ending() {
            Ending::Solved {
                verified,
                solved_by,
            } => {
                self.count("jobs_completed", 1);
                match verified {
                    Some(true) => self.count("verified_ok", 1),
                    Some(false) => self.count("verify_failures", 1),
                    None => {}
                }
                self.count(solved_by.counter(), 1);
            }
            Ending::Unsolved { stop_reason } => {
                self.count("jobs_unsolved", 1);
                if stop_reason == StopReason::DeadlineExpired.to_string() {
                    self.count("deadline_expired", 1);
                } else if stop_reason == StopReason::Cancelled.to_string() {
                    self.count("cancelled", 1);
                }
            }
            Ending::Error => self.count("jobs_errored", 1),
            Ending::Panicked => self.count("panics_contained", 1),
            Ending::Skipped => {}
        }
        if let Some(t) = self.telemetry() {
            t.jobs.mark_finished(index, outcome);
        }
    }

    /// The cache jobs run against (`None` when caching is disabled).
    pub fn cache(&self) -> Option<&SharedCache> {
        self.cache.as_ref()
    }

    /// The telemetry board the runner reports to, if any.
    pub fn telemetry(&self) -> Option<&Arc<BatchTelemetry>> {
        self.opts.telemetry.as_ref()
    }

    /// Runs one admission to completion.
    ///
    /// - `deadline` overrides the runner's configured per-job deadline
    ///   when given (a per-request deadline);
    /// - `cancel` aborts the search mid-flight when tripped (batch
    ///   abort, client disconnect, service shutdown) — the job then
    ///   reports `unsolved` with a `cancelled` stop reason;
    /// - `index` names the job: its telemetry job-board slot (driven
    ///   through running → finished when a board is attached), its
    ///   trace-dump file prefix and its batch-journal `index` field;
    /// - `sink` builds a fresh event sink per search attempt for
    ///   streamed progress events;
    /// - `journal`, when given, receives the finished record before
    ///   the trace dump is written, so a failed append still shows as
    ///   a `journal_append_failed` anomaly in that job's dump.
    ///
    /// Never panics on job failure: panics inside the job are contained
    /// into a `panicked` record.
    pub fn run(
        &self,
        admission: &Admission,
        deadline: Option<Duration>,
        cancel: &CancelToken,
        index: usize,
        sink: Option<&SinkFactory>,
        journal: Option<&Mutex<JournalWriter>>,
    ) -> JobRecord {
        // One recorder per job, created on the thread that runs it
        // (FlightRecorder is same-thread by design).
        let recorder = self
            .opts
            .trace_dir
            .as_ref()
            .map(|_| FlightRecorder::with_default_budget());
        let board = self.opts.telemetry.as_ref().map(|t| (t, index));
        if let Some((t, _)) = board {
            t.jobs.mark_running(index);
        }
        let job = JobContext {
            runner: self,
            deadline: deadline.or(self.opts.deadline),
            cancel,
            recorder: recorder.as_ref(),
            board,
            sink,
        };
        let record = run_one(admission, &job);
        if let Some((t, _)) = board {
            t.job_seconds.record(record.seconds);
        }
        self.finish(index, &record.outcome);
        if let Some(w) = journal {
            let line = record.to_json_indexed(index).to_string();
            if lock(w).append(&line).is_err() {
                self.count("journal_append_errors", 1);
                if let Some(r) = &recorder {
                    r.anomaly("journal_append_failed", "engine/journal/append");
                }
            }
        }
        if let (Some(dir), Some(r)) = (self.opts.trace_dir.as_deref(), &recorder) {
            write_job_traces(dir, index, &record.name, r, self);
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobOutcome, SolveTier};
    use crate::manifest::admit_inline;
    use crate::store::SharedStore;

    fn runner(opts: BatchOptions) -> JobRunner {
        JobRunner::new(opts)
    }

    fn perm_job(name: &str) -> Admission {
        admit_inline(name, "perm", "1,0,3,2,5,4,7,6", "test".to_string())
    }

    #[test]
    fn runs_one_job_and_caches_it() {
        let r = runner(BatchOptions::default());
        let token = CancelToken::new();
        let first = r.run(&perm_job("a"), None, &token, 0, None, None);
        assert!(!first.cache_hit);
        assert!(matches!(
            first.outcome,
            JobOutcome::Solved {
                verified: Some(true),
                ..
            }
        ));
        assert_eq!(r.cache().unwrap().len(), 1);
        // The same spec under a different name hits the warm cache with
        // identical attribution and a byte-identical circuit.
        let second = r.run(&perm_job("b"), None, &token, 0, None, None);
        assert!(second.cache_hit);
        let gates = |rec: &JobRecord| match &rec.outcome {
            JobOutcome::Solved {
                circuit, solved_by, ..
            } => (format!("{:?}", circuit.gates()), *solved_by),
            other => panic!("want solved, got {other:?}"),
        };
        let (g1, t1) = gates(&first);
        let (g2, t2) = gates(&second);
        assert_eq!(g1, g2);
        assert_eq!(t1, SolveTier::Rmrls);
        assert_eq!(t2, SolveTier::Rmrls);
    }

    #[test]
    fn the_runner_sets_the_cache_and_store_gauges() {
        let dir = std::env::temp_dir().join(format!("rmrls-runner-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gauges.store");
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(path.to_str().unwrap()).unwrap();
        let board_runner = || {
            let board = Arc::new(BatchTelemetry::new(vec!["job".to_string()]));
            let r = runner(BatchOptions {
                telemetry: Some(Arc::clone(&board)),
                store: Some(store.clone()),
                ..BatchOptions::default()
            });
            (board, r)
        };
        let gauge = |board: &BatchTelemetry, name: &str| {
            let snap = board.registry().snapshot();
            let (_, value, peak) = snap.gauges.into_iter().find(|(n, _, _)| n == name).unwrap();
            (value as u64, peak as u64)
        };
        let token = CancelToken::new();

        // The store gauges are primed when the runner is built.
        let (board, r) = board_runner();
        let empty_bytes = store.stats().file_bytes;
        assert_eq!(gauge(&board, "store_entries"), (0, 0));
        assert_eq!(gauge(&board, "store_file_bytes").0, empty_bytes);
        assert_eq!(gauge(&board, "cache_entries"), (0, 0));
        // A fresh synthesis enters the cache and is appended.
        r.run(&perm_job("a"), None, &token, 0, None, None);
        assert_eq!(gauge(&board, "cache_entries"), (1, 1));
        assert_eq!(gauge(&board, "store_entries"), (1, 1));
        let appended_bytes = store.stats().file_bytes;
        assert!(appended_bytes > empty_bytes);
        assert_eq!(gauge(&board, "store_file_bytes").0, appended_bytes);
        assert_eq!(gauge(&board, "store_quarantined_records"), (0, 0));
        assert_eq!(gauge(&board, "store_verify_rejected"), (0, 0));

        // A new runner over the warm store promotes its hit into the
        // cache.
        let (board, r) = board_runner();
        assert_eq!(gauge(&board, "store_entries"), (1, 1));
        assert!(r.run(&perm_job("b"), None, &token, 0, None, None).cache_hit);
        assert_eq!(gauge(&board, "cache_entries"), (1, 1));
        assert_eq!(gauge(&board, "store_file_bytes").0, appended_bytes);
    }

    #[test]
    fn a_tripped_cancel_token_stops_the_job_cleanly() {
        let token = CancelToken::new();
        token.cancel();
        let r = runner(BatchOptions::default());
        // Wide enough that the search cannot finish before its first
        // budget poll sees the token.
        let hard = admit_inline(
            "hard",
            "perm",
            "7,6,5,4,3,2,1,0,15,14,13,12,11,10,9,8",
            "test".to_string(),
        );
        let record = r.run(&hard, None, &token, 0, None, None);
        match record.outcome {
            JobOutcome::Unsolved { stop_reason } => assert_eq!(stop_reason, "cancelled"),
            other => panic!("want cancelled unsolved, got {other:?}"),
        }
    }

    #[test]
    fn bad_admissions_become_error_records_not_panics() {
        let r = runner(BatchOptions::default());
        let bad = admit_inline("bad", "perm", "0,0,0,0", "test".to_string());
        let record = r.run(&bad, None, &CancelToken::new(), 0, None, None);
        assert!(matches!(record.outcome, JobOutcome::Error { .. }));
    }
}
