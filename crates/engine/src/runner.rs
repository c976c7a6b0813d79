//! The engine's one per-job path.
//!
//! [`JobRunner`] is built once, holds the options, the shared cache and
//! the run counters, and [`JobRunner::run`] executes one admission
//! under a caller-chosen deadline and cancel token: canonicalize,
//! cache, ladder, verify, panic containment (see
//! [`engine`](crate::engine)), plus the bookkeeping around the job —
//! its flight recorder, its job-board slot, its latency sample, its
//! batch-journal line and its trace dump.
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

use rmrls_core::CancelToken;
use rmrls_obs::FlightRecorder;

use crate::cache::SharedCache;
use crate::engine::{
    lock, run_one, write_job_traces, BatchOptions, JobContext, JobRecord, RunCounters, SinkFactory,
};
use crate::journal::JournalWriter;
use crate::manifest::Admission;
use crate::telemetry::BatchTelemetry;

/// Executes admissions one at a time against a persistent shared cache
/// and counter set. Cheap to share behind an `Arc`;
/// [`run`](JobRunner::run) takes `&self`, so any number of threads can run
/// jobs concurrently (the cache is the only shared mutable state, and
/// it has its own lock).
pub struct JobRunner {
    pub(crate) opts: BatchOptions,
    cache: Option<SharedCache>,
    pub(crate) counters: RunCounters,
}

impl JobRunner {
    /// A runner over `opts`. The cache is built from `opts.cache_size`
    /// and persists across every [`run`](JobRunner::run) on this
    /// runner. Counters register on `opts.telemetry`'s registry when
    /// present, so they feed `/metrics` live.
    pub fn new(opts: BatchOptions) -> JobRunner {
        let cache = opts.cache_size.map(SharedCache::new);
        let counters = RunCounters::new(opts.telemetry.as_deref());
        JobRunner {
            opts,
            cache,
            counters,
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
            t.jobs.mark_finished(index, &record.outcome);
        }
        if let Some(w) = journal {
            let line = record.to_json_indexed(index).to_string();
            if lock(w).append(&line).is_err() {
                self.counters.journal_append_errors.inc();
                if let Some(r) = &recorder {
                    r.anomaly("journal_append_failed", "engine/journal/append");
                }
            }
        }
        if let (Some(dir), Some(r)) = (self.opts.trace_dir.as_deref(), &recorder) {
            write_job_traces(dir, index, &record.name, r, &self.counters);
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobOutcome, SolveTier};
    use crate::manifest::admit_inline;

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
