//! The batch engine: a fixed worker pool over one [`JobRunner`].
//!
//! [`run_batch_resumable`] builds a single runner from its options and
//! every worker feeds it admissions from a shared queue; the runner
//! ([`runner`](crate::runner)) is the engine's only per-job path, the
//! same one the serve daemon drives request by request. This module
//! holds what that path executes, per job:
//!
//! 1. tabulated permutations are **canonicalized** under wire
//!    relabeling and the search always runs on the canonical
//!    representative, whether or not the cache is enabled — this is
//!    what makes batch results byte-identical across worker counts and
//!    cache on/off (the cache merely memoizes a computation the engine
//!    would deterministically repeat);
//! 2. the shared LRU cache is consulted on the canonical table; a hit
//!    skips the search entirely and the cached circuit is conjugated
//!    back to the requested labeling;
//! 3. each job runs under `catch_unwind`, so one poisoned spec becomes
//!    a `panicked` record instead of taking down the run;
//! 4. each job's search carries a [`Budget`](rmrls_core::Budget): the
//!    per-job deadline (measured from job start) plus the caller's
//!    cancel token (the engine's abort token in batch mode), so
//!    shutdown reaches in-flight searches within one budget poll;
//! 5. with [`BatchOptions::fallback`] set, a failed search descends a
//!    **fallback ladder** — relaxed-pruning RMRLS, then the MMD
//!    baseline, which always terminates — and every solved record
//!    carries its producing tier as `solved_by`.
//!
//! Results are written in job-admission order regardless of completion
//! order. The per-job JSONL stream contains only deterministic fields;
//! wall-clock timings and cache statistics live in the aggregate
//! report, which is allowed to vary run to run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rmrls_baselines::{mmd_synthesize, MmdVariant};
use rmrls_circuit::Circuit;
use rmrls_core::{
    synthesize_with_observer, CancelToken, Observer, Pruning, SearchStats, StopReason, Synthesis,
    SynthesisOptions,
};
use rmrls_obs::{FlightRecorder, Json, SyncRegistry, TraceKind};
use rmrls_pprm::MultiPprm;
use rmrls_spec::Permutation;

use crate::cache::CacheKey;
use crate::canon::{canonical_form, uncanonicalize_circuit};
use crate::journal::{CompletedJob, JournalWriter};
use crate::manifest::{Admission, BatchJob, SpecData};
use crate::runner::JobRunner;
use crate::signal::ShutdownHandles;
use crate::store::SharedStore;
use crate::telemetry::{BatchTelemetry, SAMPLE_INTERVAL};

/// Builds one fresh [`rmrls_obs::EventSink`] per search attempt. The
/// serve daemon passes a factory that tees progress events into a
/// request's JSONL stream; each ladder tier constructs its own
/// `Observer`, hence a factory rather than a single sink. `None`
/// everywhere in batch mode.
pub type SinkFactory = dyn Fn() -> Box<dyn rmrls_obs::EventSink> + Sync;

/// One job on its way down the per-job path: the runner it runs on
/// (options, cache, counters) plus what differs from job to job. Built
/// by [`JobRunner::run`] for every job.
pub(crate) struct JobContext<'a> {
    pub(crate) runner: &'a JobRunner,
    /// The job's deadline, measured from when its search starts.
    pub(crate) deadline: Option<Duration>,
    /// Trips mid-search cancellation (batch abort, serve disconnect).
    pub(crate) cancel: &'a CancelToken,
    pub(crate) recorder: Option<&'a FlightRecorder>,
    /// The telemetry board and this job's slot on it, when attached.
    pub(crate) board: Option<(&'a Arc<BatchTelemetry>, usize)>,
    pub(crate) sink: Option<&'a SinkFactory>,
}

/// Version of the batch report / results-JSONL schema.
pub const BATCH_SCHEMA_VERSION: u64 = 1;

/// Widths up to this bound are verified exhaustively; wider symbolic
/// specs fall back to quasirandom probes (mirrors the policy of
/// `rmrls_circuit::check_equivalence`).
const VERIFY_EXHAUSTIVE_LIMIT: usize = 20;
const VERIFY_PROBES: u64 = 4096;

/// Widest spec handed to the MMD fallback tier: MMD materializes the
/// full `2^n` truth table, so the ladder only descends to it for specs
/// that fit (this matches the manifest loader's TFC width cap).
const MMD_FALLBACK_LIMIT: usize = 16;

/// Which rung of the fallback ladder produced a circuit.
///
/// The ladder is deterministic per (canonical spec, options): every run
/// that solves a given job solves it at the same tier, so `solved_by`
/// is part of the deterministic JSONL stream and identical across
/// worker counts and cache settings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveTier {
    /// The configured RMRLS search solved it directly.
    Rmrls,
    /// The relaxed retry (greedy pruning, small queue, stop at first
    /// solution) solved it after the configured search gave up.
    RmrlsRelaxed,
    /// The MMD transformation-based baseline solved it; MMD always
    /// terminates, which is what makes the ladder total.
    Mmd,
}

impl SolveTier {
    /// Stable lowercase name used in JSONL records and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveTier::Rmrls => "rmrls",
            SolveTier::RmrlsRelaxed => "rmrls-relaxed",
            SolveTier::Mmd => "mmd",
        }
    }
}

/// Configuration of one batch run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-job deadline, measured from the moment the job starts. The
    /// serve daemon applies it to every request that carries no
    /// `deadline_ms` of its own.
    pub deadline: Option<Duration>,
    /// Result-cache capacity; `None` disables the cache.
    pub cache_size: Option<usize>,
    /// Widest permutation canonicalized by brute force over all `n!`
    /// wire relabelings (see [`canon`](crate::canon) for the cost).
    pub canon_limit: usize,
    /// Verify every produced circuit against its specification.
    pub verify: bool,
    /// Run the fallback ladder: when the configured search gives up,
    /// retry with relaxed pruning, then hand the job to the MMD
    /// baseline (which always terminates). With this set, every
    /// well-formed reversible job of fallback-eligible width produces a
    /// verified circuit.
    pub fallback: bool,
    /// Directory for per-job flight-recorder dumps. When set, every job
    /// runs with a [`FlightRecorder`] attached and writes
    /// `<index>-<job>.trace.json` here; jobs whose recorder registered
    /// an anomaly (tier escalation, deadline expiry,
    /// cancellation, panic, injected fault) additionally write
    /// `<index>-<job>.anomaly.json`. `None` (the default) records
    /// nothing.
    pub trace_dir: Option<String>,
    /// Live telemetry board. When set, the [`JobRunner`] counts on the
    /// board's registry instead of one of its own (so the run's
    /// counters are the live `/metrics` series), records each job's
    /// latency into the histograms and drives the job's board slot
    /// through running → finished; a batch run also keeps a background
    /// gauge sampler going. All observation-only: results are
    /// byte-identical with telemetry on or off.
    pub telemetry: Option<Arc<BatchTelemetry>>,
    /// Durable canonical circuit store. When set, a canonical-cache
    /// miss consults the store's verified index before synthesizing
    /// (hits are promoted into the in-memory cache), and every fresh
    /// synthesis is offered back to the store, which keeps the cheaper
    /// circuit on conflict. Excluded from the journal options
    /// fingerprint for the same reason the cache is: the store serves
    /// only verified canonical circuits, so it cannot change results,
    /// only speed.
    pub store: Option<SharedStore>,
    /// Provenance label recorded on store inserts (`"batch"`,
    /// `"serve"`, ...).
    pub store_provenance: String,
    /// Base search configuration applied to every job.
    pub synthesis: SynthesisOptions,
}

impl Default for BatchOptions {
    /// One worker, 1024-entry cache, canonicalization up to 8 wires,
    /// verification on, and a 200k-node search budget so a batch
    /// without a deadline still terminates.
    fn default() -> BatchOptions {
        BatchOptions {
            workers: 1,
            deadline: None,
            cache_size: Some(1024),
            canon_limit: 8,
            verify: true,
            fallback: false,
            trace_dir: None,
            telemetry: None,
            store: None,
            store_provenance: "batch".to_string(),
            synthesis: SynthesisOptions::new().with_max_nodes(200_000),
        }
    }
}

/// How one job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// A circuit was produced (and possibly verified).
    Solved {
        /// The synthesized circuit, in the job's own wire labeling.
        circuit: Circuit,
        /// `Some(result)` when verification ran, `None` when disabled.
        verified: Option<bool>,
        /// Which ladder tier produced the circuit (`Rmrls` unless the
        /// fallback ladder descended).
        solved_by: SolveTier,
    },
    /// The search stopped without a solution.
    Unsolved {
        /// Display form of the search's stop reason.
        stop_reason: String,
    },
    /// The job could not be loaded or was invalid.
    Error {
        /// What was wrong.
        message: String,
    },
    /// The job panicked; the panic was contained to this record.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The batch was drained before this job started.
    Skipped,
    /// The job was recovered from a resume journal; `json` is its
    /// journaled record, verbatim (including the `index` field).
    Resumed {
        /// The record as read from the journal.
        json: Json,
    },
}

/// How a finished record ended, as its counters and its job-board slot
/// see it: decoded from a live [`JobOutcome`], or from a resumed
/// record's journaled `status`, `verified`, `solved_by` and
/// `stop_reason` fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ending<'a> {
    Solved {
        verified: Option<bool>,
        solved_by: SolveTier,
    },
    Unsolved {
        stop_reason: &'a str,
    },
    Error,
    Panicked,
    /// Skipped by a drain, or a journaled record of any other status.
    Skipped,
}

impl JobOutcome {
    pub(crate) fn ending(&self) -> Ending<'_> {
        match self {
            JobOutcome::Solved {
                verified,
                solved_by,
                ..
            } => Ending::Solved {
                verified: *verified,
                solved_by: *solved_by,
            },
            JobOutcome::Unsolved { stop_reason } => Ending::Unsolved { stop_reason },
            JobOutcome::Error { .. } => Ending::Error,
            JobOutcome::Panicked { .. } => Ending::Panicked,
            JobOutcome::Skipped => Ending::Skipped,
            JobOutcome::Resumed { json } => {
                let field = |key| json.get(key).and_then(Json::as_str);
                match field("status") {
                    Some("solved") => Ending::Solved {
                        verified: json.get("verified").and_then(Json::as_bool),
                        solved_by: [SolveTier::RmrlsRelaxed, SolveTier::Mmd]
                            .into_iter()
                            .find(|t| field("solved_by") == Some(t.as_str()))
                            // Pre-fallback journals have no solved_by;
                            // attribute to the only tier that existed.
                            .unwrap_or(SolveTier::Rmrls),
                    },
                    Some("unsolved") => Ending::Unsolved {
                        stop_reason: field("stop_reason").unwrap_or_default(),
                    },
                    Some("error") => Ending::Error,
                    Some("panicked") => Ending::Panicked,
                    _ => Ending::Skipped,
                }
            }
        }
    }
}

/// One job's result row.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Display name.
    pub name: String,
    /// `file:line` / `suite:*` origin.
    pub origin: String,
    /// Whether this job was served from the cache.
    pub cache_hit: bool,
    /// Wall-clock seconds spent on the job.
    pub seconds: f64,
    /// How it ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Serializes the **deterministic** portion of the record (no
    /// timings, no cache attribution) as one JSONL object.
    ///
    /// A [`Resumed`](JobOutcome::Resumed) record returns its journaled
    /// JSON with the `index` field stripped — byte-identical to what
    /// the original run's `to_json` produced, so a resumed batch's
    /// results stream matches an uninterrupted run's.
    pub fn to_json(&self) -> Json {
        if let JobOutcome::Resumed { json } = &self.outcome {
            if let Json::Obj(fields) = json {
                return Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| k != "index")
                        .cloned()
                        .collect(),
                );
            }
            return json.clone();
        }
        let mut fields = vec![
            ("job".to_string(), Json::str(&self.name)),
            ("origin".to_string(), Json::str(&self.origin)),
        ];
        match &self.outcome {
            JobOutcome::Solved {
                circuit,
                verified,
                solved_by,
            } => {
                let gates: Vec<Json> = circuit
                    .gates()
                    .iter()
                    .map(|g| Json::Str(g.to_string()))
                    .collect();
                fields.push(("status".to_string(), Json::str("solved")));
                fields.push(("solved_by".to_string(), Json::str(solved_by.as_str())));
                fields.push(("width".to_string(), Json::uint(circuit.width() as u64)));
                fields.push(("gates".to_string(), Json::uint(circuit.gate_count() as u64)));
                fields.push((
                    "quantum_cost".to_string(),
                    Json::uint(circuit.quantum_cost()),
                ));
                fields.push((
                    "verified".to_string(),
                    verified.map(Json::Bool).unwrap_or(Json::Null),
                ));
                fields.push(("circuit".to_string(), Json::Arr(gates)));
            }
            JobOutcome::Unsolved { stop_reason } => {
                fields.push(("status".to_string(), Json::str("unsolved")));
                fields.push(("stop_reason".to_string(), Json::str(stop_reason)));
            }
            JobOutcome::Error { message } => {
                fields.push(("status".to_string(), Json::str("error")));
                fields.push(("message".to_string(), Json::str(message)));
            }
            JobOutcome::Panicked { message } => {
                fields.push(("status".to_string(), Json::str("panicked")));
                fields.push(("message".to_string(), Json::str(message)));
            }
            JobOutcome::Skipped => {
                fields.push(("status".to_string(), Json::str("skipped")));
            }
            JobOutcome::Resumed { .. } => unreachable!("handled above"),
        }
        Json::Obj(fields)
    }

    /// Serializes the record as a journal line: [`Self::to_json`] plus a
    /// leading `index` field tying it to its admission slot. Resumed
    /// records return their journaled JSON verbatim.
    pub fn to_json_indexed(&self, index: usize) -> Json {
        if let JobOutcome::Resumed { json } = &self.outcome {
            return json.clone();
        }
        let Json::Obj(fields) = self.to_json() else {
            unreachable!("to_json always returns an object");
        };
        let mut indexed = Vec::with_capacity(fields.len() + 1);
        indexed.push(("index".to_string(), Json::uint(index as u64)));
        indexed.extend(fields);
        Json::Obj(indexed)
    }
}

/// The counters a run takes from its admission list, not its registry.
const ADMISSION_COUNTS: [&str; 2] = ["jobs_total", "jobs_skipped"];

/// Aggregate counters of one batch run: at pool join, a view of the
/// run's counter registry plus the two counts of its admission list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Jobs admitted (including per-job manifest errors).
    pub jobs_total: u64,
    /// Jobs that produced a circuit.
    pub jobs_completed: u64,
    /// Jobs whose search stopped without a solution.
    pub jobs_unsolved: u64,
    /// Jobs rejected at admission (malformed manifest entries).
    pub jobs_errored: u64,
    /// Panics contained by per-job isolation.
    pub panics_contained: u64,
    /// Jobs never started because the batch drained.
    pub jobs_skipped: u64,
    /// Canonical-cache hits.
    pub cache_hits: u64,
    /// Canonical-cache misses (cache enabled, entry absent).
    pub cache_misses: u64,
    /// Jobs served from the durable store's verified index (after an
    /// in-memory cache miss).
    pub store_hits: u64,
    /// Fresh syntheses appended to the durable store.
    pub store_inserts: u64,
    /// Store appends that failed (the job still completes; the store
    /// merely under-remembers).
    pub store_append_errors: u64,
    /// Searches stopped by their per-job deadline.
    pub deadline_expired: u64,
    /// Searches stopped by the abort token.
    pub cancelled: u64,
    /// Circuits that passed verification.
    pub verified_ok: u64,
    /// Circuits that FAILED verification (always a bug).
    pub verify_failures: u64,
    /// Jobs solved by the configured RMRLS search (tier 1).
    pub solved_by_rmrls: u64,
    /// Jobs solved by the relaxed-pruning retry (tier 2).
    pub solved_by_relaxed: u64,
    /// Jobs solved by the MMD baseline (tier 3).
    pub solved_by_mmd: u64,
    /// Jobs recovered from a resume journal instead of re-running.
    pub jobs_resumed: u64,
    /// Journal appends that failed (the batch continues; the journal
    /// merely under-records, which a later resume re-runs).
    pub journal_append_errors: u64,
    /// Anomaly dumps written to the trace directory.
    pub anomaly_dumps: u64,
    /// Flight-recorder records evicted from per-job rings (never
    /// silently lost: nonzero means the trace files are truncated
    /// prefixes-of-recent-history).
    pub trace_records_dropped: u64,
    /// Trace or anomaly files that failed to write (the batch
    /// continues; the dump is lost but counted).
    pub trace_write_errors: u64,
}

impl BatchCounters {
    /// Cache hit-rate in [0, 1]; `None` when the cache saw no traffic.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Every counter with its report key, in report order: the one
    /// list of counter names. Each but [`ADMISSION_COUNTS`] is a
    /// counter of the same name on the run's registry.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 23] {
        [
            ("jobs_total", &mut self.jobs_total),
            ("jobs_completed", &mut self.jobs_completed),
            ("jobs_unsolved", &mut self.jobs_unsolved),
            ("jobs_errored", &mut self.jobs_errored),
            ("panics_contained", &mut self.panics_contained),
            ("jobs_skipped", &mut self.jobs_skipped),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("store_hits", &mut self.store_hits),
            ("store_inserts", &mut self.store_inserts),
            ("store_append_errors", &mut self.store_append_errors),
            ("deadline_expired", &mut self.deadline_expired),
            ("cancelled", &mut self.cancelled),
            ("verified_ok", &mut self.verified_ok),
            ("verify_failures", &mut self.verify_failures),
            ("solved_by_rmrls", &mut self.solved_by_rmrls),
            ("solved_by_relaxed", &mut self.solved_by_relaxed),
            ("solved_by_mmd", &mut self.solved_by_mmd),
            ("jobs_resumed", &mut self.jobs_resumed),
            ("journal_append_errors", &mut self.journal_append_errors),
            ("anomaly_dumps", &mut self.anomaly_dumps),
            ("trace_records_dropped", &mut self.trace_records_dropped),
            ("trace_write_errors", &mut self.trace_write_errors),
        ]
    }

    /// The names of the counters a [`JobRunner`] keeps on its registry,
    /// in report order.
    pub(crate) fn registry_names() -> impl Iterator<Item = &'static str> {
        let names = BatchCounters::default().fields_mut().map(|(name, _)| name);
        names
            .into_iter()
            .filter(|name| !ADMISSION_COUNTS.contains(name))
    }

    /// The counters of a run over `jobs_total` admissions, of which
    /// `jobs_skipped` never started, read from the run's registry.
    pub(crate) fn read(
        registry: &SyncRegistry,
        jobs_total: u64,
        jobs_skipped: u64,
    ) -> BatchCounters {
        let mut counters = BatchCounters {
            jobs_total,
            jobs_skipped,
            ..BatchCounters::default()
        };
        for (name, value) in counters.fields_mut() {
            if !ADMISSION_COUNTS.contains(&name) {
                *value = registry.counter(name).get();
            }
        }
        counters
    }

    fn to_json(&self) -> Json {
        let fields = self
            .clone()
            .fields_mut()
            .map(|(name, value)| (name.to_string(), Json::uint(*value)));
        Json::Obj(fields.into())
    }
}

/// A completed (possibly partially drained) batch run.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-job records in admission order.
    pub records: Vec<JobRecord>,
    /// Aggregate counters.
    pub counters: BatchCounters,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl BatchRun {
    /// The per-job results as JSON lines (one object per job, in
    /// admission order; deterministic for a given manifest and search
    /// configuration, independent of worker count and cache setting).
    pub fn results_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Jobs actually processed (everything but skipped).
    pub fn jobs_processed(&self) -> u64 {
        self.counters.jobs_total - self.counters.jobs_skipped
    }

    /// Throughput over the whole run, in specifications per second.
    pub fn specs_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.jobs_processed() as f64 / secs
        } else {
            0.0
        }
    }

    /// The aggregate run report (counters, throughput, configuration
    /// echoes — the non-deterministic complement of the JSONL stream).
    pub fn report_json(&self, opts: &BatchOptions) -> Json {
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::uint(BATCH_SCHEMA_VERSION),
            ),
            ("tool".to_string(), Json::str("rmrls-batch")),
            ("workers".to_string(), Json::uint(self.workers as u64)),
            (
                "deadline_ms".to_string(),
                opts.deadline
                    .map(|d| Json::uint(d.as_millis() as u64))
                    .unwrap_or(Json::Null),
            ),
            (
                "cache_size".to_string(),
                opts.cache_size
                    .map(|c| Json::uint(c as u64))
                    .unwrap_or(Json::Null),
            ),
            (
                "canon_limit".to_string(),
                Json::uint(opts.canon_limit as u64),
            ),
            ("verify".to_string(), Json::Bool(opts.verify)),
            ("fallback".to_string(), Json::Bool(opts.fallback)),
            (
                "elapsed_seconds".to_string(),
                Json::Num(self.elapsed.as_secs_f64()),
            ),
            (
                "specs_per_second".to_string(),
                Json::Num(self.specs_per_second()),
            ),
            (
                "cache_hit_rate".to_string(),
                self.counters
                    .cache_hit_rate()
                    .map(Json::Num)
                    .unwrap_or(Json::Null),
            ),
            ("counters".to_string(), self.counters.to_json()),
        ])
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panicking inside the cache poisons the mutex; the data
    // (an LRU map) stays structurally valid, so recover rather than
    // letting one contained panic disable caching for the rest of the
    // run.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs every admitted job on a pool of `opts.workers` threads.
///
/// Returns when all jobs are finished or the batch drained via
/// `shutdown`; never panics on job failures (panics are contained into
/// per-job records).
pub fn run_batch(
    admissions: &[Admission],
    opts: &BatchOptions,
    shutdown: &ShutdownHandles,
) -> BatchRun {
    run_batch_resumable(admissions, opts, shutdown, None, None)
}

/// [`run_batch`] plus checkpoint/resume plumbing.
///
/// The pool shares one [`JobRunner`] built from `opts`: every worker
/// hands it the next admission, with the admission index as the job's
/// index and `shutdown.abort` as its cancel token.
///
/// When `journal` is given, every finished record is durably appended
/// (via [`JournalWriter::append`]) before the batch moves on — the
/// write-ahead discipline that makes a SIGKILL lose at most one job. A
/// failed append never fails the batch; it increments
/// `journal_append_errors` and the affected job simply re-runs on the
/// next resume.
///
/// When `resumed` is given, the records it maps are taken as already
/// complete: their slots are pre-filled with
/// [`Resumed`](JobOutcome::Resumed) outcomes, each is tallied from its
/// journaled fields (and counted in `jobs_resumed`), and workers skip
/// them entirely.
/// Cache counters intentionally start cold — a resumed run may show
/// different `cache_hits`/`cache_misses` than an uninterrupted one,
/// but never different results.
pub fn run_batch_resumable(
    admissions: &[Admission],
    opts: &BatchOptions,
    shutdown: &ShutdownHandles,
    journal: Option<&Mutex<JournalWriter>>,
    resumed: Option<&HashMap<usize, CompletedJob>>,
) -> BatchRun {
    let started = Instant::now();
    let workers = opts.workers.max(1);
    let runner = JobRunner::new(opts.clone());
    let telemetry = runner.telemetry();
    if let Some(t) = telemetry {
        t.set_workers_total(workers as u64);
    }
    let slots: Vec<Mutex<Option<JobRecord>>> =
        admissions.iter().map(|_| Mutex::new(None)).collect();
    if let Some(done) = resumed {
        for (&index, job) in done {
            if index >= admissions.len() {
                continue;
            }
            let outcome = JobOutcome::Resumed {
                json: job.json.clone(),
            };
            runner.count("jobs_resumed", 1);
            runner.finish(index, &outcome);
            *lock(&slots[index]) = Some(JobRecord {
                name: admissions[index].name().to_string(),
                origin: admissions[index].origin().to_string(),
                cache_hit: false,
                seconds: 0.0,
                outcome,
            });
        }
    }
    let next = AtomicUsize::new(0);

    // Workers only poll for signals between jobs, so with every worker
    // deep inside a long search nothing would propagate a second
    // Ctrl-C into the abort token until some job finished. A dedicated
    // monitor keeps polling while workers are busy; the abort token
    // then reaches in-flight searches within one budget poll.
    let workers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            while !workers_done.load(Ordering::Acquire) {
                shutdown.poll_signals();
                std::thread::park_timeout(Duration::from_millis(20));
            }
        });
        // The sampler publishes point-in-time gauges (frontier depth,
        // live terms, cache occupancy, busy workers) every beat, so a
        // scrape mid-run sees current values rather than whatever the
        // last finished job left behind. One final beat after the pool
        // drains leaves the gauges at their end-of-run state.
        let sampler = telemetry.map(|t| {
            scope.spawn(|| loop {
                t.sample(runner.cache().map(|c| c.len() as u64));
                if workers_done.load(Ordering::Acquire) {
                    break;
                }
                std::thread::park_timeout(SAMPLE_INTERVAL);
            })
        });
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    shutdown.poll_signals();
                    if shutdown.draining() {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= admissions.len() {
                        break;
                    }
                    if resumed.is_some_and(|done| done.contains_key(&index)) {
                        continue;
                    }
                    let record = runner.run(
                        &admissions[index],
                        None,
                        &shutdown.abort,
                        index,
                        None,
                        journal,
                    );
                    *lock(&slots[index]) = Some(record);
                })
            })
            .collect();
        let mut worker_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                worker_panic = Some(payload);
            }
        }
        workers_done.store(true, Ordering::Release);
        monitor.thread().unpark();
        if let Some(s) = &sampler {
            s.thread().unpark();
        }
        if let Some(payload) = worker_panic {
            // Preserve pre-monitor behavior: an uncontained worker
            // panic (a bug — jobs run under catch_unwind) still
            // propagates out of the scope.
            std::panic::resume_unwind(payload);
        }
    });

    let mut jobs_skipped = 0u64;
    let records: Vec<JobRecord> = admissions
        .iter()
        .zip(slots)
        .map(|(adm, slot)| {
            lock(&slot).take().unwrap_or_else(|| {
                jobs_skipped += 1;
                JobRecord {
                    name: adm.name().to_string(),
                    origin: adm.origin().to_string(),
                    cache_hit: false,
                    seconds: 0.0,
                    outcome: JobOutcome::Skipped,
                }
            })
        })
        .collect();
    BatchRun {
        records,
        counters: BatchCounters::read(runner.registry(), admissions.len() as u64, jobs_skipped),
        elapsed: started.elapsed(),
        workers,
    }
}

/// Trace filenames keep `[A-Za-z0-9._-]` from the job name; every other
/// character becomes `_` so shell-hostile manifest names stay safe on
/// disk. Bounded so a pathological name cannot overflow path limits.
fn sanitize_filename(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    out.truncate(80);
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Prepends identifying fields to a snapshot object so a dump on disk
/// names its job without relying on the filename.
fn tagged_snapshot(snapshot_json: Json, extra: Vec<(String, Json)>) -> Json {
    let Json::Obj(fields) = snapshot_json else {
        unreachable!("RecorderSnapshot::to_json always returns an object");
    };
    let mut all = extra;
    all.extend(fields);
    Json::Obj(all)
}

/// Writes one job's flight-recorder dump — `<index>-<job>.trace.json`,
/// plus `<index>-<job>.anomaly.json` when the recorder registered an
/// anomaly — into the trace directory. Write failures never fail the
/// batch; they increment `trace_write_errors` and move on.
pub(crate) fn write_job_traces(
    dir: &str,
    index: usize,
    job_name: &str,
    recorder: &FlightRecorder,
    runner: &JobRunner,
) {
    let snapshot = recorder.snapshot();
    runner.count("trace_records_dropped", snapshot.dropped);
    let stem = format!("{dir}/{index:04}-{}", sanitize_filename(job_name));
    let trace = tagged_snapshot(
        snapshot.to_json(),
        vec![("job".to_string(), Json::str(job_name))],
    );
    if crate::fsutil::write_atomic(&format!("{stem}.trace.json"), &trace.to_string()).is_err() {
        runner.count("trace_write_errors", 1);
    }
    if snapshot.anomalies == 0 {
        return;
    }
    // The trailing anomaly record names the trigger; the count survives
    // ring eviction, the record may not.
    let trigger = snapshot
        .records
        .iter()
        .rev()
        .find_map(|rec| match &rec.kind {
            TraceKind::Anomaly { kind, .. } => Some(kind.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "evicted".to_string());
    let anomaly = tagged_snapshot(
        snapshot.to_json(),
        vec![
            ("job".to_string(), Json::str(job_name)),
            ("trigger".to_string(), Json::Str(trigger)),
        ],
    );
    match crate::fsutil::write_atomic(&format!("{stem}.anomaly.json"), &anomaly.to_string()) {
        Ok(()) => runner.count("anomaly_dumps", 1),
        Err(_) => runner.count("trace_write_errors", 1),
    }
}

/// Runs one admission under `catch_unwind`: an admission error becomes
/// an `error` record, a panic inside the job a `panicked` one.
pub(crate) fn run_one(admission: &Admission, job: &JobContext) -> JobRecord {
    let started = Instant::now();
    let (name, origin) = (admission.name().to_string(), admission.origin().to_string());
    let (outcome, cache_hit) = match admission {
        Admission::Error { message, .. } => {
            let outcome = JobOutcome::Error {
                message: message.clone(),
            };
            (outcome, false)
        }
        Admission::Job(spec) => {
            if let Some(r) = job.recorder {
                r.phase_enter("job");
            }
            let result = catch_unwind(AssertUnwindSafe(|| execute_job(spec, job)));
            // Exit after catch_unwind returns so the span closes (and
            // nests correctly) even when the job panicked mid-phase.
            if let Some(r) = job.recorder {
                r.phase_exit("job");
            }
            result.unwrap_or_else(|payload| {
                if let Some(r) = job.recorder {
                    r.anomaly("panic", "engine/worker/job");
                }
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                (JobOutcome::Panicked { message }, false)
            })
        }
    };
    JobRecord {
        name,
        origin,
        cache_hit,
        seconds: started.elapsed().as_secs_f64(),
        outcome,
    }
}

/// The relaxed tier's queue cap ([`SynthesisOptions::max_queue`]).
const RELAXED_MAX_QUEUE: usize = 10_000;

/// The tier-2 configuration: the same budget (deadline, cancel token)
/// with greedy pruning, a small queue, and stop-at-first —
/// a cheap, fast sweep that often succeeds exactly where the configured
/// search spent its node budget exploring.
fn relaxed_options(base: &SynthesisOptions) -> SynthesisOptions {
    base.clone()
        .with_pruning(Pruning::Greedy)
        .with_stop_at_first(true)
        .with_max_queue(Some(RELAXED_MAX_QUEUE))
}

/// Whether the relaxed tier, run after tier 1 failed with `tier1`'s
/// stats, would replay tier 1 decision for decision and fail the same
/// way, so the ladder can skip it.
///
/// That holds when the relaxed options keep as many candidates per
/// group and stop at the first solution exactly when `sopts` does
/// (read off the two option values, so it follows any change to
/// [`relaxed_options`]); when tier 1 never trimmed its queue and never
/// held more entries than the relaxed cap, so neither queue cap ever
/// acted; and when tier 1 stopped for a reason a replay meets again. A
/// deadline is one: it is absolute, so a replay would stop at its first
/// poll with the same reason. A cancellation is not: it is a request
/// the rest of the ladder may still answer.
fn relaxed_replays(sopts: &SynthesisOptions, tier1: &SearchStats) -> bool {
    let relaxed = relaxed_options(sopts);
    let same_moves = relaxed.pruning.keep() == sopts.pruning.keep()
        && relaxed.stop_at_first == sopts.stop_at_first;
    let untrimmed = tier1.beam_trims == 0 && tier1.queue_peak <= RELAXED_MAX_QUEUE as u64;
    let same_stop = matches!(
        tier1.stop_reason,
        Some(StopReason::NodeBudget | StopReason::QueueExhausted | StopReason::DeadlineExpired)
    );
    same_moves && untrimmed && same_stop
}

/// One ladder tier: runs the search with the job's flight recorder,
/// progress hook and event sink attached (each when present). A failed
/// search returns its stats, stop reason included.
fn run_search(
    spec: &MultiPprm,
    sopts: &SynthesisOptions,
    job: &JobContext,
) -> Result<Synthesis, Box<SearchStats>> {
    let mut observer = match job.sink {
        // Serve-path event streaming: a fresh sink per search attempt,
        // fed the same run_start/expand/... events the JSONL log sink
        // sees. Observation-only, like the recorder and progress hooks.
        Some(f) => Observer::with_sink(f()),
        None => Observer::null(),
    };
    if let Some(r) = job.recorder {
        observer = observer.with_recorder(r.clone());
    }
    if let Some((t, index)) = job.board {
        observer = observer.with_progress(Box::new(t.progress_hook(index)));
    }
    synthesize_with_observer(spec, sopts, &mut observer).map_err(|e| Box::new(e.stats))
}

/// Records a fallback-ladder descent: a tier-escalation trace record
/// plus an anomaly, since escalation means a solver tier failed.
fn escalate(recorder: Option<&FlightRecorder>, from: SolveTier, to: SolveTier) {
    if let Some(r) = recorder {
        r.record(TraceKind::TierEscalate {
            from: from.as_str().to_string(),
            to: to.as_str().to_string(),
        });
        r.anomaly("tier_escalation", "engine/ladder");
    }
}

/// Runs the synthesis ladder on one (canonical) spec.
///
/// Tier 1 is the configured search. With [`BatchOptions::fallback`]
/// set, a failure descends to tier 2 (relaxed pruning) and finally
/// tier 3, the MMD baseline — which always terminates, so a
/// well-formed reversible spec within [`MMD_FALLBACK_LIMIT`] wires
/// cannot stay unsolved. Tier 2 is skipped when it would only replay
/// tier 1 ([`relaxed_replays`]); the ladder then descends from tier 1
/// straight to tier 3.
/// `perm_for_mmd` materializes the spec as a permutation for tier 3; it
/// returns `None` for specs too wide (or too broken) to hand to MMD,
/// and runs only if the ladder actually reaches tier 3.
///
/// An aborted batch is the one exception to "never fail": once the
/// shared cancel token has tripped, descending further would stall
/// shutdown, so the ladder returns the cancellation instead.
///
/// On failure, returns the *last* attempted tier's stop reason.
fn synthesize_ladder(
    spec: &MultiPprm,
    sopts: &SynthesisOptions,
    job: &JobContext,
    perm_for_mmd: impl FnOnce() -> Option<Permutation>,
) -> Result<(Circuit, SolveTier), Option<StopReason>> {
    let tier1 = match run_search(spec, sopts, job) {
        Ok(s) => return Ok((s.circuit, SolveTier::Rmrls)),
        Err(stats) => stats,
    };
    if !job.runner.opts.fallback || sopts.budget.cancelled() {
        return Err(tier1.stop_reason);
    }
    let (failed_tier, reason) = if relaxed_replays(sopts, &tier1) {
        (SolveTier::Rmrls, tier1.stop_reason)
    } else {
        escalate(job.recorder, SolveTier::Rmrls, SolveTier::RmrlsRelaxed);
        match run_search(spec, &relaxed_options(sopts), job) {
            Ok(s) => return Ok((s.circuit, SolveTier::RmrlsRelaxed)),
            Err(stats) => (
                SolveTier::RmrlsRelaxed,
                stats.stop_reason.or(tier1.stop_reason),
            ),
        }
    };
    if sopts.budget.cancelled() {
        return Err(reason);
    }
    match perm_for_mmd() {
        Some(p) => {
            escalate(job.recorder, failed_tier, SolveTier::Mmd);
            Ok((
                mmd_synthesize(&p, MmdVariant::Bidirectional),
                SolveTier::Mmd,
            ))
        }
        None => Err(reason),
    }
}

/// Converts a fired failpoint into a contained `Error` record, so
/// injected faults flow through the same bookkeeping as real ones —
/// including an anomaly naming the site, so the fault matrix can assert
/// every injected class surfaces in a dump.
fn injected_error(
    e: rmrls_obs::FailError,
    site: &'static str,
    recorder: Option<&FlightRecorder>,
) -> JobOutcome {
    if let Some(r) = recorder {
        r.anomaly("injected_fault", site);
    }
    JobOutcome::Error {
        message: e.to_string(),
    }
}

/// Solves one job. Returns the outcome and whether the circuit came
/// from the canonical cache layer.
fn execute_job(spec: &BatchJob, job: &JobContext) -> (JobOutcome, bool) {
    let opts = &job.runner.opts;
    // Failpoint: a worker falling over as it picks the job up.
    if let Err(e) = rmrls_obs::fail::trigger("engine/worker/dispatch") {
        return (
            injected_error(e, "engine/worker/dispatch", job.recorder),
            false,
        );
    }
    let mut sopts = opts.synthesis.clone().with_cancel_token(job.cancel.clone());
    if let Some(d) = job.deadline {
        sopts = sopts.with_deadline(Instant::now() + d);
    }
    let (solved, cache_hit) = match &spec.spec {
        SpecData::Perm(p) => solve_permutation(p, &sopts, job),
        // Symbolic specs are not canonicalized or cached; the ladder
        // still applies, with tier 3 gated on the spec having a
        // materializable (reversible, narrow-enough) truth table.
        SpecData::Pprm(m) => {
            let ladder = synthesize_ladder(m, &sopts, job, || {
                (m.num_vars() <= MMD_FALLBACK_LIMIT)
                    .then(|| Permutation::from_vec(m.to_permutation()).ok())
                    .flatten()
            });
            (ladder, false)
        }
    };
    let outcome = match solved {
        Err(reason) => JobOutcome::Unsolved {
            stop_reason: reason.map_or_else(|| "unknown".to_string(), |r| r.to_string()),
        },
        // Failpoint: the verifier itself failing. An unverifiable
        // result must not be reported as solved.
        Ok((circuit, tier)) => match rmrls_obs::fail::trigger("engine/worker/pre-verify") {
            Err(e) => injected_error(e, "engine/worker/pre-verify", job.recorder),
            Ok(()) => {
                let verified = opts.verify.then(|| match &spec.spec {
                    SpecData::Perm(p) => verify_permutation(&circuit, p),
                    SpecData::Pprm(m) => verify_pprm(&circuit, m),
                });
                JobOutcome::Solved {
                    circuit,
                    verified,
                    solved_by: tier,
                }
            }
        },
    };
    (outcome, cache_hit)
}

/// Solves a tabulated permutation through its canonical
/// representative: the in-memory cache, then the durable store, then
/// the ladder, whose fresh circuit is offered back to both. Always
/// synthesizes the canonical representative — cache on or off — so
/// results never depend on scheduling (see the module docs). The
/// returned circuit is in the job's own labeling; the flag reports a
/// cache or store hit (either way the circuit came from the canonical
/// cache layer, not a fresh search).
fn solve_permutation(
    p: &Permutation,
    sopts: &SynthesisOptions,
    job: &JobContext,
) -> (Result<(Circuit, SolveTier), Option<StopReason>>, bool) {
    let opts = &job.runner.opts;
    let cache = job.runner.cache();
    let lookup_started = job.board.map(|_| Instant::now());
    let (canon_table, sigma) = canonical_form(p, opts.canon_limit);
    let key = CacheKey {
        num_vars: p.num_vars(),
        table: canon_table,
    };
    // Failpoint: a lookup failure degrades to a miss — the job
    // re-synthesizes rather than erroring.
    let mut canon_solution = match rmrls_obs::fail::trigger("engine/cache/lookup") {
        Ok(()) => cache.and_then(|c| c.lock().get(&key)),
        Err(_) => None,
    };
    if let (Some((t, _)), Some(at)) = (job.board, lookup_started) {
        t.cache_lookup_seconds.record(at.elapsed().as_secs_f64());
    }
    let cache_hit = canon_solution.is_some();
    if cache_hit {
        job.runner.count("cache_hits", 1);
    } else if cache.is_some() {
        job.runner.count("cache_misses", 1);
    }
    if let (Some(r), Some(_)) = (job.recorder, cache) {
        r.record(TraceKind::CacheLookup { hit: cache_hit });
    }
    // Second chance: the durable store's verified index. A hit is
    // promoted into the in-memory cache so repeats within this run stay
    // memory-speed.
    if canon_solution.is_none() {
        if let Some(s) = opts.store.as_ref() {
            canon_solution = s.lock().get(&key);
            if let Some((circuit, tier)) = &canon_solution {
                job.runner.count("store_hits", 1);
                if let Some(c) = cache {
                    c.lock().insert(key.clone(), circuit.clone(), *tier);
                }
            }
        }
    }
    let hit = canon_solution.is_some();
    let (canon_circuit, tier) = match canon_solution {
        Some(solution) => solution,
        None => {
            let spec = MultiPprm::from_permutation(&key.table, key.num_vars);
            let ladder = synthesize_ladder(&spec, sopts, job, || {
                (key.num_vars <= MMD_FALLBACK_LIMIT)
                    .then(|| Permutation::from_vec(key.table.clone()).ok())
                    .flatten()
            });
            let (circuit, tier) = match ladder {
                Ok(solved) => solved,
                Err(reason) => return (Err(reason), false),
            };
            // Failpoint: a failed insert only costs future hits; this
            // job's result is already in hand.
            if let Some(c) = cache {
                if rmrls_obs::fail::trigger("engine/cache/insert").is_ok() {
                    c.lock().insert(key.clone(), circuit.clone(), tier);
                }
            }
            // Offer the fresh synthesis to the durable store; an append
            // failure costs only future warm starts, never this job.
            if let Some(s) = opts.store.as_ref() {
                match s
                    .lock()
                    .insert(&key, &circuit, tier, &opts.store_provenance)
                {
                    Ok(crate::store::InsertOutcome::Inserted { .. }) => {
                        job.runner.count("store_inserts", 1);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        job.runner.count("store_append_errors", 1);
                        if let Some(r) = job.recorder {
                            r.anomaly("store_append_failed", "engine/store/append");
                        }
                    }
                }
            }
            (circuit, tier)
        }
    };
    (
        Ok((uncanonicalize_circuit(&canon_circuit, &sigma), tier)),
        hit,
    )
}

fn verify_permutation(circuit: &Circuit, p: &Permutation) -> bool {
    circuit.width() == p.num_vars() && circuit.to_permutation() == p.as_slice()
}

fn verify_pprm(circuit: &Circuit, m: &MultiPprm) -> bool {
    let n = m.num_vars();
    if circuit.width() != n {
        return false;
    }
    if n <= VERIFY_EXHAUSTIVE_LIMIT {
        (0..1u64 << n).all(|x| circuit.apply(x) == m.eval(x))
    } else {
        // Quasirandom probes, same multiplier as check_equivalence.
        let mask = if n >= 64 { !0u64 } else { (1u64 << n) - 1 };
        (0..VERIFY_PROBES).all(|k| {
            let x = k.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask;
            circuit.apply(x) == m.eval(x)
        })
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmrls_core::synthesize;

    use super::*;

    fn greedy(nodes: u64, queue: Option<usize>) -> SynthesisOptions {
        SynthesisOptions::new()
            .with_pruning(Pruning::Greedy)
            .with_stop_at_first(true)
            .with_max_nodes(nodes)
            .with_max_queue(queue)
    }

    fn failed(reason: StopReason) -> SearchStats {
        SearchStats {
            stop_reason: Some(reason),
            queue_peak: 100,
            ..SearchStats::default()
        }
    }

    #[test]
    fn relaxed_options_change_only_pruning_stop_and_queue_cap() {
        // The replay rule reads pruning and stop_at_first off the two
        // option values; the queue cap is RELAXED_MAX_QUEUE. Any other
        // difference would let a replay diverge unseen.
        let base = SynthesisOptions::new()
            .with_pruning(Pruning::TopK(4))
            .with_max_nodes(777);
        let expected = base
            .clone()
            .with_pruning(Pruning::Greedy)
            .with_stop_at_first(true)
            .with_max_queue(Some(RELAXED_MAX_QUEUE));
        assert_eq!(
            format!("{:?}", relaxed_options(&base)),
            format!("{expected:?}")
        );
    }

    #[test]
    fn a_skipped_relaxed_tier_would_have_replayed_tier_one() {
        let mut rng = StdRng::seed_from_u64(27);
        let specs: Vec<MultiPprm> = [4, 4, 4, 5, 5, 5]
            .iter()
            .map(|&n| rmrls_spec::random_permutation(n, &mut rng).to_multi_pprm())
            .collect();
        let (mut skipped, mut trimmed) = (0, 0);
        for spec in &specs {
            for nodes in [50, 300, 1500] {
                for queue in [None, Some(64)] {
                    let o = greedy(nodes, queue);
                    let Err(tier1) = synthesize(spec, &o) else {
                        continue;
                    };
                    let tier1 = tier1.stats;
                    if tier1.beam_trims > 0 {
                        trimmed += 1;
                        assert!(!relaxed_replays(&o, &tier1), "a trimmed tier 1 runs tier 2");
                    }
                    if !relaxed_replays(&o, &tier1) {
                        continue;
                    }
                    skipped += 1;
                    let replay = synthesize(spec, &relaxed_options(&o))
                        .expect_err("a replay fails as tier 1 did")
                        .stats;
                    let key = |s: &SearchStats| {
                        (
                            s.stop_reason,
                            s.nodes_expanded,
                            s.candidates_scored,
                            s.children_pushed,
                            s.dedup_hits,
                            s.queue_peak,
                        )
                    };
                    assert_eq!(key(&replay), key(&tier1), "nodes {nodes} queue {queue:?}");
                }
            }
        }
        assert!(skipped >= 10, "too few skips to test: {skipped}");
        assert!(trimmed > 0, "no trimmed tier 1 in the sample");
    }

    #[test]
    fn the_relaxed_tier_runs_unless_it_would_replay() {
        let o = greedy(1500, None);
        for reason in [
            StopReason::NodeBudget,
            StopReason::QueueExhausted,
            StopReason::DeadlineExpired,
        ] {
            assert!(relaxed_replays(&o, &failed(reason)), "{reason}");
        }
        // A cancellation is a request, not a bound a replay meets again.
        assert!(!relaxed_replays(&o, &failed(StopReason::Cancelled)));
        // Tier 1 trimmed its queue, or held more than the relaxed cap.
        let mut stats = failed(StopReason::NodeBudget);
        stats.beam_trims = 1;
        assert!(!relaxed_replays(&o, &stats));
        stats.beam_trims = 0;
        stats.queue_peak = RELAXED_MAX_QUEUE as u64 + 1;
        assert!(!relaxed_replays(&o, &stats));
        // A tier 1 that keeps more candidates, or runs past its first
        // solution, searches differently from the relaxed tier.
        let nodes = failed(StopReason::NodeBudget);
        let top4 = o.clone().with_pruning(Pruning::TopK(4));
        assert!(!relaxed_replays(&top4, &nodes));
        assert!(!relaxed_replays(
            &o.clone().with_stop_at_first(false),
            &nodes
        ));

        // The same on real failed runs.
        let mut rng = StdRng::seed_from_u64(5);
        let spec = rmrls_spec::random_permutation(5, &mut rng).to_multi_pprm();
        let top4_run = synthesize(&spec, &top4.with_max_nodes(300))
            .unwrap_err()
            .stats;
        assert_eq!(top4_run.stop_reason, Some(StopReason::NodeBudget));
        assert!(!relaxed_replays(
            &o.clone().with_pruning(Pruning::TopK(4)),
            &top4_run
        ));
        // An expired deadline stops tier 1 at its first poll, and would
        // stop the relaxed tier the same way.
        let timed = o.clone().with_deadline(Instant::now());
        let timed_run = synthesize(&spec, &timed).unwrap_err().stats;
        assert_eq!(timed_run.stop_reason, Some(StopReason::DeadlineExpired));
        assert!(relaxed_replays(&timed, &timed_run));
    }
}
