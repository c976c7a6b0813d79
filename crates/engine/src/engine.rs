//! The batch engine: a fixed worker pool over a shared job queue.
//!
//! Execution model, per job:
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
//!    per-job deadline (measured from job start) plus the engine's
//!    abort token, so shutdown reaches in-flight searches within one
//!    budget poll;
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
    synthesize_with_observer, Observer, Pruning, StopReason, Synthesis, SynthesisOptions,
};
use rmrls_obs::{FlightRecorder, Json, PhaseProfile, Profiler, SyncCounter, TraceKind};
use rmrls_pprm::MultiPprm;
use rmrls_spec::Permutation;

use crate::cache::{CacheKey, SharedCache};
use crate::canon::{canonical_form, uncanonicalize_circuit};
use crate::journal::{CompletedJob, JournalWriter};
use crate::manifest::{Admission, BatchJob, SpecData};
use crate::signal::ShutdownHandles;
use crate::store::SharedStore;
use crate::telemetry::{BatchTelemetry, SAMPLE_INTERVAL};

/// A worker's handle on the run's telemetry board, paired with the
/// admission index of the job it is currently executing. `None`
/// throughout when telemetry is disabled.
pub(crate) type JobTelemetry<'a> = Option<(&'a Arc<BatchTelemetry>, usize)>;

/// Builds one fresh [`rmrls_obs::EventSink`] per search attempt. The
/// serve daemon passes a factory that tees progress events into a
/// request's JSONL stream; each ladder tier constructs its own
/// `Observer`, hence a factory rather than a single sink. `None`
/// everywhere in batch mode.
pub type SinkFactory = dyn Fn() -> Box<dyn rmrls_obs::EventSink> + Sync;

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
    /// Per-job deadline, measured from the moment the job is dequeued.
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
    /// an anomaly (memory shed, tier escalation, deadline expiry,
    /// cancellation, panic, injected fault) additionally write
    /// `<index>-<job>.anomaly.json`. `None` (the default) records
    /// nothing.
    pub trace_dir: Option<String>,
    /// Live telemetry board. When set, the engine sources its run
    /// counters from the board's registry, feeds the latency
    /// histograms, drives the job-status registry, and runs a
    /// background gauge sampler — all observation-only: results are
    /// byte-identical with telemetry on or off.
    pub telemetry: Option<Arc<BatchTelemetry>>,
    /// A caller-owned shared cache to use instead of building a private
    /// one from `cache_size`. The serve daemon passes the cache it
    /// keeps warm across requests; batch callers leave this `None` and
    /// the engine behaves exactly as before (a fresh cache per run,
    /// sized by `cache_size`). Excluded from the journal options
    /// fingerprint for the same reason `cache_size` is: the cache
    /// cannot change results, only speed.
    pub shared_cache: Option<SharedCache>,
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
            shared_cache: None,
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
    /// Merged per-phase timings of every search and engine stage this
    /// job ran (empty unless `synthesis.profile` is set). Timings are
    /// non-deterministic, so the profile stays out of [`to_json`]
    /// (JobRecord::to_json) and is aggregated into the batch report
    /// instead.
    pub profile: PhaseProfile,
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

    /// Serializes the record as a journal line: [`to_json`] plus a
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

/// Aggregate counters of one batch run.
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

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("jobs_total".to_string(), Json::uint(self.jobs_total)),
            (
                "jobs_completed".to_string(),
                Json::uint(self.jobs_completed),
            ),
            ("jobs_unsolved".to_string(), Json::uint(self.jobs_unsolved)),
            ("jobs_errored".to_string(), Json::uint(self.jobs_errored)),
            (
                "panics_contained".to_string(),
                Json::uint(self.panics_contained),
            ),
            ("jobs_skipped".to_string(), Json::uint(self.jobs_skipped)),
            ("cache_hits".to_string(), Json::uint(self.cache_hits)),
            ("cache_misses".to_string(), Json::uint(self.cache_misses)),
            ("store_hits".to_string(), Json::uint(self.store_hits)),
            ("store_inserts".to_string(), Json::uint(self.store_inserts)),
            (
                "store_append_errors".to_string(),
                Json::uint(self.store_append_errors),
            ),
            (
                "deadline_expired".to_string(),
                Json::uint(self.deadline_expired),
            ),
            ("cancelled".to_string(), Json::uint(self.cancelled)),
            ("verified_ok".to_string(), Json::uint(self.verified_ok)),
            (
                "verify_failures".to_string(),
                Json::uint(self.verify_failures),
            ),
            (
                "solved_by_rmrls".to_string(),
                Json::uint(self.solved_by_rmrls),
            ),
            (
                "solved_by_relaxed".to_string(),
                Json::uint(self.solved_by_relaxed),
            ),
            ("solved_by_mmd".to_string(), Json::uint(self.solved_by_mmd)),
            ("jobs_resumed".to_string(), Json::uint(self.jobs_resumed)),
            (
                "journal_append_errors".to_string(),
                Json::uint(self.journal_append_errors),
            ),
            ("anomaly_dumps".to_string(), Json::uint(self.anomaly_dumps)),
            (
                "trace_records_dropped".to_string(),
                Json::uint(self.trace_records_dropped),
            ),
            (
                "trace_write_errors".to_string(),
                Json::uint(self.trace_write_errors),
            ),
        ])
    }
}

/// Thread-shared counter set; snapshotted into [`BatchCounters`] once
/// the pool joins.
///
/// With telemetry enabled the handles come from the telemetry board's
/// registry, so every tally the aggregate report makes is *also* a
/// live `/metrics` series — one increment, two consumers. Without
/// telemetry they are free-standing atomics, exactly as before.
#[derive(Default)]
pub(crate) struct RunCounters {
    jobs_completed: Arc<SyncCounter>,
    jobs_unsolved: Arc<SyncCounter>,
    jobs_errored: Arc<SyncCounter>,
    panics_contained: Arc<SyncCounter>,
    cache_hits: Arc<SyncCounter>,
    cache_misses: Arc<SyncCounter>,
    store_hits: Arc<SyncCounter>,
    store_inserts: Arc<SyncCounter>,
    store_append_errors: Arc<SyncCounter>,
    deadline_expired: Arc<SyncCounter>,
    cancelled: Arc<SyncCounter>,
    verified_ok: Arc<SyncCounter>,
    verify_failures: Arc<SyncCounter>,
    solved_by_rmrls: Arc<SyncCounter>,
    solved_by_relaxed: Arc<SyncCounter>,
    solved_by_mmd: Arc<SyncCounter>,
    jobs_resumed: Arc<SyncCounter>,
    journal_append_errors: Arc<SyncCounter>,
    anomaly_dumps: Arc<SyncCounter>,
    trace_records_dropped: Arc<SyncCounter>,
    trace_write_errors: Arc<SyncCounter>,
}

impl RunCounters {
    /// Free-standing counters, or handles registered on the telemetry
    /// board so the same increments feed `/metrics`.
    pub(crate) fn new(telemetry: Option<&BatchTelemetry>) -> RunCounters {
        let Some(t) = telemetry else {
            return RunCounters::default();
        };
        let r = t.registry();
        RunCounters {
            jobs_completed: r.counter("jobs_completed"),
            jobs_unsolved: r.counter("jobs_unsolved"),
            jobs_errored: r.counter("jobs_errored"),
            panics_contained: r.counter("panics_contained"),
            cache_hits: r.counter("cache_hits"),
            cache_misses: r.counter("cache_misses"),
            store_hits: r.counter("store_hits"),
            store_inserts: r.counter("store_inserts"),
            store_append_errors: r.counter("store_append_errors"),
            deadline_expired: r.counter("deadline_expired"),
            cancelled: r.counter("cancelled"),
            verified_ok: r.counter("verified_ok"),
            verify_failures: r.counter("verify_failures"),
            solved_by_rmrls: r.counter("solved_by_rmrls"),
            solved_by_relaxed: r.counter("solved_by_relaxed"),
            solved_by_mmd: r.counter("solved_by_mmd"),
            jobs_resumed: r.counter("jobs_resumed"),
            journal_append_errors: r.counter("journal_append_errors"),
            anomaly_dumps: r.counter("anomaly_dumps"),
            trace_records_dropped: r.counter("trace_records_dropped"),
            trace_write_errors: r.counter("trace_write_errors"),
        }
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
    /// Per-phase timings merged across every job (empty unless
    /// `synthesis.profile` was set). Lives here — not in the JSONL
    /// stream — because timings vary run to run.
    pub profile: PhaseProfile,
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
            // Null (not an empty array) when profiling was off.
            (
                "profile".to_string(),
                if self.profile.is_empty() {
                    Json::Null
                } else {
                    self.profile.to_json()
                },
            ),
            ("counters".to_string(), self.counters.to_json()),
        ])
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
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
/// When `journal` is given, every finished record is durably appended
/// (via [`JournalWriter::append`]) before the batch moves on — the
/// write-ahead discipline that makes a SIGKILL lose at most one job. A
/// failed append never fails the batch; it increments
/// `journal_append_errors` and the affected job simply re-runs on the
/// next resume.
///
/// When `resumed` is given, the records it maps are taken as already
/// complete: their slots are pre-filled with
/// [`Resumed`](JobOutcome::Resumed) outcomes, their counters are
/// tallied from the journaled fields, and workers skip them entirely.
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
    let cache = opts
        .shared_cache
        .clone()
        .or_else(|| opts.cache_size.map(SharedCache::new));
    let telemetry = opts.telemetry.as_ref();
    let counters = RunCounters::new(telemetry.map(Arc::as_ref));
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
            tally_resumed(job, &counters);
            let outcome = JobOutcome::Resumed {
                json: job.json.clone(),
            };
            if let Some(t) = telemetry {
                t.jobs.mark_finished(index, &outcome);
            }
            *lock(&slots[index]) = Some(JobRecord {
                name: admissions[index].name().to_string(),
                origin: admissions[index].origin().to_string(),
                cache_hit: false,
                seconds: 0.0,
                outcome,
                profile: PhaseProfile::default(),
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
                t.sample(cache.as_ref().map(|c| c.len() as u64));
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
                    // One recorder per job, created inside the worker
                    // thread (FlightRecorder is same-thread by design).
                    let recorder = opts
                        .trace_dir
                        .as_ref()
                        .map(|_| FlightRecorder::with_default_budget());
                    if let Some(t) = telemetry {
                        t.jobs.mark_running(index);
                    }
                    let record = run_one(
                        &admissions[index],
                        opts,
                        shutdown,
                        cache.as_ref(),
                        &counters,
                        recorder.as_ref(),
                        telemetry.map(|t| (t, index)),
                        None,
                    );
                    if let Some(t) = telemetry {
                        t.job_seconds.record(record.seconds);
                        t.jobs.mark_finished(index, &record.outcome);
                    }
                    if let Some(w) = journal {
                        let line = record.to_json_indexed(index).to_string();
                        if lock(w).append(&line).is_err() {
                            counters.journal_append_errors.inc();
                            if let Some(r) = &recorder {
                                r.anomaly("journal_append_failed", "engine/journal/append");
                            }
                        }
                    }
                    if let (Some(dir), Some(r)) = (opts.trace_dir.as_deref(), &recorder) {
                        write_job_traces(dir, index, &record.name, r, &counters);
                    }
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
                    profile: PhaseProfile::default(),
                }
            })
        })
        .collect();
    let mut profile = PhaseProfile::default();
    for record in &records {
        profile.merge(&record.profile);
    }

    let snapshot = BatchCounters {
        jobs_total: admissions.len() as u64,
        jobs_completed: counters.jobs_completed.get(),
        jobs_unsolved: counters.jobs_unsolved.get(),
        jobs_errored: counters.jobs_errored.get(),
        panics_contained: counters.panics_contained.get(),
        jobs_skipped,
        cache_hits: counters.cache_hits.get(),
        cache_misses: counters.cache_misses.get(),
        store_hits: counters.store_hits.get(),
        store_inserts: counters.store_inserts.get(),
        store_append_errors: counters.store_append_errors.get(),
        deadline_expired: counters.deadline_expired.get(),
        cancelled: counters.cancelled.get(),
        verified_ok: counters.verified_ok.get(),
        verify_failures: counters.verify_failures.get(),
        solved_by_rmrls: counters.solved_by_rmrls.get(),
        solved_by_relaxed: counters.solved_by_relaxed.get(),
        solved_by_mmd: counters.solved_by_mmd.get(),
        jobs_resumed: counters.jobs_resumed.get(),
        journal_append_errors: counters.journal_append_errors.get(),
        anomaly_dumps: counters.anomaly_dumps.get(),
        trace_records_dropped: counters.trace_records_dropped.get(),
        trace_write_errors: counters.trace_write_errors.get(),
    };
    BatchRun {
        records,
        counters: snapshot,
        elapsed: started.elapsed(),
        workers,
        profile,
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
    counters: &RunCounters,
) {
    let snapshot = recorder.snapshot();
    counters.trace_records_dropped.add(snapshot.dropped);
    let stem = format!("{dir}/{index:04}-{}", sanitize_filename(job_name));
    let trace = tagged_snapshot(
        snapshot.to_json(),
        vec![("job".to_string(), Json::str(job_name))],
    );
    if crate::fsutil::write_atomic(&format!("{stem}.trace.json"), &trace.to_string()).is_err() {
        counters.trace_write_errors.inc();
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
        Ok(()) => counters.anomaly_dumps.inc(),
        Err(_) => counters.trace_write_errors.inc(),
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_one(
    admission: &Admission,
    opts: &BatchOptions,
    shutdown: &ShutdownHandles,
    cache: Option<&SharedCache>,
    counters: &RunCounters,
    recorder: Option<&FlightRecorder>,
    telemetry: JobTelemetry,
    sink: Option<&SinkFactory>,
) -> JobRecord {
    let started = Instant::now();
    let (name, origin) = (admission.name().to_string(), admission.origin().to_string());
    match admission {
        Admission::Error { message, .. } => {
            counters.jobs_errored.inc();
            JobRecord {
                name,
                origin,
                cache_hit: false,
                seconds: started.elapsed().as_secs_f64(),
                outcome: JobOutcome::Error {
                    message: message.clone(),
                },
                profile: PhaseProfile::default(),
            }
        }
        Admission::Job(job) => {
            if let Some(r) = recorder {
                r.phase_enter("job");
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                execute_job(
                    job, opts, shutdown, cache, counters, recorder, telemetry, sink,
                )
            }));
            // Exit after catch_unwind returns so the span closes (and
            // nests correctly) even when the job panicked mid-phase.
            if let Some(r) = recorder {
                r.phase_exit("job");
            }
            let (outcome, cache_hit, profile) = match result {
                Ok(r) => r,
                Err(payload) => {
                    counters.panics_contained.inc();
                    if let Some(r) = recorder {
                        r.anomaly("panic", "engine/worker/job");
                    }
                    let message = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    (
                        JobOutcome::Panicked { message },
                        false,
                        PhaseProfile::default(),
                    )
                }
            };
            JobRecord {
                name,
                origin,
                cache_hit,
                seconds: started.elapsed().as_secs_f64(),
                outcome,
                profile,
            }
        }
    }
}

/// The tier-2 configuration: the same budget (deadline, cancel token,
/// memory caps) with greedy pruning, a small queue, and stop-at-first —
/// a cheap, fast sweep that often succeeds exactly where the configured
/// search spent its node budget exploring.
fn relaxed_options(base: &SynthesisOptions) -> SynthesisOptions {
    base.clone()
        .with_pruning(Pruning::Greedy)
        .with_stop_at_first(true)
        .with_max_queue(Some(10_000))
}

/// One ladder tier: runs the search with the job's flight recorder
/// attached (when tracing) and folds the tier's phase timings into the
/// job profile whether or not it solved.
fn run_search(
    spec: &MultiPprm,
    sopts: &SynthesisOptions,
    recorder: Option<&FlightRecorder>,
    profile: &mut PhaseProfile,
    telemetry: JobTelemetry,
    sink: Option<&SinkFactory>,
) -> Result<Synthesis, Option<StopReason>> {
    let mut observer = match sink {
        // Serve-path event streaming: a fresh sink per search attempt,
        // fed the same run_start/expand/... events the JSONL log sink
        // sees. Observation-only, like the recorder and progress hooks.
        Some(f) => Observer::with_sink(f()),
        None => Observer::null(),
    };
    if let Some(r) = recorder {
        observer = observer.with_recorder(r.clone());
    }
    if let Some((t, index)) = telemetry {
        // Live progress beats: one per TIME_CHECK_INTERVAL expansions.
        // The callback only stores into the job's slot atomics and a
        // histogram — it cannot influence the search, preserving
        // byte-identical results with telemetry on.
        let board = Arc::clone(t);
        let batches = Arc::clone(&t.expansion_batch_seconds);
        let mut last_beat = Instant::now();
        observer = observer.with_progress(Box::new(move |p| {
            board.jobs.update_progress(
                index,
                p.nodes_expanded,
                p.queue_depth as u64,
                p.live_terms,
                p.memory_sheds,
            );
            let now = Instant::now();
            batches.record(now.duration_since(last_beat).as_secs_f64());
            last_beat = now;
        }));
    }
    let result = synthesize_with_observer(spec, sopts, &mut observer);
    let stats = match &result {
        Ok(s) => &s.stats,
        Err(e) => &e.stats,
    };
    if let Some((t, _)) = telemetry {
        t.note_memory_sheds(stats.memory_sheds);
    }
    profile.merge(&stats.profile);
    result.map_err(|e| e.stats.stop_reason)
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
/// Tier 1 is the configured search. With `fallback` set, a failure
/// descends to tier 2 (relaxed pruning) and finally tier 3, the MMD
/// baseline — which always terminates, so a well-formed reversible spec
/// within [`MMD_FALLBACK_LIMIT`] wires cannot stay unsolved.
/// `perm_for_mmd` materializes the spec as a permutation for tier 3; it
/// returns `None` for specs too wide (or too broken) to hand to MMD,
/// and runs only if the ladder actually reaches tier 3.
///
/// An aborted batch is the one exception to "never fail": once the
/// shared cancel token has tripped, descending further would stall
/// shutdown, so the ladder returns the cancellation instead.
///
/// On failure, returns the *last* attempted tier's stop reason.
#[allow(clippy::too_many_arguments)]
fn synthesize_ladder(
    spec: &MultiPprm,
    sopts: &SynthesisOptions,
    fallback: bool,
    recorder: Option<&FlightRecorder>,
    profile: &mut PhaseProfile,
    telemetry: JobTelemetry,
    sink: Option<&SinkFactory>,
    perm_for_mmd: impl FnOnce() -> Option<Permutation>,
) -> Result<(Circuit, SolveTier), Option<StopReason>> {
    let tier1 = match run_search(spec, sopts, recorder, profile, telemetry, sink) {
        Ok(s) => return Ok((s.circuit, SolveTier::Rmrls)),
        Err(reason) => reason,
    };
    if !fallback || sopts.budget.cancelled() {
        return Err(tier1);
    }
    escalate(recorder, SolveTier::Rmrls, SolveTier::RmrlsRelaxed);
    let tier2 = match run_search(
        spec,
        &relaxed_options(sopts),
        recorder,
        profile,
        telemetry,
        sink,
    ) {
        Ok(s) => return Ok((s.circuit, SolveTier::RmrlsRelaxed)),
        Err(reason) => reason.or(tier1),
    };
    if sopts.budget.cancelled() {
        return Err(tier2);
    }
    match perm_for_mmd() {
        Some(p) => {
            escalate(recorder, SolveTier::RmrlsRelaxed, SolveTier::Mmd);
            Ok((
                mmd_synthesize(&p, MmdVariant::Bidirectional),
                SolveTier::Mmd,
            ))
        }
        None => Err(tier2),
    }
}

/// Folds one journaled record into the run counters, so a resumed
/// batch's aggregate report accounts for the whole job list, not just
/// the re-run remainder.
fn tally_resumed(job: &CompletedJob, counters: &RunCounters) {
    counters.jobs_resumed.inc();
    match job.status.as_str() {
        "solved" => {
            counters.jobs_completed.inc();
            match job.verified {
                Some(true) => counters.verified_ok.inc(),
                Some(false) => counters.verify_failures.inc(),
                None => {}
            }
            match job.solved_by.as_deref() {
                Some("rmrls-relaxed") => counters.solved_by_relaxed.inc(),
                Some("mmd") => counters.solved_by_mmd.inc(),
                // Pre-fallback journals have no solved_by; attribute to
                // the only tier that existed.
                _ => counters.solved_by_rmrls.inc(),
            }
        }
        "unsolved" => {
            counters.jobs_unsolved.inc();
            match job.stop_reason.as_deref() {
                Some("deadline expired") => counters.deadline_expired.inc(),
                Some("cancelled") => counters.cancelled.inc(),
                _ => {}
            }
        }
        "error" => counters.jobs_errored.inc(),
        "panicked" => counters.panics_contained.inc(),
        _ => {}
    }
}

fn tally_tier(tier: SolveTier, counters: &RunCounters) {
    match tier {
        SolveTier::Rmrls => counters.solved_by_rmrls.inc(),
        SolveTier::RmrlsRelaxed => counters.solved_by_relaxed.inc(),
        SolveTier::Mmd => counters.solved_by_mmd.inc(),
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
    counters: &RunCounters,
) -> JobOutcome {
    counters.jobs_errored.inc();
    if let Some(r) = recorder {
        r.anomaly("injected_fault", site);
    }
    JobOutcome::Error {
        message: e.to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_job(
    job: &BatchJob,
    opts: &BatchOptions,
    shutdown: &ShutdownHandles,
    cache: Option<&SharedCache>,
    counters: &RunCounters,
    recorder: Option<&FlightRecorder>,
    telemetry: JobTelemetry,
    sink: Option<&SinkFactory>,
) -> (JobOutcome, bool, PhaseProfile) {
    // The engine-side profiler times the stages the search cannot see
    // (canonicalization + cache, verification); the search's own phase
    // table merges in through the ladder. `finish(ZERO)` contributes no
    // "other" time, so the job's residual stays attributed to the
    // search's wall clock, not double-counted here.
    let mut profiler = if opts.synthesis.profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    let mut profile = PhaseProfile::default();
    // Failpoint: a worker falling over as it picks the job up.
    if let Err(e) = rmrls_obs::fail::trigger("engine/worker/dispatch") {
        return (
            injected_error(e, "engine/worker/dispatch", recorder, counters),
            false,
            profile,
        );
    }
    let mut sopts = opts
        .synthesis
        .clone()
        .with_cancel_token(shutdown.abort.clone());
    if let Some(d) = opts.deadline {
        sopts = sopts.with_deadline(Instant::now() + d);
    }
    match &job.spec {
        SpecData::Perm(p) => {
            // Always synthesize the canonical representative — cache on
            // or off — so results never depend on scheduling (see the
            // module docs).
            let t_cache = profiler.start();
            let lookup_started = telemetry.map(|_| Instant::now());
            let (canon_table, sigma) = canonical_form(p, opts.canon_limit);
            let key = CacheKey {
                num_vars: p.num_vars(),
                table: canon_table,
            };
            let mut cache_hit = false;
            // Failpoint: a lookup failure degrades to a miss — the job
            // re-synthesizes rather than erroring.
            let mut canon_solution = match rmrls_obs::fail::trigger("engine/cache/lookup") {
                Ok(()) => cache.and_then(|c| c.lock().get(&key)),
                Err(_) => None,
            };
            profiler.stop("cache", t_cache);
            if let (Some((t, _)), Some(at)) = (telemetry, lookup_started) {
                t.cache_lookup_seconds.record(at.elapsed().as_secs_f64());
            }
            if canon_solution.is_some() {
                counters.cache_hits.inc();
                cache_hit = true;
            } else if cache.is_some() {
                counters.cache_misses.inc();
            }
            if let Some(r) = recorder {
                if cache.is_some() {
                    r.record(TraceKind::CacheLookup { hit: cache_hit });
                }
            }
            // Second chance: the durable store's verified index. A hit
            // is promoted into the in-memory cache so repeats within
            // this run stay memory-speed.
            let mut store_hit = false;
            if canon_solution.is_none() {
                if let Some(s) = opts.store.as_ref() {
                    canon_solution = s.lock().get(&key);
                    if let Some((circuit, tier)) = &canon_solution {
                        counters.store_hits.inc();
                        store_hit = true;
                        if let Some(c) = cache {
                            c.lock().insert(key.clone(), circuit.clone(), *tier);
                        }
                    }
                }
            }
            if !cache_hit && !store_hit {
                let spec = MultiPprm::from_permutation(&key.table, key.num_vars);
                let ladder = synthesize_ladder(
                    &spec,
                    &sopts,
                    opts.fallback,
                    recorder,
                    &mut profile,
                    telemetry,
                    sink,
                    || {
                        (key.num_vars <= MMD_FALLBACK_LIMIT)
                            .then(|| Permutation::from_vec(key.table.clone()).ok())
                            .flatten()
                    },
                );
                match ladder {
                    Ok((circuit, tier)) => {
                        // Failpoint: a failed insert only costs future
                        // hits; this job's result is already in hand.
                        if let Some(c) = cache {
                            if rmrls_obs::fail::trigger("engine/cache/insert").is_ok() {
                                c.lock().insert(key.clone(), circuit.clone(), tier);
                            }
                        }
                        // Offer the fresh synthesis to the durable
                        // store; an append failure costs only future
                        // warm starts, never this job.
                        if let Some(s) = opts.store.as_ref() {
                            match s
                                .lock()
                                .insert(&key, &circuit, tier, &opts.store_provenance)
                            {
                                Ok(crate::store::InsertOutcome::Inserted { .. }) => {
                                    counters.store_inserts.inc();
                                }
                                Ok(_) => {}
                                Err(_) => {
                                    counters.store_append_errors.inc();
                                    if let Some(r) = recorder {
                                        r.anomaly("store_append_failed", "engine/store/append");
                                    }
                                }
                            }
                        }
                        canon_solution = Some((circuit, tier));
                    }
                    Err(reason) => {
                        profile.merge(&profiler.finish(Duration::ZERO));
                        return (unsolved(reason, counters), cache_hit, profile);
                    }
                }
            }
            let (canon_circuit, tier) = canon_solution.expect("hit or fresh");
            let circuit = uncanonicalize_circuit(&canon_circuit, &sigma);
            // Failpoint: the verifier itself failing. An unverifiable
            // result must not be reported as solved.
            if let Err(e) = rmrls_obs::fail::trigger("engine/worker/pre-verify") {
                profile.merge(&profiler.finish(Duration::ZERO));
                return (
                    injected_error(e, "engine/worker/pre-verify", recorder, counters),
                    cache_hit || store_hit,
                    profile,
                );
            }
            let t_verify = profiler.start();
            let verified = opts.verify.then(|| verify_permutation(&circuit, p));
            profiler.stop("verify", t_verify);
            tally_verify(verified, counters);
            tally_tier(tier, counters);
            counters.jobs_completed.inc();
            profile.merge(&profiler.finish(Duration::ZERO));
            (
                JobOutcome::Solved {
                    circuit,
                    verified,
                    solved_by: tier,
                },
                // A durable-store hit reports as a cache hit: either
                // way the circuit came from the canonical cache layer,
                // not a fresh search.
                cache_hit || store_hit,
                profile,
            )
        }
        SpecData::Pprm(m) => {
            // Symbolic specs are not canonicalized or cached; the
            // ladder still applies, with tier 3 gated on the spec
            // having a materializable (reversible, narrow-enough)
            // truth table.
            let ladder = synthesize_ladder(
                m,
                &sopts,
                opts.fallback,
                recorder,
                &mut profile,
                telemetry,
                sink,
                || {
                    (m.num_vars() <= MMD_FALLBACK_LIMIT)
                        .then(|| Permutation::from_vec(m.to_permutation()).ok())
                        .flatten()
                },
            );
            match ladder {
                Ok((circuit, tier)) => {
                    if let Err(e) = rmrls_obs::fail::trigger("engine/worker/pre-verify") {
                        profile.merge(&profiler.finish(Duration::ZERO));
                        return (
                            injected_error(e, "engine/worker/pre-verify", recorder, counters),
                            false,
                            profile,
                        );
                    }
                    let t_verify = profiler.start();
                    let verified = opts.verify.then(|| verify_pprm(&circuit, m));
                    profiler.stop("verify", t_verify);
                    tally_verify(verified, counters);
                    tally_tier(tier, counters);
                    counters.jobs_completed.inc();
                    profile.merge(&profiler.finish(Duration::ZERO));
                    (
                        JobOutcome::Solved {
                            circuit,
                            verified,
                            solved_by: tier,
                        },
                        false,
                        profile,
                    )
                }
                Err(reason) => {
                    profile.merge(&profiler.finish(Duration::ZERO));
                    (unsolved(reason, counters), false, profile)
                }
            }
        }
    }
}

fn unsolved(reason: Option<StopReason>, counters: &RunCounters) -> JobOutcome {
    match reason {
        Some(StopReason::DeadlineExpired) => counters.deadline_expired.inc(),
        Some(StopReason::Cancelled) => counters.cancelled.inc(),
        _ => {}
    }
    counters.jobs_unsolved.inc();
    JobOutcome::Unsolved {
        stop_reason: reason
            .map(|r| r.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn tally_verify(verified: Option<bool>, counters: &RunCounters) {
    match verified {
        Some(true) => counters.verified_ok.inc(),
        Some(false) => counters.verify_failures.inc(),
        None => {}
    }
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
