//! Concurrent batch synthesis for RMRLS.
//!
//! The paper synthesizes one function at a time; the suites it is
//! measured against (Table IV, the Maslov benchmark sets) are batch
//! workloads. This crate serves them natively: a manifest of jobs runs
//! on a fixed worker pool, each job panic-isolated and budgeted, with
//! per-job JSONL results plus an aggregate report.
//!
//! - [`manifest`] — job lists (inline permutations, spec files, TFC
//!   circuits, bundled benchmark suites) with per-entry error records;
//! - [`canon`] — canonical representatives under wire relabeling, and
//!   SWAP-free conjugation of circuits between labelings;
//! - [`cache`] — the LRU memo cache over canonical tables;
//! - [`engine`] — the worker pool, job execution, the fallback ladder,
//!   verification, and result serialization;
//! - [`runner`] — [`JobRunner`], the one per-job path: batch workers
//!   and serve requests both run through it;
//! - [`journal`] — the fsync'd write-ahead results journal behind
//!   checkpoint/resume;
//! - [`framing`] — the shared CRC32 + record-framing codec for binary
//!   durable files;
//! - [`store`] — the durable canonical circuit store (crash-safe,
//!   corruption-detecting, verified on load) that persists the cache
//!   across runs;
//! - [`fsutil`] — temp-file + atomic-rename writes for results and
//!   reports;
//! - [`signal`] — two-stage SIGINT shutdown (drain, then abort).
//!
//! # Quickstart
//!
//! ```
//! use rmrls_engine::{run_batch, suite_admissions, BatchOptions, ShutdownHandles};
//!
//! let jobs = suite_admissions("examples").unwrap();
//! let run = run_batch(&jobs, &BatchOptions::default(), &ShutdownHandles::new());
//! assert_eq!(run.counters.jobs_completed, 8);
//! assert_eq!(run.counters.panics_contained, 0);
//! ```

// The one unavoidable `unsafe` (the SIGINT handler registration) is
// quarantined in `signal::ffi` behind an explicit allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod engine;
pub mod framing;
pub mod fsutil;
pub mod journal;
pub mod manifest;
pub mod runner;
pub mod signal;
pub mod store;
pub mod telemetry;

pub use cache::{CacheKey, CircuitCache, SharedCache};
pub use canon::{canonical_form, relabel_circuit, uncanonicalize_circuit};
pub use engine::{
    run_batch, run_batch_resumable, BatchCounters, BatchOptions, BatchRun, JobOutcome, JobRecord,
    SinkFactory, SolveTier, BATCH_SCHEMA_VERSION,
};
pub use fsutil::{write_atomic, write_atomic_bytes};
pub use journal::{
    manifest_hash, options_fingerprint, read_journal, CompletedJob, JournalHeader, JournalWriter,
    ResumeData, JOURNAL_SCHEMA_VERSION,
};
pub use manifest::{
    admit_inline, load_manifest, parse_manifest, suite_admissions, Admission, BatchJob, SpecData,
};
pub use runner::JobRunner;
pub use signal::ShutdownHandles;
pub use store::{
    fsck, CircuitStore, FsckReport, InsertOutcome, SharedStore, StoreEntry, StoreStats,
    STORE_SCHEMA_VERSION,
};
pub use telemetry::{BatchTelemetry, JobState, JobStatus, JobStatusRegistry};
