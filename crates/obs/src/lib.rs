//! Observability primitives for the RMRLS synthesis engine.
//!
//! This crate is deliberately dependency-free (the build environment is
//! offline).
//!
//! The pieces:
//!
//! - [`metrics`] — the plain [`HistogramSnapshot`] value and the named
//!   [`MetricsSnapshot`] that the JSON and Prometheus renderers read.
//! - [`sink`] — a pluggable [`EventSink`] trait with null, bounded
//!   memory-ring, and JSON-lines implementations. Sinks never silently
//!   truncate: overflow is surfaced through a `dropped_events` count.
//! - [`sync`] — atomic counters/gauges/histograms plus the thread-safe
//!   [`SyncRegistry`], the only metrics registry, for the multi-threaded
//!   consumers: the batch engine's worker pool, the serve daemon and the
//!   live telemetry endpoint.
//! - [`json`] — a hand-rolled JSON value type with writer (correct
//!   string escaping) and parser, used for run reports and round-trip
//!   tests.
//! - [`recorder`] — a byte-budgeted flight recorder: a ring of typed,
//!   timestamped trace records that anomaly dumps snapshot.
//! - [`profile`] — per-phase span profiling with a one-branch disabled
//!   path, frozen into a [`PhaseProfile`] table per run.
//! - [`export`] — Chrome trace-event JSON and Prometheus text
//!   exposition renderers.
//! - [`fail`] — deterministic fault injection behind the `failpoints`
//!   cargo feature; compiled to no-ops when the feature is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod fail;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod sink;
pub mod sync;

pub use export::{chrome_trace_json, prom_label, prometheus_text};
pub use fail::{FailAction, FailError};
pub use json::Json;
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use profile::{PhaseEntry, PhaseProfile, Profiler};
pub use recorder::{
    FlightRecorder, RecorderSnapshot, TraceKind, TraceRecord, DEFAULT_TRACE_BYTES,
    TRACE_SCHEMA_VERSION,
};
pub use sink::{Event, EventSink, JsonLinesSink, MemorySink, NullSink, Value};
pub use sync::{log2_bounds, SyncCounter, SyncGauge, SyncHistogram, SyncRegistry};
