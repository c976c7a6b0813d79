//! `rmrls serve` — a long-lived, multi-tenant synthesis service.
//!
//! The batch engine answers "run this manifest once"; this crate
//! answers "keep a synthesis engine warm and let clients bring work
//! to it". One daemon holds a [`JobRunner`](rmrls_engine::JobRunner)
//! (the engine's single-job path: canonical cache, fallback ladder,
//! verification, panic containment) and serves it through the
//! workspace's one accept loop, `rmrls-telemetry`'s
//! [`HttpServer`](rmrls_telemetry::HttpServer) (a thread per
//! connection, one read/write timeout policy):
//!
//! - `POST /synthesize` — a JSON spec in, the job record out
//!   (blocking; the connection is the request's lifetime, so a client
//!   that disconnects cancels its search);
//! - `GET /requests/<id>` — status and final record by id;
//! - `GET /requests/<id>/events` — live JSONL progress stream sourced
//!   from the engine's event sinks;
//! - `GET /metrics` / `/healthz` / `/jobs` — the familiar batch
//!   telemetry, now reporting service state (admission queue depth,
//!   shed counts, cache occupancy and hit rate).
//!
//! The `/metrics` and `/jobs` routes are the [`board`] module's, which
//! also serves a batch or synth run's board for `--metrics-addr` on the
//! same server type.
//!
//! Admission is bounded (queue capacity; saturation sheds with
//! `429 Retry-After`), every
//! accepted request is journaled write-ahead so a crash replays
//! interrupted work on restart, and SIGINT drains exactly like the
//! batch engine (second SIGINT aborts in-flight searches).
//!
//! - [`board`] — the telemetry board routes and the `--metrics-addr`
//!   server;
//! - [`request`] — the wire form of one request;
//! - [`registry`] — per-request state, waiters, event logs;
//! - [`journal`] — the append-only request journal and its replay;
//! - [`server`] — the daemon: admission, workers, routes, shutdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod journal;
pub mod registry;
pub mod request;
pub mod server;

pub use board::serve_board;
pub use journal::{RequestJournal, SERVE_JOURNAL_SCHEMA_VERSION};
pub use registry::{RequestEntry, RequestRegistry};
pub use request::SynthesisRequest;
pub use server::{ServeDaemon, ServeOptions};
