//! Live telemetry endpoint for RMRLS.
//!
//! A zero-dependency (std-only; the build is offline) HTTP/1.1 server
//! that exposes a running synthesis process to scrapers:
//!
//! - `GET /metrics` — Prometheus text exposition of a live registry
//! - `GET /healthz` — JSON liveness document with a degraded flag
//! - `GET /jobs` — JSON snapshot of per-job batch state
//!
//! The crate is intentionally ignorant of the engine: route bodies
//! come from caller-supplied [`Providers`] closures, evaluated at
//! request time so every scrape sees current state. The CLI wires the
//! closures to `rmrls-obs`'s `SyncRegistry` and the engine's job
//! status registry.
//!
//! Keeping the server in its own crate means the engine never links a
//! socket unless telemetry is requested. The `rmrls serve` daemon
//! reuses the request parser and response writers in [`http`] but runs
//! its own accept loop.
//!
//! ```no_run
//! use rmrls_telemetry::{Providers, TelemetryServer};
//!
//! let server = TelemetryServer::bind(
//!     "127.0.0.1:0",
//!     Providers {
//!         metrics: Box::new(|| "rmrls_up 1\n".into()),
//!         healthz: Box::new(|| "{\"status\":\"ok\"}".into()),
//!         jobs: Box::new(|| "[]".into()),
//!     },
//! )
//! .unwrap();
//! println!("scrape me at http://{}/metrics", server.local_addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod server;

pub use http::{
    read_request, read_request_limited, respond_to_error, write_response, write_stream_head,
    HttpError, Request, Response, DEFAULT_BODY_LIMIT,
};
pub use server::{Providers, TelemetryServer, PROMETHEUS_CONTENT_TYPE};
