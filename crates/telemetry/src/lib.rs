//! The HTTP front end shared by every RMRLS server.
//!
//! A zero-dependency (std-only; the build is offline) HTTP/1.1 stack:
//!
//! - [`http`] — request parsing with head and body caps, typed parse
//!   errors that map onto 400/405/413, `Connection: close` responses
//!   and streaming response heads;
//! - [`server`] — [`HttpServer`], the workspace's one accept loop: it
//!   binds, sets the per-connection read/write timeouts
//!   ([`IO_TIMEOUT`]), and hands each connection to a caller-supplied
//!   handler on a thread of its own, so one stalled client never
//!   blocks another.
//!
//! The crate is intentionally ignorant of the engine: routing is the
//! handler's business. `rmrls-serve` builds both front ends on it —
//! the `rmrls serve` daemon and the `/metrics`, `/healthz`, `/jobs`
//! board that `synth`/`batch --metrics-addr` expose. Keeping the
//! server in its own crate means the engine never links a socket.
//!
//! ```no_run
//! use rmrls_telemetry::{read_request, write_response, HttpServer, Response};
//!
//! let server = HttpServer::bind("127.0.0.1:0", |stream| {
//!     if let Ok(request) = read_request(&stream) {
//!         let body = format!("you asked for {}", request.path);
//!         let _ = write_response(&stream, &Response::text(200, &body), false);
//!     }
//! })
//! .unwrap();
//! println!("listening on http://{}/", server.local_addr());
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
pub use server::{HttpServer, IO_TIMEOUT, PROMETHEUS_CONTENT_TYPE};
