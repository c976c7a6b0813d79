//! The telemetry board's routes, written once for both front ends.
//!
//! `GET /metrics` (Prometheus text) and `GET /jobs` (the job-board
//! JSON) render a [`BatchTelemetry`] at request time, so every scrape
//! sees current state. The serve daemon answers them from its own
//! listener next to its request routes; [`serve_board`] binds the
//! same [`HttpServer`] for `synth`/`batch --metrics-addr`, adding the
//! board's own `/healthz` (always 200, with the `degraded` flag in the
//! body — the daemon's `/healthz` is its own).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use rmrls_engine::BatchTelemetry;
use rmrls_telemetry::{
    read_request, respond_to_error, write_response, HttpServer, Response, PROMETHEUS_CONTENT_TYPE,
};

/// The response to `GET`/`HEAD` on `path` when it is a board route
/// (`/metrics` or `/jobs`), `None` for every other path.
pub(crate) fn board_route(telemetry: &BatchTelemetry, path: &str) -> Option<Response> {
    match path {
        "/metrics" => Some(Response::ok(
            PROMETHEUS_CONTENT_TYPE,
            telemetry.metrics_text(),
        )),
        "/jobs" => Some(Response::json(200, telemetry.jobs_json())),
        _ => None,
    }
}

/// Serves `telemetry` on `addr`: `/metrics`, `/healthz` and `/jobs`,
/// read-only. The server shuts down when the returned handle is
/// dropped.
///
/// # Errors
///
/// When the address cannot be bound.
pub fn serve_board<A: ToSocketAddrs>(
    addr: A,
    telemetry: Arc<BatchTelemetry>,
) -> io::Result<HttpServer> {
    HttpServer::bind(addr, move |stream| handle_board_conn(&telemetry, &stream))
}

/// Answers one board connection. Errors are swallowed deliberately: a
/// scraper disconnecting mid-response must never take the run down.
fn handle_board_conn(telemetry: &BatchTelemetry, stream: &TcpStream) {
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            respond_to_error(stream, &e);
            return;
        }
    };
    let head = request.method == "HEAD";
    let response = if request.method != "GET" && !head {
        Response::text(405, "only GET is supported")
    } else if request.path == "/healthz" {
        Response::json(200, telemetry.healthz_json())
    } else {
        board_route(telemetry, &request.path)
            .unwrap_or_else(|| Response::text(404, "no such route (try /metrics, /healthz, /jobs)"))
    };
    let _ = write_response(stream, &response, head);
}
