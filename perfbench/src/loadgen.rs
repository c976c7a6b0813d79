//! Zero-dependency closed-loop load generator.
//!
//! `clients` threads of one process each send their next request only
//! after the previous reply arrived, opening one `TcpStream` (and one
//! `Connection: close` request) per request. A reply other than 200,
//! or no reply within the timeout, counts as failed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One request's outcome.
#[derive(Clone, Debug)]
pub struct Reply {
    /// When the client started the request.
    pub sent: Instant,
    /// Client-side latency, connect to last byte, in milliseconds.
    pub latency_ms: f64,
    /// The 200 reply body, or the failure.
    pub body: Result<String, String>,
}

/// The outcome of one phase, replies in request order.
pub struct PhaseResult {
    pub replies: Vec<Reply>,
    pub wall_s: f64,
}

impl PhaseResult {
    pub fn failed(&self) -> usize {
        self.replies.iter().filter(|r| r.body.is_err()).count()
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "reply has no header end".to_string())?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("status {status}: {body}"));
    }
    Ok(body.to_string())
}

/// Sends every body to `POST /synthesize` from `clients` closed-loop
/// clients.
pub fn run_phase(addr: SocketAddr, bodies: &[String], clients: usize) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Reply>>> = Mutex::new(vec![None; bodies.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { return };
                let t = Instant::now();
                let result = post(addr, "/synthesize", body);
                let reply = Reply {
                    sent: t,
                    latency_ms: t.elapsed().as_secs_f64() * 1e3,
                    body: result,
                };
                slots
                    .lock()
                    .expect("no client panics while holding the slots")[i] = Some(reply);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let replies = slots
        .into_inner()
        .expect("clients joined")
        .into_iter()
        .map(|r| r.expect("every request index was claimed by a client"))
        .collect();
    PhaseResult { replies, wall_s }
}
