//! Shared helpers for the serve integration tests: a tiny blocking
//! HTTP client over raw `TcpStream`s (the daemon speaks
//! `Connection: close` HTTP/1.1, so one request is one socket).

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rmrls_obs::Json;

/// One parsed response.
pub struct Reply {
    pub status: u16,
    pub head: String,
    pub body: String,
}

impl Reply {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<String> {
        let needle = format!("{}:", name.to_ascii_lowercase());
        self.head.lines().find_map(|l| {
            l.to_ascii_lowercase()
                .starts_with(&needle)
                .then(|| l[needle.len()..].trim().to_string())
        })
    }

    /// The body parsed as JSON (panics on malformed bodies — tests
    /// always expect JSON where they call this).
    pub fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

/// Sends raw bytes, reads the connection to EOF, parses the response.
pub fn send_raw(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    parse_reply(&text)
}

pub fn parse_reply(text: &str) -> Reply {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    Reply {
        status,
        head: head.to_string(),
        body: body.to_string(),
    }
}

/// `GET path` against the daemon.
pub fn get(addr: SocketAddr, path: &str) -> Reply {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// `POST path` with a body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    send_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Opens a POST but returns the live socket instead of waiting for
/// the reply (for disconnect/cancellation tests).
pub fn post_open(addr: SocketAddr, path: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
    stream
}

/// A scratch directory unique to this test.
pub fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rmrls-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls `GET /requests/<id>` until its state matches, panicking
/// after `tries` rounds of 50 ms.
pub fn wait_for_state(addr: SocketAddr, id: u64, want: &str, tries: usize) -> Json {
    for _ in 0..tries {
        let reply = get(addr, &format!("/requests/{id}"));
        if reply.status == 200 {
            let json = reply.json();
            if json.get("state").and_then(Json::as_str) == Some(want) {
                return json;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("request {id} never reached state {want:?}");
}

/// An easy 3-wire spec body the search solves instantly.
pub fn easy_body(name: &str) -> String {
    format!(r#"{{"kind":"perm","spec":"1,0,3,2,5,4,7,6","name":"{name}"}}"#)
}

/// A scrambled 6-wire spec the search cannot finish quickly — used
/// with [`hard_opts`] to hold a worker busy for
/// cancellation/backpressure tests.
pub fn hard_body(name: &str) -> String {
    format!(
        r#"{{"kind":"perm","spec":"41,60,9,25,63,3,4,52,34,6,23,37,58,32,13,2,5,27,26,57,15,47,35,46,51,36,7,14,39,62,59,38,48,17,40,44,61,49,28,30,33,18,29,24,42,53,54,11,22,8,16,1,21,0,45,43,56,19,55,50,31,12,20,10","name":"{name}"}}"#
    )
}

/// Options for tests that park a [`hard_body`] request on a worker:
/// one worker, an effectively unbounded node budget (so the job ends
/// only by deadline or cancellation), and a 60 s safety deadline.
pub fn hard_opts() -> rmrls_serve::ServeOptions {
    let mut opts = rmrls_serve::ServeOptions {
        workers: 1,
        ..rmrls_serve::ServeOptions::default()
    };
    opts.batch.deadline = Some(Duration::from_secs(60));
    opts.batch.synthesis = opts.batch.synthesis.clone().with_max_nodes(u64::MAX / 2);
    opts
}
