//! A deliberately tiny HTTP/1.1 implementation: parse a request head
//! and an optional `Content-Length`-bounded body, write a
//! `Connection: close` response.
//!
//! The build environment is offline, so this is written from scratch
//! against RFC 9112. It supports exactly what the scrape server and
//! the synthesis daemon need — `GET`/`HEAD` without a body and `POST`
//! with a length-delimited one — and rejects everything else early
//! with a typed error that maps onto the right status code (405 for
//! unsupported methods, 413 for oversized bodies, 400 for everything
//! malformed). Each connection serves one request and closes, which
//! keeps the connection handlers free of keep-alive state.
//!
//! The head is read byte-at-a-time so that after the blank line the
//! stream is positioned exactly at the body — no buffered over-read to
//! hand back. Heads are tiny (8 KiB cap) and arrive in one segment in
//! practice, so the per-byte reads cost nothing measurable next to a
//! synthesis run.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on the request head (request line + headers). Scrape
/// and submit requests are tiny; anything larger is hostile or
/// confused.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Default cap on request bodies accepted by [`read_request`]. Callers
/// with a real body route use [`read_request_limited`] and pick their
/// own bound.
pub const DEFAULT_BODY_LIMIT: usize = 64 * 1024;

/// How reading a request failed, carrying enough type information for
/// the server to answer with the right status code (or to stay silent
/// when no answer can reach the peer).
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically broken request (bad request line, bad header,
    /// oversized head, truncated body). Answer 400.
    Malformed(String),
    /// A well-formed request using a method this server never routes
    /// (`PUT`, `DELETE`, ...). Answer 405.
    MethodNotAllowed(String),
    /// The declared `Content-Length` exceeds the caller's body cap.
    /// Answer 413.
    PayloadTooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// Socket-level failure: the peer vanished before a full request
    /// arrived, or a read timed out (a stalled client). No response
    /// can usefully be written.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            HttpError::PayloadTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            HttpError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The response this error deserves, or `None` when the connection
    /// is beyond answering (the peer is gone or stalled past its read
    /// timeout).
    pub fn to_response(&self) -> Option<Response> {
        match self {
            HttpError::Malformed(m) => Some(Response::text(400, &format!("bad request: {m}"))),
            HttpError::MethodNotAllowed(m) => Some(
                Response::text(405, &format!("method {m} not supported"))
                    .with_header("Allow", "GET, HEAD, POST"),
            ),
            HttpError::PayloadTooLarge { limit } => Some(Response::text(
                413,
                &format!("request body exceeds the {limit}-byte cap"),
            )),
            HttpError::Io(_) => None,
        }
    }

    /// Whether this error is a read timeout — the stalled-client case
    /// the per-connection timeout exists to cut off.
    pub fn is_timeout(&self) -> bool {
        matches!(&self, HttpError::Io(e)
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

/// A parsed request: the request line plus an optional body. Headers
/// other than `Content-Length` are read and discarded; the routes
/// these servers expose do not depend on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `HEAD`, `POST`).
    pub method: String,
    /// Request target with any query string stripped.
    pub path: String,
    /// Request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// When the body is not valid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".to_string()))
    }
}

/// Reads one line (through `\n`) byte-at-a-time, charging `budget`.
/// Returns the line without its `\r\n`/`\n` terminator.
fn read_line<R: Read>(stream: &mut R, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if *budget == 0 {
            return Err(HttpError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside request head",
                )))
            }
            Ok(_) => {
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 request head".to_string()));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads and parses one request (head plus `Content-Length`-delimited
/// body) from `stream`, with the body capped at [`DEFAULT_BODY_LIMIT`].
///
/// # Errors
///
/// See [`read_request_limited`].
pub fn read_request<R: Read>(stream: R) -> Result<Request, HttpError> {
    read_request_limited(stream, DEFAULT_BODY_LIMIT)
}

/// [`read_request`] with a caller-chosen body cap.
///
/// A request without a `Content-Length` header has an empty body (this
/// server never accepts `Transfer-Encoding`). A declared length above
/// `max_body` is rejected as [`HttpError::PayloadTooLarge`] *before*
/// any body byte is read, so an attacker cannot make the server buffer
/// an arbitrarily large upload. Methods other than `GET`/`HEAD`/`POST`
/// are rejected as [`HttpError::MethodNotAllowed`].
///
/// A stalled client surfaces as [`HttpError::Io`] once the stream's
/// read timeout (set by the server's accept loop) fires; see
/// [`HttpError::is_timeout`].
///
/// # Errors
///
/// [`HttpError`], typed by failure class.
pub fn read_request_limited<R: Read>(mut stream: R, max_body: usize) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(&mut stream, &mut budget)?;
    if request_line.is_empty() {
        return Err(HttpError::Malformed("empty request line".to_string()));
    }
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version: {version}"
        )));
    }
    if !matches!(method, "GET" | "HEAD" | "POST") {
        return Err(HttpError::MethodNotAllowed(method.to_string()));
    }
    // Drain headers up to the blank line, capturing Content-Length.
    let mut content_length: Option<usize> = None;
    loop {
        let header = read_line(&mut stream, &mut budget)?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "malformed header: {header:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let parsed: usize = value.trim().parse().map_err(|_| {
                HttpError::Malformed(format!("bad Content-Length: {:?}", value.trim()))
            })?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(HttpError::Malformed(
                    "conflicting Content-Length headers".to_string(),
                ));
            }
            content_length = Some(parsed);
        }
    }
    let length = content_length.unwrap_or(0);
    if length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; length];
    if length > 0 {
        stream.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::Malformed(format!(
                    "body shorter than its Content-Length ({length} bytes declared)"
                ))
            } else {
                HttpError::Io(e)
            }
        })?;
    }
    let path = target.split(['?', '#']).next().unwrap_or(target);
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Finishes an errored connection politely: writes the response `err`
/// deserves (if any), half-closes the write side, then drains what the
/// client is still sending (bounded by the stream's read timeout and a
/// 1 MiB cap) so the final close is graceful. Closing with unread
/// bytes in the receive buffer makes the kernel send RST, which can
/// discard the error response before the peer reads it — draining
/// first is what lets a client actually observe its 400/405/413.
pub fn respond_to_error(stream: &std::net::TcpStream, err: &HttpError) {
    let Some(resp) = err.to_response() else {
        return;
    };
    let _ = write_response(stream, &resp, false);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut remaining: usize = 1 << 20;
    let mut reader = stream;
    while remaining > 0 {
        match Read::read(&mut reader, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

/// An HTTP response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Additional headers (e.g. `Retry-After` on a 429).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A 200 response with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
            headers: Vec::new(),
        }
    }

    /// A JSON response with an arbitrary status code.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    /// A plain-text response with an arbitrary status code.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{body}\n"),
            headers: Vec::new(),
        }
    }

    /// Adds a header line (builder-style).
    pub fn with_header(mut self, name: &'static str, value: &str) -> Response {
        self.headers.push((name, value.to_string()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serializes `resp` onto `stream` as a `Connection: close` HTTP/1.1
/// response. For `HEAD` requests pass `head = true`: the headers
/// (including `Content-Length`) are written but the body is omitted.
pub fn write_response<W: Write>(mut stream: W, resp: &Response, head: bool) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (name, value) in &resp.headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    if !head {
        stream.write_all(resp.body.as_bytes())?;
    }
    stream.flush()
}

/// Writes the head of a streaming response: status line and headers
/// with **no** `Content-Length` — the body is whatever the caller
/// writes afterwards, delimited by connection close (legal for
/// `Connection: close` HTTP/1.1 responses). Used for JSONL event
/// streams, where the length is unknowable up front.
pub fn write_stream_head<W: Write>(
    mut stream: W,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_get() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn strips_query_strings() {
        let raw = b"GET /jobs?limit=5 HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(&raw[..]).unwrap().path, "/jobs");
    }

    #[test]
    fn parses_a_post_with_content_length_body() {
        let raw = b"POST /synthesize HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/synthesize");
        assert_eq!(req.body_str().unwrap(), "hello world");
    }

    #[test]
    fn post_without_content_length_has_empty_body() {
        let raw = b"POST /synthesize HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(read_request(&raw[..]).unwrap().body.is_empty());
    }

    #[test]
    fn body_is_read_exactly_to_its_declared_length() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcdefgh";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.body, b"abcde");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading_them() {
        // The body bytes are NOT present: the cap must trip on the
        // declared length alone.
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match read_request_limited(&raw[..], 1024).unwrap_err() {
            HttpError::PayloadTooLarge { limit } => assert_eq!(limit, 1024),
            other => panic!("want PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_methods_get_a_405_class_error() {
        for method in ["PUT", "DELETE", "PATCH", "OPTIONS"] {
            let raw = format!("{method} /x HTTP/1.1\r\n\r\n");
            match read_request(raw.as_bytes()).unwrap_err() {
                HttpError::MethodNotAllowed(m) => assert_eq!(m, method),
                other => panic!("want MethodNotAllowed, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_bodies_are_malformed_not_hangs() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        match read_request(&raw[..]).unwrap_err() {
            HttpError::Malformed(m) => assert!(m.contains("Content-Length"), "{m}"),
            other => panic!("want Malformed, got {other:?}"),
        }
    }

    #[test]
    fn bad_and_conflicting_content_lengths_are_malformed() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
        assert!(matches!(
            read_request(&raw[..]).unwrap_err(),
            HttpError::Malformed(_)
        ));
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            read_request(&raw[..]).unwrap_err(),
            HttpError::Malformed(_)
        ));
    }

    /// A slow-loris body: the head (with its `Content-Length`) arrives
    /// promptly, then the peer stalls and the socket's read timeout
    /// fires on every subsequent read.
    struct StalledBody {
        head: &'static [u8],
        at: usize,
    }

    impl io::Read for StalledBody {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at < self.head.len() {
                let n = buf.len().min(self.head.len() - self.at);
                buf[..n].copy_from_slice(&self.head[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
    }

    #[test]
    fn a_stalled_body_surfaces_as_a_timeout_not_a_hang() {
        // The read timeout interrupts the body read; the error is
        // recognizably a timeout (so servers log it as a stalled
        // client) and earns no response (nobody is listening).
        let stalled = StalledBody {
            head: b"POST /synthesize HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{\"kind",
            at: 0,
        };
        let e = read_request(stalled).unwrap_err();
        assert!(e.is_timeout(), "{e:?}");
        assert!(e.to_response().is_none());
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(
            read_request(&b"not http\r\n\r\n"[..]).unwrap_err(),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            read_request(&b""[..]).unwrap_err(),
            HttpError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            read_request(&b"GET / HTTP/1.1\r\nHost: x"[..]).unwrap_err(),
            HttpError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn rejects_http2_preface() {
        let raw = b"PRI * HTTP/2.0\r\n\r\n";
        assert!(matches!(
            read_request(&raw[..]).unwrap_err(),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn caps_oversized_heads() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        match read_request(&raw[..]).unwrap_err() {
            HttpError::Malformed(m) => assert!(m.contains("head exceeds"), "{m}"),
            other => panic!("want Malformed, got {other:?}"),
        }
    }

    #[test]
    fn errors_map_to_the_right_status_codes() {
        let status = |e: &HttpError| e.to_response().map(|r| r.status);
        assert_eq!(status(&HttpError::Malformed("x".into())), Some(400));
        assert_eq!(
            status(&HttpError::MethodNotAllowed("PUT".into())),
            Some(405)
        );
        assert_eq!(status(&HttpError::PayloadTooLarge { limit: 1 }), Some(413));
        assert_eq!(
            status(&HttpError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "gone"
            ))),
            None,
            "no response to a vanished peer"
        );
        let timeout = HttpError::Io(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
        assert!(timeout.is_timeout());
        assert!(!HttpError::Malformed("x".into()).is_timeout());
    }

    #[test]
    fn method_not_allowed_response_names_the_allowed_set() {
        let resp = HttpError::MethodNotAllowed("PUT".into())
            .to_response()
            .unwrap();
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| *n == "Allow" && v.contains("POST")));
    }

    #[test]
    fn writes_conformant_responses() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            &Response::ok("application/json", "{}".into()),
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_are_written() {
        let mut out = Vec::new();
        let resp = Response::text(429, "saturated").with_header("Retry-After", "1");
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    #[test]
    fn head_omits_the_body_but_keeps_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::text(404, "no such route"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 14\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn stalled_clients_surface_as_a_timeout_error() {
        use std::net::{TcpListener, TcpStream};
        use std::time::Duration;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A client that connects, sends half a request, and stalls.
        let client = TcpStream::connect(addr).unwrap();
        {
            use std::io::Write;
            let mut c = &client;
            c.write_all(b"POST /synthesize HTTP/1.1\r\nConte").unwrap();
        }
        let (server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = read_request(&server_side).unwrap_err();
        assert!(err.is_timeout(), "want timeout, got {err:?}");
        assert!(err.to_response().is_none(), "no response to a stalled peer");
    }

    #[test]
    fn stream_head_has_no_content_length() {
        let mut out = Vec::new();
        write_stream_head(&mut out, 200, "application/x-ndjson").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
