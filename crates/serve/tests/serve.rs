//! End-to-end daemon tests over real sockets: submit/cache-hit
//! semantics, malformed-request handling, client-disconnect
//! cancellation, admission backpressure, and drain + journal replay.

mod common;

use std::time::Duration;

use common::{
    easy_body, get, hard_body, hard_opts, post, post_open, scratch, send_raw, wait_for_state,
};
use rmrls_engine::ShutdownHandles;
use rmrls_obs::Json;
use rmrls_serve::{RequestJournal, ServeDaemon, ServeOptions};

fn start(opts: ServeOptions) -> ServeDaemon {
    ServeDaemon::start(opts, ShutdownHandles::new()).expect("daemon starts")
}

#[test]
fn resubmitting_a_spec_is_a_verified_byte_identical_cache_hit() {
    let daemon = start(ServeOptions::default());
    let addr = daemon.local_addr();

    let first = post(addr, "/synthesize", &easy_body("a"));
    assert_eq!(first.status, 200, "{}", first.body);
    let j1 = first.json();
    assert_eq!(j1.get("cache_hit"), Some(&Json::Bool(false)));
    let r1 = j1.get("record").expect("record");
    assert_eq!(r1.get("status").and_then(Json::as_str), Some("solved"));
    assert_eq!(r1.get("verified"), Some(&Json::Bool(true)));
    assert_eq!(r1.get("solved_by").and_then(Json::as_str), Some("rmrls"));

    // Same spec, different name: served from the warm shared cache
    // with identical attribution and a byte-identical circuit.
    let second = post(addr, "/synthesize", &easy_body("b"));
    assert_eq!(second.status, 200, "{}", second.body);
    let j2 = second.json();
    assert_eq!(j2.get("cache_hit"), Some(&Json::Bool(true)));
    let r2 = j2.get("record").expect("record");
    assert_eq!(r1.get("solved_by"), r2.get("solved_by"));
    assert_eq!(r1.get("circuit"), r2.get("circuit"));
    assert_eq!(
        r1.get("circuit").map(|c| c.to_string()),
        r2.get("circuit").map(|c| c.to_string()),
        "serialized circuits must be byte-identical"
    );

    // The status endpoint and the event stream agree.
    let id = j1.get("id").and_then(Json::as_u64).expect("id");
    let status = get(addr, &format!("/requests/{id}")).json();
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(status.get("cache_hit"), Some(&Json::Bool(false)));
    let events = get(addr, &format!("/requests/{id}/events"));
    assert_eq!(events.status, 200);
    assert!(
        events
            .body
            .lines()
            .last()
            .unwrap_or("")
            .contains("request_done"),
        "stream must end with the terminal line: {}",
        events.body
    );

    // Cache attribution is visible on /metrics.
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("rmrls_cache_hits 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("rmrls_requests_total"),
        "{}",
        metrics.body
    );

    daemon.drain();
    daemon.wait();
}

#[test]
fn telemetry_routes_report_service_state() {
    let daemon = start(ServeOptions::default());
    let addr = daemon.local_addr();
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let json = health.json();
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(json.get("draining"), Some(&Json::Bool(false)));
    assert!(json.get("queue_depth").is_some());
    let jobs = get(addr, "/jobs");
    assert_eq!(jobs.status, 200);
    assert!(matches!(jobs.json(), Json::Arr(_)));
    assert_eq!(get(addr, "/nowhere").status, 404);
    assert_eq!(get(addr, "/requests/999").status, 404);
    assert_eq!(get(addr, "/requests/not-a-number").status, 404);
}

#[test]
fn malformed_requests_get_clean_errors_and_the_daemon_survives() {
    let daemon = start(ServeOptions::default());
    let addr = daemon.local_addr();

    // Unsupported method (parser level).
    let put = send_raw(addr, b"PUT /synthesize HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(put.status, 405);
    assert_eq!(put.header("Allow").as_deref(), Some("GET, HEAD, POST"));

    // Method/route mismatches.
    let get_synth = get(addr, "/synthesize");
    assert_eq!(get_synth.status, 405);
    assert_eq!(get_synth.header("Allow").as_deref(), Some("POST"));
    assert_eq!(post(addr, "/metrics", "{}").status, 405);

    // Truncated head: the daemon closes without a response (nothing to
    // answer), and must keep serving.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"POST /synthe").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert_eq!(out, "", "a half request earns no response");
    }

    // Truncated body: the client half-closes mid-body, so the parser
    // sees EOF short of the declared Content-Length.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{\"kind\"")
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert_eq!(common::parse_reply(&text).status, 400, "{text}");
    }

    // Bad JSON, bad spec, unparsable TFC, width over the caps.
    let bad_json = post(addr, "/synthesize", "not json at all");
    assert_eq!(bad_json.status, 400);
    assert!(
        bad_json.body.contains("not valid JSON"),
        "{}",
        bad_json.body
    );
    // Deep nesting, far under the body cap: the JSON parser's depth cap
    // turns it into a 400 instead of a stack overflow on the
    // connection thread.
    let deep = post(addr, "/synthesize", &"[".repeat(10_000));
    assert_eq!(deep.status, 400);
    assert!(deep.body.contains("nesting"), "{}", deep.body);
    let bad_perm = post(addr, "/synthesize", r#"{"kind":"perm","spec":"0,0,0"}"#);
    assert_eq!(bad_perm.status, 400);
    assert!(bad_perm.body.contains("bad spec"), "{}", bad_perm.body);
    let bad_tfc = post(
        addr,
        "/synthesize",
        r#"{"kind":"tfc","spec":".v a,b\nBEGIN\nt2 a,z\nEND\n"}"#,
    );
    assert_eq!(bad_tfc.status, 400);
    let wide_names: Vec<String> = (0..17).map(|i| format!("w{i}")).collect();
    let wide_tfc = format!(
        r#"{{"kind":"tfc","spec":".v {}\nBEGIN\nEND\n"}}"#,
        wide_names.join(",")
    );
    let too_wide = post(addr, "/synthesize", &wide_tfc);
    assert_eq!(too_wide.status, 400, "{}", too_wide.body);

    // Oversized body.
    let mut opts_check = String::from(r#"{"kind":"perm","spec":""#);
    opts_check.push_str(&"9,".repeat(200 * 1024));
    opts_check.push_str(r#""}"#);
    let huge = post(addr, "/synthesize", &opts_check);
    assert_eq!(huge.status, 413);

    // Every rejection was counted and none of them wedged the daemon.
    let metrics = get(addr, "/metrics");
    let bad_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("rmrls_serve_bad_requests "))
        .expect("serve_bad_requests metric");
    let count: u64 = bad_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(count >= 6, "want >= 6 bad requests, got {count}");
    let ok = post(addr, "/synthesize", &easy_body("still-alive"));
    assert_eq!(ok.status, 200, "{}", ok.body);

    daemon.drain();
    daemon.wait();
}

#[test]
fn content_length_edge_cases_get_clean_errors() {
    let daemon = start(ServeOptions {
        max_body_bytes: 1024,
        ..ServeOptions::default()
    });
    let addr = daemon.local_addr();

    // A POST with no Content-Length parses as an empty body, which is
    // not valid JSON — a 400, not a hang waiting for bytes.
    let missing = send_raw(addr, b"POST /synthesize HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(missing.status, 400, "{}", missing.body);
    assert!(missing.body.contains("not valid JSON"), "{}", missing.body);

    // Non-numeric and negative lengths are malformed.
    let bad = send_raw(
        addr,
        b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: ten\r\n\r\n",
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("Content-Length"), "{}", bad.body);
    let negative = send_raw(
        addr,
        b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
    );
    assert_eq!(negative.status, 400, "{}", negative.body);

    // An oversized *declared* length is refused from the header alone:
    // the 413 arrives although no body byte was ever sent.
    let declared = send_raw(
        addr,
        b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_eq!(declared.status, 413, "{}", declared.body);

    // The daemon shrugged all of it off.
    let ok = post(addr, "/synthesize", &easy_body("fine"));
    assert_eq!(ok.status, 200, "{}", ok.body);

    daemon.drain();
    daemon.wait();
}

#[test]
fn a_slow_loris_body_is_cut_off_by_the_read_timeout() {
    use std::io::{Read, Write};

    let daemon = start(ServeOptions::default());
    let addr = daemon.local_addr();

    // Send a complete head that promises a body, then stall with the
    // socket held open. The server's read timeout must cut the
    // connection (no response — nobody honest is listening) without
    // tying up the daemon.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{\"kind")
        .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text)
        .expect("server closes the socket");
    assert_eq!(text, "", "a stalled body earns no response");

    // Connection threads are detached, so the daemon served everyone
    // else all along and is still healthy.
    let ok = post(addr, "/synthesize", &easy_body("alive"));
    assert_eq!(ok.status, 200, "{}", ok.body);

    daemon.drain();
    daemon.wait();
}

#[test]
fn a_running_request_keeps_its_job_board_slot() {
    // Two workers own four board slots each. The long request parks
    // one worker; the eight quick ones all run on the other, so the
    // request ids wrap past all eight slots while it is still running.
    let opts = ServeOptions {
        workers: 2,
        ..hard_opts()
    };
    let daemon = start(opts);
    let addr = daemon.local_addr();
    let _long = post_open(addr, "/synthesize", &hard_body("long"));
    wait_for_state(addr, 1, "running", 200);
    for i in 0..8 {
        let quick = post(addr, "/synthesize", &easy_body(&format!("quick-{i}")));
        assert_eq!(quick.status, 200, "{}", quick.body);
    }
    let jobs = get(addr, "/jobs").json();
    let rows = jobs.as_arr().expect("/jobs is an array");
    let long: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("job").and_then(Json::as_str) == Some("long"))
        .collect();
    assert_eq!(long.len(), 1, "the long request keeps its slot: {jobs}");
    assert_eq!(
        long[0].get("state").and_then(Json::as_str),
        Some("running"),
        "{jobs}"
    );
    daemon.abort();
    daemon.wait();
}

#[test]
fn a_disconnected_client_cancels_its_request() {
    let daemon = start(hard_opts());
    let addr = daemon.local_addr();

    let stream = post_open(addr, "/synthesize", &hard_body("doomed"));
    wait_for_state(addr, 1, "running", 200);
    drop(stream);

    let done = wait_for_state(addr, 1, "done", 400);
    let record = done.get("record").expect("record");
    assert_eq!(
        record.get("status").and_then(Json::as_str),
        Some("unsolved")
    );
    assert_eq!(
        record.get("stop_reason").and_then(Json::as_str),
        Some("cancelled"),
        "{done:?}"
    );
    let metrics = get(addr, "/metrics");
    assert!(
        metrics.body.contains("rmrls_requests_disconnected 1"),
        "{}",
        metrics.body
    );

    daemon.drain();
    daemon.wait();
}

#[test]
fn a_saturated_queue_sheds_with_429_and_degrades_health() {
    let opts = ServeOptions {
        queue_capacity: 1,
        ..hard_opts()
    };
    let daemon = start(opts);
    let addr = daemon.local_addr();

    // Fill the worker, then the queue.
    let _busy = post_open(addr, "/synthesize", &hard_body("busy"));
    wait_for_state(addr, 1, "running", 200);
    let _queued = post_open(addr, "/synthesize", &hard_body("queued"));
    for _ in 0..200 {
        let depth = get(addr, "/healthz")
            .json()
            .get("queue_depth")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if depth >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let shed = post(addr, "/synthesize", &easy_body("shed"));
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert_eq!(shed.header("Retry-After").as_deref(), Some("1"));

    // Backpressure flips /healthz to degraded for the duration.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 503);
    assert_eq!(health.json().get("degraded"), Some(&Json::Bool(true)));

    daemon.abort();
    daemon.wait();
}

#[test]
fn drain_skips_queued_work_and_a_restart_replays_the_journal() {
    let dir = scratch("replay");
    let journal_path = dir.join("requests.jsonl").to_string_lossy().into_owned();
    let opts = ServeOptions {
        journal_path: Some(journal_path.clone()),
        ..hard_opts()
    };

    // First life: one completed request, one interrupted by abort.
    let daemon = start(opts.clone());
    let addr = daemon.local_addr();
    let warm = post(addr, "/synthesize", &easy_body("warm"));
    assert_eq!(warm.status, 200, "{}", warm.body);
    let interrupted = std::thread::spawn({
        let body = hard_body("interrupted");
        move || post(addr, "/synthesize", &body)
    });
    wait_for_state(addr, 2, "running", 200);
    daemon.abort();
    daemon.wait();
    let reply = interrupted.join().unwrap();
    assert_eq!(reply.status, 200);

    // The journal holds both submissions but only the first completion:
    // the aborted request is deliberately left open for replay.
    let (_handle, replay) = RequestJournal::open(&journal_path).expect("journal reopens");
    assert_eq!(replay.completed.len(), 1);
    assert_eq!(replay.completed[0].0, 1);
    assert_eq!(replay.pending.len(), 1);
    assert_eq!(replay.pending[0].0, 2);
    drop(_handle);

    // Second life: the interrupted request replays to completion, the
    // finished one is restored read-only, ids continue past both.
    let mut restart = opts;
    restart.batch.deadline = Some(Duration::from_millis(200));
    let daemon2 = start(restart);
    let addr2 = daemon2.local_addr();
    let replayed = wait_for_state(addr2, 2, "done", 400);
    assert!(replayed.get("record").is_some(), "{replayed:?}");
    let restored = get(addr2, &format!("/requests/{}", 1)).json();
    assert_eq!(restored.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        restored
            .get("record")
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str),
        Some("solved")
    );
    let metrics = get(addr2, "/metrics");
    assert!(
        metrics.body.contains("rmrls_requests_replayed 1"),
        "{}",
        metrics.body
    );
    let next = post(addr2, "/synthesize", &easy_body("after"));
    assert_eq!(next.json().get("id").and_then(Json::as_u64), Some(3));

    daemon2.drain();
    daemon2.wait();

    // After the second life the journal is fully settled: nothing
    // left pending.
    let (_h, settled) = RequestJournal::open(&journal_path).expect("journal reopens");
    assert!(settled.pending.is_empty(), "{:?}", settled.pending);
    assert_eq!(settled.completed.len(), 3);
}
