//! The telemetry board as `synth`/`batch --metrics-addr` serve it:
//! the three routes and their content types, bodies rendered per
//! scrape, the error statuses, and a scrape of a run that is provably
//! still executing.

mod common;

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::{get, send_raw};
use rmrls_core::CancelToken;
use rmrls_engine::{
    admit_inline, run_batch, Admission, BatchOptions, BatchTelemetry, JobRunner, ShutdownHandles,
};
use rmrls_obs::{Event, EventSink, Json};
use rmrls_serve::serve_board;

fn board(names: &[&str]) -> Arc<BatchTelemetry> {
    Arc::new(BatchTelemetry::new(
        names.iter().map(|n| n.to_string()).collect(),
    ))
}

#[test]
fn serves_the_three_routes_with_their_content_types() {
    let telemetry = board(&["a", "b"]);
    let server = serve_board("127.0.0.1:0", Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0);

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("Content-Type").as_deref(),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(metrics.body, telemetry.metrics_text());

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.header("Content-Type").as_deref(),
        Some("application/json")
    );
    assert_eq!(health.body, telemetry.healthz_json());

    let jobs = get(addr, "/jobs");
    assert_eq!(jobs.status, 200);
    assert_eq!(
        jobs.header("Content-Type").as_deref(),
        Some("application/json")
    );
    assert_eq!(jobs.body, telemetry.jobs_json());
    server.shutdown();
}

#[test]
fn bodies_are_rendered_per_scrape_not_at_bind() {
    let telemetry = board(&["a"]);
    let server = serve_board("127.0.0.1:0", Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr();
    assert!(get(addr, "/metrics")
        .body
        .contains("rmrls_job_seconds_count 0\n"));
    telemetry.job_seconds.record(0.5);
    telemetry.jobs.mark_running(0);
    assert!(get(addr, "/metrics")
        .body
        .contains("rmrls_job_seconds_count 1\n"));
    assert!(get(addr, "/jobs").body.contains("\"state\":\"running\""));
    assert!(get(addr, "/healthz").body.contains("\"jobs_running\":1"));
    server.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_rejected_and_head_has_no_body() {
    let server = serve_board("127.0.0.1:0", board(&["a"])).unwrap();
    let addr = server.local_addr();
    let missing = get(addr, "/nope");
    assert_eq!(missing.status, 404);
    assert_eq!(
        missing.body,
        "no such route (try /metrics, /healthz, /jobs)\n"
    );
    let post = send_raw(addr, b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(post.status, 405);
    assert_eq!(post.body, "only GET is supported\n");
    assert_eq!(send_raw(addr, b"PUT /metrics HTTP/1.1\r\n\r\n").status, 405);
    let full = get(addr, "/healthz");
    let head = send_raw(addr, b"HEAD /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(head.status, 200);
    assert_eq!(
        head.header("Content-Length"),
        Some(full.body.len().to_string())
    );
    assert_eq!(head.body, "");
    server.shutdown();
}

#[test]
fn a_malformed_request_gets_400_and_the_board_keeps_serving() {
    let server = serve_board("127.0.0.1:0", board(&["a"])).unwrap();
    let addr = server.local_addr();
    let bad = send_raw(addr, b"definitely not http\r\n\r\n");
    assert_eq!(bad.status, 400);
    assert!(bad.body.starts_with("bad request:"), "{}", bad.body);
    assert_eq!(get(addr, "/healthz").status, 200);
    server.shutdown();
}

/// Parks the first search event of a run until the test has scraped:
/// the job that emits it is `running` on the board for as long as the
/// gate holds, whatever the machine's speed. `reached` is taken by the
/// first event only.
struct Gate {
    reached: Mutex<Option<Sender<()>>>,
    release: Mutex<Receiver<()>>,
}

struct GateSink(Arc<Gate>);

impl EventSink for GateSink {
    fn emit(&mut self, _event: Event) {
        let first = self.0.reached.lock().unwrap().take();
        if let Some(reached) = first {
            reached.send(()).unwrap();
            self.0.release.lock().unwrap().recv().unwrap();
        }
    }
}

fn workload() -> Vec<Admission> {
    [
        "1,0,7,2,3,4,5,6",
        "7,0,1,2,3,4,5,6",
        "0,1,2,4,3,5,6,7",
        "3,6,1,0,5,2,7,4",
        "1,0,7,2,3,4,5,6",
        "6,2,5,1,0,4,7,3",
    ]
    .iter()
    .enumerate()
    .map(|(i, spec)| admit_inline(&format!("job{i}"), "perm", spec, "test".to_string()))
    .collect()
}

/// Scrapes a run over HTTP while its first job is held mid-search:
/// `/jobs` shows that job running and the rest pending, `/metrics`
/// carries every histogram family before any job finished, and the
/// records are byte-identical to an unscraped batch run's.
#[test]
fn http_scrape_mid_run_sees_live_state() {
    let jobs = workload();
    let reference =
        run_batch(&jobs, &BatchOptions::default(), &ShutdownHandles::new()).results_jsonl();

    let names: Vec<&str> = jobs.iter().map(Admission::name).collect();
    let telemetry = board(&names);
    let server = serve_board("127.0.0.1:0", Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr();
    let runner = JobRunner::new(BatchOptions {
        telemetry: Some(Arc::clone(&telemetry)),
        ..BatchOptions::default()
    });
    let (reached_tx, reached) = channel();
    let (release, release_rx) = channel();
    let gate = Arc::new(Gate {
        reached: Mutex::new(Some(reached_tx)),
        release: Mutex::new(release_rx),
    });
    let factory = move || -> Box<dyn EventSink> { Box::new(GateSink(Arc::clone(&gate))) };

    let (results, live_jobs, live_metrics) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            let cancel = CancelToken::new();
            jobs.iter()
                .enumerate()
                .map(|(i, job)| {
                    let record = runner.run(job, None, &cancel, i, Some(&factory), None);
                    record.to_json().to_string() + "\n"
                })
                .collect::<String>()
        });
        reached
            .recv_timeout(Duration::from_secs(60))
            .expect("the first job emits a search event");
        let live = (get(addr, "/jobs").json(), get(addr, "/metrics").body);
        release.send(()).unwrap();
        (run.join().unwrap(), live.0, live.1)
    });

    assert_eq!(results, reference, "scraping must not change a record");

    let states: Vec<&str> = live_jobs
        .as_arr()
        .unwrap()
        .iter()
        .map(|row| row.get("state").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        states,
        ["running", "pending", "pending", "pending", "pending", "pending"]
    );
    for body in [&live_metrics, &get(addr, "/metrics").body] {
        assert!(
            body.contains("# TYPE rmrls_job_seconds histogram"),
            "{body}"
        );
        assert!(body.contains("rmrls_job_seconds_bucket{le=\"+Inf\"}"));
        assert!(body.contains("# TYPE rmrls_cache_hits counter"));
        assert!(body.contains("# TYPE rmrls_queue_depth gauge"));
    }
    assert!(live_metrics.contains("rmrls_job_seconds_count 0\n"));
    assert!(get(addr, "/metrics")
        .body
        .contains("rmrls_job_seconds_count 6\n"));
    assert!(get(addr, "/healthz").body.contains("\"status\":\"ok\""));
    server.shutdown();
}
