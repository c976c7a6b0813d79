//! The daemon: one listener, an admission-controlled queue, a worker
//! pool over [`JobRunner`], and the request journal.
//!
//! ## Request flow
//!
//! `POST /synthesize` → admission control (queue capacity →
//! `429 Retry-After`) → write-ahead `submitted` journal
//! line → bounded queue → worker (`JobRunner::run`: shared warm cache,
//! fallback ladder, verification, panic containment) → `completed`
//! journal line → the blocked connection answers with the record.
//! While blocked, the connection probes its socket; a client that
//! disconnects cancels its request's search via [`CancelToken`](rmrls_core::CancelToken).
//!
//! ## Shutdown
//!
//! The daemon shares the engine's two-stage semantics: the first
//! SIGINT (or [`ServeDaemon::drain`]) stops admitting and starting
//! work — queued requests finish as `skipped` (their waiting clients
//! get 503) while in-flight searches run to completion; a second
//! SIGINT ([`abort`](ServeDaemon::abort)) cancels in-flight searches
//! through their tokens. Work interrupted by abort is *not* journaled
//! as completed, so a restart replays it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use rmrls_engine::{Admission, BatchOptions, BatchTelemetry, JobRunner, ShutdownHandles};
use rmrls_obs::{Event, EventSink, Json, SyncCounter, SyncGauge};
use rmrls_telemetry::{
    read_request_limited, respond_to_error, write_response, write_stream_head, HttpServer, Request,
    Response, IO_TIMEOUT,
};

use crate::board::board_route;
use crate::journal::RequestJournal;
use crate::registry::{RequestEntry, RequestRegistry};
use crate::request::SynthesisRequest;

/// How long the synthesize handler sleeps between completion checks
/// and client-liveness probes.
const WAIT_TICK: Duration = Duration::from_millis(150);

/// Telemetry job-board slots per worker: each worker owns a ring of
/// this many slots and relabels the next one per request, so recently
/// finished requests stay visible on `/jobs` for a while and a request
/// still running is never relabeled (its worker is busy with it).
const SLOTS_PER_WORKER: usize = 4;

/// Configuration of one daemon.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests (clamped to at least 1).
    pub workers: usize,
    /// Queued-request bound; beyond it new requests are shed with 429.
    pub queue_capacity: usize,
    /// Largest accepted request body; larger POSTs get 413.
    pub max_body_bytes: usize,
    /// Request-journal path; `None` disables crash recovery.
    pub journal_path: Option<String>,
    /// Engine configuration shared by every request (cache sizing,
    /// canonicalization, verification, fallback ladder, budgets).
    /// `batch.deadline` is the deadline of every request that does not
    /// carry its own `deadline_ms`; `None` leaves only the search's
    /// node budget.
    pub batch: BatchOptions,
}

impl Default for ServeOptions {
    /// Ephemeral localhost port, two workers, a 16-deep queue, 256 KiB
    /// bodies, no journal, default engine options.
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            max_body_bytes: 256 * 1024,
            journal_path: None,
            batch: BatchOptions::default(),
        }
    }
}

/// State shared by the connection threads and workers.
struct Shared {
    telemetry: Arc<BatchTelemetry>,
    runner: JobRunner,
    registry: RequestRegistry,
    queue: Mutex<VecDeque<Arc<RequestEntry>>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    max_body_bytes: usize,
    shutdown: ShutdownHandles,
    stop: AtomicBool,
    journal: Option<RequestJournal>,
    requests_total: Arc<SyncCounter>,
    bad_requests: Arc<SyncCounter>,
    requests_shed: Arc<SyncCounter>,
    requests_disconnected: Arc<SyncCounter>,
    requests_replayed: Arc<SyncCounter>,
    requests_completed: Arc<SyncCounter>,
    journal_append_errors: Arc<SyncCounter>,
    queue_depth: Arc<SyncGauge>,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Arc<RequestEntry>>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn draining(&self) -> bool {
        self.shutdown.draining()
    }

    /// Wakes every idle worker to see a drain. Passing through the
    /// queue lock first means a worker that checked for a drain before
    /// it began is already waiting, so it cannot miss the wake.
    fn wake_workers(&self) {
        drop(self.lock_queue());
        self.queue_cv.notify_all();
    }

    /// Serve-specific `/healthz`: the batch degraded witnesses plus
    /// live admission state.
    fn healthz_json(&self) -> String {
        let degraded = self.telemetry.degraded();
        Json::Obj(vec![
            (
                "status".to_string(),
                Json::str(if degraded { "degraded" } else { "ok" }),
            ),
            ("degraded".to_string(), Json::Bool(degraded)),
            ("draining".to_string(), Json::Bool(self.draining())),
            (
                "queue_depth".to_string(),
                Json::uint(self.lock_queue().len() as u64),
            ),
            (
                "requests_total".to_string(),
                Json::uint(self.requests_total.get()),
            ),
            (
                "requests_completed".to_string(),
                Json::uint(self.requests_completed.get()),
            ),
            (
                "requests_shed".to_string(),
                Json::uint(self.requests_shed.get()),
            ),
        ])
        .to_string()
    }
}

/// Streams search progress events into the request's bounded log.
/// Past [`EVENT_LOG_CAP`](crate::registry::EVENT_LOG_CAP) lines an
/// event is only counted: it is never built, serialized, or announced
/// to stream readers.
struct EntrySink {
    entry: Arc<RequestEntry>,
}

impl EventSink for EntrySink {
    fn emit(&mut self, event: Event) {
        self.entry.push_event(event.to_json().to_string());
    }

    fn emit_with(&mut self, make: &mut dyn FnMut() -> Event) {
        self.entry.push_event_with(|| make().to_json().to_string());
    }
}

/// A running synthesis daemon.
pub struct ServeDaemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    http: Option<HttpServer>,
    workers: Vec<JoinHandle<()>>,
    signals: Option<JoinHandle<()>>,
}

impl ServeDaemon {
    /// Replays the journal if one is configured, binds the listener,
    /// and starts the worker pool and SIGINT monitor.
    /// `shutdown` carries the daemon's drain/abort tokens (use
    /// [`ShutdownHandles::install_sigint`] in the CLI, a plain
    /// [`ShutdownHandles::new`] in tests).
    pub fn start(opts: ServeOptions, shutdown: ShutdownHandles) -> Result<ServeDaemon, String> {
        let workers = opts.workers.max(1);
        let telemetry = Arc::new(BatchTelemetry::idle(workers * SLOTS_PER_WORKER));
        telemetry.set_workers_total(workers as u64);
        let mut batch = opts.batch.clone();
        batch.telemetry = Some(Arc::clone(&telemetry));
        let runner = JobRunner::new(batch);

        let registry = RequestRegistry::new();
        let mut replayed: Vec<Arc<RequestEntry>> = Vec::new();
        let journal = match &opts.journal_path {
            None => None,
            Some(path) => {
                let (journal, replay) = RequestJournal::open(path)?;
                registry.reserve_through(replay.max_id);
                for (id, request, cache_hit, record) in replay.completed {
                    registry.insert(Arc::new(RequestEntry::finished(
                        id, request, cache_hit, record,
                    )));
                }
                for (id, request) in replay.pending {
                    let entry = Arc::new(RequestEntry::new(id, request, shutdown.abort.child()));
                    registry.insert(Arc::clone(&entry));
                    replayed.push(entry);
                }
                Some(journal)
            }
        };

        let r = telemetry.registry();
        let shared = Arc::new(Shared {
            runner,
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: opts.queue_capacity.max(1),
            max_body_bytes: opts.max_body_bytes,
            shutdown,
            stop: AtomicBool::new(false),
            journal,
            requests_total: r.counter("requests_total"),
            bad_requests: r.counter("serve_bad_requests"),
            requests_shed: r.counter("requests_shed"),
            requests_disconnected: r.counter("requests_disconnected"),
            requests_replayed: r.counter("requests_replayed"),
            requests_completed: r.counter("requests_completed"),
            journal_append_errors: r.counter("journal_append_errors"),
            queue_depth: r.gauge("admission_queue_depth"),
            telemetry,
        });

        if !replayed.is_empty() {
            shared.requests_replayed.add(replayed.len() as u64);
            let mut q = shared.lock_queue();
            q.extend(replayed);
            shared.queue_depth.set(q.len() as u64);
        }

        let http = {
            let shared = Arc::clone(&shared);
            HttpServer::bind(&opts.addr, move |stream| handle_conn(&shared, stream))
                .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?
        };

        let spawn = |name: String, f: Box<dyn FnOnce() + Send>| -> Result<JoinHandle<()>, String> {
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(f)
                .map_err(|e| format!("cannot spawn {name}: {e}"))
        };

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(spawn(
                format!("rmrls-serve-worker-{i}"),
                Box::new(move || worker_loop(&shared, i)),
            )?);
        }
        let signals = {
            let shared = Arc::clone(&shared);
            spawn(
                "rmrls-serve-signals".to_string(),
                Box::new(move || signal_loop(&shared)),
            )?
        };

        Ok(ServeDaemon {
            shared,
            addr: http.local_addr(),
            http: Some(http),
            workers: worker_handles,
            signals: Some(signals),
        })
    }

    /// The bound listen address (real port even for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live telemetry board behind `/metrics`, `/healthz`, `/jobs`.
    pub fn telemetry(&self) -> &Arc<BatchTelemetry> {
        &self.shared.telemetry
    }

    /// Requests accepted so far (all phases).
    pub fn requests_known(&self) -> usize {
        self.shared.registry.len()
    }

    /// Requests a drain: stop admitting and starting work, finish
    /// what is in flight. Equivalent to the first SIGINT.
    pub fn drain(&self) {
        self.shared.shutdown.drain.cancel();
        self.shared.wake_workers();
    }

    /// Aborts: drain plus cancellation of in-flight searches.
    /// Equivalent to the second SIGINT.
    pub fn abort(&self) {
        self.shared.shutdown.drain.cancel();
        self.shared.shutdown.abort.cancel();
        self.shared.wake_workers();
    }

    /// Blocks until the daemon has drained (after
    /// [`drain`](ServeDaemon::drain), [`abort`](ServeDaemon::abort), or
    /// SIGINT), then tears down the listener and helper threads.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        if let Some(t) = self.signals.take() {
            // Wake the signal thread out of its poll so the join does
            // not wait out the rest of it.
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for ServeDaemon {
    /// A dropped daemon aborts: tests and early-exit paths must not
    /// hang on a worker waiting for requests that will never come.
    fn drop(&mut self) {
        if self.workers.is_empty() && self.signals.is_none() {
            return;
        }
        self.shared.shutdown.drain.cancel();
        self.shared.shutdown.abort.cancel();
        self.shared.wake_workers();
        self.join_all();
    }
}

/// Pops queued requests and runs them; exits once draining and empty.
/// Worker `worker` labels its requests' job-board slots round-robin
/// within its own ring of [`SLOTS_PER_WORKER`].
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    let ring = worker * SLOTS_PER_WORKER..(worker + 1) * SLOTS_PER_WORKER;
    for slot in ring.cycle() {
        let entry = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(e) = q.pop_front() {
                    shared.queue_depth.set(q.len() as u64);
                    break Some(e);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        let Some(entry) = entry else { return };
        if shared.draining() {
            // Drain stops *starting* work: the request stays only as a
            // journaled `submitted` line, so a restart replays it. The
            // skipped record unblocks its waiting client with a 503.
            entry.finish(false, skipped_record(&entry));
            continue;
        }
        run_entry(shared, &entry, slot);
    }
}

fn skipped_record(entry: &RequestEntry) -> Json {
    Json::Obj(vec![
        ("job".to_string(), Json::str(&entry.request.name)),
        (
            "origin".to_string(),
            Json::str(format!("request:{}", entry.id)),
        ),
        ("status".to_string(), Json::str("skipped")),
    ])
}

/// Executes one request on the engine's single-job path, on job-board
/// slot `slot`. A request without its own `deadline_ms` runs under the
/// runner's configured deadline.
fn run_entry(shared: &Arc<Shared>, entry: &Arc<RequestEntry>, slot: usize) {
    entry.set_running();
    shared.telemetry.jobs.assign(slot, &entry.request.name);
    let admission: Admission = entry.request.admit(entry.id);
    let deadline = entry.request.deadline_ms.map(Duration::from_millis);
    let sink_entry = Arc::clone(entry);
    let factory = move || -> Box<dyn EventSink> {
        Box::new(EntrySink {
            entry: Arc::clone(&sink_entry),
        })
    };
    let record = shared.runner.run(
        &admission,
        deadline,
        &entry.cancel,
        slot,
        Some(&factory),
        None,
    );
    let cache_hit = record.cache_hit;
    let json = record.to_json();
    // Abort-cancelled work is deliberately left incomplete in the
    // journal: the restart replays it, which is the crash-consistency
    // contract. Every other outcome (including a client-disconnect
    // cancellation) is final and journaled.
    if !shared.shutdown.abort.is_cancelled() {
        if let Some(journal) = &shared.journal {
            if journal
                .append_completed(entry.id, cache_hit, &json)
                .is_err()
            {
                shared.journal_append_errors.inc();
            }
        }
    }
    shared.requests_completed.inc();
    entry.finish(cache_hit, json);
}

/// Maps SIGINT counts onto the drain/abort tokens (same cadence as
/// the batch engine's in-loop polling, which has no loop to piggyback
/// on here). Parks between polls, so stopping the daemon unparks it
/// and the thread exits at once.
fn signal_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        shared.shutdown.poll_signals();
        if shared.draining() {
            shared.queue_cv.notify_all();
        }
        std::thread::park_timeout(Duration::from_millis(20));
    }
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let request = match read_request_limited(&mut stream, shared.max_body_bytes) {
        Ok(r) => r,
        Err(e) => {
            if !e.is_timeout() {
                shared.bad_requests.inc();
            }
            respond_to_error(&stream, &e);
            return;
        }
    };
    shared.requests_total.inc();
    let head = request.method == "HEAD";
    let respond = |stream: &mut TcpStream, resp: Response| {
        let _ = write_response(stream, &resp, head);
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/synthesize") => handle_synthesize(shared, &mut stream, &request),
        (_, "/synthesize") => {
            shared.bad_requests.inc();
            respond(
                &mut stream,
                Response::text(405, "use POST /synthesize").with_header("Allow", "POST"),
            );
        }
        ("GET" | "HEAD", "/healthz") => {
            let status = if shared.telemetry.degraded() {
                503
            } else {
                200
            };
            respond(&mut stream, Response::json(status, shared.healthz_json()));
        }
        ("GET" | "HEAD", path) if path.starts_with("/requests/") => {
            handle_request_lookup(shared, &mut stream, path, head)
        }
        ("POST", _) => {
            shared.bad_requests.inc();
            respond(
                &mut stream,
                Response::text(405, "only /synthesize accepts POST")
                    .with_header("Allow", "GET, HEAD"),
            );
        }
        // The parser admits only GET, HEAD and POST, so this is a read.
        (_, path) => respond(
            &mut stream,
            board_route(&shared.telemetry, path)
                .unwrap_or_else(|| Response::text(404, "not found")),
        ),
    }
}

/// `GET /requests/<id>` (status) and `GET /requests/<id>/events`
/// (live JSONL progress stream).
fn handle_request_lookup(shared: &Arc<Shared>, stream: &mut TcpStream, path: &str, head: bool) {
    let rest = &path["/requests/".len()..];
    let (id_text, events) = match rest.strip_suffix("/events") {
        Some(prefix) => (prefix, true),
        None => (rest, false),
    };
    let entry = id_text
        .parse::<u64>()
        .ok()
        .and_then(|id| shared.registry.get(id));
    let Some(entry) = entry else {
        let _ = write_response(stream, &Response::text(404, "no such request"), head);
        return;
    };
    if !events {
        let resp = Response::json(200, entry.status_json().to_string());
        let _ = write_response(stream, &resp, head);
        return;
    }
    if write_stream_head(&mut *stream, 200, "application/x-ndjson").is_err() || head {
        return;
    }
    let mut from = 0;
    loop {
        let (lines, next, done) = entry.events_wait(from, Duration::from_millis(200));
        for line in &lines {
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .and_then(|()| stream.flush())
                .is_err()
            {
                return;
            }
        }
        from = next;
        if done && lines.is_empty() {
            return;
        }
    }
}

/// The submit path: admission control, journal, enqueue, block until
/// the record is final (probing the socket so a vanished client
/// cancels its search instead of wasting a worker).
fn handle_synthesize(shared: &Arc<Shared>, stream: &mut TcpStream, http: &Request) {
    if shared.draining() {
        let _ = write_response(
            stream,
            &Response::json(503, r#"{"error":"draining"}"#.to_string()),
            false,
        );
        return;
    }
    let parsed = http
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(SynthesisRequest::from_json_str);
    let request = match parsed {
        Ok(r) => r,
        Err(message) => {
            shared.bad_requests.inc();
            let body = Json::Obj(vec![("error".to_string(), Json::Str(message))]).to_string();
            let _ = write_response(stream, &Response::json(400, body), false);
            return;
        }
    };
    // Pre-admit: a malformed spec (bad permutation, unparsable TFC,
    // width over the caps, unknown benchmark) is rejected here with a
    // 400 instead of burning a queue slot. Valid specs are re-admitted
    // by the worker on the unchanged engine path.
    if let Admission::Error { message, .. } = request.admit(0) {
        shared.bad_requests.inc();
        let body = Json::Obj(vec![
            ("error".to_string(), Json::str("bad spec")),
            ("message".to_string(), Json::Str(message)),
        ])
        .to_string();
        let _ = write_response(stream, &Response::json(400, body), false);
        return;
    }

    // Admission control: a full queue sheds the request.
    if shared.lock_queue().len() >= shared.queue_capacity {
        shared.requests_shed.inc();
        shared.telemetry.set_backpressure(true);
        let body = Json::Obj(vec![
            ("error".to_string(), Json::str("overloaded")),
            ("reason".to_string(), Json::str("queue full")),
        ])
        .to_string();
        let resp = Response::json(429, body).with_header("Retry-After", "1");
        let _ = write_response(stream, &resp, false);
        return;
    }
    shared.telemetry.set_backpressure(false);

    if let Err(e) = rmrls_obs::fail::trigger("serve/admission/enqueue") {
        let body = Json::Obj(vec![(
            "error".to_string(),
            Json::Str(format!("admission failed: {e}")),
        )])
        .to_string();
        let _ = write_response(stream, &Response::json(503, body), false);
        return;
    }

    let id = shared.registry.next_id();
    let entry = Arc::new(RequestEntry::new(
        id,
        request,
        shared.shutdown.abort.child(),
    ));
    shared.registry.insert(Arc::clone(&entry));
    // Write-ahead: the journal knows about the request before any
    // worker can touch it. An append failure degrades health but does
    // not fail the request — only crash recovery is weakened.
    if let Some(journal) = &shared.journal {
        if journal.append_submitted(id, &entry.request).is_err() {
            shared.journal_append_errors.inc();
        }
    }
    {
        let mut q = shared.lock_queue();
        q.push_back(Arc::clone(&entry));
        shared.queue_depth.set(q.len() as u64);
    }
    shared.queue_cv.notify_one();

    while !entry.wait_done(WAIT_TICK) {
        if client_gone(stream) {
            entry.cancel.cancel();
            shared.requests_disconnected.inc();
            return;
        }
    }
    let Some((cache_hit, record)) = entry.result() else {
        return;
    };
    if record.get("status").and_then(Json::as_str) == Some("skipped") {
        let body = Json::Obj(vec![
            ("error".to_string(), Json::str("draining")),
            ("id".to_string(), Json::uint(id)),
        ])
        .to_string();
        let _ = write_response(stream, &Response::json(503, body), false);
        return;
    }
    let body = Json::Obj(vec![
        ("id".to_string(), Json::uint(id)),
        ("cache_hit".to_string(), Json::Bool(cache_hit)),
        ("record".to_string(), record),
    ])
    .to_string();
    let _ = write_response(stream, &Response::json(200, body), false);
}

/// Probes the socket for client liveness without consuming request
/// data (the request is fully read; anything else the peer sends is
/// protocol noise). EOF or a hard error means the client is gone.
fn client_gone(stream: &TcpStream) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut probe = [0u8; 1];
    let gone = match (&*stream).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    };
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    gone
}
