//! In-memory request state: one entry per accepted request, looked up
//! by id for `GET /requests/<id>` and the JSONL event stream.
//!
//! Each entry is its own little synchronization hub: the submitting
//! connection blocks on [`wait_done`](RequestEntry::wait_done), the
//! worker publishes the final record through
//! [`finish`](RequestEntry::finish), and any number of event-stream connections
//! block on [`events_wait`](RequestEntry::events_wait) while the
//! search pushes progress lines. All waits are condvar-based with
//! short timeouts so callers can interleave liveness checks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use rmrls_core::CancelToken;
use rmrls_obs::Json;

use crate::request::SynthesisRequest;

/// Progress lines kept per request. The stream is a live tail, not an
/// archive: once the buffer is full, further events are counted as
/// dropped rather than grown without bound. The terminal
/// `request_done` line always fits (it bypasses the cap).
pub const EVENT_LOG_CAP: usize = 512;

/// Lifecycle phase of a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished — the record is available.
    Done,
}

impl Phase {
    /// Stable lowercase name used in status JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
        }
    }
}

/// Mutable core of an entry, guarded by one mutex.
struct Inner {
    phase: Phase,
    cache_hit: bool,
    record: Option<Json>,
}

/// Bounded progress-event buffer.
struct EventLog {
    lines: Vec<String>,
    dropped: u64,
}

/// One accepted request.
pub struct RequestEntry {
    /// Monotonic request id (also the journal key).
    pub id: u64,
    /// The request as submitted.
    pub request: SynthesisRequest,
    /// Cancels the request's search mid-flight. A child of the
    /// daemon's abort token, so a second SIGINT trips every in-flight
    /// request at once.
    pub cancel: CancelToken,
    inner: Mutex<Inner>,
    done: Condvar,
    events: Mutex<EventLog>,
    events_cv: Condvar,
}

impl RequestEntry {
    /// A fresh queued entry.
    pub fn new(id: u64, request: SynthesisRequest, cancel: CancelToken) -> RequestEntry {
        RequestEntry {
            id,
            request,
            cancel,
            inner: Mutex::new(Inner {
                phase: Phase::Queued,
                cache_hit: false,
                record: None,
            }),
            done: Condvar::new(),
            events: Mutex::new(EventLog {
                lines: Vec::new(),
                dropped: 0,
            }),
            events_cv: Condvar::new(),
        }
    }

    /// An entry restored from the journal in its final state (used by
    /// replay for requests that had already completed).
    pub fn finished(
        id: u64,
        request: SynthesisRequest,
        cache_hit: bool,
        record: Json,
    ) -> RequestEntry {
        let entry = RequestEntry::new(id, request, CancelToken::new());
        entry.set_running();
        entry.finish(cache_hit, record);
        entry
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_events(&self) -> MutexGuard<'_, EventLog> {
        self.events.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Marks the entry running (worker picked it up).
    pub fn set_running(&self) {
        self.lock_inner().phase = Phase::Running;
    }

    /// Publishes the final record and wakes every waiter, including
    /// event streams (which then see the terminal line and finish).
    pub fn finish(&self, cache_hit: bool, record: Json) {
        let status = record
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        {
            let mut inner = self.lock_inner();
            inner.phase = Phase::Done;
            inner.cache_hit = cache_hit;
            inner.record = Some(record);
        }
        let terminal = Json::Obj(vec![
            ("event".to_string(), Json::str("request_done")),
            ("id".to_string(), Json::uint(self.id)),
            ("status".to_string(), Json::Str(status)),
        ]);
        {
            // Terminal line bypasses the cap: streams must always see
            // the end of the request.
            let mut log = self.lock_events();
            log.lines.push(terminal.to_string());
        }
        self.done.notify_all();
        self.events_cv.notify_all();
    }

    /// Whether the final record is available.
    pub fn is_done(&self) -> bool {
        self.lock_inner().phase == Phase::Done
    }

    /// Blocks until the entry finishes or `timeout` elapses; returns
    /// whether it is done. Short timeouts let the caller interleave
    /// client-liveness probes.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let mut inner = self.lock_inner();
        if inner.phase != Phase::Done {
            let (guard, _) = self
                .done
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
        inner.phase == Phase::Done
    }

    /// The final `(cache_hit, record)` pair, once done.
    pub fn result(&self) -> Option<(bool, Json)> {
        let inner = self.lock_inner();
        inner.record.clone().map(|r| (inner.cache_hit, r))
    }

    /// Appends one progress line (drops beyond the cap).
    pub fn push_event(&self, line: String) {
        self.push_event_with(|| line);
    }

    /// Appends the line `make` builds, or — once the log holds
    /// [`EVENT_LOG_CAP`] lines — counts a drop without calling `make`.
    /// Stream readers are woken only when a line actually lands, so a
    /// dropped event costs one lock and one counter increment.
    pub fn push_event_with(&self, make: impl FnOnce() -> String) {
        {
            let mut log = self.lock_events();
            if log.lines.len() >= EVENT_LOG_CAP {
                log.dropped += 1;
                return;
            }
            log.lines.push(make());
        }
        self.events_cv.notify_all();
    }

    /// Returns event lines from index `from` onward, blocking up to
    /// `timeout` when none are available yet. The returned tuple is
    /// `(new_lines, next_index, done)`; a `(empty, from, true)` result
    /// means the stream is complete.
    pub fn events_wait(&self, from: usize, timeout: Duration) -> (Vec<String>, usize, bool) {
        let mut log = self.lock_events();
        if log.lines.len() <= from && !self.is_done() {
            let (guard, _) = self
                .events_cv
                .wait_timeout(log, timeout)
                .unwrap_or_else(|p| p.into_inner());
            log = guard;
        }
        let fresh: Vec<String> = log.lines.get(from..).unwrap_or(&[]).to_vec();
        let next = from + fresh.len();
        drop(log);
        (fresh, next, self.is_done())
    }

    /// Progress lines dropped past the buffer cap.
    pub fn dropped_events(&self) -> u64 {
        self.lock_events().dropped
    }

    /// Status document for `GET /requests/<id>`.
    pub fn status_json(&self) -> Json {
        let inner = self.lock_inner();
        let mut fields = vec![
            ("id".to_string(), Json::uint(self.id)),
            ("name".to_string(), Json::str(&self.request.name)),
            ("state".to_string(), Json::str(inner.phase.as_str())),
        ];
        if inner.phase == Phase::Done {
            fields.push(("cache_hit".to_string(), Json::Bool(inner.cache_hit)));
            if let Some(record) = &inner.record {
                fields.push(("record".to_string(), record.clone()));
            }
        }
        drop(inner);
        let dropped = self.dropped_events();
        if dropped > 0 {
            fields.push(("dropped_events".to_string(), Json::uint(dropped)));
        }
        Json::Obj(fields)
    }
}

/// All requests the daemon has accepted, by id.
pub struct RequestRegistry {
    entries: Mutex<HashMap<u64, Arc<RequestEntry>>>,
    next_id: AtomicU64,
}

impl Default for RequestRegistry {
    fn default() -> RequestRegistry {
        RequestRegistry::new()
    }
}

impl RequestRegistry {
    /// An empty registry; ids start at 1.
    pub fn new() -> RequestRegistry {
        RequestRegistry {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Allocates the next request id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Bumps the id allocator past journaled ids (replay).
    pub fn reserve_through(&self, max_seen: u64) {
        let floor = max_seen.saturating_add(1);
        self.next_id.fetch_max(floor, Ordering::Relaxed);
    }

    /// Registers an entry under its id.
    pub fn insert(&self, entry: Arc<RequestEntry>) {
        self.lock().insert(entry.id, entry);
    }

    /// Looks up an entry.
    pub fn get(&self, id: u64) -> Option<Arc<RequestEntry>> {
        self.lock().get(&id).cloned()
    }

    /// Number of registered requests (all phases).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no request has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<RequestEntry>>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SynthesisRequest {
        SynthesisRequest {
            name: "t".into(),
            kind: "perm".into(),
            spec: "1,0".into(),
            deadline_ms: None,
        }
    }

    #[test]
    fn wait_done_observes_a_cross_thread_finish() {
        let entry = Arc::new(RequestEntry::new(1, request(), CancelToken::new()));
        let waiter = {
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || {
                let mut rounds = 0;
                while !entry.wait_done(Duration::from_millis(20)) {
                    rounds += 1;
                    assert!(rounds < 500, "never finished");
                }
                entry.result().unwrap()
            })
        };
        entry.set_running();
        entry.finish(
            true,
            Json::Obj(vec![("status".into(), Json::str("solved"))]),
        );
        let (cache_hit, record) = waiter.join().unwrap();
        assert!(cache_hit);
        assert_eq!(record.get("status").and_then(Json::as_str), Some("solved"));
    }

    #[test]
    fn event_streams_end_with_the_terminal_line() {
        let entry = RequestEntry::new(2, request(), CancelToken::new());
        entry.push_event("{\"event\":\"a\"}".to_string());
        entry.finish(
            false,
            Json::Obj(vec![("status".into(), Json::str("solved"))]),
        );
        let (lines, next, done) = entry.events_wait(0, Duration::from_millis(1));
        assert!(done);
        assert_eq!(next, 2);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("request_done"));
        let (tail, _, done) = entry.events_wait(next, Duration::from_millis(1));
        assert!(done && tail.is_empty());
    }

    #[test]
    fn the_event_log_is_bounded() {
        let entry = RequestEntry::new(3, request(), CancelToken::new());
        for i in 0..(EVENT_LOG_CAP + 10) {
            entry.push_event(format!("{{\"n\":{i}}}"));
        }
        assert_eq!(entry.dropped_events(), 10);
        let (lines, _, _) = entry.events_wait(0, Duration::from_millis(1));
        assert_eq!(lines.len(), EVENT_LOG_CAP);
    }

    #[test]
    fn a_full_log_counts_drops_without_building_lines() {
        let entry = RequestEntry::new(4, request(), CancelToken::new());
        let mut built = 0;
        for i in 0..(EVENT_LOG_CAP + 25) {
            entry.push_event_with(|| {
                built += 1;
                format!("{{\"n\":{i}}}")
            });
        }
        assert_eq!(built, EVENT_LOG_CAP, "no line is built past the cap");
        assert_eq!(entry.dropped_events(), 25);
        entry.push_event_with(|| unreachable!("the log is full"));
        assert_eq!(entry.dropped_events(), 26);

        entry.finish(
            false,
            Json::Obj(vec![("status".into(), Json::str("solved"))]),
        );
        let (lines, next, done) = entry.events_wait(0, Duration::from_millis(1));
        assert!(done);
        assert_eq!(next, EVENT_LOG_CAP + 1);
        assert_eq!(lines[0], "{\"n\":0}");
        assert_eq!(
            lines[EVENT_LOG_CAP - 1],
            format!("{{\"n\":{}}}", EVENT_LOG_CAP - 1)
        );
        assert!(lines[EVENT_LOG_CAP].contains("request_done"));
        assert_eq!(
            entry
                .status_json()
                .get("dropped_events")
                .and_then(Json::as_u64),
            Some(26)
        );
    }

    #[test]
    fn ids_are_monotonic_and_replay_reserves_past_them() {
        let reg = RequestRegistry::new();
        assert_eq!(reg.next_id(), 1);
        reg.reserve_through(40);
        assert_eq!(reg.next_id(), 41);
        // Reserving backwards never rewinds the allocator.
        reg.reserve_through(5);
        assert_eq!(reg.next_id(), 42);
    }

    #[test]
    fn status_json_reflects_the_phase() {
        let entry = RequestEntry::new(7, request(), CancelToken::new());
        let queued = entry.status_json();
        assert_eq!(queued.get("state").and_then(Json::as_str), Some("queued"));
        assert!(queued.get("record").is_none());
        entry.finish(
            false,
            Json::Obj(vec![("status".into(), Json::str("error"))]),
        );
        let done = entry.status_json();
        assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
        assert!(done.get("record").is_some());
    }
}
