//! The capped `/requests/<id>/events` stream is byte-for-byte the
//! first [`EVENT_LOG_CAP`] lines of the search's full event stream,
//! followed by `request_done`, and `dropped_events` counts the rest —
//! even though the daemon never builds the lines it drops.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{get, post};
use rmrls_core::{synthesize_with_observer, Observer, Pruning, SynthesisOptions};
use rmrls_engine::{canonical_form, BatchOptions, ShutdownHandles};
use rmrls_obs::{Event, EventSink, Json};
use rmrls_pprm::MultiPprm;
use rmrls_serve::registry::EVENT_LOG_CAP;
use rmrls_serve::{ServeDaemon, ServeOptions};
use rmrls_spec::Permutation;

/// A 4-wire spec whose search emits tens of thousands of events, far
/// past the cap.
const SPEC: &str = "4,2,13,14,6,15,3,1,12,7,10,0,8,5,11,9";

/// The search options of the `serve_mix` benchmark's cold requests.
fn search_options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_nodes(2_000)
}

/// Keeps every event as the JSON line the daemon would stream.
struct AllLines(Rc<RefCell<Vec<String>>>);

impl EventSink for AllLines {
    fn emit(&mut self, event: Event) {
        self.0.borrow_mut().push(event.to_json().to_string());
    }
}

/// The uncapped event stream of the search the daemon runs: the one
/// on the spec's canonical representative.
fn reference_lines(batch: &BatchOptions) -> Vec<String> {
    let table: Vec<u64> = SPEC.split(',').map(|t| t.parse().unwrap()).collect();
    let perm = Permutation::from_vec(table).expect("a permutation");
    let (canon, _) = canonical_form(&perm, batch.canon_limit);
    let spec = MultiPprm::from_permutation(&canon, perm.num_vars());
    let lines = Rc::new(RefCell::new(Vec::new()));
    let mut obs = Observer::with_sink(Box::new(AllLines(Rc::clone(&lines))));
    synthesize_with_observer(&spec, &batch.synthesis, &mut obs).expect("the search solves it");
    lines.take()
}

#[test]
fn capped_stream_is_a_byte_identical_prefix_of_the_full_stream() {
    let mut opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    opts.batch.fallback = true;
    opts.batch.synthesis = search_options();
    let reference = reference_lines(&opts.batch);
    assert!(
        reference.len() > EVENT_LOG_CAP,
        "the spec must overflow the log ({} events)",
        reference.len()
    );

    let daemon = ServeDaemon::start(opts, ShutdownHandles::new()).expect("daemon starts");
    let addr = daemon.local_addr();
    let reply = post(
        addr,
        "/synthesize",
        &format!(r#"{{"kind":"perm","spec":"{SPEC}","name":"stream"}}"#),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = reply.json();
    assert_eq!(json.get("cache_hit"), Some(&Json::Bool(false)));
    let record = json.get("record").expect("record");
    assert_eq!(
        record.get("solved_by").and_then(Json::as_str),
        Some("rmrls")
    );
    let id = json.get("id").and_then(Json::as_u64).expect("id");

    let events = get(addr, &format!("/requests/{id}/events"));
    assert_eq!(events.status, 200);
    let lines: Vec<&str> = events.body.lines().collect();
    assert_eq!(lines.len(), EVENT_LOG_CAP + 1);
    for (i, (got, want)) in lines.iter().zip(&reference[..EVENT_LOG_CAP]).enumerate() {
        assert_eq!(got, want, "stream line {i} differs from the full stream");
    }
    let terminal = Json::parse(lines[EVENT_LOG_CAP]).expect("terminal line is JSON");
    assert_eq!(
        terminal.get("event").and_then(Json::as_str),
        Some("request_done")
    );

    let status = get(addr, &format!("/requests/{id}")).json();
    assert_eq!(
        status.get("dropped_events").and_then(Json::as_u64),
        Some((reference.len() - EVENT_LOG_CAP) as u64)
    );
    daemon.drain();
    daemon.wait();
}
