//! SIGINT semantics, isolated in their own test binary because the
//! simulated SIGINT counter is process-global: any daemon in the same
//! process would observe it and drain. Tests here still serialize on
//! a mutex for the same reason.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use common::{easy_body, hard_body, post, post_open, scratch, wait_for_state};
use rmrls_engine::signal::{reset_sigint_count, simulate_sigint};
use rmrls_engine::ShutdownHandles;
use rmrls_serve::{RequestJournal, ServeDaemon, ServeOptions};

static GUARD: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn one_sigint_drains_cleanly_with_a_settled_journal() {
    let _g = serial();
    reset_sigint_count();
    let dir = scratch("sigint-drain");
    let journal_path = dir.join("requests.jsonl").to_string_lossy().into_owned();
    let opts = ServeOptions {
        journal_path: Some(journal_path.clone()),
        ..ServeOptions::default()
    };
    let daemon = ServeDaemon::start(opts, ShutdownHandles::new()).expect("daemon starts");
    let addr = daemon.local_addr();
    let reply = post(addr, "/synthesize", &easy_body("before-sigint"));
    assert_eq!(reply.status, 200, "{}", reply.body);

    simulate_sigint();
    // Must return: the signal monitor maps the count onto the drain
    // token, the idle workers observe it and exit.
    daemon.wait();
    reset_sigint_count();

    let (_h, replay) = RequestJournal::open(&journal_path).expect("journal reopens");
    assert!(replay.pending.is_empty());
    assert_eq!(replay.completed.len(), 1);
}

#[test]
fn a_second_sigint_aborts_in_flight_work_for_replay() {
    let _g = serial();
    reset_sigint_count();
    let dir = scratch("sigint-abort");
    let journal_path = dir.join("requests.jsonl").to_string_lossy().into_owned();
    let mut opts = ServeOptions {
        workers: 1,
        journal_path: Some(journal_path.clone()),
        ..ServeOptions::default()
    };
    opts.batch.deadline = Some(Duration::from_secs(60));
    let daemon = ServeDaemon::start(opts, ShutdownHandles::new()).expect("daemon starts");
    let addr = daemon.local_addr();
    let _open = post_open(addr, "/synthesize", &hard_body("interrupted"));
    wait_for_state(addr, 1, "running", 200);

    simulate_sigint();
    simulate_sigint();
    daemon.wait();
    reset_sigint_count();

    // Aborted work is left pending in the journal: the crash-recovery
    // contract is that the next life replays it.
    let (_h, replay) = RequestJournal::open(&journal_path).expect("journal reopens");
    assert_eq!(replay.pending.len(), 1);
    assert!(replay.completed.is_empty());
}
