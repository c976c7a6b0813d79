//! The durable circuit store under the serve daemon: the warm cache
//! survives restarts (a second incarnation serves circuits the first
//! one solved, byte-identical and verified), and the store's health is
//! visible on `/metrics`.

mod common;

use common::{easy_body, get, post, scratch};
use rmrls_engine::{BatchOptions, SharedStore, ShutdownHandles};
use rmrls_obs::Json;
use rmrls_serve::{ServeDaemon, ServeOptions};

fn start_with_store(store: SharedStore) -> ServeDaemon {
    let batch = BatchOptions {
        store: Some(store),
        store_provenance: "serve".to_string(),
        ..BatchOptions::default()
    };
    let opts = ServeOptions {
        batch,
        ..ServeOptions::default()
    };
    ServeDaemon::start(opts, ShutdownHandles::new()).expect("daemon starts")
}

#[test]
fn the_warm_cache_survives_a_restart_through_the_store() {
    let dir = scratch("serve-store");
    let path = dir.join("circuits.store").to_string_lossy().into_owned();

    // First life: solve once, persisting the circuit.
    let store = SharedStore::open(&path).expect("store opens");
    let daemon = start_with_store(store);
    let addr = daemon.local_addr();
    let first = post(addr, "/synthesize", &easy_body("first-life"));
    assert_eq!(first.status, 200, "{}", first.body);
    let j1 = first.json();
    assert_eq!(j1.get("cache_hit"), Some(&Json::Bool(false)));
    let circuit1 = j1
        .get("record")
        .and_then(|r| r.get("circuit"))
        .expect("solved record")
        .to_string();
    daemon.drain();
    daemon.wait();

    // Second life: a fresh process-worth of state (new LRU, new
    // daemon), same store file. The request is served as a hit with a
    // byte-identical circuit — the store re-verified it on open.
    let store = SharedStore::open(&path).expect("store reopens");
    assert_eq!(store.len(), 1, "the first life's circuit persisted");
    let daemon2 = start_with_store(store);
    let addr2 = daemon2.local_addr();
    let second = post(addr2, "/synthesize", &easy_body("second-life"));
    assert_eq!(second.status, 200, "{}", second.body);
    let j2 = second.json();
    assert_eq!(
        j2.get("cache_hit"),
        Some(&Json::Bool(true)),
        "{}",
        second.body
    );
    let circuit2 = j2
        .get("record")
        .and_then(|r| r.get("circuit"))
        .expect("solved record")
        .to_string();
    assert_eq!(circuit1, circuit2, "circuits byte-identical across lives");

    // Store health rides on /metrics (gauges are primed at startup,
    // before the first sampler beat).
    let metrics = get(addr2, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("rmrls_store_entries 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("rmrls_store_quarantined_records 0"),
        "{}",
        metrics.body
    );
    // One `# TYPE` line per family: Prometheus rejects an exposition
    // that declares a name twice (say, as a counter and a gauge).
    let mut families: Vec<&str> = metrics
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let declared = families.len();
    families.sort_unstable();
    families.dedup();
    assert_eq!(families.len(), declared, "{}", metrics.body);

    daemon2.drain();
    daemon2.wait();
}
