//! The metric catalog: every family the two front ends export —
//! `batch --metrics-addr` and a store-backed `rmrls serve` — is listed
//! in DESIGN.md §5g, and everything listed there is exported.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::{easy_body, get, post, scratch};
use rmrls_engine::{
    admit_inline, run_batch, BatchOptions, BatchTelemetry, SharedStore, ShutdownHandles,
};
use rmrls_serve::{serve_board, ServeDaemon, ServeOptions};

const DESIGN: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));

/// `(family, type)` from every `# TYPE` line of an exposition,
/// asserting that no family is declared twice (Prometheus rejects the
/// whole exposition when one is).
fn families(exposition: &str) -> BTreeSet<(String, String)> {
    let mut seen = BTreeSet::new();
    let mut out = BTreeSet::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let (name, kind) = rest.split_once(' ').expect("# TYPE name kind");
        assert!(seen.insert(name.to_string()), "{name} declared twice");
        out.insert((name.to_string(), kind.to_string()));
    }
    out
}

/// The catalog rows for one front end (`| `name` | type | front
/// ends | meaning |`), each gauge with its `_high_water` companion.
fn catalog(front: &str) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for line in DESIGN.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(name) = cells.get(1).and_then(|c| c.strip_prefix('`')) else {
            continue;
        };
        let Some(name) = name.strip_suffix('`').filter(|n| n.starts_with("rmrls_")) else {
            continue;
        };
        if !cells[3].split(", ").any(|f| f == front) {
            continue;
        }
        if cells[2] == "gauge" {
            out.insert((format!("{name}_high_water"), "gauge".to_string()));
        }
        out.insert((name.to_string(), cells[2].to_string()));
    }
    out
}

fn batch_metrics() -> String {
    let jobs: Vec<_> = ["1,0,7,2,3,4,5,6", "7,0,1,2,3,4,5,6"]
        .iter()
        .map(|spec| admit_inline("job", "perm", spec, "test".to_string()))
        .collect();
    let telemetry = Arc::new(BatchTelemetry::new(vec!["job".to_string(); jobs.len()]));
    let server = serve_board("127.0.0.1:0", Arc::clone(&telemetry)).unwrap();
    let opts = BatchOptions {
        telemetry: Some(telemetry),
        ..BatchOptions::default()
    };
    run_batch(&jobs, &opts, &ShutdownHandles::new());
    let body = get(server.local_addr(), "/metrics").body;
    server.shutdown();
    body
}

fn serve_metrics() -> String {
    let dir = scratch("catalog");
    let store = SharedStore::open(dir.join("c.store").to_str().unwrap()).unwrap();
    let mut opts = ServeOptions::default();
    opts.batch.store = Some(store);
    let daemon = ServeDaemon::start(opts, ShutdownHandles::new()).unwrap();
    let addr = daemon.local_addr();
    assert_eq!(post(addr, "/synthesize", &easy_body("one")).status, 200);
    let body = get(addr, "/metrics").body;
    daemon.drain();
    daemon.wait();
    body
}

#[test]
fn exported_families_match_the_design_catalog_both_ways() {
    for (front, body) in [("batch", batch_metrics()), ("serve", serve_metrics())] {
        let exported = families(&body);
        let listed = catalog(front);
        assert!(
            !listed.is_empty(),
            "no {front} rows in the DESIGN.md catalog"
        );
        let unlisted: Vec<_> = exported.difference(&listed).collect();
        let missing: Vec<_> = listed.difference(&exported).collect();
        assert!(
            unlisted.is_empty() && missing.is_empty(),
            "{front}: exported but not in DESIGN.md §5g: {unlisted:?}; \
             listed but not exported: {missing:?}"
        );
    }
}
