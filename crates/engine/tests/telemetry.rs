//! Integration tests for live telemetry: the byte-identity guarantee
//! (enabling telemetry changes no synthesized circuit byte) and the
//! board a finished run leaves. The HTTP scrape of a live run is in
//! `rmrls-serve`, next to the board routes.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_engine::manifest::{Admission, BatchJob, SpecData};
use rmrls_engine::{run_batch, BatchOptions, BatchTelemetry, JobState, ShutdownHandles};
use rmrls_obs::Json;

fn workload(n: usize, seed: u64) -> Vec<Admission> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            Admission::Job(BatchJob {
                name: format!("job{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(p),
            })
        })
        .collect()
}

fn telemetry_for(jobs: &[Admission]) -> Arc<BatchTelemetry> {
    Arc::new(BatchTelemetry::new(
        jobs.iter().map(|a| a.name().to_string()).collect(),
    ))
}

/// The tentpole guarantee: the results JSONL stream is byte-identical
/// with telemetry off, on, and on-with-multiple-workers.
#[test]
fn telemetry_never_changes_results() {
    let jobs = workload(10, 7);
    let plain = run_batch(&jobs, &BatchOptions::default(), &ShutdownHandles::new());
    let reference = plain.results_jsonl();
    for workers in [1, 4] {
        let telemetry = telemetry_for(&jobs);
        let opts = BatchOptions {
            workers,
            telemetry: Some(Arc::clone(&telemetry)),
            ..BatchOptions::default()
        };
        let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
        assert_eq!(
            run.results_jsonl(),
            reference,
            "telemetry with workers={workers} must not change results"
        );
        assert_eq!(run.counters.panics_contained, 0);
    }
}

/// After a run, the job board reflects final states, the latency
/// histograms saw every job, and the counters match the aggregate
/// report's.
#[test]
fn board_and_registry_reflect_a_finished_run() {
    let jobs = workload(6, 21);
    let telemetry = telemetry_for(&jobs);
    let opts = BatchOptions {
        workers: 2,
        telemetry: Some(Arc::clone(&telemetry)),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_completed, 6);

    let statuses = telemetry.jobs.statuses();
    assert_eq!(statuses.len(), 6);
    assert!(statuses.iter().all(|s| s.state == JobState::Done));
    assert!(statuses.iter().all(|s| s.solved_by.is_some()));
    assert_eq!(telemetry.job_seconds.count(), 6);

    let snap = telemetry.registry().snapshot();
    assert_eq!(snap.counter("jobs_completed"), Some(6));
    assert_eq!(
        snap.counter("cache_hits").unwrap() + snap.counter("cache_misses").unwrap(),
        6
    );
    // The sampler's final beat left end-of-run gauge values.
    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    };
    assert_eq!(gauge("workers_total"), Some(2));
    assert_eq!(gauge("jobs_running"), Some(0));
    assert_eq!(gauge("jobs_pending"), Some(0));

    // /healthz and /jobs render coherent JSON for the finished run.
    let health = Json::parse(&telemetry.healthz_json()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("jobs_done").unwrap().as_u64(), Some(6));
    assert_eq!(health.get("degraded"), Some(&Json::Bool(false)));
    let rows = Json::parse(&telemetry.jobs_json()).unwrap();
    assert_eq!(rows.as_arr().unwrap().len(), 6);
}
