//! Flight-recorder overhead benchmark (PR 6): what observability costs.
//!
//! The search kernel is permanently instrumented — every expansion can
//! report to an attached [`rmrls_obs::FlightRecorder`]. The contract is
//! that the *cheap path* (no recorder attached) compiles down to a
//! branch on an empty `Option`, so always-on instrumentation is
//! affordable:
//!
//! 1. **Recorder disabled** — `synthesize_with_observer` with a null
//!    observer must stay within 3% of the plain `synthesize` baseline.
//! 2. **Recorder enabled** — a per-search recorder (sampled expansion
//!    records, gauges, anomalies — what `--trace` turns on) must stay
//!    within 10% of the baseline.
//! 3. **Live telemetry** — the `--metrics-addr` hook: a progress
//!    beat per `TIME_CHECK_INTERVAL` pops updating the job board's
//!    atomics and the latency histograms, exactly what the engine wires
//!    up for a scrapeable run. Must stay within 3% of the baseline
//!    (`BENCH_pr8.json`; see DESIGN.md §5g).
//!
//! Throughput is measured as full searches over a fixed set of random
//! 4-variable permutations, median-of-reps, same-workload
//! back-to-back. Output: a human-readable table plus the
//! `BENCH_pr6.json` payload on request (`RMRLS_BENCH_OUT=path`).
//! `RMRLS_SMOKE=1` shrinks the workload for CI; the percentage
//! assertions are full-mode only (smoke timing is noise).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_core::{
    synthesize, synthesize_with_observer, FlightRecorder, Observer, SynthesisOptions,
};
use rmrls_obs::Json;
use rmrls_pprm::MultiPprm;
use rmrls_spec::random_permutation;

fn smoke() -> bool {
    std::env::var("RMRLS_SMOKE")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

fn workload(count: usize) -> Vec<MultiPprm> {
    let mut rng = StdRng::seed_from_u64(0x0b5e7ed);
    (0..count)
        .map(|_| {
            let perm = random_permutation(4, &mut rng);
            MultiPprm::from_permutation(perm.as_slice(), 4)
        })
        .collect()
}

fn options() -> SynthesisOptions {
    SynthesisOptions::new()
        .with_stop_at_first(true)
        .with_max_nodes(50_000)
}

/// One pass over the workload; returns (wall seconds, solved count).
fn pass<F: FnMut(&MultiPprm) -> bool>(specs: &[MultiPprm], mut run: F) -> (f64, usize) {
    let start = Instant::now();
    let solved = specs.iter().filter(|s| run(s)).count();
    (start.elapsed().as_secs_f64(), solved)
}

/// Median wall-clock over `reps` passes.
fn timed<F: FnMut(&MultiPprm) -> bool>(
    specs: &[MultiPprm],
    reps: usize,
    mut run: F,
) -> (f64, usize) {
    let mut secs = Vec::new();
    let mut solved = 0;
    for _ in 0..reps {
        let (s, n) = pass(specs, &mut run);
        secs.push(s);
        solved = n;
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], solved)
}

fn main() {
    let smoke = smoke();
    let (count, reps) = if smoke { (4, 1) } else { (16, 5) };
    let specs = workload(count);
    let opts = options();

    println!("# Flight recorder: instrumentation overhead");
    println!(
        "mode: {} — {count} random 4-var permutations, median of {reps} passes\n",
        if smoke { "smoke" } else { "full" }
    );

    // Warm-up so no timed configuration pays first-run costs.
    pass(&specs, |s| synthesize(s, &opts).is_ok());

    // 1. Baseline: the plain entry point, no observer in sight.
    let (base_secs, base_solved) = timed(&specs, reps, |s| synthesize(s, &opts).is_ok());

    // 2. Recorder disabled: the observer plumbing is live but nothing
    //    is attached — this is the always-on cheap path.
    let (off_secs, off_solved) = timed(&specs, reps, |s| {
        let mut obs = Observer::null();
        synthesize_with_observer(s, &opts, &mut obs).is_ok()
    });

    // 3. Recorder enabled: a fresh per-search ring buffer, the way the
    //    batch engine runs under `--trace`.
    let mut records = 0u64;
    let (on_secs, on_solved) = timed(&specs, reps, |s| {
        let recorder = FlightRecorder::with_default_budget();
        let mut obs = Observer::null().with_recorder(recorder.clone());
        let ok = synthesize_with_observer(s, &opts, &mut obs).is_ok();
        records += recorder.len() as u64;
        ok
    });

    // 4. Live telemetry: the --metrics-addr progress hook — job-board
    //    atomics plus expansion-batch histogram per beat, job latency
    //    histogram per search. (The HTTP server itself is off the hot
    //    path: scrapes happen on their own thread.)
    let telemetry =
        std::sync::Arc::new(rmrls_engine::BatchTelemetry::new(vec!["bench".to_string()]));
    let (tele_secs, tele_solved) = timed(&specs, reps, |s| {
        let t = std::sync::Arc::clone(&telemetry);
        let batches = std::sync::Arc::clone(&telemetry.expansion_batch_seconds);
        let mut last_beat = Instant::now();
        let mut obs = Observer::null().with_progress(Box::new(move |p| {
            t.jobs
                .update_progress(0, p.nodes_expanded, p.queue_depth as u64, p.live_terms);
            let now = Instant::now();
            batches.record(now.duration_since(last_beat).as_secs_f64());
            last_beat = now;
        }));
        telemetry.jobs.mark_running(0);
        let started = Instant::now();
        let ok = synthesize_with_observer(s, &opts, &mut obs).is_ok();
        telemetry
            .job_seconds
            .record(started.elapsed().as_secs_f64());
        ok
    });
    let beats = telemetry.expansion_batch_seconds.count();

    assert_eq!(base_solved, off_solved, "observer must not change results");
    assert_eq!(base_solved, on_solved, "recorder must not change results");
    assert_eq!(
        base_solved, tele_solved,
        "telemetry must not change results"
    );
    assert!(records > 0, "the enabled recorder must actually record");
    assert!(beats > 0, "the telemetry hook must actually beat");

    let off_overhead = (off_secs - base_secs) / base_secs;
    let on_overhead = (on_secs - base_secs) / base_secs;
    let tele_overhead = (tele_secs - base_secs) / base_secs;
    println!("baseline (plain synthesize): {base_secs:.3}s, {base_solved}/{count} solved");
    println!(
        "recorder disabled:           {off_secs:.3}s ({:+.1}%)",
        off_overhead * 100.0
    );
    println!(
        "recorder enabled:            {on_secs:.3}s ({:+.1}%)",
        on_overhead * 100.0
    );
    println!(
        "live telemetry hook:         {tele_secs:.3}s ({:+.1}%)",
        tele_overhead * 100.0
    );
    if !smoke {
        // One-sided contracts: measuring *faster* is scheduler noise.
        assert!(
            off_overhead < 0.03,
            "disabled recorder must cost <3%, measured {:+.1}%",
            off_overhead * 100.0
        );
        assert!(
            on_overhead < 0.10,
            "enabled recorder must cost <10%, measured {:+.1}%",
            on_overhead * 100.0
        );
        assert!(
            tele_overhead < 0.03,
            "live telemetry must cost <3%, measured {:+.1}%",
            tele_overhead * 100.0
        );
    }

    let report = Json::Obj(vec![
        ("bench".to_string(), Json::str("trace_overhead_pr6")),
        ("smoke".to_string(), Json::Bool(smoke)),
        ("specs".to_string(), Json::uint(count as u64)),
        ("reps".to_string(), Json::uint(reps as u64)),
        ("seconds_baseline".to_string(), Json::Num(base_secs)),
        ("seconds_disabled".to_string(), Json::Num(off_secs)),
        ("seconds_enabled".to_string(), Json::Num(on_secs)),
        (
            "disabled_overhead_fraction".to_string(),
            Json::Num(off_overhead),
        ),
        (
            "enabled_overhead_fraction".to_string(),
            Json::Num(on_overhead),
        ),
        ("seconds_telemetry".to_string(), Json::Num(tele_secs)),
        (
            "telemetry_overhead_fraction".to_string(),
            Json::Num(tele_overhead),
        ),
        ("telemetry_beats".to_string(), Json::uint(beats)),
        (
            "records_per_run".to_string(),
            Json::uint(records / reps as u64),
        ),
    ]);

    if let Ok(path) = std::env::var("RMRLS_BENCH_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, format!("{report}\n")).expect("write RMRLS_BENCH_OUT");
            println!("\nwrote {path}");
        }
    }
}
