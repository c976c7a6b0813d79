//! Resilience-layer benchmark (PR 5): what never-fail mode costs.
//!
//! Two questions, each also asserted as a correctness check:
//!
//! 1. **Fallback overhead when idle** — on a workload the configured
//!    search solves outright, `--fallback` must be free: identical
//!    results, zero tier-2/tier-3 descents, and (full mode) a
//!    wall-clock delta under 5%.
//! 2. **Fallback tier hit rates when starved** — on a workload whose
//!    node budget is deliberately too small, the ladder must leave
//!    nothing unsolved; the report records which tier rescued how many
//!    jobs.
//!
//! Output: a human-readable summary plus the `BENCH_pr5.json` payload
//! on request (`RMRLS_BENCH_OUT=path`). `RMRLS_SMOKE=1` shrinks the
//! workload for CI (the <5% timing assertion is full-mode only; smoke
//! timing is noise).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_engine::manifest::{Admission, BatchJob, SpecData};
use rmrls_engine::{run_batch, suite_admissions, BatchOptions, ShutdownHandles};
use rmrls_obs::Json;
use rmrls_spec::random_permutation;

fn smoke() -> bool {
    std::env::var("RMRLS_SMOKE")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// All-solvable workload: the example suite plus random 3/4-variable
/// permutations — tier 1 solves every job, so the ladder never fires.
fn easy_workload(randoms: usize) -> Vec<Admission> {
    let mut jobs = suite_admissions("examples").expect("bundled suite");
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for i in 0..randoms {
        let n = 3 + (i % 2);
        jobs.push(Admission::Job(BatchJob {
            name: format!("easy{n}v-{i}"),
            origin: "bench:easy".to_string(),
            spec: SpecData::Perm(random_permutation(n, &mut rng)),
        }));
    }
    jobs
}

/// Starved workload: random 5-variable permutations under a node
/// budget far too small for the full search — most jobs need the
/// ladder.
fn hard_workload(count: usize) -> Vec<Admission> {
    let mut rng = StdRng::seed_from_u64(0xbad5eed);
    (0..count)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("hard5v-{i}"),
                origin: "bench:hard".to_string(),
                spec: SpecData::Perm(random_permutation(5, &mut rng)),
            })
        })
        .collect()
}

fn options(fallback: bool, max_nodes: u64) -> BatchOptions {
    BatchOptions {
        fallback,
        synthesis: rmrls_core::SynthesisOptions::new()
            .with_stop_at_first(true)
            .with_max_nodes(max_nodes),
        ..BatchOptions::default()
    }
}

/// Median wall-clock over `reps` runs of a batch.
fn timed(jobs: &[Admission], opts: &BatchOptions, reps: usize) -> (f64, rmrls_engine::BatchRun) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let run = run_batch(jobs, opts, &ShutdownHandles::new());
        secs.push(start.elapsed().as_secs_f64());
        last = Some(run);
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], last.expect("reps >= 1"))
}

fn main() {
    let smoke = smoke();
    let (easy_randoms, hard_count, reps) = if smoke { (8, 4, 1) } else { (56, 24, 3) };

    println!("# Resilience layer: fallback overhead");
    println!("mode: {}\n", if smoke { "smoke" } else { "full" });

    // ---- 1. Fallback overhead on an all-solvable workload ----------
    let easy = easy_workload(easy_randoms);
    // Warm-up pass so neither timed configuration pays first-run costs
    // (allocator growth, page faults) that would skew the comparison.
    run_batch(&easy, &options(false, 200_000), &ShutdownHandles::new());
    let (plain_secs, plain) = timed(&easy, &options(false, 200_000), reps);
    let (ladder_secs, ladder) = timed(&easy, &options(true, 200_000), reps);
    assert_eq!(plain.counters.jobs_unsolved, 0, "easy workload all solves");
    assert_eq!(
        ladder.results_jsonl(),
        plain.results_jsonl(),
        "an idle ladder must not change results"
    );
    assert_eq!(ladder.counters.solved_by_relaxed, 0, "tier 2 never fired");
    assert_eq!(ladder.counters.solved_by_mmd, 0, "tier 3 never fired");
    let overhead = (ladder_secs - plain_secs) / plain_secs;
    println!(
        "easy workload ({} jobs): rmrls-only {plain_secs:.3}s, --fallback {ladder_secs:.3}s \
         ({:+.1}% — ladder idle)",
        easy.len(),
        overhead * 100.0
    );
    if !smoke {
        // The contract is one-sided: an idle ladder must not be
        // *slower* by 5%; measuring faster is scheduler noise.
        assert!(
            overhead < 0.05,
            "idle fallback must cost <5% wall-clock, measured {:+.1}%",
            overhead * 100.0
        );
    }

    // ---- 2. Tier hit rates on a starved workload -------------------
    let hard = hard_workload(hard_count);
    let (hard_secs, rescued) = timed(&hard, &options(true, 200), reps.min(2));
    assert_eq!(
        rescued.counters.jobs_unsolved, 0,
        "the ladder leaves nothing unsolved"
    );
    assert_eq!(rescued.counters.verify_failures, 0);
    let c = &rescued.counters;
    println!(
        "hard workload ({} jobs, 200-node budget): {hard_secs:.3}s — solved_by: \
         {} rmrls, {} relaxed, {} mmd",
        hard.len(),
        c.solved_by_rmrls,
        c.solved_by_relaxed,
        c.solved_by_mmd
    );
    assert!(
        c.solved_by_relaxed + c.solved_by_mmd > 0,
        "a starved workload must actually descend the ladder"
    );

    let report = Json::Obj(vec![
        ("bench".to_string(), Json::str("resilience_pr5")),
        ("smoke".to_string(), Json::Bool(smoke)),
        (
            "fallback_idle".to_string(),
            Json::Obj(vec![
                ("jobs".to_string(), Json::uint(easy.len() as u64)),
                ("reps".to_string(), Json::uint(reps as u64)),
                ("seconds_rmrls_only".to_string(), Json::Num(plain_secs)),
                ("seconds_fallback".to_string(), Json::Num(ladder_secs)),
                ("overhead_fraction".to_string(), Json::Num(overhead)),
                (
                    "tier2_or_tier3_hits".to_string(),
                    Json::uint(ladder.counters.solved_by_relaxed + ladder.counters.solved_by_mmd),
                ),
            ]),
        ),
        (
            "fallback_starved".to_string(),
            Json::Obj(vec![
                ("jobs".to_string(), Json::uint(hard.len() as u64)),
                ("node_budget".to_string(), Json::uint(200)),
                ("seconds".to_string(), Json::Num(hard_secs)),
                ("solved_by_rmrls".to_string(), Json::uint(c.solved_by_rmrls)),
                (
                    "solved_by_relaxed".to_string(),
                    Json::uint(c.solved_by_relaxed),
                ),
                ("solved_by_mmd".to_string(), Json::uint(c.solved_by_mmd)),
                ("jobs_unsolved".to_string(), Json::uint(c.jobs_unsolved)),
            ]),
        ),
    ]);

    if let Ok(path) = std::env::var("RMRLS_BENCH_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, format!("{report}\n")).expect("write RMRLS_BENCH_OUT");
            println!("\nwrote {path}");
        }
    }
}
