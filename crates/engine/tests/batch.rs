//! Integration tests for the batch engine: determinism across worker
//! counts and cache settings, cache-hit equivalence, corrupt-manifest
//! flow, panic containment, and shutdown semantics.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_circuit::check_equivalence;
use rmrls_core::SynthesisOptions;
use rmrls_engine::canon::conjugate_table;
use rmrls_engine::manifest::{Admission, BatchJob, SpecData};
use rmrls_engine::{run_batch, BatchOptions, JobOutcome, ShutdownHandles};
use rmrls_obs::Json;
use rmrls_pprm::MultiPprm;
use rmrls_spec::Permutation;

/// A relabeling-heavy workload: `bases` random 3-variable permutations,
/// each also admitted under three nontrivial wire relabelings.
fn relabeling_workload(bases: usize, seed: u64) -> Vec<Admission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigmas: [[u8; 3]; 4] = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]];
    let mut jobs = Vec::new();
    for b in 0..bases {
        let p = rmrls_spec::random_permutation(3, &mut rng);
        for (s, sigma) in sigmas.iter().enumerate() {
            let table = conjugate_table(p.as_slice(), sigma);
            jobs.push(Admission::Job(BatchJob {
                name: format!("base{b}-relabel{s}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(Permutation::from_vec(table).unwrap()),
            }));
        }
    }
    jobs
}

fn opts(workers: usize, cache: Option<usize>) -> BatchOptions {
    BatchOptions {
        workers,
        cache_size: cache,
        ..BatchOptions::default()
    }
}

#[test]
fn results_are_byte_identical_across_workers_and_cache() {
    let jobs = relabeling_workload(6, 42);
    let reference = run_batch(&jobs, &opts(1, None), &ShutdownHandles::new()).results_jsonl();
    for (workers, cache) in [(1, Some(64)), (4, None), (8, Some(64)), (8, None)] {
        let run = run_batch(&jobs, &opts(workers, cache), &ShutdownHandles::new());
        assert_eq!(
            run.results_jsonl(),
            reference,
            "results must not depend on workers={workers} cache={cache:?}"
        );
        assert_eq!(run.counters.panics_contained, 0);
        assert_eq!(run.counters.verify_failures, 0);
    }
}

#[test]
fn relabeling_workload_hits_the_cache_hard() {
    // 6 bases x 4 labelings share 6 canonical forms: with one worker,
    // exactly 6 misses and 18 hits (75% >= the 50% target).
    let jobs = relabeling_workload(6, 42);
    let run = run_batch(&jobs, &opts(1, Some(64)), &ShutdownHandles::new());
    assert_eq!(run.counters.cache_misses, 6);
    assert_eq!(run.counters.cache_hits, 18);
    assert!(run.counters.cache_hit_rate().unwrap() >= 0.5);
    // Every hit-served circuit still verifies against its own spec.
    assert_eq!(run.counters.verified_ok, 24);
    assert_eq!(run.counters.verify_failures, 0);
}

#[test]
fn cache_hits_are_equivalent_to_fresh_synthesis() {
    let jobs = relabeling_workload(4, 7);
    let fresh = run_batch(&jobs, &opts(1, None), &ShutdownHandles::new());
    let cached = run_batch(&jobs, &opts(1, Some(64)), &ShutdownHandles::new());
    assert!(cached.counters.cache_hits > 0);
    let mut hits_checked = 0;
    for (a, b) in fresh.records.iter().zip(&cached.records) {
        let (JobOutcome::Solved { circuit: ca, .. }, JobOutcome::Solved { circuit: cb, .. }) =
            (&a.outcome, &b.outcome)
        else {
            panic!("both runs must solve every job ({} / {})", a.name, b.name);
        };
        let eq = check_equivalence(ca, cb).expect("same width");
        assert!(eq.holds(), "{}: cache result not equivalent", a.name);
        if b.cache_hit {
            hits_checked += 1;
        }
    }
    assert!(hits_checked > 0, "at least one hit must be exercised");
}

#[test]
fn results_jsonl_lines_are_valid_json() {
    let jobs = relabeling_workload(2, 3);
    let run = run_batch(&jobs, &opts(2, Some(16)), &ShutdownHandles::new());
    let jsonl = run.results_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), jobs.len());
    for line in lines {
        let parsed = Json::parse(line).expect("each record is one JSON object");
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("solved"));
        assert!(parsed.get("circuit").unwrap().as_arr().is_some());
    }
    let report = run.report_json(&opts(2, Some(16)));
    let parsed = Json::parse(&report.to_string()).unwrap();
    assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(1));
    assert!(parsed.get("counters").unwrap().get("cache_hits").is_some());
    assert!(parsed.get("profile").is_none());
}

#[test]
fn corrupt_manifest_entries_flow_as_error_records() {
    let dir = std::env::temp_dir().join("rmrls-batch-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("jobs.manifest");
    std::fs::write(
        &manifest,
        "perm 1,0,7,2,3,4,5,6\n\
         perm 0,0,1,2\n\
         bench nonexistent-bench\n\
         table missing-file.tt\n\
         bench hwb4\n",
    )
    .unwrap();
    let jobs = rmrls_engine::load_manifest(manifest.to_str().unwrap()).unwrap();
    assert_eq!(jobs.len(), 5);
    let run = run_batch(&jobs, &opts(4, Some(16)), &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_errored, 3, "three corrupt entries");
    assert_eq!(run.counters.jobs_completed, 2, "good entries still run");
    assert_eq!(run.counters.panics_contained, 0);
    // Error records carry file:line context into the JSONL output.
    let jsonl = run.results_jsonl();
    let second = jsonl.lines().nth(1).unwrap();
    let parsed = Json::parse(second).unwrap();
    assert_eq!(parsed.get("status").unwrap().as_str(), Some("error"));
    let origin = parsed.get("origin").unwrap().as_str().unwrap();
    assert!(origin.ends_with(":2"), "line context in {origin}");
}

#[test]
fn panicking_job_is_contained_and_reported() {
    // A 33-output spec is constructible (every term stays within the
    // 32-variable term algebra) but overflows a width assert deep
    // inside synthesis — exactly the class of poisoned input the
    // isolation exists for. The neighbour job must be unaffected.
    let mut outputs: Vec<rmrls_pprm::Pprm> = (0..32).map(rmrls_pprm::Pprm::var).collect();
    outputs.push(rmrls_pprm::Pprm::var(0));
    let poisoned_spec = MultiPprm::from_outputs(outputs, 33);
    let jobs = vec![
        Admission::Job(BatchJob {
            name: "poisoned".to_string(),
            origin: "test".to_string(),
            spec: SpecData::Pprm(poisoned_spec),
        }),
        Admission::Job(BatchJob {
            name: "healthy".to_string(),
            origin: "test".to_string(),
            spec: SpecData::Perm(Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap()),
        }),
    ];
    let run = run_batch(&jobs, &opts(2, None), &ShutdownHandles::new());
    assert_eq!(run.counters.panics_contained, 1);
    assert_eq!(run.counters.jobs_completed, 1);
    assert!(matches!(
        &run.records[0].outcome,
        JobOutcome::Panicked { message } if message.contains("out of range")
    ));
    assert!(matches!(
        &run.records[1].outcome,
        JobOutcome::Solved {
            verified: Some(true),
            ..
        }
    ));
}

#[test]
fn pre_drained_batch_skips_everything_but_still_reports() {
    let jobs = relabeling_workload(2, 5);
    let shutdown = ShutdownHandles::new();
    shutdown.drain.cancel();
    let run = run_batch(&jobs, &opts(4, None), &shutdown);
    assert_eq!(run.counters.jobs_skipped, jobs.len() as u64);
    assert!(run
        .records
        .iter()
        .all(|r| matches!(r.outcome, JobOutcome::Skipped)));
    // The partial report is still well-formed.
    let report = run.report_json(&opts(4, None)).to_string();
    assert!(Json::parse(&report).is_ok());
}

#[test]
fn abort_cancels_inflight_searches() {
    // Two unbounded hard jobs on two workers; abort lands mid-search.
    let mut rng = StdRng::seed_from_u64(19);
    let jobs: Vec<Admission> = (0..2)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("hard{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(rmrls_spec::random_permutation(6, &mut rng)),
            })
        })
        .collect();
    let options = BatchOptions {
        workers: 2,
        cache_size: None,
        // No node budget and no dive: the searches cannot finish on
        // their own in this test's lifetime.
        synthesis: SynthesisOptions::new().with_initial_dive(false),
        ..BatchOptions::default()
    };
    let shutdown = ShutdownHandles::new();
    let run = std::thread::scope(|s| {
        let handle = s.spawn(|| run_batch(&jobs, &options, &shutdown));
        std::thread::sleep(Duration::from_millis(50));
        shutdown.abort.cancel();
        handle.join().expect("batch does not panic")
    });
    assert_eq!(run.counters.panics_contained, 0);
    for r in &run.records {
        match &r.outcome {
            JobOutcome::Unsolved { stop_reason } => assert_eq!(stop_reason, "cancelled"),
            JobOutcome::Skipped => {}
            other => panic!("{}: aborted batch produced {other:?}", r.name),
        }
    }
    assert!(
        run.counters.cancelled + run.counters.jobs_skipped == jobs.len() as u64,
        "every job either cancelled in flight or skipped"
    );
}

/// Hard 5-variable jobs under a starved node budget: the configured
/// tier-1 search cannot finish, so fallback behaviour is fully
/// exercised.
fn starved_workload(count: usize, seed: u64) -> Vec<Admission> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("starved{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(rmrls_spec::random_permutation(5, &mut rng)),
            })
        })
        .collect()
}

fn starved_options(workers: usize, cache: Option<usize>, fallback: bool) -> BatchOptions {
    BatchOptions {
        workers,
        cache_size: cache,
        fallback,
        synthesis: SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_nodes(20),
        ..BatchOptions::default()
    }
}

#[test]
fn fallback_off_leaves_starved_jobs_unsolved() {
    let jobs = starved_workload(4, 61);
    let run = run_batch(
        &jobs,
        &starved_options(2, None, false),
        &ShutdownHandles::new(),
    );
    assert_eq!(run.counters.jobs_unsolved, 4);
    assert_eq!(run.counters.jobs_completed, 0);
}

#[test]
fn fallback_ladder_leaves_nothing_unsolved() {
    let jobs = starved_workload(6, 61);
    let run = run_batch(
        &jobs,
        &starved_options(2, None, true),
        &ShutdownHandles::new(),
    );
    assert_eq!(run.counters.jobs_unsolved, 0, "fallback must be total");
    assert_eq!(run.counters.jobs_completed, 6);
    assert_eq!(run.counters.verified_ok, 6);
    assert_eq!(run.counters.verify_failures, 0);
    let c = &run.counters;
    assert_eq!(
        c.solved_by_rmrls + c.solved_by_relaxed + c.solved_by_mmd,
        6,
        "every solved job is attributed to exactly one tier"
    );
    assert!(
        c.solved_by_relaxed + c.solved_by_mmd > 0,
        "the starved tier 1 cannot have solved everything itself"
    );
    // solved_by is part of the JSONL stream and report.
    for line in run.results_jsonl().lines() {
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("solved"));
        let tier = parsed.get("solved_by").unwrap().as_str().unwrap();
        assert!(
            ["rmrls", "rmrls-relaxed", "mmd"].contains(&tier),
            "unknown tier {tier}"
        );
    }
    let report = run.report_json(&starved_options(2, None, true));
    let parsed = Json::parse(&report.to_string()).unwrap();
    assert_eq!(parsed.get("fallback").unwrap().as_bool(), Some(true));
    let counters = parsed.get("counters").unwrap();
    assert_eq!(
        counters.get("solved_by_mmd").unwrap().as_u64(),
        Some(c.solved_by_mmd)
    );
}

#[test]
fn fallback_results_are_deterministic_across_workers_and_cache() {
    let jobs = starved_workload(5, 71);
    let reference = run_batch(
        &jobs,
        &starved_options(1, None, true),
        &ShutdownHandles::new(),
    );
    for (workers, cache) in [(1, Some(64)), (4, None), (4, Some(64))] {
        let run = run_batch(
            &jobs,
            &starved_options(workers, cache, true),
            &ShutdownHandles::new(),
        );
        assert_eq!(
            run.results_jsonl(),
            reference.results_jsonl(),
            "tier attribution must not depend on workers={workers} cache={cache:?}"
        );
        assert_eq!(
            run.counters.solved_by_rmrls,
            reference.counters.solved_by_rmrls
        );
        assert_eq!(
            run.counters.solved_by_relaxed,
            reference.counters.solved_by_relaxed
        );
        assert_eq!(run.counters.solved_by_mmd, reference.counters.solved_by_mmd);
    }
}

#[test]
fn expired_deadline_still_solves_with_fallback() {
    // The never-fail guarantee for deadline-killed jobs: tiers 1 and 2
    // expire instantly, tier 3 (MMD) does not poll the clock and always
    // terminates.
    let mut rng = StdRng::seed_from_u64(23);
    let jobs: Vec<Admission> = (0..3)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("hard{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(rmrls_spec::random_permutation(6, &mut rng)),
            })
        })
        .collect();
    let options = BatchOptions {
        workers: 2,
        deadline: Some(Duration::from_millis(1)),
        cache_size: None,
        fallback: true,
        synthesis: SynthesisOptions::new().with_initial_dive(false),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &options, &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_unsolved, 0);
    assert_eq!(run.counters.solved_by_mmd, 3, "deadline forces tier 3");
    assert_eq!(run.counters.verified_ok, 3);
    assert_eq!(run.counters.verify_failures, 0);
}

#[test]
fn symbolic_pprm_specs_descend_the_ladder_too() {
    let mut rng = StdRng::seed_from_u64(91);
    let spec = rmrls_spec::random_permutation(5, &mut rng).to_multi_pprm();
    let jobs = vec![Admission::Job(BatchJob {
        name: "symbolic".to_string(),
        origin: "test".to_string(),
        spec: SpecData::Pprm(spec),
    })];
    let run = run_batch(
        &jobs,
        &starved_options(1, None, true),
        &ShutdownHandles::new(),
    );
    assert_eq!(run.counters.jobs_completed, 1);
    assert!(matches!(
        &run.records[0].outcome,
        JobOutcome::Solved {
            verified: Some(true),
            ..
        }
    ));
}

#[test]
fn non_reversible_pprm_stays_cleanly_unsolved_under_fallback() {
    // (x, y) -> (x, x) is not a permutation: the search can never reach
    // identity and MMD's precondition fails, so the ladder reports
    // unsolved instead of handing garbage to the baseline.
    let spec = MultiPprm::from_outputs(vec![rmrls_pprm::Pprm::var(0), rmrls_pprm::Pprm::var(0)], 2);
    let jobs = vec![Admission::Job(BatchJob {
        name: "non-reversible".to_string(),
        origin: "test".to_string(),
        spec: SpecData::Pprm(spec),
    })];
    let run = run_batch(
        &jobs,
        &starved_options(1, None, true),
        &ShutdownHandles::new(),
    );
    assert_eq!(run.counters.jobs_unsolved, 1);
    assert_eq!(run.counters.panics_contained, 0);
    assert!(matches!(
        &run.records[0].outcome,
        JobOutcome::Unsolved { .. }
    ));
}

#[test]
fn per_job_deadline_expires_cleanly() {
    let mut rng = StdRng::seed_from_u64(23);
    let jobs: Vec<Admission> = (0..3)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("hard{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(rmrls_spec::random_permutation(6, &mut rng)),
            })
        })
        .collect();
    let options = BatchOptions {
        workers: 2,
        deadline: Some(Duration::from_millis(30)),
        cache_size: Some(16),
        synthesis: SynthesisOptions::new().with_initial_dive(false),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &options, &ShutdownHandles::new());
    assert_eq!(run.counters.deadline_expired, 3);
    assert!(run.records.iter().all(
        |r| matches!(&r.outcome, JobOutcome::Unsolved { stop_reason }
            if stop_reason == "deadline expired")
    ));
}
