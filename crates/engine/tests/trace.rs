//! Integration tests for the batch flight recorder: per-job trace
//! dumps, anomaly dumps on fallback escalation, and the
//! no-perturbation guarantee (tracing must not change results).

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_core::{Pruning, SynthesisOptions};
use rmrls_engine::manifest::{Admission, BatchJob, SpecData};
use rmrls_engine::{run_batch, BatchOptions, JobOutcome, ShutdownHandles, SolveTier};
use rmrls_obs::{Json, RecorderSnapshot, TraceKind};

fn workload(count: usize, vars: usize, seed: u64) -> Vec<Admission> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            Admission::Job(BatchJob {
                name: format!("job{i}"),
                origin: "test".to_string(),
                spec: SpecData::Perm(rmrls_spec::random_permutation(vars, &mut rng)),
            })
        })
        .collect()
}

/// A fresh per-test trace directory under the system temp dir.
fn trace_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmrls-trace-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_dump(path: &PathBuf) -> (Json, RecorderSnapshot) {
    let text = std::fs::read_to_string(path).unwrap();
    let json = Json::parse(&text).expect("dump is valid JSON");
    let snapshot = RecorderSnapshot::from_json(&json).expect("dump parses as a trace snapshot");
    (json, snapshot)
}

#[test]
fn trace_dir_writes_one_parseable_dump_per_job() {
    let dir = trace_dir("per-job");
    let jobs = workload(3, 3, 11);
    let opts = BatchOptions {
        cache_size: Some(16),
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_completed, 3);
    assert_eq!(run.counters.trace_write_errors, 0);
    for (i, record) in run.records.iter().enumerate() {
        let path = dir.join(format!("{i:04}-{}.trace.json", record.name));
        let (json, snapshot) = read_dump(&path);
        // The dump names its job without relying on the filename.
        assert_eq!(
            json.get("job").unwrap().as_str(),
            Some(record.name.as_str())
        );
        // Every job's trace brackets the engine "job" phase around the
        // search's own "search" phase.
        let phases: Vec<&str> = snapshot
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                TraceKind::PhaseEnter { phase } => Some(phase.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(phases.first(), Some(&"job"), "{}", record.name);
        assert!(phases.contains(&"search"), "{}", record.name);
        // A cache-enabled batch records every lookup.
        assert!(snapshot
            .records
            .iter()
            .any(|r| matches!(r.kind, TraceKind::CacheLookup { .. })));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fallback_escalation_produces_an_anomaly_dump_naming_the_trigger() {
    let dir = trace_dir("escalation");
    // A starved tier-1 budget forces the ladder to descend.
    let jobs = workload(2, 5, 61);
    let opts = BatchOptions {
        cache_size: None,
        fallback: true,
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        synthesis: SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_nodes(20),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_unsolved, 0, "fallback is total");
    assert!(
        run.counters.anomaly_dumps > 0,
        "escalated jobs must dump: {:?}",
        run.counters
    );
    let mut anomaly_files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.to_str().unwrap().ends_with(".anomaly.json") {
            continue;
        }
        anomaly_files += 1;
        let (json, snapshot) = read_dump(&path);
        assert_eq!(
            json.get("trigger").unwrap().as_str(),
            Some("tier_escalation")
        );
        assert!(snapshot.anomalies > 0);
        // The trailing records name the failing site.
        assert!(snapshot.records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::Anomaly { kind, site }
                if kind == "tier_escalation" && site == "engine/ladder"
        )));
        assert!(snapshot
            .records
            .iter()
            .any(|r| matches!(&r.kind, TraceKind::TierEscalate { from, .. } if from == "rmrls")));
    }
    assert_eq!(anomaly_files as u64, run.counters.anomaly_dumps);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `search` phase spans and the tier escalations (from, to) in a
/// job's dump.
fn ladder_shape(snapshot: &RecorderSnapshot) -> (usize, Vec<(String, String)>) {
    let searches = snapshot
        .records
        .iter()
        .filter(|r| matches!(&r.kind, TraceKind::PhaseEnter { phase } if phase == "search"))
        .count();
    let escalations = snapshot
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            TraceKind::TierEscalate { from, to } => Some((from.clone(), to.clone())),
            _ => None,
        })
        .collect();
    (searches, escalations)
}

/// Runs five 5-wire permutations down the fallback ladder with a
/// starved tier 1, returning each MMD-solved job's ladder shape.
fn mmd_ladder_shapes(
    tag: &str,
    synthesis: SynthesisOptions,
) -> Vec<(usize, Vec<(String, String)>)> {
    let dir = trace_dir(tag);
    let jobs = workload(5, 5, 83);
    let opts = BatchOptions {
        cache_size: None,
        fallback: true,
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        synthesis: synthesis.with_initial_dive(false).with_max_nodes(20),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(run.counters.jobs_unsolved, 0, "fallback is total");
    let mut shapes = Vec::new();
    for (i, record) in run.records.iter().enumerate() {
        if !matches!(
            record.outcome,
            JobOutcome::Solved {
                solved_by: SolveTier::Mmd,
                ..
            }
        ) {
            continue;
        }
        let (_, snapshot) = read_dump(&dir.join(format!("{i:04}-{}.trace.json", record.name)));
        shapes.push(ladder_shape(&snapshot));
    }
    assert!(!shapes.is_empty(), "no job reached the MMD tier");
    let _ = std::fs::remove_dir_all(&dir);
    shapes
}

#[test]
fn a_greedy_ladder_job_searches_once_and_escalates_straight_to_mmd() {
    // The relaxed tier would replay a greedy first-solution tier 1
    // exactly, so the ladder skips it.
    let greedy = SynthesisOptions::new()
        .with_pruning(Pruning::Greedy)
        .with_stop_at_first(true);
    let mmd = ("rmrls".to_string(), "mmd".to_string());
    for shape in mmd_ladder_shapes("greedy-ladder", greedy) {
        assert_eq!(shape, (1, vec![mmd.clone()]));
    }
}

#[test]
fn a_top4_ladder_job_still_runs_the_relaxed_tier() {
    let top4 = SynthesisOptions::new().with_pruning(Pruning::TopK(4));
    let steps = vec![
        ("rmrls".to_string(), "rmrls-relaxed".to_string()),
        ("rmrls-relaxed".to_string(), "mmd".to_string()),
    ];
    for shape in mmd_ladder_shapes("top4-ladder", top4) {
        assert_eq!(shape, (2, steps.clone()));
    }
}

#[test]
fn tracing_does_not_change_results() {
    let dir = trace_dir("no-perturb");
    let jobs = workload(4, 4, 29);
    let plain = BatchOptions {
        cache_size: Some(16),
        ..BatchOptions::default()
    };
    let traced = BatchOptions {
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..plain.clone()
    };
    let reference = run_batch(&jobs, &plain, &ShutdownHandles::new());
    let observed = run_batch(&jobs, &traced, &ShutdownHandles::new());
    assert_eq!(
        observed.results_jsonl(),
        reference.results_jsonl(),
        "the recorder must not perturb the search"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_job_names_become_safe_filenames() {
    let dir = trace_dir("hostile-names");
    let jobs = vec![Admission::Job(BatchJob {
        name: "../../etc/passwd x".to_string(),
        origin: "test".to_string(),
        spec: SpecData::Perm(rmrls_spec::Permutation::from_vec(vec![1, 0, 3, 2]).unwrap()),
    })];
    let opts = BatchOptions {
        cache_size: None,
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..BatchOptions::default()
    };
    let run = run_batch(&jobs, &opts, &ShutdownHandles::new());
    assert_eq!(run.counters.trace_write_errors, 0);
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries.len(), 1, "dump stays inside the trace dir");
    assert_eq!(entries[0], "0000-.._.._etc_passwd_x.trace.json");
    let _ = std::fs::remove_dir_all(&dir);
}
