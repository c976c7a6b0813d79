//! Machine-readable run reports.
//!
//! One synthesis run — its options, search statistics, result summary
//! and optional observer metrics — serializes to a single
//! self-describing JSON object. The CLI's `--report FILE` flag and the
//! bench harness both emit this shape, so downstream tooling parses one
//! schema regardless of where a run happened. Schema changes bump
//! [`RUN_REPORT_SCHEMA_VERSION`] (the policy is documented in
//! DESIGN.md).

use rmrls_circuit::Circuit;
use rmrls_obs::{Json, MetricsSnapshot};

use crate::{FredkinMode, PriorityMode, Pruning, SearchStats, SynthesisOptions};

/// Version of the run-report JSON schema. Bumped whenever a field is
/// renamed, removed, or changes meaning; additions are backwards
/// compatible and do not bump it.
pub const RUN_REPORT_SCHEMA_VERSION: u64 = 7;

fn opt_uint<T: Into<u64>>(v: Option<T>) -> Json {
    v.map(|x| Json::uint(x.into())).unwrap_or(Json::Null)
}

/// Serializes the full option set, so a report identifies the exact
/// configuration that produced it.
pub fn options_to_json(options: &SynthesisOptions) -> Json {
    let pruning = match options.pruning {
        Pruning::Exhaustive => "exhaustive".to_string(),
        Pruning::TopK(k) => format!("top-{k}"),
        Pruning::Greedy => "greedy".to_string(),
    };
    let priority_mode = match options.priority_mode {
        PriorityMode::CumulativeRate => "cumulative-rate",
        PriorityMode::StepElim => "step-elim",
        PriorityMode::FewestTerms => "fewest-terms",
        PriorityMode::AStar => "astar",
    };
    let fredkin = match options.fredkin_substitutions {
        FredkinMode::Off => "off",
        FredkinMode::SwapOnly => "swap-only",
        FredkinMode::Full => "full",
    };
    Json::Obj(vec![
        (
            "weights".to_string(),
            Json::Obj(vec![
                ("alpha".to_string(), Json::Num(options.weights.alpha)),
                ("beta".to_string(), Json::Num(options.weights.beta)),
                ("gamma".to_string(), Json::Num(options.weights.gamma)),
            ]),
        ),
        ("priority_mode".to_string(), Json::str(priority_mode)),
        ("astar_weight".to_string(), Json::Num(options.astar_weight)),
        ("pruning".to_string(), Json::Str(pruning)),
        // Budget bounds are runtime handles (an Instant, a token), so
        // the report records only whether each was set.
        (
            "deadline_set".to_string(),
            Json::Bool(options.budget.deadline.is_some()),
        ),
        (
            "cancellable".to_string(),
            Json::Bool(options.budget.cancel.is_some()),
        ),
        (
            "max_gates".to_string(),
            opt_uint(options.max_gates.map(|g| g as u64)),
        ),
        ("max_nodes".to_string(), opt_uint(options.max_nodes)),
        (
            "max_queue".to_string(),
            opt_uint(options.max_queue.map(|q| q as u64)),
        ),
        ("restart_after".to_string(), opt_uint(options.restart_after)),
        (
            "additional_substitutions".to_string(),
            Json::Bool(options.additional_substitutions),
        ),
        ("fredkin_substitutions".to_string(), Json::str(fredkin)),
        ("dedup_states".to_string(), Json::Bool(options.dedup_states)),
        (
            "monotone_only".to_string(),
            Json::Bool(options.monotone_only),
        ),
        ("initial_dive".to_string(), Json::Bool(options.initial_dive)),
        (
            "stop_at_first".to_string(),
            Json::Bool(options.stop_at_first),
        ),
    ])
}

/// Serializes the search counters, timings and per-restart spans.
pub fn stats_to_json(stats: &SearchStats) -> Json {
    let spans: Vec<Json> = stats
        .restart_spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("ordinal".to_string(), Json::uint(s.ordinal)),
                ("nodes_expanded".to_string(), Json::uint(s.nodes_expanded)),
                ("seconds".to_string(), Json::Num(s.elapsed.as_secs_f64())),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "nodes_expanded".to_string(),
            Json::uint(stats.nodes_expanded),
        ),
        (
            "children_generated".to_string(),
            Json::uint(stats.children_generated),
        ),
        (
            "candidates_scored".to_string(),
            Json::uint(stats.candidates_scored),
        ),
        (
            "candidates_materialized".to_string(),
            Json::uint(stats.candidates_materialized),
        ),
        (
            "children_pushed".to_string(),
            Json::uint(stats.children_pushed),
        ),
        ("restarts".to_string(), Json::uint(stats.restarts)),
        (
            "solutions_seen".to_string(),
            Json::uint(stats.solutions_seen),
        ),
        ("depth_pruned".to_string(), Json::uint(stats.depth_pruned)),
        ("dedup_hits".to_string(), Json::uint(stats.dedup_hits)),
        (
            "dedup_collisions".to_string(),
            Json::uint(stats.dedup_collisions),
        ),
        ("beam_trims".to_string(), Json::uint(stats.beam_trims)),
        ("beam_dropped".to_string(), Json::uint(stats.beam_dropped)),
        ("queue_peak".to_string(), Json::uint(stats.queue_peak)),
        (
            "live_terms_peak".to_string(),
            Json::uint(stats.live_terms_peak),
        ),
        (
            "elapsed_seconds".to_string(),
            Json::Num(stats.elapsed.as_secs_f64()),
        ),
        (
            "stop_reason".to_string(),
            stats
                .stop_reason
                .map(|r| Json::Str(r.to_string()))
                .unwrap_or(Json::Null),
        ),
        ("restart_spans".to_string(), Json::Arr(spans)),
    ])
}

/// Builds the complete run report.
///
/// `circuit` is `None` when the search failed; `metrics` is `None` when
/// the run was not observed with a metrics registry. `events_dropped`
/// is the observer's sink-side drop count (zero for unobserved runs) —
/// reports never hide truncation.
pub fn run_report(
    options: &SynthesisOptions,
    stats: &SearchStats,
    circuit: Option<&Circuit>,
    metrics: Option<&MetricsSnapshot>,
    events_dropped: u64,
) -> Json {
    let circuit_json = match circuit {
        Some(c) => Json::Obj(vec![
            ("width".to_string(), Json::uint(c.width() as u64)),
            ("gates".to_string(), Json::uint(c.gate_count() as u64)),
            ("quantum_cost".to_string(), Json::uint(c.quantum_cost())),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        (
            "schema_version".to_string(),
            Json::uint(RUN_REPORT_SCHEMA_VERSION),
        ),
        ("tool".to_string(), Json::str("rmrls")),
        ("solved".to_string(), Json::Bool(circuit.is_some())),
        ("circuit".to_string(), circuit_json),
        ("options".to_string(), options_to_json(options)),
        ("stats".to_string(), stats_to_json(stats)),
        (
            "metrics".to_string(),
            metrics.map(MetricsSnapshot::to_json).unwrap_or(Json::Null),
        ),
        ("events_dropped".to_string(), Json::uint(events_dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_with_observer, Observer};
    use rmrls_pprm::MultiPprm;

    fn fig1() -> MultiPprm {
        MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3)
    }

    #[test]
    fn report_round_trips_through_text_and_matches_stats() {
        let options = crate::SynthesisOptions::new().with_max_nodes(50_000);
        let mut obs = Observer::null().with_metrics();
        let result = synthesize_with_observer(&fig1(), &options, &mut obs).expect("solution");
        let metrics = obs.metrics_snapshot().unwrap();
        let report = run_report(
            &options,
            &result.stats,
            Some(&result.circuit),
            Some(&metrics),
            obs.dropped_events(),
        );

        let text = report.to_string();
        let parsed = Json::parse(&text).expect("report is valid JSON");

        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("solved").unwrap().as_bool(), Some(true));
        let circuit = parsed.get("circuit").unwrap();
        assert_eq!(
            circuit.get("gates").unwrap().as_u64(),
            Some(result.circuit.gate_count() as u64)
        );
        let stats = parsed.get("stats").unwrap();
        for (field, expected) in [
            ("nodes_expanded", result.stats.nodes_expanded),
            ("children_pushed", result.stats.children_pushed),
            ("candidates_scored", result.stats.candidates_scored),
            (
                "candidates_materialized",
                result.stats.candidates_materialized,
            ),
            ("restarts", result.stats.restarts),
            ("dedup_hits", result.stats.dedup_hits),
            ("queue_peak", result.stats.queue_peak),
        ] {
            assert_eq!(
                stats.get(field).unwrap().as_u64(),
                Some(expected),
                "field {field}"
            );
        }
        // The two-phase kernel must have skipped some materializations.
        assert!(
            result.stats.candidates_materialized < result.stats.candidates_scored,
            "materialized {} !< scored {}",
            result.stats.candidates_materialized,
            result.stats.candidates_scored
        );
        // One restart span per segment; at minimum the closing segment.
        let spans = stats.get("restart_spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), result.stats.restart_spans.len());
        assert_eq!(spans.len() as u64, result.stats.restarts + 1);
        // Metrics present with the expected instruments.
        let metrics_json = parsed.get("metrics").unwrap();
        assert!(metrics_json.get("histograms").is_some());
        assert_eq!(parsed.get("events_dropped").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn failed_run_reports_null_circuit() {
        let options = crate::SynthesisOptions::new().with_max_gates(1);
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let err = crate::synthesize(&spec, &options).unwrap_err();
        let report = run_report(&options, &err.stats, None, None, 0);
        let parsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(parsed.get("solved").unwrap().as_bool(), Some(false));
        assert!(matches!(parsed.get("circuit"), Some(Json::Null)));
        assert!(matches!(parsed.get("metrics"), Some(Json::Null)));
    }

    #[test]
    fn options_json_reflects_configuration() {
        let options = crate::SynthesisOptions::new()
            .with_pruning(crate::Pruning::TopK(4))
            .with_max_gates(40);
        let json = options_to_json(&options);
        assert_eq!(json.get("pruning").unwrap().as_str(), Some("top-4"));
        assert_eq!(json.get("max_gates").unwrap().as_u64(), Some(40));
        // Schema version 2 dropped the intra-job parallel search keys,
        // version 4 the phase profile.
        assert!(json.get("threads").is_none());
        assert!(json.get("profile").is_none());
        let stats = stats_to_json(&crate::synthesize(&fig1(), &options).unwrap().stats);
        for removed in [
            "threads_used",
            "spec_hits",
            "spec_misses",
            "steals",
            "shard_contention_retries",
            "dup_races_lost",
            "shared_seen_hits",
            "spec_scored_wasted",
            "spec_materialized_wasted",
            "profile",
        ] {
            assert!(stats.get(removed).is_none(), "stats.{removed} is gone");
        }
        assert_eq!(json.get("priority_mode").unwrap().as_str(), Some("astar"));
    }
}
