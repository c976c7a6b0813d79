//! Search observation: streams structured events to an
//! [`EventSink`](rmrls_obs::EventSink) and aggregates metrics while a
//! search runs.
//!
//! The search loop calls the `on_*` hooks unconditionally; every hook
//! makes an `is_active` check first, so the default
//! [`Observer::null()`] costs one predictable branch per call site and
//! nothing else (verified by the `micro` bench in `rmrls-bench`).
//! Events reach the sink as builders
//! ([`EventSink::emit_with`](rmrls_obs::EventSink::emit_with)), so a
//! bounded sink that is already full never pays for building one.
//! Cheap always-on counters (pops, pushes, prunes, dedup hits, queue
//! peak) live directly in [`SearchStats`](crate::SearchStats); the
//! observer adds what those cannot express — histograms, gauges, and a
//! streamed event log.

use std::time::Duration;

use rmrls_circuit::Gate;
use rmrls_obs::{
    Event, EventSink, FlightRecorder, HistogramSnapshot, MetricsSnapshot, NullSink, TraceKind,
    Value,
};

/// One in `EXPAND_SAMPLE_INTERVAL` node expansions is written to the
/// flight recorder; recording every expansion would churn the ring and
/// cost a timestamp per node on million-node runs.
const EXPAND_SAMPLE_INTERVAL: u64 = 64;

/// Bucket bounds for the Eq. 4 priority histogram. Priorities are
/// negative under the default A* mode (lower = deeper/worse), positive
/// under the paper's Eq. 4 modes; the range covers both.
const PRIORITY_BOUNDS: [f64; 12] = [
    -100.0, -50.0, -20.0, -10.0, -5.0, -2.0, 0.0, 1.0, 2.0, 5.0, 10.0, 20.0,
];

/// Bucket bounds for the terms-remaining histogram (PPRM term counts
/// grow roughly exponentially with width).
const TERMS_BOUNDS: [f64; 11] = [
    2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
];

/// A periodic progress snapshot, produced every
/// `TIME_CHECK_INTERVAL` popped nodes.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Nodes expanded so far.
    pub nodes_expanded: u64,
    /// Current priority-queue depth.
    pub queue_depth: usize,
    /// Gate count of the best solution so far, if any.
    pub best_gates: Option<u32>,
    /// Restarts performed so far.
    pub restarts: u64,
    /// Predicted PPRM terms across the queued children: the size of
    /// the search frontier.
    pub live_terms: u64,
    /// Wall-clock time since the search started.
    pub elapsed: Duration,
}

/// The metrics a run records. The search owns its observer and every
/// hook takes `&mut self`, so plain values need no registry.
struct ObserverMetrics {
    push_priority: HistogramSnapshot,
    terms_remaining: HistogramSnapshot,
    /// `(value, high_water)` of the queue-depth gauge.
    queue_depth: (i64, i64),
    candidates_scored: u64,
    candidates_materialized: u64,
}

impl ObserverMetrics {
    fn new() -> ObserverMetrics {
        ObserverMetrics {
            push_priority: HistogramSnapshot::new(&PRIORITY_BOUNDS),
            terms_remaining: HistogramSnapshot::new(&TERMS_BOUNDS),
            queue_depth: (0, 0),
            candidates_scored: 0,
            candidates_materialized: 0,
        }
    }

    fn set_queue_depth(&mut self, depth: usize) {
        let depth = depth as i64;
        self.queue_depth = (depth, self.queue_depth.1.max(depth));
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let (depth, high_water) = self.queue_depth;
        MetricsSnapshot {
            counters: vec![
                ("candidates_scored".into(), self.candidates_scored),
                (
                    "candidates_materialized".into(),
                    self.candidates_materialized,
                ),
            ],
            gauges: vec![("queue_depth".into(), depth, high_water)],
            histograms: vec![
                ("push_priority".into(), self.push_priority.clone()),
                ("terms_remaining".into(), self.terms_remaining.clone()),
            ],
        }
    }
}

/// Collects events and metrics for one synthesis run.
///
/// Construct with [`Observer::null()`] (no overhead, the default used
/// by [`synthesize`](crate::synthesize)), or build an instrumented one:
///
/// ```
/// use rmrls_core::{synthesize_with_observer, Observer, SynthesisOptions};
/// use rmrls_obs::MemorySink;
/// use rmrls_pprm::MultiPprm;
///
/// let spec = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
/// let mut obs = Observer::with_sink(Box::new(MemorySink::new(1024))).with_metrics();
/// let result = synthesize_with_observer(&spec, &SynthesisOptions::new(), &mut obs)?;
/// let metrics = obs.metrics_snapshot().expect("metrics enabled");
/// assert_eq!(metrics.counter("candidates_scored"), Some(result.stats.candidates_scored));
/// assert_eq!(result.circuit.gate_count(), 3);
/// # Ok::<(), rmrls_core::NoSolutionError>(())
/// ```
pub struct Observer {
    sink: Box<dyn EventSink>,
    sink_enabled: bool,
    metrics: Option<ObserverMetrics>,
    progress_fn: Option<ProgressFn>,
    recorder: Option<FlightRecorder>,
    expand_count: u64,
    active: bool,
}

/// Callback invoked on every progress snapshot; see
/// [`Observer::with_progress`].
pub type ProgressFn = Box<dyn FnMut(&Progress)>;

impl Observer {
    /// The zero-overhead observer: no sink, no metrics, no progress.
    pub fn null() -> Observer {
        Observer {
            sink: Box::new(NullSink),
            sink_enabled: false,
            metrics: None,
            progress_fn: None,
            recorder: None,
            expand_count: 0,
            active: false,
        }
    }

    /// An observer streaming events into `sink`.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Observer {
        let sink_enabled = sink.enabled();
        Observer {
            sink,
            sink_enabled,
            metrics: None,
            progress_fn: None,
            recorder: None,
            expand_count: 0,
            active: sink_enabled,
        }
    }

    /// Enables metrics: the priority and terms histograms, the
    /// queue-depth gauge and the candidate counters.
    pub fn with_metrics(mut self) -> Observer {
        self.metrics = Some(ObserverMetrics::new());
        self.active = true;
        self
    }

    /// Registers a callback invoked on every progress snapshot.
    pub fn with_progress(mut self, f: ProgressFn) -> Observer {
        self.progress_fn = Some(f);
        self.active = true;
        self
    }

    /// Attaches a flight recorder. The recorder is a cheap `Rc` handle,
    /// so the caller keeps a clone and snapshots it after (or during)
    /// the run; the search writes sampled expansions, gauges, and
    /// anomaly records into it.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Observer {
        self.recorder = Some(recorder);
        self.active = true;
        self
    }

    /// The attached flight recorder, if any. The search loop records
    /// anomalies (deadline expiry, cancellation) through
    /// this handle.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Whether any instrumentation is attached. The search loop guards
    /// each hook with this.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Events the sink could not keep (never silently lost).
    pub fn dropped_events(&self) -> u64 {
        self.sink.dropped_events()
    }

    /// Freezes the metrics, if enabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(ObserverMetrics::snapshot)
    }

    /// Emits a caller-constructed event (used by the embedding layer
    /// for attribution events).
    pub fn emit(&mut self, event: Event) {
        if self.sink_enabled {
            self.sink.emit(event);
        }
    }

    pub(crate) fn on_run_start(&mut self, num_vars: usize, init_terms: usize) {
        if let Some(r) = &self.recorder {
            r.phase_enter("search");
        }
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "run_start",
                    vec![
                        ("vars", Value::from(num_vars)),
                        ("terms", Value::from(init_terms)),
                    ],
                )
            });
        }
    }

    pub(crate) fn on_expand(&mut self, depth: u32, terms: usize) {
        if let Some(r) = &self.recorder {
            if self.expand_count.is_multiple_of(EXPAND_SAMPLE_INTERVAL) {
                r.record(TraceKind::Expand {
                    depth,
                    terms: terms as u64,
                });
            }
            self.expand_count += 1;
        }
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "expand",
                    vec![("depth", Value::from(depth)), ("terms", Value::from(terms))],
                )
            });
        }
        if let Some(m) = &mut self.metrics {
            m.terms_remaining.record(terms as f64);
        }
    }

    pub(crate) fn on_push(
        &mut self,
        gate: Gate,
        depth: u32,
        eliminated: i64,
        priority: f64,
        terms: usize,
        queue_depth: usize,
    ) {
        if let Some(m) = &mut self.metrics {
            m.push_priority.record(priority);
            m.terms_remaining.record(terms as f64);
            m.set_queue_depth(queue_depth);
        }
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "push",
                    vec![
                        ("gate", Value::from(gate.to_string())),
                        ("depth", Value::from(depth)),
                        ("eliminated", Value::Int(eliminated)),
                        ("priority", Value::from(priority)),
                        ("terms", Value::from(terms)),
                    ],
                )
            });
        }
    }

    pub(crate) fn on_solution(&mut self, depth: u32, improved: bool) {
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "solution",
                    vec![
                        ("depth", Value::from(depth)),
                        ("improved", Value::from(improved)),
                    ],
                )
            });
        }
    }

    pub(crate) fn on_restart(&mut self, ordinal: u64, segment_nodes: u64, segment: Duration) {
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "restart",
                    vec![
                        ("ordinal", Value::from(ordinal)),
                        ("segment_nodes", Value::from(segment_nodes)),
                        ("segment_seconds", Value::from(segment.as_secs_f64())),
                    ],
                )
            });
        }
    }

    pub(crate) fn on_progress(&mut self, progress: &Progress) {
        if let Some(r) = &self.recorder {
            r.gauge("queue_depth", progress.queue_depth as i64);
        }
        if let Some(m) = &mut self.metrics {
            m.set_queue_depth(progress.queue_depth);
        }
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "progress",
                    vec![
                        ("nodes", Value::from(progress.nodes_expanded)),
                        ("queue", Value::from(progress.queue_depth)),
                        (
                            "best_gates",
                            match progress.best_gates {
                                Some(g) => Value::from(g),
                                None => Value::Int(-1),
                            },
                        ),
                        ("restarts", Value::from(progress.restarts)),
                        ("seconds", Value::from(progress.elapsed.as_secs_f64())),
                    ],
                )
            });
        }
        if let Some(f) = &mut self.progress_fn {
            f(progress);
        }
    }

    /// Records the final scored/materialized totals of the two-phase
    /// expansion kernel. Called once, at the end of the run — the search
    /// loop keeps these as plain `SearchStats` counters rather than
    /// paying a hook per candidate.
    pub(crate) fn on_candidate_totals(&mut self, scored: u64, materialized: u64) {
        if let Some(m) = &mut self.metrics {
            m.candidates_scored += scored;
            m.candidates_materialized += materialized;
        }
    }

    pub(crate) fn on_run_end(&mut self, stop_reason: &str, nodes: u64, gates: Option<u32>) {
        if let Some(r) = &self.recorder {
            r.phase_exit("search");
        }
        if self.sink_enabled {
            self.sink.emit_with(&mut || {
                Event::new(
                    "run_end",
                    vec![
                        ("stop_reason", Value::from(stop_reason)),
                        ("nodes", Value::from(nodes)),
                        (
                            "gates",
                            match gates {
                                Some(g) => Value::from(g),
                                None => Value::Int(-1),
                            },
                        ),
                    ],
                )
            });
        }
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("active", &self.active)
            .field("sink_enabled", &self.sink_enabled)
            .field("metrics", &self.metrics.is_some())
            .field("progress_fn", &self.progress_fn.is_some())
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmrls_obs::MemorySink;

    #[test]
    fn null_observer_is_inactive() {
        let obs = Observer::null();
        assert!(!obs.is_active());
        assert_eq!(obs.dropped_events(), 0);
        assert!(obs.metrics_snapshot().is_none());
    }

    #[test]
    fn metrics_only_observer_records_histograms_without_sink() {
        let mut obs = Observer::null().with_metrics();
        assert!(obs.is_active());
        obs.on_push(Gate::not(0), 1, 2, 0.5, 7, 9);
        obs.on_push(Gate::not(0), 1, 2, 0.5, 7, 3);
        obs.on_expand(1, 7);
        let snap = obs.metrics_snapshot().unwrap();
        let (_, priority) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "push_priority")
            .unwrap();
        assert_eq!(priority.count, 2);
        let (_, terms) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "terms_remaining")
            .unwrap();
        assert_eq!(terms.count, 3);
        let (_, depth, high) = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "queue_depth")
            .cloned()
            .unwrap();
        assert_eq!((depth, high), (3, 9));
    }

    #[test]
    fn sink_observer_streams_events() {
        let mut obs = Observer::with_sink(Box::new(MemorySink::new(16)));
        obs.on_run_start(3, 9);
        obs.on_solution(3, true);
        obs.on_run_end("first solution", 5, Some(3));
        // The sink is type-erased; verify via drop count (none) and the
        // metrics-free state.
        assert!(obs.is_active());
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn recorder_observer_samples_expansions_and_brackets_the_run() {
        let rec = FlightRecorder::with_default_budget();
        let mut obs = Observer::null().with_recorder(rec.clone());
        assert!(obs.is_active());
        assert!(obs.recorder().is_some());
        obs.on_run_start(3, 9);
        for _ in 0..(2 * EXPAND_SAMPLE_INTERVAL) {
            obs.on_expand(1, 9);
        }
        obs.on_progress(&Progress {
            nodes_expanded: 128,
            queue_depth: 17,
            best_gates: None,
            restarts: 0,
            live_terms: 40,
            elapsed: Duration::from_millis(1),
        });
        obs.on_run_end("first solution", 128, Some(3));

        let snap = rec.snapshot();
        let expands = snap
            .records
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Expand { .. }))
            .count();
        assert_eq!(
            expands, 2,
            "one sample per {EXPAND_SAMPLE_INTERVAL} expansions"
        );
        assert!(matches!(
            &snap.records.first().unwrap().kind,
            TraceKind::PhaseEnter { phase } if phase == "search"
        ));
        assert!(matches!(
            &snap.records.last().unwrap().kind,
            TraceKind::PhaseExit { phase } if phase == "search"
        ));
        assert!(snap.records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::Gauge { name, value: 17 } if name == "queue_depth"
        )));
    }

    #[test]
    fn progress_callback_fires() {
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let c2 = count.clone();
        let mut obs = Observer::null().with_progress(Box::new(move |p| {
            assert_eq!(p.nodes_expanded, 256);
            c2.set(c2.get() + 1);
        }));
        obs.on_progress(&Progress {
            nodes_expanded: 256,
            queue_depth: 10,
            best_gates: None,
            restarts: 0,
            live_terms: 12,
            elapsed: Duration::from_millis(5),
        });
        assert_eq!(count.get(), 1);
    }
}
