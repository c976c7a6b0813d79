//! Bounded flight recorder for search runs.
//!
//! A [`FlightRecorder`] keeps the most recent trace records inside a
//! byte budget, like an aircraft flight recorder: the run streams
//! typed, timestamped records into the ring, old records scroll off
//! (counted, never silent), and when something anomalous happens —
//! fallback escalation, deadline expiry, panic isolation —
//! the whole ring is snapshot and dumped, giving a post-mortem the last
//! N events *leading up to* the anomaly rather than just end-of-run
//! counters.
//!
//! The recorder is `Clone` over a shared `Rc<RefCell<..>>` handle so a
//! job driver can keep one handle across `catch_unwind` while the
//! search holds another; a search run is serial, so `Rc` is the right
//! tool.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// Schema version stamped into trace dumps.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Default recorder byte budget (per job): enough for tens of
/// thousands of records, small enough to never matter next to the
/// search queue.
pub const DEFAULT_TRACE_BYTES: usize = 1 << 20;

/// What happened, as recorded in the ring.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// A structural phase began (`"job"`, `"search"`).
    PhaseEnter {
        /// Phase name.
        phase: String,
    },
    /// The matching phase ended.
    PhaseExit {
        /// Phase name.
        phase: String,
    },
    /// A sampled node expansion.
    Expand {
        /// Depth of the expanded node.
        depth: u32,
        /// PPRM terms remaining at that node.
        terms: u64,
    },
    /// An instantaneous gauge sample (`"queue_depth"`, `"live_terms"`).
    Gauge {
        /// Gauge name.
        name: String,
        /// Sampled value.
        value: i64,
    },
    /// A result-cache lookup.
    CacheLookup {
        /// Whether the canonical form was already cached.
        hit: bool,
    },
    /// The fallback ladder escalated between solver tiers.
    TierEscalate {
        /// Tier that failed.
        from: String,
        /// Tier being tried next.
        to: String,
    },
    /// Something worth a dump: deadline expiry, cancellation, a
    /// contained panic, or an injected fault. `site` names where it
    /// happened.
    Anomaly {
        /// Anomaly class (`"deadline_expired"`, `"cancelled"`,
        /// `"fallback_escalation"`, `"panic"`, `"injected_fault"`, ...).
        kind: String,
        /// Code site or failpoint that triggered it.
        site: String,
    },
}

impl TraceKind {
    /// Stable tag used in the JSON encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceKind::PhaseEnter { .. } => "phase_enter",
            TraceKind::PhaseExit { .. } => "phase_exit",
            TraceKind::Expand { .. } => "expand",
            TraceKind::Gauge { .. } => "gauge",
            TraceKind::CacheLookup { .. } => "cache_lookup",
            TraceKind::TierEscalate { .. } => "tier_escalate",
            TraceKind::Anomaly { .. } => "anomaly",
        }
    }
}

/// One timestamped ring entry.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the recorder started.
    pub ts_micros: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceRecord {
    /// Approximate in-ring footprint, charged against the byte budget.
    /// A flat struct cost plus owned string payloads — deliberately a
    /// little pessimistic so the budget is a real ceiling.
    pub fn approx_bytes(&self) -> usize {
        let strings = match &self.kind {
            TraceKind::PhaseEnter { phase } | TraceKind::PhaseExit { phase } => phase.len(),
            TraceKind::Gauge { name, .. } => name.len(),
            TraceKind::TierEscalate { from, to } => from.len() + to.len(),
            TraceKind::Anomaly { kind, site } => kind.len() + site.len(),
            TraceKind::Expand { .. } | TraceKind::CacheLookup { .. } => 0,
        };
        64 + strings
    }

    /// Serializes as a flat object: `{"ts_micros":..,"kind":..,...}`.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("ts_micros".to_string(), Json::uint(self.ts_micros)),
            ("kind".to_string(), Json::str(self.kind.tag())),
        ];
        match &self.kind {
            TraceKind::PhaseEnter { phase } | TraceKind::PhaseExit { phase } => {
                obj.push(("phase".into(), Json::str(phase)));
            }
            TraceKind::Expand { depth, terms } => {
                obj.push(("depth".into(), Json::uint(u64::from(*depth))));
                obj.push(("terms".into(), Json::uint(*terms)));
            }
            TraceKind::Gauge { name, value } => {
                obj.push(("name".into(), Json::str(name)));
                obj.push(("value".into(), Json::Num(*value as f64)));
            }
            TraceKind::CacheLookup { hit } => {
                obj.push(("hit".into(), Json::Bool(*hit)));
            }
            TraceKind::TierEscalate { from, to } => {
                obj.push(("from".into(), Json::str(from)));
                obj.push(("to".into(), Json::str(to)));
            }
            TraceKind::Anomaly { kind, site } => {
                obj.push(("anomaly".into(), Json::str(kind)));
                obj.push(("site".into(), Json::str(site)));
            }
        }
        Json::Obj(obj)
    }

    /// Parses the [`TraceRecord::to_json`] shape back.
    pub fn from_json(json: &Json) -> Option<TraceRecord> {
        let ts_micros = json.get("ts_micros")?.as_u64()?;
        let tag = json.get("kind")?.as_str()?;
        let str_field = |name: &str| -> Option<String> {
            json.get(name).and_then(Json::as_str).map(str::to_string)
        };
        let kind = match tag {
            "phase_enter" => TraceKind::PhaseEnter {
                phase: str_field("phase")?,
            },
            "phase_exit" => TraceKind::PhaseExit {
                phase: str_field("phase")?,
            },
            "expand" => TraceKind::Expand {
                depth: u32::try_from(json.get("depth")?.as_u64()?).ok()?,
                terms: json.get("terms")?.as_u64()?,
            },
            "gauge" => TraceKind::Gauge {
                name: str_field("name")?,
                value: json.get("value")?.as_f64()? as i64,
            },
            "cache_lookup" => TraceKind::CacheLookup {
                hit: json.get("hit")?.as_bool()?,
            },
            "tier_escalate" => TraceKind::TierEscalate {
                from: str_field("from")?,
                to: str_field("to")?,
            },
            "anomaly" => TraceKind::Anomaly {
                kind: str_field("anomaly")?,
                site: str_field("site")?,
            },
            _ => return None,
        };
        Some(TraceRecord { ts_micros, kind })
    }
}

#[derive(Debug)]
struct RecorderInner {
    start: Instant,
    byte_budget: usize,
    bytes_used: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
    anomalies: u64,
}

/// A byte-budgeted ring of [`TraceRecord`]s.
///
/// Cloning is cheap and shares the ring: the engine keeps one handle
/// for dump-on-anomaly while the search writes through another.
#[derive(Clone, Debug)]
pub struct FlightRecorder(Rc<RefCell<RecorderInner>>);

impl FlightRecorder {
    /// A recorder whose ring never exceeds `byte_budget` approximate
    /// bytes (per [`TraceRecord::approx_bytes`]). Oldest records are
    /// evicted (and counted) to admit new ones; a record larger than
    /// the whole budget is itself dropped.
    pub fn new(byte_budget: usize) -> FlightRecorder {
        FlightRecorder(Rc::new(RefCell::new(RecorderInner {
            start: Instant::now(),
            byte_budget,
            bytes_used: 0,
            records: VecDeque::new(),
            dropped: 0,
            anomalies: 0,
        })))
    }

    /// A recorder with the default byte budget.
    pub fn with_default_budget() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_TRACE_BYTES)
    }

    /// Appends a record stamped with the current recorder-relative
    /// timestamp.
    pub fn record(&self, kind: TraceKind) {
        let mut inner = self.0.borrow_mut();
        let ts_micros = inner.start.elapsed().as_micros() as u64;
        if matches!(kind, TraceKind::Anomaly { .. }) {
            inner.anomalies += 1;
        }
        let record = TraceRecord { ts_micros, kind };
        let cost = record.approx_bytes();
        if cost > inner.byte_budget {
            inner.dropped += 1;
            return;
        }
        while inner.bytes_used + cost > inner.byte_budget {
            match inner.records.pop_front() {
                Some(old) => {
                    inner.bytes_used -= old.approx_bytes();
                    inner.dropped += 1;
                }
                None => break,
            }
        }
        inner.bytes_used += cost;
        inner.records.push_back(record);
    }

    /// Records a [`TraceKind::PhaseEnter`].
    pub fn phase_enter(&self, phase: &str) {
        self.record(TraceKind::PhaseEnter {
            phase: phase.to_string(),
        });
    }

    /// Records a [`TraceKind::PhaseExit`].
    pub fn phase_exit(&self, phase: &str) {
        self.record(TraceKind::PhaseExit {
            phase: phase.to_string(),
        });
    }

    /// Records a [`TraceKind::Gauge`] sample.
    pub fn gauge(&self, name: &str, value: i64) {
        self.record(TraceKind::Gauge {
            name: name.to_string(),
            value,
        });
    }

    /// Records a [`TraceKind::Anomaly`].
    pub fn anomaly(&self, kind: &str, site: &str) {
        self.record(TraceKind::Anomaly {
            kind: kind.to_string(),
            site: site.to_string(),
        });
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.0.borrow().records.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().records.is_empty()
    }

    /// Records evicted or refused so far.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Approximate bytes currently held (always ≤ the budget).
    pub fn bytes_used(&self) -> usize {
        self.0.borrow().bytes_used
    }

    /// Anomaly records seen over the recorder's lifetime (evicted
    /// anomalies still count — a dump trigger is never forgotten).
    pub fn anomalies(&self) -> u64 {
        self.0.borrow().anomalies
    }

    /// Whether any anomaly was recorded.
    pub fn has_anomaly(&self) -> bool {
        self.anomalies() > 0
    }

    /// Freezes the ring into an exportable snapshot.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let inner = self.0.borrow();
        RecorderSnapshot {
            records: inner.records.iter().cloned().collect(),
            dropped: inner.dropped,
            anomalies: inner.anomalies,
            byte_budget: inner.byte_budget,
            bytes_used: inner.bytes_used,
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_default_budget()
    }
}

/// A frozen recorder ring, ready for export or dump.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecorderSnapshot {
    /// Retained records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records evicted or refused before the snapshot.
    pub dropped: u64,
    /// Anomaly records seen over the recorder's lifetime.
    pub anomalies: u64,
    /// The ring's byte budget.
    pub byte_budget: usize,
    /// Approximate bytes the retained records occupy.
    pub bytes_used: usize,
}

impl RecorderSnapshot {
    /// Serializes as a self-describing trace dump.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::uint(TRACE_SCHEMA_VERSION)),
            ("tool".into(), Json::str("rmrls-trace")),
            ("byte_budget".into(), Json::uint(self.byte_budget as u64)),
            ("bytes_used".into(), Json::uint(self.bytes_used as u64)),
            ("dropped_records".into(), Json::uint(self.dropped)),
            ("anomalies".into(), Json::uint(self.anomalies)),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(TraceRecord::to_json).collect()),
            ),
        ])
    }

    /// Parses a trace dump written by [`RecorderSnapshot::to_json`].
    /// Tolerates extra fields (dumps embed job context); fails on a
    /// missing/mismatched schema or a malformed record.
    pub fn from_json(json: &Json) -> Result<RecorderSnapshot, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!("unsupported trace schema version {version}"));
        }
        if json.get("tool").and_then(Json::as_str) != Some("rmrls-trace") {
            return Err("not an rmrls trace dump (tool field mismatch)".into());
        }
        let records = json
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?;
        let records: Vec<TraceRecord> = records
            .iter()
            .enumerate()
            .map(|(i, r)| TraceRecord::from_json(r).ok_or(format!("malformed record {i}")))
            .collect::<Result<_, _>>()?;
        Ok(RecorderSnapshot {
            records,
            dropped: json
                .get("dropped_records")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            anomalies: json.get("anomalies").and_then(Json::as_u64).unwrap_or(0),
            byte_budget: json.get("byte_budget").and_then(Json::as_u64).unwrap_or(0) as usize,
            bytes_used: json.get("bytes_used").and_then(Json::as_u64).unwrap_or(0) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::PhaseEnter {
                phase: "scoring".into(),
            },
            TraceKind::PhaseExit {
                phase: "scoring".into(),
            },
            TraceKind::Expand {
                depth: 3,
                terms: 17,
            },
            TraceKind::Gauge {
                name: "queue_depth".into(),
                value: -4,
            },
            TraceKind::CacheLookup { hit: true },
            TraceKind::TierEscalate {
                from: "rmrls".into(),
                to: "rmrls-relaxed".into(),
            },
            TraceKind::Anomaly {
                kind: "deadline_expired".into(),
                site: "core/search/budget".into(),
            },
        ]
    }

    #[test]
    fn records_are_timestamped_and_ordered() {
        let rec = FlightRecorder::new(1 << 16);
        rec.phase_enter("scoring");
        rec.phase_exit("scoring");
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 2);
        assert!(snap.records[0].ts_micros <= snap.records[1].ts_micros);
    }

    #[test]
    fn ring_respects_byte_budget_and_counts_drops() {
        let budget = 300;
        let rec = FlightRecorder::new(budget);
        for i in 0..100 {
            rec.record(TraceKind::Expand {
                depth: i,
                terms: u64::from(i),
            });
            assert!(rec.bytes_used() <= budget, "budget exceeded at {i}");
        }
        assert!(rec.dropped() > 0);
        let snap = rec.snapshot();
        // The survivors are the most recent records.
        let last = &snap.records[snap.records.len() - 1];
        assert_eq!(
            last.kind,
            TraceKind::Expand {
                depth: 99,
                terms: 99
            }
        );
        assert_eq!(snap.records.len() as u64 + snap.dropped, 100);
    }

    #[test]
    fn oversized_record_is_refused_not_looped() {
        let rec = FlightRecorder::new(32);
        rec.anomaly("panic", &"x".repeat(100));
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 1);
        // The anomaly still counts as seen.
        assert!(rec.has_anomaly());
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        for kind in every_kind() {
            let record = TraceRecord {
                ts_micros: 123_456,
                kind,
            };
            let text = record.to_json().to_string();
            let back = TraceRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, record, "{text}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let rec = FlightRecorder::new(1 << 16);
        for kind in every_kind() {
            rec.record(kind);
        }
        let snap = rec.snapshot();
        let text = snap.to_json().to_string();
        let back = RecorderSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_parser_rejects_foreign_documents() {
        assert!(RecorderSnapshot::from_json(&Json::parse("{}").unwrap()).is_err());
        let wrong_tool = r#"{"schema_version":1,"tool":"other","records":[]}"#;
        assert!(RecorderSnapshot::from_json(&Json::parse(wrong_tool).unwrap()).is_err());
        let bad_version = r#"{"schema_version":99,"tool":"rmrls-trace","records":[]}"#;
        assert!(RecorderSnapshot::from_json(&Json::parse(bad_version).unwrap()).is_err());
    }

    #[test]
    fn snapshot_parser_tolerates_embedded_context() {
        let rec = FlightRecorder::new(1 << 16);
        rec.anomaly("cancelled", "core/search/budget-poll");
        let mut json = match rec.snapshot().to_json() {
            Json::Obj(fields) => fields,
            other => panic!("{other:?}"),
        };
        json.push(("job".into(), Json::str("hwb7")));
        json.push(("trigger".into(), Json::str("cancelled")));
        let back = RecorderSnapshot::from_json(&Json::Obj(json)).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.anomalies, 1);
    }

    #[test]
    fn shared_handles_see_one_ring() {
        let a = FlightRecorder::new(1 << 16);
        let b = a.clone();
        a.phase_enter("dispatch");
        b.anomaly("panic", "engine/worker");
        assert_eq!(a.len(), 2);
        assert!(a.has_anomaly());
        assert_eq!(b.snapshot(), a.snapshot());
    }
}
