//! Interchange exporters: Chrome trace-event JSON and Prometheus text.
//!
//! Both formats are written from scratch against their public specs
//! (the build is offline):
//!
//! - [`chrome_trace_json`] renders a [`RecorderSnapshot`] as the Chrome
//!   trace-event JSON object format — load the file in
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see phases as
//!   nested slices, gauges as counter tracks, and anomalies as instant
//!   events.
//! - [`prometheus_text`] renders a [`MetricsSnapshot`] in the
//!   Prometheus text exposition format (version 0.0.4): `# TYPE`
//!   headers, cumulative histogram buckets with `le` labels, `_sum` and
//!   `_count` series.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::recorder::{RecorderSnapshot, TraceKind};

/// Converts a recorder snapshot into Chrome trace-event JSON
/// (`{"traceEvents": [...]}`), using one process/thread track.
pub fn chrome_trace_json(snapshot: &RecorderSnapshot) -> Json {
    let mut events = Vec::with_capacity(snapshot.records.len());
    for record in &snapshot.records {
        let ts = Json::uint(record.ts_micros);
        let mut ev: Vec<(String, Json)> = vec![
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(1.0)),
            ("ts".into(), ts),
        ];
        match &record.kind {
            TraceKind::PhaseEnter { phase } => {
                ev.push(("ph".into(), Json::str("B")));
                ev.push(("name".into(), Json::str(phase)));
            }
            TraceKind::PhaseExit { phase } => {
                ev.push(("ph".into(), Json::str("E")));
                ev.push(("name".into(), Json::str(phase)));
            }
            TraceKind::Gauge { name, value } => {
                ev.push(("ph".into(), Json::str("C")));
                ev.push(("name".into(), Json::str(name)));
                ev.push((
                    "args".into(),
                    Json::Obj(vec![("value".into(), Json::Num(*value as f64))]),
                ));
            }
            TraceKind::Expand { depth, terms } => {
                ev.push(("ph".into(), Json::str("i")));
                ev.push(("s".into(), Json::str("t")));
                ev.push(("name".into(), Json::str("expand")));
                ev.push((
                    "args".into(),
                    Json::Obj(vec![
                        ("depth".into(), Json::uint(u64::from(*depth))),
                        ("terms".into(), Json::uint(*terms)),
                    ]),
                ));
            }
            TraceKind::CacheLookup { hit } => {
                ev.push(("ph".into(), Json::str("i")));
                ev.push(("s".into(), Json::str("t")));
                ev.push((
                    "name".into(),
                    Json::str(if *hit { "cache_hit" } else { "cache_miss" }),
                ));
            }
            TraceKind::TierEscalate { from, to } => {
                ev.push(("ph".into(), Json::str("i")));
                ev.push(("s".into(), Json::str("p")));
                ev.push(("name".into(), Json::Str(format!("escalate:{from}->{to}"))));
            }
            TraceKind::Anomaly { kind, site } => {
                ev.push(("ph".into(), Json::str("i")));
                ev.push(("s".into(), Json::str("p")));
                ev.push(("name".into(), Json::Str(format!("anomaly:{kind}"))));
                ev.push((
                    "args".into(),
                    Json::Obj(vec![("site".into(), Json::str(site))]),
                ));
            }
        }
        events.push(Json::Obj(ev));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ])
}

/// Escapes a name into the Prometheus metric-name charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`), prefixing `rmrls_`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("rmrls_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside `label="..."`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders one `label="value"` pair with proper value escaping.
///
/// Exposed for callers that assemble labeled series by hand (the
/// telemetry endpoint's job-status series, for example).
pub fn prom_label(name: &str, value: &str) -> String {
    format!("{name}=\"{}\"", escape_label_value(value))
}

/// Formats a float the way Prometheus expects (`+Inf` for infinity,
/// plain decimal otherwise).
fn prom_num(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
            s.push_str(".0");
        }
        s
    }
}

/// Escapes a `# HELP` text: backslash and newline must be
/// backslash-escaped (double quotes are legal in help text).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a metrics snapshot in the Prometheus text exposition format.
///
/// Counters become `counter` series, gauges become two `gauge` series
/// (current value and `_high_water`), histograms become the standard
/// cumulative `_bucket{le="..."}` / `_sum` / `_count` triple. Every
/// family carries `# HELP` and `# TYPE` headers; the help text echoes
/// the original (pre-sanitized) metric name so scrapes stay traceable
/// to the registry key, and no two families share a help text.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let family = |out: &mut String, n: &str, what: &str, orig: &str, kind: &str| {
        out.push_str(&format!(
            "# HELP {n} rmrls {what} `{}`\n# TYPE {n} {kind}\n",
            escape_help(orig)
        ));
    };
    for (name, value) in &snapshot.counters {
        let n = metric_name(name);
        family(&mut out, &n, "counter", name, "counter");
        out.push_str(&format!("{n} {value}\n"));
    }
    for (name, value, high_water) in &snapshot.gauges {
        let n = metric_name(name);
        family(&mut out, &n, "gauge", name, "gauge");
        out.push_str(&format!("{n} {value}\n"));
        let hw = format!("{n}_high_water");
        family(&mut out, &hw, "high-water mark of gauge", name, "gauge");
        out.push_str(&format!("{hw} {high_water}\n"));
    }
    for (name, hist) in &snapshot.histograms {
        let n = metric_name(name);
        family(&mut out, &n, "histogram", name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            let le = hist
                .bounds
                .get(i)
                .copied()
                .map_or_else(|| "+Inf".to_string(), prom_num);
            out.push_str(&format!(
                "{n}_bucket{{{}}} {cumulative}\n",
                prom_label("le", &le)
            ));
        }
        out.push_str(&format!("{n}_sum {}\n", prom_num(hist.sum)));
        out.push_str(&format!("{n}_count {}\n", hist.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;
    use crate::recorder::{FlightRecorder, TraceKind};

    fn sample_snapshot() -> RecorderSnapshot {
        let rec = FlightRecorder::new(1 << 16);
        rec.phase_enter("dispatch");
        rec.phase_enter("scoring");
        rec.record(TraceKind::Expand { depth: 2, terms: 9 });
        rec.gauge("queue_depth", 40);
        rec.phase_exit("scoring");
        rec.record(TraceKind::CacheLookup { hit: false });
        rec.record(TraceKind::TierEscalate {
            from: "rmrls".into(),
            to: "mmd".into(),
        });
        rec.anomaly("deadline_expired", "core/search/budget-poll");
        rec.phase_exit("dispatch");
        rec.snapshot()
    }

    #[test]
    fn chrome_export_is_valid_and_balanced() {
        let json = chrome_trace_json(&sample_snapshot());
        // Round-trips through the parser, i.e. it is valid JSON.
        let reparsed = Json::parse(&json.to_string()).unwrap();
        let events = reparsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 9);
        let phs: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // Begin/End events balance per track.
        assert_eq!(
            phs.iter().filter(|p| **p == "B").count(),
            phs.iter().filter(|p| **p == "E").count()
        );
        // Every event carries the required fields.
        for e in events {
            assert!(e.get("ts").unwrap().as_u64().is_some());
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
        // The counter event carries its value in args.
        let counter = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("C"));
        let value = counter
            .unwrap()
            .get("args")
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64();
        assert_eq!(value, Some(40.0));
    }

    #[test]
    fn chrome_export_names_anomalies() {
        let text = chrome_trace_json(&sample_snapshot()).to_string();
        assert!(text.contains("anomaly:deadline_expired"), "{text}");
        assert!(text.contains("escalate:rmrls->mmd"), "{text}");
    }

    #[test]
    fn prometheus_text_exposes_all_metric_families() {
        let mut h = HistogramSnapshot::new(&[1.0, 10.0]);
        // 10.0 sits exactly on a bound: `le` is inclusive.
        for v in [0.5, 5.0, 10.0, 100.0] {
            h.record(v);
        }
        let text = prometheus_text(&MetricsSnapshot {
            counters: vec![("nodes.expanded".into(), 42)],
            gauges: vec![("queue_depth".into(), 3, 9)],
            histograms: vec![("push_priority".into(), h)],
        });

        assert!(text.contains("# TYPE rmrls_nodes_expanded counter\n"));
        assert!(text.contains("rmrls_nodes_expanded 42\n"));
        assert!(text.contains("rmrls_queue_depth 3\n"));
        assert!(text.contains("rmrls_queue_depth_high_water 9\n"));
        assert!(text.contains("# TYPE rmrls_push_priority histogram\n"));
        // Buckets are cumulative and end at +Inf.
        assert!(
            text.contains("rmrls_push_priority_bucket{le=\"1.0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("rmrls_push_priority_bucket{le=\"10.0\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("rmrls_push_priority_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("rmrls_push_priority_count 4\n"));
        assert!(text.contains("rmrls_push_priority_sum 115.5\n"));
    }

    /// Scrape-format conformance: the rules a Prometheus scraper
    /// actually enforces on text exposition format 0.0.4.
    #[test]
    fn prometheus_text_conforms_to_exposition_format() {
        let mut h = HistogramSnapshot::new(&[0.1, 1.0]);
        h.record(0.5);
        let text = prometheus_text(&MetricsSnapshot {
            counters: vec![("jobs.total".into(), 3)],
            gauges: vec![("queue_depth".into(), 7, 7)],
            histograms: vec![("job_seconds".into(), h)],
        });

        let mut typed: Vec<String> = Vec::new();
        let mut helped: Vec<String> = Vec::new();
        let mut help_texts: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has a text");
                // A scraper shows the help text as the family's meaning;
                // two families with one text are indistinguishable.
                assert!(
                    !help_texts.iter().any(|h| h == help),
                    "two families share HELP text {help:?}"
                );
                help_texts.push(help.to_string());
                helped.push(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap().to_string();
                let kind = it.next().unwrap();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad type: {line}"
                );
                // HELP precedes TYPE for the same family.
                assert!(helped.contains(&name), "TYPE without HELP: {name}");
                typed.push(name);
                continue;
            }
            // Sample line: `name[{labels}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().next().unwrap().is_ascii_alphabetic(),
                "bad metric name start: {line}"
            );
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name charset: {line}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value: {line}"
            );
            // Every sample belongs to a declared family.
            assert!(
                typed.iter().any(|t| {
                    name == t
                        || (name
                            .strip_prefix(t.as_str())
                            .is_some_and(|s| ["_bucket", "_sum", "_count"].contains(&s)))
                }),
                "sample without TYPE header: {line}"
            );
            // Labels, when present, are well-formed k="v" pairs.
            if let Some(rest) = series.strip_prefix(name).filter(|r| !r.is_empty()) {
                assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                let body = &rest[1..rest.len() - 1];
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').expect("label pair");
                    assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                    assert!(v.starts_with('"') && v.ends_with('"'), "{line}");
                }
            }
        }
        assert!(!typed.is_empty());
    }

    #[test]
    fn label_values_escape_hostile_characters() {
        assert_eq!(prom_label("job", "plain"), "job=\"plain\"");
        assert_eq!(prom_label("job", "a\\b\"c\nd"), "job=\"a\\\\b\\\"c\\nd\"");
    }

    #[test]
    fn empty_inputs_export_cleanly() {
        let json = chrome_trace_json(&RecorderSnapshot::default());
        assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(prometheus_text(&MetricsSnapshot::default()), "");
    }
}
