//! Statistics, process memory, and the in-memory span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

pub fn upper_quartile(values: &[f64]) -> f64 {
    percentile(values, 75.0)
}

/// For index-aligned per-round samples (sample `i` of every round comes
/// from the same input), the lower quartile of each input's samples.
/// Rounds of another length (a round that failed part way) are skipped.
pub fn per_input<'a>(rounds: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let rounds: Vec<&Vec<f64>> = rounds.collect();
    let Some(len) = rounds.iter().map(|r| r.len()).max() else {
        return Vec::new();
    };
    let full: Vec<&&Vec<f64>> = rounds.iter().filter(|r| r.len() == len).collect();
    (0..len)
        .map(|i| lower_quartile(&full.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Nearest-rank percentile (`values` need not be sorted).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it, as `(label, value)`.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len();
    let (label, pct) = if n >= 1000 {
        ("p99", 99.0)
    } else if n >= 100 {
        ("p90", 90.0)
    } else {
        ("p50", 50.0)
    };
    (label, percentile(values, pct))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One span: a timed call from the benchmark's code into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Request, job, or round id the span belongs to.
    pub id: u64,
}

/// Spans kept in memory and written once at the end of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; returns its index (or `None` when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = self.now_us();
        self.spans.push(Span {
            name,
            start_us: t,
            end_us: t,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Records an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent,
            id,
        });
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part covered by its children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - child[i]) / 1e6;
        }
        out
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of every span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.id % 64,
                s.start_us,
                s.end_us - s.start_us,
                s.id
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(tail(&v), ("p90", 90.0));
        assert_eq!(lower_quartile(&[4.0, 3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = a + std::time::Duration::from_millis(10);
        let c = a + std::time::Duration::from_millis(4);
        t.record("outer", a, b, None, 0);
        t.record("inner", a, c, Some(0), 0);
        let s = t.self_seconds();
        assert!((s["outer"] - 0.006).abs() < 1e-9);
        assert!((s["inner"] - 0.004).abs() < 1e-9);
    }
}
