//! Named counters, gauges, and fixed-bucket histograms.
//!
//! The registry hands out cheap `Rc`-backed handles: the search loop
//! clones a [`Counter`] once before the hot loop and bumps it with a
//! single `Cell` update per event, no name lookups. A run is
//! single-threaded by construction (one serial search owns its
//! registry), so plain `Rc<Cell>` is both safe and the cheapest
//! possible representation.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A signed instantaneous value that also tracks its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<(i64, i64)>>);

impl Gauge {
    /// Sets the current value, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        let (_, hw) = self.0.get();
        self.0.set((v, hw.max(v)));
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.get().0
    }

    /// Highest value ever set.
    pub fn high_water(&self) -> i64 {
        self.0.get().1
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of each bucket (exclusive); the final implicit
    /// bucket is unbounded.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Rc<RefCell<HistogramInner>>);

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds
    /// (must be strictly increasing; an unbounded overflow bucket is
    /// appended automatically).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Rc::new(RefCell::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })))
    }

    /// Records one observation. A value lands in the first bucket whose
    /// upper bound is strictly greater than it ( `v < bound` ), or the
    /// overflow bucket if it exceeds every bound.
    #[inline]
    pub fn record(&self, v: f64) {
        let mut h = self.0.borrow_mut();
        let idx = h.bounds.partition_point(|&b| b <= v);
        h.counts[idx] += 1;
        h.count += 1;
        h.sum += v;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Immutable view of the recorded distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.0.borrow();
        HistogramSnapshot {
            bounds: h.bounds.clone(),
            counts: h.counts.clone(),
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
        }
    }
}

/// Frozen histogram state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (exclusive); the last count is overflow.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, one longer than `bounds`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from bucket counts.
    ///
    /// Uses linear interpolation within the bucket that contains the
    /// target rank, the standard prometheus `histogram_quantile`
    /// estimate. The overflow bucket is capped at the observed `max`,
    /// so the estimate never exceeds a value actually recorded.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                let lo = if i == 0 {
                    self.min.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max.max(lo))
                } else {
                    self.max.max(lo)
                };
                let frac = (rank - seen as f64) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            seen = upto;
        }
        self.max
    }

    /// Median estimate ([`Self::quantile`] at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Combines two snapshots of histograms with identical bounds.
    ///
    /// Merging is associative and commutative over the counts (exact
    /// integer sums); the `sum` field is a float sum, exact whenever
    /// the observations are (as with the fixed-point [`SyncHistogram`]
    /// backing store).
    ///
    /// [`SyncHistogram`]: crate::sync::SyncHistogram
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        let (min, max) = match (self.count, other.count) {
            (0, _) => (other.min, other.max),
            (_, 0) => (self.min, self.max),
            _ => (self.min.min(other.min), self.max.max(other.max)),
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min,
            max,
        }
    }
}

/// Owner of all named metrics for one run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. The returned handle stays live after the registry is
    /// snapshot.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        self.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        if let Some((_, g)) = self.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        self.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` on first use (later calls ignore `bounds`).
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some((_, h)) = self.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new(bounds);
        self.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Freezes every metric's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get(), g.high_water()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Frozen registry state, ready for reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value, high_water)` per gauge.
    pub gauges: Vec<(String, i64, i64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serializes into the run-report JSON shape.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::uint(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v, hw)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*v as f64)),
                            ("high_water".into(), Json::Num(*hw as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            (
                                "bounds".into(),
                                Json::Arr(h.bounds.iter().map(|&b| Json::Num(b)).collect()),
                            ),
                            (
                                "counts".into(),
                                Json::Arr(h.counts.iter().map(|&c| Json::uint(c)).collect()),
                            ),
                            ("count".into(), Json::uint(h.count)),
                            ("sum".into(), Json::Num(h.sum)),
                            ("min".into(), Json::Num(h.min)),
                            ("max".into(), Json::Num(h.max)),
                            ("mean".into(), Json::Num(h.mean())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("pops");
        let b = reg.counter("pops");
        a.inc();
        b.add(4);
        assert_eq!(reg.snapshot().counter("pops"), Some(5));
        assert_eq!(reg.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth");
        g.set(10);
        g.set(250);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 250);
    }

    #[test]
    fn histogram_bucketing_places_values_correctly() {
        // Bounds [1, 5, 10]: buckets are [<1), [1,5), [5,10), [10,inf).
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        h.record(0.5); // bucket 0
        h.record(1.0); // bucket 1 (bound is exclusive upper of prior)
        h.record(4.99); // bucket 1
        h.record(5.0); // bucket 2
        h.record(10.0); // overflow
        h.record(1e9); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 2]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0.5);
        assert_eq!(snap.max, 1e9);
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let snap = Histogram::new(&[1.0]).snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[5.0, 1.0]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        for v in 0..100 {
            h.record(v as f64 * 0.3); // uniform over [0, 29.7]
        }
        let snap = h.snapshot();
        // Uniform data: the estimate should land near the true value.
        assert!((snap.p50() - 15.0).abs() < 2.0, "p50 {}", snap.p50());
        assert!((snap.p90() - 27.0).abs() < 2.0, "p90 {}", snap.p90());
        assert!(snap.p99() <= snap.max);
        assert_eq!(snap.quantile(0.0), 0.0);
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let snap = Histogram::new(&[1.0]).snapshot();
        assert_eq!(snap.p50(), 0.0);
        assert_eq!(snap.p99(), 0.0);
    }

    #[test]
    fn quantile_caps_overflow_bucket_at_observed_max() {
        let h = Histogram::new(&[1.0]);
        h.record(5.0);
        h.record(9.0);
        let snap = h.snapshot();
        assert!(snap.p99() <= 9.0);
    }

    #[test]
    fn merge_sums_counts_and_tracks_extremes() {
        let a = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        a.record(1.5);
        let b = Histogram::new(&[1.0, 2.0]);
        b.record(7.0);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counts, vec![1, 1, 1]);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 9.0);
        assert_eq!(merged.min, 0.5);
        assert_eq!(merged.max, 7.0);
        // Commutes, and merging an empty histogram is the identity.
        assert_eq!(merged, b.snapshot().merge(&a.snapshot()));
        let empty = Histogram::new(&[1.0, 2.0]).snapshot();
        assert_eq!(merged.merge(&empty), merged);
        assert_eq!(empty.merge(&merged), merged);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let a = Histogram::new(&[1.0]).snapshot();
        let b = Histogram::new(&[2.0]).snapshot();
        let _ = a.merge(&b);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pops").add(7);
        reg.gauge("depth").set(42);
        reg.histogram("priority", &[0.0, 10.0]).record(3.5);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json.get("counters").unwrap().get("pops").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            json.get("gauges")
                .unwrap()
                .get("depth")
                .unwrap()
                .get("high_water")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
        let hist = json.get("histograms").unwrap().get("priority").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        // Round-trip through the parser.
        let reparsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(reparsed, json);
    }
}
