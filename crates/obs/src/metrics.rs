//! Plain metric values and the snapshot every renderer reads.
//!
//! [`HistogramSnapshot`] is a fixed-bucket histogram held by value: a
//! single-owner recorder (the search observer) calls
//! [`record`](HistogramSnapshot::record) through `&mut self`, and the
//! atomic [`SyncHistogram`](crate::sync::SyncHistogram) freezes into the
//! same type, so quantiles, merging, the run-report JSON and the
//! Prometheus text work on both. [`MetricsSnapshot`] names a set of
//! counters, gauges and histograms for reporting; the only live
//! registry is the thread-safe [`SyncRegistry`](crate::sync::SyncRegistry).
//!
//! Bucket rule (both recorders): an observation `v` lands in the first
//! bucket whose upper bound `b` satisfies `v <= b`, or in the overflow
//! bucket when it exceeds every bound, so the cumulative count exported
//! as `le="b"` is exactly the number of observations `<= b`.

use crate::json::Json;

/// Index of the bucket that holds `v`: the first bound with `v <= bound`,
/// or `bounds.len()` (the overflow bucket) when `v` exceeds every bound.
#[inline]
pub(crate) fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// A fixed-bucket histogram of `f64` observations, held by value.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive); the last count is overflow.
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
    /// An empty histogram with the given bucket upper bounds (must be
    /// strictly increasing; an unbounded overflow bucket is appended
    /// automatically).
    pub fn new(bounds: &[f64]) -> HistogramSnapshot {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Records one observation into the bucket chosen by the module's
    /// `v <= bound` rule. The sum is a plain `f64` sum; `min`/`max`
    /// track the observations, ignoring their 0 placeholder while the
    /// histogram is empty.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.counts[bucket_index(&self.bounds, v)] += 1;
        let (lo, hi) = if self.count == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (self.min, self.max)
        };
        self.min = lo.min(v);
        self.max = hi.max(v);
        self.count += 1;
        self.sum += v;
    }

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

/// Named metric values, ready for reporting.
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

    fn histogram(bounds: &[f64], values: &[f64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::new(bounds);
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn histogram_bucketing_places_values_correctly() {
        // Bounds [1, 5, 10]: buckets are (-inf,1], (1,5], (5,10], (10,inf),
        // so {0.5, 1}, {4.99, 5}, {10}, {1e9}.
        let snap = histogram(&[1.0, 5.0, 10.0], &[0.5, 1.0, 4.99, 5.0, 10.0, 1e9]);
        assert_eq!(snap.counts, vec![2, 2, 1, 1]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0.5);
        assert_eq!(snap.max, 1e9);
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let snap = HistogramSnapshot::new(&[1.0]);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        HistogramSnapshot::new(&[5.0, 1.0]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // Uniform over [0, 29.7].
        let values: Vec<f64> = (0..100).map(|v| v as f64 * 0.3).collect();
        let snap = histogram(&[10.0, 20.0, 30.0], &values);
        // Uniform data: the estimate should land near the true value.
        assert!((snap.p50() - 15.0).abs() < 2.0, "p50 {}", snap.p50());
        assert!((snap.p90() - 27.0).abs() < 2.0, "p90 {}", snap.p90());
        assert!(snap.p99() <= snap.max);
        assert_eq!(snap.quantile(0.0), 0.0);
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let snap = HistogramSnapshot::new(&[1.0]);
        assert_eq!(snap.p50(), 0.0);
        assert_eq!(snap.p99(), 0.0);
    }

    #[test]
    fn quantile_caps_overflow_bucket_at_observed_max() {
        let snap = histogram(&[1.0], &[5.0, 9.0]);
        assert!(snap.p99() <= 9.0);
    }

    #[test]
    fn merge_sums_counts_and_tracks_extremes() {
        let a = histogram(&[1.0, 2.0], &[0.5, 1.5]);
        let b = histogram(&[1.0, 2.0], &[7.0]);
        let merged = a.merge(&b);
        assert_eq!(merged.counts, vec![1, 1, 1]);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 9.0);
        assert_eq!(merged.min, 0.5);
        assert_eq!(merged.max, 7.0);
        // Commutes, and merging an empty histogram is the identity.
        assert_eq!(merged, b.merge(&a));
        let empty = HistogramSnapshot::new(&[1.0, 2.0]);
        assert_eq!(merged.merge(&empty), merged);
        assert_eq!(empty.merge(&merged), merged);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let a = HistogramSnapshot::new(&[1.0]);
        let b = HistogramSnapshot::new(&[2.0]);
        let _ = a.merge(&b);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let snap = MetricsSnapshot {
            counters: vec![("pops".into(), 7)],
            gauges: vec![("depth".into(), 42, 42)],
            histograms: vec![("priority".into(), histogram(&[0.0, 10.0], &[3.5]))],
        };
        assert_eq!(snap.counter("pops"), Some(7));
        assert_eq!(snap.counter("missing"), None);
        let json = snap.to_json();
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
