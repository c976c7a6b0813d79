//! Thread-safe metrics for multi-worker engines.
//!
//! Many batch-engine workers and the serve daemon bump the same
//! counters concurrently, so these are atomic. A [`SyncCounter`] is a
//! monotonically increasing `u64`; a [`SyncGauge`] tracks a current
//! value plus its high-water mark; a [`SyncHistogram`] is a
//! log-bucketed latency distribution with a wait-free `record` path.
//! All are lock-free and safe to share by reference across a
//! `thread::scope`.
//!
//! [`SyncRegistry`] names them for a *live* scrape: its snapshot can be
//! taken from any thread while recording continues — this is what the
//! telemetry HTTP endpoint reads on every `GET /metrics`. A serial
//! search needs none of this: its observer keeps plain
//! [`HistogramSnapshot`] values and builds a [`MetricsSnapshot`] on
//! demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{bucket_index, HistogramSnapshot, MetricsSnapshot};

/// A monotonically increasing counter safe to bump from many threads.
///
/// ```
/// use rmrls_obs::sync::SyncCounter;
///
/// let jobs = SyncCounter::new();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| jobs.add(10));
///     }
/// });
/// assert_eq!(jobs.get(), 40);
/// ```
#[derive(Debug, Default)]
pub struct SyncCounter(AtomicU64);

impl SyncCounter {
    /// A counter starting at zero.
    pub const fn new() -> SyncCounter {
        SyncCounter(AtomicU64::new(0))
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge with high-water tracking, safe to set from many threads.
#[derive(Debug, Default)]
pub struct SyncGauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl SyncGauge {
    /// A gauge starting at zero.
    pub const fn new() -> SyncGauge {
        SyncGauge {
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Sets the current value, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative) to the current value,
    /// updating the high-water mark. Each add is one atomic
    /// read-modify-write, so concurrent adds never lose an update, and
    /// the mark is the largest value the gauge held in their real
    /// order. Callers keep the value non-negative: a sum of
    /// contributions that each add their own amount before subtracting
    /// it never drops below zero.
    pub fn add(&self, delta: i64) {
        let delta = delta as u64;
        let now = self
            .value
            .fetch_add(delta, Ordering::Relaxed)
            .wrapping_add(delta);
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever held.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Fixed-point scale of the histogram sum: one unit is a nanosecond
/// when observations are seconds, giving exact atomic accumulation up
/// to ~584 years of total recorded latency.
const SUM_SCALE: f64 = 1e9;

/// Builds log-spaced bucket bounds `lo, 2·lo, 4·lo, …` up to and
/// including the first power-of-two multiple ≥ `hi`. The standard
/// bucket layout for latency histograms, where interesting values span
/// many orders of magnitude.
///
/// # Panics
///
/// Panics if `lo` is not positive or `hi < lo`.
pub fn log2_bounds(lo: f64, hi: f64) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
    let mut bounds = Vec::new();
    let mut b = lo;
    loop {
        bounds.push(b);
        if b >= hi {
            return bounds;
        }
        b *= 2.0;
    }
}

/// A log-bucketed histogram of non-negative `f64` observations, safe to
/// record from many threads.
///
/// `record` is wait-free: one `partition_point` over immutable bounds
/// plus four relaxed atomic RMWs — no locks, no allocation — so it can
/// sit on latency paths of a multi-worker engine. Snapshots are taken
/// while recording continues; a snapshot is *per-field* consistent
/// (each counter is a real momentary value) but not a single atomic
/// cut across fields, which is the standard contract for scrape-style
/// telemetry.
///
/// Negative observations clamp to zero; NaN is recorded as zero. The
/// sum accumulates in fixed point (`SUM_SCALE` units) so concurrent
/// adds stay exact and associative.
///
/// ```
/// use rmrls_obs::sync::{log2_bounds, SyncHistogram};
///
/// let h = SyncHistogram::new(&log2_bounds(1e-6, 1.0));
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| h.record(2.5e-4));
///     }
/// });
/// assert_eq!(h.snapshot().count, 4);
/// ```
#[derive(Debug)]
pub struct SyncHistogram {
    /// Bucket upper bounds (inclusive), strictly increasing; the final
    /// implicit bucket is unbounded. Immutable after construction, so
    /// readers need no synchronization.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Fixed-point sum in `SUM_SCALE` units.
    sum_scaled: AtomicU64,
    /// Bit patterns of the min/max observation. Non-negative finite
    /// `f64` bit patterns order the same as the values, so
    /// `fetch_min`/`fetch_max` on the bits are correct and lock-free.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl SyncHistogram {
    /// Creates a histogram with the given bucket upper bounds (must be
    /// strictly increasing and non-negative; an unbounded overflow
    /// bucket is appended automatically).
    pub fn new(bounds: &[f64]) -> SyncHistogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.first().is_none_or(|&b| b >= 0.0),
            "sync histogram bounds must be non-negative"
        );
        SyncHistogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_scaled: AtomicU64::new(0),
            min_bits: AtomicU64::new(u64::MAX),
            max_bits: AtomicU64::new(0),
        }
    }

    /// The default latency layout: 1 µs doubling to ≥ 128 s (28
    /// buckets), covering everything from a cache probe to a search
    /// that exhausted its deadline.
    pub fn latency() -> SyncHistogram {
        SyncHistogram::new(&log2_bounds(1e-6, 128.0))
    }

    /// Records one observation (same bucketing rule as
    /// [`HistogramSnapshot::record`]: first bucket whose bound is
    /// `>= v`).
    #[inline]
    pub fn record(&self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
        self.counts[bucket_index(&self.bounds, v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let scaled = (v * SUM_SCALE).round().min(u64::MAX as f64) as u64;
        self.sum_scaled.fetch_add(scaled, Ordering::Relaxed);
        let bits = v.to_bits();
        self.min_bits.fetch_min(bits, Ordering::Relaxed);
        self.max_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the current distribution into the plain
    /// [`HistogramSnapshot`] value, so every renderer (prometheus text,
    /// JSON reports, quantiles) works on it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum_scaled.load(Ordering::Relaxed) as f64 / SUM_SCALE,
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<SyncCounter>)>,
    gauges: Vec<(String, Arc<SyncGauge>)>,
    histograms: Vec<(String, Arc<SyncHistogram>)>,
}

/// A named, thread-safe metrics registry for live scraping.
///
/// Registration takes a short mutex; the returned `Arc` handles are
/// lock-free, so hot paths register once and record forever. Any
/// thread may call [`snapshot`](SyncRegistry::snapshot) at any time —
/// this is the data source behind `GET /metrics`.
#[derive(Debug, Default)]
pub struct SyncRegistry {
    inner: Mutex<RegistryInner>,
}

fn registry_lock(m: &Mutex<RegistryInner>) -> std::sync::MutexGuard<'_, RegistryInner> {
    // Registration never leaves the vectors half-updated, so a poisoned
    // lock (a panicking thread elsewhere) is safe to recover.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SyncRegistry {
    /// An empty registry.
    pub fn new() -> SyncRegistry {
        SyncRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    pub fn counter(&self, name: &str) -> Arc<SyncCounter> {
        let mut inner = registry_lock(&self.inner);
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Arc::new(SyncCounter::new());
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Arc<SyncGauge> {
        let mut inner = registry_lock(&self.inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Arc::new(SyncGauge::new());
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` on first use (later calls ignore `bounds`).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<SyncHistogram> {
        let mut inner = registry_lock(&self.inner);
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Arc::new(SyncHistogram::new(bounds));
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Freezes every metric's current state. Safe to call from any
    /// thread while other threads keep recording; gauges wider than
    /// `i64::MAX` saturate rather than wrap.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = registry_lock(&self.inner);
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), clamp(g.get()), clamp(g.peak())))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = SyncCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = SyncGauge::new();
        g.set(5);
        g.set(17);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 17);
    }

    #[test]
    fn gauge_adds_signed_deltas_with_an_exact_peak() {
        let g = SyncGauge::new();
        g.add(5);
        g.add(7);
        g.add(-10);
        g.add(1);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 12);
        // Concurrent contributions that each add before they subtract:
        // nothing is lost and the value returns to zero.
        std::thread::scope(|s| {
            for t in 1..=8 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.add(t);
                        g.add(-t);
                    }
                });
            }
        });
        assert_eq!(g.get(), 3);
        assert!((12..=3 + 36).contains(&g.peak()), "{}", g.peak());
    }

    #[test]
    fn log2_bounds_double_and_cover() {
        let b = log2_bounds(1e-6, 1.0);
        assert_eq!(b[0], 1e-6);
        assert!(b.windows(2).all(|w| w[1] == w[0] * 2.0));
        assert!(*b.last().unwrap() >= 1.0);
        assert_eq!(log2_bounds(1.0, 1.0), vec![1.0]);
    }

    #[test]
    fn histogram_buckets_match_single_threaded_rule() {
        let h = SyncHistogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 1.0, 4.99, 5.0, 10.0, 1e9] {
            h.record(v);
        }
        let snap = h.snapshot();
        // Same placement as HistogramSnapshot's documented test.
        assert_eq!(snap.counts, vec![2, 2, 1, 1]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0.5);
        assert_eq!(snap.max, 1e9);
        assert!((snap.sum - 1_000_000_021.49).abs() < 1e-3, "{}", snap.sum);
    }

    #[test]
    fn histogram_clamps_hostile_observations() {
        let h = SyncHistogram::new(&[1.0]);
        h.record(-3.0);
        h.record(f64::NAN);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.counts, vec![2, 0]);
        assert_eq!(snap.sum, 0.0);
        assert_eq!((snap.min, snap.max), (0.0, 0.0));
    }

    #[test]
    fn histogram_records_from_many_threads() {
        let h = SyncHistogram::latency();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 * 1e-6);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.counts.iter().sum::<u64>(), 8000);
        assert_eq!(snap.min, 0.0);
        assert!((snap.max - 7.999e-3).abs() < 1e-9);
    }

    #[test]
    fn registry_shares_handles_and_snapshots_live() {
        let reg = SyncRegistry::new();
        let a = reg.counter("jobs");
        let b = reg.counter("jobs");
        a.add(3);
        b.add(4);
        reg.gauge("depth").set(11);
        reg.histogram("lat", &[1.0]).record(0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs"), Some(7));
        assert_eq!(snap.gauges, vec![("depth".to_string(), 11, 11)]);
        assert_eq!(snap.histograms[0].1.count, 1);
        // Handles outlive the snapshot; later records show in later
        // snapshots only.
        a.inc();
        assert_eq!(snap.counter("jobs"), Some(7));
        assert_eq!(reg.snapshot().counter("jobs"), Some(8));
    }

    #[test]
    fn registry_snapshot_saturates_oversized_gauges() {
        let reg = SyncRegistry::new();
        reg.gauge("huge").set(u64::MAX);
        assert_eq!(reg.snapshot().gauges[0].1, i64::MAX);
    }
}
