//! The atoms every aggregate of the event stream is made of: relaxed-atomic
//! counters, gauges and log₂ latency histograms behind `Arc`s.
//!
//! They live here, below `pier-metrics`, so that [`crate::StatsObserver`] —
//! the one fold of the event stream — can fold into atoms it is *handed*:
//! private ones for an in-process snapshot, or handles a metrics registry
//! also renders, in which case scrape ≡ snapshot by construction.
//! `pier-metrics` re-exports them under their historical paths.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Log₂-nanosecond histogram buckets: bucket `i` counts values with
/// `2^i ns <= v < 2^(i+1) ns`. 40 buckets cover ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter (a Prometheus `counter`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An integer gauge that can go up and down (a Prometheus `gauge`).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge (f64 bits in an atomic word).
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        FloatGauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-size log₂-bucketed latency histogram (a Prometheus `histogram`).
///
/// Buckets are powers of two in nanoseconds, so recording is a
/// leading-zeros instruction plus one relaxed atomic increment —
/// allocation-free and lock-free on the hot path. The one histogram type
/// of the workspace: phase timings, per-worker classify timings and
/// recovery latencies all land in one of these.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration in seconds (negative values clamp to zero).
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        self.record_nanos((secs.max(0.0) * 1e9) as u64);
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        let bucket = (64 - nanos.max(1).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Per-bucket counts (bucket `i` covers `2^i ns ..= 2^(i+1) ns`).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound of bucket `i`, in seconds (the Prometheus `le` label).
    pub fn bucket_upper_secs(i: usize) -> f64 {
        (1u64 << (i + 1).min(63)) as f64 / 1e9
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) in seconds, resolved to the
    /// arithmetic midpoint `1.5 × 2^i ns` of the bucket holding that rank;
    /// `0.0` for an empty histogram.
    pub fn percentile_secs(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, c) in self.bucket_counts().into_iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << i) as f64 * 1.5 / 1e9;
            }
        }
        (1u64 << (HISTOGRAM_BUCKETS - 1)) as f64 / 1e9
    }
}

/// Where a fold gets its atoms: by family name, help text and label set.
///
/// `PrivateAtoms` hands out fresh unnamed atoms (an in-process fold);
/// `pier_metrics::MetricsRegistry` resolves — idempotently — the handle it
/// also renders, so whoever folds into it publishes by the same stroke.
pub trait AtomSource: std::fmt::Debug + Send + Sync {
    /// A counter for `name{labels}`.
    fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter>;
    /// An integer gauge for `name{labels}`.
    fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge>;
    /// A histogram for `name{labels}`.
    fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram>;
}

/// An [`AtomSource`] of fresh atoms nobody else can see.
#[derive(Debug)]
pub(crate) struct PrivateAtoms;

impl AtomSource for PrivateAtoms {
    fn counter(&self, _: &str, _: &str, _: &[(&str, &str)]) -> Arc<Counter> {
        Arc::default()
    }
    fn gauge(&self, _: &str, _: &str, _: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::default()
    }
    fn histogram(&self, _: &str, _: &str, _: &[(&str, &str)]) -> Arc<Histogram> {
        Arc::default()
    }
}
