//! The global metrics registry: atomic counters and gauges, and
//! HDR-style log-bucketed histograms behind one lock each.
//!
//! The registry's traffic is light: a traced default `table1` sends it
//! a few thousand records (one pool drain and queue wait per group, one
//! latency and frame count per deployed batch) against hundreds of
//! thousands of span events. So a counter is one atomic cell and a
//! histogram is one [`HistogramCounts`] behind a mutex, with no
//! per-thread shards.

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A monotonically increasing event counter: one atomic cell.
///
/// Obtain one with [`counter`]; increments are dropped while telemetry is
/// disabled (one relaxed atomic load).
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value instrument (pool width, queue depth, …): set, not
/// accumulated.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current gauge value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Sub-bucket precision of the histogram: 2^4 = 16 linear sub-buckets per
/// power-of-two octave, bounding the relative quantisation error of any
/// recorded value by 1/16 ≈ 6.25%.
const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Values below [`SUB_BUCKETS`] get one exact bucket each; values at or
/// above stripe 16 sub-buckets per octave up to `u64::MAX`, giving
/// `16 + (64 - 4) * 16` buckets total.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS;

/// The bucket a value lands in. Exact for `v < 16`; HDR-style
/// (exponent, 4-bit mantissa) above.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (exp - SUB_BUCKET_BITS) as usize * SUB_BUCKETS + sub
    }
}

/// The smallest value that lands in bucket `index` — the value percentile
/// queries report, making them deterministic lower bounds with at most
/// 1/16 relative error.
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let exp = SUB_BUCKET_BITS + ((index - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BUCKET_BITS))
    }
}

/// A fixed-bucket latency histogram with HDR-style logarithmic buckets
/// (16 sub-buckets per power-of-two octave, ≤ 6.25% relative error over
/// the full `u64` range): one [`HistogramCounts`] behind a mutex.
///
/// Values are dimensionless `u64`s; the workspace records nanoseconds.
/// Percentiles ([`Histogram::summary`]) report the lower bound of the
/// bucket holding the requested rank, so they are deterministic and never
/// overestimate.
#[derive(Default)]
pub struct Histogram {
    counts: Mutex<HistogramCounts>,
}

impl Histogram {
    /// Records one value (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.lock().record(v);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.lock().buckets.iter().sum()
    }

    /// A copy of the bucket counts, usable as the baseline of a windowed
    /// summary ([`Histogram::summary_since`]).
    pub fn counts(&self) -> HistogramCounts {
        self.lock().clone()
    }

    /// Summary statistics (count, mean, p50/p90/p99, max) over everything
    /// recorded so far.
    pub fn summary(&self) -> HistogramSummary {
        self.lock().summarize()
    }

    /// Summary statistics over the window since `baseline` was snapshot
    /// with [`Histogram::counts`]. The max is the all-time max (bucket
    /// counts subtract exactly; the max register does not), which is the
    /// conservative choice for latency reporting.
    pub fn summary_since(&self, baseline: &HistogramCounts) -> HistogramSummary {
        self.lock().diff(baseline).summarize()
    }

    fn reset(&self) {
        *self.lock() = HistogramCounts::empty();
    }

    fn lock(&self) -> MutexGuard<'_, HistogramCounts> {
        self.counts.lock().expect("histogram lock")
    }
}

/// A point-in-time copy of a histogram's bucket counts. Obtained
/// from [`Histogram::counts`] (or built up value-by-value with
/// [`HistogramCounts::record`]); subtracting two snapshots yields the
/// distribution of one measurement window, and adding two
/// ([`HistogramCounts::merge`]) folds independent windows into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCounts {
    buckets: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Default for HistogramCounts {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramCounts {
    /// An empty distribution (no recorded values). The identity element of
    /// [`HistogramCounts::merge`].
    pub fn empty() -> Self {
        Self {
            buckets: vec![0u64; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Records one value into this local distribution. [`Histogram::record`]
    /// calls it under the histogram's lock; callers that keep per-entity
    /// (per-node, per-shard) distributions call it directly, without
    /// touching the global registry, and fold them later with
    /// [`HistogramCounts::merge`].
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// The bucket-wise sum `self + other`: the distribution of the union
    /// of both windows. Associative and commutative (bucket counts and
    /// sums are plain integer additions, the max is a max), so folding any
    /// number of windows gives the same result in any order.
    pub fn merge(&self, other: &HistogramCounts) -> HistogramCounts {
        HistogramCounts {
            buckets: self
                .buckets
                .iter()
                .zip(other.buckets.iter())
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// The bucket-wise difference `self - baseline` (saturating, so a
    /// baseline taken before a registry reset can never underflow).
    pub fn diff(&self, baseline: &HistogramCounts) -> HistogramCounts {
        HistogramCounts {
            buckets: self
                .buckets
                .iter()
                .zip(baseline.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.wrapping_sub(baseline.sum),
            max: self.max,
        }
    }

    /// Folds the counts into summary statistics.
    pub fn summarize(&self) -> HistogramSummary {
        let count: u64 = self.buckets.iter().sum();
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (index, &c) in self.buckets.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_lower_bound(index);
                }
            }
            bucket_lower_bound(NUM_BUCKETS - 1)
        };
        HistogramSummary {
            count,
            mean: if count == 0 {
                0.0
            } else {
                self.sum as f64 / count as f64
            },
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            max: if count == 0 { 0 } else { self.max },
        }
    }
}

/// Percentile summary of a [`Histogram`] (values in the histogram's unit,
/// nanoseconds throughout the workspace). Percentiles are bucket lower
/// bounds (≤ 6.25% below the true value); `mean` and `max` are exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact arithmetic mean of the recorded values.
    pub mean: f64,
    /// 50th-percentile bucket lower bound.
    pub p50: u64,
    /// 90th-percentile bucket lower bound.
    pub p90: u64,
    /// 99th-percentile bucket lower bound.
    pub p99: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

/// The summary as a JSON object (used by the exporter, the SLO
/// snapshots and the bench files).
impl From<&HistogramSummary> for JsonValue {
    fn from(s: &HistogramSummary) -> Self {
        JsonValue::object([
            ("count", s.count.into()),
            ("mean", s.mean.into()),
            ("p50", s.p50.into()),
            ("p90", s.p90.into()),
            ("p99", s.p99.into()),
            ("max", s.max.into()),
        ])
    }
}

/// The three metric namespaces of the global registry.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The globally registered counter named `name`, created on first use.
/// The returned handle is `'static`: hot paths should look it up once
/// (e.g. in a `OnceLock`) instead of per increment.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry lock");
    reg.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// The globally registered gauge named `name`, created on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metrics registry lock");
    reg.gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
}

/// The globally registered histogram named `name`, created on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metrics registry lock");
    reg.histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::default())))
}

/// Every registered counter and its current value, sorted by name.
pub(crate) fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let reg = registry().lock().expect("metrics registry lock");
    reg.counters
        .iter()
        .map(|(&name, c)| (name, c.value()))
        .collect()
}

/// Every registered gauge and its current value, sorted by name.
pub(crate) fn gauges_snapshot() -> Vec<(&'static str, i64)> {
    let reg = registry().lock().expect("metrics registry lock");
    reg.gauges
        .iter()
        .map(|(&name, g)| (name, g.value()))
        .collect()
}

/// Every registered histogram and its summary, sorted by name.
pub(crate) fn histograms_snapshot() -> Vec<(&'static str, HistogramSummary)> {
    let reg = registry().lock().expect("metrics registry lock");
    reg.histograms
        .iter()
        .map(|(&name, h)| (name, h.summary()))
        .collect()
}

/// Zeroes every registered metric (names stay registered).
pub(crate) fn reset_metrics() {
    let reg = registry().lock().expect("metrics registry lock");
    for c in reg.counters.values() {
        c.reset();
    }
    for g in reg.gauges.values() {
        g.reset();
    }
    for h in reg.histograms.values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_sixteen() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_lower_bound_inverts_bucket_index() {
        // The lower bound of a value's bucket must land back in the same
        // bucket, and must never exceed the value.
        for &v in &[
            16u64,
            17,
            31,
            32,
            100,
            999,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let lo = bucket_lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            assert_eq!(bucket_index(lo), idx, "lower bound of {v} changed bucket");
        }
    }

    #[test]
    fn bucket_boundaries_are_monotonic_and_tight() {
        // Consecutive buckets have strictly increasing lower bounds, and
        // the relative quantisation error is bounded by 1/16.
        for idx in 0..NUM_BUCKETS - 1 {
            let lo = bucket_lower_bound(idx);
            let hi = bucket_lower_bound(idx + 1);
            assert!(hi > lo, "bucket {idx} not monotonic");
            if lo >= SUB_BUCKETS as u64 {
                let width = hi - lo;
                assert!(
                    width as f64 / lo as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                    "bucket {idx} wider than 1/16 relative ({lo}..{hi})"
                );
            }
        }
    }

    #[test]
    fn percentiles_report_bucket_lower_bounds_at_the_requested_rank() {
        let _guard = crate::test_guard();
        let h = Histogram::default();
        crate::set_enabled(true);
        // 1..=100 one each: p50's rank-50 value is 50, p90's is 90, p99's
        // is 99; reported as bucket lower bounds (≤ 6.25% low).
        for v in 1..=100u64 {
            h.record(v);
        }
        crate::set_enabled(false);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        for (p, exact) in [(s.p50, 50u64), (s.p90, 90), (s.p99, 99)] {
            assert!(p <= exact, "percentile overestimated: {p} > {exact}");
            assert!(
                p as f64 >= exact as f64 * (1.0 - 1.0 / SUB_BUCKETS as f64),
                "percentile {p} more than 6.25% below {exact}"
            );
        }
    }

    #[test]
    fn empty_and_windowed_summaries() {
        let _guard = crate::test_guard();
        let h = Histogram::default();
        assert_eq!(h.summary(), HistogramSummary::default());
        crate::set_enabled(true);
        h.record(10);
        let baseline = h.counts();
        h.record(1_000);
        h.record(2_000);
        crate::set_enabled(false);
        let windowed = h.summary_since(&baseline);
        assert_eq!(windowed.count, 2, "window excludes the baseline sample");
        assert!(windowed.p50 >= 900, "baseline sample leaked into window");
    }
}
