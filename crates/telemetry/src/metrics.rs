//! The global metrics registry: sharded atomic counters, gauges and
//! HDR-style log-bucketed histograms.

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of per-thread shards of every counter and histogram. A power of
/// two; threads are striped across shards by a monotonically assigned
/// thread index, so two pool workers practically never bounce the same
/// cache line on hot-path increments.
const COUNTER_SHARDS: usize = 16;

/// Histograms are bulkier than counters (hundreds of buckets per shard),
/// and record at a far lower rate (per frame / per group, not per
/// instruction), so they stripe across fewer shards.
const HISTOGRAM_SHARDS: usize = 4;

/// Monotonic thread index used to pick a shard.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// This thread's shard stripe index.
#[inline]
fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

/// One cache-line-isolated counter cell. 64-byte alignment keeps two
/// shards from sharing a line, so relaxed increments from different
/// threads never invalidate each other.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing event counter, sharded per thread.
///
/// Obtain one with [`counter`]; increments are dropped while telemetry is
/// disabled (one relaxed atomic load), and [`Counter::value`] folds the
/// shards at read time.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.shards[thread_index() % COUNTER_SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value instrument (pool width, queue depth, …). Unlike
/// [`Counter`] a gauge is set, not accumulated, so it is a single atomic
/// cell rather than a sharded array.
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

    /// Adds `delta` to the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
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

/// One histogram shard: the log-bucket array plus exact sum/max/count for
/// the summary statistics.
struct HistogramShard {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket latency histogram with HDR-style logarithmic buckets
/// (16 sub-buckets per power-of-two octave, ≤ 6.25% relative error over
/// the full `u64` range), sharded per thread like [`Counter`].
///
/// Values are dimensionless `u64`s; the workspace records nanoseconds.
/// Percentiles ([`Histogram::summary`]) report the lower bound of the
/// bucket holding the requested rank, so they are deterministic and never
/// overestimate.
#[derive(Default)]
pub struct Histogram {
    shards: [HistogramShard; HISTOGRAM_SHARDS],
}

impl Histogram {
    /// Records one value (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let shard = &self.shards[thread_index() % HISTOGRAM_SHARDS];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// A merged snapshot of the per-shard bucket counts, usable as the
    /// baseline of a windowed summary ([`Histogram::summary_since`]).
    pub fn counts(&self) -> HistogramCounts {
        let mut merged = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in &self.shards {
            for (m, b) in merged.iter_mut().zip(shard.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        HistogramCounts {
            buckets: merged,
            sum,
            max,
        }
    }

    /// Summary statistics (count, mean, p50/p90/p99, max) over everything
    /// recorded so far.
    pub fn summary(&self) -> HistogramSummary {
        self.counts().summarize()
    }

    /// Summary statistics over the window since `baseline` was snapshot
    /// with [`Histogram::counts`]. The max is the all-time max (bucket
    /// counts subtract exactly; the max register does not), which is the
    /// conservative choice for latency reporting.
    pub fn summary_since(&self, baseline: &HistogramCounts) -> HistogramSummary {
        self.counts().diff(baseline).summarize()
    }

    fn reset(&self) {
        for shard in &self.shards {
            for b in &shard.buckets {
                b.store(0, Ordering::Relaxed);
            }
            shard.count.store(0, Ordering::Relaxed);
            shard.sum.store(0, Ordering::Relaxed);
            shard.max.store(0, Ordering::Relaxed);
        }
    }
}

/// A merged, point-in-time copy of a histogram's bucket counts. Obtained
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

    /// Records one value into this local (non-atomic) distribution. The
    /// same bucketing as [`Histogram::record`], but without touching the
    /// global registry — used by callers that keep per-entity (per-node,
    /// per-shard) distributions and fold them later with
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
    /// racing increment during the snapshot can never underflow).
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
