//! SLO primitives for the resilience layer: canonical metric names,
//! error-budget accounting and the [`SloSnapshot`] a supervised stream
//! reports.
//!
//! The fleet-scale north star (ROADMAP item 1) needs service-level
//! indicators, not just raw counters: how many frames fell back to the
//! hold-last-good path, how much of the per-stream *error budget* those
//! fallbacks burned, and how long recovery took. This module pins down
//! the metric names every producer and consumer agrees on and the
//! [`SloSnapshot`] that carries them with a deterministic JSON shape.
//! Producers count their snapshots themselves (`pcount-resilience`'s
//! stream fold, the fleet's node fold) and only write the same numbers
//! to the registry, so a snapshot never depends on whether telemetry is
//! recording. `StreamReport::slo`, `RobustnessReport::slo` and the
//! `robustness.slo` block of `BENCH_robust.json` carry them.

use crate::json::JsonValue;
use crate::metrics::{HistogramCounts, HistogramSummary};

/// Counter: retry attempts beyond the first try of a frame.
pub const RETRIES: &str = "resilience/retries";
/// Counter: frames that exhausted retries and emitted a fallback.
pub const FALLBACK_FRAMES: &str = "resilience/fallback_frames";
/// Counter: pooled CPUs reset to the pristine base after a fault.
pub const QUARANTINES: &str = "resilience/quarantines";
/// Counter: circuit-breaker trips (consecutive-fault threshold crossed).
pub const BREAKER_TRIPS: &str = "resilience/breaker_trips";
/// Counter: frames short-circuited while the circuit breaker was open.
pub const BREAKER_SKIPS: &str = "resilience/breaker_skips";
/// Histogram: simulated time from a frame's first fault to its recovery
/// (success after retry, or fallback emission), in nanoseconds.
pub const RECOVERY_LATENCY: &str = "resilience/recovery_latency_ns";
/// Gauge: error-budget burn of the most recent stream, in milli-units of
/// the budget (1000 = the whole budget consumed). See [`ErrorBudget`].
pub const ERROR_BUDGET_BURN: &str = "resilience/error_budget_burn_milli";

/// Per-fault-class counters, in the canonical order used by every
/// exporter. The names match `resilience::FaultClass` variants.
pub const FAULT_CLASS_COUNTERS: [&str; 7] = [
    "resilience/fault/drop",
    "resilience/fault/duplicate",
    "resilience/fault/stuck_pixels",
    "resilience/fault/saturation",
    "resilience/fault/noise_burst",
    "resilience/fault/clock_jitter",
    "resilience/fault/stall",
];

/// Every SLO counter name, fault classes first, in snapshot order.
pub fn slo_counter_names() -> Vec<&'static str> {
    let mut names = FAULT_CLASS_COUNTERS.to_vec();
    names.extend([
        RETRIES,
        FALLBACK_FRAMES,
        QUARANTINES,
        BREAKER_TRIPS,
        BREAKER_SKIPS,
    ]);
    names
}

// --- Fleet-serving endpoint metrics -----------------------------------
//
// The `fleet/*` namespace is the per-endpoint SLO surface of the
// multi-node serving layer (`pcount-fleet`): request/admission counters,
// queue instruments and the end-to-end request-latency histogram. The
// fleet simulation keeps its authoritative (deterministic, per-shard)
// accounting in its own report and mirrors these global instruments so
// traces see the serving layer next to everything else.

/// Counter: frames offered to the service front-end (requests).
pub const FLEET_REQUESTS: &str = "fleet/requests";
/// Counter: requests admitted past admission control into a shard queue.
pub const FLEET_ADMITTED: &str = "fleet/admitted";
/// Counter: requests shed by admission control (bounded queue full).
pub const FLEET_SHED: &str = "fleet/shed";
/// Counter: frames a backpressured node downsampled at the source.
pub const FLEET_DOWNSAMPLED: &str = "fleet/downsampled";
/// Counter: sensor gaps (dropped frames that never reached the service).
pub const FLEET_GAPS: &str = "fleet/gaps";
/// Counter: executed frames whose prediction reached room fusion.
pub const FLEET_FUSED: &str = "fleet/fused_frames";
/// Counter: executed frames withheld from fusion because their node was
/// quarantined at delivery time.
pub const FLEET_QUARANTINED_FRAMES: &str = "fleet/quarantined_frames";
/// Counter: sick-node quarantine trips.
pub const FLEET_QUARANTINE_TRIPS: &str = "fleet/quarantine_trips";
/// Counter: quarantined nodes readmitted after a clean streak.
pub const FLEET_READMISSIONS: &str = "fleet/readmissions";
/// Gauge: highest shard-queue depth observed in the most recent run.
pub const FLEET_QUEUE_DEPTH_PEAK: &str = "fleet/queue_depth_peak";
/// Gauge: worst per-shard error-budget burn of the most recent run
/// (milli-units, see [`ErrorBudget`]).
pub const FLEET_ERROR_BUDGET_BURN: &str = "fleet/error_budget_burn_milli";
/// Histogram: end-to-end request latency (arrival to completion) in
/// simulated nanoseconds.
pub const FLEET_REQUEST_LATENCY: &str = "fleet/request_latency_ns";
/// Histogram: shard queue depth sampled at every arrival.
pub const FLEET_QUEUE_DEPTH: &str = "fleet/queue_depth";

// The `fleet/failover_*` and `fleet/adaptive_*` names cover the shard
// crash/recovery drill and the burn-driven admission controller.

/// Counter: planned shard crashes executed during the run.
pub const FLEET_CRASHES: &str = "fleet/failover_crashes";
/// Counter: frames lost in a shard crash (queued at the crash instant
/// and disposed of without ever executing).
pub const FLEET_CRASH_LOST: &str = "fleet/failover_crash_lost";
/// Counter: frames re-routed off a crashing shard (either live from its
/// queue or admitted to a failover shard while the home shard was down).
pub const FLEET_REROUTED: &str = "fleet/failover_rerouted";
/// Counter: room migrations performed by crash/restart rebalancing.
pub const FLEET_MIGRATIONS: &str = "fleet/failover_migrations";
/// Counter: periodic shard checkpoints taken.
pub const FLEET_CHECKPOINTS: &str = "fleet/failover_checkpoints";
/// Histogram: shard recovery time (crash to first post-restart fused
/// delivery) in simulated nanoseconds.
pub const FLEET_RECOVERY_LATENCY: &str = "fleet/failover_recovery_ns";
/// Gauge: tightest effective high watermark any shard ended the most
/// recent run with (== the configured watermark when static).
pub const FLEET_ADAPTIVE_HIGH_WATERMARK: &str = "fleet/adaptive_high_watermark";
/// Gauge: widest downsample stride any shard ended the most recent run
/// with (2 = the static every-other-frame policy).
pub const FLEET_ADAPTIVE_DOWNSAMPLE_STRIDE: &str = "fleet/adaptive_downsample_stride";

/// An error budget: the fraction of frames a stream is allowed to degrade
/// (fallback or drop) before its SLO is considered spent.
///
/// Burn is reported in milli-units of the budget: `0` = untouched,
/// `1000` = exactly spent, above = blown. The milli scale keeps the gauge
/// integral (the registry has no float instrument) while resolving
/// fractions of a percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorBudget {
    /// Allowed degraded frames per 1000 frames (e.g. `50` = 5%).
    pub allowed_bad_per_mille: u64,
}

impl ErrorBudget {
    /// The budget burn, in milli-units, of `bad` degraded frames out of
    /// `total`. Zero-size streams and zero budgets burn `0` and the whole
    /// scale (`1000` per allowed fraction consumed) respectively.
    pub fn burn_milli(&self, bad: u64, total: u64) -> i64 {
        if total == 0 {
            return 0;
        }
        let allowed = total as f64 * self.allowed_bad_per_mille as f64 / 1000.0;
        if allowed <= 0.0 {
            // No budget at all: any degraded frame blows it outright.
            return if bad == 0 { 0 } else { i64::MAX };
        }
        (bad as f64 / allowed * 1000.0).round() as i64
    }

    /// Aggregate burn of many `(bad, total)` windows graded against one
    /// budget: the windows are pooled (bads and totals summed) before the
    /// burn is computed, so every frame weighs the same regardless of how
    /// the windows partition them. This is how a shard folds its nodes'
    /// windows into one per-shard burn — averaging per-node burns would
    /// let a large healthy node mask a small sick one.
    pub fn burn_milli_total<I: IntoIterator<Item = (u64, u64)>>(&self, windows: I) -> i64 {
        let (bad, total) = windows.into_iter().fold((0u64, 0u64), |(b, t), (wb, wt)| {
            (b.saturating_add(wb), t.saturating_add(wt))
        });
        self.burn_milli(bad, total)
    }
}

impl Default for ErrorBudget {
    /// 5% of frames may degrade — a lenient single-node default; fleet
    /// deployments will tighten this per stream.
    fn default() -> Self {
        Self {
            allowed_bad_per_mille: 50,
        }
    }
}

/// The SLO metrics of one measurement window (a stream, a node, or a
/// merge of several): per-counter totals, the error-budget burn and the
/// recovery-latency distribution.
///
/// The `Default` value is an empty window (no counters, zero burn), the
/// identity of [`SloSnapshot::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSnapshot {
    /// `(name, total)` for every counter of the window, in the
    /// producer's canonical order ([`slo_counter_names`] for a stream).
    pub counters: Vec<(&'static str, u64)>,
    /// Error-budget burn of the window (milli-units), the value its
    /// producer writes to the [`ERROR_BUDGET_BURN`] gauge.
    pub error_budget_burn_milli: i64,
    /// Recovery-latency distribution of the window (simulated ns).
    pub recovery_latency: HistogramSummary,
    /// Raw bucket counts behind [`SloSnapshot::recovery_latency`]. Kept so
    /// snapshots [`merge`](SloSnapshot::merge) exactly: percentiles of a
    /// union cannot be derived from two summaries, but they can from the
    /// summed buckets.
    pub recovery_counts: HistogramCounts,
}

impl SloSnapshot {
    /// A window of `counters`, graded at `error_budget_burn_milli`, with
    /// the recovery latencies in `recovery_counts` (the summary is
    /// derived from them).
    pub fn new(
        counters: Vec<(&'static str, u64)>,
        error_budget_burn_milli: i64,
        recovery_counts: HistogramCounts,
    ) -> Self {
        Self {
            counters,
            error_budget_burn_milli,
            recovery_latency: recovery_counts.summarize(),
            recovery_counts,
        }
    }

    /// Folds two windows into one: counters are summed by name (the union
    /// of both name sets, in `self`-then-new order), the recovery-latency
    /// distribution is the bucket-wise sum of both windows (summary
    /// recomputed from the merged buckets, so merged percentiles are as
    /// exact as any single capture's), and the budget burn is the **worst**
    /// of the two — a gauge of the most-degraded window, not an average a
    /// healthy sibling could dilute. (Pooled cross-window burn is computed
    /// from raw `(bad, total)` windows via
    /// [`ErrorBudget::burn_milli_total`], which a summed gauge cannot
    /// reconstruct.)
    ///
    /// Merging is associative and order-independent up to counter order,
    /// and [`SloSnapshot::default`] is its identity — so shards can fold
    /// any number of node snapshots in any grouping and agree on every
    /// number (property-tested in `tests/slo_merge.rs`).
    pub fn merge(&self, other: &SloSnapshot) -> SloSnapshot {
        let mut counters = self.counters.clone();
        for &(name, v) in &other.counters {
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => counters.push((name, v)),
            }
        }
        SloSnapshot::new(
            counters,
            self.error_budget_burn_milli
                .max(other.error_budget_burn_milli),
            self.recovery_counts.merge(&other.recovery_counts),
        )
    }

    /// Sum of the per-fault-class counters (injected fault events).
    pub fn total_faults(&self) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with("resilience/fault/"))
            .map(|&(_, v)| v)
            .sum()
    }
}

/// The snapshot as a JSON object, the `"slo"` block of
/// `BENCH_robust.json` and of the fleet's shard reports.
impl From<&SloSnapshot> for JsonValue {
    fn from(s: &SloSnapshot) -> Self {
        JsonValue::object([
            (
                "counters",
                JsonValue::object(s.counters.iter().map(|&(name, v)| (name, v.into()))),
            ),
            ("error_budget_burn_milli", s.error_budget_burn_milli.into()),
            ("recovery_latency_ns", (&s.recovery_latency).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_budget_burn_scales_in_milli_units() {
        let budget = ErrorBudget {
            allowed_bad_per_mille: 50, // 5%
        };
        // 5 bad of 100 frames = exactly the budget.
        assert_eq!(budget.burn_milli(5, 100), 1000);
        // Half / double the allowance.
        assert_eq!(budget.burn_milli(5, 200), 500);
        assert_eq!(budget.burn_milli(10, 100), 2000);
        // Edges.
        assert_eq!(budget.burn_milli(0, 100), 0);
        assert_eq!(budget.burn_milli(0, 0), 0);
        let none = ErrorBudget {
            allowed_bad_per_mille: 0,
        };
        assert_eq!(none.burn_milli(0, 10), 0);
        assert_eq!(none.burn_milli(1, 10), i64::MAX);
    }

    #[test]
    fn new_snapshot_summarises_its_recovery_counts() {
        let mut recovery = HistogramCounts::empty();
        recovery.record(1_000);
        recovery.record(3_000);
        let counters = vec![(FAULT_CLASS_COUNTERS[0], 1), (RETRIES, 3)];
        let snap = SloSnapshot::new(counters, 250, recovery.clone());
        assert_eq!(snap.total_faults(), 1, "only fault classes count as faults");
        assert_eq!(snap.recovery_latency, recovery.summarize());
        assert_eq!(snap.recovery_latency.count, 2);
        let json = JsonValue::from(&snap).to_string();
        assert!(json.contains("\"resilience/retries\":3"));
        assert!(json.contains("\"error_budget_burn_milli\":250"));
        assert!(json.contains("\"recovery_latency_ns\""));
    }
}
