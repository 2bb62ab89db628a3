//! Robustness measurement: accuracy-vs-fault-rate sweeps.
//!
//! [`evaluate_robustness`] injects a [`FaultPlan`] at a monotone sequence
//! of intensities, supervises each injected stream through a
//! [`ResilientDeployment`] and reports, per swept point, the realised
//! fault rate, the end-to-end accuracy of the *emitted* (smoothed/held)
//! predictions against the clean labels, and the recovery statistics.
//! The report converts to the [`JsonValue`] block of `BENCH_robust.json`.

use crate::deploy::{ResilienceConfig, ResilientDeployment};
use crate::fault::{FaultConfig, FaultPlan};
use pcount_isa::SimError;
use pcount_kernels::Deployment;
use pcount_telemetry::{JsonValue, SloSnapshot};
use pcount_tensor::Tensor;

/// One swept intensity point of a robustness curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// The intensity knob handed to [`FaultConfig::uniform`].
    pub intensity: f64,
    /// Realised fraction of ticks touched by at least one fault.
    pub fault_rate: f64,
    /// Ticks in the injected stream (drops keep slots, duplicates add).
    pub ticks: usize,
    /// Emitted-prediction accuracy against the clean per-source labels.
    pub accuracy: f64,
    /// Ticks recovered by a retry.
    pub recovered: usize,
    /// Ticks degraded to a fallback prediction.
    pub fallbacks: usize,
    /// Dropped-frame ticks.
    pub gaps: usize,
    /// Ticks shed by the circuit breaker.
    pub breaker_skips: usize,
    /// Circuit-breaker trips.
    pub breaker_trips: usize,
    /// Retry attempts beyond first tries.
    pub retries: u64,
    /// Error-budget burn of the stream (milli-units).
    pub error_budget_burn_milli: i64,
    /// Mean simulated recovery latency over faulted ticks, in
    /// milliseconds (backoff plus wasted core cycles; `0` when nothing
    /// faulted).
    pub mean_recovery_ms: f64,
}

/// The point as a JSON object.
impl From<&RobustnessPoint> for JsonValue {
    fn from(p: &RobustnessPoint) -> Self {
        JsonValue::object([
            ("intensity", p.intensity.into()),
            ("fault_rate", p.fault_rate.into()),
            ("ticks", p.ticks.into()),
            ("accuracy", p.accuracy.into()),
            ("recovered", p.recovered.into()),
            ("fallbacks", p.fallbacks.into()),
            ("gaps", p.gaps.into()),
            ("breaker_skips", p.breaker_skips.into()),
            ("breaker_trips", p.breaker_trips.into()),
            ("retries", p.retries.into()),
            ("error_budget_burn_milli", p.error_budget_burn_milli.into()),
            ("mean_recovery_ms", p.mean_recovery_ms.into()),
        ])
    }
}

/// A full robustness sweep: one point per intensity (reported along the
/// monotone intensity axis) plus the merged SLO snapshot of its streams.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Swept points, in strictly increasing intensity order.
    pub points: Vec<RobustnessPoint>,
    /// Accuracy of the zero-fault supervised stream (the floor faults
    /// degrade from).
    pub baseline_accuracy: f64,
    /// The reported points' stream snapshots merged with
    /// [`SloSnapshot::merge`]: counters summed, the worst burn, the union
    /// of the recovery latencies.
    pub slo: SloSnapshot,
}

/// The report as a JSON object (the `robustness` block of
/// `BENCH_robust.json`).
impl From<&RobustnessReport> for JsonValue {
    fn from(r: &RobustnessReport) -> Self {
        JsonValue::object([
            ("baseline_accuracy", r.baseline_accuracy.into()),
            (
                "points",
                JsonValue::array(r.points.iter().map(JsonValue::from)),
            ),
            ("slo", (&r.slo).into()),
        ])
    }
}

/// Sweeps fault intensity over `frames`/`labels` and measures the
/// supervised stream at each point.
///
/// `intensities` must be strictly increasing (the curve is reported
/// along a monotone axis) and should start at `0.0` to anchor the
/// baseline; when it does not, the baseline point is measured anyway
/// (but not reported as a sweep point). Faults at every point are drawn
/// from `fault_seed`, so the whole sweep is reproducible.
///
/// # Errors
///
/// Propagates pool-warmup simulator faults ([`Deployment::make_pool`]);
/// the supervised streams themselves never abort.
///
/// # Panics
///
/// Panics if `intensities` is not strictly increasing or `labels` does
/// not match `frames`.
pub fn evaluate_robustness(
    deployment: &Deployment,
    frames: &Tensor,
    labels: &[usize],
    cfg: &ResilienceConfig,
    fault_seed: u64,
    intensities: &[f64],
    pool_threads: usize,
) -> Result<RobustnessReport, SimError> {
    assert_eq!(frames.shape()[0], labels.len(), "one label per frame");
    assert!(
        intensities.windows(2).all(|w| w[0] < w[1]),
        "intensities must be strictly increasing"
    );
    let supervised = ResilientDeployment::new(deployment.clone(), cfg.clone());
    let run_point = |intensity: f64| -> Result<(RobustnessPoint, SloSnapshot), SimError> {
        let plan = FaultPlan::new(fault_seed, FaultConfig::uniform(intensity));
        let stream = plan.inject(frames);
        let mut pool = deployment.make_pool(pool_threads)?;
        let report = supervised.run_stream(&stream, &mut pool);
        let correct = report
            .outcomes
            .iter()
            .filter(|o| o.emitted == labels[o.source_index])
            .count();
        let accuracy = if report.outcomes.is_empty() {
            0.0
        } else {
            correct as f64 / report.outcomes.len() as f64
        };
        let faulted = report.stats.recovered_ticks + report.stats.fallback_ticks;
        let mean_recovery_ms = if faulted == 0 {
            0.0
        } else {
            (report.stats.total_backoff_ms as f64
                + report.stats.wasted_cycles as f64 / cfg.clock_hz.max(1) as f64 * 1_000.0)
                / faulted as f64
        };
        let point = RobustnessPoint {
            intensity,
            fault_rate: stream.fault_rate(),
            ticks: stream.ticks.len(),
            accuracy,
            recovered: report.stats.recovered_ticks,
            fallbacks: report.stats.fallback_ticks,
            gaps: report.stats.gap_ticks,
            breaker_skips: report.stats.breaker_skips,
            breaker_trips: report.stats.breaker_trips,
            retries: report.stats.retries,
            error_budget_burn_milli: report.error_budget_burn_milli,
            mean_recovery_ms,
        };
        Ok((point, report.slo))
    };
    let baseline_accuracy = if intensities.first() == Some(&0.0) {
        // Reuse the first sweep point below; computed there.
        None
    } else {
        Some(run_point(0.0)?.0.accuracy)
    };
    let mut points = Vec::with_capacity(intensities.len());
    let mut slo = SloSnapshot::default();
    for &intensity in intensities {
        let (point, stream_slo) = run_point(intensity)?;
        points.push(point);
        slo = slo.merge(&stream_slo);
    }
    let baseline_accuracy =
        baseline_accuracy.unwrap_or_else(|| points.first().map_or(0.0, |p| p.accuracy));
    Ok(RobustnessReport {
        points,
        baseline_accuracy,
        slo,
    })
}
