//! Chaos bench: accuracy-vs-fault-rate curves of the supervised
//! streaming deployment, written to `BENCH_robust.json` at the workspace
//! root so the robustness trajectory stays machine-readable across PRs.
//!
//! The bench records frames/s of the plain pooled batch and of the
//! supervised stream at fault intensity 0.1, and runs the
//! timing-independent chaos tripwires in every mode (including
//! `BENCH_SMOKE=1`):
//!
//! * zero-intensity supervision is bit-identical to the plain
//!   [`Deployment`] (logits, cycles, instret);
//! * a seeded fault sweep is bit-reproducible run-to-run and across pool
//!   widths 1 and 4 (the CI chaos-smoke gate);
//! * every swept stream completes with fallbacks/holds instead of
//!   aborting, and the end-to-end accuracy degrades boundedly;
//! * the sweep's SLO snapshot carries the retry, fallback, quarantine
//!   and fault counters, and the written `BENCH_robust.json` parses back
//!   with its `robustness.points` and `robustness.slo.counters` blocks.
//!
//! `BENCH_SMOKE=1` runs a shorter stream, shrinks the timing windows and
//! writes `target/bench-smoke/BENCH_robust.json` instead.

use pcount_bench::{calls_per_s, smoke_mode, write_bench_json};
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_kernels::{Deployment, Target};
use pcount_resilience::{
    evaluate_robustness, FaultConfig, FaultPlan, ResilienceConfig, ResilientDeployment, TickStatus,
};
use pcount_telemetry::JsonValue;
use pcount_tensor::Tensor;
use std::hint::black_box;

/// Seed of the demo model, the streamed session and the fault plans.
const SEED: u64 = 7;
/// Fault-plan seed of the swept curves (reported in the JSON).
const FAULT_SEED: u64 = 123;
/// Worker threads of the reported sweep.
const POOL_THREADS: usize = 4;
/// Intensity axis of the reported robustness curve.
const INTENSITIES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// The deployed demo model plus a labelled IR frame stream (the first
/// `n` frames of a held-out session, in temporal order).
fn deployed_stream(n: usize) -> (Deployment, Tensor, Vec<usize>) {
    let (model, _) = pcount_bench::demo_int8_model(SEED);
    let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let data = IrDataset::generate(&DatasetConfig::tiny(), SEED);
    let (x, y) = data.session_stream(data.num_sessions() - 1);
    let n = n.min(y.len());
    let frames = Tensor::from_vec(x.data()[..n * 64].to_vec(), &[n, 1, 8, 8]);
    (deployment, frames, y[..n].to_vec())
}

/// Zero-intensity supervision must add nothing: every tick is `Ok` and
/// bit-identical to the plain pooled batch.
fn check_transparent_when_healthy(d: &Deployment, frames: &Tensor) {
    let stream = FaultPlan::new(FAULT_SEED, FaultConfig::off()).inject(frames);
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let plain = d
        .run_batch(frames, &d.make_pool(POOL_THREADS).expect("pool"))
        .expect("plain batch");
    let mut pool = d.make_pool(POOL_THREADS).expect("pool");
    let report = supervised.run_stream(&stream, &mut pool);
    assert_eq!(report.stats.degraded_ticks(), 0, "healthy stream degraded");
    for (i, (outcome, clean)) in report.outcomes.iter().zip(&plain).enumerate() {
        assert_eq!(outcome.status, TickStatus::Ok, "tick {i}");
        assert_eq!(
            outcome.run.as_ref(),
            Some(clean),
            "supervision perturbed tick {i}"
        );
    }
}

/// Checks the `BENCH_robust.json` read back from disk: a non-empty sweep
/// and an SLO counter block.
fn validate_bench_json(bench: &JsonValue) {
    let robust = bench.get("robustness").expect("robustness block");
    let points = robust
        .get("points")
        .and_then(JsonValue::as_array)
        .expect("robustness.points array");
    assert!(!points.is_empty(), "robustness sweep has no points");
    let Some(JsonValue::Object(counters)) = robust.get("slo").and_then(|slo| slo.get("counters"))
    else {
        panic!("robustness.slo.counters is not an object");
    };
    assert!(!counters.is_empty(), "robustness.slo.counters is empty");
    println!(
        "BENCH_robust.json OK: {} points, {} SLO counters",
        points.len(),
        counters.len()
    );
}

fn main() {
    let smoke = smoke_mode();
    let n = if smoke { 16 } else { 48 };
    let (deployment, frames, labels) = deployed_stream(n);

    check_transparent_when_healthy(&deployment, &frames);

    // The reported sweep runs with telemetry on so the SLO counter block
    // of `BENCH_robust.json` is populated; recording never changes any
    // computed result.
    pcount_telemetry::set_enabled(true);
    let report = evaluate_robustness(
        &deployment,
        &frames,
        &labels,
        &ResilienceConfig::default(),
        FAULT_SEED,
        &INTENSITIES,
        POOL_THREADS,
    )
    .expect("sweep");
    let json = JsonValue::from(&report);

    // Chaos-smoke gate (a): every stream completed — one outcome per
    // tick, faults absorbed as retries/fallbacks/holds, never an abort.
    for p in &report.points {
        assert!(p.ticks > 0, "intensity {} produced no ticks", p.intensity);
        assert!(
            (0.0..=1.0).contains(&p.accuracy),
            "accuracy out of range at intensity {}",
            p.intensity
        );
    }
    let max_point = report.points.last().expect("points");
    assert!(
        max_point.fault_rate > 0.0,
        "top intensity injected no faults"
    );
    assert!(
        report.baseline_accuracy - max_point.accuracy <= 0.5,
        "degradation unbounded: {:.3} -> {:.3}",
        report.baseline_accuracy,
        max_point.accuracy
    );
    // Chaos-smoke gate (b): the seeded sweep is bit-reproducible, and
    // pool width does not leak into any reported number.
    let again = evaluate_robustness(
        &deployment,
        &frames,
        &labels,
        &ResilienceConfig::default(),
        FAULT_SEED,
        &INTENSITIES,
        1,
    )
    .expect("re-sweep");
    pcount_telemetry::set_enabled(false);
    assert_eq!(
        json,
        JsonValue::from(&again),
        "sweep not reproducible across runs/pool widths"
    );
    // The SLO counter block is present and accounted; the written JSON
    // is parsed back below.
    for name in [
        "resilience/retries",
        "resilience/fallback_frames",
        "resilience/quarantines",
        "resilience/fault/drop",
    ] {
        assert!(
            report.slo.counters.iter().any(|&(n, _)| n == name),
            "missing SLO counter {name}"
        );
    }
    assert!(report.slo.total_faults() > 0, "sweep recorded no faults");

    println!("resilience summary (demo INT8 model, seeded faults):");
    println!("  baseline accuracy: {:.3}", report.baseline_accuracy);
    for p in &report.points {
        println!(
            "  intensity {:.2}: fault_rate {:.3}, accuracy {:.3}, \
             {} recovered / {} fallback / {} gap / {} shed, burn {} milli",
            p.intensity,
            p.fault_rate,
            p.accuracy,
            p.recovered,
            p.fallbacks,
            p.gaps,
            p.breaker_skips,
            p.error_budget_burn_milli
        );
    }

    // Frames/s of the session through the plain pooled batch and through
    // the supervised stream under faults, each on a pool built once.
    let supervised = ResilientDeployment::new(deployment.clone(), ResilienceConfig::default());
    let faulted = FaultPlan::new(FAULT_SEED, FaultConfig::uniform(0.1)).inject(&frames);
    let mut pool = deployment.make_pool(POOL_THREADS).expect("pool");
    let session_frames = frames.shape()[0] as f64;
    let plain_fps = calls_per_s(|| {
        deployment
            .run_batch(black_box(&frames), &pool)
            .expect("batch")
    })
    .scaled(session_frames);
    let supervised_fps = calls_per_s(|| supervised.run_stream(black_box(&faulted), &mut pool))
        .scaled(session_frames);
    println!(
        "  frames/s (medians): plain batch {:.0}, supervised stream at intensity 0.1 {:.0}",
        plain_fps.median, supervised_fps.median
    );

    let bench = write_bench_json(
        "BENCH_robust.json",
        "resilience",
        [
            ("frames", n.into()),
            ("pool_threads", POOL_THREADS.into()),
            ("fault_seed", FAULT_SEED.into()),
            ("plain_batch_frames_per_s", plain_fps.into()),
            (
                "supervised_frames_per_s_intensity_0.1",
                supervised_fps.into(),
            ),
            ("robustness", json),
        ],
    );
    validate_bench_json(&bench);
}
