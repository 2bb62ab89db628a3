//! Chaos suite for the resilience layer.
//!
//! The acceptance bar of the robustness subsystem: with fault injection
//! disabled the supervised stream is bit-identical to the plain
//! [`Deployment`]; with faults at a fixed seed the results reproduce
//! across pool widths 1 and 4; no injected fault class can abort the
//! stream; a faulted frame can never leak corrupted CPU state into a
//! later frame's logits; and every SLO snapshot is counted by the stream
//! itself, equal with telemetry recording or not.

use pcount_kernels::{Deployment, Target, INSTRUCTION_BUDGET};
use pcount_nn::{CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_resilience::{
    evaluate_robustness, AttemptOutcome, FaultClass, FaultConfig, FaultPlan, ResilienceConfig,
    ResilientDeployment, StallFault, TickStatus,
};
use pcount_telemetry::{slo, JsonValue};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small trained + quantised CNN and a batch of sample frames.
fn deployed_model(seed: u64, n: usize) -> (QuantizedCnn, Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Tensor::zeros(&[n, 1, 8, 8]);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let class = rng.gen_range(0..4usize);
        x.set(&[i, 0, 2 + class, 3], 3.0);
        for h in 0..8 {
            for w in 0..8 {
                let v = x.at(&[i, 0, h, w]) + rng.gen_range(-0.2..0.2);
                x.set(&[i, 0, h, w], v);
            }
        }
        y.push(class);
    }
    let cfg = CnnConfig::seed().with_channels(6, 6, 12);
    let mut net = cfg.build(&mut rng);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 12,
        learning_rate: 2e-3,
        weight_decay: 0.0,
    };
    let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, &mut rng);
    let folded = fold_sequential(cfg, &net).expect("fold");
    let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
    qat.calibrate(&x);
    (QuantizedCnn::from_qat(&qat), x, y)
}

fn frame(x: &Tensor, i: usize) -> &[f32] {
    &x.data()[i * 64..(i + 1) * 64]
}

#[test]
fn faults_off_is_bit_identical_to_the_plain_deployment() {
    let (model, x, _) = deployed_model(30, 16);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let stream = FaultPlan::new(99, FaultConfig::off()).inject(&x);
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let mut pool = d.make_pool(2).expect("pool");
    let report = supervised.run_stream(&stream, &mut pool);
    assert_eq!(report.outcomes.len(), 16);
    assert_eq!(report.stats.degraded_ticks(), 0);
    assert_eq!(report.error_budget_burn_milli, 0);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(outcome.status, TickStatus::Ok);
        assert_eq!(outcome.backoff_ms, 0);
        let clean = d.run_frame(frame(&x, i)).expect("clean run");
        // Bit-identical: logits, prediction, cycles, instret, sdotp,
        // pipeline and memory stats all compare equal.
        assert_eq!(outcome.run.as_ref(), Some(&clean), "tick {i}");
    }
}

#[test]
fn fixed_seed_faults_reproduce_across_pool_widths_1_and_4() {
    let (model, x, _) = deployed_model(31, 20);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let stream = FaultPlan::new(5, FaultConfig::uniform(0.35)).inject(&x);
    // The injection itself is bit-reproducible across runs.
    assert_eq!(
        stream,
        FaultPlan::new(5, FaultConfig::uniform(0.35)).inject(&x)
    );
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let mut reports = Vec::new();
    for width in [1usize, 4] {
        let runtime_pool = pcount_runtime::Pool::new(width);
        let report = pcount_runtime::install(&runtime_pool, || {
            let mut pool = d.make_pool(width).expect("pool");
            supervised.run_stream(&stream, &mut pool)
        });
        reports.push(report);
    }
    let (a, b) = (&reports[0], &reports[1]);
    assert_eq!(a.outcomes, b.outcomes, "outcomes diverged across widths");
    assert_eq!(a.stats, b.stats, "stats diverged across widths");
    assert_eq!(a.error_budget_burn_milli, b.error_budget_burn_milli);
}

#[test]
fn no_single_fault_class_can_abort_the_stream() {
    let (model, x, _) = deployed_model(32, 12);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    for class in FaultClass::ALL {
        let mut cfg = FaultConfig::off();
        match class {
            FaultClass::Drop => cfg.drop_rate = 0.9,
            FaultClass::Duplicate => cfg.duplicate_rate = 0.9,
            FaultClass::StuckPixels => cfg.stuck_rate = 0.9,
            FaultClass::Saturation => cfg.saturation_rate = 0.9,
            FaultClass::NoiseBurst => cfg.noise_rate = 0.9,
            FaultClass::ClockJitter => cfg.jitter_rate = 0.9,
            FaultClass::Stall => {
                cfg.stall_rate = 0.9;
                cfg.stall_persistence_max = 5; // often unrecoverable
            }
        }
        let stream = FaultPlan::new(17, cfg).inject(&x);
        let mut pool = d.make_pool(2).expect("pool");
        let report = supervised.run_stream(&stream, &mut pool);
        // The stream ran to completion and emitted a prediction per tick.
        assert_eq!(
            report.outcomes.len(),
            stream.ticks.len(),
            "{} stream aborted early",
            class.name()
        );
        assert!(
            report.stats.ok_ticks
                + report.stats.recovered_ticks
                + report.stats.fallback_ticks
                + report.stats.gap_ticks
                + report.stats.breaker_skips
                == report.stats.ticks,
            "{} outcome accounting leaks ticks",
            class.name()
        );
    }
}

#[test]
fn a_faulted_frame_cannot_perturb_the_next_frames_logits() {
    let (model, x, _) = deployed_model(33, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    // Hand-craft a stream: frame 3 carries an unrecoverable stall (its
    // every attempt times out mid-inference, leaving torn CPU state
    // behind each time); every other frame is clean.
    let mut stream = FaultPlan::new(0, FaultConfig::off()).inject(&x);
    stream.ticks[3].stall = Some(StallFault {
        budget: 20_000,
        persistence: u32::MAX,
    });
    stream.ticks[3].faults.push(FaultClass::Stall);
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    // Width 1 forces every tick through the *same* pooled CPU — the
    // worst case for state leakage out of the faulted frame.
    let runtime_pool = pcount_runtime::Pool::new(1);
    let report = pcount_runtime::install(&runtime_pool, || {
        let mut pool = d.make_pool(1).expect("pool");
        supervised.run_stream(&stream, &mut pool)
    });
    assert_eq!(report.outcomes[3].status, TickStatus::Fallback);
    assert!(report.stats.quarantines > 0, "faulted CPU was never reset");
    for i in (0..8).filter(|&i| i != 3) {
        let clean = d.run_frame(frame(&x, i)).expect("clean run");
        assert_eq!(
            report.outcomes[i].run.as_ref(),
            Some(&clean),
            "frame {i} perturbed by the fault on frame 3"
        );
    }
}

#[test]
fn transient_stalls_recover_through_retries() {
    let (model, x, _) = deployed_model(34, 6);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let mut stream = FaultPlan::new(0, FaultConfig::off()).inject(&x);
    // Persistence 1 < allowed attempts (3): the first retry succeeds.
    stream.ticks[2].stall = Some(StallFault {
        budget: 10_000,
        persistence: 1,
    });
    stream.ticks[2].faults.push(FaultClass::Stall);
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let mut pool = d.make_pool(2).expect("pool");
    let report = supervised.run_stream(&stream, &mut pool);
    assert_eq!(
        report.outcomes[2].status,
        TickStatus::Recovered { failed_attempts: 1 }
    );
    assert!(report.outcomes[2].backoff_ms > 0, "no backoff recorded");
    assert_eq!(report.stats.retries, 1);
    assert_eq!(report.stats.fallback_ticks, 0);
    // The recovered inference is still the bit-exact clean result.
    let clean = d.run_frame(frame(&x, 2)).expect("clean run");
    assert_eq!(report.outcomes[2].run.as_ref(), Some(&clean));
}

#[test]
fn prediction_attempts_match_the_simulator_and_simulate_only_short_budgets() {
    let (model, x, _) = deployed_model(38, 2);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let frame = frame(&x, 0);
    let full_run = d.run_frame(frame).expect("clean run");
    let base = d.make_pool(1).expect("pool").base().clone();
    let stall = |persistence| {
        Some(StallFault {
            budget: 10_000,
            persistence,
        })
    };
    // At the default budget a full-budget attempt runs on the golden
    // model; one instruction below it, every attempt simulates.
    for (budget, simulated) in [(INSTRUCTION_BUDGET, false), (INSTRUCTION_BUDGET - 1, true)] {
        let supervised = ResilientDeployment::new(
            d.clone(),
            ResilienceConfig {
                budget,
                ..ResilienceConfig::default()
            },
        );
        // Persistence 1 and 2 recover; 3 or more outlasts the three
        // allowed attempts and falls back.
        for stall in [None, stall(1), stall(2), stall(3), stall(u32::MAX)] {
            let reference = supervised.attempt_frame(&mut base.clone(), &base, frame, stall);
            let mut cpu = base.clone();
            let routed = supervised.attempt_prediction(&mut cpu, &base, frame, stall);
            assert_eq!(
                routed,
                AttemptOutcome {
                    success: reference.success.map(|run| run.prediction),
                    failed_attempts: reference.failed_attempts,
                    wasted_cycles: reference.wasted_cycles,
                },
                "budget {budget}, {stall:?}"
            );
            let persistence = stall.map_or(0, |s| s.persistence);
            assert_eq!(routed.failed_attempts, persistence.min(3));
            assert_eq!(routed.success.is_none(), persistence >= 3);
            assert_eq!(routed.wasted_cycles > 0, persistence > 0);
            // A simulated success leaves the CPU having retired the whole
            // inference; the golden model leaves it where the last
            // stalled attempt, or the pristine base, left it.
            if routed.success.is_some() {
                assert_eq!(cpu.instret == full_run.instructions, simulated);
            }
        }
    }
}

#[test]
fn consecutive_unrecoverable_faults_trip_the_breaker() {
    let (model, x, _) = deployed_model(35, 24);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let mut stream = FaultPlan::new(0, FaultConfig::off()).inject(&x);
    // Ticks 4..12 all carry unrecoverable stalls: with the default
    // threshold of 4 the breaker trips and sheds the following ticks.
    for i in 4..12 {
        stream.ticks[i].stall = Some(StallFault {
            budget: 10_000,
            persistence: u32::MAX,
        });
        stream.ticks[i].faults.push(FaultClass::Stall);
    }
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let mut pool = d.make_pool(2).expect("pool");
    let report = supervised.run_stream(&stream, &mut pool);
    assert!(report.stats.breaker_trips > 0, "breaker never tripped");
    assert!(report.stats.breaker_skips > 0, "breaker shed nothing");
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.status == TickStatus::BreakerOpen));
    // Shedding keeps emitting held predictions; after the faulty window
    // the stream recovers to fresh inferences.
    assert_eq!(report.outcomes.len(), 24);
    assert!(report.outcomes[20..]
        .iter()
        .all(|o| o.status == TickStatus::Ok));
    assert!(report.error_budget_burn_milli > 0);
}

#[test]
fn dropped_frames_hold_the_last_good_prediction() {
    let (model, x, _) = deployed_model(36, 10);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let mut cfg = FaultConfig::off();
    cfg.drop_rate = 0.5;
    let stream = FaultPlan::new(21, cfg).inject(&x);
    let gaps = stream.ticks.iter().filter(|t| t.frame.is_none()).count();
    assert!(gaps > 0, "seed produced no drops");
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let mut pool = d.make_pool(2).expect("pool");
    let report = supervised.run_stream(&stream, &mut pool);
    assert_eq!(report.stats.gap_ticks, gaps);
    for outcome in &report.outcomes {
        if outcome.status == TickStatus::Gap {
            assert!(outcome.run.is_none());
            // The emitted value is always defined (hold-last-good or the
            // empty-room default) — a gap never kills the output stream.
            assert!(outcome.emitted < 4);
        }
    }
}

#[test]
fn robustness_sweep_reports_monotone_intensities_and_bounded_degradation() {
    let (model, x, y) = deployed_model(37, 18);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let report = evaluate_robustness(
        &d,
        &x,
        &y,
        &ResilienceConfig::default(),
        123,
        &[0.0, 0.2, 0.5],
        2,
    )
    .expect("sweep");
    assert_eq!(report.points.len(), 3);
    assert!(report
        .points
        .windows(2)
        .all(|w| w[0].intensity < w[1].intensity));
    assert_eq!(report.points[0].fault_rate, 0.0);
    assert!(report.points[1].fault_rate <= report.points[2].fault_rate);
    assert_eq!(report.baseline_accuracy, report.points[0].accuracy);
    for p in &report.points {
        assert!((0.0..=1.0).contains(&p.accuracy), "accuracy out of range");
    }
    let json = JsonValue::from(&report);
    for key in ["baseline_accuracy", "points", "slo"] {
        assert!(json.get(key).is_some(), "report JSON lacks {key}");
    }
    assert!(json
        .get("slo")
        .and_then(|slo| slo.get("error_budget_burn_milli"))
        .is_some());
    // Reproducible: the identical sweep converts to an equal value.
    let again = evaluate_robustness(
        &d,
        &x,
        &y,
        &ResilienceConfig::default(),
        123,
        &[0.0, 0.2, 0.5],
        4,
    )
    .expect("sweep");
    assert_eq!(json, JsonValue::from(&again));
}

#[test]
fn slo_snapshots_count_the_stream_with_telemetry_off_or_on() {
    let (model, x, y) = deployed_model(39, 24);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let mut stream = FaultPlan::new(7, FaultConfig::uniform(0.3)).inject(&x);
    // A run of unrecoverable stalls falls back and trips the breaker.
    for tick in stream.ticks.iter_mut().skip(4).take(8) {
        if tick.frame.is_some() {
            tick.stall = Some(StallFault {
                budget: 10_000,
                persistence: u32::MAX,
            });
            tick.faults.push(FaultClass::Stall);
        }
    }
    let supervised = ResilientDeployment::new(d.clone(), ResilienceConfig::default());
    let run = || {
        let mut pool = d.make_pool(2).expect("pool");
        let stream_report = supervised.run_stream(&stream, &mut pool);
        let cfg = ResilienceConfig::default();
        let sweep = evaluate_robustness(&d, &x, &y, &cfg, 123, &[0.0, 0.2, 0.5], 2);
        (stream_report, sweep.expect("sweep"))
    };
    let (quiet, quiet_sweep) = run();
    pcount_telemetry::set_enabled(true);
    let (traced, traced_sweep) = run();
    pcount_telemetry::set_enabled(false);
    assert_eq!(quiet.slo, traced.slo, "telemetry changed a stream's SLO");
    assert_eq!(
        quiet_sweep.slo, traced_sweep.slo,
        "telemetry changed the sweep's SLO"
    );

    let stats = quiet.stats;
    assert!(stats.recovered_ticks > 0 && stats.fallback_ticks > 0);
    assert!(stats.breaker_trips > 0 && stats.breaker_skips > 0);
    let get = |snapshot: &pcount_telemetry::SloSnapshot, name: &str| {
        let found = snapshot.counters.iter().find(|(n, _)| *n == name);
        found.map(|&(_, v)| v)
    };
    assert_eq!(quiet.slo.counters.len(), 12);
    for (class, count) in FaultClass::ALL.into_iter().zip(stream.fault_counts()) {
        let name = format!("resilience/fault/{}", class.name());
        assert_eq!(get(&quiet.slo, &name), Some(count), "{name}");
    }
    for (name, count) in [
        (slo::RETRIES, stats.retries),
        (slo::FALLBACK_FRAMES, stats.fallback_ticks as u64),
        (slo::QUARANTINES, stats.quarantines),
        (slo::BREAKER_TRIPS, stats.breaker_trips as u64),
        (slo::BREAKER_SKIPS, stats.breaker_skips as u64),
    ] {
        assert_eq!(get(&quiet.slo, name), Some(count), "{name}");
    }
    assert_eq!(
        quiet.slo.recovery_latency.count,
        (stats.recovered_ticks + stats.fallback_ticks) as u64
    );
    assert_eq!(
        quiet.slo.error_budget_burn_milli,
        quiet.error_budget_burn_milli
    );

    // The sweep's snapshot merges its reported points' streams.
    let points = &quiet_sweep.points;
    assert!(quiet_sweep.slo.total_faults() > 0);
    let retries = points.iter().map(|p| p.retries).sum::<u64>();
    assert_eq!(get(&quiet_sweep.slo, slo::RETRIES), Some(retries));
    let recovered = points
        .iter()
        .map(|p| p.recovered + p.fallbacks)
        .sum::<usize>();
    assert_eq!(quiet_sweep.slo.recovery_latency.count, recovered as u64);
    let worst_burn = points.iter().map(|p| p.error_budget_burn_milli).max();
    assert_eq!(Some(quiet_sweep.slo.error_budget_burn_milli), worst_burn);
}
