//! Fleet serving bench: load ramps and fault storms over the
//! `pcount-fleet` co-simulation, written to `BENCH_serve.json` at the
//! workspace root so the serving-layer trajectory (p50/p99 latency,
//! queue depths, shed/quarantine counts, per-shard error-budget burn)
//! stays machine-readable across PRs.
//!
//! The bench records frames/s of the default fleet's run, and runs the
//! timing-independent serve tripwires in every mode (including
//! `BENCH_SMOKE=1`):
//!
//! * a ≥200-node fleet run completes with every delivery slot disposed
//!   of exactly once — no node fault ever aborts the service;
//! * the same fleet seed is bit-reproducible across pool widths 1 and 4
//!   (identical occupancy trajectory digest and report JSON), with and
//!   without shard crashes in the schedule;
//! * the load ramp actually bites: the hardest level sheds or
//!   downsamples, and the bounded queue never exceeds its cap;
//! * a crash storm (half the shards die mid-run and restart from their
//!   checkpoints) conserves every queued frame and reports recovery-time
//!   percentiles, one sample per outage;
//! * burn-driven adaptive admission beats the static watermarks on the
//!   hardest ramp level: fewer frames shed at the queue with p99 latency
//!   inside the static envelope;
//! * the written `BENCH_serve.json` parses back with every block its
//!   readers use.
//!
//! `BENCH_SMOKE=1` runs the shorter smoke fleet, shrinks the timing
//! windows and writes `target/bench-smoke/BENCH_serve.json` instead. It
//! also builds the full-mode `serve` block and checks it against the
//! committed `BENCH_serve.json`: every number in that block is a pure
//! function of the code and the seeds, so a change that moves one must
//! re-record the ledger.

use pcount_bench::{calls_per_s, check_matches_ledger, smoke_mode, write_bench_json};
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_fleet::{
    AdaptiveConfig, CrashConfig, FleetConfig, FleetReport, FleetService, StormConfig,
};
use pcount_kernels::{Deployment, Target};
use pcount_telemetry::JsonValue;

/// Seed of the demo model and the dataset nodes replay.
const SEED: u64 = 7;
/// Fleet seed of every reported run (chaos, phases, skews).
const FLEET_SEED: u64 = 4242;
/// Worker threads of the reported runs.
const POOL_THREADS: usize = 4;

/// Base fleet configuration of the bench: the smoke fleet keeps the
/// ≥200-node floor but shortens each node's window.
fn base_cfg(smoke: bool) -> FleetConfig {
    let mut cfg = if smoke {
        FleetConfig::smoke()
    } else {
        FleetConfig::default()
    };
    cfg.seed = FLEET_SEED;
    cfg
}

/// The deployed demo model and the dataset.
fn deployed() -> (Deployment, IrDataset) {
    let (model, _) = pcount_bench::demo_int8_model(SEED);
    let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let data = IrDataset::generate(&DatasetConfig::tiny(), SEED);
    (deployment, data)
}

fn run_fleet(deployment: &Deployment, data: &IrDataset, cfg: FleetConfig) -> FleetReport {
    let svc = FleetService::new(deployment.clone(), cfg, data).expect("fleet");
    let mut pool = svc.make_pool(POOL_THREADS).expect("pool");
    svc.run(&mut pool)
}

/// Serve-smoke gate: the run completed, conserved every frame, and its
/// latency and per-shard SLO blocks are populated.
fn check_complete(report: &FleetReport, what: &str) {
    assert!(
        report.conservation_holds(),
        "{what}: front-end algebra violated"
    );
    assert!(
        report.nodes >= 200,
        "{what}: fleet below the 200-node floor"
    );
    assert!(
        report.totals.admitted > 0 && report.latency.count > 0,
        "{what}: no admitted frames / empty latency block"
    );
    assert!(
        report.latency.p50 > 0 && report.latency.p99 >= report.latency.p50,
        "{what}: degenerate latency percentiles"
    );
    for shard in &report.shard_reports {
        assert!(
            !shard.slo.counters.is_empty() && shard.burn_milli >= 0,
            "{what}: shard {} has no SLO counters or a negative burn",
            shard.shard
        );
    }
}

/// Always-on bit-reproducibility tripwire: same fleet seed, pool width
/// 1 vs 4 ⇒ identical occupancy trajectory and report.
fn check_reproducible(deployment: &Deployment, data: &IrDataset, cfg: &FleetConfig) -> String {
    let svc = FleetService::new(deployment.clone(), cfg.clone(), data).expect("fleet");
    let mut narrow = svc.make_pool(1).expect("pool");
    let mut wide = svc.make_pool(4).expect("pool");
    let a = svc.run(&mut narrow);
    let b = svc.run(&mut wide);
    assert_eq!(
        a.occupancy.hash, b.occupancy.hash,
        "occupancy trajectory diverged across pool widths"
    );
    assert_eq!(
        JsonValue::from(&a),
        JsonValue::from(&b),
        "fleet report diverged across pool widths"
    );
    a.occupancy.hash_hex()
}

/// The member of `value` at the dot-separated `path`.
fn member<'a>(value: &'a JsonValue, path: &str) -> &'a JsonValue {
    path.split('.').fold(value, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCH_serve.json lacks {path} (at {key})"))
    })
}

/// The array at `path` under `value`.
fn array<'a>(value: &'a JsonValue, path: &str) -> &'a [JsonValue] {
    member(value, path)
        .as_array()
        .unwrap_or_else(|| panic!("BENCH_serve.json: {path} is not an array"))
}

/// Checks that `value` has every whitespace-separated path in `paths`.
fn require(value: &JsonValue, paths: &str) {
    for path in paths.split_whitespace() {
        member(value, path);
    }
}

/// Checks the `BENCH_serve.json` read back from disk for every block its
/// readers use: each fleet report's latency, counters and per-shard
/// detail, the crash storm's failover events and the determinism
/// digests.
fn validate_bench_json(bench: &JsonValue) {
    let serve = member(bench, "serve");
    let ramp = array(serve, "ramp");
    assert!(!ramp.is_empty(), "load ramp has no levels");
    let mut reports = Vec::new();
    for level in ramp {
        require(level, "frame_period_ms");
        reports.push(member(level, "report"));
    }
    for path in [
        "storm",
        "crash_storm",
        "adaptive.static",
        "adaptive.adaptive",
    ] {
        reports.push(member(serve, path));
    }
    for report in &reports {
        require(
            report,
            "nodes latency_ns.count latency_ns.p50 latency_ns.p99 counters.fleet/requests \
             counters.fleet/admitted counters.fleet/shed counters.fleet/downsampled \
             counters.fleet/failover_crash_lost counters.fleet/failover_checkpoints",
        );
        for shard in array(report, "shards_detail") {
            require(shard, "slo.counters burn_milli crashes adaptive.tightens");
        }
    }
    require(
        serve,
        "crash_storm.failover.crashes crash_storm.failover.recovery_ns.p50 \
         crash_storm.failover.recovery_ns.p99 determinism.bit_identical \
         determinism.occupancy_hash determinism.failover_occupancy_hash",
    );
    let events = array(serve, "crash_storm.failover.events");
    for event in events {
        require(
            event,
            "queued_at_crash crash_lost rerouted held crash_ns restart_ns recovery_ns",
        );
    }
    println!(
        "BENCH_serve.json OK: {} fleet reports, {} failover events",
        reports.len(),
        events.len()
    );
}

/// Runs every fleet scenario with its serve tripwires and returns the
/// `serve` block of `BENCH_serve.json` for the smoke or the full fleet.
fn serve_block(deployment: &Deployment, data: &IrDataset, smoke: bool) -> JsonValue {
    // Load ramp: sweep the sensor frame period down (offered load up)
    // at a fixed fleet. The hardest level oversubscribes the shards.
    let periods_ms: &[u32] = if smoke {
        &[100, 25]
    } else {
        &[150, 100, 50, 25]
    };
    let mut ramp_entries = Vec::new();
    for (i, &period) in periods_ms.iter().enumerate() {
        let cfg = FleetConfig {
            frame_period_ms: period,
            ..base_cfg(smoke)
        };
        let queue_cap = cfg.queue_cap as u64;
        let report = run_fleet(deployment, data, cfg);
        check_complete(&report, &format!("ramp period {period} ms"));
        assert!(
            report.queue_depth_peak <= queue_cap,
            "ramp period {period} ms: queue overran its cap"
        );
        if i == periods_ms.len() - 1 {
            assert!(
                report.totals.shed + report.totals.downsampled > 0,
                "hardest ramp level triggered no load shedding at all"
            );
        }
        println!(
            "serve ramp {period:>3} ms: admitted {} shed {} downsampled {} \
             p50 {} us p99 {} us peak-depth {} worst-burn {} milli",
            report.totals.admitted,
            report.totals.shed,
            report.totals.downsampled,
            report.latency.p50 / 1_000,
            report.latency.p99 / 1_000,
            report.queue_depth_peak,
            report.worst_shard_burn_milli,
        );
        ramp_entries.push(JsonValue::object([
            ("frame_period_ms", period.into()),
            ("report", (&report).into()),
        ]));
    }

    // Fault storm: a third of the fleet at intensity 0.6 for the middle
    // half of the run, on top of the baseline chaos.
    let storm_cfg = FleetConfig {
        storm: Some(StormConfig::default()),
        ..base_cfg(smoke)
    };
    let storm_report = run_fleet(deployment, data, storm_cfg.clone());
    check_complete(&storm_report, "fault storm");
    let storm_faults: u64 = storm_report
        .node_reports
        .iter()
        .map(|n| n.gaps + n.fallback + n.retries)
        .sum();
    assert!(storm_faults > 0, "storm injected no faults");
    println!(
        "serve storm: {} faults, {} quarantine trips, {} readmissions, worst burn {} milli",
        storm_faults,
        storm_report.totals.quarantine_trips,
        storm_report.totals.readmissions,
        storm_report.worst_shard_burn_milli,
    );

    // Crash storm: every other shard dies mid-run and restarts from its
    // checkpoint. The hardest ramp period keeps the queues backed up, so
    // each outage strands a real backlog for the disposal policy.
    let crash_cfg = FleetConfig {
        frame_period_ms: 25,
        // A slowed service clock against a small queue keeps a real
        // backlog queued at the crash instant for the disposal policy.
        service_clock_hz: 50_000_000,
        queue_cap: 32,
        high_watermark: 24,
        low_watermark: 8,
        crash: Some(CrashConfig::default()),
        // Several checkpoint boundaries fit even the short smoke run, so
        // the restarts genuinely recover from checkpointed state.
        checkpoint_period_ms: 25,
        ..base_cfg(smoke)
    };
    let crash_report = run_fleet(deployment, data, crash_cfg.clone());
    check_complete(&crash_report, "crash storm");
    assert!(crash_report.totals.crashes > 0, "crash storm never fired");
    assert_eq!(
        crash_report.crash_reports.len() as u64,
        crash_report.totals.crashes,
        "one outage report per crash"
    );
    assert_eq!(
        crash_report.recovery.count, crash_report.totals.crashes,
        "one recovery sample per crash"
    );
    assert!(
        crash_report.recovery.p50 > 0,
        "recovery percentiles must be populated"
    );
    assert!(
        crash_report.recovery.p50 <= crash_report.recovery.p99,
        "recovery percentiles out of order"
    );
    let mut stranded = 0;
    for c in &crash_report.crash_reports {
        assert_eq!(
            c.queued_at_crash,
            c.crash_lost + c.rerouted + c.held,
            "shard {} outage leaked part of its queue",
            c.shard
        );
        assert!(
            c.crash_ns < c.restart_ns && c.recovery_ns > 0,
            "shard {} outage has a degenerate timeline",
            c.shard
        );
        stranded += c.queued_at_crash;
    }
    assert_eq!(
        crash_report
            .shard_reports
            .iter()
            .map(|s| s.crashes)
            .sum::<u64>(),
        crash_report.totals.crashes,
        "per-shard crash counts disagree with the fleet total"
    );
    assert!(
        crash_report.totals.checkpoints > 0,
        "crash storm took no checkpoints"
    );
    assert!(stranded > 0, "no crash found a backlog to dispose of");
    // `totals.rerouted` counts every delivery served off its home shard,
    // and the outages' `rerouted` only the queued frames moved live at a
    // crash (none in the committed storm, whose survivor queues are full).
    // The difference is failover routing of new arrivals;
    // `reroute_moves_queued_frames_onto_the_survivor` in
    // `crates/fleet/tests/failover.rs` covers the live re-route.
    let live_rerouted: u64 = crash_report.crash_reports.iter().map(|c| c.rerouted).sum();
    assert!(
        crash_report.totals.rerouted > live_rerouted,
        "failover routing delivered no frame on a shard other than its home shard"
    );
    println!(
        "serve crash storm: {} crashes, {} frames lost vs {} rerouted, \
         recovery p50 {} us p99 {} us, {} checkpoints {} migrations",
        crash_report.totals.crashes,
        crash_report.totals.crash_lost,
        crash_report.totals.rerouted,
        crash_report.recovery.p50 / 1_000,
        crash_report.recovery.p99 / 1_000,
        crash_report.totals.checkpoints,
        crash_report.totals.migrations,
    );

    // Adaptive admission vs the static watermarks, same overload: the
    // burn-driven controller must shed fewer frames at the queue while
    // keeping p99 latency inside the static envelope.
    // Saturating front-end: a slowed service clock against a small queue
    // makes the static watermarks shed hard at the cap.
    let static_cfg = FleetConfig {
        frame_period_ms: 25,
        service_clock_hz: 50_000_000,
        queue_cap: 32,
        high_watermark: 24,
        low_watermark: 8,
        ..base_cfg(smoke)
    };
    let adaptive_cfg = FleetConfig {
        adaptive: Some(AdaptiveConfig::default()),
        ..static_cfg.clone()
    };
    let static_report = run_fleet(deployment, data, static_cfg);
    let adaptive_report = run_fleet(deployment, data, adaptive_cfg);
    check_complete(&static_report, "static admission");
    check_complete(&adaptive_report, "adaptive admission");
    let tightens: u64 = adaptive_report
        .shard_reports
        .iter()
        .map(|s| s.adaptive_tightens)
        .sum();
    assert!(tightens > 0, "overload never tightened the watermarks");
    assert!(
        adaptive_report.totals.shed < static_report.totals.shed,
        "adaptive shed {} >= static shed {}",
        adaptive_report.totals.shed,
        static_report.totals.shed
    );
    assert!(
        adaptive_report.latency.p99 <= static_report.latency.p99 * 5 / 4,
        "adaptive p99 {} ns escaped the static envelope ({} ns)",
        adaptive_report.latency.p99,
        static_report.latency.p99
    );
    println!(
        "serve adaptive: shed {} vs static {} (downsampled {} vs {}), \
         p99 {} us vs {} us, {} tightens {} relaxes",
        adaptive_report.totals.shed,
        static_report.totals.shed,
        adaptive_report.totals.downsampled,
        static_report.totals.downsampled,
        adaptive_report.latency.p99 / 1_000,
        static_report.latency.p99 / 1_000,
        tightens,
        adaptive_report
            .shard_reports
            .iter()
            .map(|s| s.adaptive_relaxes)
            .sum::<u64>(),
    );

    // Always-on determinism tripwires (the CI serve-smoke gate): once
    // plain, once with the crash schedule in play.
    let occupancy_hash = check_reproducible(deployment, data, &base_cfg(smoke));
    let failover_hash = check_reproducible(deployment, data, &crash_cfg);

    JsonValue::object([
        ("ramp", JsonValue::Array(ramp_entries)),
        ("storm", (&storm_report).into()),
        ("crash_storm", (&crash_report).into()),
        (
            "adaptive",
            JsonValue::object([
                ("static", (&static_report).into()),
                ("adaptive", (&adaptive_report).into()),
            ]),
        ),
        (
            "determinism",
            JsonValue::object([
                ("occupancy_hash", occupancy_hash.into()),
                ("failover_occupancy_hash", failover_hash.into()),
                ("pool_widths", JsonValue::array([1u64, 4])),
                ("bit_identical", true.into()),
            ]),
        ),
    ])
}

fn main() {
    let smoke = smoke_mode();
    let (deployment, data) = deployed();

    // The reported runs record telemetry so the global fleet/* surface
    // is exercised too; recording never changes any computed result.
    pcount_telemetry::set_enabled(true);
    let serve = serve_block(&deployment, &data, smoke);
    if smoke {
        println!("full-mode serve block, checked against the committed ledger:");
        check_matches_ledger(
            "BENCH_serve.json",
            "serve",
            &serve_block(&deployment, &data, false),
        );
    }
    pcount_telemetry::set_enabled(false);

    // Frames/s of the base fleet's run; the service and its pool are
    // built once, outside the timed calls.
    let svc = FleetService::new(deployment.clone(), base_cfg(smoke), &data).expect("fleet");
    let mut pool = svc.make_pool(POOL_THREADS).expect("pool");
    let frames = svc.run(&mut pool).totals.requests;
    let fleet_fps = calls_per_s(|| svc.run(&mut pool)).scaled(frames as f64);
    println!(
        "serve fleet run: {frames} frames, {:.0} frames/s (median)",
        fleet_fps.median
    );

    let bench = write_bench_json(
        "BENCH_serve.json",
        "serve",
        [
            ("fleet_seed", FLEET_SEED.into()),
            ("pool_threads", POOL_THREADS.into()),
            ("fleet_frames_per_s", fleet_fps.into()),
            ("serve", serve),
        ],
    );
    validate_bench_json(&bench);
}
