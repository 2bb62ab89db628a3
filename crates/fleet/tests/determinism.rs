//! Determinism suite of the fleet co-simulation: a run is a pure
//! function of `(fleet seed, config, dataset, model)` — never of the
//! pool width or host timing — and no amount of injected chaos aborts
//! the service.

mod common;

use pcount_fleet::{
    AdaptiveConfig, CrashConfig, CrashPolicy, FleetConfig, FleetService, StormConfig,
};

fn service(cfg: FleetConfig) -> FleetService {
    FleetService::new(common::tiny_deployment(30), cfg, &common::tiny_dataset()).expect("fleet")
}

#[test]
fn fleet_run_is_bit_identical_across_pool_widths_1_and_4() {
    let svc = service(common::small_cfg());
    let mut narrow = svc.make_pool(1).expect("pool");
    let mut wide = svc.make_pool(4).expect("pool");
    let a = svc.run(&mut narrow);
    let b = svc.run(&mut wide);
    // The full delivery log — statuses, queue depths, latencies,
    // quarantine flags — compares equal, not just the digest.
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.occupancy, b.occupancy);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn same_seed_reproduces_and_different_seed_diverges() {
    let svc = service(common::small_cfg());
    let mut pool = svc.make_pool(2).expect("pool");
    let a = svc.run(&mut pool);
    let b = svc.run(&mut pool);
    assert_eq!(a.to_json(), b.to_json(), "same fleet: bit-identical reruns");

    let reseeded = service(FleetConfig {
        seed: 12,
        ..common::small_cfg()
    });
    let c = reseeded.run(&mut pool);
    // A different fleet seed redraws every node's chaos, phase and skew;
    // the occupancy trajectory digest cannot survive that.
    assert_ne!(a.occupancy.hash, c.occupancy.hash);
}

#[test]
fn failover_run_is_bit_identical_across_pool_widths_1_and_4() {
    // A mid-run shard crash + restart (queue re-routed, rooms migrated,
    // checkpointed recovery) must not cost one bit of reproducibility.
    let svc = service(common::crashy_cfg(CrashPolicy::Reroute));
    let mut narrow = svc.make_pool(1).expect("pool");
    let mut wide = svc.make_pool(4).expect("pool");
    let a = svc.run(&mut narrow);
    let b = svc.run(&mut wide);
    assert!(a.totals.crashes > 0, "the crash schedule must fire");
    assert!(a.totals.rerouted > 0, "failover traffic must exist");
    // The full delivery log — statuses, re-route flags, latencies — and
    // the failover accounting compare equal, not just the digest.
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.occupancy, b.occupancy);
    assert_eq!(a.crash_reports, b.crash_reports);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn failover_schedule_diverges_with_the_seed() {
    let svc = service(common::crashy_cfg(CrashPolicy::Reroute));
    let reseeded = service(FleetConfig {
        seed: 12,
        ..common::crashy_cfg(CrashPolicy::Reroute)
    });
    let mut pool = svc.make_pool(2).expect("pool");
    let a = svc.run(&mut pool);
    let c = reseeded.run(&mut pool);
    // A different fleet seed redraws the crash jitter along with every
    // node's chaos: the outage instants and the trajectory both move.
    assert_ne!(
        a.crash_reports[0].crash_ns, c.crash_reports[0].crash_ns,
        "crash jitter must follow the seed"
    );
    assert_ne!(a.occupancy.hash, c.occupancy.hash);
}

#[test]
fn fault_storm_never_aborts_the_service() {
    let cfg = FleetConfig {
        storm: Some(StormConfig {
            intensity: 0.9,
            node_stride: 1,
            window: (0.25, 0.75),
        }),
        ..common::small_cfg()
    };
    let svc = service(cfg.clone());
    let mut pool = svc.make_pool(4).expect("pool");
    let report = svc.run(&mut pool);
    // Every node's every delivery slot was disposed of exactly once:
    // nothing was lost, duplicated or aborted mid-stream.
    assert!(report.conservation_holds(), "front-end algebra violated");
    assert_eq!(report.node_reports.len(), cfg.nodes);
    assert!(report
        .node_reports
        .iter()
        .all(|n| n.deliveries >= cfg.frames_per_node as u64 - 2));
    // A storm at intensity 0.9 over the whole fleet must actually bite…
    let storm_faults: u64 = report
        .node_reports
        .iter()
        .map(|n| n.gaps + n.fallback + n.retries)
        .sum();
    assert!(storm_faults > 0, "storm injected no faults at all");
    // …and the per-shard burn must reflect it.
    assert!(report.worst_shard_burn_milli > 0);
}

#[test]
fn shard_slo_is_the_merge_of_its_nodes() {
    let svc = service(common::small_cfg());
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    for shard in &report.shard_reports {
        let members: Vec<_> = report
            .node_reports
            .iter()
            .filter(|n| n.shard == shard.shard)
            .collect();
        assert_eq!(members.len(), shard.nodes);
        for &(name, merged) in &shard.slo.counters {
            let summed: u64 = members
                .iter()
                .map(|n| {
                    n.slo
                        .counters
                        .iter()
                        .find(|(c, _)| *c == name)
                        .map(|&(_, v)| v)
                        .unwrap_or(0)
                })
                .sum();
            assert_eq!(merged, summed, "shard {} counter {name}", shard.shard);
        }
        // Pooled burn weighs frames, not nodes: recompute it directly.
        let bad: u64 = members.iter().map(|n| n.deliveries - n.fused).sum();
        let total: u64 = members.iter().map(|n| n.deliveries).sum();
        let direct = svc.config().resilience.error_budget.burn_milli(bad, total);
        assert_eq!(shard.burn_milli, direct);
    }
}

/// 64-bit FNV-1a of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A run's digests: the occupancy trajectory hash and FNV-1a of the
/// report JSON, the delivery log and the node reports (both `Debug`).
fn digests(cfg: FleetConfig) -> [u64; 4] {
    let svc = service(cfg);
    let mut pool = svc.make_pool(2).expect("pool");
    let r = svc.run(&mut pool);
    [
        r.occupancy.hash,
        fnv1a(&r.to_json()),
        fnv1a(&format!("{:?}", r.deliveries)),
        fnv1a(&format!("{:?}", r.node_reports)),
    ]
}

/// Fleet results pinned across commits: each config's digests as
/// recorded before the failover state was cut to the last checkpoint.
/// A change that moves one changes fleet results (or the fixtures'
/// model and dataset) and must say so.
#[test]
fn fleet_results_match_the_pinned_digests() {
    let every_shard_down = FleetConfig {
        crash: Some(CrashConfig {
            shard_stride: 1,
            window: (0.3, 0.75),
            jitter: 0.0,
            policy: CrashPolicy::Reroute,
        }),
        ..common::crashy_cfg(CrashPolicy::Reroute)
    };
    let storm = FleetConfig {
        storm: Some(StormConfig {
            intensity: 0.9,
            node_stride: 1,
            window: (0.25, 0.75),
        }),
        ..common::small_cfg()
    };
    let adaptive_crash = FleetConfig {
        adaptive: Some(AdaptiveConfig {
            window: 16,
            min_high_watermark: 2,
            watermark_step: 2,
            ..AdaptiveConfig::default()
        }),
        ..common::crashy_cfg(CrashPolicy::Reroute)
    };
    let before_a_checkpoint = FleetConfig {
        checkpoint_period_ms: 600_000,
        ..common::crashy_cfg(CrashPolicy::Reroute)
    };
    // `[occupancy hash, to_json, deliveries, node reports]`.
    let cases = [
        (
            "small",
            common::small_cfg(),
            [
                0x5bef6d6a9174adca,
                0xf3c9b22c782c463c,
                0xcb17cf2c84363178,
                0x1ecf363e9ebf5588,
            ],
        ),
        (
            "crash/reroute",
            common::crashy_cfg(CrashPolicy::Reroute),
            [
                0xf193000ab2d987b7,
                0x6c73e420c345b286,
                0xbdb49a344e0f76a9,
                0x79cff71cf650e666,
            ],
        ),
        (
            "crash/shed",
            common::crashy_cfg(CrashPolicy::Shed),
            [
                0xf193000ab2d987b7,
                0x6c73e420c345b286,
                0xbdb49a344e0f76a9,
                0x79cff71cf650e666,
            ],
        ),
        (
            "crash/hold",
            common::crashy_cfg(CrashPolicy::Hold),
            [
                0x731ae806f01a01f9,
                0xdb68d05ba1364a46,
                0x4ae273a6b0a315b0,
                0x3f9c950ed40ce4dc,
            ],
        ),
        (
            "crash before a checkpoint",
            before_a_checkpoint,
            [
                0xd901e9dee4bedb57,
                0xfb23120a47dbcd53,
                0xf9de07079d3b7b9b,
                0x5dd1f31078df31be,
            ],
        ),
        (
            "every shard down",
            every_shard_down,
            [
                0x79cf07210a1c7090,
                0x2b71ce87919fb8d9,
                0xe5c2d1dd26aaa101,
                0xefafb962021059ae,
            ],
        ),
        (
            "storm",
            storm,
            [
                0x9d60dbd6a01af1a0,
                0xec3c409dcca9dff4,
                0x03c15780bac36a92,
                0x131c4c607244212c,
            ],
        ),
        (
            "adaptive + crash",
            adaptive_crash,
            [
                0xca2cd0193b989e8b,
                0x72bcea61bb10a445,
                0x241188c73c247070,
                0x338cce719e2c14f5,
            ],
        ),
        (
            "live reroute",
            common::live_reroute_cfg(),
            [
                0x2b83f37f7ab0f1a1,
                0xc1f67399533f6ab6,
                0x83b32ad7c79d0808,
                0x3a768c823f7a555d,
            ],
        ),
    ];
    for (name, cfg, pinned) in cases {
        let got = digests(cfg);
        assert_eq!(got, pinned, "{name}: got {got:x?}");
    }
}
