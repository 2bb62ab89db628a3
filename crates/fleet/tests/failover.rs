//! Failover invariants of the serving layer: a crashed shard's queue is
//! disposed of exactly per policy, rooms migrate to survivors and return
//! home, recovery is measured from the checkpointed restart, and the
//! adaptive admission controller actually moves the knobs.

mod common;

use pcount_fleet::{
    AdaptiveConfig, CrashConfig, CrashPolicy, DeliveryStatus, FleetConfig, FleetService,
};

fn service(cfg: FleetConfig) -> FleetService {
    FleetService::new(common::tiny_deployment(33), cfg, &common::tiny_dataset()).expect("fleet")
}

#[test]
fn crash_events_conserve_the_queue_and_report_recovery() {
    let svc = service(common::crashy_cfg(CrashPolicy::Reroute));
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    assert!(report.conservation_holds());
    assert_eq!(report.totals.crashes, 1, "stride 2 of 2 shards = 1 crash");
    assert_eq!(report.crash_reports.len(), 1);
    let c = &report.crash_reports[0];
    assert_eq!(c.shard, 0);
    assert!(c.crash_ns < c.restart_ns);
    // Every frame queued at the crash is accounted exactly once.
    assert_eq!(
        c.queued_at_crash,
        c.crash_lost + c.rerouted + c.held,
        "crash disposal must conserve the queue"
    );
    assert!(
        c.queued_at_crash > 0,
        "the slowed clock must leave a backlog at the crash"
    );
    assert!(c.held == 0, "reroute policy holds nothing");
    assert!(c.migrations_out > 0, "shard 0's rooms must migrate");
    assert!(c.recovery_ns > 0, "recovery time is measured");
    assert_eq!(
        report.recovery_counts.summarize().count,
        1,
        "one recovery sample per crash"
    );
    // The shard report agrees.
    assert_eq!(report.shard_reports[0].crashes, 1);
    assert_eq!(report.shard_reports[1].crashes, 0);
    // Rerouted frames carry the flag, and totals see them.
    let rerouted_logged = report.deliveries.iter().filter(|d| d.rerouted).count() as u64;
    assert_eq!(report.totals.rerouted, rerouted_logged);
    assert!(
        rerouted_logged >= c.rerouted,
        "queue re-routes are part of the rerouted traffic"
    );
    // While shard 0 was down its rooms were served by shard 1.
    assert!(
        report
            .deliveries
            .iter()
            .any(|d| d.rerouted && d.shard == 1 && d.status.executed()),
        "failover traffic must actually execute on the survivor"
    );
    assert!(report.totals.checkpoints > 0, "checkpoints were taken");
    assert!(report.totals.migrations >= 2, "out and back home");
}

#[test]
fn shed_policy_loses_the_queue_and_nothing_else() {
    let svc = service(common::crashy_cfg(CrashPolicy::Shed));
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    assert!(report.conservation_holds());
    let c = &report.crash_reports[0];
    assert!(c.queued_at_crash > 0);
    assert_eq!(
        c.crash_lost, c.queued_at_crash,
        "shed policy loses the queue"
    );
    assert_eq!(c.rerouted + c.held, 0);
    assert!(report.totals.crash_lost >= c.crash_lost);
    // Lost frames appear in the delivery log exactly as CrashLost.
    let lost_logged = report
        .deliveries
        .iter()
        .filter(|d| d.status == DeliveryStatus::CrashLost)
        .count() as u64;
    assert_eq!(report.totals.crash_lost, lost_logged);
    // CrashLost frames never execute and never fuse.
    for d in &report.deliveries {
        if d.status == DeliveryStatus::CrashLost {
            assert!(!d.fused && d.latency_ns.is_none());
        }
    }
}

#[test]
fn hold_policy_serves_the_queue_after_the_restart() {
    let svc = service(common::crashy_cfg(CrashPolicy::Hold));
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    assert!(report.conservation_holds());
    let c = &report.crash_reports[0];
    assert!(c.queued_at_crash > 0);
    assert_eq!(c.held, c.queued_at_crash, "hold policy keeps the queue");
    assert_eq!(c.crash_lost + c.rerouted, 0);
    // Held frames absorb the outage as latency: something that arrived
    // before the crash completed at or after the restart.
    let outage_spanned = report.deliveries.iter().any(|d| {
        d.shard == c.shard
            && d.msg.arrival_ns < c.crash_ns
            && d.latency_ns
                .is_some_and(|lat| d.msg.arrival_ns + lat as i64 >= c.restart_ns)
    });
    assert!(outage_spanned, "held frames must wait out the downtime");
}

#[test]
fn reroute_moves_queued_frames_onto_the_survivor() {
    // Under `crashy_cfg`'s slow clock the survivor's queue is full at the
    // crash, so Reroute loses every queued frame exactly as Shed does; a
    // faster clock leaves it room for part of the crashed queue.
    let cfg = common::live_reroute_cfg();
    let mut shed_cfg = cfg.clone();
    shed_cfg.crash.as_mut().expect("crash schedule").policy = CrashPolicy::Shed;
    let mut pool = service(cfg.clone()).make_pool(2).expect("pool");
    let report = service(cfg).run(&mut pool);
    let shed = service(shed_cfg).run(&mut pool);
    assert!(report.conservation_holds());
    let c = &report.crash_reports[0];
    assert!(c.rerouted > 0, "no queued frame was re-routed: {c:?}");
    // Before the crash every room is on its home shard, so the re-routed
    // frames that arrived before it are the ones moved off the queue.
    let moved: Vec<_> = report
        .deliveries
        .iter()
        .filter(|d| d.rerouted && d.msg.arrival_ns < c.crash_ns)
        .collect();
    assert_eq!(moved.len() as u64, c.rerouted);
    for d in moved {
        assert!(
            d.shard == 1 && d.status.executed(),
            "a re-routed frame must execute on the survivor: {d:?}"
        );
    }
    assert_ne!(
        report.to_json(),
        shed.to_json(),
        "re-routing must change the run"
    );
}

#[test]
fn the_crash_schedule_is_a_pure_function_of_the_config() {
    let svc = service(common::crashy_cfg(CrashPolicy::Reroute));
    let schedule = svc.crash_schedule();
    assert_eq!(schedule.len(), 1);
    let mut pool = svc.make_pool(1).expect("pool");
    let report = svc.run(&mut pool);
    assert_eq!(report.crash_reports[0].crash_ns, schedule[0].crash_ns);
    assert_eq!(report.crash_reports[0].restart_ns, schedule[0].restart_ns);
    assert_eq!(svc.crash_schedule(), schedule, "schedule is stable");
}

#[test]
fn a_crash_before_any_checkpoint_recovers_from_boot_state() {
    // A checkpoint period longer than the run: the crash finds no
    // checkpoint and the shard recovers with reset estimators.
    let cfg = FleetConfig {
        checkpoint_period_ms: 600_000,
        ..common::crashy_cfg(CrashPolicy::Reroute)
    };
    let svc = service(cfg);
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    assert!(report.conservation_holds());
    assert_eq!(report.totals.crashes, 1);
    assert_eq!(report.totals.checkpoints, 0, "no checkpoint fits the run");
}

#[test]
fn every_shard_down_sheds_instead_of_aborting() {
    // Stride 1 with overlapping outages: both shards are down for a
    // stretch, so arrivals in that window cannot be admitted anywhere.
    let cfg = FleetConfig {
        crash: Some(CrashConfig {
            shard_stride: 1,
            window: (0.3, 0.75),
            jitter: 0.0,
            policy: CrashPolicy::Reroute,
        }),
        ..common::crashy_cfg(CrashPolicy::Reroute)
    };
    let svc = service(cfg);
    let mut pool = svc.make_pool(2).expect("pool");
    let report = svc.run(&mut pool);
    assert!(report.conservation_holds());
    assert_eq!(report.totals.crashes, 2);
    for c in &report.crash_reports {
        assert_eq!(c.queued_at_crash, c.crash_lost + c.rerouted + c.held);
    }
    assert!(
        report.totals.shed + report.totals.crash_lost > 0,
        "a fleet-wide outage must lose or shed something"
    );
}

#[test]
fn adaptive_admission_tightens_under_overload_and_sheds_less() {
    // The same saturating fleet, static vs burn-driven admission.
    let static_cfg = FleetConfig {
        service_clock_hz: 2_000_000,
        queue_cap: 8,
        batch_max: 2,
        high_watermark: 6,
        low_watermark: 2,
        frames_per_node: 12,
        ..common::small_cfg()
    };
    let adaptive_cfg = FleetConfig {
        adaptive: Some(AdaptiveConfig {
            window: 16,
            tighten_burn_milli: 1_000,
            relax_burn_milli: 250,
            min_high_watermark: 2,
            watermark_step: 2,
            max_downsample_stride: 4,
        }),
        ..static_cfg.clone()
    };
    let svc_static = service(static_cfg);
    let svc_adaptive = service(adaptive_cfg);
    let mut pool = svc_static.make_pool(2).expect("pool");
    let a = svc_static.run(&mut pool);
    let b = svc_adaptive.run(&mut pool);
    assert!(a.conservation_holds() && b.conservation_holds());
    // Static shards never move their knobs…
    for s in &a.shard_reports {
        assert_eq!(s.adaptive_tightens + s.adaptive_relaxes, 0);
        assert_eq!(s.downsample_stride, 2);
        assert_eq!(s.high_watermark, 6);
    }
    // …while overloaded adaptive shards tighten.
    let tightens: u64 = b.shard_reports.iter().map(|s| s.adaptive_tightens).sum();
    assert!(tightens > 0, "sustained overload must tighten");
    // Tightening converts hard sheds into source downsampling: the
    // adaptive fleet sheds fewer frames at the queue.
    assert!(
        b.totals.shed < a.totals.shed,
        "adaptive shed {} >= static shed {}",
        b.totals.shed,
        a.totals.shed
    );
}
