//! Typed validation of `FleetConfig`: every inconsistent knob set maps
//! to its own `ConfigError` variant via `validated()`, and
//! `FleetService::new` returns the error instead of panicking.

mod common;

use pcount_fleet::{
    AdaptiveConfig, ConfigError, CrashConfig, FleetConfig, FleetError, FleetService,
};

fn base() -> FleetConfig {
    FleetConfig::smoke()
}

#[test]
fn a_consistent_config_validates() {
    assert_eq!(base().validated(), Ok(()));
    assert_eq!(FleetConfig::default().validated(), Ok(()));
    let full = FleetConfig {
        crash: Some(CrashConfig::default()),
        adaptive: Some(AdaptiveConfig::default()),
        ..base()
    };
    assert_eq!(full.validated(), Ok(()));
}

#[test]
fn empty_fleets_are_rejected() {
    let cfg = FleetConfig { nodes: 0, ..base() };
    assert_eq!(cfg.validated(), Err(ConfigError::NoNodes));
    let cfg = FleetConfig {
        frames_per_node: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::NoFrames));
}

#[test]
fn room_and_shard_topology_is_checked() {
    let cfg = FleetConfig { rooms: 0, ..base() };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadRooms {
            rooms: 0,
            nodes: 200
        })
    );
    let cfg = FleetConfig {
        rooms: 300,
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadRooms {
            rooms: 300,
            nodes: 200
        })
    );
    let cfg = FleetConfig {
        shards: 0,
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadShards {
            shards: 0,
            rooms: 20
        })
    );
    let cfg = FleetConfig {
        shards: 21,
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadShards {
            shards: 21,
            rooms: 20
        })
    );
}

#[test]
fn queue_and_watermark_knobs_are_checked() {
    let cfg = FleetConfig {
        queue_cap: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroQueueCap));
    // Inverted watermarks.
    let cfg = FleetConfig {
        low_watermark: 48,
        high_watermark: 48,
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadWatermarks {
            low: 48,
            high: 48,
            cap: 64
        })
    );
    // High watermark past the cap.
    let cfg = FleetConfig {
        high_watermark: 65,
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadWatermarks {
            low: 16,
            high: 65,
            cap: 64
        })
    );
}

#[test]
fn health_and_clock_knobs_are_checked() {
    let cfg = FleetConfig {
        health_window: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroHealthWindow));
    let cfg = FleetConfig {
        readmit_after: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroReadmitStreak));
    let cfg = FleetConfig {
        service_clock_hz: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroServiceClock));
    let cfg = FleetConfig {
        checkpoint_period_ms: 0,
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroCheckpointPeriod));
}

#[test]
fn crash_schedules_are_checked() {
    let cfg = FleetConfig {
        crash: Some(CrashConfig {
            window: (0.6, 0.4),
            ..CrashConfig::default()
        }),
        ..base()
    };
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadCrashWindow {
            start: 0.6,
            end: 0.4
        })
    );
    let cfg = FleetConfig {
        crash: Some(CrashConfig {
            window: (-0.1, 0.4),
            ..CrashConfig::default()
        }),
        ..base()
    };
    assert!(matches!(
        cfg.validated(),
        Err(ConfigError::BadCrashWindow { .. })
    ));
    let cfg = FleetConfig {
        crash: Some(CrashConfig {
            jitter: f64::NAN,
            ..CrashConfig::default()
        }),
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::BadCrashJitter));
    let cfg = FleetConfig {
        crash: Some(CrashConfig {
            jitter: -0.5,
            ..CrashConfig::default()
        }),
        ..base()
    };
    assert_eq!(cfg.validated(), Err(ConfigError::BadCrashJitter));
}

#[test]
fn adaptive_admission_knobs_are_checked() {
    let with = |adaptive: AdaptiveConfig| FleetConfig {
        adaptive: Some(adaptive),
        ..base()
    };
    let cfg = with(AdaptiveConfig {
        window: 0,
        ..AdaptiveConfig::default()
    });
    assert_eq!(cfg.validated(), Err(ConfigError::BadAdaptiveWindow));
    let cfg = with(AdaptiveConfig {
        watermark_step: 0,
        ..AdaptiveConfig::default()
    });
    assert_eq!(cfg.validated(), Err(ConfigError::ZeroAdaptiveStep));
    // No hysteresis gap.
    let cfg = with(AdaptiveConfig {
        tighten_burn_milli: 500,
        relax_burn_milli: 500,
        ..AdaptiveConfig::default()
    });
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadAdaptiveThresholds {
            relax: 500,
            tighten: 500
        })
    );
    let cfg = with(AdaptiveConfig {
        min_high_watermark: 0,
        ..AdaptiveConfig::default()
    });
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadAdaptiveWatermarkFloor { floor: 0, high: 48 })
    );
    // Floor above the configured watermark can never be reached.
    let cfg = with(AdaptiveConfig {
        min_high_watermark: 64,
        ..AdaptiveConfig::default()
    });
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadAdaptiveWatermarkFloor {
            floor: 64,
            high: 48
        })
    );
    let cfg = with(AdaptiveConfig {
        max_downsample_stride: 1,
        ..AdaptiveConfig::default()
    });
    assert_eq!(
        cfg.validated(),
        Err(ConfigError::BadAdaptiveStride { max: 1 })
    );
}

#[test]
fn errors_render_the_offending_knobs() {
    let msg = ConfigError::BadWatermarks {
        low: 9,
        high: 3,
        cap: 4,
    }
    .to_string();
    assert!(msg.contains("low 9") && msg.contains("high 3") && msg.contains("cap 4"));
    let msg = ConfigError::BadAdaptiveThresholds {
        relax: 800,
        tighten: 400,
    }
    .to_string();
    assert!(msg.contains("800") && msg.contains("400"));
}

#[test]
fn provisioning_an_invalid_config_returns_the_typed_error() {
    let cfg = FleetConfig {
        shards: 0,
        ..common::small_cfg()
    };
    let Err(err) = FleetService::new(common::tiny_deployment(30), cfg, &common::tiny_dataset())
    else {
        panic!("an invalid config must not provision a fleet");
    };
    assert!(matches!(
        err,
        FleetError::Config(ConfigError::BadShards { shards: 0, .. })
    ));
    assert!(err.to_string().starts_with("invalid fleet config: shards"));
}
