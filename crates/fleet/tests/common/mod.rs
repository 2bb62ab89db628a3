//! Shared fixtures of the fleet suites and of the crate's in-crate tests:
//! a small trained model at any precision, its INT8 MAUPITI deployment,
//! and a compact fleet configuration that still exercises every front-end
//! path (admission, backpressure, quarantine) in seconds.

use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_fleet::{CrashConfig, CrashPolicy, FleetConfig};
use pcount_kernels::{Deployment, Target};
use pcount_nn::{CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small trained INT8 CNN deployed for the MAUPITI target.
pub fn tiny_deployment(seed: u64) -> Deployment {
    let model = tiny_model(seed, PrecisionAssignment::uniform(Precision::Int8));
    Deployment::new(&model, Target::Maupiti).expect("deploy")
}

/// A small trained CNN, quantised at `assignment`.
pub fn tiny_model(seed: u64, assignment: PrecisionAssignment) -> QuantizedCnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 48;
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
    let mut qat = QatCnn::from_folded(&folded, assignment);
    qat.calibrate(&x);
    QuantizedCnn::from_qat(&qat)
}

/// The synthetic LINAIGE-like dataset the nodes replay.
pub fn tiny_dataset() -> IrDataset {
    IrDataset::generate(&DatasetConfig::tiny(), 77)
}

/// `small_cfg` slowed down until queues back up, plus a mid-run crash of
/// shard 0 (shard 1 survives and takes the failover traffic). The slow
/// virtual service clock guarantees a non-empty queue at the crash.
#[allow(dead_code)]
pub fn crashy_cfg(policy: CrashPolicy) -> FleetConfig {
    FleetConfig {
        service_clock_hz: 2_000_000,
        queue_cap: 8,
        batch_max: 2,
        high_watermark: 6,
        low_watermark: 2,
        frames_per_node: 12,
        crash: Some(CrashConfig {
            shard_stride: 2,
            window: (0.35, 0.7),
            jitter: 0.02,
            policy,
        }),
        checkpoint_period_ms: 300,
        ..small_cfg()
    }
}

/// `crashy_cfg(Reroute)` with a service clock fast enough that the
/// survivor's queue has room at the crash: part of the crashed queue is
/// re-routed live instead of all of it being lost.
#[allow(dead_code)]
pub fn live_reroute_cfg() -> FleetConfig {
    FleetConfig {
        service_clock_hz: 12_000_000,
        ..crashy_cfg(CrashPolicy::Reroute)
    }
}

/// A compact fleet: 24 nodes over 6 rooms on 2 shards, short windows.
pub fn small_cfg() -> FleetConfig {
    FleetConfig {
        nodes: 24,
        rooms: 6,
        shards: 2,
        frames_per_node: 8,
        fault_intensity: 0.15,
        clock_skew_max_ms: 120,
        queue_cap: 16,
        batch_max: 4,
        high_watermark: 10,
        low_watermark: 4,
        health_window: 4,
        quarantine_burn_milli: 5_000,
        readmit_after: 3,
        seed: 11,
        ..FleetConfig::default()
    }
}
