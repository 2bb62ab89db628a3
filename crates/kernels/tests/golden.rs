//! The host golden model against the deployed kernels.
//!
//! [`QuantizedCnn::forward_int`] must reproduce the simulator's logits
//! and [`Deployment::golden_prediction`] its prediction on every channel
//! width a NAS mask can leave, odd ones included, under every
//! first-layer-INT8 precision assignment and on both targets. Its
//! telemetry must count frames without changing a prediction.

use pcount_kernels::{DeployError, Deployment, Target};
use pcount_nn::CnnConfig;
use pcount_quant::{fold_sequential, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `n` random ambient-normalised frames, `[n, 1, 8, 8]`.
fn random_frames(n: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..n * 64).map(|_| rng.gen_range(-1.0f32..4.0)).collect();
    Tensor::from_vec(data, &[n, 1, 8, 8])
}

/// An untrained model with channel widths `(conv1, conv2, fc1)`,
/// calibrated on a few random frames.
fn untrained_model(
    (c1, c2, f1): (usize, usize, usize),
    assignment: PrecisionAssignment,
    rng: &mut StdRng,
) -> QuantizedCnn {
    let cfg = CnnConfig::seed().with_channels(c1, c2, f1);
    let net = cfg.build(rng);
    let folded = fold_sequential(cfg, &net).expect("fold");
    let mut qat = QatCnn::from_folded(&folded, assignment);
    qat.calibrate(&random_frames(4, rng));
    QuantizedCnn::from_qat(&qat)
}

/// Cases whose drawn widths do not fit the target's memories.
static SKIPPED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #[test]
    fn golden_model_matches_the_deployed_kernels_on_random_shapes(
        c1 in 1usize..=12,
        c2 in 1usize..=12,
        f1 in 1usize..=24,
        assignment in 0usize..8,
        maupiti in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = PrecisionAssignment::first_layer_int8_combinations()[assignment];
        let model = untrained_model((c1, c2, f1), assignment, &mut rng);
        let target = if maupiti { Target::Maupiti } else { Target::Ibex };
        let deployment = match Deployment::new(&model, target) {
            Ok(deployment) => deployment,
            Err(DeployError::DataTooLarge { .. } | DeployError::CodeTooLarge { .. }) => {
                let skipped = SKIPPED.fetch_add(1, Ordering::Relaxed) + 1;
                prop_assert!(
                    skipped <= proptest::CASES / 4,
                    "{skipped} cases did not fit the chip"
                );
                return;
            }
            Err(err) => panic!("({c1}, {c2}, {f1}) {assignment} on {target}: {err}"),
        };
        for frame in random_frames(2, &mut rng).data().chunks_exact(64) {
            let run = deployment.run_frame(frame).expect("run");
            prop_assert_eq!(
                &run.logits,
                &model.forward_int(&model.quantize_input(frame)),
                "({c1}, {c2}, {f1}) {assignment} on {target}"
            );
            prop_assert_eq!(deployment.golden_prediction(frame), run.prediction);
        }
    }
}

#[test]
fn golden_telemetry_counts_frames_and_changes_no_prediction() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = untrained_model(
        (5, 6, 10),
        PrecisionAssignment::first_layer_int8_combinations()[3],
        &mut rng,
    );
    let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let frames = random_frames(16, &mut rng);
    let predict = || -> Vec<usize> {
        frames
            .data()
            .chunks_exact(64)
            .map(|frame| deployment.golden_prediction(frame))
            .collect()
    };
    let off = predict();
    pcount_telemetry::set_enabled(true);
    let frames_before = pcount_telemetry::counter("deploy/golden_frames").value();
    let latency_before = pcount_telemetry::histogram("deploy/golden_latency_ns").counts();
    let on = predict();
    let counted = pcount_telemetry::counter("deploy/golden_frames").value() - frames_before;
    let timed = pcount_telemetry::histogram("deploy/golden_latency_ns")
        .summary_since(&latency_before)
        .count;
    pcount_telemetry::set_enabled(false);
    assert_eq!(on, off, "telemetry changed a golden prediction");
    assert!(counted >= 16, "deploy/golden_frames advanced by {counted}");
    assert!(
        timed >= 16,
        "deploy/golden_latency_ns recorded {timed} frames"
    );
}
