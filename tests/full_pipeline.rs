//! Cross-crate integration tests: the complete pipeline from synthetic
//! data to deployed integer models on the instruction-set simulator.

use maupiti::dataset::{DatasetConfig, IrDataset};
use maupiti::kernels::{Deployment, Target};
use maupiti::nas::{search, CostTarget, NasConfig};
use maupiti::nn::{balanced_accuracy, evaluate, train_classifier, CnnConfig, TrainConfig};
use maupiti::postproc::apply_majority;
use maupiti::quant::{
    fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig, QuantizedCnn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 64,
        learning_rate: 2e-3,
        weight_decay: 0.0,
    }
}

/// End-to-end: data -> train -> NAS -> QAT -> integer model -> simulator.
#[test]
fn full_stack_produces_a_working_sensor_model() {
    let mut rng = StdRng::seed_from_u64(123);
    let data = IrDataset::generate(&DatasetConfig::tiny(), 123);
    let fold = &data.leave_one_session_out()[0];
    let (x_train, y_train) = data.gather_normalized(fold.train.as_slice());
    let (x_test, y_test) = data.gather_normalized(fold.test.as_slice());

    // Architecture search from a small seed.
    let seed = CnnConfig::seed().with_channels(8, 8, 16);
    let nas_cfg = NasConfig {
        lambda: 0.5,
        cost_target: CostTarget::Params,
        epochs: 5,
        warmup_epochs: 1,
        batch_size: 64,
        learning_rate: 2e-3,
    };
    let mut outcome = search(seed, &x_train, &y_train, &nas_cfg, &mut rng);
    assert!(outcome.config.num_params() <= seed.num_params());

    // Fine-tune the discovered architecture and check it beats chance.
    let _ = train_classifier(
        &mut outcome.network,
        &x_train,
        &y_train,
        &quick_train_cfg(),
        &mut rng,
    );
    let fp32_bas = evaluate(&mut outcome.network, &x_test, &y_test, 4);
    assert!(
        fp32_bas > 0.3,
        "fp32 model should clearly beat the 0.25 chance level, got {fp32_bas}"
    );

    // Quantise (mixed precision) and convert to integers.
    let folded = fold_sequential(outcome.config, &outcome.network).expect("fold");
    let assignment = PrecisionAssignment::new([
        Precision::Int8,
        Precision::Int4,
        Precision::Int4,
        Precision::Int8,
    ]);
    let mut qat = QatCnn::from_folded(&folded, assignment);
    let _ = qat_finetune(
        &mut qat,
        &x_train,
        &y_train,
        &QatConfig {
            epochs: 2,
            batch_size: 64,
            learning_rate: 5e-4,
        },
        &mut rng,
    );
    let model = QuantizedCnn::from_qat(&qat);

    // Deploy on both targets; logits must match the golden integer model.
    for target in [Target::Maupiti, Target::Ibex] {
        let deployment = Deployment::new(&model, target).expect("deploy");
        assert!(deployment.code_size_bytes() <= 16 * 1024);
        assert!(deployment.data_size_bytes() <= 16 * 1024);
        for i in 0..5 {
            let frame = &x_test.data()[i * 64..(i + 1) * 64];
            let run = deployment.run_frame(frame).expect("simulate");
            let golden = model.forward_int(&model.quantize_input(frame));
            assert_eq!(run.logits, golden, "target {target} frame {i}");
        }
    }

    // The integer model still does meaningfully better than chance, and
    // majority voting does not make it worse on a stable scene.
    let int_preds = model.predict_batch(&x_test);
    let int_bas = balanced_accuracy(&int_preds, &y_test, 4);
    assert!(int_bas > 0.3, "integer BAS {int_bas}");
    let smoothed = apply_majority(&int_preds, 5);
    let maj_bas = balanced_accuracy(&smoothed, &y_test, 4);
    assert!(maj_bas > 0.25, "majority BAS {maj_bas}");
}

/// The three platform models produce consistent Table-I style metrics.
#[test]
fn platform_comparison_has_the_papers_shape() {
    let mut rng = StdRng::seed_from_u64(7);
    let data = IrDataset::generate(&DatasetConfig::tiny(), 7);
    let fold = &data.leave_one_session_out()[0];
    let (x_train, y_train) = data.gather_normalized(fold.train.as_slice());
    let arch = CnnConfig::seed().with_channels(8, 8, 16);
    let mut net = arch.build(&mut rng);
    let _ = train_classifier(&mut net, &x_train, &y_train, &quick_train_cfg(), &mut rng);
    let folded = fold_sequential(arch, &net).expect("fold");
    let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
    qat.calibrate(&x_train);
    let model = QuantizedCnn::from_qat(&qat);
    let frame = &x_train.data()[0..64];
    let results = maupiti::platform::evaluate_on_platforms(&model, frame).expect("platforms");
    assert_eq!(results.len(), 3);
    let stm = &results[0];
    let ibex = &results[1];
    let mau = &results[2];
    // Shape of the paper's Table I: the smart sensor needs far less code
    // and data than the vendor-runtime MCU, the STM32 is the fastest, and
    // MAUPITI is the most energy-efficient.
    assert!(mau.code_bytes < stm.code_bytes / 4);
    assert!(mau.data_bytes < stm.data_bytes);
    assert!(stm.latency_ms < mau.latency_ms);
    assert!(mau.energy_uj < ibex.energy_uj);
    assert!(mau.energy_uj < stm.energy_uj);
}

/// The dataset's temporal structure actually benefits majority voting when
/// predictions are noisy (the mechanism behind Fig. 6).
#[test]
fn majority_voting_helps_on_temporally_correlated_streams() {
    let data = IrDataset::generate(&DatasetConfig::tiny(), 99);
    let idx = data.session_indices(2);
    let labels: Vec<usize> = idx.iter().map(|&i| data.labels()[i]).collect();
    // Simulate a classifier that is wrong on every fourth frame.
    let noisy: Vec<usize> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| if i % 4 == 3 { (l + 1) % 4 } else { l })
        .collect();
    let raw_bas = balanced_accuracy(&noisy, &labels, 4);
    let smoothed = apply_majority(&noisy, 5);
    let smoothed_bas = balanced_accuracy(&smoothed, &labels, 4);
    assert!(
        smoothed_bas > raw_bas,
        "majority voting should repair periodic errors ({smoothed_bas} vs {raw_bas})"
    );
}
