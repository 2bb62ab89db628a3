//! Quickstart: train a small people-counting CNN on the synthetic IR
//! dataset, quantise it to INT8 and run it on the simulated MAUPITI smart
//! sensor.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Set `PCOUNT_TRACE=<path>` to record a chrome://tracing profile of the
//! run; open the file at `chrome://tracing` or <https://ui.perfetto.dev>.

use maupiti::dataset::{DatasetConfig, IrDataset};
use maupiti::kernels::{Deployment, Target};
use maupiti::nn::{evaluate, train_classifier, CnnConfig, TrainConfig};
use maupiti::platform::PlatformSpec;
use maupiti::quant::{
    fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig, QuantizedCnn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    maupiti::telemetry::init_from_env();
    let mut rng = StdRng::seed_from_u64(42);

    // 1. Generate a small synthetic LINAIGE-like dataset and a CV fold.
    let data = IrDataset::generate(&DatasetConfig::standard().scaled(0.25), 42);
    println!(
        "dataset: {} frames, class histogram {:?}",
        data.len(),
        data.class_histogram()
    );
    let fold = &data.leave_one_session_out()[0];
    let (x_train, y_train) = data.gather_normalized(fold.train.as_slice());
    let (x_test, y_test) = data.gather_normalized(fold.test.as_slice());

    // 2. Train a compact floating-point CNN.
    let arch = CnnConfig::seed().with_channels(8, 8, 16);
    let mut net = arch.build(&mut rng);
    let train_cfg = TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    };
    let stats = train_classifier(&mut net, &x_train, &y_train, &train_cfg, &mut rng);
    let fp32_bas = evaluate(&mut net, &x_test, &y_test, data.num_classes());
    println!(
        "fp32 model: {} params, final loss {:.3}, test BAS {:.3}",
        arch.num_params(),
        stats.final_loss(),
        fp32_bas
    );

    // 3. Fold batch-norm, quantise to INT8 and fine-tune.
    let folded = fold_sequential(arch, &net)?;
    let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
    let _ = qat_finetune(
        &mut qat,
        &x_train,
        &y_train,
        &QatConfig::default(),
        &mut rng,
    );
    let int8_bas = qat.evaluate(&x_test, &y_test, data.num_classes());
    println!(
        "int8 model: {} bytes of weights, test BAS {:.3}",
        qat.memory_bytes(),
        int8_bas
    );

    // 4. Deploy on the simulated MAUPITI smart sensor and measure it.
    let quantized = QuantizedCnn::from_qat(&qat);
    let deployment = Deployment::new(&quantized, Target::Maupiti)?;
    let frame = &x_test.data()[0..64];
    let run = deployment.run_frame(frame)?;
    println!(
        "MAUPITI: code {} B, data {} B, {} cycles/inference ({} SDOTP), energy {:.3} uJ",
        deployment.code_size_bytes(),
        deployment.data_size_bytes(),
        run.cycles,
        run.sdotp,
        PlatformSpec::MAUPITI.energy_uj(run.cycles)
    );
    println!(
        "predicted people count for the first test frame: {}",
        run.prediction
    );
    if let Some(path) = maupiti::telemetry::flush_env_trace()? {
        println!("wrote telemetry trace to {path}");
    }
    Ok(())
}
