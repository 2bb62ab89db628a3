//! Edge deployment deep dive: compile one quantised model for MAUPITI and
//! for a vanilla IBEX, run both on the instruction-set simulator, and
//! compare the instruction mix, cycles and energy against an STM32.
//!
//! Run with: `cargo run --release --example edge_deployment`

use maupiti::dataset::{DatasetConfig, IrDataset};
use maupiti::kernels::{hot_blocks_json, Deployment, MemoryModel, Target};
use maupiti::nn::{train_classifier, CnnConfig, TrainConfig};
use maupiti::platform::{evaluate_on_platforms, PlatformSpec};
use maupiti::quant::{
    fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig, QuantizedCnn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    let data = IrDataset::generate(&DatasetConfig::standard().scaled(0.2), 3);
    let fold = &data.leave_one_session_out()[0];
    let (x_train, y_train) = data.gather_normalized(fold.train.as_slice());
    let (x_test, _) = data.gather_normalized(fold.test.as_slice());

    // Train and quantise a mixed-precision model (INT 8-4-4-8).
    let arch = CnnConfig::seed().with_channels(12, 8, 16);
    let mut net = arch.build(&mut rng);
    let _ = train_classifier(
        &mut net,
        &x_train,
        &y_train,
        &TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
        &mut rng,
    );
    let folded = fold_sequential(arch, &net)?;
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
        &QatConfig::default(),
        &mut rng,
    );
    let model = QuantizedCnn::from_qat(&qat);
    println!(
        "model {assignment}: {} weight bytes, {} MACs",
        model.weight_bytes(),
        model.macs()
    );

    let frame = &x_test.data()[0..64];

    // Cycle-level comparison between the SDOTP and scalar kernels.
    for target in [Target::Ibex, Target::Maupiti] {
        let deployment = Deployment::new(&model, target)?;
        let run = deployment.run_frame(frame)?;
        let spec = match target {
            Target::Maupiti => PlatformSpec::MAUPITI,
            Target::Ibex => PlatformSpec::IBEX,
        };
        println!(
            "\n{target}: code {} B, data {} B",
            deployment.code_size_bytes(),
            deployment.data_size_bytes()
        );
        println!(
            "  {} instructions, {} cycles, {} SDOTP ops, {:.2} ms, {:.3} uJ",
            run.instructions,
            run.cycles,
            run.sdotp,
            spec.latency_ms(run.cycles),
            spec.energy_uj(run.cycles)
        );
    }

    // Hot-spot profile: the superblocks where the MAUPITI inference spends
    // its instructions and memory stalls, as machine-readable JSON. The
    // fused_* columns show which blocks the block engine ran as macro-op
    // fused loops (SDOTP channel loops and conv3x3 guard nests) and how
    // many loop iterations each fused entry absorbed.
    let mut profiled = Deployment::new(&model, Target::Maupiti)?;
    profiled.set_memory_model(MemoryModel::maupiti());
    let hot = profiled.hottest_blocks(frame, 5)?;
    println!("\nhottest superblocks (MAUPITI, maupiti memory model):");
    println!("{}", hot_blocks_json(&hot));

    // Fused-loop breakdown: per-block attribution (instructions per
    // block) still sums to the run total with fusion active.
    let all = profiled.hottest_blocks(frame, usize::MAX)?;
    let attributed: u64 = all.iter().map(|b| b.instructions).sum();
    let run = profiled.run_frame(frame)?;
    assert_eq!(
        attributed, run.instructions,
        "per-block attribution must sum to total instret"
    );
    println!(
        "\nfused loops ({} of {} instructions attributed):",
        attributed, run.instructions
    );
    println!(
        "  {:<9} {:>13} {:>8} {:>11} {:>12}",
        "pc", "kind", "entries", "iterations", "fused cycles"
    );
    for b in all.iter().filter(|b| b.fused_kind.is_some()) {
        println!(
            "  {:#09x} {:>13} {:>8} {:>11} {:>12}",
            b.entry_pc,
            b.fused_kind.unwrap_or("-"),
            b.fused_entries,
            b.fused_iterations,
            b.fused_cycles
        );
    }

    // Full three-platform comparison (Table-I style row).
    println!("\nThree-platform comparison:");
    for r in evaluate_on_platforms(&model, frame)? {
        println!(
            "  {:<8} code {:>6} B  data {:>6} B  latency {:>7.2} ms  energy {:>7.3} uJ",
            r.platform, r.code_bytes, r.data_bytes, r.latency_ms, r.energy_uj
        );
    }
    Ok(())
}
