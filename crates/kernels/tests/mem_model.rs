//! Deployed-CNN bit-identity suite for the memory-hierarchy seam.
//!
//! `MemoryModel::Flat` (the default) must reproduce the pre-seam cycle
//! accounting bit-for-bit on the real deployed workload: the reference
//! interpreter's flat per-op costs in `ExecMode::Simple`, plus exactly
//! the load-use interlock stalls on top of them in
//! `ExecMode::BlockCached`. `MemoryModel::Maupiti` must leave every
//! architectural result untouched while charging a strictly positive,
//! engine-independent stall breakdown.

use pcount_kernels::{Deployment, ExecMode, MemoryModel, Target};
use pcount_nn::{CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small trained + quantised CNN and a batch of sample frames.
fn deployed_model(seed: u64) -> (QuantizedCnn, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 24usize;
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
    (QuantizedCnn::from_qat(&qat), x)
}

fn deployment(
    model: &QuantizedCnn,
    target: Target,
    mode: ExecMode,
    mem: MemoryModel,
) -> Deployment {
    let mut d = Deployment::new(model, target).expect("deploy");
    d.set_exec_mode(mode);
    d.set_memory_model(mem);
    d
}

#[test]
fn flat_model_reproduces_pre_seam_cycles_in_every_engine_combination() {
    let (model, x) = deployed_model(20);
    for target in [Target::Maupiti, Target::Ibex] {
        let fresh = Deployment::new(&model, target).expect("deploy");
        assert!(fresh.memory_model().is_flat(), "Flat is the default model");
        let simple = deployment(&model, target, ExecMode::Simple, MemoryModel::Flat);
        let cached = deployment(&model, target, ExecMode::BlockCached, MemoryModel::Flat);
        for i in 0..4 {
            let frame = &x.data()[i * 64..(i + 1) * 64];
            let rs = simple.run_frame(frame).expect("simple");
            let rc = cached.run_frame(frame).expect("cached");
            // Architectural identity across both engines.
            assert_eq!(rs.logits, rc.logits, "{target} frame {i}");
            assert_eq!(rs.instructions, rc.instructions);
            assert_eq!(rs.sdotp, rc.sdotp);
            // The pre-seam cycle model: the block-cached engine charges
            // exactly the flat per-op costs plus its load-use interlock
            // stalls, and the memory model adds nothing.
            assert_eq!(
                rc.cycles,
                rs.cycles + rc.pipeline.load_use_stalls,
                "{target} frame {i}: Flat must not perturb cycle accounting"
            );
            assert!(rc.pipeline.load_use_stalls > 0, "CNN kernels do stall");
            assert_eq!(rs.mem, Default::default());
            assert_eq!(rc.mem, Default::default());
        }
    }
}

#[test]
fn maupiti_model_keeps_architectural_results_and_adds_engine_independent_stalls() {
    let (model, x) = deployed_model(21);
    let maupiti = MemoryModel::maupiti();
    let flat = deployment(
        &model,
        Target::Maupiti,
        ExecMode::BlockCached,
        MemoryModel::Flat,
    );
    let simple = deployment(&model, Target::Maupiti, ExecMode::Simple, maupiti);
    let cached = deployment(&model, Target::Maupiti, ExecMode::BlockCached, maupiti);
    for i in 0..4 {
        let frame = &x.data()[i * 64..(i + 1) * 64];
        let rf = flat.run_frame(frame).expect("flat");
        let rs = simple.run_frame(frame).expect("simple");
        let rc = cached.run_frame(frame).expect("cached");
        // The hierarchy must not leak into architectural state.
        assert_eq!(rf.logits, rc.logits, "frame {i}");
        assert_eq!(rf.prediction, rc.prediction);
        assert_eq!(rf.instructions, rc.instructions);
        assert_eq!(rf.sdotp, rc.sdotp);
        // Strictly more expensive, by exactly the stall breakdown, with
        // both stall causes live on the CNN workload.
        assert!(rc.mem.fetch_misses > 0, "frame {i}");
        assert!(rc.mem.contended_accesses > 0, "frame {i}");
        assert_eq!(rc.cycles, rf.cycles + rc.mem.stall_cycles());
        assert!(rc.cycles > rf.cycles);
        // The stall breakdown is a property of the retired stream, not of
        // the engine.
        assert_eq!(rs.mem, rc.mem, "frame {i}: engines diverged");
    }
}

#[test]
fn parallel_batches_are_bit_identical_under_the_maupiti_model() {
    let (model, x) = deployed_model(22);
    let n = 8usize;
    let batch = Tensor::from_vec(x.data()[..n * 64].to_vec(), &[n, 1, 8, 8]);
    let mut d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    d.set_memory_model(MemoryModel::maupiti());
    let serial: Vec<_> = (0..n)
        .map(|i| {
            d.run_frame(&batch.data()[i * 64..(i + 1) * 64])
                .expect("serial")
        })
        .collect();
    for threads in [1usize, 3] {
        let pool = d.make_pool(threads).expect("pool");
        let parallel = d.run_batch(&batch, &pool).expect("batch");
        assert_eq!(parallel, serial, "{threads} threads");
    }
    assert!(serial[0].mem.stall_cycles() > 0);
}

#[test]
fn hot_trace_report_explains_stalls_on_the_deployed_cnn() {
    let (model, x) = deployed_model(23);
    let frame = &x.data()[..64];
    let mut d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    d.set_memory_model(MemoryModel::maupiti());
    let run = d.run_frame(frame).expect("run");
    let hot = d.hottest_blocks(frame, 8).expect("profile");
    assert!(!hot.is_empty());
    let attributed: u64 = hot.iter().map(|h| h.mem_stall_cycles).sum();
    assert!(
        attributed > 0,
        "the hot-trace report must carry the memory-stall column"
    );
    assert!(attributed <= run.mem.stall_cycles() * 2);
}
