//! Deployed-CNN bit-identity suite for macro-op fusion.
//!
//! The block-cached engine's fused loop executor must be architecturally
//! and *micro-architecturally* invisible: on the real deployed CNN,
//! fusion on and fusion off must produce the same logits, instruction
//! counts, cycle counts, pipeline stall breakdowns and memory-hierarchy
//! stats — across both targets, both memory models, serial and pooled
//! execution, and watchdog budgets that expire in the middle of a fused
//! loop.

use pcount_kernels::{Deployment, ExecMode, MemoryModel, SimError, Target, INSTRUCTION_BUDGET};
use pcount_nn::{CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small trained + quantised CNN and a batch of sample frames.
fn deployed_model(seed: u64, assignment: PrecisionAssignment) -> (QuantizedCnn, Tensor) {
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
    let mut qat = QatCnn::from_folded(&folded, assignment);
    qat.calibrate(&x);
    (QuantizedCnn::from_qat(&qat), x)
}

fn deployment(
    model: &QuantizedCnn,
    target: Target,
    mode: ExecMode,
    mem: MemoryModel,
    fusion: bool,
) -> Deployment {
    let mut d = Deployment::new(model, target).expect("deploy");
    d.set_exec_mode(mode);
    d.set_memory_model(mem);
    d.set_macro_fusion(fusion);
    d
}

#[test]
fn fusion_is_bit_identical_on_the_deployed_cnn_in_every_engine_combination() {
    let (model, x) = deployed_model(31, PrecisionAssignment::uniform(Precision::Int8));
    for target in [Target::Maupiti, Target::Ibex] {
        let fresh = Deployment::new(&model, target).expect("deploy");
        assert!(fresh.macro_fusion(), "fusion is on by default");
        for mem in [MemoryModel::Flat, MemoryModel::maupiti()] {
            let simple = deployment(&model, target, ExecMode::Simple, mem, true);
            let fused = deployment(&model, target, ExecMode::BlockCached, mem, true);
            let unfused = deployment(&model, target, ExecMode::BlockCached, mem, false);
            for i in 0..3 {
                let frame = &x.data()[i * 64..(i + 1) * 64];
                let rs = simple.run_frame(frame).expect("simple");
                let rf = fused.run_frame(frame).expect("fused");
                let ru = unfused.run_frame(frame).expect("unfused");
                // Complete run equality — logits, prediction, cycles,
                // instret, sdotp count, stall breakdowns, mem stats.
                assert_eq!(
                    rf, ru,
                    "{target} {mem:?} frame {i}: fusion perturbed the run"
                );
                assert_eq!(rs.logits, rf.logits);
                assert_eq!(rs.instructions, rf.instructions);
                assert_eq!(rs.sdotp, rf.sdotp);
                assert_eq!(rs.mem, rf.mem, "mem stats are engine-independent");
            }
        }
    }
}

#[test]
fn fusion_is_bit_identical_for_4bit_models_and_pooled_batches() {
    let (model, x) = deployed_model(32, PrecisionAssignment::uniform(Precision::Int4));
    let n = 8usize;
    let batch = Tensor::from_vec(x.data()[..n * 64].to_vec(), &[n, 1, 8, 8]);
    let fused = deployment(
        &model,
        Target::Maupiti,
        ExecMode::BlockCached,
        MemoryModel::maupiti(),
        true,
    );
    let unfused = deployment(
        &model,
        Target::Maupiti,
        ExecMode::BlockCached,
        MemoryModel::maupiti(),
        false,
    );
    let serial: Vec<_> = (0..n)
        .map(|i| {
            unfused
                .run_frame(&batch.data()[i * 64..(i + 1) * 64])
                .expect("serial unfused")
        })
        .collect();
    for threads in [1usize, 4] {
        let pool = fused.make_pool(threads).expect("pool");
        let parallel = fused.run_batch(&batch, &pool).expect("batch");
        assert_eq!(
            parallel, serial,
            "{threads}-wide fused pool diverged from the serial unfused runs"
        );
    }
}

#[test]
fn fusion_fires_on_the_deployed_cnn_and_attribution_stays_consistent() {
    // The loop shapes the kernel generator emits: the conv3x3 guard nest
    // and the SDOTP channel loop at both lane widths.
    const DEPLOYED: [&str; 3] = ["conv3x3_nest", "mac_sdotp4", "mac_sdotp8"];
    for assignment in PrecisionAssignment::first_layer_int8_combinations() {
        let (model, x) = deployed_model(33, assignment);
        let frame = &x.data()[..64];
        for target in [Target::Maupiti, Target::Ibex] {
            for mem in [MemoryModel::Flat, MemoryModel::maupiti()] {
                let at = format!("{assignment} {target} {mem:?}");
                let d = deployment(&model, target, ExecMode::BlockCached, mem, true);
                let run = d.run_frame(frame).expect("run");
                let profile = d.fusion_profile(frame).expect("fusion profile");
                let hot = d.hottest_blocks(frame, usize::MAX).expect("profile");
                // Attribution invariant: per-block retired instructions and
                // memory-model stall cycles still sum to the whole inference.
                let attributed: u64 = hot.iter().map(|b| b.instructions).sum();
                assert_eq!(attributed, run.instructions, "{at}");
                let stalls: u64 = hot.iter().map(|b| b.mem_stall_cycles).sum();
                assert_eq!(stalls, run.mem.stall_cycles(), "{at}");
                let fused_blocks: Vec<_> = hot.iter().filter(|b| b.fused_kind.is_some()).collect();
                if target == Target::Ibex {
                    // The scalar channel loops match no idiom.
                    assert!(profile.is_empty(), "{at}: {profile:?}");
                    assert!(fused_blocks.is_empty(), "{at}");
                    continue;
                }
                assert!(
                    profile.iter().any(|(name, ..)| *name == "conv3x3_nest"),
                    "{at}: the conv3x3 guard nest must fuse: {profile:?}"
                );
                assert!(
                    profile
                        .iter()
                        .any(|(name, ..)| name.starts_with("mac_sdotp")),
                    "{at}: the SDOTP channel loop must fuse: {profile:?}"
                );
                assert!(
                    profile.iter().all(|(name, ..)| DEPLOYED.contains(name)),
                    "{at}: unexpected idiom in {profile:?}"
                );
                let fused_iters: u64 = fused_blocks.iter().map(|b| b.fused_iterations).sum();
                assert!(
                    fused_iters > 100,
                    "{at}: fusion barely fired: {fused_iters}"
                );
                // Fused cycles stay within the run.
                let fused_cycles: u64 = fused_blocks.iter().map(|b| b.fused_cycles).sum();
                assert!(fused_cycles > 0, "{at}");
                assert!(fused_cycles < run.cycles, "{at}");
            }
        }
    }
}

#[test]
fn watchdog_expiry_mid_fused_loop_is_bit_identical() {
    let (model, x) = deployed_model(34, PrecisionAssignment::uniform(Precision::Int8));
    let frame = &x.data()[..64];
    for mem in [MemoryModel::Flat, MemoryModel::maupiti()] {
        let full = deployment(&model, Target::Maupiti, ExecMode::BlockCached, mem, true)
            .run_frame(frame)
            .expect("full run");
        // Budgets landing all over the inference, including deep inside
        // the conv MAC loops.
        for budget in [500u64, 2_000, full.instructions / 2, full.instructions - 1] {
            let mut cpus: Vec<_> = (0..2)
                .map(|fusion| {
                    let d = deployment(
                        &model,
                        Target::Maupiti,
                        ExecMode::BlockCached,
                        mem,
                        fusion == 1,
                    );
                    let mut cpu = d.make_pool(1).expect("pool").base().clone();
                    let err = d
                        .run_frame_with_budget(&mut cpu, frame, budget)
                        .expect_err("reduced budget must time out");
                    assert_eq!(
                        err,
                        SimError::Timeout {
                            max_instructions: budget
                        }
                    );
                    cpu
                })
                .collect();
            let (unfused, fused) = (cpus.remove(0), cpus.remove(0));
            let at = format!("{mem:?} budget {budget}");
            for r in 0..32 {
                assert_eq!(unfused.reg(r), fused.reg(r), "{at}: x{r}");
            }
            assert_eq!(unfused.pc, fused.pc, "{at}: pc diverged");
            assert_eq!(unfused.instret, fused.instret, "{at}");
            assert_eq!(unfused.cycles, fused.cycles, "{at}");
            assert_eq!(unfused.sdotp, fused.sdotp, "{at}");
            assert_eq!(unfused.pipeline_stats(), fused.pipeline_stats(), "{at}");
            assert_eq!(unfused.mem_stats(), fused.mem_stats(), "{at}");
            let len = fused.mem.dmem_size();
            assert_eq!(
                unfused.mem.read_dmem(pcount_isa::DMEM_BASE, len),
                fused.mem.read_dmem(pcount_isa::DMEM_BASE, len),
                "{at}: torn memory images diverged"
            );
        }
        // Sanity: the default budget finishes.
        let d = deployment(&model, Target::Maupiti, ExecMode::BlockCached, mem, true);
        let mut cpu = d.make_pool(1).expect("pool").base().clone();
        let ok = d
            .run_frame_with_budget(&mut cpu, frame, INSTRUCTION_BUDGET)
            .expect("default budget");
        assert_eq!(ok, full);
    }
}
