//! Fault-ordering and pooled-CPU state-hygiene suite for
//! [`Deployment::run_batch`] under the worker pool.
//!
//! `run_batch` promises serial-loop error semantics at any pool width:
//! every frame is evaluated, and the returned error is the fault of the
//! *lowest* faulting frame index. The per-frame budget seam
//! ([`Deployment::run_batch_with_budgets`]) lets these tests make chosen
//! frames time out deterministically — at depth zero (budget exhausted on
//! the first instruction) or mid-inference — and the distinct budget
//! values embedded in [`SimError::Timeout`] identify *which* frame's
//! fault came back.
//!
//! The hygiene half pins down the reset contract: a CPU that faulted
//! mid-inference holds a torn memory image and a mid-program PC, and
//! reusing it without a reset perturbs the next frame's results;
//! [`Cpu::restore_from`] restores the pristine base state and makes the
//! next inference bit-identical to a fresh clone's.
//!
//! [`Cpu::restore_from`]: pcount_isa::Cpu::restore_from

use pcount_kernels::{Deployment, SimError, Target, INSTRUCTION_BUDGET};
use pcount_nn::{CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small trained + quantised CNN and a batch of sample frames.
fn deployed_model(seed: u64, n: usize) -> (QuantizedCnn, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
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

/// Runs the batch with reduced budgets on the given frames and returns
/// the error, asserting there is one.
fn faulting_batch(
    d: &Deployment,
    x: &Tensor,
    threads: usize,
    budgets: &[(usize, u64)],
) -> SimError {
    let pool = d.make_pool(threads).expect("pool");
    let budget_of = |i: usize| {
        budgets
            .iter()
            .find(|&&(f, _)| f == i)
            .map(|&(_, b)| b)
            .unwrap_or(INSTRUCTION_BUDGET)
    };
    d.run_batch_with_budgets(x, &pool, budget_of)
        .expect_err("chosen frames must fault")
}

#[test]
fn fault_on_frame_zero_is_returned_at_every_pool_width() {
    let (model, x) = deployed_model(40, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(0, 5)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 5
            },
            "{threads} threads"
        );
    }
}

#[test]
fn fault_on_the_last_frame_is_returned_at_every_pool_width() {
    let (model, x) = deployed_model(41, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(7, 9)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 9
            },
            "{threads} threads"
        );
    }
}

#[test]
fn lowest_index_fault_wins_across_worker_ranges() {
    let (model, x) = deployed_model(42, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    // Frames 2 and 5 land in different worker ranges at widths 2 and 4;
    // the distinct budgets identify whose Timeout is returned.
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(2, 7), (5, 13)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 7
            },
            "{threads} threads: a later range's fault shadowed frame 2"
        );
    }
}

#[test]
fn faults_at_different_depths_interleave_deterministically() {
    let (model, x) = deployed_model(43, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    // Frame 1 faults instantly (budget 1), frame 4 deep mid-inference
    // (budget 20k): the lowest index wins even though its fault is the
    // cheapest to hit...
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(1, 1), (4, 20_000)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 1
            },
            "{threads} threads"
        );
    }
    // ...and also when the depths are swapped (the deep fault on the
    // earlier frame finishes long after the instant one).
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(1, 20_000), (4, 1)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 20_000
            },
            "{threads} threads"
        );
    }
}

#[test]
fn every_frame_of_a_faulting_batch_is_still_evaluated() {
    let (model, x) = deployed_model(44, 8);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    // A batch with faults on three frames across all worker ranges still
    // returns the lowest fault, not whichever worker finished first.
    for threads in [1usize, 2, 4] {
        let err = faulting_batch(&d, &x, threads, &[(1, 11), (3, 12), (6, 14)]);
        assert_eq!(
            err,
            SimError::Timeout {
                max_instructions: 11
            },
            "{threads} threads"
        );
    }
    // And with no faults the same batch is bit-identical to serial.
    let pool = d.make_pool(4).expect("pool");
    let runs = d.run_batch(&x, &pool).expect("clean batch");
    for (i, run) in runs.iter().enumerate() {
        let serial = d
            .run_frame(&x.data()[i * 64..(i + 1) * 64])
            .expect("serial");
        assert_eq!(*run, serial, "frame {i}");
    }
}

#[test]
fn faulted_cpu_perturbs_the_next_frame_unless_restored() {
    let (model, x) = deployed_model(45, 4);
    let d = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let clean: Vec<_> = (0..2)
        .map(|i| {
            d.run_frame(&x.data()[i * 64..(i + 1) * 64])
                .expect("clean run")
        })
        .collect();
    assert!(
        clean[1].instructions > 2_000,
        "inference too small for a mid-flight timeout"
    );

    // Fault frame 0 mid-inference on a clone of the pool's base, then run
    // frame 1 on the same CPU WITHOUT a reset: the torn memory image and
    // mid-program PC must perturb the result (this is the hazard the
    // reset exists for).
    let pool = d.make_pool(2).expect("pool");
    let mut cpu = pool.base().clone();
    let err = d
        .run_frame_with_budget(&mut cpu, &x.data()[..64], 2_000)
        .expect_err("reduced budget must fault");
    assert!(matches!(err, SimError::Timeout { .. }));
    let dirty = d.run_frame_with_budget(&mut cpu, &x.data()[64..128], INSTRUCTION_BUDGET);
    let dirty_matches_clean = match dirty {
        Ok(run) => run == clean[1],
        Err(_) => false,
    };
    assert!(
        !dirty_matches_clean,
        "reusing a faulted CPU without reset silently produced the clean result"
    );

    // Restore the CPU from the base: the next inference is bit-identical
    // to a fresh clone's.
    cpu.restore_from(pool.base());
    let healed = d
        .run_frame_with_budget(&mut cpu, &x.data()[64..128], INSTRUCTION_BUDGET)
        .expect("restored CPU runs clean");
    assert_eq!(healed, clean[1], "restore did not reset pristine state");

    // `run_batch` restores its CPU from the base before every frame, so
    // no frame of a batch leaks into the next one.
    let runs = d.run_batch(&x, &pool).expect("batch");
    for (i, run) in runs.iter().enumerate() {
        let serial = d
            .run_frame(&x.data()[i * 64..(i + 1) * 64])
            .expect("serial");
        assert_eq!(*run, serial, "frame {i}");
    }
}
