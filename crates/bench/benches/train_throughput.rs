//! Training-engine throughput: GEMM-backed vs naive nested-loop
//! convolution in images/second (forward + backward, the QAT/NAS hot
//! path), the GEMM-backed convolution on `pcount-runtime` pools of width 1
//! and 4 (its image groups and weight-gradient strips are the training
//! engine's parallelism; every GEMM runs serially inside one task), one
//! whole training step of the flow's seed network in images/second, and
//! serial vs parallel per-fold NAS training wall-clock through
//! `pcount_core::FoldTrainJob`. The operands of each ratio are timed in
//! interleaved windows (`pcount_bench::interleaved_calls_per_s`).
//!
//! The bench prints a summary (conv speedup vs the 3x acceptance
//! target, conv parallel scaling vs the 1.7x 4-thread floor, fold-scaling
//! efficiency vs the 0.7 target on 4-core-or-wider hosts) and writes the
//! numbers to `BENCH_train.json` at the workspace root so the perf
//! trajectory stays machine-readable across PRs.
//!
//! `BENCH_SMOKE=1` (used by CI) skips the wall-clock assertions, shrinks
//! every measurement window and writes
//! `target/bench-smoke/BENCH_train.json` instead — the GEMM-vs-naive
//! equivalence check and the thread-count determinism check still run in
//! full, so training engine regressions fail fast without timing noise.

use pcount_bench::{
    calls_per_s, host_threads, interleaved_calls_per_s, smoke_mode, write_bench_json,
};
use pcount_core::FoldTrainJob;
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_nn::{
    Adam, CnnConfig, Conv2d, CrossEntropyLoss, Layer, Mode, Network, Sequential, TrainConfig,
};
use pcount_quant::{Precision, PrecisionAssignment, QatConfig};
use pcount_runtime::{install, Pool};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Worker threads used for the parallel conv and fold measurements.
const PARALLEL_THREADS: usize = 4;

/// The convolution workload: conv2 of the paper's scaled-down seed (the
/// widest layer of the deployed CNNs) on a training-sized batch.
struct ConvWorkload {
    conv: Conv2d,
    weight: Tensor,
    x: Tensor,
    batch: usize,
}

impl ConvWorkload {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = 64;
        let conv = Conv2d::new(16, 24, 3, 1, 1, &mut rng);
        let weight = conv.weight.clone();
        let x = Tensor::randn(&[batch, 16, 8, 8], 1.0, &mut rng);
        Self {
            conv,
            weight,
            x,
            batch,
        }
    }

    /// One GEMM-path training step (forward + backward).
    fn step_gemm(&mut self) {
        self.conv.zero_grad();
        let y = self
            .conv
            .forward_with_weight(&self.x, &self.weight, Mode::Train);
        black_box(self.conv.backward_with_weight(&y, &self.weight));
    }

    /// One naive-path training step (forward + backward).
    fn step_naive(&mut self) {
        self.conv.zero_grad();
        let y = self.conv.forward_naive_with_weight(&self.x, &self.weight);
        black_box(
            self.conv
                .backward_naive_with_weight(&self.x, &y, &self.weight),
        );
    }
}

/// One training step of the default flow's seed network, exactly as `fit`
/// runs it: `zero_grad`, a training-mode forward, cross-entropy,
/// `backward` and one Adam step, on a fixed batch.
struct SeedStep {
    net: Sequential,
    x: Tensor,
    y: Vec<usize>,
    opt: Adam,
    loss: CrossEntropyLoss,
}

impl SeedStep {
    /// Images per step: the flow's training batch size.
    const BATCH: usize = 128;

    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = CnnConfig::seed().with_channels(24, 24, 32);
        let x = Tensor::randn(&[Self::BATCH, 1, 8, 8], 1.0, &mut rng);
        let y = (0..Self::BATCH)
            .map(|_| rng.gen_range(0..arch.num_classes))
            .collect();
        Self {
            net: arch.build(&mut rng),
            x,
            y,
            opt: Adam::new(1e-3, 1e-4),
            loss: CrossEntropyLoss::new(),
        }
    }

    fn step(&mut self) -> f32 {
        self.net.zero_grad();
        let logits = self.net.forward(&self.x, Mode::Train);
        let loss = self.loss.forward(&logits, &self.y);
        self.net.backward(&self.loss.backward());
        self.opt.step(self.net.params_and_grads());
        loss
    }
}

/// Holds the GEMM conv path to the naive reference on the bench workload;
/// this is the timing-independent engine-regression tripwire that also
/// runs in smoke mode.
fn check_conv_equivalence() {
    let mut w = ConvWorkload::new(11);
    w.conv.zero_grad();
    let y_gemm = w.conv.forward_with_weight(&w.x, &w.weight, Mode::Train);
    let gx_gemm = w.conv.backward_with_weight(&y_gemm, &w.weight);
    let wg_gemm = w.conv.weight_grad.clone();
    w.conv.zero_grad();
    let y_naive = w.conv.forward_naive_with_weight(&w.x, &w.weight);
    let gx_naive = w.conv.backward_naive_with_weight(&w.x, &y_naive, &w.weight);
    for (what, got, want) in [
        ("forward", &y_gemm, &y_naive),
        ("input grad", &gx_gemm, &gx_naive),
        ("weight grad", &wg_gemm, &w.conv.weight_grad),
    ] {
        assert_eq!(got.shape(), want.shape());
        for (i, (&g, &n)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert!(
                (g - n).abs() <= 1e-4 * 1.0f32.max(n.abs()),
                "conv {what} diverged from naive reference at {i}: {g} vs {n}"
            );
        }
    }
}

/// The per-fold training workload measured for scaling: the quick-flow
/// architecture across every leave-one-session-out fold of the tiny
/// dataset.
struct FoldWorkload {
    dataset: IrDataset,
    network: Sequential,
    arch: CnnConfig,
    train: TrainConfig,
    qat: QatConfig,
    assignments: Vec<PrecisionAssignment>,
}

impl FoldWorkload {
    fn new(epochs: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = IrDataset::generate(&DatasetConfig::tiny(), 5);
        let arch = CnnConfig::seed().with_channels(6, 6, 12);
        let network = arch.build(&mut rng);
        Self {
            dataset,
            network,
            arch,
            train: TrainConfig {
                epochs,
                batch_size: 64,
                learning_rate: 2e-3,
                weight_decay: 0.0,
            },
            qat: QatConfig {
                epochs: 1,
                batch_size: 64,
                learning_rate: 5e-4,
            },
            assignments: vec![
                PrecisionAssignment::uniform(Precision::Int8),
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int4,
                    Precision::Int8,
                ]),
            ],
        }
    }

    fn job<'a>(&'a self, folds: &'a [pcount_dataset::CvFold]) -> FoldTrainJob<'a> {
        FoldTrainJob {
            arch: self.arch,
            network: &self.network,
            dataset: &self.dataset,
            folds,
            train: &self.train,
            qat: &self.qat,
            assignments: &self.assignments,
            majority_window: 5,
            rng_seed: 7,
            lambda_index: 0,
        }
    }
}

/// Asserts the fold job returns identical results for every thread count
/// (the per-fold derived-seed determinism contract). Runs in smoke mode.
fn check_fold_determinism() {
    let workload = FoldWorkload::new(1);
    let folds: Vec<_> = workload
        .dataset
        .leave_one_session_out()
        .into_iter()
        .take(2)
        .collect();
    let job = workload.job(&folds);
    let serial = job.run(1);
    let parallel = job.run(PARALLEL_THREADS);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            a.fp32_bas, b.fp32_bas,
            "fold training must be deterministic"
        );
        for (ca, cb) in a.candidates.iter().zip(b.candidates.iter()) {
            assert_eq!(ca.bas, cb.bas, "QAT must be deterministic");
            assert_eq!(ca.bas_majority, cb.bas_majority);
        }
    }
}

fn main() {
    let smoke = smoke_mode();

    check_conv_equivalence();
    check_fold_determinism();

    // --- GEMM vs naive conv images/s, serial and pooled -------------------
    // The three operands of the two conv ratios are timed in one set of
    // interleaved windows, each on its own copy of the workload.
    let [mut naive, mut serial, mut w] = [3, 3, 3].map(ConvWorkload::new);
    let batch = w.batch;
    let (pool_serial, pool_parallel) = (Pool::new(1), Pool::new(PARALLEL_THREADS));
    let [ips_naive, ips_gemm_serial, ips_gemm_parallel] = interleaved_calls_per_s([
        &mut || naive.step_naive(),
        &mut || install(&pool_serial, || serial.step_gemm()),
        &mut || install(&pool_parallel, || w.step_gemm()),
    ])
    .map(|rate| rate.scaled(batch as f64));
    let conv_speedup = ips_gemm_serial.median / ips_naive.median;
    let conv_parallel_speedup = ips_gemm_parallel.median / ips_gemm_serial.median;

    // --- One seed-network training step on one worker ------------------
    let mut seed_step = SeedStep::new(3);
    let seed_step_ips =
        install(&pool_serial, || calls_per_s(|| seed_step.step())).scaled(SeedStep::BATCH as f64);

    // --- Serial vs parallel fold jobs/s ---------------------------------
    let workload = FoldWorkload::new(if smoke { 1 } else { 8 });
    let folds = workload.dataset.leave_one_session_out();
    let folds: Vec<_> = if smoke {
        folds.into_iter().take(2).collect()
    } else {
        folds
    };
    let job = workload.job(&folds);
    let fold_workers = PARALLEL_THREADS.min(folds.len());
    let [fold_serial, fold_parallel] = interleaved_calls_per_s([
        &mut || {
            black_box(job.run(1));
        },
        &mut || {
            black_box(job.run(PARALLEL_THREADS));
        },
    ]);
    let fold_scaling = fold_parallel.median / fold_serial.median;
    let fold_efficiency = fold_scaling / fold_workers as f64;
    let host_threads = host_threads();

    println!("train_throughput summary (training engine; medians):");
    let (naive_ips, serial_ips) = (ips_naive.median, ips_gemm_serial.median);
    let parallel_ips = ips_gemm_parallel.median;
    println!("  conv naive:            {naive_ips:>10.2e} images/s (fwd+bwd, batch {batch})");
    println!("  conv GEMM, 1 worker:   {serial_ips:>10.2e} images/s");
    println!("  conv GEMM, {PARALLEL_THREADS} workers:  {parallel_ips:>10.2e} images/s");
    println!("  conv speedup:          {conv_speedup:.2}x serial over naive (target: >= 3x)");
    println!(
        "  conv parallel scaling: {conv_parallel_speedup:.2}x at {PARALLEL_THREADS} workers \
         (floor >= 1.7x on >= 4-core hosts)"
    );
    println!(
        "  seed training step:    {:>10.2e} images/s (24-24-32 seed, batch {}, 1 worker)",
        seed_step_ips.median,
        SeedStep::BATCH
    );
    let (serial_s, parallel_s) = (fold_serial.median.recip(), fold_parallel.median.recip());
    println!(
        "  fold training:         serial {serial_s:.2}s vs parallel x{fold_workers} {parallel_s:.2}s ({} folds)",
        folds.len()
    );
    println!(
        "  fold scaling:          {fold_scaling:.2}x, efficiency {fold_efficiency:.2} \
         (target >= 0.7 on >= 4-core hosts; {host_threads} host threads)"
    );

    // --- Instrumented pool-utilization capture --------------------------
    // Runs after every timed window so enabling telemetry cannot perturb
    // the measurements above; one pooled conv training step with recording
    // on yields the per-worker task/busy breakdown for the report.
    let pool_utilization = {
        pcount_telemetry::set_enabled(true);
        let pool = Pool::new(PARALLEL_THREADS);
        install(&pool, || w.step_gemm());
        let util = pool.handle().utilization();
        pcount_telemetry::set_enabled(false);
        util
    };

    write_bench_json(
        "BENCH_train.json",
        "train_throughput",
        [
            ("conv_batch", batch.into()),
            ("images_per_s_naive", ips_naive.into()),
            ("images_per_s_gemm_serial", ips_gemm_serial.into()),
            ("images_per_s_gemm_parallel", ips_gemm_parallel.into()),
            ("conv_speedup", conv_speedup.into()),
            ("conv_threads", PARALLEL_THREADS.into()),
            ("conv_parallel_speedup", conv_parallel_speedup.into()),
            ("seed_step_batch", SeedStep::BATCH.into()),
            ("seed_step_images_per_s", seed_step_ips.into()),
            ("fold_count", folds.len().into()),
            ("fold_workers", fold_workers.into()),
            ("fold_jobs_per_s_serial", fold_serial.into()),
            ("fold_jobs_per_s_parallel", fold_parallel.into()),
            ("fold_scaling", fold_scaling.into()),
            ("fold_efficiency", fold_efficiency.into()),
            ("pool_utilization", (&pool_utilization).into()),
        ],
    );

    if smoke {
        println!("BENCH_SMOKE=1: wall-clock assertions skipped");
        return;
    }
    // The committed record (2-core host) reads 25.8x from the medians:
    // GEMM at 1 worker 1.30e4 images/s (slowest window 1.12e4) vs naive
    // 505 (429); full runs of one build spread 19.1-26.4x on that host.
    // The hard guard sits lower because both operands are
    // wall-clock measurements on a possibly loaded machine. A reading
    // under the 3x acceptance target on a quiet machine is a real
    // regression.
    assert!(
        conv_speedup >= 2.0,
        "GEMM conv regressed to {conv_speedup:.2}x the naive reference"
    );
    // The conv image groups and weight-gradient strips are the training
    // engine's parallelism (each GEMM runs serially on its worker): on a
    // >= 4-core host a 4-worker pool must deliver at least 1.7x over one
    // worker. The committed 2-core record, where the floor does not
    // apply, reads 1.89x from the medians: 2.45e4 images/s (slowest
    // window 2.27e4) vs 1.30e4 (1.12e4).
    if host_threads >= PARALLEL_THREADS {
        assert!(
            conv_parallel_speedup >= 1.7,
            "pool-parallel conv scaled only {conv_parallel_speedup:.2}x \
             at {PARALLEL_THREADS} workers"
        );
    }
    // Fold scaling needs real cores: on a >= 4-core host the parallel fold
    // loop must deliver most of the linear speedup (0.7 efficiency
    // acceptance target, floor below for wall-clock noise). The committed
    // 2-core record reads 0.46 from the medians: 7.03 jobs/s (slowest
    // window 6.87) at 4 workers vs 3.85 (3.76) serial.
    if host_threads >= PARALLEL_THREADS {
        assert!(
            fold_efficiency >= 0.5,
            "parallel fold training efficiency dropped to {fold_efficiency:.2} \
             at {fold_workers} workers"
        );
    }
}
