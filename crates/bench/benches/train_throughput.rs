//! Training-engine throughput: GEMM-backed vs naive nested-loop
//! convolution in images/second (forward + backward, the QAT/NAS hot
//! path), serial vs pool-parallel GEMM wall-clock on the
//! `pcount-runtime` worker pool, and serial vs parallel per-fold NAS
//! training wall-clock through `pcount_core::FoldTrainJob`.
//!
//! The bench prints a summary (conv speedup vs the 3x acceptance
//! target, GEMM parallel scaling vs the 1.7x 4-thread floor, fold-scaling
//! efficiency vs the 0.7 target on 4-core-or-wider hosts) and writes the
//! numbers to `BENCH_train.json` at the workspace root so the perf
//! trajectory stays machine-readable across PRs.
//!
//! `BENCH_SMOKE=1` (used by CI) skips the wall-clock assertions, shrinks
//! every measurement window and writes
//! `target/bench-smoke/BENCH_train.json` instead — the GEMM-vs-naive
//! equivalence checks, the parallel-GEMM bit-identity tripwire and the
//! thread-count determinism check still run in full, so training engine
//! regressions fail fast without timing noise.

use pcount_bench::{calls_per_s, host_threads, smoke_mode, write_bench_json, Rate};
use pcount_core::FoldTrainJob;
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_nn::{CnnConfig, Conv2d, Layer, TrainConfig};
use pcount_quant::{Precision, PrecisionAssignment, QatConfig};
use pcount_runtime::{install, Pool};
use pcount_tensor::{gemm, gemm_splits_columns, GemmScratch, SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Worker threads used for the parallel-fold measurement.
const PARALLEL_THREADS: usize = 4;

/// Pool width used for the parallel-GEMM scaling measurement.
const GEMM_THREADS: usize = 4;

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
        let y = self.conv.forward_with_weight(&self.x, &self.weight);
        black_box(self.conv.backward_with_weight(&y, &self.weight));
    }

    /// One naive-path training step (forward + backward).
    fn step_naive(&mut self) {
        self.conv.zero_grad();
        let y = self.conv.forward_naive_with_weight(&self.x, &self.weight);
        black_box(self.conv.backward_naive_with_weight(&y, &self.weight));
    }
}

/// Holds the GEMM conv path to the naive reference on the bench workload;
/// this is the timing-independent engine-regression tripwire that also
/// runs in smoke mode.
fn check_conv_equivalence() {
    let mut w = ConvWorkload::new(11);
    w.conv.zero_grad();
    let y_gemm = w.conv.forward_with_weight(&w.x, &w.weight);
    let gx_gemm = w.conv.backward_with_weight(&y_gemm, &w.weight);
    let wg_gemm = w.conv.weight_grad.clone();
    w.conv.zero_grad();
    let y_naive = w.conv.forward_naive_with_weight(&w.x, &w.weight);
    let gx_naive = w.conv.backward_naive_with_weight(&y_naive, &w.weight);
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

/// The GEMM workload for the pool-scaling measurement: a paper-scale-ish
/// product (wider than any single conv in the flow so the column split
/// has room to scale) that comfortably crosses the parallel threshold.
struct GemmWorkload {
    m: usize,
    n: usize,
    k: usize,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl GemmWorkload {
    fn new(seed: u64) -> Self {
        let (m, n, k) = (256, 768, 256);
        assert!(
            gemm_splits_columns(m, n, k),
            "bench workload must take the parallel path on multi-core pools"
        );
        let mut rng = SplitMix64::new(seed);
        let rand = |len: usize, rng: &mut SplitMix64| -> Vec<f32> {
            (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
        };
        let a = rand(m * k, &mut rng);
        let b = rand(k * n, &mut rng);
        Self { m, n, k, a, b }
    }

    /// One product under the installed pool, into `c`.
    fn run(&self, c: &mut [f32]) {
        gemm(
            &mut GemmScratch::default(),
            false,
            false,
            self.m,
            self.n,
            self.k,
            &self.a,
            &self.b,
            c,
            false,
        );
    }
}

/// Asserts the pool-parallel GEMM is bit-identical to the serial sweep
/// for 1 / 2 / 4 workers on the bench workload. This is the
/// timing-independent engine-regression tripwire; it always runs, smoke
/// mode included.
fn check_gemm_parallel_bit_identity(w: &GemmWorkload) -> bool {
    let run_with = |width: usize| {
        let pool = Pool::new(width);
        let mut c = vec![0.0f32; w.m * w.n];
        install(&pool, || w.run(&mut c));
        c
    };
    let serial = run_with(1);
    for width in [2, 4] {
        let parallel = run_with(width);
        for (i, (&s, &p)) in serial.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "parallel GEMM (width {width}) diverged from serial at element {i}: {p} vs {s}"
            );
        }
    }
    true
}

/// Sustained wall-clock of the bench GEMM under a pool of `width`
/// workers, in products/second.
fn measure_gemm_products_per_s(w: &GemmWorkload, width: usize) -> Rate {
    let pool = Pool::new(width);
    let mut c = vec![0.0f32; w.m * w.n];
    // The warm-up call spins the workers up.
    install(&pool, || calls_per_s(|| w.run(black_box(&mut c))))
}

/// The per-fold training workload measured for scaling: the quick-flow
/// architecture across every leave-one-session-out fold of the tiny
/// dataset.
struct FoldWorkload {
    dataset: IrDataset,
    network: pcount_nn::Sequential,
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
                verbose: false,
            },
            qat: QatConfig {
                epochs: 1,
                batch_size: 64,
                learning_rate: 5e-4,
                verbose: false,
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
    let gemm_workload = GemmWorkload::new(13);
    let gemm_bit_identical = check_gemm_parallel_bit_identity(&gemm_workload);

    // --- GEMM vs naive conv images/s ------------------------------------
    let mut w = ConvWorkload::new(3);
    let batch = w.batch;
    let ips_naive = calls_per_s(|| w.step_naive()).scaled(batch as f64);
    let ips_gemm = calls_per_s(|| w.step_gemm()).scaled(batch as f64);
    let conv_speedup = ips_gemm.median / ips_naive.median;

    // --- Serial vs pool-parallel GEMM -----------------------------------
    let gemm_serial_pps = measure_gemm_products_per_s(&gemm_workload, 1);
    let gemm_parallel_pps = measure_gemm_products_per_s(&gemm_workload, GEMM_THREADS);
    let gemm_parallel_speedup = gemm_parallel_pps.median / gemm_serial_pps.median;

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
    let fold_serial = calls_per_s(|| job.run(1));
    let fold_parallel = calls_per_s(|| job.run(PARALLEL_THREADS));
    let fold_scaling = fold_parallel.median / fold_serial.median;
    let fold_efficiency = fold_scaling / fold_workers as f64;
    let host_threads = host_threads();

    println!("train_throughput summary (training engine; medians):");
    let (naive_ips, gemm_ips) = (ips_naive.median, ips_gemm.median);
    println!("  conv naive:            {naive_ips:>10.2e} images/s (fwd+bwd, batch {batch})");
    println!("  conv GEMM:             {gemm_ips:>10.2e} images/s");
    println!("  conv speedup:          {conv_speedup:.2}x (acceptance target: >= 3x)");
    let (serial_pps, parallel_pps) = (gemm_serial_pps.median, gemm_parallel_pps.median);
    println!(
        "  GEMM {}x{}x{}:      serial {serial_pps:.1}/s vs pool x{GEMM_THREADS} \
         {parallel_pps:.1}/s",
        gemm_workload.m, gemm_workload.k, gemm_workload.n
    );
    println!(
        "  GEMM parallel scaling: {gemm_parallel_speedup:.2}x at {GEMM_THREADS} workers \
         (floor >= 1.7x on >= 4-core hosts; bit-identical: {gemm_bit_identical})"
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
    // the measurements above; one pooled GEMM with recording on yields the
    // per-worker task/busy breakdown for the report.
    let pool_utilization = {
        pcount_telemetry::set_enabled(true);
        let pool = Pool::new(GEMM_THREADS);
        let mut c = vec![0.0f32; gemm_workload.m * gemm_workload.n];
        install(&pool, || gemm_workload.run(&mut c));
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
            ("images_per_s_gemm", ips_gemm.into()),
            ("conv_speedup", conv_speedup.into()),
            ("gemm_threads", GEMM_THREADS.into()),
            ("gemm_products_per_s_serial", gemm_serial_pps.into()),
            ("gemm_products_per_s_parallel", gemm_parallel_pps.into()),
            ("gemm_parallel_speedup", gemm_parallel_speedup.into()),
            ("gemm_parallel_bit_identical", gemm_bit_identical.into()),
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
    // The committed record (2-core host) reads 11.7x from the medians:
    // GEMM 1.03e4 images/s (slowest window 9.8e3) vs naive 874 (608). The
    // hard guard sits lower because both operands are wall-clock
    // measurements on a possibly loaded machine. A reading under the 3x
    // acceptance target on a quiet machine is a real regression.
    assert!(
        conv_speedup >= 2.0,
        "GEMM conv regressed to {conv_speedup:.2}x the naive reference"
    );
    // Parallel GEMM needs real cores: on a >= 4-core host the NR-aligned
    // column split across 4 pool workers must deliver at least 1.7x over
    // the serial sweep (acceptance target). Even the committed 2-core
    // record reads 1.83x from the medians: 208 products/s (slowest window
    // 196) vs 114 (105).
    if host_threads >= GEMM_THREADS {
        assert!(
            gemm_parallel_speedup >= 1.7,
            "pool-parallel GEMM scaled only {gemm_parallel_speedup:.2}x \
             at {GEMM_THREADS} workers"
        );
    }
    // Fold scaling needs real cores: on a >= 4-core host the parallel fold
    // loop must deliver most of the linear speedup (0.7 efficiency
    // acceptance target, floor below for wall-clock noise). The committed
    // 2-core record reads 0.41 from the medians: 4.66 jobs/s (slowest
    // window 3.20) at 4 workers vs 2.82 (2.38) serial.
    if host_threads >= PARALLEL_THREADS {
        assert!(
            fold_efficiency >= 0.5,
            "parallel fold training efficiency dropped to {fold_efficiency:.2} \
             at {fold_workers} workers"
        );
    }
}
