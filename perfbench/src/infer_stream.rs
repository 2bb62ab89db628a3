//! `infer_stream`: a closed loop streaming the `DatasetConfig::tiny()`
//! frames through two MAUPITI deployments on warmed CPU pools.
//!
//! One caller submits the next batch to `Deployment::run_batch` only
//! after the previous one returned. The two deployments are the demo
//! model of `pcount_bench::demo_quantized_model` at uniform INT8 and at
//! mixed INT 8-4-4-4, so both SDOTP widths run. Every simulator
//! prediction must equal the host golden model's.

use crate::trace::timed;
use crate::{Outcome, Workload};
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_kernels::{CpuPool, Deployment, InferenceRun, Target};
use pcount_platform::PlatformSpec;
use pcount_quant::{Precision, PrecisionAssignment, QuantizedCnn};
use pcount_tensor::Tensor;
use std::fmt::Write as _;
use std::time::Instant;

/// Frames per `run_batch` call: the batch the ISA throughput bench
/// (`crates/bench/benches/isa_throughput.rs`) streams outside smoke mode.
const BATCH: usize = 32;
/// Channels of the demo model.
const CHANNELS: (usize, usize, usize) = (8, 8, 16);
/// Pixels of one 8x8 frame.
const PIXELS: usize = 64;

/// One compiled model with its warmed CPU pool.
struct Deployed {
    model: QuantizedCnn,
    deployment: Deployment,
    pool: CpuPool,
}

impl Deployed {
    /// Compiles `model` for MAUPITI and warms a `width`-wide pool.
    fn build(model: QuantizedCnn, width: usize) -> Self {
        let deployment = timed("kernels", "compile", || {
            Deployment::new(&model, Target::Maupiti).expect("demo model fits on-chip")
        });
        let pool = timed("kernels", "pool_warm", || {
            deployment.make_pool(width).expect("warm-up inference")
        });
        Self {
            model,
            deployment,
            pool,
        }
    }

    /// Every batch of the stream, one call at a time. A batch that
    /// faults is run again frame by frame, so only the frames that
    /// return a `SimError` count as failed.
    fn stream(&self, batches: &[Tensor]) -> Vec<Result<InferenceRun, String>> {
        let mut runs = Vec::new();
        for batch in batches {
            match timed("kernels", "run_batch", || {
                self.deployment.run_batch(batch, &self.pool)
            }) {
                Ok(batch_runs) => runs.extend(batch_runs.into_iter().map(Ok)),
                Err(_) => runs.extend(batch.data().chunks(PIXELS).map(|frame| {
                    timed("kernels", "run_frame", || {
                        self.deployment.run_frame(frame).map_err(|e| e.to_string())
                    })
                })),
            }
        }
        runs
    }
}

pub struct InferStream {
    width: usize,
    deployed: Vec<Deployed>,
    batches: Vec<Tensor>,
    /// Golden-model predictions per deployment, computed on first use.
    golden: Option<Vec<Vec<usize>>>,
}

/// Per-frame simulator results of one pass, per deployment.
type Runs = Vec<Vec<Result<InferenceRun, String>>>;

impl InferStream {
    /// Generates the stream, trains and quantises both demo models,
    /// compiles them and warms one CPU pool per deployment.
    pub fn setup(seed: u64, width: usize) -> Self {
        let data = IrDataset::generate(&DatasetConfig::tiny(), seed);
        let all: Vec<usize> = (0..data.len()).collect();
        let (frames, _) = data.gather_normalized(&all);
        let batches = frames
            .data()
            .chunks(BATCH * PIXELS)
            .map(|chunk| Tensor::from_vec(chunk.to_vec(), &[chunk.len() / PIXELS, 1, 8, 8]))
            .collect();
        let assignments = [
            PrecisionAssignment::uniform(Precision::Int8),
            PrecisionAssignment::new([
                Precision::Int8,
                Precision::Int4,
                Precision::Int4,
                Precision::Int4,
            ]),
        ];
        let deployed = assignments
            .into_iter()
            .map(|assignment| {
                let (model, _) = pcount_bench::demo_quantized_model(CHANNELS, assignment, seed);
                Deployed::build(model, width)
            })
            .collect();
        Self {
            width,
            deployed,
            batches,
            golden: None,
        }
    }

    /// The closed loop over every deployment.
    fn stream(&self) -> Runs {
        self.deployed
            .iter()
            .map(|d| d.stream(&self.batches))
            .collect()
    }

    /// The host golden model's predictions, per deployment.
    fn golden_predictions(&self) -> Vec<Vec<usize>> {
        self.deployed
            .iter()
            .map(|d| {
                self.batches
                    .iter()
                    .flat_map(|batch| {
                        timed("quant", "forward_int", || d.model.predict_batch(batch))
                    })
                    .collect()
            })
            .collect()
    }

    /// Checks one pass's results against the golden model and folds
    /// them into an outcome; also returns the instructions retired.
    fn outcome(&mut self, runs: &Runs) -> (Outcome, u64) {
        if self.golden.is_none() {
            // Computed once, in the first (untraced) pass, after its
            // timed region.
            self.golden = Some(self.golden_predictions());
        }
        let golden = self.golden.as_ref().expect("golden predictions computed");
        let mut digest = String::new();
        let mut errors = Vec::new();
        let (mut n, mut failed) = (0u64, 0u64);
        let (mut cycles, mut instret, mut sdotp, mut stalls, mut flushes) = (0, 0, 0, 0, 0);
        let mut energy_uj = 0.0;
        for (per_frame, expected) in runs.iter().zip(golden.iter()) {
            let mut mismatched = 0;
            for (result, &want) in per_frame.iter().zip(expected) {
                n += 1;
                match result {
                    Ok(run) => {
                        mismatched += usize::from(run.prediction != want);
                        cycles += run.cycles;
                        instret += run.instructions;
                        sdotp += run.sdotp;
                        stalls += run.pipeline.load_use_stalls;
                        flushes += run.pipeline.flush_cycles;
                        energy_uj += PlatformSpec::MAUPITI.energy_uj(run.cycles);
                        let _ = write!(digest, "{:?}{} ", run.logits, run.cycles);
                    }
                    Err(err) => {
                        failed += 1;
                        let _ = write!(digest, "error {err} ");
                    }
                }
            }
            if mismatched > 0 {
                errors.push(format!(
                    "{mismatched} simulator predictions differ from QuantizedCnn::predict_frame"
                ));
            }
        }
        let ok = (n - failed).max(1);
        let per_ok = |v: u64| v as f64 / ok as f64;
        let outcome = Outcome {
            attempted: n,
            failed,
            frames: n,
            digest,
            errors,
            deterministic: vec![
                ("sim_cycles_per_frame", per_ok(cycles)),
                ("sim_energy_uj_per_frame", energy_uj / ok as f64),
                ("isa.instret_per_frame", per_ok(instret)),
                ("isa.ipc", instret as f64 / cycles.max(1) as f64),
                ("isa.load_use_stalls_per_frame", per_ok(stalls)),
                ("isa.flush_cycles_per_frame", per_ok(flushes)),
                ("isa.sdotp_per_frame", per_ok(sdotp)),
            ],
            layers: Vec::new(),
        };
        (outcome, instret)
    }
}

impl Workload for InferStream {
    fn untraced(&mut self) -> (f64, Outcome) {
        let start = Instant::now();
        let runs = self.stream();
        let wall = start.elapsed().as_secs_f64();
        let (outcome, _) = self.outcome(&runs);
        (wall, outcome)
    }

    fn traced(&mut self) -> (f64, Outcome) {
        // Compile and warm again under spans. Each old deployment and
        // pool is dropped before its replacement is built, so only one
        // copy is ever resident.
        let models: Vec<QuantizedCnn> = self.deployed.drain(..).map(|d| d.model).collect();
        self.deployed = models
            .into_iter()
            .map(|model| Deployed::build(model, self.width))
            .collect();
        let start = Instant::now();
        let runs = self.stream();
        let wall = start.elapsed().as_secs_f64();
        let golden_start = Instant::now();
        let golden = self.golden_predictions();
        let golden_s = golden_start.elapsed().as_secs_f64();
        let first_frame = &self.batches[0].data()[..PIXELS];
        let fused: u64 = self
            .deployed
            .iter()
            .map(|d| {
                timed("kernels", "fusion_profile", || {
                    d.deployment.fusion_profile(first_frame)
                })
                .expect("profiling inference")
                .iter()
                .map(|&(_, _, iterations)| iterations)
                .sum::<u64>()
            })
            .sum();
        let (mut outcome, instret) = self.outcome(&runs);
        if Some(&golden) != self.golden.as_ref() {
            outcome
                .errors
                .push("the golden model is not deterministic".into());
        }
        let frames = outcome.frames as f64;
        outcome.layers.extend([
            ("isa.sim_ips", instret as f64 / wall),
            (
                "isa.fused_iterations_per_frame",
                fused as f64 / self.deployed.len() as f64,
            ),
            ("quant.forward_int_us_per_frame", golden_s * 1e6 / frames),
        ]);
        (wall, outcome)
    }
}
