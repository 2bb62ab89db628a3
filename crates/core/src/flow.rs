//! The end-to-end optimisation flow.

use crate::pareto::ParetoPoint;
use pcount_dataset::{CvFold, DatasetConfig, IrDataset};
use pcount_kernels::{DeployError, Deployment, MemStats, MemoryModel, PipelineStats, Target};
use pcount_nas::{search, CostTarget, NasConfig};
use pcount_nn::{
    balanced_accuracy, evaluate, predict, train_classifier, CnnConfig, Sequential, TrainConfig,
};
use pcount_platform::{result_from_report, EnergyBreakdown, PlatformSpec};
use pcount_postproc::apply_majority;
use pcount_quant::{
    fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig, QuantizedCnn,
};
use pcount_tensor::SplitMix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration of a full flow run.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The seed architecture the DNAS starts from.
    pub seed_architecture: CnnConfig,
    /// Synthetic dataset configuration.
    pub dataset: DatasetConfig,
    /// Seed for dataset generation.
    pub dataset_seed: u64,
    /// Seed for training/search randomness.
    pub rng_seed: u64,
    /// DNAS strength sweep.
    pub lambdas: Vec<f64>,
    /// DNAS hyper-parameters (the `lambda` field is overridden per sweep
    /// point).
    pub nas: NasConfig,
    /// Seed-training / fine-tuning hyper-parameters.
    pub train: TrainConfig,
    /// QAT fine-tuning hyper-parameters.
    pub qat: QatConfig,
    /// Precision assignments to explore for every discovered architecture.
    pub assignments: Vec<PrecisionAssignment>,
    /// Majority-voting window length.
    pub majority_window: usize,
    /// How many cross-validation folds to evaluate (1..=4).
    pub max_folds: usize,
    /// Concurrency cap for the post-sweep deployment evaluation (`0` =
    /// the runtime pool's width). Results are identical for any value —
    /// candidates are independent and collected in order.
    pub deploy_threads: usize,
    /// Concurrency cap for the λ-sweep and fold-loop fan-outs (`0` = the
    /// runtime pool's width). Both levels draw from the single
    /// persistent `pcount-runtime` pool (sized by `POOL_THREADS`), so
    /// the budget is shared across levels rather than multiplied. Note
    /// this caps only those two scheduling groups — the conv image
    /// groups underneath use whatever pool workers are free — so the
    /// hard bound on total CPU use is always the pool width
    /// (`POOL_THREADS`), not this knob. Every (phase, λ, fold) work item
    /// draws from its own RNG stream derived via SplitMix64 from
    /// [`FlowConfig::rng_seed`], so results are identical for any cap
    /// and any pool size — work items are independent and collected in
    /// order. (The switch from one shared RNG stream to per-item derived
    /// streams was a one-time results change; see the README's
    /// training-engine notes.)
    pub train_threads: usize,
    /// The memory-hierarchy model the deployment sweep charges cycles
    /// through. The default [`MemoryModel::Flat`] reproduces the
    /// historical cycle/energy numbers bit-identically;
    /// [`MemoryModel::maupiti`] adds prefetch-refill and SRAM-contention
    /// stalls and fills the per-component breakdown of
    /// [`DeployedCost::mem`] / [`DeployedCost::energy`].
    pub mem_model: MemoryModel,
}

impl FlowConfig {
    /// A minutes-scale configuration used by the experiment binaries.
    ///
    /// The seed is scaled down from the paper's 64-64-64 configuration and
    /// the precision sweep is restricted to the four assignments the paper
    /// plots in Fig. 5, so that every figure regenerates in CPU-minutes;
    /// widen `lambdas`, `assignments`, `max_folds` and the dataset scale
    /// for a closer (but slower) reproduction.
    pub fn default_experiment() -> Self {
        Self {
            seed_architecture: CnnConfig::seed().with_channels(24, 24, 32),
            dataset: DatasetConfig::challenging().scaled(0.35),
            dataset_seed: 2024,
            rng_seed: 7,
            lambdas: vec![0.3, 1.5, 5.0],
            nas: NasConfig {
                cost_target: CostTarget::Params,
                epochs: 8,
                warmup_epochs: 2,
                batch_size: 128,
                learning_rate: 2e-3,
                lambda: 0.0,
            },
            train: TrainConfig {
                epochs: 8,
                batch_size: 128,
                learning_rate: 1e-3,
                weight_decay: 1e-4,
            },
            qat: QatConfig {
                epochs: 2,
                batch_size: 128,
                learning_rate: 5e-4,
            },
            assignments: vec![
                PrecisionAssignment::uniform(Precision::Int8),
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int8,
                    Precision::Int8,
                ]),
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int4,
                    Precision::Int8,
                ]),
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int4,
                    Precision::Int4,
                ]),
            ],
            majority_window: 5,
            max_folds: 1,
            deploy_threads: 0,
            train_threads: 0,
            mem_model: MemoryModel::Flat,
        }
    }

    /// A seconds-scale configuration used by tests and doc examples.
    pub fn quick() -> Self {
        Self {
            seed_architecture: CnnConfig::seed().with_channels(6, 6, 12),
            dataset: DatasetConfig::tiny(),
            dataset_seed: 1,
            rng_seed: 1,
            lambdas: vec![0.2, 2.0],
            nas: NasConfig {
                cost_target: CostTarget::Params,
                epochs: 4,
                warmup_epochs: 1,
                batch_size: 64,
                learning_rate: 3e-3,
                lambda: 0.0,
            },
            train: TrainConfig {
                epochs: 4,
                batch_size: 64,
                learning_rate: 2e-3,
                weight_decay: 0.0,
            },
            qat: QatConfig {
                epochs: 2,
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
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int4,
                    Precision::Int4,
                ]),
            ],
            majority_window: 5,
            max_folds: 1,
            deploy_threads: 0,
            train_threads: 0,
            mem_model: MemoryModel::Flat,
        }
    }
}

/// One quantised candidate produced by the flow (architecture + precision
/// assignment), with its cross-validated accuracy and cost metrics.
#[derive(Debug, Clone)]
pub struct CandidateModel {
    /// Human-readable label, e.g. `"λ=0.3 INT 8-4-4-8"`.
    pub label: String,
    /// Architecture discovered by the DNAS.
    pub config: CnnConfig,
    /// Precision assignment.
    pub assignment: PrecisionAssignment,
    /// Cross-validated single-frame balanced accuracy.
    pub bas: f64,
    /// Cross-validated balanced accuracy with majority voting.
    pub bas_majority: f64,
    /// Model memory (packed weights + 32-bit biases) in bytes.
    pub memory_bytes: usize,
    /// MAC operations per inference.
    pub macs: usize,
    /// Integer model from the last evaluated fold, ready for deployment.
    pub quantized: QuantizedCnn,
    /// Measured on-simulator deployment cost (`None` when the candidate
    /// does not fit the 16 KB on-chip memories).
    pub deployed: Option<DeployedCost>,
}

/// Per-inference cost of a candidate measured on the simulated sensor
/// node (Table I axes), produced by the deployment sweep at the end of
/// [`run_flow`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedCost {
    /// The execution target the candidate was compiled for.
    pub target: Target,
    /// Program size in bytes.
    pub code_bytes: usize,
    /// Data memory usage in bytes.
    pub data_bytes: usize,
    /// Cycles per inference on the pipelined IBEX timing model.
    pub cycles: u64,
    /// Instructions retired per inference.
    pub instructions: u64,
    /// SDOTP instructions per inference.
    pub sdotp: u64,
    /// Latency per inference in milliseconds at the platform clock.
    pub latency_ms: f64,
    /// Energy per inference in microjoules.
    pub energy_uj: f64,
    /// Per-cause memory stall breakdown of the measured inference (all
    /// zero under [`MemoryModel::Flat`]).
    pub mem: MemStats,
    /// The per-inference energy split into core / imem / dmem components
    /// along the stall breakdown.
    pub energy: EnergyBreakdown,
    /// Pipeline stall/flush counters of the measured inference.
    pub pipeline: PipelineStats,
}

impl CandidateModel {
    /// The candidate as a Pareto point using its single-frame accuracy.
    pub fn point(&self) -> ParetoPoint {
        ParetoPoint::new(self.label.clone(), self.bas, self.memory_bytes, self.macs)
    }

    /// The candidate as a Pareto point using its majority-voted accuracy.
    pub fn majority_point(&self) -> ParetoPoint {
        ParetoPoint::new(
            format!("{} +maj", self.label),
            self.bas_majority,
            self.memory_bytes,
            self.macs,
        )
    }

    /// Compiles the candidate's integer model for `target` and loads it
    /// into the simulated on-chip memories, ready to measure per-inference
    /// cycles, energy and footprint (Table I). Inferences run on the
    /// simulator's block-cached engine with the pipelined IBEX timing
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when the candidate does not fit the 16 KB
    /// instruction / 16 KB data memories.
    pub fn deploy(&self, target: Target) -> Result<Deployment, DeployError> {
        Deployment::new(&self.quantized, target)
    }
}

/// Observability report of one [`run_flow`] invocation: the wall time of
/// each flow phase, measured with two `Instant` reads per phase whether
/// or not telemetry records. Purely observational — never feeds back
/// into any computed result.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// `(phase name, wall seconds)` for the flow's three phases, in
    /// execution order: `flow/seed_eval`, `flow/lambda_sweep`,
    /// `flow/deploy_sweep`.
    pub phases: Vec<(&'static str, f64)>,
}

/// The output of [`run_flow`].
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The floating-point seed network (blue star of Fig. 5).
    pub seed_point: ParetoPoint,
    /// The FP32 architectures found by the λ sweep (grey front of Fig. 5).
    pub fp32_points: Vec<ParetoPoint>,
    /// Every (architecture, precision) candidate after QAT.
    pub quantized: Vec<CandidateModel>,
    /// Majority-voting window used for the post-processed metrics.
    pub majority_window: usize,
    /// Observability report of this run (phase wall times).
    pub telemetry: TelemetryReport,
}

impl FlowResult {
    /// Pareto points of all quantised candidates (single-frame accuracy).
    pub fn quantized_points(&self) -> Vec<ParetoPoint> {
        self.quantized.iter().map(CandidateModel::point).collect()
    }

    /// Pareto points of all quantised candidates after majority voting.
    pub fn majority_points(&self) -> Vec<ParetoPoint> {
        self.quantized
            .iter()
            .map(CandidateModel::majority_point)
            .collect()
    }

    /// Every candidate that fits the on-chip memories, paired with its
    /// measured deployment cost — the latency/energy axes of the Fig. 7
    /// variant and Table I. Candidate order is preserved.
    pub fn deployed_rows(&self) -> Vec<(&CandidateModel, &DeployedCost)> {
        self.quantized
            .iter()
            .filter_map(|c| c.deployed.as_ref().map(|d| (c, d)))
            .collect()
    }
}

/// RNG stream tags for [`derive_seed`]: one namespace per flow phase.
const STREAM_SEED_EVAL: u64 = 1;
const STREAM_SEARCH: u64 = 2;
const STREAM_FOLD: u64 = 3;

/// Derives the deterministic seed of one training work item from the
/// flow's root seed via SplitMix64.
///
/// Every (phase, λ index, fold index) triple owns an independent stream,
/// so work items can run on any thread in any order and still consume
/// exactly the same random numbers — this is what makes
/// [`FlowConfig::train_threads`] a pure performance knob.
fn derive_seed(root: u64, phase: u64, lambda_index: u64, fold: u64) -> u64 {
    let stream = (phase << 48) ^ (lambda_index << 24) ^ fold;
    let mut sm = SplitMix64::new(root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// One quantised candidate's metrics on a single cross-validation fold.
#[derive(Debug, Clone)]
pub struct CandidateEval {
    /// Single-frame balanced accuracy on the fold's test split.
    pub bas: f64,
    /// Balanced accuracy after majority voting.
    pub bas_majority: f64,
    /// The QAT-fine-tuned integer model.
    pub quantized: QuantizedCnn,
}

/// Per-fold result of [`FoldTrainJob::run`]: the FP32 fine-tuning score
/// plus one [`CandidateEval`] per precision assignment.
#[derive(Debug, Clone)]
pub struct FoldOutcome {
    /// FP32 balanced accuracy of the fine-tuned network on this fold.
    pub fp32_bas: f64,
    /// Per-assignment QAT results, in `assignments` order.
    pub candidates: Vec<CandidateEval>,
}

/// The per-fold fine-tuning + QAT workload of one λ-sweep point.
///
/// [`run_flow`] builds one job per discovered architecture; the
/// `train_throughput` bench drives the same type directly to measure
/// serial vs parallel fold wall-clock. Folds are embarrassingly parallel:
/// each one clones `network`, trains it on the fold's training split with
/// a fold-private RNG stream (see [`FlowConfig::train_threads`]) and QATs
/// every precision assignment, so [`FoldTrainJob::run`] returns identical
/// results for any thread count.
#[derive(Debug, Clone, Copy)]
pub struct FoldTrainJob<'a> {
    /// Architecture discovered by the search.
    pub arch: CnnConfig,
    /// The post-search network fine-tuning starts from (cloned per fold).
    pub network: &'a Sequential,
    /// Dataset the fold indices point into.
    pub dataset: &'a IrDataset,
    /// The cross-validation folds to evaluate.
    pub folds: &'a [CvFold],
    /// FP32 fine-tuning hyper-parameters.
    pub train: &'a TrainConfig,
    /// QAT fine-tuning hyper-parameters.
    pub qat: &'a QatConfig,
    /// Precision assignments to QAT on every fold.
    pub assignments: &'a [PrecisionAssignment],
    /// Majority-voting window for the post-processed metric.
    pub majority_window: usize,
    /// Root seed the per-fold streams are derived from.
    pub rng_seed: u64,
    /// λ index (salts the per-fold seed streams per sweep point).
    pub lambda_index: usize,
}

impl FoldTrainJob<'_> {
    /// Evaluates every fold across `threads` workers (`0` = auto) and
    /// returns the outcomes in fold order. Results are identical for any
    /// thread count.
    pub fn run(&self, threads: usize) -> Vec<FoldOutcome> {
        let num_classes = self.dataset.num_classes();
        pcount_runtime::current().map_limited(self.folds.len(), threads, |fi| {
            let _span = pcount_telemetry::span("flow/lambda_sweep/fold_train");
            let fold = &self.folds[fi];
            let mut rng = StdRng::seed_from_u64(derive_seed(
                self.rng_seed,
                STREAM_FOLD,
                self.lambda_index as u64,
                fi as u64,
            ));
            let (x_train, y_train) = self.dataset.gather_normalized(fold.train.as_slice());
            let (x_test, y_test) = self.dataset.gather_normalized(fold.test.as_slice());
            let mut net = self.network.clone();
            let _ = train_classifier(&mut net, &x_train, &y_train, self.train, &mut rng);
            let fp32_bas = evaluate(&mut net, &x_test, &y_test, num_classes);
            let folded = fold_sequential(self.arch, &net)
                .expect("NAS-extracted networks always have the canonical layout");
            let candidates = self
                .assignments
                .iter()
                .map(|&assignment| {
                    let mut qat = QatCnn::from_folded(&folded, assignment);
                    let _ = qat_finetune(&mut qat, &x_train, &y_train, self.qat, &mut rng);
                    let preds = predict(&mut qat, &x_test);
                    let bas = balanced_accuracy(&preds, &y_test, num_classes);
                    let smoothed = apply_majority(&preds, self.majority_window);
                    let bas_majority = balanced_accuracy(&smoothed, &y_test, num_classes);
                    CandidateEval {
                        bas,
                        bas_majority,
                        quantized: QuantizedCnn::from_qat(&qat),
                    }
                })
                .collect();
            FoldOutcome {
                fp32_bas,
                candidates,
            }
        })
    }
}

/// Runs the complete optimisation flow.
///
/// When the `PCOUNT_TRACE` environment variable names a file, telemetry
/// recording is enabled for the run and the accumulated chrome://tracing
/// JSON is flushed there on completion. The returned
/// [`FlowResult::telemetry`] report carries the phase wall times either
/// way; all computed results are bit-identical with telemetry on or off.
pub fn run_flow(cfg: &FlowConfig) -> FlowResult {
    pcount_telemetry::init_from_env();
    let mut phases: Vec<(&'static str, f64)> = Vec::with_capacity(3);

    let dataset = IrDataset::generate(&cfg.dataset, cfg.dataset_seed);
    let num_classes = dataset.num_classes();
    let folds: Vec<_> = dataset
        .leave_one_session_out()
        .into_iter()
        .take(cfg.max_folds.max(1))
        .collect();
    // Search data: session 1 (index 0) only, as in the paper.
    let s1 = dataset.session_indices(0);
    let (x_s1, y_s1) = dataset.gather_normalized(&s1);

    // --- Seed evaluation (parallel across folds) -------------------------
    let phase_start = Instant::now();
    let seed_span = pcount_telemetry::span("flow/seed_eval");
    let pool = pcount_runtime::current();
    let seed_scores = pool.map_limited(folds.len(), cfg.train_threads, |fi| {
        let fold = &folds[fi];
        let mut rng =
            StdRng::seed_from_u64(derive_seed(cfg.rng_seed, STREAM_SEED_EVAL, 0, fi as u64));
        let (x_train, y_train) = dataset.gather_normalized(fold.train.as_slice());
        let (x_test, y_test) = dataset.gather_normalized(fold.test.as_slice());
        let mut seed_net = cfg.seed_architecture.build(&mut rng);
        let _ = train_classifier(&mut seed_net, &x_train, &y_train, &cfg.train, &mut rng);
        evaluate(&mut seed_net, &x_test, &y_test, num_classes)
    });
    drop(seed_span);
    phases.push(("flow/seed_eval", phase_start.elapsed().as_secs_f64()));
    let seed_point = ParetoPoint::new(
        "seed FP32",
        seed_scores.iter().sum::<f64>() / folds.len() as f64,
        cfg.seed_architecture.memory_bytes_fp32(),
        cfg.seed_architecture.macs(),
    );

    // --- λ sweep: DNAS + fine-tuning + mixed-precision QAT ---------------
    // Sweep points are independent (each owns derived RNG streams for its
    // search and folds), so they fan out over the shared runtime pool
    // like the fold loops underneath. Both levels submit to the *same*
    // pool, so the worker budget can never multiply: a fold job queued by
    // one sweep point simply runs on whichever worker frees up first
    // (formerly the budget was split `train_threads / λ-workers` per
    // level, which oversubscribed whenever both levels fanned out).
    // Results are identical for any `train_threads` value and land in λ
    // order.
    let phase_start = Instant::now();
    let sweep_span = pcount_telemetry::span("flow/lambda_sweep");
    let sweeps = pool.map_limited(cfg.lambdas.len(), cfg.train_threads, |li| {
        let lambda = cfg.lambdas[li];
        let nas_cfg = NasConfig { lambda, ..cfg.nas };
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.rng_seed, STREAM_SEARCH, li as u64, 0));
        let outcome = search(cfg.seed_architecture, &x_s1, &y_s1, &nas_cfg, &mut rng);
        let arch = outcome.config;

        let job = FoldTrainJob {
            arch,
            network: &outcome.network,
            dataset: &dataset,
            folds: &folds,
            train: &cfg.train,
            qat: &cfg.qat,
            assignments: &cfg.assignments,
            majority_window: cfg.majority_window,
            rng_seed: cfg.rng_seed,
            lambda_index: li,
        };
        let mut outcomes = job.run(cfg.train_threads);

        let nf = folds.len() as f64;
        let fp32_point = ParetoPoint::new(
            format!("λ={lambda} FP32 {arch:?}"),
            outcomes.iter().map(|o| o.fp32_bas).sum::<f64>() / nf,
            arch.memory_bytes_fp32(),
            arch.macs(),
        );
        let sums: Vec<(f64, f64)> = (0..cfg.assignments.len())
            .map(|ai| {
                (
                    outcomes.iter().map(|o| o.candidates[ai].bas).sum::<f64>(),
                    outcomes
                        .iter()
                        .map(|o| o.candidates[ai].bas_majority)
                        .sum::<f64>(),
                )
            })
            .collect();
        // Keep the last fold's integer models (as before the parallel
        // refactor), moving them out instead of cloning.
        let last = outcomes.pop().expect("at least one fold ran");
        drop(outcomes);
        let candidates: Vec<CandidateModel> = cfg
            .assignments
            .iter()
            .zip(last.candidates)
            .zip(sums)
            .map(|((&assignment, eval), (bas_sum, maj_sum))| CandidateModel {
                label: format!("λ={lambda} {assignment}"),
                config: arch,
                assignment,
                bas: bas_sum / nf,
                bas_majority: maj_sum / nf,
                memory_bytes: assignment.memory_bytes(&arch),
                macs: arch.macs(),
                quantized: eval.quantized,
                deployed: None,
            })
            .collect();
        (fp32_point, candidates)
    });
    drop(sweep_span);
    phases.push(("flow/lambda_sweep", phase_start.elapsed().as_secs_f64()));
    let mut fp32_points = Vec::with_capacity(cfg.lambdas.len());
    let mut quantized = Vec::new();
    for (point, candidates) in sweeps {
        fp32_points.push(point);
        quantized.extend(candidates);
    }

    // --- Deployment sweep: measure every candidate on the simulator ------
    // Candidates are independent, so the compile + inference runs fan out
    // across threads (the simulator CPU is `Send`); results land in
    // candidate order either way.
    let sample_frame = &x_s1.data()[..x_s1.shape()[1..].iter().product()];
    let phase_start = Instant::now();
    let deploy_span = pcount_telemetry::span("flow/deploy_sweep");
    evaluate_deployments(
        &mut quantized,
        sample_frame,
        cfg.mem_model,
        cfg.deploy_threads,
    );
    drop(deploy_span);
    phases.push(("flow/deploy_sweep", phase_start.elapsed().as_secs_f64()));

    if let Err(err) = pcount_telemetry::flush_env_trace() {
        eprintln!("warning: failed to write PCOUNT_TRACE file: {err}");
    }

    FlowResult {
        seed_point,
        fp32_points,
        quantized,
        majority_window: cfg.majority_window,
        telemetry: TelemetryReport { phases },
    }
}

/// Deploys every candidate to MAUPITI and measures per-inference cycles,
/// latency and energy on `sample_frame` under the given memory-hierarchy
/// `model`, in parallel across `threads` workers (`0` = auto). Candidates
/// that do not fit on-chip keep `deployed = None`. [`run_flow`] calls
/// this with [`FlowConfig::mem_model`]; it is public so results can be
/// re-measured under a different hierarchy without re-training.
pub fn evaluate_deployments(
    candidates: &mut [CandidateModel],
    sample_frame: &[f32],
    model: MemoryModel,
    threads: usize,
) {
    let costs = pcount_runtime::current().map_limited(candidates.len(), threads, |i| {
        measure_deployment(&candidates[i], sample_frame, model)
    });
    for (candidate, cost) in candidates.iter_mut().zip(costs) {
        candidate.deployed = cost;
    }
}

/// Compiles and measures one candidate on the MAUPITI target.
fn measure_deployment(
    candidate: &CandidateModel,
    sample_frame: &[f32],
    model: MemoryModel,
) -> Option<DeployedCost> {
    let mut deployment = candidate.deploy(Target::Maupiti).ok()?;
    deployment.set_memory_model(model);
    let report = deployment.report(sample_frame).ok()?;
    let platform = result_from_report(PlatformSpec::MAUPITI, &report);
    Some(DeployedCost {
        target: Target::Maupiti,
        code_bytes: platform.code_bytes,
        data_bytes: platform.data_bytes,
        cycles: platform.cycles,
        instructions: report.instructions,
        sdotp: report.sdotp,
        latency_ms: platform.latency_ms,
        energy_uj: platform.energy_uj,
        mem: report.mem,
        energy: platform.energy,
        pipeline: report.pipeline,
    })
}

/// Selects the three models deployed in Table I from the quantised
/// candidates: the most accurate (`Top`), the smallest within 5 BAS points
/// of the top (`-5%`) and the smallest overall (`Mini`).
///
/// Returns `None` if `candidates` is empty.
pub fn select_table1_models(
    candidates: &[CandidateModel],
) -> Option<(CandidateModel, CandidateModel, CandidateModel)> {
    if candidates.is_empty() {
        return None;
    }
    let top = candidates
        .iter()
        .max_by(|a, b| a.bas_majority.partial_cmp(&b.bas_majority).expect("finite"))?
        .clone();
    let mini = candidates.iter().min_by_key(|c| c.memory_bytes)?.clone();
    let minus5 = candidates
        .iter()
        .filter(|c| c.bas_majority >= top.bas_majority - 0.05)
        .min_by_key(|c| c.memory_bytes)?
        .clone();
    Some((top, minus5, mini))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front_by;

    #[test]
    fn quick_flow_produces_consistent_results() {
        let cfg = FlowConfig::quick();
        let result = run_flow(&cfg);
        assert_eq!(result.fp32_points.len(), cfg.lambdas.len());
        assert_eq!(
            result.quantized.len(),
            cfg.lambdas.len() * cfg.assignments.len()
        );
        // Accuracies are probabilities.
        for p in result
            .fp32_points
            .iter()
            .chain(std::iter::once(&result.seed_point))
        {
            assert!((0.0..=1.0).contains(&p.bas));
        }
        for c in &result.quantized {
            assert!((0.0..=1.0).contains(&c.bas));
            assert!((0.0..=1.0).contains(&c.bas_majority));
            assert!(c.memory_bytes > 0);
            assert!(c.macs > 0);
            // Quantised models are never larger than the FP32 seed.
            assert!(c.memory_bytes < cfg.seed_architecture.memory_bytes_fp32());
        }
        // The Pareto front of the quantised candidates is non-empty.
        let front = pareto_front_by(&result.quantized_points(), false);
        assert!(!front.is_empty());
        // Table-I model selection works.
        let (top, minus5, mini) = select_table1_models(&result.quantized).expect("models");
        assert!(top.bas_majority >= minus5.bas_majority - 1e-9);
        assert!(mini.memory_bytes <= minus5.memory_bytes);
        // The smallest candidate deploys onto the simulated sensor and
        // produces a real cycle measurement on the block-cached engine.
        let deployment = mini.deploy(Target::Maupiti).expect("mini fits on-chip");
        let report = deployment.report(&vec![0.5f32; 64]).expect("inference");
        assert!(report.cycles > 0);
        assert!(report.code_bytes <= 16 * 1024);
        // The deployment sweep measured cycle/energy numbers for every
        // candidate that fits on-chip, independent of the thread count.
        let rows = result.deployed_rows();
        assert!(!rows.is_empty(), "quick-flow candidates fit on-chip");
        for (candidate, cost) in &rows {
            assert_eq!(cost.target, Target::Maupiti);
            assert!(cost.cycles > 0);
            assert!(cost.instructions > 0);
            assert!(cost.latency_ms > 0.0);
            assert!(cost.energy_uj > 0.0);
            assert!(cost.code_bytes <= 16 * 1024);
            assert!(
                candidate.deployed.is_some(),
                "rows only list deployed candidates"
            );
        }
        // Under the default flat memory model the stall breakdown is
        // zero and all energy is core energy.
        for (_, cost) in &rows {
            assert_eq!(cost.mem, Default::default());
            assert_eq!(cost.energy.imem_uj, 0.0);
            assert_eq!(cost.energy.dmem_uj, 0.0);
        }
        // Deterministic across worker counts: a serial re-sweep measures
        // the exact same numbers.
        let mut serial = result.quantized.clone();
        // Match the sample frame run_flow used (the first search frame).
        let dataset = IrDataset::generate(&cfg.dataset, cfg.dataset_seed);
        let s1 = dataset.session_indices(0);
        let (x_s1, _) = dataset.gather_normalized(&s1);
        evaluate_deployments(&mut serial, &x_s1.data()[..64], cfg.mem_model, 1);
        for (a, b) in result.quantized.iter().zip(serial.iter()) {
            assert_eq!(
                a.deployed, b.deployed,
                "deployment sweep must be deterministic"
            );
        }
        // Re-measuring the same candidates under the Maupiti hierarchy
        // keeps every static metric but surfaces strictly higher cycle
        // counts with a non-zero stall breakdown in the deployed rows.
        let flat_costs: Vec<DeployedCost> = rows.iter().map(|&(_, cost)| cost.clone()).collect();
        let mut result = result;
        evaluate_deployments(
            &mut result.quantized,
            &x_s1.data()[..64],
            MemoryModel::maupiti(),
            1,
        );
        let maupiti_rows = result.deployed_rows();
        assert_eq!(maupiti_rows.len(), flat_costs.len());
        for (flat, (_, hier)) in flat_costs.iter().zip(maupiti_rows.iter()) {
            assert_eq!(flat.instructions, hier.instructions);
            assert_eq!(flat.code_bytes, hier.code_bytes);
            assert!(hier.cycles > flat.cycles, "stalls must cost cycles");
            assert!(hier.mem.fetch_misses > 0);
            assert!(hier.mem.contended_accesses > 0);
            assert_eq!(
                hier.cycles - flat.cycles,
                hier.mem.stall_cycles(),
                "the cycle delta is exactly the stall breakdown"
            );
            assert!(hier.energy.imem_uj > 0.0);
            assert!(hier.energy.dmem_uj > 0.0);
            assert!(hier.energy_uj > flat.energy_uj);
            assert!((hier.energy.total_uj() - hier.energy_uj).abs() < 1e-9);
        }
    }

    /// Asserts two flow results are identical in every observable metric.
    fn assert_flow_results_identical(a: &FlowResult, b: &FlowResult) {
        assert_eq!(a.seed_point, b.seed_point, "seed point diverged");
        assert_eq!(a.fp32_points, b.fp32_points, "fp32 front diverged");
        assert_eq!(a.majority_window, b.majority_window);
        assert_eq!(a.quantized.len(), b.quantized.len());
        for (ca, cb) in a.quantized.iter().zip(b.quantized.iter()) {
            assert_eq!(ca.label, cb.label);
            assert_eq!(ca.bas, cb.bas, "bas diverged for {}", ca.label);
            assert_eq!(
                ca.bas_majority, cb.bas_majority,
                "majority bas diverged for {}",
                ca.label
            );
            assert_eq!(ca.memory_bytes, cb.memory_bytes);
            assert_eq!(ca.macs, cb.macs);
            assert_eq!(ca.deployed, cb.deployed, "deployment diverged");
        }
    }

    #[test]
    fn run_flow_is_deterministic_across_train_thread_counts() {
        // Per-(λ, fold) derived RNG streams make the parallel λ sweep and
        // the parallel fold loops underneath consume exactly the same
        // randomness as the serial schedule, so `run_flow` must produce
        // bit-identical results for any `train_threads`. Two λ points and
        // two folds exercise both fan-out levels at once.
        let mut cfg = FlowConfig::quick();
        cfg.max_folds = 2;
        cfg.lambdas = vec![0.5, 2.0];
        cfg.assignments.truncate(2);
        cfg.nas.epochs = 2;
        cfg.nas.warmup_epochs = 1;
        cfg.train.epochs = 2;
        cfg.qat.epochs = 1;

        cfg.train_threads = 1;
        let serial = run_flow(&cfg);
        cfg.train_threads = 4;
        let parallel = run_flow(&cfg);
        assert_flow_results_identical(&serial, &parallel);
    }

    #[test]
    fn run_flow_is_deterministic_across_pool_sizes() {
        // The `POOL_THREADS` knob sizes the persistent runtime pool every
        // fan-out in the flow draws from (λ sweep, fold loops, `Conv2d`
        // image groups, deployment sweep). Running the same flow under
        // explicitly installed pools of different widths must produce
        // identical results in every observable metric — the pool size is
        // a pure performance knob.
        let mut cfg = FlowConfig::quick();
        cfg.max_folds = 2;
        cfg.lambdas = vec![0.5, 2.0];
        cfg.assignments.truncate(2);
        cfg.nas.epochs = 2;
        cfg.nas.warmup_epochs = 1;
        cfg.train.epochs = 2;
        cfg.qat.epochs = 1;

        let serial_pool = pcount_runtime::Pool::new(1);
        let serial = pcount_runtime::install(&serial_pool, || run_flow(&cfg));
        let wide_pool = pcount_runtime::Pool::new(3);
        let parallel = pcount_runtime::install(&wide_pool, || run_flow(&cfg));
        assert_flow_results_identical(&serial, &parallel);
    }

    #[test]
    fn telemetry_is_observational_and_exports_a_valid_trace() {
        // The tentpole tripwire: enabling telemetry must never change any
        // computed result — logits, cycles, accuracies — only observe
        // them. Run the same flow with recording off and on, on the same
        // installed pool, and require bit-identical outputs.
        let mut cfg = FlowConfig::quick();
        cfg.assignments.truncate(1);
        cfg.nas.epochs = 2;
        cfg.nas.warmup_epochs = 1;
        cfg.train.epochs = 2;
        cfg.qat.epochs = 1;

        let pool = pcount_runtime::Pool::new(2);
        let baseline = pcount_runtime::install(&pool, || run_flow(&cfg));
        pcount_telemetry::set_enabled(true);
        let traced = pcount_runtime::install(&pool, || run_flow(&cfg));
        pcount_telemetry::set_enabled(false);
        assert_flow_results_identical(&baseline, &traced);

        // Both runs time the three phases.
        for t in [&baseline.telemetry, &traced.telemetry] {
            assert_eq!(
                t.phases.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
                ["flow/seed_eval", "flow/lambda_sweep", "flow/deploy_sweep"],
            );
            assert!(t.phases.iter().all(|&(_, secs)| secs >= 0.0));
        }

        // The accumulated chrome trace parses and covers every flow
        // phase plus the pool and kernel spans underneath.
        let trace = pcount_telemetry::chrome_trace_json();
        let parsed = pcount_telemetry::parse_json(&trace).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let names: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        for required in [
            "flow/seed_eval",
            "flow/lambda_sweep",
            "flow/lambda_sweep/fold_train",
            "flow/deploy_sweep",
            "pool/task",
            "gemm",
            "conv_fwd",
        ] {
            assert!(names.contains(required), "trace missing span {required}");
        }
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("histograms").is_some());
    }

    #[test]
    fn table1_selection_handles_empty_input() {
        assert!(select_table1_models(&[]).is_none());
    }
}
