//! `train_flow`: the paper's optimisation flow as one batch job.
//!
//! The untraced pass calls `pcount_core::run_flow` on
//! `FlowConfig::default_experiment()` with the dataset and training
//! seeds taken from the workload seed. The traced pass makes the same
//! public calls `run_flow` makes, with the same fan-out over
//! `pcount_runtime::current()` and the same derived RNG streams, and
//! wraps each in a span. Its candidate list must equal `run_flow`'s.
//!
//! How long the flow takes depends on the architectures the search picks,
//! which differ from seed to seed by tens of percent. So the rounds of a
//! run cycle through `SEEDS` seeds derived from the workload seed, and
//! `wall_s` is a median over several seeds' flows. Each seed's flow runs
//! more than once in a run, so the determinism checks still compare
//! repeats.

use crate::trace::{span, timed};
use crate::{Outcome, Workload};
use pcount_core::{run_flow, CandidateModel, FlowConfig};
use pcount_dataset::IrDataset;
use pcount_kernels::{Deployment, Target};
use pcount_nas::{search, NasConfig};
use pcount_nn::{balanced_accuracy, evaluate, train_classifier};
use pcount_platform::{result_from_report, PlatformSpec};
use pcount_postproc::apply_majority;
use pcount_quant::{fold_sequential, qat_finetune, QatCnn, QuantizedCnn};
use pcount_tensor::{SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Seeds the rounds of a run cycle through.
const SEEDS: usize = 4;

/// RNG stream tags of the flow's per-item seeds (see `derive_seed`).
const STREAM_SEED_EVAL: u64 = 1;
const STREAM_SEARCH: u64 = 2;
const STREAM_FOLD: u64 = 3;

/// The flow's per-(phase, λ, fold) seed derivation, as in `run_flow`.
fn derive_seed(root: u64, phase: u64, lambda_index: u64, fold: u64) -> u64 {
    let stream = (phase << 48) ^ (lambda_index << 24) ^ fold;
    SplitMix64::new(root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// What both passes must agree on for one candidate.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    label: String,
    bas: f64,
    bas_majority: f64,
    memory_bytes: usize,
    weight_bytes: usize,
    /// `(cycles, energy µJ)` on MAUPITI, when it fits.
    deployed: Option<(u64, f64)>,
}

impl Candidate {
    fn from_flow(c: &CandidateModel) -> Self {
        Self {
            label: c.label.clone(),
            bas: c.bas,
            bas_majority: c.bas_majority,
            memory_bytes: c.memory_bytes,
            weight_bytes: c.quantized.weight_bytes(),
            deployed: c.deployed.as_ref().map(|d| (d.cycles, d.energy_uj)),
        }
    }
}

pub struct TrainFlow {
    /// The workload seed.
    seed: u64,
    /// The configuration of the current round's seed.
    cfg: FlowConfig,
    dataset_frames: usize,
}

impl TrainFlow {
    /// Builds the configuration and generates the dataset once to size
    /// the run and validate the seed.
    pub fn setup(seed: u64) -> Self {
        let mut cfg = FlowConfig::default_experiment();
        cfg.dataset_seed = seed;
        cfg.rng_seed = seed;
        let dataset = IrDataset::generate(&cfg.dataset, cfg.dataset_seed);
        assert!(
            dataset.leave_one_session_out().len() >= cfg.max_folds,
            "dataset has too few sessions for the configured folds"
        );
        Self {
            seed,
            dataset_frames: dataset.len(),
            cfg,
        }
    }

    fn outcome(&self, candidates: Vec<Candidate>) -> Outcome {
        let expected = self.cfg.lambdas.len() * self.cfg.assignments.len();
        let mut labels: Vec<String> = Vec::new();
        for lambda in &self.cfg.lambdas {
            for assignment in &self.cfg.assignments {
                labels.push(format!("λ={lambda} {assignment}"));
            }
        }
        let missing = labels
            .iter()
            .filter(|l| !candidates.iter().any(|c| &c.label == *l))
            .count() as u64;
        // The Top model: the most accurate candidate (majority voted)
        // among those that fit MAUPITI's memories, the last maximum
        // winning ties. `select_table1_models` picks over all candidates;
        // on some seeds its pick does not fit on-chip and has no energy.
        let top = candidates
            .iter()
            .filter(|c| c.deployed.is_some())
            .max_by(|a, b| a.bas_majority.total_cmp(&b.bas_majority));
        let mut digest = String::new();
        for c in &candidates {
            let _ = writeln!(digest, "{c:?}");
        }
        let mut deterministic = Vec::new();
        let mut errors = Vec::new();
        match top {
            Some(top) => {
                let (_, energy_uj) = top.deployed.expect("filtered on deployed");
                deterministic.extend([
                    ("bas_majority_top", top.bas_majority),
                    ("model_bytes_top", top.weight_bytes as f64),
                    ("energy_uj_top", energy_uj),
                ]);
            }
            None => errors.push("no candidate fits MAUPITI's memories".to_string()),
        }
        Outcome {
            attempted: expected as u64,
            failed: missing,
            frames: self.dataset_frames as u64,
            digest,
            errors,
            deterministic,
            layers: Vec::new(),
        }
    }
}

impl Workload for TrainFlow {
    /// Round `r` runs on seed `r % SEEDS`: 0 is the workload seed, `i`
    /// a seed derived from it and `i`.
    fn select_inputs(&mut self, round: usize) -> usize {
        let key = round % SEEDS;
        let seed = match key {
            0 => self.seed,
            i => SplitMix64::new(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .next_u64(),
        };
        self.cfg.dataset_seed = seed;
        self.cfg.rng_seed = seed;
        key
    }

    fn untraced(&mut self) -> (f64, Outcome) {
        let start = std::time::Instant::now();
        let result = run_flow(&self.cfg);
        let wall = start.elapsed().as_secs_f64();
        let candidates = result.quantized.iter().map(Candidate::from_flow).collect();
        let mut outcome = self.outcome(candidates);
        for &(phase, secs) in &result.telemetry.phases {
            let name = match phase {
                "flow/seed_eval" => "core.phase.seed_eval_s",
                "flow/lambda_sweep" => "core.phase.lambda_sweep_s",
                "flow/deploy_sweep" => "core.phase.deploy_sweep_s",
                other => panic!("unknown flow phase {other}"),
            };
            outcome.layers.push((name, secs));
        }
        (wall, outcome)
    }

    fn traced(&mut self) -> (f64, Outcome) {
        let start = std::time::Instant::now();
        let candidates = traced_flow(&self.cfg);
        let wall = start.elapsed().as_secs_f64();
        (wall, self.outcome(candidates))
    }
}

/// `run_flow`, composed from the same public calls, with a span around
/// each call into a crate.
fn traced_flow(cfg: &FlowConfig) -> Vec<Candidate> {
    let pool = pcount_runtime::current();
    let dataset = timed("dataset", "generate", || {
        IrDataset::generate(&cfg.dataset, cfg.dataset_seed)
    });
    let num_classes = dataset.num_classes();
    let (folds, x_s1, y_s1) = timed("dataset", "split", || {
        let folds: Vec<_> = dataset
            .leave_one_session_out()
            .into_iter()
            .take(cfg.max_folds.max(1))
            .collect();
        let (x_s1, y_s1) = dataset.gather_normalized(&dataset.session_indices(0));
        (folds, x_s1, y_s1)
    });

    // Seed evaluation. Its score feeds only the FP32 seed point, which
    // the candidate list does not carry, but the work is part of the flow.
    timed("core", "seed_eval", || {
        pool.map_limited(folds.len(), cfg.train_threads, |fi| {
            let fold = &folds[fi];
            let mut rng =
                StdRng::seed_from_u64(derive_seed(cfg.rng_seed, STREAM_SEED_EVAL, 0, fi as u64));
            let ((x_train, y_train), (x_test, y_test)) = timed("dataset", "gather", || {
                (
                    dataset.gather_normalized(fold.train.as_slice()),
                    dataset.gather_normalized(fold.test.as_slice()),
                )
            });
            let mut net = timed("nn", "seed_train", || {
                let mut net = cfg.seed_architecture.build(&mut rng);
                let _ = train_classifier(&mut net, &x_train, &y_train, &cfg.train, &mut rng);
                net
            });
            timed("nn", "evaluate", || {
                evaluate(&mut net, &x_test, &y_test, num_classes)
            })
        })
    });

    let sweeps = timed("core", "lambda_sweep", || {
        pool.map_limited(cfg.lambdas.len(), cfg.train_threads, |li| {
            let lambda = cfg.lambdas[li];
            let nas_cfg = NasConfig { lambda, ..cfg.nas };
            let mut rng =
                StdRng::seed_from_u64(derive_seed(cfg.rng_seed, STREAM_SEARCH, li as u64, 0));
            let outcome = timed("nas", "search", || {
                search(cfg.seed_architecture, &x_s1, &y_s1, &nas_cfg, &mut rng)
            });
            let arch = outcome.config;
            let folds_out =
                pcount_runtime::current().map_limited(folds.len(), cfg.train_threads, |fi| {
                    let fold = &folds[fi];
                    let mut rng = StdRng::seed_from_u64(derive_seed(
                        cfg.rng_seed,
                        STREAM_FOLD,
                        li as u64,
                        fi as u64,
                    ));
                    let ((x_train, y_train), (x_test, y_test)) = timed("dataset", "gather", || {
                        (
                            dataset.gather_normalized(fold.train.as_slice()),
                            dataset.gather_normalized(fold.test.as_slice()),
                        )
                    });
                    let mut net = outcome.network.clone();
                    timed("nn", "finetune", || {
                        let _ =
                            train_classifier(&mut net, &x_train, &y_train, &cfg.train, &mut rng);
                    });
                    timed("nn", "evaluate", || {
                        evaluate(&mut net, &x_test, &y_test, num_classes)
                    });
                    let folded = timed("quant", "fold", || {
                        fold_sequential(arch, &net)
                            .expect("NAS-extracted networks have the canonical layout")
                    });
                    cfg.assignments
                        .iter()
                        .map(|&assignment| {
                            let mut qat = timed("quant", "qat", || {
                                let mut qat = QatCnn::from_folded(&folded, assignment);
                                let _ =
                                    qat_finetune(&mut qat, &x_train, &y_train, &cfg.qat, &mut rng);
                                qat
                            });
                            let preds =
                                timed("quant", "predict", || batched_predict(&mut qat, &x_test));
                            let bas = timed("nn", "balanced_accuracy", || {
                                balanced_accuracy(&preds, &y_test, num_classes)
                            });
                            let smoothed = timed("postproc", "majority", || {
                                apply_majority(&preds, cfg.majority_window)
                            });
                            let bas_majority = timed("nn", "balanced_accuracy", || {
                                balanced_accuracy(&smoothed, &y_test, num_classes)
                            });
                            let quantized =
                                timed("quant", "from_qat", || QuantizedCnn::from_qat(&qat));
                            (bas, bas_majority, quantized)
                        })
                        .collect::<Vec<_>>()
                });
            let nf = folds_out.len() as f64;
            let last = folds_out.last().expect("at least one fold ran");
            cfg.assignments
                .iter()
                .enumerate()
                .map(|(ai, &assignment)| {
                    let bas = folds_out.iter().map(|f| f[ai].0).sum::<f64>() / nf;
                    let bas_majority = folds_out.iter().map(|f| f[ai].1).sum::<f64>() / nf;
                    (
                        format!("λ={lambda} {assignment}"),
                        bas,
                        bas_majority,
                        assignment.memory_bytes(&arch),
                        last[ai].2.clone(),
                    )
                })
                .collect::<Vec<_>>()
        })
    });
    let sweeps: Vec<_> = sweeps.into_iter().flatten().collect();

    let sample_frame = &x_s1.data()[..x_s1.shape()[1..].iter().product()];
    let deployed = timed("core", "deploy_sweep", || {
        pool.map_limited(sweeps.len(), cfg.deploy_threads, |i| {
            let report = timed("kernels", "deploy_sweep", || {
                let mut deployment = Deployment::new(&sweeps[i].4, Target::Maupiti).ok()?;
                deployment.set_memory_model(cfg.mem_model);
                deployment.report(sample_frame).ok()
            })?;
            let _span = span("platform", "cost");
            let cost = result_from_report(PlatformSpec::MAUPITI, &report);
            Some((cost.cycles, cost.energy_uj))
        })
    });

    // `run_flow`'s telemetry profiles the trace cache of the first
    // candidate that fits on-chip with one more inference.
    if let Some(i) = deployed.iter().position(Option::is_some) {
        timed("kernels", "hottest_blocks", || {
            Deployment::new(&sweeps[i].4, Target::Maupiti)
                .ok()
                .and_then(|d| d.hottest_blocks(sample_frame, 5).ok())
        });
    }

    sweeps
        .into_iter()
        .zip(deployed)
        .map(
            |((label, bas, bas_majority, memory_bytes, quantized), deployed)| Candidate {
                label,
                bas,
                bas_majority,
                memory_bytes,
                weight_bytes: quantized.weight_bytes(),
                deployed,
            },
        )
        .collect()
}

/// `QatCnn::predict` over 256-frame batches, as the flow evaluates.
fn batched_predict(qat: &mut QatCnn, x: &Tensor) -> Vec<usize> {
    let n = x.shape()[0];
    let mut preds = Vec::with_capacity(n);
    for start in (0..n).step_by(256) {
        let idx: Vec<usize> = (start..(start + 256).min(n)).collect();
        preds.extend(qat.predict(&pcount_nn::batch_select(x, &idx)));
    }
    preds
}
