//! The hand-tuned state-of-the-art baseline of Xie et al. (Fig. 7).
//!
//! The paper compares its automated flow against a *manual, coarse-grained*
//! grid of CNN configurations deployed at INT8. This module reproduces
//! that baseline: a small menu of channel counts explored exhaustively,
//! each trained, folded and quantised uniformly to INT8 (the MCU toolchain
//! used by the baseline does not support mixed precision), evaluated with
//! the same cross-validation protocol.

use crate::pareto::ParetoPoint;
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_nn::{balanced_accuracy, predict, train_classifier, CnnConfig, TrainConfig};
use pcount_postproc::apply_majority;
use pcount_quant::{
    fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the manual-grid baseline run.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Channel menu for the two convolutions (the grid is the cross
    /// product of this list with itself).
    pub conv_channels: Vec<usize>,
    /// Hidden-feature menu for the first linear layer.
    pub fc_features: Vec<usize>,
    /// Dataset configuration (should match the flow's for a fair Fig. 7).
    pub dataset: DatasetConfig,
    /// Dataset generation seed.
    pub dataset_seed: u64,
    /// Training randomness seed.
    pub rng_seed: u64,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// INT8 QAT hyper-parameters.
    pub qat: QatConfig,
    /// Number of cross-validation folds to use.
    pub max_folds: usize,
    /// Majority window (the baseline paper also evaluates repeated
    /// inference; window 1 disables it).
    pub majority_window: usize,
}

impl BaselineConfig {
    /// The default coarse grid: a handful of channel counts, mirroring the
    /// coarse manual exploration of the baseline paper.
    pub fn default_experiment() -> Self {
        Self {
            conv_channels: vec![8, 16, 32],
            fc_features: vec![16, 32],
            dataset: DatasetConfig::challenging().scaled(0.35),
            dataset_seed: 2024,
            rng_seed: 7,
            train: TrainConfig {
                epochs: 10,
                batch_size: 128,
                learning_rate: 1e-3,
                weight_decay: 1e-4,
            },
            qat: QatConfig {
                epochs: 2,
                batch_size: 128,
                learning_rate: 5e-4,
            },
            max_folds: 1,
            majority_window: 1,
        }
    }

    /// A tiny grid for tests.
    pub fn quick() -> Self {
        Self {
            conv_channels: vec![4, 8],
            fc_features: vec![8],
            dataset: DatasetConfig::tiny(),
            dataset_seed: 1,
            rng_seed: 1,
            train: TrainConfig {
                epochs: 3,
                batch_size: 64,
                learning_rate: 2e-3,
                weight_decay: 0.0,
            },
            qat: QatConfig {
                epochs: 1,
                batch_size: 64,
                learning_rate: 5e-4,
            },
            max_folds: 1,
            majority_window: 1,
        }
    }
}

/// Trains and evaluates every configuration of the manual grid at INT8 and
/// returns one Pareto point per configuration.
pub fn manual_grid_baseline(cfg: &BaselineConfig) -> Vec<ParetoPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);
    let dataset = IrDataset::generate(&cfg.dataset, cfg.dataset_seed);
    let num_classes = dataset.num_classes();
    let folds: Vec<_> = dataset
        .leave_one_session_out()
        .into_iter()
        .take(cfg.max_folds.max(1))
        .collect();
    let int8 = PrecisionAssignment::uniform(Precision::Int8);
    let mut points = Vec::new();
    for &c1 in &cfg.conv_channels {
        for &c2 in &cfg.conv_channels {
            for &f1 in &cfg.fc_features {
                let arch = CnnConfig::seed().with_channels(c1, c2, f1);
                let mut bas_sum = 0.0;
                for fold in &folds {
                    let (x_train, y_train) = dataset.gather_normalized(fold.train.as_slice());
                    let (x_test, y_test) = dataset.gather_normalized(fold.test.as_slice());
                    let mut net = arch.build(&mut rng);
                    let _ = train_classifier(&mut net, &x_train, &y_train, &cfg.train, &mut rng);
                    let folded = fold_sequential(arch, &net).expect("canonical layout");
                    let mut qat = QatCnn::from_folded(&folded, int8);
                    let _ = qat_finetune(&mut qat, &x_train, &y_train, &cfg.qat, &mut rng);
                    let preds = predict(&mut qat, &x_test);
                    let smoothed = apply_majority(&preds, cfg.majority_window.max(1));
                    bas_sum += balanced_accuracy(&smoothed, &y_test, num_classes);
                }
                points.push(ParetoPoint::new(
                    format!("manual {c1}-{c2}-{f1} INT8"),
                    bas_sum / folds.len() as f64,
                    int8.memory_bytes(&arch),
                    arch.macs(),
                ));
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_covers_the_whole_grid() {
        let cfg = BaselineConfig::quick();
        let points = manual_grid_baseline(&cfg);
        assert_eq!(
            points.len(),
            cfg.conv_channels.len() * cfg.conv_channels.len() * cfg.fc_features.len()
        );
        for p in &points {
            assert!((0.0..=1.0).contains(&p.bas));
            assert!(p.memory_bytes > 0);
        }
        // Larger configurations cost more memory.
        let small = points.iter().map(|p| p.memory_bytes).min().unwrap();
        let large = points.iter().map(|p| p.memory_bytes).max().unwrap();
        assert!(large > small);
    }
}
