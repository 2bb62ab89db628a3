//! The mini-batch training loop and batched prediction every trained
//! network shares.

use crate::layer::{Mode, Network, Sequential};
use crate::loss::CrossEntropyLoss;
use crate::metrics::balanced_accuracy;
use crate::optim::Adam;
use pcount_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a training run.
///
/// The paper trains for 500 epochs with Adam, learning rate `1e-3` and
/// batch size 128; the defaults here are the same except for a smaller
/// epoch count so the reproduction experiments finish in CPU-minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 128,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
        }
    }
}

/// Statistics collected during a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainStats {
    /// Mean loss of every epoch, in order.
    pub epoch_losses: Vec<f32>,
}

impl TrainStats {
    /// Loss of the last epoch, or `f32::NAN` if no epoch ran.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Rows per forward pass of [`predict`]. A row's logits do not depend on
/// the rows batched with it, so this bounds memory and changes no
/// prediction.
pub const PREDICT_BATCH: usize = 256;

/// Gathers rows (`dim 0` slices) of `x` at the given indices into a new
/// tensor, preserving the remaining dimensions.
///
/// # Panics
///
/// Panics if any index is out of bounds or `x` is 0-dimensional.
pub fn batch_select(x: &Tensor, indices: &[usize]) -> Tensor {
    let shape = x.shape();
    assert!(!shape.is_empty(), "batch_select needs rank >= 1");
    let row: usize = shape[1..].iter().product();
    let mut out_shape = shape.to_vec();
    out_shape[0] = indices.len();
    let mut data = Vec::with_capacity(indices.len() * row);
    for &i in indices {
        assert!(i < shape[0], "index {i} out of bounds");
        data.extend_from_slice(&x.data()[i * row..(i + 1) * row]);
    }
    Tensor::from_vec(data, &out_shape)
}

/// Runs prediction in [`PREDICT_BATCH`]-row evaluation-mode forward
/// passes and returns the argmax class per sample.
pub fn predict<N: Network>(net: &mut N, x: &Tensor) -> Vec<usize> {
    let n = x.shape()[0];
    let mut preds = Vec::with_capacity(n);
    for start in (0..n).step_by(PREDICT_BATCH) {
        let idx: Vec<usize> = (start..n.min(start + PREDICT_BATCH)).collect();
        let logits = net.forward(&batch_select(x, &idx), Mode::Eval);
        preds.extend(logits.argmax_rows());
    }
    preds
}

/// Evaluates a network and returns its Balanced Accuracy Score.
pub fn evaluate<N: Network>(net: &mut N, x: &Tensor, y: &[usize], num_classes: usize) -> f64 {
    balanced_accuracy(&predict(net, x), y, num_classes)
}

/// The mini-batch loop: trains `net` with Adam and cross-entropy and
/// returns the mean loss of every epoch.
///
/// Each epoch shuffles one sample order, kept from the previous epoch,
/// and walks it in `cfg.batch_size` chunks. Each batch runs `zero_grad`,
/// a training-mode forward pass, the loss and `backward`, then
/// `after_backward(net, epoch)` (the search adds its cost gradient
/// there), then one Adam step.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the number of samples or if there
/// are none.
pub fn fit<N, R, F>(
    net: &mut N,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    rng: &mut R,
    mut after_backward: F,
) -> Vec<f32>
where
    N: Network,
    R: Rng,
    F: FnMut(&mut N, usize),
{
    let n = x.shape()[0];
    assert_eq!(n, y.len(), "sample count mismatch");
    assert!(n > 0, "cannot train on an empty dataset");
    let mut opt = Adam::new(cfg.learning_rate, cfg.weight_decay);
    let mut loss_fn = CrossEntropyLoss::new();
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let xb = batch_select(x, chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
            net.zero_grad();
            let logits = net.forward(&xb, Mode::Train);
            let loss = loss_fn.forward(&logits, &yb);
            net.backward(&loss_fn.backward());
            after_backward(net, epoch);
            opt.step(net.params_and_grads());
            epoch_loss += loss;
            batches += 1;
        }
        epoch_losses.push(epoch_loss / batches as f32);
    }
    epoch_losses
}

/// Trains a classifier with [`fit`].
///
/// `x` is `[N, C, H, W]`, `y` holds the integer class of each sample.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the number of samples or if there
/// are none.
pub fn train_classifier<R: Rng>(
    net: &mut Sequential,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    rng: &mut R,
) -> TrainStats {
    TrainStats {
        epoch_losses: fit(net, x, y, cfg, rng, |_, _| {}),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a trivially separable synthetic dataset: class = quadrant of
    /// the hottest pixel.
    fn toy_dataset(n: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(&[n, 1, 8, 8]);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..4usize);
            let (cy, cx) = match class {
                0 => (2, 2),
                1 => (2, 6),
                2 => (6, 2),
                _ => (6, 6),
            };
            for dy in 0..2 {
                for dx in 0..2 {
                    x.set(&[i, 0, cy + dy - 1, cx + dx - 1], 3.0);
                }
            }
            // Mild noise.
            for h in 0..8 {
                for w in 0..8 {
                    let v = x.at(&[i, 0, h, w]) + rng.gen_range(-0.2..0.2);
                    x.set(&[i, 0, h, w], v);
                }
            }
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn batch_select_gathers_rows() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        let b = batch_select(&x, &[2, 0]);
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.data(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn batch_select_checks_bounds() {
        let x = Tensor::zeros(&[2, 3]);
        let _ = batch_select(&x, &[5]);
    }

    #[test]
    fn training_learns_a_separable_toy_problem() {
        let mut rng = StdRng::seed_from_u64(42);
        let (x, y) = toy_dataset(240, &mut rng);
        let cfg = CnnConfig::seed().with_channels(4, 8, 16);
        let mut net = cfg.build(&mut rng);
        let train_cfg = TrainConfig {
            epochs: 12,
            batch_size: 32,
            learning_rate: 3e-3,
            weight_decay: 0.0,
        };
        let stats = train_classifier(&mut net, &x, &y, &train_cfg, &mut rng);
        let bas = evaluate(&mut net, &x, &y, 4);
        assert!(bas > 0.9, "training failed to fit toy data: BAS {bas}");
        assert!(stats.final_loss() < stats.epoch_losses[0]);
    }

    #[test]
    fn predict_returns_one_class_per_sample() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CnnConfig::seed().with_channels(2, 2, 4);
        let mut net = cfg.build(&mut rng);
        let x = Tensor::zeros(&[5, 1, 8, 8]);
        let preds = predict(&mut net, &x);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 4));
    }

    #[test]
    fn batched_predict_equals_one_unbatched_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = CnnConfig::seed().with_channels(4, 6, 8).build(&mut rng);
        let x = Tensor::randn(&[PREDICT_BATCH + 45, 1, 8, 8], 1.0, &mut rng);
        let whole = net.forward(&x, Mode::Eval).argmax_rows();
        assert!(whole.iter().any(|&c| c != whole[0]), "one class only");
        assert_eq!(predict(&mut net, &x), whole);
    }
}
