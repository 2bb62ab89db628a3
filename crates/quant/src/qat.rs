//! Quantisation-aware training of the folded network.

use crate::fake::FakeQuantAct;
use crate::fold::FoldedCnn;
use crate::mixed::PrecisionAssignment;
use crate::qparams::{fake_quant_tensor, weight_scale};
use pcount_nn::{
    batch_select, evaluate, fit, CnnConfig, Conv2d, Flatten, Layer, Linear, MaxPool2d, Mode,
    Network, Relu, TrainConfig,
};
use pcount_tensor::Tensor;
use rand::Rng;

/// Hyper-parameters of a QAT fine-tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QatConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (typically lower than the FP32 training rate).
    pub learning_rate: f32,
}

impl Default for QatConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 128,
            learning_rate: 5e-4,
        }
    }
}

/// The folded CNN with fake-quantised weights and activations, trainable
/// with straight-through gradients.
///
/// Layer-wise precision follows the paper's constraint: weights and input
/// activations of a layer share one precision, chosen per layer from
/// {INT4, INT8}.
#[derive(Debug, Clone)]
pub struct QatCnn {
    /// Architecture hyper-parameters.
    pub config: CnnConfig,
    /// Per-layer precision assignment.
    pub assignment: PrecisionAssignment,
    /// Quantiser of the network input (precision of layer 1).
    pub input_q: FakeQuantAct,
    /// First convolution (BN already folded).
    pub conv1: Conv2d,
    /// Quantiser of conv2's input (precision of layer 2).
    pub act_q2: FakeQuantAct,
    /// Second convolution.
    pub conv2: Conv2d,
    /// Quantiser of fc1's input (precision of layer 3).
    pub act_q3: FakeQuantAct,
    /// Hidden linear layer.
    pub fc1: Linear,
    /// Quantiser of fc2's input (precision of layer 4).
    pub act_q4: FakeQuantAct,
    /// Output linear layer.
    pub fc2: Linear,
    relu1: Relu,
    relu2: Relu,
    relu3: Relu,
    pool: MaxPool2d,
    flatten: Flatten,
    cached_wq: [Option<Tensor>; 4],
}

impl QatCnn {
    /// Wraps a folded network with fake quantisation at the given per-layer
    /// precisions. Call [`QatCnn::calibrate`] (or [`qat_finetune`], which
    /// does it for you) before training so the activation clipping ranges
    /// start from observed statistics.
    pub fn from_folded(folded: &FoldedCnn, assignment: PrecisionAssignment) -> Self {
        let p = assignment.layers();
        Self {
            config: folded.config,
            assignment,
            input_q: FakeQuantAct::new(p[0], 4.0),
            conv1: folded.conv1.clone(),
            act_q2: FakeQuantAct::new(p[1], 4.0),
            conv2: folded.conv2.clone(),
            act_q3: FakeQuantAct::new(p[2], 4.0),
            fc1: Linear::from_parts(folded.fc1.weight.clone(), folded.fc1.bias.clone()),
            act_q4: FakeQuantAct::new(p[3], 4.0),
            fc2: Linear::from_parts(folded.fc2.weight.clone(), folded.fc2.bias.clone()),
            relu1: Relu::new(),
            relu2: Relu::new(),
            relu3: Relu::new(),
            pool: MaxPool2d::new(2, 2),
            flatten: Flatten::new(),
            cached_wq: [None, None, None, None],
        }
    }

    /// Runs `x` through the network without quantisation, recording the
    /// observed activation ranges, and adopts them as clipping thresholds.
    pub fn calibrate(&mut self, x: &Tensor) {
        for q in [
            &mut self.input_q,
            &mut self.act_q2,
            &mut self.act_q3,
            &mut self.act_q4,
        ] {
            q.enabled = false;
            q.observed_max = 0.0;
        }
        let _ = self.forward(x, Mode::Eval);
        for q in [
            &mut self.input_q,
            &mut self.act_q2,
            &mut self.act_q3,
            &mut self.act_q4,
        ] {
            q.adopt_calibration();
            q.enabled = true;
        }
    }

    fn quantised_weight(weight: &Tensor, precision: crate::Precision) -> Tensor {
        let scale = weight_scale(weight, precision);
        fake_quant_tensor(weight, scale, precision.qmax())
    }

    /// Predicted class per sample in eval mode.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.forward(x, Mode::Eval).argmax_rows()
    }

    /// Balanced accuracy of the fake-quantised network
    /// ([`pcount_nn::evaluate`]).
    pub fn evaluate(&mut self, x: &Tensor, y: &[usize], num_classes: usize) -> f64 {
        evaluate(self, x, y, num_classes)
    }

    /// Model weight memory in bytes under this precision assignment
    /// (packed sub-byte weights, 32-bit biases).
    pub fn memory_bytes(&self) -> usize {
        self.assignment.memory_bytes(&self.config)
    }
}

impl Network for QatCnn {
    /// Forward pass with fake-quantised weights and activations.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let p = self.assignment.layers();
        let x = self.input_q.forward(x);
        let wq1 = Self::quantised_weight(&self.conv1.weight, p[0]);
        let x = self.conv1.forward_with_weight(&x, &wq1, mode);
        self.cached_wq[0] = Some(wq1);
        let x = self.relu1.forward(&x, mode);
        let x = self.pool.forward(&x, mode);
        let x = self.act_q2.forward(&x);
        let wq2 = Self::quantised_weight(&self.conv2.weight, p[1]);
        let x = self.conv2.forward_with_weight(&x, &wq2, mode);
        self.cached_wq[1] = Some(wq2);
        let x = self.relu2.forward(&x, mode);
        let x = self.act_q3.forward(&x);
        let x = self.flatten.forward(&x, mode);
        let wq3 = Self::quantised_weight(&self.fc1.weight, p[2]);
        let x = self.fc1.forward_with_weight(&x, &wq3);
        self.cached_wq[2] = Some(wq3);
        let x = self.relu3.forward(&x, mode);
        let x = self.act_q4.forward(&x);
        let wq4 = Self::quantised_weight(&self.fc2.weight, p[3]);
        let out = self.fc2.forward_with_weight(&x, &wq4);
        self.cached_wq[3] = Some(wq4);
        out
    }

    /// Backward pass with straight-through weight gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let wq4 = self.cached_wq[3].clone().expect("backward before forward");
        let g = self.fc2.backward_with_weight(grad_out, &wq4);
        let g = self.act_q4.backward(&g);
        let g = self.relu3.backward(&g);
        let wq3 = self.cached_wq[2].clone().expect("missing cached weights");
        let g = self.fc1.backward_with_weight(&g, &wq3);
        let g = self.flatten.backward(&g);
        let g = self.act_q3.backward(&g);
        let g = self.relu2.backward(&g);
        let wq2 = self.cached_wq[1].clone().expect("missing cached weights");
        let g = self.conv2.backward_with_weight(&g, &wq2);
        let g = self.act_q2.backward(&g);
        let g = self.pool.backward(&g);
        let g = self.relu1.backward(&g);
        let wq1 = self.cached_wq[0].clone().expect("missing cached weights");
        let g = self.conv1.backward_with_weight(&g, &wq1);
        self.input_q.backward(&g)
    }

    /// Resets all gradients.
    fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.conv2.zero_grad();
        self.fc1.zero_grad();
        self.fc2.zero_grad();
        self.input_q.zero_grad();
        self.act_q2.zero_grad();
        self.act_q3.zero_grad();
        self.act_q4.zero_grad();
    }

    /// `(parameter, gradient)` pairs: layer weights/biases followed by the
    /// four activation clipping thresholds.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        let mut out = Vec::new();
        out.extend(self.conv1.params_and_grads());
        out.extend(self.conv2.params_and_grads());
        out.extend(self.fc1.params_and_grads());
        out.extend(self.fc2.params_and_grads());
        out.push((&mut self.input_q.alpha, &mut self.input_q.alpha_grad));
        out.push((&mut self.act_q2.alpha, &mut self.act_q2.alpha_grad));
        out.push((&mut self.act_q3.alpha, &mut self.act_q3.alpha_grad));
        out.push((&mut self.act_q4.alpha, &mut self.act_q4.alpha_grad));
        out
    }
}

/// Calibrates a [`QatCnn`] on the first 256 training samples, then
/// fine-tunes it in [`fit`] without weight decay.
///
/// Returns the per-epoch mean loss.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the number of samples or if there
/// are none.
pub fn qat_finetune<R: Rng>(
    qat: &mut QatCnn,
    x: &Tensor,
    y: &[usize],
    cfg: &QatConfig,
    rng: &mut R,
) -> Vec<f32> {
    let calib_idx: Vec<usize> = (0..x.shape()[0].min(256)).collect();
    qat.calibrate(&batch_select(x, &calib_idx));
    let train = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        learning_rate: cfg.learning_rate,
        weight_decay: 0.0,
    };
    fit(qat, x, y, &train, rng, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_sequential;
    use crate::Precision;
    use pcount_nn::{balanced_accuracy, predict, PREDICT_BATCH};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset(n: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(&[n, 1, 8, 8]);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..4usize);
            let (cy, cx) = [(2, 2), (2, 6), (6, 2), (6, 6)][class];
            for dy in 0..2usize {
                for dx in 0..2usize {
                    x.set(&[i, 0, cy + dy - 1, cx + dx - 1], 3.0);
                }
            }
            y.push(class);
        }
        (x, y)
    }

    fn trained_folded(rng: &mut StdRng) -> (FoldedCnn, Tensor, Vec<usize>) {
        let (x, y) = toy_dataset(200, rng);
        let cfg = CnnConfig::seed().with_channels(4, 6, 12);
        let mut net = cfg.build(rng);
        let tc = pcount_nn::TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 3e-3,
            weight_decay: 0.0,
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, rng);
        (fold_sequential(cfg, &net).expect("fold"), x, y)
    }

    #[test]
    fn int8_qat_network_stays_close_to_float_network() {
        let mut rng = StdRng::seed_from_u64(0);
        let (mut folded, x, y) = trained_folded(&mut rng);
        let float_bas = {
            let preds = folded.predict(&x);
            balanced_accuracy(&preds, &y, 4)
        };
        let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        qat.calibrate(&x);
        let q_bas = qat.evaluate(&x, &y, 4);
        assert!(
            q_bas >= float_bas - 0.1,
            "int8 fake quantisation should not lose more than 10 BAS points \
             (float {float_bas:.3}, int8 {q_bas:.3})"
        );
    }

    #[test]
    fn qat_finetune_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let (folded, x, y) = trained_folded(&mut rng);
        let assignment = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int8,
        ]);
        let mut qat = QatCnn::from_folded(&folded, assignment);
        let cfg = QatConfig {
            epochs: 4,
            batch_size: 32,
            learning_rate: 1e-3,
        };
        let losses = qat_finetune(&mut qat, &x, &y, &cfg, &mut rng);
        assert_eq!(losses.len(), 4);
        assert!(
            losses.last().unwrap() <= losses.first().unwrap(),
            "QAT fine-tuning should not increase the loss ({losses:?})"
        );
    }

    #[test]
    fn int4_memory_is_roughly_half_of_int8() {
        let mut rng = StdRng::seed_from_u64(2);
        let (folded, _x, _y) = trained_folded(&mut rng);
        let q8 = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        let q4 = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int4));
        let m8 = q8.memory_bytes();
        let m4 = q4.memory_bytes();
        assert!(m4 < m8);
        // Weights halve; biases stay 32-bit, so the ratio is below 2 but
        // clearly above 1.5 for these layer shapes.
        assert!(
            (m8 as f64 / m4 as f64) > 1.5,
            "ratio {}",
            m8 as f64 / m4 as f64
        );
    }

    #[test]
    fn batched_predict_equals_one_unbatched_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let (folded, _x, _y) = trained_folded(&mut rng);
        let assignment = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int8,
        ]);
        let mut qat = QatCnn::from_folded(&folded, assignment);
        let x = Tensor::randn(&[PREDICT_BATCH + 45, 1, 8, 8], 1.5, &mut rng);
        qat.calibrate(&x);
        let whole = qat.forward(&x, Mode::Eval).argmax_rows();
        assert!(whole.iter().any(|&c| c != whole[0]), "one class only");
        assert_eq!(predict(&mut qat, &x), whole);
    }

    #[test]
    fn calibration_sets_alpha_from_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let (folded, x, _y) = trained_folded(&mut rng);
        let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        let before = qat.act_q2.alpha_value();
        qat.calibrate(&x);
        let after = qat.act_q2.alpha_value();
        assert_ne!(before, after);
        assert!(after > 0.0);
    }
}
