//! Pure-integer inference: the golden reference the RISC-V kernels must
//! reproduce bit-exactly.

use crate::mixed::PrecisionAssignment;
use crate::qat::QatCnn;
use crate::qparams::{weight_scale, Precision};
use pcount_nn::balanced_accuracy;
use pcount_tensor::Tensor;

/// Fixed-point requantisation parameters: `out = round((acc * mult) >> SHIFT)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequantParams {
    /// Fixed-point multiplier.
    pub mult: i32,
    /// Right shift applied after the multiplication.
    pub shift: u32,
}

impl RequantParams {
    /// The shift used throughout the deployment flow (Q16 fixed point).
    pub const SHIFT: u32 = 16;

    /// Builds requantisation parameters mapping an accumulator at scale
    /// `acc_scale` to an output at scale `out_scale`.
    pub fn from_scales(acc_scale: f32, out_scale: f32) -> Self {
        let ratio = (acc_scale / out_scale) as f64;
        let mult = (ratio * f64::from(1u32 << Self::SHIFT)).round();
        Self {
            mult: mult.clamp(1.0, i32::MAX as f64) as i32,
            shift: Self::SHIFT,
        }
    }

    /// Applies the requantisation with the exact bit-level arithmetic the
    /// RISC-V kernels use: a 32x32 -> 64-bit multiplication split into
    /// high/low words, a 16-bit funnel shift and a round-to-nearest bit.
    pub fn apply(&self, acc: i32) -> i32 {
        let prod = i64::from(acc) * i64::from(self.mult);
        let hi = (prod >> 32) as i32;
        let lo = prod as u32;
        let shifted = (hi << (32 - self.shift)) | (lo >> self.shift) as i32;
        shifted + ((lo >> (self.shift - 1)) & 1) as i32
    }
}

/// One integer-quantised parameterised layer (convolution or linear).
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    /// Precision of this layer's weights and input activations.
    pub precision: Precision,
    /// Output channels / features.
    pub out_features: usize,
    /// Input channels / features.
    pub in_features: usize,
    /// Square kernel size (1 for linear layers).
    pub kernel: usize,
    /// Quantised weights, `[out][in][k][k]` row-major.
    pub weight_q: Vec<i8>,
    /// 32-bit bias at the accumulator scale.
    pub bias_q: Vec<i32>,
    /// Requantisation to the next layer's input scale (`None` for the
    /// output layer, whose raw accumulators are the logits).
    pub requant: Option<RequantParams>,
    /// Precision of the produced activations (`None` for the output layer).
    pub out_precision: Option<Precision>,
    /// Whether a ReLU follows (clamps requantised outputs at zero).
    pub relu: bool,
    /// Input activation scale.
    pub in_scale: f32,
    /// Weight scale.
    pub w_scale: f32,
    /// Output activation scale (accumulator scale for the output layer).
    pub out_scale: f32,
}

impl QuantizedLayer {
    /// Number of weights.
    pub fn weight_count(&self) -> usize {
        self.out_features * self.in_features * self.kernel * self.kernel
    }

    /// Bytes of packed weights plus 32-bit biases and requant parameters.
    pub fn storage_bytes(&self) -> usize {
        self.precision.storage_bytes(self.weight_count()) + self.out_features * 4 + 8
    }

    /// Requantises, applies the optional ReLU and clamps to the output
    /// precision's representable range.
    pub fn requantize(&self, acc: i32) -> i32 {
        match (self.requant, self.out_precision) {
            (Some(rq), Some(outp)) => {
                let mut v = rq.apply(acc);
                if self.relu {
                    v = v.max(0);
                }
                v.clamp(-outp.qmax(), outp.qmax())
            }
            _ => acc,
        }
    }
}

/// The fully integer-quantised people-counting CNN.
///
/// Activations and weights are symmetric signed integers; accumulators are
/// 32-bit. The forward pass performs exactly the operations the MAUPITI
/// kernels execute (including the fixed-point requantisation), so it serves
/// as the bit-exact golden model for `pcount-kernels`.
#[derive(Debug, Clone)]
pub struct QuantizedCnn {
    /// Architecture hyper-parameters.
    pub config: pcount_nn::CnnConfig,
    /// Per-layer precision assignment.
    pub assignment: PrecisionAssignment,
    /// Scale of the quantised sensor input.
    pub input_scale: f32,
    /// The four parameterised layers: conv1, conv2, fc1, fc2.
    pub layers: Vec<QuantizedLayer>,
}

impl QuantizedCnn {
    /// Converts a calibrated / fine-tuned [`QatCnn`] to integers.
    pub fn from_qat(qat: &QatCnn) -> Self {
        let p = qat.assignment.layers();
        let s_in1 = qat.input_q.scale();
        let s_act2 = qat.act_q2.scale();
        let s_act3 = qat.act_q3.scale();
        let s_act4 = qat.act_q4.scale();

        let conv1 = quantize_layer(
            &qat.conv1.weight,
            &qat.conv1.bias,
            p[0],
            3,
            s_in1,
            Some((s_act2, p[1])),
            true,
        );
        let conv2 = quantize_layer(
            &qat.conv2.weight,
            &qat.conv2.bias,
            p[1],
            3,
            s_act2,
            Some((s_act3, p[2])),
            true,
        );
        let fc1 = quantize_layer(
            &qat.fc1.weight,
            &qat.fc1.bias,
            p[2],
            1,
            s_act3,
            Some((s_act4, p[3])),
            true,
        );
        let fc2 = quantize_layer(&qat.fc2.weight, &qat.fc2.bias, p[3], 1, s_act4, None, false);

        Self {
            config: qat.config,
            assignment: qat.assignment,
            input_scale: s_in1,
            layers: vec![conv1, conv2, fc1, fc2],
        }
    }

    /// Quantises one raw 8x8 frame (already ambient-normalised) to the
    /// input precision.
    pub fn quantize_input(&self, frame: &[f32]) -> Vec<i8> {
        let qmax = self.layers[0].precision.qmax();
        frame
            .iter()
            .map(|&v| ((v / self.input_scale).round() as i32).clamp(-qmax, qmax) as i8)
            .collect()
    }

    /// Runs integer inference on a quantised input frame (`[1, 8, 8]` in
    /// CHW order) and returns the raw 32-bit logits.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the expected frame size.
    pub fn forward_int(&self, input_q: &[i8]) -> Vec<i32> {
        let cfg = &self.config;
        let hw = cfg.input_size;
        assert_eq!(
            input_q.len(),
            cfg.input_channels * hw * hw,
            "bad input size"
        );
        // Layer 1: conv 3x3, pad 1, stride 1 on 8x8, then ReLU+requant, then
        // 2x2 max pool.
        let l1 = &self.layers[0];
        let conv1_out = conv2d_int(input_q, cfg.input_channels, hw, hw, l1);
        let pooled = maxpool2x2_int(&conv1_out, l1.out_features, hw, hw);
        let ph = hw / 2;
        // Layer 2: conv 3x3 pad 1 on 4x4.
        let l2 = &self.layers[1];
        let conv2_out = conv2d_int(&pooled, l1.out_features, ph, ph, l2);
        // Layer 3: fully connected over the flattened activations.
        let l3 = &self.layers[2];
        let fc1_out: Vec<i8> = linear_int_raw(&conv2_out, l3)
            .iter()
            .map(|&acc| l3.requantize(acc) as i8)
            .collect();
        // Layer 4: output layer, raw 32-bit accumulators are the logits.
        let l4 = &self.layers[3];
        linear_int_raw(&fc1_out, l4)
    }

    /// Predicts the class of one raw frame.
    pub fn predict_frame(&self, frame: &[f32]) -> usize {
        let q = self.quantize_input(frame);
        let logits = self.forward_int(&q);
        argmax(&logits)
    }

    /// Predicts classes for a `[N, 1, 8, 8]` batch of raw frames.
    pub fn predict_batch(&self, x: &Tensor) -> Vec<usize> {
        let n = x.shape()[0];
        let pixels: usize = x.shape()[1..].iter().product();
        (0..n)
            .map(|i| self.predict_frame(&x.data()[i * pixels..(i + 1) * pixels]))
            .collect()
    }

    /// Balanced accuracy of the integer model on a labelled batch.
    pub fn evaluate(&self, x: &Tensor, y: &[usize], num_classes: usize) -> f64 {
        balanced_accuracy(&self.predict_batch(x), y, num_classes)
    }

    /// Total bytes of weights, biases and requantisation constants.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(QuantizedLayer::storage_bytes).sum()
    }

    /// Total multiply-accumulate operations per inference.
    pub fn macs(&self) -> usize {
        self.config.macs()
    }
}

fn quantize_layer(
    weight: &Tensor,
    bias: &Tensor,
    precision: Precision,
    kernel: usize,
    in_scale: f32,
    output: Option<(f32, Precision)>,
    relu: bool,
) -> QuantizedLayer {
    let w_scale = weight_scale(weight, precision);
    let qmax = precision.qmax();
    let weight_q: Vec<i8> = weight
        .data()
        .iter()
        .map(|&v| ((v / w_scale).round() as i32).clamp(-qmax, qmax) as i8)
        .collect();
    let acc_scale = in_scale * w_scale;
    let bias_q: Vec<i32> = bias
        .data()
        .iter()
        .map(|&v| (v / acc_scale).round() as i32)
        .collect();
    let shape = weight.shape();
    let (out_features, in_features) = (shape[0], shape[1]);
    let (requant, out_precision, out_scale) = match output {
        Some((s_out, p_out)) => (
            Some(RequantParams::from_scales(acc_scale, s_out)),
            Some(p_out),
            s_out,
        ),
        None => (None, None, acc_scale),
    };
    QuantizedLayer {
        precision,
        out_features,
        in_features,
        kernel,
        weight_q,
        bias_q,
        requant,
        out_precision,
        relu,
        in_scale,
        w_scale,
        out_scale,
    }
}

/// 3x3, pad-1, stride-1 integer convolution over a CHW `i8` activation map.
fn conv2d_int(input: &[i8], in_ch: usize, h: usize, w: usize, layer: &QuantizedLayer) -> Vec<i8> {
    assert_eq!(layer.kernel, 3, "conv kernel must be 3");
    assert_eq!(layer.in_features, in_ch, "channel mismatch");
    let k = 3usize;
    let mut out = vec![0i8; layer.out_features * h * w];
    for co in 0..layer.out_features {
        let wbase_co = co * in_ch * k * k;
        for oy in 0..h {
            for ox in 0..w {
                let mut acc: i32 = layer.bias_q[co];
                for ci in 0..in_ch {
                    let ibase = ci * h * w;
                    let wbase = wbase_co + ci * k * k;
                    for ky in 0..k {
                        let iy = oy as isize + ky as isize - 1;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = ox as isize + kx as isize - 1;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xv = input[ibase + iy as usize * w + ix as usize] as i32;
                            let wv = layer.weight_q[wbase + ky * k + kx] as i32;
                            acc += xv * wv;
                        }
                    }
                }
                out[co * h * w + oy * w + ox] = layer.requantize(acc) as i8;
            }
        }
    }
    out
}

/// 2x2 stride-2 max pooling over a CHW `i8` map.
fn maxpool2x2_int(input: &[i8], ch: usize, h: usize, w: usize) -> Vec<i8> {
    let (ho, wo) = (h / 2, w / 2);
    let mut out = vec![0i8; ch * ho * wo];
    for c in 0..ch {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut best = i8::MIN;
                for ky in 0..2 {
                    for kx in 0..2 {
                        let v = input[c * h * w + (oy * 2 + ky) * w + ox * 2 + kx];
                        best = best.max(v);
                    }
                }
                out[c * ho * wo + oy * wo + ox] = best;
            }
        }
    }
    out
}

/// Integer fully connected layer over an `i8` activation vector, returning
/// the raw 32-bit accumulators (bias included, no requantisation).
fn linear_int_raw(input: &[i8], layer: &QuantizedLayer) -> Vec<i32> {
    assert_eq!(layer.kernel, 1, "linear layers are 1x1");
    assert_eq!(input.len(), layer.in_features, "feature mismatch");
    let mut raw = vec![0i32; layer.out_features];
    for (o, acc_out) in raw.iter_mut().enumerate() {
        let mut acc = layer.bias_q[o];
        let base = o * layer.in_features;
        for (i, &x) in input.iter().enumerate() {
            acc += x as i32 * layer.weight_q[base + i] as i32;
        }
        *acc_out = acc;
    }
    raw
}

/// The predicted class of a logit vector: the index of the largest logit,
/// the lowest index winning a tie (`0` for no logits). Both the deployed
/// simulator run and the host golden model predict through this one
/// function, so the two can never disagree on a tie.
pub fn argmax(logits: &[i32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in logits.iter().enumerate() {
        if x > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_sequential;
    use crate::qat::{qat_finetune, QatConfig};
    use pcount_nn::{CnnConfig, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn requant_params_apply_matches_float_rescaling() {
        let rq = RequantParams::from_scales(0.001, 0.05);
        for acc in [-100_000i32, -1234, 0, 17, 999, 250_000] {
            let expected = (acc as f64 * 0.001 / 0.05).round() as i32;
            let got = rq.apply(acc);
            assert!(
                (expected - got).abs() <= 1,
                "acc {acc}: expected ~{expected}, got {got}"
            );
        }
    }

    #[test]
    fn argmax_takes_the_lowest_index_on_a_tie() {
        assert_eq!(argmax(&[3, 7, 7, 1]), 1);
        assert_eq!(argmax(&[-5, -5, -5]), 0);
        assert_eq!(argmax(&[i32::MIN, 0, 9, 2, 9]), 2);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn requant_rounding_is_to_nearest() {
        // mult = 2^15 -> effective scale 0.5 with SHIFT=16.
        let rq = RequantParams {
            mult: 1 << 15,
            shift: RequantParams::SHIFT,
        };
        assert_eq!(rq.apply(2), 1);
        assert_eq!(rq.apply(3), 2); // 1.5 rounds up
        assert_eq!(rq.apply(-2), -1);
    }

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

    fn trained_quantized(
        assignment: PrecisionAssignment,
        rng: &mut StdRng,
    ) -> (QuantizedCnn, QatCnn, Tensor, Vec<usize>) {
        let (x, y) = toy_dataset(160, rng);
        let cfg = CnnConfig::seed().with_channels(4, 4, 8);
        let mut net = cfg.build(rng);
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 32,
            learning_rate: 3e-3,
            weight_decay: 0.0,
            verbose: false,
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, rng);
        let folded = fold_sequential(cfg, &net).expect("fold");
        let mut qat = QatCnn::from_folded(&folded, assignment);
        let qc = QatConfig {
            epochs: 3,
            batch_size: 32,
            learning_rate: 5e-4,
            verbose: false,
        };
        let _ = qat_finetune(&mut qat, &x, &y, &qc, rng);
        (QuantizedCnn::from_qat(&qat), qat, x, y)
    }

    #[test]
    fn integer_model_agrees_with_fake_quant_model() {
        let mut rng = StdRng::seed_from_u64(0);
        let assignment = PrecisionAssignment::uniform(Precision::Int8);
        let (int_model, mut qat, x, _y) = trained_quantized(assignment, &mut rng);
        let fake_preds = qat.predict(&x);
        let int_preds = int_model.predict_batch(&x);
        let agree = fake_preds
            .iter()
            .zip(int_preds.iter())
            .filter(|(a, b)| a == b)
            .count();
        let ratio = agree as f64 / fake_preds.len() as f64;
        assert!(
            ratio > 0.9,
            "integer and fake-quant predictions agree on only {:.0}% of frames",
            ratio * 100.0
        );
    }

    #[test]
    fn integer_model_keeps_accuracy_on_toy_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let assignment = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int8,
        ]);
        let (int_model, _qat, x, y) = trained_quantized(assignment, &mut rng);
        let bas = int_model.evaluate(&x, &y, 4);
        assert!(bas > 0.7, "integer BAS too low: {bas}");
    }

    #[test]
    fn weight_codes_respect_precision_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let assignment = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int4,
        ]);
        let (int_model, _qat, _x, _y) = trained_quantized(assignment, &mut rng);
        for (layer, p) in int_model.layers.iter().zip(assignment.layers()) {
            let qmax = p.qmax() as i8;
            assert!(layer.weight_q.iter().all(|&w| w.abs() <= qmax));
        }
    }

    #[test]
    fn int4_weight_bytes_are_smaller_than_int8() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m8, _, _, _) =
            trained_quantized(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let (m4, _, _, _) =
            trained_quantized(PrecisionAssignment::uniform(Precision::Int4), &mut rng);
        assert!(m4.weight_bytes() < m8.weight_bytes());
    }

    #[test]
    fn quantize_input_saturates() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, _, _, _) =
            trained_quantized(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let frame = vec![1000.0f32; 64];
        let q = m.quantize_input(&frame);
        assert!(q.iter().all(|&v| v == 127));
    }
}
