//! Pure-integer inference: the host golden model whose logits the RISC-V
//! kernels reproduce bit-exactly.

use crate::mixed::PrecisionAssignment;
use crate::qat::QatCnn;
use crate::qparams::{weight_scale, Precision};
use pcount_nn::balanced_accuracy;
use pcount_tensor::Tensor;
use std::cell::RefCell;

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
/// 32-bit. The forward pass uses the decomposition of the MAUPITI SDOTP
/// kernels: each 3x3 conv is a channel loop of `i8` dot products over an
/// im2col column, each fully connected layer one dot product per output,
/// then the same fixed-point requantisation. Integer sums do not depend on
/// their order, so its logits equal the deployed kernels' bit for bit, and
/// it serves as the host golden model of `pcount-kernels` (the simulator
/// gates it: a deployment's `run_frame` logits must equal
/// [`QuantizedCnn::forward_int`]'s).
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
        let mut q = Vec::with_capacity(frame.len());
        self.quantize_input_into(frame, &mut q);
        q
    }

    /// [`Self::quantize_input`] into a caller-owned buffer.
    fn quantize_input_into(&self, frame: &[f32], out: &mut Vec<i8>) {
        let qmax = self.layers[0].precision.qmax();
        out.clear();
        out.extend(
            frame
                .iter()
                .map(|&v| ((v / self.input_scale).round() as i32).clamp(-qmax, qmax) as i8),
        );
    }

    /// Runs integer inference on a quantised input frame (`[1, 8, 8]` in
    /// CHW order) and returns the raw 32-bit logits.
    ///
    /// Each 3x3 conv gathers one zero-padded im2col column per output
    /// pixel and takes one `i8` dot product per output channel; each
    /// fully connected layer takes one dot product per output. The
    /// intermediates live in per-thread scratch buffers, so the only
    /// allocation is the returned vector.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the expected frame size.
    pub fn forward_int(&self, input_q: &[i8]) -> Vec<i32> {
        SCRATCH.with_borrow_mut(|s| self.forward_into(input_q, &mut s.layers).to_vec())
    }

    /// The body of [`Self::forward_int`]: the logits, in `bufs.logits`.
    fn forward_into<'b>(&self, input_q: &[i8], bufs: &'b mut LayerBuffers) -> &'b [i32] {
        let cfg = &self.config;
        let hw = cfg.input_size;
        assert_eq!(
            input_q.len(),
            cfg.input_channels * hw * hw,
            "bad input size"
        );
        let LayerBuffers {
            padded,
            col,
            conv1,
            pooled,
            conv2,
            fc1,
            logits,
        } = bufs;
        // Layer 1: conv 3x3, pad 1, stride 1 on 8x8, then ReLU+requant, then
        // 2x2 max pool.
        let l1 = &self.layers[0];
        conv3x3_int(input_q, cfg.input_channels, hw, l1, padded, col, conv1);
        maxpool2x2_int(conv1, l1.out_features, hw, pooled);
        // Layer 2: conv 3x3 pad 1 on 4x4.
        let l2 = &self.layers[1];
        conv3x3_int(pooled, l1.out_features, hw / 2, l2, padded, col, conv2);
        // Layer 3: fully connected over the flattened activations.
        let l3 = &self.layers[2];
        fc1.clear();
        fc1.extend(linear_int(conv2, l3).map(|acc| l3.requantize(acc) as i8));
        // Layer 4: output layer, raw 32-bit accumulators are the logits.
        logits.clear();
        logits.extend(linear_int(fc1, &self.layers[3]));
        logits
    }

    /// Predicts the class of one raw frame: quantise, the integer forward
    /// pass of [`Self::forward_int`], [`argmax`]. Every intermediate lives
    /// in per-thread scratch buffers, so once a thread has run a frame of
    /// a model at least this large, a call allocates nothing.
    pub fn predict_frame(&self, frame: &[f32]) -> usize {
        SCRATCH.with_borrow_mut(|Scratch { input, layers }| {
            self.quantize_input_into(frame, input);
            argmax(self.forward_into(input, layers))
        })
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

/// Per-thread buffers of the integer forward pass.
#[derive(Debug, Default)]
struct Scratch {
    /// The quantised input frame of [`QuantizedCnn::predict_frame`].
    input: Vec<i8>,
    /// Every intermediate of [`QuantizedCnn::forward_into`].
    layers: LayerBuffers,
}

/// The intermediates of one integer forward pass.
#[derive(Debug, Default)]
struct LayerBuffers {
    /// The current conv input, one zero-bordered plane per channel.
    padded: Vec<i8>,
    /// One im2col column, `[ci][ky][kx]`.
    col: Vec<i8>,
    conv1: Vec<i8>,
    pooled: Vec<i8>,
    conv2: Vec<i8>,
    fc1: Vec<i8>,
    logits: Vec<i32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// `bias` plus the dot product of two `i8` vectors, accumulated in `i32`.
fn dot(bias: i32, a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .fold(bias, |acc, (&x, &y)| acc + i32::from(x) * i32::from(y))
}

/// 3x3, pad-1, stride-1 integer convolution of a CHW `i8` map of
/// `in_ch` planes of `hw x hw` into `out`.
///
/// Each output pixel gathers one im2col column from zero-bordered copies
/// of the planes, in `[ci][ky][kx]` order, which is the order of a
/// `weight_q` row. A padded tap adds `0 * w`, so every output channel is
/// exactly one dot product plus the bias, then [`QuantizedLayer::requantize`].
fn conv3x3_int(
    input: &[i8],
    in_ch: usize,
    hw: usize,
    layer: &QuantizedLayer,
    padded: &mut Vec<i8>,
    col: &mut Vec<i8>,
    out: &mut Vec<i8>,
) {
    assert_eq!(layer.kernel, 3, "conv kernel must be 3");
    assert_eq!(layer.in_features, in_ch, "channel mismatch");
    let pw = hw + 2;
    padded.clear();
    padded.resize(in_ch * pw * pw, 0);
    for (plane, src) in padded
        .chunks_exact_mut(pw * pw)
        .zip(input.chunks_exact(hw * hw))
    {
        for (row, line) in plane.chunks_exact_mut(pw).skip(1).zip(src.chunks_exact(hw)) {
            row[1..=hw].copy_from_slice(line);
        }
    }
    col.clear();
    col.resize(in_ch * 9, 0);
    out.clear();
    out.resize(layer.out_features * hw * hw, 0);
    for oy in 0..hw {
        for ox in 0..hw {
            for (taps, plane) in col.chunks_exact_mut(9).zip(padded.chunks_exact(pw * pw)) {
                for (ky, tap) in taps.chunks_exact_mut(3).enumerate() {
                    let at = (oy + ky) * pw + ox;
                    tap.copy_from_slice(&plane[at..at + 3]);
                }
            }
            let rows = layer.weight_q.chunks_exact(in_ch * 9).zip(&layer.bias_q);
            for (co, (w, &bias)) in rows.enumerate() {
                out[co * hw * hw + oy * hw + ox] = layer.requantize(dot(bias, w, col)) as i8;
            }
        }
    }
}

/// 2x2 stride-2 max pooling of a CHW `i8` map of `ch` planes of `hw x hw`
/// into `out`.
fn maxpool2x2_int(input: &[i8], ch: usize, hw: usize, out: &mut Vec<i8>) {
    let ho = hw / 2;
    out.clear();
    for c in 0..ch {
        for oy in 0..ho {
            for ox in 0..ho {
                let at = c * hw * hw + oy * 2 * hw + ox * 2;
                let top = input[at].max(input[at + 1]);
                out.push(top.max(input[at + hw]).max(input[at + hw + 1]));
            }
        }
    }
}

/// The raw 32-bit accumulators of an integer fully connected layer over
/// an `i8` activation vector: the bias plus one dot product per output,
/// with no requantisation.
fn linear_int<'a>(input: &'a [i8], layer: &'a QuantizedLayer) -> impl Iterator<Item = i32> + 'a {
    assert_eq!(layer.kernel, 1, "linear layers are 1x1");
    assert_eq!(input.len(), layer.in_features, "feature mismatch");
    layer
        .weight_q
        .chunks_exact(layer.in_features)
        .zip(&layer.bias_q)
        .map(move |(w, &bias)| dot(bias, w, input))
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
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, rng);
        let folded = fold_sequential(cfg, &net).expect("fold");
        let mut qat = QatCnn::from_folded(&folded, assignment);
        let qc = QatConfig {
            epochs: 3,
            batch_size: 32,
            learning_rate: 5e-4,
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
