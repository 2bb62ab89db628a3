//! Bit-identity of `BatchNorm2d`, `Relu` and `Conv2d`'s bias gradient
//! against plain reference loops: one serial `f32` chain per channel in
//! (image, pixel) order, one channel at a time.
//!
//! Shapes cover every lane width (channel counts 1, 3, 7, 8, 9, 24 and
//! 33), planes with and without a four-pixel remainder, and batches of 1,
//! 5 and 128. Each shape runs on finite data and on data salted with NaN,
//! ±inf and −0.0. Values compare by bits; a NaN matches any NaN, because
//! which operand's payload an x86 add keeps depends on the order the
//! compiler puts them in.

use pcount_nn::{BatchNorm2d, Conv2d, Layer, Mode, Relu};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHANNELS: [usize; 7] = [1, 3, 7, 8, 9, 24, 33];
const PLANES: [(usize, usize); 4] = [(1, 1), (2, 3), (4, 4), (8, 8)];
const BATCHES: [usize; 3] = [1, 5, 128];
const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];

/// Every shape of the sweep, as `[n, c, h, w]`.
fn shapes() -> impl Iterator<Item = [usize; 4]> {
    BATCHES.into_iter().flat_map(|n| {
        CHANNELS
            .into_iter()
            .flat_map(move |c| PLANES.into_iter().map(move |(h, w)| [n, c, h, w]))
    })
}

/// Random data of `shape`; with `salted`, about one value in 40 is NaN,
/// ±inf or −0.0.
fn data(shape: [usize; 4], salted: bool, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(&shape, 1.5, rng);
    if salted {
        for v in t.data_mut() {
            if rng.gen_range(0..40) == 0 {
                *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
            }
        }
    }
    t
}

/// A gradient of `shape` whose first row (image 0, channel 0) is all
/// −0.0.
fn grad(shape: [usize; 4], salted: bool, rng: &mut StdRng) -> Tensor {
    let mut g = data(shape, salted, rng);
    let plane = shape[2] * shape[3];
    g.data_mut()[..plane].fill(-0.0);
    g
}

fn assert_same(what: &str, shape: [usize; 4], got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what} {shape:?}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what} {shape:?} at {i}: {g:e} ({:#x}) vs reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// A layer with distinct γ, β and running statistics per channel.
fn batchnorm(c: usize, rng: &mut StdRng) -> BatchNorm2d {
    let mut bn = BatchNorm2d::new(c);
    let mut draw =
        |lo: f32, hi: f32| Tensor::from_vec((0..c).map(|_| rng.gen_range(lo..hi)).collect(), &[c]);
    bn.gamma = draw(0.5, 1.5);
    bn.beta = draw(-0.5, 0.5);
    bn.running_mean = draw(-1.0, 1.0);
    bn.running_var = draw(0.5, 2.0);
    bn
}

/// What the reference batch-norm forward produces and keeps.
struct RefForward {
    out: Vec<f32>,
    x_hat: Vec<f32>,
    std_inv: Vec<f32>,
}

/// Reference batch-norm forward: one chain per channel for the mean and
/// the variance; updates `bn`'s running statistics in training mode.
fn ref_bn_forward(bn: &mut BatchNorm2d, x: &Tensor, mode: Mode) -> RefForward {
    let s = x.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let m = (n * h * w) as f32;
    let xd = x.data();
    let (mean, var) = match mode {
        Mode::Train => {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut sum = 0.0;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for i in 0..h * w {
                        sum += xd[base + i];
                    }
                }
                mean[ci] = sum / m;
                let mut sq = 0.0;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for i in 0..h * w {
                        let d = xd[base + i] - mean[ci];
                        sq += d * d;
                    }
                }
                var[ci] = sq / m;
            }
            for ci in 0..c {
                let rm = bn.running_mean.data_mut();
                rm[ci] = (1.0 - bn.momentum) * rm[ci] + bn.momentum * mean[ci];
            }
            for ci in 0..c {
                let rv = bn.running_var.data_mut();
                rv[ci] = (1.0 - bn.momentum) * rv[ci] + bn.momentum * var[ci];
            }
            (mean, var)
        }
        Mode::Eval => (
            bn.running_mean.data().to_vec(),
            bn.running_var.data().to_vec(),
        ),
    };
    let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect();
    let mut x_hat = vec![0.0f32; xd.len()];
    let mut out = vec![0.0f32; xd.len()];
    let (g, b) = (bn.gamma.data(), bn.beta.data());
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for i in 0..h * w {
                let v = (xd[base + i] - mean[ci]) * std_inv[ci];
                x_hat[base + i] = v;
                out[base + i] = g[ci] * v + b[ci];
            }
        }
    }
    RefForward {
        out,
        x_hat,
        std_inv,
    }
}

/// Reference batch-norm backward: `Σ dy` and `Σ dy·x̂` as one chain per
/// channel; returns the input gradient and adds onto β and γ gradients.
fn ref_bn_backward(bn: &mut BatchNorm2d, fwd: &RefForward, grad_out: &Tensor) -> Vec<f32> {
    let s = grad_out.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let m = (n * h * w) as f32;
    let gd = grad_out.data();
    let xh = &fwd.x_hat;
    let mut sum_dy = vec![0.0f32; c];
    let mut sum_dy_xhat = vec![0.0f32; c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for i in 0..h * w {
                sum_dy[ci] += gd[base + i];
                sum_dy_xhat[ci] += gd[base + i] * xh[base + i];
            }
        }
    }
    for ci in 0..c {
        bn.beta_grad.data_mut()[ci] += sum_dy[ci];
        bn.gamma_grad.data_mut()[ci] += sum_dy_xhat[ci];
    }
    let g = bn.gamma.data();
    let mut gi = vec![0.0f32; gd.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let k = g[ci] * fwd.std_inv[ci] / m;
            for i in 0..h * w {
                gi[base + i] = k * (m * gd[base + i] - sum_dy[ci] - xh[base + i] * sum_dy_xhat[ci]);
            }
        }
    }
    gi
}

#[test]
fn batchnorm_matches_serial_reference_loops() {
    let mut rng = StdRng::seed_from_u64(26);
    for shape in shapes() {
        for salted in [false, true] {
            let x = data(shape, salted, &mut rng);
            let gy = grad(shape, salted, &mut rng);
            let mut bn = batchnorm(shape[1], &mut rng);
            let mut reference = bn.clone();

            let y = bn.forward(&x, Mode::Train);
            let fwd = ref_bn_forward(&mut reference, &x, Mode::Train);
            assert_same("train output", shape, y.data(), &fwd.out);
            assert_same(
                "running mean",
                shape,
                bn.running_mean.data(),
                reference.running_mean.data(),
            );
            assert_same(
                "running var",
                shape,
                bn.running_var.data(),
                reference.running_var.data(),
            );

            // Gradients accumulate onto what is there, −0.0 included.
            bn.gamma_grad.fill(-0.0);
            bn.beta_grad.fill(-0.0);
            reference.gamma_grad.fill(-0.0);
            reference.beta_grad.fill(-0.0);
            let gx = bn.backward(&gy);
            let want = ref_bn_backward(&mut reference, &fwd, &gy);
            assert_same("input grad", shape, gx.data(), &want);
            assert_same(
                "gamma grad",
                shape,
                bn.gamma_grad.data(),
                reference.gamma_grad.data(),
            );
            assert_same(
                "beta grad",
                shape,
                bn.beta_grad.data(),
                reference.beta_grad.data(),
            );

            let y = bn.forward(&x, Mode::Eval);
            let fwd = ref_bn_forward(&mut reference, &x, Mode::Eval);
            assert_same("eval output", shape, y.data(), &fwd.out);
        }
    }
}

#[test]
fn batchnorm_backward_follows_the_last_training_forward() {
    // An eval-mode forward between a training forward and its backward
    // keeps nothing, so the backward still sees the training x̂.
    let mut rng = StdRng::seed_from_u64(27);
    let shape = [5, 9, 4, 4];
    let (x, other) = (data(shape, false, &mut rng), data(shape, false, &mut rng));
    let gy = grad(shape, false, &mut rng);
    let mut bn = batchnorm(9, &mut rng);
    let mut plain = bn.clone();
    let _ = bn.forward(&x, Mode::Train);
    let _ = bn.forward(&other, Mode::Eval);
    let _ = plain.forward(&x, Mode::Train);
    assert_same(
        "input grad",
        shape,
        bn.backward(&gy).data(),
        plain.backward(&gy).data(),
    );
}

#[test]
fn relu_matches_reference_in_both_directions() {
    let mut rng = StdRng::seed_from_u64(28);
    let mut relu = Relu::new();
    for shape in shapes() {
        for salted in [false, true] {
            let x = data(shape, salted, &mut rng);
            let gy = grad(shape, salted, &mut rng);
            let y = relu.forward(&x, Mode::Train);
            let mask: Vec<bool> = x.data().iter().map(|&v| v > 0.0).collect();
            let want = x.map(|v| v.max(0.0));
            assert_same("relu forward", shape, y.data(), want.data());
            let gx = relu.backward(&gy);
            let want: Vec<f32> = gy
                .data()
                .iter()
                .zip(mask.iter())
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect();
            assert_same("relu backward", shape, gx.data(), &want);
        }
    }
}

#[test]
fn conv_bias_gradient_sums_each_image_then_adds_in_image_order() {
    let mut rng = StdRng::seed_from_u64(29);
    for [n, co, h, w] in shapes() {
        let shape = [n, co, h, w];
        for salted in [false, true] {
            let mut conv = Conv2d::new(2, co, 3, 1, 1, &mut rng);
            let x = data([n, 2, h, w], false, &mut rng);
            let gy = grad(shape, salted, &mut rng);
            let _ = conv.forward(&x, Mode::Train);
            // Starting from −0.0 makes the all-(−0.0) row's sign visible.
            conv.bias_grad.fill(-0.0);
            let _ = conv.backward(&gy);
            let mut want = vec![-0.0f32; co];
            for gy_n in gy.data().chunks_exact(co * h * w) {
                for (b, row) in want.iter_mut().zip(gy_n.chunks_exact(h * w)) {
                    *b += row.iter().sum::<f32>();
                }
            }
            assert_same("bias grad", shape, conv.bias_grad.data(), &want);
        }
    }
}
