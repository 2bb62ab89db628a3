//! 2-D batch normalisation.

use crate::layer::{Layer, Mode};
use crate::sums::{channel_sums, SumOrder};
use pcount_tensor::Tensor;

/// Batch normalisation over the channel dimension of NCHW tensors.
///
/// During training the layer normalises with batch statistics and updates
/// exponential running averages; during evaluation it uses the running
/// statistics. `pcount-quant` folds this layer into the preceding
/// convolution before quantisation, exactly as the paper does.
///
/// # Example
///
/// ```
/// use pcount_nn::{BatchNorm2d, Layer, Mode};
/// use pcount_tensor::Tensor;
/// let mut bn = BatchNorm2d::new(3);
/// let y = bn.forward(&Tensor::ones(&[2, 3, 4, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 3, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Number of channels.
    pub channels: usize,
    /// Scale parameter `gamma`, one per channel.
    pub gamma: Tensor,
    /// Shift parameter `beta`, one per channel.
    pub beta: Tensor,
    /// Gradient of `gamma`.
    pub gamma_grad: Tensor,
    /// Gradient of `beta`.
    pub beta_grad: Tensor,
    /// Running mean used in evaluation mode.
    pub running_mean: Tensor,
    /// Running variance used in evaluation mode.
    pub running_var: Tensor,
    /// Exponential-average momentum for the running statistics.
    pub momentum: f32,
    /// Numerical stabiliser added to the variance.
    pub eps: f32,
    cache: BnCache,
}

#[derive(Debug, Clone, Default)]
struct BnCache {
    /// The normalised input of the last training-mode forward; its
    /// allocation is reused by the next one.
    x_hat: Vec<f32>,
    std_inv: Vec<f32>,
    input_shape: Option<[usize; 4]>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "batchnorm needs at least one channel");
        Self {
            channels,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            gamma_grad: Tensor::zeros(&[channels]),
            beta_grad: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: BnCache::default(),
        }
    }
}

impl Layer for BatchNorm2d {
    /// Normalises `x` per channel. In training mode the batch mean and
    /// variance come from [`channel_sums`] (one chain per channel from 0.0
    /// in (image, pixel) order) and the layer keeps `x̂` for the backward
    /// pass; in evaluation mode it uses the running statistics and keeps
    /// nothing.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "batchnorm expects NCHW input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let dims = [n, c, h * w];
        let m = (n * h * w) as f32;
        let xd = x.data();

        let (mean, var) = match mode {
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                channel_sums([xd], dims, &mut mean, SumOrder::Running, |_, [v]| v);
                for s in &mut mean {
                    *s /= m;
                }
                let mut var = vec![0.0f32; c];
                channel_sums([xd], dims, &mut var, SumOrder::Running, |ci, [v]| {
                    let d = v - mean[ci];
                    d * d
                });
                for s in &mut var {
                    *s /= m;
                }
                // Update running statistics.
                let rm = self.running_mean.data_mut();
                for (r, &mu) in rm.iter_mut().zip(&mean) {
                    *r = (1.0 - self.momentum) * *r + self.momentum * mu;
                }
                let rv = self.running_var.data_mut();
                for (r, &v) in rv.iter_mut().zip(&var) {
                    *r = (1.0 - self.momentum) * *r + self.momentum * v;
                }
                (mean, var)
            }
            Mode::Eval => (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            ),
        };

        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let (g, b) = (self.gamma.data(), self.beta.data());
        let mut out = Vec::with_capacity(xd.len());
        if mode == Mode::Train {
            let cache = &mut self.cache;
            cache.x_hat.resize(xd.len(), 0.0);
            let planes = xd
                .chunks_exact(h * w)
                .zip(cache.x_hat.chunks_exact_mut(h * w));
            for (p, (xp, hp)) in planes.enumerate() {
                let ci = p % c;
                let (mu, si, gc, bc) = (mean[ci], std_inv[ci], g[ci], b[ci]);
                out.extend(xp.iter().zip(hp).map(|(&v, xh)| {
                    let v = (v - mu) * si;
                    *xh = v;
                    gc * v + bc
                }));
            }
            cache.std_inv = std_inv;
            cache.input_shape = Some([n, c, h, w]);
        } else {
            for (p, xp) in xd.chunks_exact(h * w).enumerate() {
                let ci = p % c;
                let (mu, si, gc, bc) = (mean[ci], std_inv[ci], g[ci], b[ci]);
                out.extend(xp.iter().map(|&v| gc * ((v - mu) * si) + bc));
            }
        }
        Tensor::from_vec(out, shape)
    }

    /// Back-propagates through the last training-mode forward. `Σ dy` and
    /// `Σ dy·x̂` per channel come from [`channel_sums`] (one chain per
    /// channel from 0.0 in (image, pixel) order) and are added onto the
    /// β and γ gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = &self.cache;
        let [n, c, h, w] = cache.input_shape.expect("backward before train forward");
        assert_eq!(
            grad_out.shape(),
            &[n, c, h, w],
            "batchnorm gradient shape mismatch"
        );
        let dims = [n, c, h * w];
        let m = (n * h * w) as f32;
        let gd = grad_out.data();
        let xh = &cache.x_hat[..];

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        channel_sums([gd], dims, &mut sum_dy, SumOrder::Running, |_, [dy]| dy);
        let mut sum_dy_xhat = vec![0.0f32; c];
        channel_sums(
            [gd, xh],
            dims,
            &mut sum_dy_xhat,
            SumOrder::Running,
            |_, [dy, v]| dy * v,
        );
        for (bg, s) in self.beta_grad.data_mut().iter_mut().zip(&sum_dy) {
            *bg += s;
        }
        for (gg, s) in self.gamma_grad.data_mut().iter_mut().zip(&sum_dy_xhat) {
            *gg += s;
        }
        let g = self.gamma.data();
        let mut grad_in = Vec::with_capacity(gd.len());
        let planes = gd.chunks_exact(h * w).zip(xh.chunks_exact(h * w));
        for (p, (gp, hp)) in planes.enumerate() {
            let ci = p % c;
            let k = g[ci] * cache.std_inv[ci] / m;
            let (sdy, sdx) = (sum_dy[ci], sum_dy_xhat[ci]);
            grad_in.extend(
                gp.iter()
                    .zip(hp)
                    .map(|(&dy, &v)| k * (m * dy - sdy - v * sdx)),
            );
        }
        Tensor::from_vec(grad_in, &[n, c, h, w])
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.gamma, &mut self.gamma_grad),
            (&mut self.beta, &mut self.beta_grad),
        ]
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalised() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean should be ~0 and variance ~1.
        let (n, c, h, w) = (4, 3, 5, 5);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                for i in 0..h * w {
                    vals.push(y.data()[(ni * c + ci) * h * w + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_vec(vec![2.0], &[1]);
        bn.running_var = Tensor::from_vec(vec![4.0], &[1]);
        let x = Tensor::full(&[1, 1, 2, 2], 4.0);
        let y = bn.forward(&x, Mode::Eval);
        // (4 - 2) / 2 = 1.0
        assert!(y.approx_eq(&Tensor::ones(&[1, 1, 2, 2]), 1e-3));
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma = Tensor::from_vec(vec![3.0], &[1]);
        bn.beta = Tensor::from_vec(vec![-1.0], &[1]);
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let y = bn.forward(&x, Mode::Train);
        // Normalised values are symmetric around 0, scaled by 3, shifted by -1.
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean + 1.0).abs() < 1e-4);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = Tensor::from_vec(vec![1.5, 0.5], &[2]);
        bn.beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        let x = Tensor::randn(&[2, 2, 3, 3], 1.0, &mut rng);
        bn.zero_grad();
        let y = bn.forward(&x, Mode::Train);
        let gx = bn.backward(&y); // L = 0.5 ||y||^2
        let eps = 1e-3;
        for idx in [0usize, 3, 10, 20] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = 0.5 * bn.forward(&xp, Mode::Train).sq_norm();
            let lm = 0.5 * bn.forward(&xm, Mode::Train).sq_norm();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 2e-2,
                "bn grad mismatch at {idx}: {num} vs {}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn running_stats_converge_towards_batch_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[8, 1, 4, 4], 2.0, &mut rng).map(|v| v + 5.0);
        for _ in 0..200 {
            let _ = bn.forward(&x, Mode::Train);
        }
        // Running statistics should converge to this batch's statistics
        // (not the population's), so compare against the sample moments.
        let batch_mean = x.mean();
        let batch_var = x.map(|v| v * v).mean() - batch_mean * batch_mean;
        assert!((bn.running_mean.data()[0] - batch_mean).abs() < 0.05);
        assert!((bn.running_var.data()[0] - batch_var).abs() < 0.1);
    }
}
