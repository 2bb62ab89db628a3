//! Trainable channel masks with straight-through Heaviside binarisation.

use pcount_nn::{channel_sums, SumOrder};
use pcount_tensor::Tensor;

/// A vector of trainable mask parameters `θ`, one per output channel or
/// feature, binarised with the Heaviside step function `H(θ) = 1 if θ >= 0`.
///
/// During the search the mask multiplies the layer's output activations:
/// a channel whose binary mask is 0 contributes nothing downstream, which
/// is equivalent to pruning its weights (and its batch-norm/bias terms).
/// Gradients flow to `θ` through a straight-through estimator
/// (`dH/dθ ≈ 1`), plus the `λ`-weighted cost gradient added by
/// [`crate::MaskedCost`].
///
/// At least one channel is always kept alive: if every `θ` falls below the
/// threshold the channel with the largest `θ` stays enabled, so the
/// extracted network never collapses to zero width.
#[derive(Debug, Clone)]
pub struct ChannelMask {
    /// Trainable parameters, one per channel.
    pub theta: Tensor,
    /// Accumulated gradient of the loss (task + cost) w.r.t. `theta`.
    pub theta_grad: Tensor,
    cached_input: Option<Tensor>,
    cached_binary: Option<Vec<f32>>,
}

impl ChannelMask {
    /// Initial value of every mask parameter (all channels start alive).
    ///
    /// Kept small so that a modest number of Adam steps under cost pressure
    /// can drive a parameter across the pruning threshold, while the warm-up
    /// epochs (task loss only) push genuinely useful channels safely above
    /// it.
    pub const INIT: f32 = 0.05;

    /// Creates a mask over `channels` channels, all initially alive.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "mask needs at least one channel");
        Self {
            theta: Tensor::full(&[channels], Self::INIT),
            theta_grad: Tensor::zeros(&[channels]),
            cached_input: None,
            cached_binary: None,
        }
    }

    /// Number of channels covered by this mask.
    pub fn channels(&self) -> usize {
        self.theta.numel()
    }

    /// The binarised mask, guaranteeing at least one alive channel.
    pub fn binary(&self) -> Vec<f32> {
        let th = self.theta.data();
        let mut bin: Vec<f32> = th
            .iter()
            .map(|&t| if t >= 0.0 { 1.0 } else { 0.0 })
            .collect();
        if bin.iter().all(|&b| b == 0.0) {
            let mut best = 0usize;
            for (i, &t) in th.iter().enumerate() {
                if t > th[best] {
                    best = i;
                }
            }
            bin[best] = 1.0;
        }
        bin
    }

    /// Number of channels currently alive.
    pub fn alive_count(&self) -> usize {
        self.binary().iter().filter(|&&b| b > 0.5).count()
    }

    /// Indices of the alive channels.
    pub fn alive_indices(&self) -> Vec<usize> {
        self.binary()
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0.5)
            .map(|(i, _)| i)
            .collect()
    }

    /// Masks channel dimension 1 of `x` (NCHW or `[N, F]`).
    ///
    /// # Panics
    ///
    /// Panics if dimension 1 of `x` does not match the mask length.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert!(shape.len() >= 2, "mask input must have a channel dimension");
        let c = shape[1];
        assert_eq!(c, self.channels(), "mask channel mismatch");
        let bin = self.binary();
        let inner: usize = shape[2..].iter().product();
        let mut out = x.clone();
        {
            let od = out.data_mut();
            let n = shape[0];
            for ni in 0..n {
                #[allow(clippy::needless_range_loop)]
                for ci in 0..c {
                    if bin[ci] == 0.0 {
                        let base = (ni * c + ci) * inner;
                        for v in &mut od[base..base + inner] {
                            *v = 0.0;
                        }
                    }
                }
            }
        }
        self.cached_input = Some(x.clone());
        self.cached_binary = Some(bin);
        out
    }

    /// Back-propagates through the mask: accumulates the straight-through
    /// gradient on `theta` and returns the gradient w.r.t. the input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let bin = self.cached_binary.as_ref().expect("missing binary cache");
        let shape = x.shape();
        let (n, c) = (shape[0], shape[1]);
        let inner: usize = shape[2..].iter().product();
        let gd = grad_out.data();
        let xd = x.data();
        // STE: dL/dθ_c = Σ_{batch, positions} dL/dy * x   (dH/dθ ≈ 1),
        // each image's partial summed from 0.0 and added in image order.
        let tg = self.theta_grad.data_mut();
        channel_sums(
            [gd, xd],
            [n, c, inner],
            tg,
            SumOrder::PerImage(0.0),
            |_, [g, x]| g * x,
        );
        // dL/dx = dL/dy * H(θ).
        let mut grad_in = grad_out.clone();
        {
            let gi = grad_in.data_mut();
            for ni in 0..n {
                #[allow(clippy::needless_range_loop)]
                for ci in 0..c {
                    if bin[ci] == 0.0 {
                        let base = (ni * c + ci) * inner;
                        for v in &mut gi[base..base + inner] {
                            *v = 0.0;
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Resets the accumulated `theta` gradient.
    pub fn zero_grad(&mut self) {
        self.theta_grad.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_channels_start_alive() {
        let mask = ChannelMask::new(8);
        assert_eq!(mask.alive_count(), 8);
        assert_eq!(mask.alive_indices(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn negative_theta_disables_channel() {
        let mut mask = ChannelMask::new(3);
        mask.theta = Tensor::from_vec(vec![0.5, -0.5, 0.5], &[3]);
        assert_eq!(mask.alive_count(), 2);
        assert_eq!(mask.alive_indices(), vec![0, 2]);
    }

    #[test]
    fn at_least_one_channel_survives() {
        let mut mask = ChannelMask::new(4);
        mask.theta = Tensor::from_vec(vec![-3.0, -1.0, -2.0, -5.0], &[4]);
        assert_eq!(mask.alive_count(), 1);
        assert_eq!(mask.alive_indices(), vec![1]);
    }

    #[test]
    fn forward_zeroes_masked_channels() {
        let mut mask = ChannelMask::new(2);
        mask.theta = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = mask.forward(&x);
        assert_eq!(y.data()[0..4], [1.0; 4]);
        assert_eq!(y.data()[4..8], [0.0; 4]);
    }

    #[test]
    fn backward_blocks_gradients_of_masked_channels() {
        let mut mask = ChannelMask::new(2);
        mask.theta = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let _ = mask.forward(&x);
        let g = mask.backward(&Tensor::ones(&[1, 2, 2, 2]));
        assert_eq!(g.data()[0..4], [1.0; 4]);
        assert_eq!(g.data()[4..8], [0.0; 4]);
        // Theta gradient is the sum of grad*input per channel (4 positions).
        assert_eq!(mask.theta_grad.data(), &[4.0, 4.0]);
    }

    #[test]
    fn works_on_2d_feature_tensors() {
        let mut mask = ChannelMask::new(3);
        mask.theta = Tensor::from_vec(vec![-1.0, 1.0, 1.0], &[3]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = mask.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 3.0, 0.0, 5.0, 6.0]);
    }

    /// The θ gradient equals a serial reference loop bit for bit: each
    /// image's partial summed from 0.0, then added in image order. Shapes
    /// cover every lane width, planes with and without a four-pixel
    /// remainder, `[N, F]` features, NaN, ±inf and −0.0 inputs, and an
    /// all-(−0.0) product row; a NaN matches any NaN.
    #[test]
    fn theta_gradient_matches_serial_reference_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut rng = StdRng::seed_from_u64(26);
        for n in [1, 5, 128] {
            for c in [1, 3, 7, 8, 9, 24, 33] {
                for inner in [&[][..], &[1, 1], &[2, 3], &[4, 4], &[8, 8]] {
                    let shape = [&[n, c][..], inner].concat();
                    let plane: usize = inner.iter().product();
                    for salted in [false, true] {
                        let mut draw = || {
                            let mut t = Tensor::randn(&shape, 1.5, &mut rng);
                            for v in t.data_mut().iter_mut().filter(|_| salted) {
                                if rng.gen_range(0..40) == 0 {
                                    *v = specials[rng.gen_range(0..specials.len())];
                                }
                            }
                            t
                        };
                        let x = draw();
                        let mut gy = draw();
                        gy.data_mut()[..plane].fill(-0.0);
                        let mut mask = ChannelMask::new(c);
                        // Starting from −0.0 makes the −0.0 row's sign visible.
                        mask.theta_grad.fill(-0.0);
                        let _ = mask.forward(&x);
                        let _ = mask.backward(&gy);
                        let (gd, xd) = (gy.data(), x.data());
                        let mut want = vec![-0.0f32; c];
                        for ni in 0..n {
                            for (ci, w) in want.iter_mut().enumerate() {
                                let base = (ni * c + ci) * plane;
                                let mut acc = 0.0f32;
                                for i in 0..plane {
                                    acc += gd[base + i] * xd[base + i];
                                }
                                *w += acc;
                            }
                        }
                        for (ci, (g, w)) in mask.theta_grad.data().iter().zip(&want).enumerate() {
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "shape {shape:?} channel {ci}: {g:e} vs reference {w:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn alive_count_matches_non_negative_thetas(
            thetas in proptest::collection::vec(-1.0f32..1.0, 1..16)
        ) {
            let mut mask = ChannelMask::new(thetas.len());
            mask.theta = Tensor::from_vec(thetas.clone(), &[thetas.len()]);
            let expected = thetas.iter().filter(|&&t| t >= 0.0).count().max(1);
            prop_assert_eq!(mask.alive_count(), expected);
        }

        #[test]
        fn masking_is_idempotent(
            thetas in proptest::collection::vec(-1.0f32..1.0, 4),
            values in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            let mut mask = ChannelMask::new(4);
            mask.theta = Tensor::from_vec(thetas, &[4]);
            let x = Tensor::from_vec(values, &[2, 4]);
            let once = mask.forward(&x);
            let twice = mask.forward(&once);
            prop_assert!(once.approx_eq(&twice, 0.0));
        }
    }
}
