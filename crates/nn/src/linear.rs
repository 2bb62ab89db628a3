//! Fully connected (linear) layer.

use crate::layer::{Layer, Mode};
use pcount_tensor::{gemm, Tensor};
use rand::Rng;

/// A fully connected layer computing `y = x W^T + b`.
///
/// Weight layout is `[out_features, in_features]`, matching the convention
/// of the convolution layer (output dimension first) so that the NAS channel
/// masks and the quantizer treat both uniformly. Forward and both backward
/// products run on the cache-blocked [`gemm`] engine (the transposed
/// operands are free — packing reads through strides), with the weight
/// gradient accumulated directly into `weight_grad`, so no intermediate
/// tensors are allocated. [`Linear::forward_naive_with_weight`] /
/// [`Linear::backward_naive_with_weight`] keep the plain triple-loop
/// reference for the equivalence tests.
///
/// # Example
///
/// ```
/// use pcount_nn::{Layer, Linear, Mode};
/// use pcount_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(16, 4, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[3, 16]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Weights `[out, in]`.
    pub weight: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    /// Accumulated weight gradient.
    pub weight_grad: Tensor,
    /// Accumulated bias gradient.
    pub bias_grad: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with He-style initialisation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let std = (2.0 / in_features as f32).sqrt();
        Self {
            in_features,
            out_features,
            weight: Tensor::randn(&[out_features, in_features], std, rng),
            bias: Tensor::zeros(&[out_features]),
            weight_grad: Tensor::zeros(&[out_features, in_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Creates a linear layer from explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        let shape = weight.shape().to_vec();
        assert_eq!(shape.len(), 2, "linear weight must be [out, in]");
        assert_eq!(bias.shape(), &[shape[0]], "bias must match out features");
        Self {
            out_features: shape[0],
            in_features: shape[1],
            weight_grad: Tensor::zeros(&shape),
            bias_grad: Tensor::zeros(&[shape[0]]),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Asserts that an effective weight has this layer's `[out, in]`
    /// shape.
    fn check_weight(&self, weight: &Tensor) {
        let shape = [self.out_features, self.in_features];
        assert_eq!(weight.shape(), &shape, "linear weight shape mismatch");
    }

    /// Forward pass with an externally supplied effective weight tensor
    /// (used by the QAT fake-quantised weights and the NAS masked-layer
    /// path): one `y = x · Wᵀ` GEMM plus a fused bias add.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_features]` or `weight` is not
    /// `[out_features, in_features]`.
    pub fn forward_with_weight(&mut self, x: &Tensor, weight: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in] input");
        assert_eq!(x.shape()[1], self.in_features, "linear input size mismatch");
        self.check_weight(weight);
        let n = x.shape()[0];
        let mut out = Tensor::zeros(&[n, self.out_features]);
        gemm(
            false,
            true,
            n,
            self.out_features,
            self.in_features,
            x.data(),
            weight.data(),
            self.in_features,
            out.data_mut(),
            false,
        );
        let bd = self.bias.data();
        for row in out.data_mut().chunks_exact_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(bd.iter()) {
                *v += b;
            }
        }
        self.cached_input = Some(x.clone());
        out
    }

    /// Backward pass with an externally supplied effective weight tensor.
    ///
    /// `dW += dYᵀ · X` accumulates straight into `weight_grad` (no
    /// intermediate), `db` is the column sums of `dY`, and `dX = dY · W`.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass preceded this call, if `grad_out` is not
    /// `[N, out_features]` for the forward input's `N`, or if `weight` is
    /// not `[out_features, in_features]`.
    pub fn backward_with_weight(&mut self, grad_out: &Tensor, weight: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let (n, c) = (x.shape()[0], self.out_features);
        assert_eq!(grad_out.shape(), &[n, c], "linear gradient shape mismatch");
        self.check_weight(weight);
        gemm(
            true,
            false,
            self.out_features,
            self.in_features,
            n,
            grad_out.data(),
            x.data(),
            self.in_features,
            self.weight_grad.data_mut(),
            true,
        );
        {
            let bg = self.bias_grad.data_mut();
            for row in grad_out.data().chunks_exact(c) {
                for (b, &g) in bg.iter_mut().zip(row.iter()) {
                    *b += g;
                }
            }
        }
        let mut grad_in = Tensor::zeros(&[n, self.in_features]);
        gemm(
            false,
            false,
            n,
            self.in_features,
            self.out_features,
            grad_out.data(),
            weight.data(),
            self.in_features,
            grad_in.data_mut(),
            false,
        );
        grad_in
    }

    /// Reference forward pass: plain triple loop over `y = x Wᵀ + b`. Kept
    /// for the GEMM-equivalence tests; not used by the training stack.
    pub fn forward_naive_with_weight(&mut self, x: &Tensor, weight: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in] input");
        assert_eq!(x.shape()[1], self.in_features, "linear input size mismatch");
        self.check_weight(weight);
        let n = x.shape()[0];
        let (xd, wd, bd) = (x.data(), weight.data(), self.bias.data());
        let mut out = Tensor::zeros(&[n, self.out_features]);
        let od = out.data_mut();
        for i in 0..n {
            for o in 0..self.out_features {
                let mut acc = bd[o];
                for p in 0..self.in_features {
                    acc += xd[i * self.in_features + p] * wd[o * self.in_features + p];
                }
                od[i * self.out_features + o] = acc;
            }
        }
        self.cached_input = Some(x.clone());
        out
    }

    /// Reference backward pass mirroring
    /// [`Linear::forward_naive_with_weight`].
    ///
    /// # Panics
    ///
    /// Panics as [`Linear::backward_with_weight`] does.
    pub fn backward_naive_with_weight(&mut self, grad_out: &Tensor, weight: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let (n, c) = (x.shape()[0], self.out_features);
        assert_eq!(grad_out.shape(), &[n, c], "linear gradient shape mismatch");
        self.check_weight(weight);
        let (xd, wd, gd) = (x.data(), weight.data(), grad_out.data());
        {
            let wg = self.weight_grad.data_mut();
            let bg = self.bias_grad.data_mut();
            for i in 0..n {
                for o in 0..c {
                    let g = gd[i * c + o];
                    bg[o] += g;
                    for p in 0..self.in_features {
                        wg[o * self.in_features + p] += g * xd[i * self.in_features + p];
                    }
                }
            }
        }
        let mut grad_in = Tensor::zeros(&[n, self.in_features]);
        let gi = grad_in.data_mut();
        for i in 0..n {
            for o in 0..c {
                let g = gd[i * c + o];
                for p in 0..self.in_features {
                    gi[i * self.in_features + p] += g * wd[o * self.in_features + p];
                }
            }
        }
        grad_in
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let weight = self.weight.clone();
        self.forward_with_weight(x, &weight)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let weight = self.weight.clone();
        self.backward_with_weight(grad_out, &weight)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.weight, &mut self.weight_grad),
            (&mut self.bias, &mut self.bias_grad),
        ]
    }

    fn name(&self) -> &'static str {
        "linear"
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
    fn forward_matches_manual_computation() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut fc = Linear::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]);
        let y = fc.forward(&x, Mode::Eval);
        // Row 0: 1*1 + 0*2 + (-1)*3 + 0.5 = -1.5 ; Row 1: 4 - 6 - 0.5 = -2.5
        assert!(y.approx_eq(&Tensor::from_vec(vec![-1.5, -2.5], &[1, 2]), 1e-6));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut fc = Linear::new(6, 3, &mut rng);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        fc.zero_grad();
        let y = fc.forward(&x, Mode::Train);
        let gx = fc.backward(&y); // dL/dy = y  =>  L = 0.5 ||y||^2
        let eps = 1e-3;
        for idx in [0usize, 5, 13, 23] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = 0.5 * fc.forward(&xp, Mode::Train).sq_norm();
            let lm = 0.5 * fc.forward(&xm, Mode::Train).sq_norm();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2);
        }
        for idx in [0usize, 7, 17] {
            let orig = fc.weight.data()[idx];
            fc.weight.data_mut()[idx] = orig + eps;
            let lp = 0.5 * fc.forward(&x, Mode::Train).sq_norm();
            fc.weight.data_mut()[idx] = orig - eps;
            let lm = 0.5 * fc.forward(&x, Mode::Train).sq_norm();
            fc.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - fc.weight_grad.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut fc = Linear::new(2, 2, &mut rng);
        fc.zero_grad();
        let x = Tensor::ones(&[3, 2]);
        let _ = fc.forward(&x, Mode::Train);
        let _ = fc.backward(&Tensor::ones(&[3, 2]));
        assert!(fc
            .bias_grad
            .approx_eq(&Tensor::from_vec(vec![3.0, 3.0], &[2]), 1e-6));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut fc = Linear::new(10, 4, &mut rng);
        assert_eq!(fc.num_params(), 44);
    }

    #[test]
    #[should_panic(expected = "linear gradient shape mismatch")]
    fn backward_rejects_a_gradient_with_fewer_rows_than_the_input() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut fc = Linear::new(3, 2, &mut rng);
        let _ = fc.forward(&Tensor::ones(&[4, 3]), Mode::Train);
        let _ = fc.backward(&Tensor::ones(&[2, 2]));
    }

    #[test]
    #[should_panic(expected = "linear gradient shape mismatch")]
    fn naive_backward_rejects_a_gradient_with_fewer_rows_than_the_input() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut fc = Linear::new(3, 2, &mut rng);
        let weight = fc.weight.clone();
        let _ = fc.forward_naive_with_weight(&Tensor::ones(&[4, 3]), &weight);
        let _ = fc.backward_naive_with_weight(&Tensor::ones(&[2, 2]), &weight);
    }

    #[test]
    #[should_panic(expected = "linear weight shape mismatch")]
    fn forward_rejects_a_weight_of_the_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut fc = Linear::new(4, 3, &mut rng);
        // Same element count as the [3, 4] weight, transposed shape.
        let _ = fc.forward_with_weight(&Tensor::ones(&[2, 4]), &Tensor::ones(&[4, 3]));
    }

    #[test]
    #[should_panic(expected = "linear weight shape mismatch")]
    fn backward_rejects_a_weight_of_the_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut fc = Linear::new(4, 3, &mut rng);
        let _ = fc.forward(&Tensor::ones(&[2, 4]), Mode::Train);
        let _ = fc.backward_with_weight(&Tensor::ones(&[2, 3]), &Tensor::ones(&[4, 3]));
    }
}
