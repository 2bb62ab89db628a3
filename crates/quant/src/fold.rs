//! Batch-norm folding into the preceding convolution.

use pcount_nn::{BatchNorm2d, CnnConfig, Conv2d, Linear, MaxPool2d, Mode, Relu, Sequential};
use pcount_tensor::Tensor;
use std::fmt;

/// Error returned when a network does not have the expected
/// conv-bn-relu-pool-conv-bn-relu-flatten-fc-relu-fc layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldError {
    /// Description of the structural mismatch.
    pub message: String,
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot fold network: {}", self.message)
    }
}

impl std::error::Error for FoldError {}

/// Folds a batch-norm layer into the convolution that feeds it, producing a
/// convolution with adjusted weights and bias whose eval-mode output equals
/// `bn(conv(x))`.
pub fn fold_conv_bn(conv: &Conv2d, bn: &BatchNorm2d) -> Conv2d {
    assert_eq!(
        conv.out_channels, bn.channels,
        "conv/bn channel mismatch ({} vs {})",
        conv.out_channels, bn.channels
    );
    let k = conv.kernel;
    let per_channel = conv.in_channels * k * k;
    let mut weight = conv.weight.clone();
    let mut bias = conv.bias.clone();
    for c in 0..conv.out_channels {
        let std_inv = 1.0 / (bn.running_var.data()[c] + bn.eps).sqrt();
        let scale = bn.gamma.data()[c] * std_inv;
        for i in 0..per_channel {
            let idx = c * per_channel + i;
            weight.data_mut()[idx] *= scale;
        }
        bias.data_mut()[c] =
            (conv.bias.data()[c] - bn.running_mean.data()[c]) * scale + bn.beta.data()[c];
    }
    Conv2d::from_parts(weight, bias, conv.stride, conv.padding)
}

/// The people-counting CNN with batch-norm folded away: four parameterised
/// layers (two convolutions, two linear layers) plus the fixed ReLU /
/// max-pool / flatten structure.
#[derive(Debug, Clone)]
pub struct FoldedCnn {
    /// Architecture hyper-parameters of the folded network.
    pub config: CnnConfig,
    /// First convolution (batch-norm folded in).
    pub conv1: Conv2d,
    /// Second convolution (batch-norm folded in).
    pub conv2: Conv2d,
    /// Hidden linear layer.
    pub fc1: Linear,
    /// Output linear layer.
    pub fc2: Linear,
}

impl FoldedCnn {
    /// Evaluation-mode forward pass (float reference).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        use pcount_nn::Layer;
        let mut relu = Relu::new();
        let mut pool = MaxPool2d::new(2, 2);
        let x = self.conv1.forward(x, Mode::Eval);
        let x = relu.forward(&x, Mode::Eval);
        let x = pool.forward(&x, Mode::Eval);
        let x = self.conv2.forward(&x, Mode::Eval);
        let x = relu.forward(&x, Mode::Eval);
        let n = x.shape()[0];
        let flat: usize = x.shape()[1..].iter().product();
        let x = x.reshape(&[n, flat]);
        let x = self.fc1.forward(&x, Mode::Eval);
        let x = relu.forward(&x, Mode::Eval);
        self.fc2.forward(&x, Mode::Eval)
    }

    /// Predicted class per sample.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }
}

/// Folds the batch-norm layers of a network built by
/// [`CnnConfig::build`] (or extracted by the NAS) into its convolutions.
///
/// # Errors
///
/// Returns [`FoldError`] if the network does not have the expected
/// 11-layer structure.
pub fn fold_sequential(config: CnnConfig, net: &Sequential) -> Result<FoldedCnn, FoldError> {
    let layers = net.layers();
    if layers.len() != 11 {
        return Err(FoldError {
            message: format!("expected 11 layers, found {}", layers.len()),
        });
    }
    let conv1 = downcast::<Conv2d>(layers[0].as_ref().as_any(), "layer 0 (conv1)")?;
    let bn1 = downcast::<BatchNorm2d>(layers[1].as_ref().as_any(), "layer 1 (bn1)")?;
    let conv2 = downcast::<Conv2d>(layers[4].as_ref().as_any(), "layer 4 (conv2)")?;
    let bn2 = downcast::<BatchNorm2d>(layers[5].as_ref().as_any(), "layer 5 (bn2)")?;
    let fc1 = downcast::<Linear>(layers[8].as_ref().as_any(), "layer 8 (fc1)")?;
    let fc2 = downcast::<Linear>(layers[10].as_ref().as_any(), "layer 10 (fc2)")?;
    Ok(FoldedCnn {
        config,
        conv1: fold_conv_bn(conv1, bn1),
        conv2: fold_conv_bn(conv2, bn2),
        fc1: Linear::from_parts(fc1.weight.clone(), fc1.bias.clone()),
        fc2: Linear::from_parts(fc2.weight.clone(), fc2.bias.clone()),
    })
}

fn downcast<'a, T: 'static>(layer: &'a dyn std::any::Any, what: &str) -> Result<&'a T, FoldError> {
    layer.downcast_ref::<T>().ok_or_else(|| FoldError {
        message: format!("{what} has an unexpected type"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcount_nn::{Layer, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn folded_conv_matches_conv_then_bn_in_eval_mode() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        // Give the batch-norm non-trivial statistics and affine parameters.
        bn.running_mean = Tensor::from_vec(vec![0.3, -0.1, 0.5], &[3]);
        bn.running_var = Tensor::from_vec(vec![1.5, 0.8, 2.0], &[3]);
        bn.gamma = Tensor::from_vec(vec![1.2, 0.7, -0.4], &[3]);
        bn.beta = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        let expected = bn.forward(&conv.forward(&x, Mode::Eval), Mode::Eval);
        let mut folded = fold_conv_bn(&conv, &bn);
        let got = folded.forward(&x, Mode::Eval);
        assert!(expected.approx_eq(&got, 1e-4));
    }

    #[test]
    fn fold_sequential_preserves_eval_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = CnnConfig::seed().with_channels(4, 4, 8);
        let mut net = cfg.build(&mut rng);
        // Run a couple of train-mode passes so running stats are non-trivial.
        let warm = Tensor::randn(&[8, 1, 8, 8], 1.0, &mut rng);
        for _ in 0..3 {
            let _ = net.forward(&warm, Mode::Train);
        }
        let x = Tensor::randn(&[5, 1, 8, 8], 1.0, &mut rng);
        let expected = net.forward(&x, Mode::Eval);
        let mut folded = fold_sequential(cfg, &net).expect("fold");
        let got = folded.forward(&x);
        assert!(
            expected.approx_eq(&got, 1e-3),
            "folded network must match the original in eval mode"
        );
    }

    #[test]
    fn fold_sequential_rejects_wrong_structure() {
        let net = Sequential::new(vec![Box::new(Relu::new())]);
        let err = fold_sequential(CnnConfig::seed(), &net).unwrap_err();
        assert!(err.to_string().contains("expected 11 layers"));
    }
}
