//! The seed CNN architecture from the paper and its cost model.

use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::layer::{Flatten, MaxPool2d, Relu, Sequential};
use crate::linear::Linear;
use rand::Rng;

/// Dimensions of one parameterised layer (convolution or linear) of the
/// people-counting CNN, used by the NAS cost model, the quantizer and the
/// platform memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerDims {
    /// Input channels/features.
    pub in_features: usize,
    /// Output channels/features.
    pub out_features: usize,
    /// Square kernel size (1 for linear layers).
    pub kernel: usize,
    /// Number of output spatial positions (H*W; 1 for linear layers).
    pub output_positions: usize,
}

impl LayerDims {
    /// Number of weights (excluding bias).
    pub fn weight_count(&self) -> usize {
        self.out_features * self.in_features * self.kernel * self.kernel
    }

    /// Number of parameters including bias.
    pub fn param_count(&self) -> usize {
        self.weight_count() + self.out_features
    }

    /// Number of multiply-accumulate operations per inference.
    pub fn macs(&self) -> usize {
        self.weight_count() * self.output_positions
    }
}

/// Hyper-parameters of the people-counting CNN.
///
/// The seed configuration ([`CnnConfig::seed`]) reproduces the largest model
/// of Xie et al. that the paper uses as the DNAS starting point: two 3x3
/// convolutions with 64 channels separated by a 2x2 max-pool, followed by a
/// 64-unit hidden linear layer and a 4-class output layer, on 8x8
/// single-channel inputs.
///
/// # Example
///
/// ```
/// let cfg = pcount_nn::CnnConfig::seed();
/// assert_eq!(cfg.conv1_out, 64);
/// assert!(cfg.num_params() > 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnnConfig {
    /// Input channels (1 for a single IR frame).
    pub input_channels: usize,
    /// Input spatial size (8 for the 8x8 LINAIGE frames).
    pub input_size: usize,
    /// Output channels of the first convolution.
    pub conv1_out: usize,
    /// Output channels of the second convolution.
    pub conv2_out: usize,
    /// Hidden units of the first linear layer.
    pub fc1_out: usize,
    /// Number of classes (people counts 0..=3 -> 4).
    pub num_classes: usize,
}

impl CnnConfig {
    /// The seed architecture used by the paper's DNAS.
    pub fn seed() -> Self {
        Self {
            input_channels: 1,
            input_size: 8,
            conv1_out: 64,
            conv2_out: 64,
            fc1_out: 64,
            num_classes: 4,
        }
    }

    /// Returns a copy with different channel/feature counts, keeping the
    /// input geometry and class count.
    pub fn with_channels(self, conv1_out: usize, conv2_out: usize, fc1_out: usize) -> Self {
        Self {
            conv1_out,
            conv2_out,
            fc1_out,
            ..self
        }
    }

    /// Spatial size after the max-pool (input of the second convolution).
    pub fn pooled_size(&self) -> usize {
        self.input_size / 2
    }

    /// Flattened feature count entering the first linear layer.
    pub fn flatten_features(&self) -> usize {
        self.conv2_out * self.pooled_size() * self.pooled_size()
    }

    /// Dimensions of the four parameterised layers in network order:
    /// conv1, conv2, fc1, fc2.
    pub fn layer_dims(&self) -> Vec<LayerDims> {
        let p = self.pooled_size();
        vec![
            LayerDims {
                in_features: self.input_channels,
                out_features: self.conv1_out,
                kernel: 3,
                output_positions: self.input_size * self.input_size,
            },
            LayerDims {
                in_features: self.conv1_out,
                out_features: self.conv2_out,
                kernel: 3,
                output_positions: p * p,
            },
            LayerDims {
                in_features: self.flatten_features(),
                out_features: self.fc1_out,
                kernel: 1,
                output_positions: 1,
            },
            LayerDims {
                in_features: self.fc1_out,
                out_features: self.num_classes,
                kernel: 1,
                output_positions: 1,
            },
        ]
    }

    /// Total parameters of the conv/linear layers (bias included,
    /// batch-norm excluded since it is folded before deployment).
    pub fn num_params(&self) -> usize {
        self.layer_dims().iter().map(LayerDims::param_count).sum()
    }

    /// Total multiply-accumulate operations per inference.
    pub fn macs(&self) -> usize {
        self.layer_dims().iter().map(LayerDims::macs).sum()
    }

    /// Model size in bytes at a uniform floating-point precision (32-bit).
    pub fn memory_bytes_fp32(&self) -> usize {
        self.num_params() * 4
    }

    /// Builds the trainable network:
    /// `conv-bn-relu-pool-conv-bn-relu-flatten-fc-relu-fc`.
    pub fn build<R: Rng>(&self, rng: &mut R) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(
                self.input_channels,
                self.conv1_out,
                3,
                1,
                1,
                rng,
            )),
            Box::new(BatchNorm2d::new(self.conv1_out)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(self.conv1_out, self.conv2_out, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(self.conv2_out)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(self.flatten_features(), self.fc1_out, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(self.fc1_out, self.num_classes, rng)),
        ])
    }
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self::seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Mode, Network};
    use pcount_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seed_matches_paper_architecture() {
        let cfg = CnnConfig::seed();
        let dims = cfg.layer_dims();
        assert_eq!(dims.len(), 4);
        assert_eq!(dims[0].out_features, 64);
        assert_eq!(dims[1].in_features, 64);
        assert_eq!(dims[2].in_features, 64 * 4 * 4);
        assert_eq!(dims[3].out_features, 4);
    }

    #[test]
    fn seed_param_and_mac_counts_are_consistent() {
        let cfg = CnnConfig::seed();
        // conv1: 64*9+64, conv2: 64*64*9+64, fc1: 64*1024+64, fc2: 4*64+4
        let expected_params = (64 * 9 + 64) + (64 * 64 * 9 + 64) + (64 * 1024 + 64) + (4 * 64 + 4);
        assert_eq!(cfg.num_params(), expected_params);
        let expected_macs = 64 * 9 * 64 + 64 * 64 * 9 * 16 + 64 * 1024 + 4 * 64;
        assert_eq!(cfg.macs(), expected_macs);
        assert_eq!(cfg.memory_bytes_fp32(), expected_params * 4);
    }

    #[test]
    fn smaller_config_has_fewer_params() {
        let seed = CnnConfig::seed();
        let small = seed.with_channels(8, 8, 16);
        assert!(small.num_params() < seed.num_params() / 10);
        assert!(small.macs() < seed.macs() / 10);
    }

    #[test]
    fn built_network_produces_class_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CnnConfig::seed().with_channels(4, 4, 8);
        let mut net = cfg.build(&mut rng);
        let x = Tensor::zeros(&[3, 1, 8, 8]);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 4]);
    }

    #[test]
    fn network_param_count_matches_config_plus_batchnorm() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CnnConfig::seed().with_channels(8, 8, 16);
        let mut net = cfg.build(&mut rng);
        let bn_params = 2 * 8 + 2 * 8;
        assert_eq!(net.num_params(), cfg.num_params() + bn_params);
    }
}
