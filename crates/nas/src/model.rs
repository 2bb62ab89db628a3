//! The masked seed network trained during the search.

use crate::cost::MaskedCost;
use crate::mask::ChannelMask;
use pcount_nn::{
    BatchNorm2d, CnnConfig, Conv2d, Flatten, Layer, Linear, MaxPool2d, Mode, Network, Relu,
};
use pcount_tensor::Tensor;
use rand::Rng;

/// The seed CNN augmented with PIT channel masks on conv1, conv2 and fc1.
///
/// The output layer is never masked (its width equals the number of
/// classes). Masks multiply the post-activation feature maps, which is
/// functionally equivalent to pruning the corresponding output channels
/// (weights, bias and batch-norm terms) of the producing layer.
pub struct PitModel {
    cfg: CnnConfig,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    mask1: ChannelMask,
    pool: MaxPool2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu2: Relu,
    mask2: ChannelMask,
    flatten: Flatten,
    fc1: Linear,
    relu3: Relu,
    mask3: ChannelMask,
    fc2: Linear,
}

impl PitModel {
    /// Creates a masked copy of the seed configuration with fresh weights.
    pub fn new<R: Rng>(cfg: CnnConfig, rng: &mut R) -> Self {
        Self {
            cfg,
            conv1: Conv2d::new(cfg.input_channels, cfg.conv1_out, 3, 1, 1, rng),
            bn1: BatchNorm2d::new(cfg.conv1_out),
            relu1: Relu::new(),
            mask1: ChannelMask::new(cfg.conv1_out),
            pool: MaxPool2d::new(2, 2),
            conv2: Conv2d::new(cfg.conv1_out, cfg.conv2_out, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(cfg.conv2_out),
            relu2: Relu::new(),
            mask2: ChannelMask::new(cfg.conv2_out),
            flatten: Flatten::new(),
            fc1: Linear::new(cfg.flatten_features(), cfg.fc1_out, rng),
            relu3: Relu::new(),
            mask3: ChannelMask::new(cfg.fc1_out),
            fc2: Linear::new(cfg.fc1_out, cfg.num_classes, rng),
        }
    }

    /// The seed configuration this model was built from.
    pub fn seed_config(&self) -> CnnConfig {
        self.cfg
    }

    /// The three channel masks in network order (conv1, conv2, fc1).
    pub fn masks(&self) -> [&ChannelMask; 3] {
        [&self.mask1, &self.mask2, &self.mask3]
    }

    /// Adds `λ · dC/dθ` to the mask gradients (the cost half of the PIT
    /// objective `L + λ·C`).
    pub fn apply_cost_gradient(&mut self, lambda: f64, cost: &MaskedCost) {
        let g = cost.cost_grad(&self.mask1, &self.mask2, &self.mask3);
        for (mask, grad) in [
            (&mut self.mask1, g[0]),
            (&mut self.mask2, g[1]),
            (&mut self.mask3, g[2]),
        ] {
            let delta = (lambda * grad) as f32;
            for v in mask.theta_grad.data_mut() {
                *v += delta;
            }
        }
    }

    /// The architecture currently selected by the masks.
    pub fn alive_config(&self) -> CnnConfig {
        self.cfg.with_channels(
            self.mask1.alive_count(),
            self.mask2.alive_count(),
            self.mask3.alive_count(),
        )
    }

    /// Borrow of the layer weights needed for sub-network extraction:
    /// `(conv1, bn1, conv2, bn2, fc1, fc2)`.
    pub fn layers(
        &self,
    ) -> (
        &Conv2d,
        &BatchNorm2d,
        &Conv2d,
        &BatchNorm2d,
        &Linear,
        &Linear,
    ) {
        (
            &self.conv1,
            &self.bn1,
            &self.conv2,
            &self.bn2,
            &self.fc1,
            &self.fc2,
        )
    }
}

impl Network for PitModel {
    /// Forward pass; `mode` controls batch-norm behaviour.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let x = self.conv1.forward(x, mode);
        let x = self.bn1.forward(&x, mode);
        let x = self.relu1.forward(&x, mode);
        let x = self.mask1.forward(&x);
        let x = self.pool.forward(&x, mode);
        let x = self.conv2.forward(&x, mode);
        let x = self.bn2.forward(&x, mode);
        let x = self.relu2.forward(&x, mode);
        let x = self.mask2.forward(&x);
        let x = self.flatten.forward(&x, mode);
        let x = self.fc1.forward(&x, mode);
        let x = self.relu3.forward(&x, mode);
        let x = self.mask3.forward(&x);
        self.fc2.forward(&x, mode)
    }

    /// Backward pass mirroring the forward pass.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.fc2.backward(grad_out);
        let g = self.mask3.backward(&g);
        let g = self.relu3.backward(&g);
        let g = self.fc1.backward(&g);
        let g = self.flatten.backward(&g);
        let g = self.mask2.backward(&g);
        let g = self.relu2.backward(&g);
        let g = self.bn2.backward(&g);
        let g = self.conv2.backward(&g);
        let g = self.pool.backward(&g);
        let g = self.mask1.backward(&g);
        let g = self.relu1.backward(&g);
        let g = self.bn1.backward(&g);
        self.conv1.backward(&g)
    }

    /// Resets all weight, batch-norm and mask gradients.
    fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.bn1.zero_grad();
        self.conv2.zero_grad();
        self.bn2.zero_grad();
        self.fc1.zero_grad();
        self.fc2.zero_grad();
        self.mask1.zero_grad();
        self.mask2.zero_grad();
        self.mask3.zero_grad();
    }

    /// All `(parameter, gradient)` pairs, weights first, then batch-norm,
    /// then the three mask parameter vectors. The order is stable so a
    /// single optimiser can update everything.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        let mut out = Vec::new();
        out.extend(self.conv1.params_and_grads());
        out.extend(self.bn1.params_and_grads());
        out.extend(self.conv2.params_and_grads());
        out.extend(self.bn2.params_and_grads());
        out.extend(self.fc1.params_and_grads());
        out.extend(self.fc2.params_and_grads());
        out.push((&mut self.mask1.theta, &mut self.mask1.theta_grad));
        out.push((&mut self.mask2.theta, &mut self.mask2.theta_grad));
        out.push((&mut self.mask3.theta, &mut self.mask3.theta_grad));
        out
    }
}

impl std::fmt::Debug for PitModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PitModel")
            .field("seed", &self.cfg)
            .field("alive", &self.alive_config())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(rng: &mut StdRng) -> PitModel {
        PitModel::new(CnnConfig::seed().with_channels(4, 4, 8), rng)
    }

    #[test]
    fn forward_produces_class_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = tiny_model(&mut rng);
        let y = model.forward(&Tensor::zeros(&[2, 1, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 4]);
    }

    #[test]
    fn masked_channels_do_not_affect_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = tiny_model(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 1.0, &mut rng);
        let y_full = model.forward(&x, Mode::Eval);
        // Disable half of conv1's channels and verify outputs change, then
        // verify the masked forward equals a forward where those channels'
        // contribution is removed (weights zeroed downstream is implicit).
        model.mask1.theta.data_mut()[0] = -1.0;
        model.mask1.theta.data_mut()[1] = -1.0;
        let y_masked = model.forward(&x, Mode::Eval);
        assert!(!y_full.approx_eq(&y_masked, 1e-6));
    }

    #[test]
    fn gradients_flow_to_masks_and_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = tiny_model(&mut rng);
        let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
        model.zero_grad();
        let y = model.forward(&x, Mode::Train);
        let _ = model.backward(&y);
        assert!(model.mask1.theta_grad.data().iter().any(|&g| g != 0.0));
        assert!(model.conv1.weight_grad.data().iter().any(|&g| g != 0.0));
        assert!(model.fc2.weight_grad.data().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn cost_gradient_pushes_thetas_down() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = tiny_model(&mut rng);
        let cost = MaskedCost::new(model.seed_config(), CostTarget::Params);
        model.zero_grad();
        model.apply_cost_gradient(1.0, &cost);
        // A pure cost gradient is positive for all thetas (pushes them down
        // once the optimiser subtracts it).
        assert!(model.mask1.theta_grad.data().iter().all(|&g| g > 0.0));
        assert!(model.mask3.theta_grad.data().iter().all(|&g| g > 0.0));
    }

    #[test]
    fn alive_config_tracks_masks() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = tiny_model(&mut rng);
        model.mask2.theta.data_mut()[0] = -1.0;
        let cfg = model.alive_config();
        assert_eq!(cfg.conv1_out, 4);
        assert_eq!(cfg.conv2_out, 3);
        assert_eq!(cfg.fc1_out, 8);
    }

    #[test]
    fn params_and_grads_contains_masks() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = tiny_model(&mut rng);
        // conv(2) + bn(2) + conv(2) + bn(2) + fc(2) + fc(2) + 3 masks = 15
        assert_eq!(model.params_and_grads().len(), 15);
    }
}
