//! The DNAS search run and sub-network extraction.

use crate::cost::{CostTarget, MaskedCost};
use crate::model::PitModel;
use pcount_nn::{
    fit, BatchNorm2d, CnnConfig, Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential, TrainConfig,
};
use pcount_tensor::Tensor;
use rand::Rng;

/// Hyper-parameters of one DNAS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NasConfig {
    /// Strength of the cost regulariser (`λ` in the paper).
    pub lambda: f64,
    /// Which hardware cost the regulariser models.
    pub cost_target: CostTarget,
    /// Total search epochs.
    pub epochs: usize,
    /// Epochs at the start during which only the task loss is optimised
    /// (lets the weights settle before pruning pressure is applied).
    pub warmup_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (shared by weights and mask parameters).
    pub learning_rate: f32,
}

impl Default for NasConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            cost_target: CostTarget::Params,
            epochs: 16,
            warmup_epochs: 2,
            batch_size: 128,
            learning_rate: 1e-3,
        }
    }
}

/// Result of one DNAS run: the discovered architecture plus an extracted,
/// weight-copied sub-network ready for fine-tuning.
pub struct SearchOutcome {
    /// The discovered architecture.
    pub config: CnnConfig,
    /// Mean task loss after every epoch.
    pub loss_history: Vec<f32>,
    /// The extracted sub-network with weights copied from the search model.
    pub network: Sequential,
}

impl std::fmt::Debug for SearchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchOutcome")
            .field("config", &self.config)
            .finish()
    }
}

/// Runs one PIT search on the given training data and extracts the result.
///
/// The weights and masks train in [`fit`] without weight decay; from
/// epoch `warmup_epochs` on, every batch adds the cost gradient
/// `λ · dC/dθ` to the mask gradients before the Adam step.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the number of samples or if there
/// are none.
pub fn search<R: Rng>(
    seed: CnnConfig,
    x: &Tensor,
    y: &[usize],
    cfg: &NasConfig,
    rng: &mut R,
) -> SearchOutcome {
    let mut model = PitModel::new(seed, rng);
    let cost = MaskedCost::new(seed, cfg.cost_target);
    let train = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        learning_rate: cfg.learning_rate,
        weight_decay: 0.0,
    };
    let loss_history = fit(&mut model, x, y, &train, rng, |model, epoch| {
        if epoch >= cfg.warmup_epochs {
            model.apply_cost_gradient(cfg.lambda, &cost);
        }
    });
    let (config, network) = extract_subnetwork(&model);
    SearchOutcome {
        config,
        loss_history,
        network,
    }
}

/// Extracts the sub-network currently selected by the masks of `model`,
/// copying (slicing) weights, biases and batch-norm statistics so the
/// result can be fine-tuned instead of retrained from scratch.
pub fn extract_subnetwork(model: &PitModel) -> (CnnConfig, Sequential) {
    let seed = model.seed_config();
    let [m1, m2, m3] = model.masks();
    let alive1 = m1.alive_indices();
    let alive2 = m2.alive_indices();
    let alive3 = m3.alive_indices();
    let cfg = seed.with_channels(alive1.len(), alive2.len(), alive3.len());
    let (conv1, bn1, conv2, bn2, fc1, fc2) = model.layers();
    let pooled = seed.pooled_size() * seed.pooled_size();

    // conv1: select output channels.
    let new_conv1 = Conv2d::from_parts(
        slice_conv_weight(&conv1.weight, &alive1, None),
        slice_vector(&conv1.bias, &alive1),
        1,
        1,
    );
    let new_bn1 = slice_batchnorm(bn1, &alive1);
    // conv2: select output channels and input channels.
    let new_conv2 = Conv2d::from_parts(
        slice_conv_weight(&conv2.weight, &alive2, Some(&alive1)),
        slice_vector(&conv2.bias, &alive2),
        1,
        1,
    );
    let new_bn2 = slice_batchnorm(bn2, &alive2);
    // fc1: select output features and the input features produced by alive
    // conv2 channels (each channel contributes `pooled` flattened inputs).
    let in_features: Vec<usize> = alive2
        .iter()
        .flat_map(|&c| (0..pooled).map(move |p| c * pooled + p))
        .collect();
    let new_fc1 = Linear::from_parts(
        slice_linear_weight(&fc1.weight, &alive3, &in_features),
        slice_vector(&fc1.bias, &alive3),
    );
    // fc2: keep all outputs, select input features.
    let all_out: Vec<usize> = (0..seed.num_classes).collect();
    let new_fc2 = Linear::from_parts(
        slice_linear_weight(&fc2.weight, &all_out, &alive3),
        fc2.bias.clone(),
    );

    let network = Sequential::new(vec![
        Box::new(new_conv1),
        Box::new(new_bn1),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(new_conv2),
        Box::new(new_bn2),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(new_fc1),
        Box::new(Relu::new()),
        Box::new(new_fc2),
    ]);
    (cfg, network)
}

fn slice_vector(v: &Tensor, indices: &[usize]) -> Tensor {
    let data: Vec<f32> = indices.iter().map(|&i| v.data()[i]).collect();
    Tensor::from_vec(data, &[indices.len()])
}

fn slice_conv_weight(w: &Tensor, out_idx: &[usize], in_idx: Option<&[usize]>) -> Tensor {
    let shape = w.shape();
    let (out_c, in_c, k) = (shape[0], shape[1], shape[2]);
    let all_in: Vec<usize> = (0..in_c).collect();
    let in_idx = in_idx.unwrap_or(&all_in);
    let mut data = Vec::with_capacity(out_idx.len() * in_idx.len() * k * k);
    for &co in out_idx {
        assert!(co < out_c, "output channel {co} out of bounds");
        for &ci in in_idx {
            assert!(ci < in_c, "input channel {ci} out of bounds");
            let base = (co * in_c + ci) * k * k;
            data.extend_from_slice(&w.data()[base..base + k * k]);
        }
    }
    Tensor::from_vec(data, &[out_idx.len(), in_idx.len(), k, k])
}

fn slice_linear_weight(w: &Tensor, out_idx: &[usize], in_idx: &[usize]) -> Tensor {
    let shape = w.shape();
    let (out_f, in_f) = (shape[0], shape[1]);
    let mut data = Vec::with_capacity(out_idx.len() * in_idx.len());
    for &o in out_idx {
        assert!(o < out_f, "output feature {o} out of bounds");
        for &i in in_idx {
            assert!(i < in_f, "input feature {i} out of bounds");
            data.push(w.data()[o * in_f + i]);
        }
    }
    Tensor::from_vec(data, &[out_idx.len(), in_idx.len()])
}

fn slice_batchnorm(bn: &BatchNorm2d, indices: &[usize]) -> BatchNorm2d {
    let mut out = BatchNorm2d::new(indices.len());
    out.gamma = slice_vector(&bn.gamma, indices);
    out.beta = slice_vector(&bn.beta, indices);
    out.running_mean = slice_vector(&bn.running_mean, indices);
    out.running_var = slice_vector(&bn.running_var, indices);
    out.momentum = bn.momentum;
    out.eps = bn.eps;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcount_nn::{evaluate, Mode, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic quadrant dataset: label = quadrant of the hottest blob.
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
            for h in 0..8 {
                for w in 0..8 {
                    let v = x.at(&[i, 0, h, w]) + rng.gen_range(-0.3..0.3);
                    x.set(&[i, 0, h, w], v);
                }
            }
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn extraction_without_pruning_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PitModel::new(CnnConfig::seed().with_channels(4, 4, 8), &mut rng);
        let x = Tensor::randn(&[3, 1, 8, 8], 1.0, &mut rng);
        let expected = model.forward(&x, Mode::Eval);
        let (cfg, mut net) = extract_subnetwork(&model);
        assert_eq!(cfg.conv1_out, 4);
        let got = net.forward(&x, Mode::Eval);
        assert!(
            expected.approx_eq(&got, 1e-4),
            "extracted full network must reproduce the masked model"
        );
    }

    #[test]
    fn extraction_with_pruning_matches_masked_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = PitModel::new(CnnConfig::seed().with_channels(6, 5, 10), &mut rng);
        // Prune an assortment of channels across the three masks.
        let [m1, m2, m3] = [0usize, 1, 2];
        let _ = (m1, m2, m3);
        {
            let pg = model.params_and_grads();
            let n = pg.len();
            let _ = n;
        }
        // Use direct mask access through forward/backward-free manipulation.
        let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
        // Disable channels by driving theta negative through the public API:
        // run apply-cost style manual edit via params_and_grads ordering
        // (last three entries are the masks).
        {
            let mut pg = model.params_and_grads();
            let len = pg.len();
            // mask1 theta: disable channel 0 and 3.
            pg[len - 3].0.data_mut()[0] = -1.0;
            pg[len - 3].0.data_mut()[3] = -1.0;
            // mask2 theta: disable channel 2.
            pg[len - 2].0.data_mut()[2] = -1.0;
            // mask3 theta: disable features 1, 4, 7.
            pg[len - 1].0.data_mut()[1] = -1.0;
            pg[len - 1].0.data_mut()[4] = -1.0;
            pg[len - 1].0.data_mut()[7] = -1.0;
        }
        let expected = model.forward(&x, Mode::Eval);
        let (cfg, mut net) = extract_subnetwork(&model);
        assert_eq!(cfg.conv1_out, 4);
        assert_eq!(cfg.conv2_out, 4);
        assert_eq!(cfg.fc1_out, 7);
        let got = net.forward(&x, Mode::Eval);
        assert!(
            expected.approx_eq(&got, 1e-4),
            "pruned extraction must match the masked model output"
        );
    }

    #[test]
    fn high_lambda_prunes_more_than_low_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = toy_dataset(160, &mut rng);
        let seed = CnnConfig::seed().with_channels(8, 8, 16);
        let base = NasConfig {
            epochs: 6,
            warmup_epochs: 1,
            batch_size: 32,
            learning_rate: 3e-3,
            ..NasConfig::default()
        };
        let low = search(
            seed,
            &x,
            &y,
            &NasConfig {
                lambda: 0.0,
                ..base
            },
            &mut rng,
        );
        let high = search(
            seed,
            &x,
            &y,
            &NasConfig {
                lambda: 4.0,
                ..base
            },
            &mut rng,
        );
        assert!(
            high.config.num_params() < low.config.num_params(),
            "λ=4 should prune more aggressively ({} vs {})",
            high.config.num_params(),
            low.config.num_params()
        );
    }

    #[test]
    fn searched_network_still_classifies_toy_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let (x, y) = toy_dataset(200, &mut rng);
        let seed = CnnConfig::seed().with_channels(8, 8, 16);
        let cfg = NasConfig {
            lambda: 0.8,
            epochs: 10,
            warmup_epochs: 2,
            batch_size: 32,
            learning_rate: 3e-3,
            ..NasConfig::default()
        };
        let mut outcome = search(seed, &x, &y, &cfg, &mut rng);
        let bas = evaluate(&mut outcome.network, &x, &y, 4);
        assert!(
            bas > 0.6,
            "extracted network should retain most accuracy, got {bas}"
        );
    }

    #[test]
    fn lambda_is_inert_until_the_warmup_ends() {
        let (x, y) = toy_dataset(80, &mut StdRng::seed_from_u64(4));
        let seed = CnnConfig::seed().with_channels(4, 4, 8);
        let run = |lambda, warmup_epochs| {
            let cfg = NasConfig {
                lambda,
                epochs: 3,
                warmup_epochs,
                batch_size: 32,
                learning_rate: 1e-2,
                ..NasConfig::default()
            };
            search(seed, &x, &y, &cfg, &mut StdRng::seed_from_u64(5))
        };
        let weights = |outcome: &mut SearchOutcome| -> Vec<Vec<f32>> {
            let params = outcome.network.params_and_grads();
            params.into_iter().map(|(p, _)| p.data().to_vec()).collect()
        };
        // With the warmup covering every epoch the cost gradient never
        // reaches the masks, so λ changes nothing.
        let mut low = run(0.0, 3);
        let mut high = run(100.0, 3);
        assert_eq!(low.config, high.config);
        assert_eq!(low.loss_history, high.loss_history);
        assert_eq!(weights(&mut low), weights(&mut high));
        // Without a warmup the same λ prunes.
        let pruned = run(100.0, 0);
        assert!(pruned.config.num_params() < low.config.num_params());
    }
}
