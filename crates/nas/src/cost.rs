//! Differentiable hardware-cost models for the masked seed network.

use crate::mask::ChannelMask;
use pcount_nn::CnnConfig;

/// Which hardware-cost proxy the regulariser `C(θ)` models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostTarget {
    /// Number of parameters: a proxy for model memory footprint.
    Params,
    /// Number of multiply-accumulate operations: a proxy for energy/latency.
    Macs,
}

/// Differentiable cost of the masked seed network.
///
/// The cost is a function of the number of alive channels of the three
/// masked layers (conv1, conv2, fc1); the output layer is never masked.
/// Costs are normalised by the seed cost so that the strength `λ`
/// has a comparable meaning across the `Params` and `Macs` targets.
#[derive(Debug, Clone, Copy)]
pub struct MaskedCost {
    cfg: CnnConfig,
    target: CostTarget,
}

impl MaskedCost {
    /// Creates a cost model for the given seed configuration and target.
    pub fn new(cfg: CnnConfig, target: CostTarget) -> Self {
        Self { cfg, target }
    }

    /// Absolute (unnormalised) cost for the given alive channel counts.
    pub fn absolute_cost(&self, alive1: f64, alive2: f64, alive3: f64) -> f64 {
        let cin = self.cfg.input_channels as f64;
        let classes = self.cfg.num_classes as f64;
        let pos1 = (self.cfg.input_size * self.cfg.input_size) as f64;
        let pooled = self.cfg.pooled_size();
        let pos2 = (pooled * pooled) as f64;
        match self.target {
            CostTarget::Params => {
                alive1 * (cin * 9.0 + 1.0)
                    + alive2 * (alive1 * 9.0 + 1.0)
                    + alive3 * (alive2 * pos2 + 1.0)
                    + classes * (alive3 + 1.0)
            }
            CostTarget::Macs => {
                alive1 * cin * 9.0 * pos1
                    + alive2 * alive1 * 9.0 * pos2
                    + alive3 * alive2 * pos2
                    + classes * alive3
            }
        }
    }

    /// Absolute cost of the full (unmasked) seed network.
    pub fn seed_cost(&self) -> f64 {
        self.absolute_cost(
            self.cfg.conv1_out as f64,
            self.cfg.conv2_out as f64,
            self.cfg.fc1_out as f64,
        )
    }

    /// Gradient of the normalised cost w.r.t. each mask's `θ` (one value per
    /// mask, identical for all channels under the straight-through
    /// estimator `dH/dθ ≈ 1`).
    pub fn cost_grad(&self, m1: &ChannelMask, m2: &ChannelMask, m3: &ChannelMask) -> [f64; 3] {
        let a1 = m1.alive_count() as f64;
        let a2 = m2.alive_count() as f64;
        let a3 = m3.alive_count() as f64;
        let cin = self.cfg.input_channels as f64;
        let classes = self.cfg.num_classes as f64;
        let pos1 = (self.cfg.input_size * self.cfg.input_size) as f64;
        let pooled = self.cfg.pooled_size();
        let pos2 = (pooled * pooled) as f64;
        let seed = self.seed_cost();
        let raw = match self.target {
            CostTarget::Params => [
                (cin * 9.0 + 1.0) + a2 * 9.0,
                (a1 * 9.0 + 1.0) + a3 * pos2,
                (a2 * pos2 + 1.0) + classes,
            ],
            CostTarget::Macs => [
                cin * 9.0 * pos1 + a2 * 9.0 * pos2,
                a1 * 9.0 * pos2 + a3 * pos2,
                a2 * pos2 + classes,
            ],
        };
        [raw[0] / seed, raw[1] / seed, raw[2] / seed]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_with_alive(total: usize, alive: usize) -> ChannelMask {
        let mut m = ChannelMask::new(total);
        for c in 0..total {
            m.theta.data_mut()[c] = if c < alive { 0.5 } else { -0.5 };
        }
        m
    }

    #[test]
    fn seed_cost_matches_config_param_count() {
        let cfg = CnnConfig::seed();
        let cost = MaskedCost::new(cfg, CostTarget::Params);
        assert_eq!(cost.seed_cost() as usize, cfg.num_params());
        let cost = MaskedCost::new(cfg, CostTarget::Macs);
        assert_eq!(cost.seed_cost() as usize, cfg.macs());
    }

    #[test]
    fn pruning_channels_reduces_cost_monotonically() {
        let cfg = CnnConfig::seed();
        for target in [CostTarget::Params, CostTarget::Macs] {
            let cost = MaskedCost::new(cfg, target);
            let mut prev = f64::INFINITY;
            for alive in (8..=64).rev().step_by(8) {
                let c = cost.absolute_cost(alive as f64, alive as f64, 32.0);
                assert!(c < prev, "cost should strictly decrease");
                prev = c;
            }
        }
    }

    #[test]
    fn cost_grad_matches_finite_difference_of_alive_counts() {
        let cfg = CnnConfig::seed();
        for target in [CostTarget::Params, CostTarget::Macs] {
            let cost = MaskedCost::new(cfg, target);
            let m1 = mask_with_alive(cfg.conv1_out, 20);
            let m2 = mask_with_alive(cfg.conv2_out, 30);
            let m3 = mask_with_alive(cfg.fc1_out, 10);
            let g = cost.cost_grad(&m1, &m2, &m3);
            let base = cost.absolute_cost(20.0, 30.0, 10.0);
            let seed = cost.seed_cost();
            let d1 = (cost.absolute_cost(21.0, 30.0, 10.0) - base) / seed;
            let d2 = (cost.absolute_cost(20.0, 31.0, 10.0) - base) / seed;
            let d3 = (cost.absolute_cost(20.0, 30.0, 11.0) - base) / seed;
            // The analytic gradient treats other alive counts as constants,
            // so it matches a one-channel finite difference exactly for the
            // linear terms and to first order for the bilinear ones.
            assert!((g[0] - d1).abs() / d1 < 0.35, "{} vs {}", g[0], d1);
            assert!((g[1] - d2).abs() / d2 < 0.35, "{} vs {}", g[1], d2);
            assert!((g[2] - d3).abs() / d3 < 0.35, "{} vs {}", g[2], d3);
        }
    }

    #[test]
    fn grads_are_positive() {
        let cfg = CnnConfig::seed();
        let cost = MaskedCost::new(cfg, CostTarget::Params);
        let m1 = ChannelMask::new(cfg.conv1_out);
        let m2 = ChannelMask::new(cfg.conv2_out);
        let m3 = ChannelMask::new(cfg.fc1_out);
        for g in cost.cost_grad(&m1, &m2, &m3) {
            assert!(g > 0.0);
        }
    }
}
