//! The Adam optimiser.

use pcount_tensor::Tensor;

/// Adam optimiser (Kingma & Ba), the optimiser used by the paper
/// (learning rate 1e-3, default betas).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimiser with the paper's default hyper-parameters
    /// except for the provided learning rate and weight decay.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to `(parameter, gradient)` pairs, with L2
    /// weight decay added to each gradient.
    ///
    /// The parameter list must be presented in the same order on every
    /// call; [`crate::Network::params_and_grads`] guarantees this for a
    /// fixed network structure.
    pub fn step(&mut self, params_and_grads: Vec<(&mut Tensor, &mut Tensor)>) {
        if self.m.len() != params_and_grads.len() {
            self.m = params_and_grads
                .iter()
                .map(|(p, _)| vec![0.0f32; p.numel()])
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (param, grad)) in params_and_grads.into_iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            assert_eq!(m.len(), param.numel(), "parameter {i} changed size");
            let pd = param.data_mut();
            let gd = grad.data();
            for j in 0..pd.len() {
                let g = gd[j] + self.weight_decay * pd[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g * g;
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                pd[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2.
    fn minimise(opt: &mut Adam, steps: usize) -> f32 {
        let mut x = Tensor::from_vec(vec![0.0], &[1]);
        for _ in 0..steps {
            let mut g = Tensor::from_vec(vec![2.0 * (x.data()[0] - 3.0)], &[1]);
            opt.step(vec![(&mut x, &mut g)]);
        }
        x.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        let x = minimise(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let after_ten_steps = |weight_decay: f32| {
            let mut opt = Adam::new(0.01, weight_decay);
            let mut p = Tensor::from_vec(vec![1.0], &[1]);
            let mut g = Tensor::zeros(&[1]);
            for _ in 0..10 {
                opt.step(vec![(&mut p, &mut g)]);
            }
            p.data()[0]
        };
        assert_eq!(after_ten_steps(0.0), 1.0, "no gradient, no decay: no move");
        let decayed = after_ten_steps(0.5);
        assert!(decayed < 1.0 && decayed > 0.0, "decayed to {decayed}");
    }
}
