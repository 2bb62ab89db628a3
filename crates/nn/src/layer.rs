//! The [`Layer`] and [`Network`] traits, simple stateless layers and the
//! [`Sequential`] container.

use pcount_tensor::Tensor;

/// Whether a forward pass is part of training or of evaluation.
///
/// Batch normalisation and the fake-quantisation layers in `pcount-quant`
/// change behaviour between the two modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training mode: batch statistics are used and updated.
    Train,
    /// Evaluation mode: running statistics are used.
    Eval,
}

/// A differentiable network layer with manually implemented backward pass.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute input gradients and accumulate parameter
/// gradients. Gradients are accumulated (`+=`) so call
/// [`Layer::zero_grad`] (usually through [`Network::zero_grad`]) between
/// optimisation steps.
///
/// Layers are `Send + Sync` plain data, so whole networks can be cloned
/// into worker threads — the parallel per-fold training in `pcount-core`
/// clones one [`Sequential`] per cross-validation fold.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `x`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output) and returns the gradient w.r.t. this layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Returns mutable (parameter, gradient) pairs in a stable order.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.fill(0.0);
        }
    }

    /// Number of trainable parameters.
    fn num_params(&mut self) -> usize {
        self.params_and_grads().iter().map(|(p, _)| p.numel()).sum()
    }

    /// Short human-readable layer name (e.g. `"conv2d"`).
    fn name(&self) -> &'static str;

    /// The layer as [`std::any::Any`], enabling downcasts to the concrete
    /// layer type (used by the quantisation flow to fold batch-norm layers
    /// of a [`Sequential`] into their preceding convolutions).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Clones the layer behind a fresh box (object-safe `Clone`), so
    /// containers of boxed layers — and whole networks — can be cloned.
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// A whole network that the mini-batch loop [`crate::fit`] trains and
/// [`crate::predict`] runs: the [`Sequential`] CNN, the masked search
/// model of `pcount-nas` and the fake-quantised network of `pcount-quant`.
pub trait Network {
    /// Computes the logits of `x`; `mode` selects training or evaluation
    /// behaviour.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `grad_out` (the loss gradient w.r.t. the logits of
    /// the last forward pass), accumulating parameter gradients, and
    /// returns the gradient w.r.t. the input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Resets every parameter gradient to zero.
    fn zero_grad(&mut self);

    /// Mutable `(parameter, gradient)` pairs, in the same order on every
    /// call, so one optimiser can update them across steps.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rectified linear unit.
///
/// # Example
///
/// ```
/// use pcount_nn::{Layer, Mode, Relu};
/// use pcount_tensor::Tensor;
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]), Mode::Eval);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    /// Keeps the mask of positive inputs in the previous forward's
    /// allocation.
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(x.data().iter().map(|&v| v > 0.0));
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(mask.len(), grad_out.numel(), "relu gradient size mismatch");
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens an NCHW tensor into `[N, C*H*W]`.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let shape = x.shape().to_vec();
        assert!(!shape.is_empty(), "flatten input must have rank >= 1");
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.input_shape = Some(shape);
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .as_ref()
            .expect("backward called before forward");
        grad_out.reshape(shape)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D max pooling over NCHW tensors.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    argmax: Option<Vec<usize>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given square kernel and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be > 0");
        Self {
            kernel,
            stride,
            argmax: None,
            input_shape: None,
        }
    }

    /// Output spatial size for an input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        if input < self.kernel {
            0
        } else {
            (input - self.kernel) / self.stride + 1
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "maxpool expects NCHW input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let ho = self.output_size(h);
        let wo = self.output_size(w);
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        let mut argmax = vec![0usize; n * c * ho * wo];
        let xd = x.data();
        let od = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let base_in = (ni * c + ci) * h * w;
                let base_out = (ni * c + ci) * ho * wo;
                for oy in 0..ho {
                    for ox in 0..wo {
                        // The argmax starts at the window's first element,
                        // so a window with no value above -inf (all NaN or
                        // all -inf) routes its gradient inside itself.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base_in + oy * self.stride * w + ox * self.stride;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let idx = base_in + iy * w + ix;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        od[base_out + oy * wo + ox] = best;
                        argmax[base_out + oy * wo + ox] = best_idx;
                    }
                }
            }
        }
        self.argmax = Some(argmax);
        self.input_shape = Some(shape.to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward before forward");
        let input_shape = self.input_shape.as_ref().expect("backward before forward");
        let mut grad_in = Tensor::zeros(input_shape);
        let gd = grad_out.data();
        assert_eq!(gd.len(), argmax.len(), "maxpool gradient size mismatch");
        let gi = grad_in.data_mut();
        for (g, &idx) in gd.iter().zip(argmax.iter()) {
            gi[idx] += g;
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A plain feed-forward stack of boxed layers.
///
/// # Example
///
/// ```
/// use pcount_nn::{Flatten, Mode, Network, Relu, Sequential};
/// use pcount_tensor::Tensor;
/// let mut net = Sequential::new(vec![Box::new(Relu::new()), Box::new(Flatten::new())]);
/// let y = net.forward(&Tensor::ones(&[2, 3, 2, 2]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 12]);
/// ```
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a container from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Total number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.num_params()).sum()
    }
}

impl Network for Sequential {
    /// Forward pass through all layers in order.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode);
        }
        cur
    }

    /// Backward pass through all layers in reverse order.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Resets gradients of every layer.
    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Collects (parameter, gradient) pairs from every layer in order.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks_negative_gradients() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[5]);
        let y = relu.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
        let g = relu.backward(&Tensor::ones(&[5]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_gradients() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = fl.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 48]);
        let g = fl.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn maxpool_picks_maximum_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2, 2);
        // A single 1x1x4x4 image with a known maximum per window.
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        // Each gradient goes only to the argmax location.
        assert_eq!(g.data().iter().filter(|&&v| v == 1.0).count(), 4);
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.at(&[0, 0, 3, 3]), 1.0);
    }

    #[test]
    fn maxpool_routes_gradients_of_nan_windows_to_their_own_images() {
        // Two all-NaN 1x2x2 images: each window's gradient must land on
        // its own first element, not on element 0 of the whole batch.
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&Tensor::full(&[2, 1, 2, 2], f32::NAN), Mode::Train);
        assert_eq!(y.shape(), &[2, 1, 1, 1]);
        let g = pool.backward(&Tensor::ones(&[2, 1, 1, 1]));
        assert_eq!(g.data(), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::full(&[1, 1, 4, 4], f32::NEG_INFINITY);
        let _ = pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        for at in [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0], [0, 0, 2, 2]] {
            assert_eq!(g.at(&at), 1.0, "window starting at {at:?}");
        }
    }

    #[test]
    fn maxpool_output_size_handles_small_inputs() {
        let pool = MaxPool2d::new(2, 2);
        assert_eq!(pool.output_size(8), 4);
        assert_eq!(pool.output_size(1), 0);
    }

    #[test]
    fn sequential_chains_layers() {
        let mut net = Sequential::new(vec![Box::new(Relu::new()), Box::new(Flatten::new())]);
        assert_eq!(net.len(), 2);
        let y = net.forward(&Tensor::full(&[1, 2, 2, 2], -1.0), Mode::Train);
        assert_eq!(y.shape(), &[1, 8]);
        assert!(y.data().iter().all(|&v| v == 0.0));
        let g = net.backward(&Tensor::ones(&[1, 8]));
        assert_eq!(g.shape(), &[1, 2, 2, 2]);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }
}
