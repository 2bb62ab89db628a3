//! Minimal CPU deep-learning stack for the MAUPITI people-counting flow.
//!
//! This crate provides exactly what the DATE 2024 paper's software flow
//! needs: NCHW convolution, batch normalisation, max pooling, linear
//! layers, ReLU, cross-entropy loss, SGD/Adam, a [`Sequential`] container
//! and the seed CNN architecture ([`CnnConfig`]) that the neural
//! architecture search in `pcount-nas` starts from.
//!
//! # Example
//!
//! ```
//! use pcount_nn::{CnnConfig, Mode};
//! use pcount_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = CnnConfig::seed().build(&mut rng);
//! let x = Tensor::zeros(&[2, 1, 8, 8]);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 4]);
//! ```

#![forbid(unsafe_code)]

mod batchnorm;
mod conv;
mod layer;
mod linear;
mod loss;
mod metrics;
mod model;
mod optim;
mod train;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use layer::{Flatten, Layer, MaxPool2d, Mode, Relu, Sequential};
pub use linear::Linear;
pub use loss::CrossEntropyLoss;
pub use metrics::{accuracy, balanced_accuracy, confusion_matrix};
pub use model::{CnnConfig, LayerDims};
pub use optim::{Adam, Optimizer, Sgd};
pub use train::{batch_select, evaluate, predict, train_classifier, TrainConfig, TrainStats};
