//! Minimal CPU deep-learning stack for the MAUPITI people-counting flow.
//!
//! This crate provides exactly what the DATE 2024 paper's software flow
//! needs: NCHW convolution, batch normalisation, max pooling, linear
//! layers, ReLU, cross-entropy loss, Adam, a [`Sequential`] container,
//! the seed CNN architecture ([`CnnConfig`]) that the neural
//! architecture search in `pcount-nas` starts from, and the one
//! mini-batch loop ([`fit`]) and batched [`predict`] that every trained
//! network ([`Network`]) shares.
//!
//! # Example
//!
//! ```
//! use pcount_nn::{CnnConfig, Mode, Network};
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
mod sums;
mod train;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use layer::{Flatten, Layer, MaxPool2d, Mode, Network, Relu, Sequential};
pub use linear::Linear;
pub use loss::CrossEntropyLoss;
pub use metrics::{accuracy, balanced_accuracy, confusion_matrix};
pub use model::{CnnConfig, LayerDims};
pub use optim::Adam;
pub use sums::{channel_sums, SumOrder};
pub use train::{
    batch_select, evaluate, fit, predict, train_classifier, TrainConfig, TrainStats, PREDICT_BATCH,
};
