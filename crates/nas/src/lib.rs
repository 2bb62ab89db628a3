//! PIT-style mask-based differentiable neural architecture search (DNAS).
//!
//! The paper's architecture-optimisation step uses PIT: every output
//! channel (or linear feature) of the seed CNN is coupled with a trainable
//! mask parameter `θ_c`, binarised with a Heaviside step (straight-through
//! estimator for the gradient). Weights and masks are trained jointly to
//! minimise
//!
//! ```text
//! L(W; θ) + λ · C(θ)
//! ```
//!
//! where `C` is a differentiable model of a hardware cost — the number of
//! parameters (a memory proxy) or the number of multiply-accumulate
//! operations (an energy proxy). Sweeping the strength `λ` yields a set of
//! sub-architectures of the seed, each extracted into a plain
//! [`pcount_nn::CnnConfig`] and fine-tuned.
//!
//! # Example
//!
//! ```
//! use pcount_nas::{ChannelMask};
//!
//! let mask = ChannelMask::new(4);
//! assert_eq!(mask.alive_count(), 4); // all channels start alive
//! ```

#![forbid(unsafe_code)]

mod cost;
mod mask;
mod model;
mod search;

pub use cost::{CostTarget, MaskedCost};
pub use mask::ChannelMask;
pub use model::PitModel;
pub use search::{extract_subnetwork, search, NasConfig, SearchOutcome};
