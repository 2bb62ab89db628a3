//! Mixed-precision quantisation for the MAUPITI people-counting CNN.
//!
//! This crate implements the precision-optimisation step of the paper's
//! flow:
//!
//! 1. **Batch-norm folding** into the preceding convolution
//!    ([`fold_sequential`]).
//! 2. **Quantisation-aware training** with range-based symmetric weight
//!    quantisation and learnable-clipping (PACT-style) activation
//!    quantisation ([`QatCnn`]).
//! 3. **Layer-wise mixed precision**: every layer picks INT4 or INT8 for
//!    its weights *and* input activations jointly (MAUPITI only supports
//!    4x4-bit and 8x8-bit SDOTP), with the first layer pinned at INT8
//!    ([`PrecisionAssignment`]).
//! 4. **Integer conversion**: a pure-integer inference model
//!    ([`QuantizedCnn`]) whose logits are bit-exact with the RISC-V
//!    kernels in `pcount-kernels`. It runs each layer the way those
//!    kernels do, as `i8` dot products (over an im2col column per output
//!    pixel for the 3x3 convs), and a frame allocates nothing once a
//!    thread is warm, so it is the host golden model the fleet serves
//!    full-budget attempts on.
//!
//! ## Simplification relative to the paper
//!
//! Both weights and activations use *symmetric signed* quantisation
//! (zero-point 0). Post-ReLU activations therefore only occupy the
//! non-negative half of the code space; QAT compensates for the small
//! resolution loss. This keeps the SDOTP kernels free of zero-point
//! bookkeeping while preserving the INT8-vs-INT4 accuracy/memory trade-off
//! shape the paper reports.

#![forbid(unsafe_code)]

mod fake;
mod fold;
mod int;
mod mixed;
mod qat;
mod qparams;

pub use fake::FakeQuantAct;
pub use fold::{fold_conv_bn, fold_sequential, FoldError, FoldedCnn};
pub use int::{argmax, QuantizedCnn, QuantizedLayer, RequantParams};
pub use mixed::PrecisionAssignment;
pub use qat::{qat_finetune, QatCnn, QatConfig};
pub use qparams::{fake_quant_slice, fake_quant_tensor, quantize_value, weight_scale, Precision};
