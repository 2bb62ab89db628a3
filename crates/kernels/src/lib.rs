//! RISC-V DNN kernels and deployment of quantized models onto the MAUPITI
//! instruction-set simulator.
//!
//! This crate is the reproduction of the paper's deployment toolchain
//! (Sec. III-B3): a macro-assembler targeting the RV32IM + SDOTP
//! instruction set of `pcount-isa`, a minimal library of DNN kernels
//! (3x3 convolution with requantisation, 2x2 max pooling and
//! fully-connected layers) generated in both SDOTP (MAUPITI) and scalar
//! (vanilla IBEX) flavours, and a [`Deployment`] that packs a
//! [`pcount_quant::QuantizedCnn`] into the 16 KB data memory, emits the
//! per-layer call sequence and runs inference on the simulator, reporting
//! code size, data size and cycles.
//!
//! ## Activation / weight layout
//!
//! Activations and weights are stored channel-last (HWC) with the channel
//! count padded to a SIMD-friendly multiple (4 values for INT8, 8 for
//! INT4), so the inner channel loop of every kernel is a sequence of
//! aligned 32-bit loads feeding SDOTP instructions. Padding lanes hold
//! zero weights, so they never affect results. INT4 tensors pack two
//! values per byte, low nibble first.

#![forbid(unsafe_code)]

mod asm;
mod deploy;
mod kernels;
mod layout;
mod pool;

pub use asm::Assembler;
pub use deploy::{
    hot_blocks_json, DeployError, Deployment, DeploymentReport, InferenceRun, Target,
    INSTRUCTION_BUDGET,
};
pub use kernels::{emit_conv3x3, emit_fc, emit_maxpool2x2, KernelVariant, OutputFormat};
pub use layout::{lane_count, pack_values, pad_channels, MemoryPlan};
pub use pcount_isa::{
    ExecMode, HotBlock, MaupitiMemConfig, MemStats, MemoryModel, PipelineStats, SimError,
};
pub use pool::{resolve_threads, CpuPool};
