//! The full-stack optimisation flow of the paper (Fig. 1) as a library.
//!
//! The flow chains the individual crates together:
//!
//! 1. generate (or load) the dataset and its leave-one-session-out folds
//!    (`pcount-dataset`),
//! 2. train the floating-point seed CNN (`pcount-nn`),
//! 3. run the PIT mask-based DNAS for a sweep of strengths `λ`
//!    (`pcount-nas`),
//! 4. quantise every discovered architecture with layer-wise INT4/INT8
//!    mixed precision and QAT (`pcount-quant`),
//! 5. apply majority-voting post-processing (`pcount-postproc`),
//! 6. assemble the Pareto fronts of Figs. 5–7 and deploy the selected
//!    models on MAUPITI / IBEX / STM32 for Table I
//!    (`pcount-kernels` + `pcount-platform`).
//!
//! # Example
//!
//! ```no_run
//! use pcount_core::{run_flow, FlowConfig};
//!
//! let result = run_flow(&FlowConfig::quick());
//! println!("{} quantized candidates", result.quantized.len());
//! ```

#![forbid(unsafe_code)]

mod baseline;
mod flow;
mod pareto;

pub use baseline::{manual_grid_baseline, BaselineConfig};
pub use flow::{
    run_flow, select_table1_models, CandidateEval, CandidateModel, DeployedCost, FlowConfig,
    FlowResult, FoldOutcome, FoldTrainJob, TelemetryReport,
};
pub use pareto::{pareto_front_by, ParetoPoint};
