//! Deterministic fault injection and supervised streaming deployment
//! (`pcount-resilience`).
//!
//! The paper's pipeline assumes a clean 10 FPS IR stream; real fleets
//! drop frames, saturate, jitter their clocks and stall. This crate makes
//! that failure surface first-class, in three layers:
//!
//! 1. **Fault injection** ([`FaultPlan`]): a seeded, pure transform that
//!    corrupts a clean frame tensor into a [`FaultyStream`] — dropped and
//!    duplicated frames, stuck/dead pixels, saturation bursts, additive
//!    noise, clock jitter and injected simulator stalls — reproducible
//!    bit-for-bit at any thread count.
//! 2. **Supervision** ([`ResilientDeployment`]): wraps a
//!    [`pcount_kernels::Deployment`] with a per-frame watchdog budget,
//!    bounded retry with exponential backoff and deterministic jitter, a
//!    circuit breaker, gap-aware hold-last-good degradation through
//!    [`pcount_postproc::MajorityVoter`], and quarantine (pristine-state
//!    restore) of every pooled CPU a fault touched. A supervised stream
//!    never aborts, and with faults disabled its per-tick inferences are
//!    bit-identical to the unwrapped deployment.
//! 3. **Measurement** ([`evaluate_robustness`]): sweeps fault intensity
//!    into accuracy-vs-fault-rate curves plus recovery statistics and the
//!    merged SLO snapshot of the swept streams (the `BENCH_robust.json`
//!    payload). Every stream counts its own
//!    [`SloSnapshot`](pcount_telemetry::SloSnapshot), so telemetry
//!    recording changes no reported number.

#![forbid(unsafe_code)]

mod deploy;
mod fault;
mod robustness;

pub use deploy::{
    AttemptOutcome, BreakerConfig, FrameOutcome, RecoveryStats, ResilienceConfig,
    ResilientDeployment, RetryPolicy, StreamReport, TickStatus,
};
pub use fault::{FaultClass, FaultConfig, FaultPlan, FaultyStream, StallFault, Tick};
pub use robustness::{evaluate_robustness, RobustnessPoint, RobustnessReport};
