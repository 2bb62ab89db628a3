//! Deterministic multi-node serving layer (`pcount-fleet`).
//!
//! The paper's end goal is continuous people-flow monitoring from many
//! deployed MAUPITI sensor nodes. This crate closes that loop as a
//! deterministic actor/message-passing co-simulation:
//!
//! * **Node actors** ([`SensorNode`]): each node owns its slice of a
//!   recorded session ([`IrDataset::session_stream_window`]), a per-node
//!   seeded fault plan (reproducible fleet-wide chaos from one fleet
//!   seed), and a clock with seed-derived skew on top of injected jitter.
//! * **Sharded fusion service** ([`FleetService`]): rooms map wholly to
//!   shards; each shard's front-end applies admission control over a
//!   bounded queue, backpressure with watermark hysteresis (throttled
//!   nodes downsample at the source), and load shedding that degrades to
//!   hold-last-good per room instead of dropping the room. Admitted
//!   frames batch onto [`CpuPool`](pcount_kernels::CpuPool) workers via
//!   `pcount-runtime`, each frame supervised by the
//!   [`ResilientDeployment`](pcount_resilience::ResilientDeployment)
//!   retry loop. Attempts at the full watchdog budget cannot time out,
//!   so they run on the host golden model, which predicts
//!   bit-identically; only attempts under a smaller budget, such as
//!   those an injected stall cuts short, run on the instruction-set
//!   simulator, which owns the watchdog and the wasted-cycle
//!   accounting.
//! * **SLO governance**: every node's health is judged by the
//!   error-budget burn of a sliding window of its outcomes; sick nodes
//!   are quarantined (their frames still execute but never reach fusion)
//!   and readmitted only after a clean streak. Shard reports fold their
//!   nodes' [`SloSnapshot`](pcount_telemetry::SloSnapshot)s with
//!   `SloSnapshot::merge` and pool error-budget burn with
//!   `ErrorBudget::burn_milli_total`.
//!
//! * **Shard failover** ([`CrashConfig`], [`CrashPolicy`]): shards
//!   themselves can die on a seeded, virtual-time crash schedule. A
//!   crashing shard's queue is disposed of per [`CrashPolicy`]
//!   (re-routed to surviving shards, shed as lost-in-crash, or held
//!   across the downtime), its rooms deterministically migrate to
//!   failover shards and return home on restart, and recovery resumes
//!   from the last periodic checkpoint — fusion state since the
//!   checkpoint is lost and hold-last-good covers the gap.
//! * **Adaptive admission** ([`AdaptiveConfig`]): instead of the static
//!   watermarks, each shard can derive its effective
//!   watermarks/downsample stride from the error-budget burn of a
//!   sliding window of its own admission outcomes, with hysteresis
//!   against flapping.
//!
//! Scheduling is virtual-time: a serial event plan decides every
//! admission/batching/failover outcome against a nominal service cost,
//! execution fans out as pure per-frame functions, and a serial fold
//! replays outcomes in arrival order — so the whole fleet run (including
//! the [`OccupancyTrajectory`] digest) is bit-reproducible at any pool
//! width, crashes included. `crates/bench/benches/serve.rs` drives load
//! ramps, fault storms and crash storms over this crate and writes
//! `BENCH_serve.json`.
//!
//! [`IrDataset::session_stream_window`]: pcount_dataset::IrDataset::session_stream_window

#![forbid(unsafe_code)]

// Lets the integration suites' fixtures, which name this crate, also
// build inside its unit tests.
#[cfg(test)]
extern crate self as pcount_fleet;

mod failover;
mod msg;
mod node;
mod report;
mod service;

pub use failover::{plan_crashes, AdaptiveConfig, CrashConfig, CrashEvent, CrashPolicy};
pub use msg::{Delivery, DeliveryStatus, FrameMsg};
pub use node::SensorNode;
pub use report::{
    CrashReport, FleetReport, NodeReport, OccupancyChange, OccupancyTrajectory, ServeTotals,
    ShardReport,
};
pub use service::{ConfigError, FleetConfig, FleetError, FleetService, StormConfig};
