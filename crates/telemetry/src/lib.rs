//! Unified tracing, metrics and profiling substrate for the MAUPITI
//! stack (`pcount-telemetry`).
//!
//! Every performance-critical subsystem of the workspace — the
//! block-cache ISA engine, the GEMM training engine, the worker-pool
//! runtime, the deployment simulator and the NAS flow — records into the
//! primitives of this crate:
//!
//! * a **global metrics registry** of atomic [`Counter`]s, [`Gauge`]s and
//!   HDR-style log-bucketed latency [`Histogram`]s (p50/p90/p99 via
//!   [`HistogramSummary`]), sharded per thread so hot-path increments
//!   never contend on one cache line;
//! * **scoped span timers** ([`span`]) with a hierarchical phase model
//!   (`flow/seed_eval`, `flow/lambda_sweep/fold_train`, `gemm`,
//!   `conv_fwd`, `pool/task`, `deploy/run_batch`, …) recording into
//!   per-thread ring buffers;
//! * **one trace exporter**, chrome://tracing-compatible JSON
//!   ([`write_chrome_trace`]), plus a [`PoolUtilization`] report
//!   assembled by `pcount-runtime`;
//! * **[`JsonValue`]**, the one JSON writer of the workspace: every
//!   report and `BENCH_*.json` file is built as a value and written by
//!   its `Display`, and [`parse_json`] reads them back. Only the trace
//!   exporter streams its text directly, for speed.
//!
//! Library code only writes to the registry. Every number a library
//! call returns is counted by the code that produced it; only the trace
//! exporter, `PoolRef::utilization` in `pcount-runtime` and the
//! harnesses (benches, tests, perfbench) read the registry back.
//!
//! # Gating and disabled-mode cost
//!
//! Telemetry is **off by default**. Every recording call site first loads
//! one global `AtomicBool` with `Ordering::Relaxed` and returns
//! immediately when it reads `false` — the disabled-mode cost of a span
//! or counter increment is exactly that single relaxed atomic load (a
//! fraction of a nanosecond on any modern host; the
//! `disabled_span_cost_is_a_single_relaxed_load` test measures it and
//! asserts a generous ceiling). Enabling telemetry never changes any
//! computed result — logits, cycles, instret, accuracies and SLO
//! snapshots are bit-identical with telemetry on and off (asserted by
//! tripwire tests in `pcount-core` and `pcount-resilience`).
//!
//! # Environment
//!
//! `PCOUNT_TRACE=<path>` (read by [`init_from_env`], which `run_flow`,
//! the examples and the benches call on entry) enables telemetry and
//! selects the trace output path. [`flush_env_trace`] writes
//! chrome://tracing JSON there — open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! # Example
//!
//! ```
//! pcount_telemetry::set_enabled(true);
//! {
//!     let _span = pcount_telemetry::span("gemm");
//!     pcount_telemetry::counter("gemm/calls").add(1);
//! }
//! pcount_telemetry::histogram("deploy/frame_latency_ns").record(1_250);
//! let json = pcount_telemetry::chrome_trace_json();
//! assert!(json.contains("\"gemm\""));
//! pcount_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

mod export;
mod json;
mod metrics;
pub mod slo;
mod span;

pub use export::{chrome_trace_json, write_chrome_trace, PoolUtilization};
pub use json::{parse_json, JsonValue};
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, HistogramCounts, HistogramSummary,
};
pub use slo::{ErrorBudget, SloSnapshot};
pub use span::{now_ns, span, SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The single global telemetry gate every recording call site checks.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording.
///
/// This is the *only* cost a disabled call site pays: one relaxed atomic
/// load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off.
///
/// Enabling is observational only: spans, counters and histograms start
/// recording, but no computed result anywhere in the workspace changes
/// (the flow-level bit-identity tests assert this).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The trace path captured from `PCOUNT_TRACE` by the first
/// [`init_from_env`] call (`None` when the variable was unset or empty).
static TRACE_PATH: OnceLock<Option<String>> = OnceLock::new();

/// Reads `PCOUNT_TRACE` once, enables telemetry when it names a path and
/// returns that path. Safe to call from multiple entry points (`run_flow`,
/// examples, benches): only the first call samples the environment.
pub fn init_from_env() -> Option<&'static str> {
    let path =
        TRACE_PATH.get_or_init(|| std::env::var("PCOUNT_TRACE").ok().filter(|p| !p.is_empty()));
    if let Some(path) = path {
        set_enabled(true);
        Some(path.as_str())
    } else {
        None
    }
}

/// Writes the accumulated trace as chrome trace JSON to the
/// `PCOUNT_TRACE` path captured by [`init_from_env`]. Returns the path
/// written, or `None` when `PCOUNT_TRACE` was never set. Call sites may flush repeatedly (e.g. once per flow run
/// and once at program exit); later flushes overwrite the file with a
/// superset of the earlier events.
///
/// # Errors
///
/// Propagates I/O errors from writing the trace file.
pub fn flush_env_trace() -> std::io::Result<Option<&'static str>> {
    let Some(Some(path)) = TRACE_PATH.get() else {
        return Ok(None);
    };
    write_chrome_trace(path)?;
    Ok(Some(path.as_str()))
}

/// Clears every span ring buffer, counter, gauge and histogram back to
/// zero (the registry keeps its registered names). Intended for tests
/// that need an isolated telemetry window; production code never needs
/// it.
pub fn reset() {
    span::reset_rings();
    metrics::reset_metrics();
}

/// Serialises unit tests that toggle the global [`set_enabled`] flag so
/// they cannot race each other's measurement windows.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _guard = test_guard();
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
