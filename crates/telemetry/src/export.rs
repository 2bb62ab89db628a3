//! The trace exporter (chrome://tracing JSON) and the
//! [`PoolUtilization`] report assembled by `pcount-runtime`.

use std::fmt::Write as _;
use std::io;

use crate::json::{JsonValue, Quoted};
use crate::metrics::{counters_snapshot, gauges_snapshot, histograms_snapshot, HistogramSummary};
use crate::span::collect_events;

/// Serialises the current telemetry state as chrome://tracing JSON
/// (load the file at `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Span events become `ph:"X"` complete events (`ts`/`dur` in
/// microseconds, fractional to keep nanosecond precision); counter
/// totals become one trailing `ph:"C"` sample per counter. Top-level
/// `"counters"`, `"gauges"` and `"histograms"` sections carry the full
/// registry snapshot, and `"droppedSpans"` reports per-thread ring
/// overwrites.
pub fn chrome_trace_json() -> String {
    // Spans arrive sorted by `(start_ns, tid)`, with per-thread overwrite
    // counts for rings that wrapped; the registry sections are sorted by
    // name. Copying the rings under their locks is cheap relative to a
    // flow run and safe while other threads keep recording.
    let (spans, dropped) = collect_events();
    let counters = counters_snapshot();
    let gauges = gauges_snapshot();
    let histograms = histograms_snapshot();
    let mut out = String::with_capacity(spans.len() * 96 + 1024);
    out.push_str("{\n\"traceEvents\": [");
    let mut first = true;
    for &(tid, ev) in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        let cat = ev.name.split('/').next().unwrap_or(ev.name);
        let _ = write!(
            out,
            "\n  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
            Quoted(ev.name),
            Quoted(cat),
            ev.start_ns as f64 / 1_000.0,
            ev.dur_ns as f64 / 1_000.0,
            tid
        );
    }
    // One trailing counter sample per registered counter so the totals
    // show up on the trace timeline too.
    let end_ts = spans
        .iter()
        .map(|(_, ev)| ev.start_ns + ev.dur_ns)
        .max()
        .unwrap_or(0) as f64
        / 1_000.0;
    for &(name, value) in &counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n  {{\"name\": {}, \"ph\": \"C\", \"ts\": {end_ts:.3}, \"pid\": 1, \"args\": {{\"value\": {value}}}}}",
            Quoted(name)
        );
    }
    out.push_str("\n],\n\"counters\": {");
    for (i, &(name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {value}", Quoted(name));
    }
    out.push_str("\n},\n\"gauges\": {");
    for (i, &(name, value)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {value}", Quoted(name));
    }
    out.push_str("\n},\n\"histograms\": {");
    for (i, (name, summary)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {}", Quoted(name), JsonValue::from(summary));
    }
    out.push_str("\n},\n\"droppedSpans\": {");
    for (i, &(tid, n)) in dropped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  \"{tid}\": {n}");
    }
    out.push_str("\n},\n\"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_chrome_trace(path: &str) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Worker-pool utilisation report, assembled by `pcount-runtime` from its
/// per-worker instrumentation. Slot 0 aggregates every *submitting*
/// thread (callers that participate in their own groups); slots
/// `1..width` are the persistent pool workers.
///
/// The struct lives here (rather than in `pcount-runtime`) because the
/// telemetry crate is the workspace's dependency root: the benches
/// consume it without depending on the runtime's internals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolUtilization {
    /// Pool width: 1 (submitter aggregate) + persistent worker count.
    pub width: usize,
    /// Tasks (claimed chunk indices) executed per slot; `len() == width`.
    pub worker_tasks: Vec<u64>,
    /// Busy nanoseconds per slot (time inside `Group::work`);
    /// `len() == width`.
    pub worker_busy_ns: Vec<u64>,
    /// Total groups drained through the pool.
    pub groups: u64,
    /// Queue wait: submission to first worker claim, per group.
    pub queue_wait_ns: HistogramSummary,
    /// Drain latency: submission to completion, per group.
    pub drain_ns: HistogramSummary,
}

impl PoolUtilization {
    /// Total tasks executed across all slots.
    pub fn total_tasks(&self) -> u64 {
        self.worker_tasks.iter().sum()
    }
}

/// The report as a JSON object (used by the bench files).
impl From<&PoolUtilization> for JsonValue {
    fn from(u: &PoolUtilization) -> Self {
        JsonValue::object([
            ("width", u.width.into()),
            (
                "worker_tasks",
                JsonValue::array(u.worker_tasks.iter().copied()),
            ),
            (
                "worker_busy_ns",
                JsonValue::array(u.worker_busy_ns.iter().copied()),
            ),
            ("groups", u.groups.into()),
            ("queue_wait_ns", (&u.queue_wait_ns).into()),
            ("drain_ns", (&u.drain_ns).into()),
        ])
    }
}
