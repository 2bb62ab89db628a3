//! The trace exporter (chrome://tracing JSON) and the
//! [`PoolUtilization`] report assembled by `pcount-runtime`.

use std::fmt::Write as _;
use std::io;

use crate::json::{JsonValue, Quoted};
use crate::metrics::{counters_snapshot, gauges_snapshot, histograms_snapshot, HistogramSummary};
use crate::span::{collect_events, SpanEvent};

/// A point-in-time copy of everything telemetry has recorded: every span
/// from every thread's ring (sorted by start time), every registered
/// counter, gauge and histogram summary, and per-thread overwrite counts
/// for rings that wrapped.
struct TraceSnapshot {
    /// `(thread id, event)` pairs sorted by `(start_ns, tid)`.
    spans: Vec<(usize, SpanEvent)>,
    /// `(thread id, overwritten event count)` for rings that wrapped.
    dropped: Vec<(usize, u64)>,
    /// Registered counters and their totals, sorted by name.
    counters: Vec<(&'static str, u64)>,
    /// Registered gauges and their values, sorted by name.
    gauges: Vec<(&'static str, i64)>,
    /// Registered histograms and their summaries, sorted by name.
    histograms: Vec<(&'static str, HistogramSummary)>,
}

impl TraceSnapshot {
    /// Captures the current telemetry state. Cheap relative to a flow run
    /// (copies the rings under their locks); safe to call while other
    /// threads keep recording.
    fn capture() -> Self {
        let (spans, dropped) = collect_events();
        Self {
            spans,
            dropped,
            counters: counters_snapshot(),
            gauges: gauges_snapshot(),
            histograms: histograms_snapshot(),
        }
    }
}

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
    let snapshot = TraceSnapshot::capture();
    let mut out = String::with_capacity(snapshot.spans.len() * 96 + 1024);
    out.push_str("{\n\"traceEvents\": [");
    let mut first = true;
    for &(tid, ev) in &snapshot.spans {
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
    let end_ts = snapshot
        .spans
        .iter()
        .map(|(_, ev)| ev.start_ns + ev.dur_ns)
        .max()
        .unwrap_or(0) as f64
        / 1_000.0;
    for &(name, value) in &snapshot.counters {
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
    for (i, &(name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {value}", Quoted(name));
    }
    out.push_str("\n},\n\"gauges\": {");
    for (i, &(name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {value}", Quoted(name));
    }
    out.push_str("\n},\n\"histograms\": {");
    for (i, (name, summary)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  {}: {}", Quoted(name), JsonValue::from(summary));
    }
    out.push_str("\n},\n\"droppedSpans\": {");
    for (i, &(tid, n)) in snapshot.dropped.iter().enumerate() {
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
