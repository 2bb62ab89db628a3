//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span named `(layer, call)`, where the layer is the crate. Spans are
//! kept in memory while recording is on and summarised (or written out)
//! once at the end of the run. Recording is off during the untraced
//! passes, where a span costs one relaxed atomic load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The crate the call went into.
    pub layer: &'static str,
    /// The call, e.g. `"search"`.
    pub call: &'static str,
    /// Recording thread (dense ids in first-use order).
    pub thread: u64,
    /// Nesting depth on its thread (0 = root).
    pub depth: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The calling thread's recorder id.
pub fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// Turns span recording on or off.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// An open span; recorded when dropped.
pub struct Guard {
    layer: &'static str,
    call: &'static str,
    depth: u32,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        DEPTH.with(|d| d.set(self.depth));
        let span = Span {
            layer: self.layer,
            call: self.call,
            thread: thread_id(),
            depth: self.depth,
            start_ns: self.start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Opens a span around a call into `layer` (`None` while not recording).
pub fn span(layer: &'static str, call: &'static str) -> Option<Guard> {
    if !RECORDING.load(Ordering::Relaxed) {
        return None;
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Some(Guard {
        layer,
        call,
        depth,
        start_ns: now_ns(),
    })
}

/// Runs `f` inside a span.
pub fn timed<T>(layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(layer, call);
    f()
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Inclusive seconds per `(layer, call)`.
    pub calls: BTreeMap<(&'static str, &'static str), f64>,
    /// Self seconds per layer: each span minus its child spans on the
    /// same thread, summed over threads.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of the pass's wall time that root spans on the calling
    /// thread cover.
    pub coverage: f64,
}

/// Summarises the spans of one traced pass that ran on thread `main`
/// from `start_ns` to `end_ns`.
pub fn summarize(spans: &[Span], main: u64, start_ns: u64, end_ns: u64) -> Summary {
    let mut summary = Summary::default();
    let mut by_thread: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        *summary.calls.entry((s.layer, s.call)).or_default() += s.secs();
        by_thread.entry(s.thread).or_default().push(s);
    }
    for list in by_thread.values_mut() {
        list.sort_by_key(|s| (s.start_ns, s.depth));
        for (i, s) in list.iter().enumerate() {
            // Spans on one thread nest, so the direct children of `s`
            // are the later spans one level deeper that start before
            // `s` ends.
            let children: f64 = list[i + 1..]
                .iter()
                .take_while(|c| c.start_ns < s.end_ns)
                .filter(|c| c.depth == s.depth + 1)
                .map(|c| c.secs())
                .sum();
            *summary.self_s.entry(s.layer).or_default() += s.secs() - children;
        }
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| s.thread == main && s.depth == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    summary.coverage = covered as f64 / (end_ns - start_ns).max(1) as f64;
    summary
}

/// The spans as a chrome://tracing JSON document.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.layer,
                s.call,
                s.layer,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
}
