//! Integration tests of the telemetry crate's public contract: the
//! disabled mode is a no-op with single-atomic-load cost, and the
//! exporter emits well-formed, parseable traces.

use std::sync::{Mutex, MutexGuard, PoisonError};

use pcount_telemetry::{
    chrome_trace_json, counter, gauge, histogram, parse_json, set_enabled, span, JsonValue,
    PoolUtilization,
};

/// Serialises tests that toggle the global enable flag.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn disabled_mode_records_nothing() {
    let _guard = guard();
    set_enabled(false);
    let c = counter("test/disabled_counter");
    let g = gauge("test/disabled_gauge");
    let h = histogram("test/disabled_histogram");
    let before = (c.value(), g.value(), h.count());
    for _ in 0..1000 {
        c.add(1);
        g.set(42);
        g.add(1);
        h.record(123);
        assert!(span("test/disabled_span").is_none(), "span gated off");
    }
    assert_eq!(
        (c.value(), g.value(), h.count()),
        before,
        "disabled instruments must not move"
    );
}

#[test]
fn disabled_span_cost_is_a_single_relaxed_load() {
    let _guard = guard();
    set_enabled(false);
    // Warm up, then measure the disabled fast path. The documented cost
    // is one relaxed atomic load; the ceiling here is two orders of
    // magnitude above that so the assertion never flakes on a loaded CI
    // host — it exists to catch an accidental slow path (allocation,
    // lock, syscall), not to benchmark.
    const ITERS: u32 = 1_000_000;
    for _ in 0..1000 {
        std::hint::black_box(span("test/cost_span"));
    }
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(span("test/cost_span"));
    }
    let per_op_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
    assert!(
        per_op_ns < 1_000.0,
        "disabled span cost {per_op_ns:.1} ns/op — slow path on the disabled branch?"
    );
}

#[test]
fn chrome_trace_is_well_formed_json_with_spans_and_counters() {
    let _guard = guard();
    set_enabled(true);
    {
        let _outer = span("test/outer");
        let _inner = span("test/outer/inner");
        counter("test/trace_counter").add(7);
        histogram("test/trace_hist_ns").record(1_500);
    }
    set_enabled(false);

    let trace = chrome_trace_json();
    let parsed = parse_json(&trace).expect("chrome trace must parse as JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents is an array");
    let mut saw_outer = false;
    let mut saw_inner = false;
    for event in events {
        // Every duration event carries the chrome-trace required keys.
        if event.get("ph").and_then(|p| p.as_str()) == Some("X") {
            assert!(event.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(event.get("dur").and_then(|v| v.as_f64()).is_some());
            assert!(event.get("tid").is_some());
        }
        match event.get("name").and_then(|n| n.as_str()) {
            Some("test/outer") => saw_outer = true,
            Some("test/outer/inner") => saw_inner = true,
            _ => {}
        }
    }
    assert!(saw_outer && saw_inner, "both spans exported");
    let counters = parsed.get("counters").expect("counters section");
    assert!(
        counters
            .get("test/trace_counter")
            .and_then(|v| v.as_f64())
            .is_some_and(|v| v >= 7.0),
        "counter exported with its value"
    );
    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("test/trace_hist_ns"))
        .expect("histogram summary exported");
    assert!(hist.get("p50").is_some() && hist.get("p99").is_some());
}

#[test]
fn leaf_span_churn_cannot_evict_flow_phase_spans() {
    let _guard = guard();
    set_enabled(true);
    // One structural phase span first, then enough leaf spans to cycle
    // the bulk ring (32768 events) twice over.
    drop(span("flow/evict_probe"));
    for _ in 0..70_000 {
        drop(span("leaf/churn"));
    }
    set_enabled(false);

    let trace = chrome_trace_json();
    let parsed = parse_json(&trace).expect("trace parses");
    let names: std::collections::HashSet<_> = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(
        names.contains("flow/evict_probe"),
        "leaf churn evicted the structural flow span"
    );
    let dropped = parsed.get("droppedSpans").expect("droppedSpans section");
    assert!(
        matches!(dropped, pcount_telemetry::JsonValue::Object(o) if !o.is_empty()),
        "overwrites must be reported"
    );
}

#[test]
fn pool_utilization_serialises_to_valid_json() {
    let report = PoolUtilization {
        width: 2,
        worker_tasks: vec![3, 5],
        worker_busy_ns: vec![100, 200],
        groups: 4,
        ..PoolUtilization::default()
    };
    assert_eq!(report.total_tasks(), 8);
    let parsed = parse_json(&JsonValue::from(&report).to_string()).expect("valid JSON");
    assert_eq!(parsed.get("width").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(
        parsed
            .get("worker_tasks")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(2)
    );
}

#[test]
fn json_parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "tru",
        "\"unterminated",
        "1 2",
        "\"raw\ncontrol\"",
    ] {
        assert!(parse_json(bad).is_err(), "accepted malformed input {bad:?}");
    }
    // And accepts escapes and nesting.
    let ok = parse_json("{\"a\\n\": [1, 2.5, null, true, \"\\u00e9\\ud83d\\ude00\"]}")
        .expect("valid document");
    assert!(ok.get("a\n").is_some());
}
