//! The committed perf ledger: every `BENCH_*.json` at the workspace root
//! comes from a full-mode run of its own bench at a known revision.
//! Smoke runs write under `target/bench-smoke/` and never touch these
//! files.

use pcount_bench::REPEATS;
use pcount_telemetry::{parse_json, JsonValue};

const LEDGER: [(&str, &str); 4] = [
    ("BENCH_isa.json", "isa_throughput"),
    ("BENCH_train.json", "train_throughput"),
    ("BENCH_robust.json", "resilience"),
    ("BENCH_serve.json", "serve"),
];

fn read_record(file: &str) -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("{file} does not parse: {e}"))
}

#[test]
fn committed_bench_files_are_full_mode_records() {
    for (file, bench) in LEDGER {
        let record = read_record(file);
        let field = |path: &[&str]| {
            path.iter()
                .try_fold(&record, |v, key| v.get(key))
                .and_then(JsonValue::as_str)
        };
        assert_eq!(field(&["bench"]), Some(bench), "{file}: bench");
        assert_eq!(field(&["mode"]), Some("full"), "{file}: mode");
        let rev = field(&["host", "git_rev"]);
        assert!(
            rev.is_some_and(|rev| !rev.is_empty() && rev != "unknown"),
            "{file}: host.git_rev is {rev:?}"
        );
    }
}

/// Collects every object under `value` that has a `median` member.
fn timing_records<'a>(value: &'a JsonValue, out: &mut Vec<&'a JsonValue>) {
    match value {
        JsonValue::Object(members) => {
            if members.contains_key("median") {
                out.push(value);
            }
            members.values().for_each(|v| timing_records(v, out));
        }
        JsonValue::Array(items) => items.iter().for_each(|v| timing_records(v, out)),
        _ => {}
    }
}

#[test]
fn committed_timings_are_calls_per_s_records() {
    for (file, _) in LEDGER {
        let record = read_record(file);
        assert!(
            record.get("host_threads").is_none(),
            "{file}: host_threads duplicates host.threads"
        );
        let mut timings = Vec::new();
        timing_records(&record, &mut timings);
        assert!(!timings.is_empty(), "{file} records no timing");
        for timing in timings {
            let num = |key: &str| {
                timing
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or_else(|| panic!("{file}: {key} is not a number in {timing:?}"))
            };
            assert!(
                0.0 < num("min") && num("min") <= num("median"),
                "{file}: {timing:?}"
            );
            assert_eq!(num("repeats"), REPEATS as f64, "{file}: {timing:?}");
        }
    }
}
