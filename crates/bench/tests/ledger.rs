//! The committed perf ledger: every `BENCH_*.json` at the workspace root
//! comes from a full-mode run of its own bench at a known revision.
//! Smoke runs write under `target/bench-smoke/` and never touch these
//! files.

use pcount_telemetry::{parse_json, JsonValue};

#[test]
fn committed_bench_files_are_full_mode_records() {
    for (file, bench) in [
        ("BENCH_isa.json", "isa_throughput"),
        ("BENCH_train.json", "train_throughput"),
        ("BENCH_robust.json", "resilience"),
        ("BENCH_serve.json", "serve"),
    ] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        let record = parse_json(&text).unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
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
