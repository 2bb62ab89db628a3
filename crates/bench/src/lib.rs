//! Shared helpers for the benchmark harness and the experiment binaries
//! that regenerate the paper's figures and tables.
//!
//! Binaries:
//!
//! * `fig5` — architecture + precision search-space exploration
//!   (BAS vs memory, seed / FP32 front / per-precision fronts).
//! * `fig6` — Pareto fronts with and without majority voting
//!   (BAS vs memory and BAS vs MACs).
//! * `fig7` — comparison against the hand-tuned manual-grid baseline.
//! * `table1` — deployment of the Top / −5 % / Mini models on STM32,
//!   IBEX and MAUPITI (code size, data size, latency, energy).
//!
//! Every binary honours the `PCOUNT_QUICK=1` environment variable to run a
//! reduced configuration; on a 2-core host `table1` then takes under half
//! a second instead of 3–6 s.

#![forbid(unsafe_code)]

use pcount_core::FlowConfig;
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_nn::{train_classifier, CnnConfig, TrainConfig};
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_telemetry::{parse_json, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Returns `true` when the `PCOUNT_QUICK` environment variable asks for the
/// reduced, seconds-scale experiment configuration.
pub fn quick_mode() -> bool {
    std::env::var("PCOUNT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The flow configuration selected by [`quick_mode`].
pub fn experiment_flow_config() -> FlowConfig {
    if quick_mode() {
        FlowConfig::quick()
    } else {
        FlowConfig::default_experiment()
    }
}

/// Builds a small trained + quantised model for the ledger benches,
/// without running the full flow.
pub fn demo_quantized_model(
    channels: (usize, usize, usize),
    assignment: PrecisionAssignment,
    seed: u64,
) -> (QuantizedCnn, pcount_tensor::Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = IrDataset::generate(&DatasetConfig::tiny(), seed);
    let fold = &data.leave_one_session_out()[0];
    let (x_train, y_train) = data.gather_normalized(fold.train.as_slice());
    let arch = CnnConfig::seed().with_channels(channels.0, channels.1, channels.2);
    let mut net = arch.build(&mut rng);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 64,
        learning_rate: 2e-3,
        weight_decay: 0.0,
    };
    let _ = train_classifier(&mut net, &x_train, &y_train, &cfg, &mut rng);
    let folded = fold_sequential(arch, &net).expect("canonical layout");
    let mut qat = QatCnn::from_folded(&folded, assignment);
    qat.calibrate(&x_train);
    (QuantizedCnn::from_qat(&qat), x_train)
}

/// A convenient INT8 demo model.
pub fn demo_int8_model(seed: u64) -> (QuantizedCnn, pcount_tensor::Tensor) {
    demo_quantized_model(
        (8, 8, 16),
        PrecisionAssignment::uniform(Precision::Int8),
        seed,
    )
}

/// The git revision stamped into bench reports: the `GIT_REV`
/// environment variable when the driver exports it (CI does), otherwise
/// `git rev-parse --short HEAD` so locally regenerated `BENCH_*.json`
/// files stay attributable instead of reporting `"unknown"`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        if !rev.trim().is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads of this host (1 when unknown): the `host.threads`
/// field of every `BENCH_*.json` and the gate of the multi-core floors.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host metadata block embedded in every `BENCH_*.json`: hardware
/// thread count, configured worker-pool width, whether the run was a
/// `BENCH_SMOKE=1` smoke pass, and the git revision (from `GIT_REV` or
/// the local `git` checkout).
pub fn host_metadata_json(smoke: bool) -> JsonValue {
    JsonValue::object([
        ("threads", host_threads().into()),
        ("pool_width", pcount_runtime::current().width().into()),
        ("smoke", smoke.into()),
        ("git_rev", git_rev().into()),
    ])
}

/// Whether `BENCH_SMOKE=1` asks for the smoke pass CI runs: short
/// measurement windows, no wall-clock assertions, and the bench file
/// written under `target/bench-smoke/` instead of the workspace root.
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Timed windows per [`calls_per_s`] measurement; odd, so the median is
/// one window's rate.
pub const REPEATS: usize = 9;

/// A rate measured by [`calls_per_s`]: the median and the slowest of
/// its timed windows. Bench files record it as `{"median", "min",
/// "repeats"}`; speedups are ratios of medians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    /// The median window's rate, per second.
    pub median: f64,
    /// The slowest window's rate, per second.
    pub min: f64,
    /// The number of timed windows, [`REPEATS`].
    pub repeats: usize,
}

impl Rate {
    /// The same measurement in units of `per_call` items per call, e.g.
    /// instructions or frames per second instead of calls per second.
    pub fn scaled(self, per_call: f64) -> Rate {
        Rate {
            median: self.median * per_call,
            min: self.min * per_call,
            ..self
        }
    }
}

impl From<Rate> for JsonValue {
    fn from(rate: Rate) -> Self {
        JsonValue::object([
            ("median", rate.median.into()),
            ("min", rate.min.into()),
            ("repeats", rate.repeats.into()),
        ])
    }
}

/// Sustained calls per second of `step`: one warm-up call, then
/// [`REPEATS`] timed windows that share 1 s (0.02 s in smoke mode), each
/// of at least one call. Every result passes through
/// [`std::hint::black_box`].
pub fn calls_per_s<R>(mut step: impl FnMut() -> R) -> Rate {
    let [rate] = interleaved_calls_per_s([&mut || {
        std::hint::black_box(step());
    }]);
    rate
}

/// [`calls_per_s`] of several steps at once, with their windows
/// interleaved: one warm-up call of each step, then [`REPEATS`] rounds in
/// which every step runs one window, the step that opens a round moving
/// on by one each round. Host-speed drift then lands on every step alike,
/// so a ratio of two of the rates — a bench's speedup — does not carry
/// it. Each step gets the same total time as under [`calls_per_s`].
/// Steps pass their own results through [`std::hint::black_box`].
pub fn interleaved_calls_per_s<const N: usize>(mut steps: [&mut dyn FnMut(); N]) -> [Rate; N] {
    for step in steps.iter_mut() {
        step();
    }
    let window = if smoke_mode() { 0.02 } else { 1.0 } / REPEATS as f64;
    // rounds[r][s]: the rate of step `s` in round `r`.
    let mut rounds = [[0.0f64; N]; REPEATS];
    for (round, rates) in rounds.iter_mut().enumerate() {
        for i in 0..N {
            let s = (round + i) % N;
            let start = Instant::now();
            let mut calls = 0u64;
            rates[s] = loop {
                steps[s]();
                calls += 1;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= window {
                    break calls as f64 / elapsed;
                }
            };
        }
    }
    std::array::from_fn(|s| {
        let mut rates = rounds.map(|rates| rates[s]);
        rates.sort_by(f64::total_cmp);
        Rate {
            median: rates[REPEATS / 2],
            min: rates[0],
            repeats: REPEATS,
        }
    })
}

/// Writes a bench's numbers to `file`: the `bench`, `mode` and `host`
/// header, then `members`, one top-level member per line. Full runs
/// write the committed ledger at the workspace root; smoke runs write
/// under `target/bench-smoke/`. Reads the file back and returns it
/// parsed, for the bench's own checks.
///
/// # Panics
///
/// Panics if the file cannot be written, read back or parsed.
pub fn write_bench_json(
    file: &str,
    bench: &str,
    members: impl IntoIterator<Item = (&'static str, JsonValue)>,
) -> JsonValue {
    let smoke = smoke_mode();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if smoke {
        root.join("target/bench-smoke")
    } else {
        root
    };
    let header = [
        ("bench", bench.into()),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("host", host_metadata_json(smoke)),
    ];
    let lines: Vec<String> = header
        .into_iter()
        .chain(members)
        .map(|(key, value)| format!("  {}: {value}", JsonValue::from(key)))
        .collect();
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read back {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{file} does not parse: {e}"))
}

/// Checks a full-mode `key` block against the one in the committed
/// ledger `file` at the workspace root, naming the members that differ.
/// Every number in such a block is a pure function of the code and the
/// seeds, so a change that moves one must re-record the ledger.
///
/// # Panics
///
/// Panics if the ledger cannot be read or lacks `key`, or if the blocks
/// differ.
pub fn check_matches_ledger(file: &str, key: &str, built: &JsonValue) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let ledger = parse_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let committed = ledger
        .get(key)
        .unwrap_or_else(|| panic!("{file} lacks {key}"));
    // Compare parsed values, as the committed block was written and read.
    let built = parse_json(&built.to_string()).expect("the built block parses");
    let JsonValue::Object(members) = &built else {
        panic!("the {key} block is not an object");
    };
    let differing: Vec<&String> = members
        .iter()
        .filter(|(name, value)| committed.get(name) != Some(value))
        .map(|(name, _)| name)
        .collect();
    assert!(
        built == *committed,
        "{key} members {differing:?} differ from the committed {file}: a change that \
         moves one must re-record the ledger (a full-mode run)"
    );
    println!("full-mode {key} block matches the committed {file}");
}

/// Formats a series of Pareto points as an aligned text table.
pub fn format_points(title: &str, points: &[pcount_core::ParetoPoint]) -> String {
    let mut out = format!(
        "{title}\n  {:<34} {:>10} {:>12} {:>8}\n",
        "label", "memory[B]", "MACs", "BAS"
    );
    for p in points {
        out.push_str(&format!(
            "  {:<34} {:>10} {:>12} {:>8.3}\n",
            p.label, p.memory_bytes, p.macs, p.bas
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_model_is_deployable_size() {
        let (model, x) = demo_int8_model(1);
        assert!(model.weight_bytes() < 16 * 1024);
        assert_eq!(x.shape()[2], 8);
    }

    #[test]
    fn calls_per_s_times_every_window() {
        let rate = calls_per_s(|| (0..1_000u64).map(std::hint::black_box).sum::<u64>());
        assert_eq!(rate.repeats, REPEATS);
        assert!(0.0 < rate.min && rate.min <= rate.median, "{rate:?}");
    }

    #[test]
    fn interleaved_steps_each_get_every_window() {
        let (mut fast, mut slow) = (0u64, 0u64);
        let [a, b] = interleaved_calls_per_s([&mut || fast += 1, &mut || {
            slow += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }]);
        for rate in [a, b] {
            assert_eq!(rate.repeats, REPEATS);
            assert!(0.0 < rate.min && rate.min <= rate.median, "{rate:?}");
        }
        assert!(a.median > b.median, "{a:?} vs {b:?}");
        // One warm-up call, then at least one call per window.
        assert!(slow > REPEATS as u64 && fast > slow, "{fast} vs {slow}");
    }

    #[test]
    fn host_metadata_is_valid_json() {
        let meta = host_metadata_json(true);
        let parsed = parse_json(&meta.to_string()).expect("host metadata parses");
        assert!(parsed
            .get("threads")
            .and_then(|v| v.as_f64())
            .is_some_and(|t| t >= 1.0));
        assert!(parsed
            .get("pool_width")
            .and_then(|v| v.as_f64())
            .is_some_and(|w| w >= 1.0));
        assert_eq!(
            parsed.get("smoke").and_then(|v| v.as_f64()),
            None,
            "smoke is a boolean, not a number"
        );
        assert!(parsed.get("git_rev").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn format_points_includes_every_point() {
        let points = vec![
            pcount_core::ParetoPoint::new("a", 0.5, 100, 200),
            pcount_core::ParetoPoint::new("b", 0.6, 300, 400),
        ];
        let text = format_points("title", &points);
        assert!(text.contains("title"));
        assert!(text.contains('a'));
        assert!(text.contains("300"));
        assert_eq!(text.lines().count(), 4);
    }
}
