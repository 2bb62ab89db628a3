//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_flow|infer_stream|fleet_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It sets the workload up several times
//! (the median is `setup_s`), then runs rounds until the next one could
//! overrun `--seconds`. With `--trace 0` a round is one untraced pass,
//! and the untraced passes give the host-time end-to-end metrics. With
//! `--trace 1` a round adds a traced pass on the same inputs, which turns
//! on span recording and `pcount-telemetry`; the traced passes give the
//! per-layer metrics and `tracing_overhead`. A fixed reference load timed around every
//! untraced pass scales the end-to-end host times to one host speed.
//! Every pass's outputs are checked, and every deterministic result must
//! repeat exactly across passes on the same inputs. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod calib;
mod fleet_storm;
mod infer_stream;
mod trace;
mod train_flow;

use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// The end-to-end metrics, printed on every workload: `(name, unit)`.
/// Times are host time, scaled to the reference host speed.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// The per-layer metrics, printed on every workload (0 where the
/// workload never calls the layer): `(name, unit, deterministic)`.
/// Deterministic ones must repeat exactly across passes. Units `cycles`,
/// `uJ` and `sim_ms` are simulated; `s` and `us` are host time.
const PER_LAYER: &[(&str, &str, bool)] = &[
    // Simulated and model outcomes. They vary too much between seeds to
    // carry an end-to-end bound, so they are reported here.
    ("bas_majority_top", "share", true),
    ("model_bytes_top", "B", true),
    ("energy_uj_top", "uJ", true),
    ("sim_cycles_per_frame", "cycles", true),
    ("sim_energy_uj_per_frame", "uJ", true),
    ("fused_share", "share", true),
    ("virtual_p99_ms", "sim_ms", true),
    // every workload: traced / untraced host time of the same work
    ("tracing_overhead", "x", false),
    // train_flow
    ("dataset.generate_s", "s", false),
    ("nn.seed_train_s", "s", false),
    ("nas.search_s", "s", false),
    ("nn.finetune_s", "s", false),
    ("quant.qat_s", "s", false),
    ("postproc.majority_s", "s", false),
    ("kernels.deploy_sweep_s", "s", false),
    ("core.phase.seed_eval_s", "s", false),
    ("core.phase.lambda_sweep_s", "s", false),
    ("core.phase.deploy_sweep_s", "s", false),
    // infer_stream
    ("kernels.compile_s", "s", false),
    ("kernels.pool_warm_s", "s", false),
    ("kernels.run_batch_s", "s", false),
    ("isa.sim_ips", "1/s", false),
    ("isa.instret_per_frame", "count", true),
    ("isa.ipc", "ratio", true),
    ("isa.load_use_stalls_per_frame", "cycles", true),
    ("isa.flush_cycles_per_frame", "cycles", true),
    ("isa.sdotp_per_frame", "count", true),
    ("isa.fused_iterations_per_frame", "count", true),
    ("quant.forward_int_us_per_frame", "us", false),
    // fleet_storm
    ("fleet.provision_s", "s", false),
    ("fleet.pool_warm_s", "s", false),
    ("fleet.run_s", "s", false),
    ("fleet.requests", "count", true),
    ("fleet.admitted", "count", true),
    ("fleet.shed", "count", true),
    ("fleet.downsampled", "count", true),
    ("fleet.crash_lost", "count", true),
    ("fleet.rerouted", "count", true),
    ("fleet.quarantine_trips", "count", true),
    ("fleet.crashes", "count", true),
    ("fleet.queue_depth_peak", "count", true),
    ("resilience.retries", "count", true),
    ("resilience.fallback", "count", true),
    ("resilience.cpu_resets", "count", true),
    ("resilience.retry_share", "share", true),
    ("kernels.sim_frames", "count", true),
    ("kernels.sim_busy_s", "s", false),
    ("kernels.sim_share", "share", false),
    // every workload
    ("runtime.busy_s", "s", false),
    ("runtime.tasks", "count", false),
    ("runtime.queue_wait_p50_us", "us", false),
    // the host: the reference load's seconds and the unscaled `wall_s`
    ("host.reference_s", "s", false),
    ("host.wall_raw_s", "s", false),
    ("trace.coverage", "share", false),
    ("dataset.self_s", "s", false),
    ("nn.self_s", "s", false),
    ("nas.self_s", "s", false),
    ("quant.self_s", "s", false),
    ("postproc.self_s", "s", false),
    ("kernels.self_s", "s", false),
    ("platform.self_s", "s", false),
    ("core.self_s", "s", false),
    ("fleet.self_s", "s", false),
];

/// Reference-load seconds of the scaled host time: on a host that runs
/// `calib::reference_s` in this long, scaled and raw seconds agree.
const REFERENCE_S: f64 = 0.1;

/// Traced passes must explain at least this share of their wall time
/// with layer spans on the calling thread.
const MIN_COVERAGE: f64 = 0.9;

/// What one pass produced.
pub struct Outcome {
    /// Operations attempted in the pass.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Frames one pass processes (the `frames_per_s` numerator).
    pub frames: u64,
    /// Every output the pass computed; identical on every pass over the
    /// same inputs.
    pub digest: String,
    /// Outputs that failed a correctness check.
    pub errors: Vec<String>,
    /// Deterministic per-layer metrics; identical on every pass over the
    /// same inputs.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Per-layer metrics the workload measures itself.
    pub layers: Vec<(&'static str, f64)>,
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Selects the inputs of round `round` and returns their key: passes
    /// with the same key must compute the same outputs. By default every
    /// round reuses the inputs set up from the seed.
    fn select_inputs(&mut self, _round: usize) -> usize {
        0
    }
    /// Runs one untraced pass; returns the host seconds of its timed
    /// region and its outcome.
    fn untraced(&mut self) -> (f64, Outcome);
    /// Runs one traced pass (span recording and telemetry are on);
    /// returns the host seconds of the region comparable with the
    /// untraced one, and its outcome.
    fn traced(&mut self) -> (f64, Outcome);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key, value);
        }
        let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: get("workload")?.clone(),
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other}")),
            },
        })
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Pool-runtime totals, for windowing the traced pass.
struct RuntimeWindow {
    busy_ns: u64,
    tasks: u64,
    queue_wait: pcount_telemetry::HistogramCounts,
}

impl RuntimeWindow {
    fn capture() -> Self {
        let u = pcount_runtime::current().utilization();
        Self {
            busy_ns: u.worker_busy_ns.iter().sum(),
            tasks: u.total_tasks(),
            queue_wait: pcount_telemetry::histogram("pool/queue_wait_ns").counts(),
        }
    }

    fn metrics_since(&self) -> Vec<(&'static str, f64)> {
        let now = Self::capture();
        let wait =
            pcount_telemetry::histogram("pool/queue_wait_ns").summary_since(&self.queue_wait);
        vec![
            ("runtime.busy_s", (now.busy_ns - self.busy_ns) as f64 * 1e-9),
            ("runtime.tasks", (now.tasks - self.tasks) as f64),
            ("runtime.queue_wait_p50_us", wait.p50 as f64 * 1e-3),
        ]
    }
}

/// Everything a run measured.
struct RunResult {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    spans: Vec<trace::Span>,
    /// Host seconds of each untraced pass, in order.
    untraced_s: Vec<f64>,
    /// Traced passes run.
    traced: usize,
}

/// A pass's digest and deterministic per-layer metrics.
type Outputs = (String, Vec<(&'static str, f64)>);

/// The checks every pass goes through, and the totals they feed.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The first pass's outputs per input key; every later pass on the
    /// same inputs must repeat them.
    reference: BTreeMap<usize, Outputs>,
    /// The first traced pass's deterministic per-layer values.
    layer_reference: Option<Vec<(&'static str, f64)>>,
}

impl Checks {
    fn pass(&mut self, outcome: &Outcome, inputs: usize, what: &str) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.problems
            .extend(outcome.errors.iter().map(|e| format!("{what} pass: {e}")));
        let current = (outcome.digest.clone(), outcome.deterministic.clone());
        match self.reference.get(&inputs) {
            None => {
                self.reference.insert(inputs, current);
            }
            Some(r) if *r != current => self.problems.push(format!(
                "{what} pass outputs differ from the first pass on the same inputs"
            )),
            Some(_) => {}
        }
    }

    fn traced_layers(&mut self, layers: &[(&'static str, f64)]) {
        let deterministic: Vec<_> = layers
            .iter()
            .filter(|(n, _)| PER_LAYER.iter().any(|&(m, _, det)| det && m == *n))
            .copied()
            .collect();
        match &self.layer_reference {
            None => self.layer_reference = Some(deterministic),
            Some(r) if *r != deterministic => self
                .problems
                .push("deterministic per-layer counts differ across traced passes".into()),
            Some(_) => {}
        }
    }
}

/// The per-layer metrics one traced pass's spans give.
fn span_metrics(summary: &trace::Summary) -> Vec<(&'static str, f64)> {
    let mut layers = vec![("trace.coverage", summary.coverage)];
    for &(name, _, _) in PER_LAYER {
        let Some((layer, call)) = name.strip_suffix("_s").and_then(|n| n.split_once('.')) else {
            continue;
        };
        if call == "self" {
            layers.push((name, summary.self_s.get(layer).copied().unwrap_or(0.0)));
        } else if summary.calls.contains_key(&(layer, call)) {
            layers.push((name, summary.calls[&(layer, call)]));
        }
    }
    layers
}

/// One traced pass: span recording and telemetry on around it.
struct TracedPass {
    /// Host seconds of the region comparable with the untraced pass.
    secs: f64,
    outcome: Outcome,
    /// The pool-runtime metrics over the pass.
    runtime: Vec<(&'static str, f64)>,
    spans: Vec<trace::Span>,
    /// Start and end of the pass on the span clock.
    t0: u64,
    t1: u64,
}

impl TracedPass {
    fn run<W: Workload>(workload: &mut W) -> Self {
        let runtime = RuntimeWindow::capture();
        pcount_telemetry::set_enabled(true);
        trace::set_recording(true);
        let t0 = trace::now_ns();
        let (secs, outcome) = workload.traced();
        let t1 = trace::now_ns();
        trace::set_recording(false);
        let runtime = runtime.metrics_since();
        pcount_telemetry::set_enabled(false);
        Self {
            secs,
            outcome,
            runtime,
            spans: trace::take(),
            t0,
            t1,
        }
    }
}

fn run<W: Workload>(setup: impl Fn() -> W, args: &Args, width: usize) -> RunResult {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup());
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    let mut checks = Checks::default();
    let (mut untraced_s, mut ratios, mut references) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer_values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut frames, mut spans, mut longest_round) = (0, Vec::new(), 0.0f64);
    let begin = Instant::now();
    for round in 0.. {
        let round_start = Instant::now();
        let inputs = workload.select_inputs(round);
        // Alternate which pass of a traced round goes first, so drift in
        // host speed does not bias the traced/untraced ratio.
        let traced_first = args.trace && round % 2 == 1;
        let mut traced_pass = traced_first.then(|| TracedPass::run(&mut workload));
        references.push(calib::reference_s(width));
        let (untraced, untraced_outcome) = workload.untraced();
        references.push(calib::reference_s(width));
        if args.trace && !traced_first {
            traced_pass = Some(TracedPass::run(&mut workload));
        }

        checks.pass(&untraced_outcome, inputs, "untraced");
        let mut layers = untraced_outcome.layers.clone();
        if let Some(pass) = traced_pass {
            checks.pass(&pass.outcome, inputs, "traced");
            let summary = trace::summarize(&pass.spans, trace::thread_id(), pass.t0, pass.t1);
            if summary.coverage < MIN_COVERAGE {
                checks.problems.push(format!(
                    "layer spans cover {:.3} of the traced wall, below {MIN_COVERAGE}",
                    summary.coverage
                ));
            }
            layers.extend(pass.runtime);
            layers.extend(span_metrics(&summary));
            layers.extend(pass.outcome.layers.iter().copied());
            checks.traced_layers(&layers);
            ratios.push(pass.secs / untraced);
            spans = pass.spans;
        }
        for (name, value) in layers {
            layer_values.entry(name).or_default().push(value);
        }
        untraced_s.push(untraced);
        if round == 0 {
            frames = untraced_outcome.frames;
        }
        longest_round = longest_round.max(round_start.elapsed().as_secs_f64());
        if begin.elapsed().as_secs_f64() + longest_round > args.seconds {
            break;
        }
    }

    let reference_s = median(&references);
    let scale = REFERENCE_S / reference_s;
    let wall_raw_s = median(&untraced_s);
    let wall_s = wall_raw_s * scale;
    let end_to_end = vec![
        ("setup_s", median(&setup_times) * scale),
        ("wall_s", wall_s),
        ("frames_per_s", frames as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "ok_share",
            1.0 - checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ];
    if !ratios.is_empty() {
        layer_values.insert("tracing_overhead", vec![median(&ratios)]);
    }
    layer_values.insert("host.reference_s", vec![reference_s]);
    layer_values.insert("host.wall_raw_s", vec![wall_raw_s]);
    // The deterministic results reported are those of the seed's own
    // inputs (key 0).
    if let Some((_, deterministic)) = checks.reference.get(&0) {
        for &(name, value) in deterministic {
            layer_values.insert(name, vec![value]);
        }
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, layer_values.get(name).map_or(0.0, |v| median(v))))
        .collect();
    RunResult {
        problems: checks.problems,
        attempted: checks.attempted,
        failed: checks.failed,
        end_to_end,
        per_layer,
        spans,
        untraced_s,
        traced: ratios.len(),
    }
}

/// Formats a metric value with every digit Rust keeps for an `f64`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    // The untraced passes must stay untraced whatever the environment.
    std::env::remove_var("PCOUNT_TRACE");
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = pcount_runtime::Pool::new(width);
    let seed = args.seed;
    let result = pcount_runtime::install(&pool, || {
        println!("# host {}", pcount_bench::host_metadata_json(false));
        match args.workload.as_str() {
            "train_flow" => run(|| train_flow::TrainFlow::setup(seed), &args, width),
            "infer_stream" => run(
                || infer_stream::InferStream::setup(seed, width),
                &args,
                width,
            ),
            "fleet_storm" => run(|| fleet_storm::FleetStorm::setup(seed, width), &args, width),
            other => {
                eprintln!("perfbench: unknown workload {other}");
                std::process::exit(2);
            }
        }
    });

    println!(
        "# workload {} seed {}: {} untraced and {} traced passes, pool width {width}",
        args.workload,
        args.seed,
        result.untraced_s.len(),
        result.traced
    );
    let passes: Vec<String> = result
        .untraced_s
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!("# untraced pass seconds: {}", passes.join(" "));
    let (table, values): (Vec<(&str, &str)>, _) = if args.trace {
        let table = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        (table, result.per_layer.clone())
    } else {
        (END_TO_END.to_vec(), result.end_to_end.clone())
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("{name:<34} {value:>18.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&result.spans)));
        match written {
            Ok(()) => println!("# spans of the last traced pass written to {path}"),
            Err(err) => eprintln!("perfbench: could not write {path}: {err}"),
        }
    }
    for problem in &result.problems {
        println!("# check failed: {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.problems.is_empty(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    if !result.problems.is_empty() {
        std::process::exit(1);
    }
}
