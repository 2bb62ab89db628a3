//! Simulator throughput: `ExecMode::Simple` vs `ExecMode::BlockCached`
//! and serial vs pooled-parallel batch evaluation, in instructions/second
//! on the deployed CNN workload (the program every Table-I / Fig. 5–7
//! measurement funnels through).
//!
//! The bench prints an instructions-per-second summary (engine speedup
//! under both memory models, fusion speedup, parallel scaling), the
//! Flat-vs-Maupiti memory-hierarchy cycle delta with its stall
//! breakdown, a trace-cache profile of the hottest superblocks (with the
//! per-trace memory-stall column), and writes the numbers to
//! `BENCH_isa.json` at the workspace root so the perf trajectory stays
//! machine-readable across PRs. It then reads the file back and checks
//! that the fusion columns are populated.
//!
//! `BENCH_SMOKE=1` (used by CI) shrinks every measurement window to a
//! few milliseconds, skips the wall-clock assertions and writes
//! `target/bench-smoke/BENCH_isa.json` instead — the bit-identity checks
//! across engines, memory models, fusion and thread counts and the
//! read-back checks still run, so engine regressions fail fast without
//! timing noise.

use pcount_bench::{
    calls_per_s, demo_int8_model, host_threads, smoke_mode, write_bench_json, Rate,
};
use pcount_kernels::{hot_blocks_json, Deployment, ExecMode, MemoryModel, Target};
use pcount_quant::QuantizedCnn;
use pcount_telemetry::JsonValue;
use pcount_tensor::Tensor;
use std::hint::black_box;

/// Worker threads used for the parallel-batch measurement.
const PARALLEL_THREADS: usize = 4;

fn deployment_with_mode(model: &QuantizedCnn, mode: ExecMode) -> Deployment {
    deployment_with(model, mode, MemoryModel::Flat)
}

fn deployment_with(model: &QuantizedCnn, mode: ExecMode, mem: MemoryModel) -> Deployment {
    let mut deployment = Deployment::new(model, Target::Maupiti).expect("deploy");
    deployment.set_exec_mode(mode);
    deployment.set_memory_model(mem);
    deployment
}

/// Measures sustained simulated instructions/second of the serial
/// per-frame path.
fn measure_ips(deployment: &Deployment, frame: &[f32]) -> Rate {
    let per_frame = deployment.run_frame(frame).expect("run").instructions;
    calls_per_s(|| deployment.run_frame(black_box(frame)).expect("run")).scaled(per_frame as f64)
}

/// Measures sustained simulated instructions/second of the pooled batch
/// path at the given thread count.
fn measure_batch_ips(deployment: &Deployment, batch: &Tensor, threads: usize) -> Rate {
    let pool = deployment.make_pool(threads).expect("pool");
    // Retired instruction counts are data-dependent (requant clamps,
    // pooling comparisons), so sum the real per-frame counts of the
    // warmup batch instead of extrapolating from one frame.
    let per_batch: u64 = deployment
        .run_batch(batch, &pool)
        .expect("batch")
        .iter()
        .map(|r| r.instructions)
        .sum();
    calls_per_s(|| {
        deployment
            .run_batch(black_box(batch), &pool)
            .expect("batch")
    })
    .scaled(per_batch as f64)
}

/// Asserts bit-identical logits/instret across every execution strategy;
/// this is the timing-independent engine-regression tripwire that also
/// runs in smoke mode.
fn check_bit_identity(model: &QuantizedCnn, batch: &Tensor) {
    let n = batch.shape()[0];
    let simple = deployment_with_mode(model, ExecMode::Simple);
    let cached = deployment_with_mode(model, ExecMode::BlockCached);
    let mut nofusion = deployment_with_mode(model, ExecMode::BlockCached);
    nofusion.set_macro_fusion(false);
    let mut maupiti_nofusion =
        deployment_with(model, ExecMode::BlockCached, MemoryModel::maupiti());
    maupiti_nofusion.set_macro_fusion(false);
    let serial: Vec<_> = (0..n)
        .map(|i| {
            cached
                .run_frame(&batch.data()[i * 64..(i + 1) * 64])
                .expect("serial frame")
        })
        .collect();
    let pool = cached.make_pool(PARALLEL_THREADS).expect("pool");
    let parallel = cached.run_batch(batch, &pool).expect("parallel batch");
    assert_eq!(parallel, serial, "parallel batch must be bit-identical");
    let maupiti_simple = deployment_with(model, ExecMode::Simple, MemoryModel::maupiti());
    let maupiti_cached = deployment_with(model, ExecMode::BlockCached, MemoryModel::maupiti());
    for (i, run) in serial.iter().enumerate() {
        let frame = &batch.data()[i * 64..(i + 1) * 64];
        let rs = simple.run_frame(frame).expect("simple frame");
        assert_eq!(run.logits, rs.logits, "engine logits diverged (frame {i})");
        assert_eq!(run.instructions, rs.instructions, "instret diverged");
        // Flat is the default model and must stay free of memory stalls.
        assert_eq!(run.mem, Default::default(), "Flat charged stalls");
        // The Maupiti hierarchy keeps architectural results bit-identical,
        // charges strictly more cycles (exactly its stall breakdown), and
        // both engines agree on that breakdown.
        let rm = maupiti_cached.run_frame(frame).expect("maupiti frame");
        let rms = maupiti_simple.run_frame(frame).expect("maupiti simple");
        assert_eq!(rm.logits, run.logits, "memory model changed logits");
        assert_eq!(rm.instructions, run.instructions);
        assert_eq!(rm.cycles, run.cycles + rm.mem.stall_cycles());
        assert!(rm.mem.fetch_misses > 0, "CNN branches must miss");
        assert_eq!(rm.mem, rms.mem, "engines disagree on the stall model");
        // Macro-op fusion must be invisible down to the stall breakdowns
        // under both memory models (the serial runs above all had fusion
        // enabled — its default).
        let rnf = nofusion.run_frame(frame).expect("no-fusion frame");
        assert_eq!(*run, rnf, "macro-op fusion perturbed the run (frame {i})");
        let rmnf = maupiti_nofusion
            .run_frame(frame)
            .expect("maupiti no-fusion frame");
        assert_eq!(
            rm, rmnf,
            "macro-op fusion perturbed the maupiti run (frame {i})"
        );
    }
}

/// Checks the `BENCH_isa.json` read back from disk: the fused engine
/// must hit the conv3x3 guard nest and the SDOTP channel loops, and the
/// hot-block profile must carry the fused-loop attribution columns.
fn validate_bench_json(bench: &JsonValue) {
    let num = |value: &JsonValue, key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{key} is not a number in {value:?}"))
    };
    assert!(num(bench, "fusion_speedup") > 0.0);
    let nofusion = bench
        .get("ips_block_cached_nofusion")
        .expect("nofusion rate");
    assert!(num(nofusion, "min") > 0.0);
    let Some(JsonValue::Object(hits)) = bench.get("fusion_hits") else {
        panic!("fusion_hits is not an object");
    };
    for pattern in ["conv3x3_nest", "mac_sdotp8"] {
        let hit = hits
            .get(pattern)
            .unwrap_or_else(|| panic!("missing fusion pattern {pattern}"));
        let (entries, iterations) = (num(hit, "entries"), num(hit, "iterations"));
        assert!(
            entries > 0.0 && iterations >= entries,
            "{pattern}: {entries} entries, {iterations} iterations"
        );
    }
    let blocks = bench
        .get("hot_blocks")
        .and_then(JsonValue::as_array)
        .expect("hot_blocks array");
    assert!(!blocks.is_empty(), "hot-block profile is empty");
    for block in blocks {
        for key in [
            "fused_kind",
            "fused_entries",
            "fused_iterations",
            "fused_cycles",
        ] {
            assert!(
                block.get(key).is_some(),
                "hot block without {key}: {block:?}"
            );
        }
    }
    let fused: Vec<&JsonValue> = blocks
        .iter()
        .filter(|b| b.get("fused_kind").and_then(JsonValue::as_str).is_some())
        .collect();
    assert!(!fused.is_empty(), "no hot block ran through the fused path");
    for block in &fused {
        assert!(num(block, "fused_iterations") >= num(block, "fused_entries"));
    }
    println!(
        "BENCH_isa.json OK: {} fusion patterns, {} fused hot blocks",
        hits.len(),
        fused.len()
    );
}

fn main() {
    let smoke = smoke_mode();
    let (model, x) = demo_int8_model(7);
    let frame: Vec<f32> = x.data()[0..64].to_vec();
    let batch_n = if smoke { 8 } else { 32 };
    let batch = Tensor::from_vec(x.data()[..batch_n * 64].to_vec(), &[batch_n, 1, 8, 8]);

    check_bit_identity(&model, &batch);

    let simple = deployment_with_mode(&model, ExecMode::Simple);
    let cached = deployment_with_mode(&model, ExecMode::BlockCached);
    let mut nofusion = deployment_with_mode(&model, ExecMode::BlockCached);
    nofusion.set_macro_fusion(false);
    let maupiti_simple = deployment_with(&model, ExecMode::Simple, MemoryModel::maupiti());
    let maupiti_cached = deployment_with(&model, ExecMode::BlockCached, MemoryModel::maupiti());
    let ips_simple = measure_ips(&simple, &frame);
    let ips_cached = measure_ips(&cached, &frame);
    let ips_nofusion = measure_ips(&nofusion, &frame);
    let ips_maupiti_simple = measure_ips(&maupiti_simple, &frame);
    let ips_maupiti_cached = measure_ips(&maupiti_cached, &frame);
    let ips_parallel = measure_batch_ips(&cached, &batch, PARALLEL_THREADS);
    let speedup = ips_cached.median / ips_simple.median;
    let speedup_maupiti = ips_maupiti_cached.median / ips_maupiti_simple.median;
    let fusion_speedup = ips_cached.median / ips_nofusion.median;
    let scaling = ips_parallel.median / ips_cached.median;
    let host_threads = host_threads();

    // Flat-vs-Maupiti cycle delta of one inference: how much the modelled
    // memory hierarchy costs over the ideal memories of the flat model.
    let run_flat = cached.run_frame(&frame).expect("flat run");
    let run_maupiti = maupiti_cached.run_frame(&frame).expect("maupiti run");
    let cycle_delta = run_maupiti.cycles as f64 / run_flat.cycles as f64;

    println!("isa_throughput summary (deployed CNN, MAUPITI target; medians):");
    let (simple_ips, cached_ips, parallel_ips) =
        (ips_simple.median, ips_cached.median, ips_parallel.median);
    println!("  simple:                  {simple_ips:>10.2e} instructions/s");
    println!("  block_cached:            {cached_ips:>10.2e} instructions/s");
    println!("  parallel x{PARALLEL_THREADS}:             {parallel_ips:>10.2e} instructions/s");
    println!("  engine speedup:          {speedup:.2}x (asserted floor: >= 3x)");
    println!("  engine speedup (maupiti mem model): {speedup_maupiti:.2}x");
    println!(
        "  fusion speedup:          {fusion_speedup:.3}x (macro-op fused loops vs per-instruction)"
    );
    println!("  parallel scaling:        {scaling:.2}x at {PARALLEL_THREADS} threads ({host_threads} host threads)");
    println!(
        "  memory hierarchy:        flat {} cycles -> maupiti {} cycles/inference ({:.3}x, \
         {} imem stall + {} dmem stall)",
        run_flat.cycles,
        run_maupiti.cycles,
        cycle_delta,
        run_maupiti.mem.imem_stall_cycles,
        run_maupiti.mem.dmem_stall_cycles,
    );

    println!("hottest superblock traces (one inference, maupiti mem model):");
    let hot_blocks = maupiti_cached.hottest_blocks(&frame, 8).expect("profile");
    for h in &hot_blocks {
        println!(
            "  pc {:#07x}: {:>9} executions, {:>10} instructions, {:>8} mem-stall cycles, fused {} ({} entries, {} iterations)",
            h.entry_pc,
            h.executions,
            h.instructions,
            h.mem_stall_cycles,
            h.fused_kind.unwrap_or("-"),
            h.fused_entries,
            h.fused_iterations,
        );
    }

    // Per-pattern fusion hit counts over one inference.
    let fusion_profile = cached.fusion_profile(&frame).expect("fusion profile");
    println!("macro-op fusion hits (one inference):");
    for (kind, entries, iterations) in &fusion_profile {
        println!("  {kind:>13}: {entries:>6} fused entries, {iterations:>8} loop iterations");
    }
    assert!(
        fusion_profile
            .iter()
            .any(|&(kind, _, iters)| kind == "mac_sdotp8" && iters > 0),
        "the SDOTP channel loops must run through the fused path"
    );
    let fusion_hits =
        JsonValue::object(fusion_profile.iter().map(|&(kind, entries, iterations)| {
            (
                kind,
                JsonValue::object([
                    ("entries", entries.into()),
                    ("iterations", iterations.into()),
                ]),
            )
        }));

    let bench = write_bench_json(
        "BENCH_isa.json",
        "isa_throughput",
        [
            ("parallel_threads", PARALLEL_THREADS.into()),
            ("ips_simple", ips_simple.into()),
            ("ips_block_cached", ips_cached.into()),
            ("ips_simple_maupiti_mem", ips_maupiti_simple.into()),
            ("ips_block_cached_maupiti_mem", ips_maupiti_cached.into()),
            ("ips_parallel", ips_parallel.into()),
            ("engine_speedup", speedup.into()),
            ("engine_speedup_maupiti_mem", speedup_maupiti.into()),
            ("ips_block_cached_nofusion", ips_nofusion.into()),
            ("fusion_speedup", fusion_speedup.into()),
            ("fusion_hits", fusion_hits),
            ("parallel_scaling", scaling.into()),
            ("cycles_per_inference_flat", run_flat.cycles.into()),
            ("cycles_per_inference_maupiti", run_maupiti.cycles.into()),
            ("maupiti_cycle_delta", cycle_delta.into()),
            (
                "maupiti_imem_stall_cycles",
                run_maupiti.mem.imem_stall_cycles.into(),
            ),
            (
                "maupiti_dmem_stall_cycles",
                run_maupiti.mem.dmem_stall_cycles.into(),
            ),
            ("hot_blocks", hot_blocks_json(&hot_blocks)),
        ],
    );
    validate_bench_json(&bench);

    if smoke {
        println!("BENCH_SMOKE=1: wall-clock assertions skipped");
        return;
    }
    // The committed record (2-core host) reads 14.7x from the medians:
    // block-cached 5.5e8 instructions/s (slowest window 5.0e8) vs simple
    // 3.8e7 (3.0e7). The hard guard sits far lower because both operands
    // are independent wall-clock measurements and a loaded machine can
    // perturb them by tens of percent.
    assert!(
        speedup >= 3.0,
        "block-cached engine regressed to {speedup:.2}x the reference interpreter"
    );
    // The per-trace memory-model charging must keep the engine fast under
    // the Maupiti hierarchy too — the summaries exist precisely so the
    // model is paid once per trace, not once per instruction.
    assert!(
        speedup_maupiti >= 3.0,
        "block-cached engine under the maupiti memory model regressed to \
         {speedup_maupiti:.2}x the reference interpreter"
    );
    // Macro-op fusion exists to be a perf win: the fused conv3x3 guard
    // nests and SDOTP channel loops must beat per-instruction dispatch by
    // a clear margin on the deployed CNN. The committed record reads 1.86x
    // from the medians (unfused 3.0e8 instructions/s, slowest window
    // 2.8e8); the floor sits at 1.2x to absorb wall-clock noise on loaded
    // machines.
    assert!(
        fusion_speedup >= 1.2,
        "macro-op fusion regressed to {fusion_speedup:.3}x over per-instruction dispatch"
    );
    // Batch scaling needs real cores; on a >= 4-thread host the pooled
    // path must deliver the acceptance target. The committed record comes
    // from a 2-thread host (0.93x), so it does not exercise this floor.
    if host_threads >= PARALLEL_THREADS {
        assert!(
            scaling >= 2.5,
            "parallel batch scaled only {scaling:.2}x at {PARALLEL_THREADS} threads"
        );
    }
}
