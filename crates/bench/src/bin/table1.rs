//! Table I: deployment of the Top / −5 % / Mini models on the STM32,
//! vanilla IBEX and MAUPITI targets (code size, data size, latency and
//! energy per inference), plus the simulator's instruction, cycle and
//! SDOTP counts per inference.
//!
//! `PCOUNT_QUICK=1 cargo run --release -p pcount-bench --bin table1`

use pcount_bench::experiment_flow_config;
use pcount_core::{run_flow, select_table1_models};
use pcount_kernels::Target;
use pcount_platform::{evaluate_on_platforms, format_table1, Table1Row};

fn main() {
    let cfg = experiment_flow_config();
    eprintln!("table1: running flow to obtain the Top / -5% / Mini models ...");
    let result = run_flow(&cfg);
    let Some((top, minus5, mini)) = select_table1_models(&result.quantized) else {
        eprintln!("no candidates produced");
        return;
    };

    println!("=== Table I: deployment results ===\n");
    println!("selected models:");
    for (name, c) in [("Top", &top), ("-5%", &minus5), ("Mini", &mini)] {
        println!(
            "  {name:<4} {}  BAS(majority) {:.3}  {} weight bytes  {} MACs",
            c.label, c.bas_majority, c.memory_bytes, c.macs
        );
    }
    println!();

    let frame = vec![0.5f32; 64];
    let mut rows = Vec::new();
    for (name, candidate) in [("Top", &top), ("-5%", &minus5), ("Mini", &mini)] {
        match evaluate_on_platforms(&candidate.quantized, &frame) {
            Ok(results) => rows.push(Table1Row {
                model: name.to_string(),
                results,
            }),
            Err(err) => eprintln!("skipping {name}: {err}"),
        }
    }
    println!("{}", format_table1(&rows));

    // Instruction-mix detail on MAUPITI vs IBEX for the Top model
    // (replaces the paper's area discussion, which needs silicon).
    for target in [Target::Ibex, Target::Maupiti] {
        if let Ok(dep) = top.deploy(target) {
            if let Ok(run) = dep.run_frame(&frame) {
                println!(
                    "{target}: {} instructions, {} cycles, {} SDOTP ops per inference",
                    run.instructions, run.cycles, run.sdotp
                );
            }
        }
    }
}
