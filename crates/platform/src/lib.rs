//! Platform cost models and the Table-I deployment comparison.
//!
//! Three execution targets are modelled, mirroring the paper's Table I:
//!
//! * **MAUPITI** — the paper's smart-sensor chip: IBEX + SDOTP at 20 MHz,
//!   ~0.9 mW digital power plus a 2.2 % post-synthesis power overhead for
//!   the SDOTP unit. Code/data/cycles come from actually running the
//!   generated kernels on the instruction-set simulator
//!   (`pcount-kernels` + `pcount-isa`, block-cached engine with the
//!   pipelined IBEX timing model, so cycle counts include load-use
//!   interlock and branch-flush stalls).
//! * **IBEX** — the same chip without the custom instructions: scalar
//!   kernels on the simulator, 0.9 mW, 20 MHz.
//! * **STM32L4R5 + X-CUBE-AI** — an off-the-shelf Cortex-M MCU at 120 MHz
//!   with a vendor inference runtime. This target cannot be simulated
//!   cycle-accurately here, so it is modelled analytically with constants
//!   calibrated to the paper: ~22.5 KB of runtime code, 8-bit-only
//!   weights, 13.2x the MAUPITI power and roughly 9x lower latency.
//!
//! Energy per inference is always `cycles / f_clk * P_active`.

#![forbid(unsafe_code)]

use pcount_kernels::{Deployment, DeploymentReport, MemStats, Target};
use pcount_quant::{Precision, QuantizedCnn};

/// Static description of an execution platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Active power during inference in watts.
    pub active_power_w: f64,
}

impl PlatformSpec {
    /// The MAUPITI chip: 20 MHz, 0.9 mW digital block plus 2.2 % SDOTP
    /// power overhead.
    pub const MAUPITI: PlatformSpec = PlatformSpec {
        name: "MAUPITI",
        clock_hz: 20.0e6,
        active_power_w: 0.9e-3 * 1.022,
    };

    /// The unmodified IBEX digital block: 20 MHz, 0.9 mW.
    pub const IBEX: PlatformSpec = PlatformSpec {
        name: "IBEX",
        clock_hz: 20.0e6,
        active_power_w: 0.9e-3,
    };

    /// STM32L4R5 at 120 MHz; the paper reports a 13.2x power increase over
    /// the MAUPITI digital block.
    pub const STM32: PlatformSpec = PlatformSpec {
        name: "STM32",
        clock_hz: 120.0e6,
        active_power_w: 13.2 * 0.9e-3,
    };

    /// Energy in microjoules for a number of cycles on this platform.
    pub fn energy_uj(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz * self.active_power_w * 1e6
    }

    /// Splits the per-inference energy into the cycles the core spent
    /// doing useful work versus the cycles it burned stalled on the
    /// instruction-fetch path (prefetch-buffer refills) and on the data
    /// SRAM port (structural contention), using the memory-hierarchy
    /// stall breakdown measured by the simulator. Under the flat memory
    /// model everything lands in the core component.
    pub fn energy_breakdown(&self, cycles: u64, mem: &MemStats) -> EnergyBreakdown {
        // Clamp the stall components into the cycle budget so the three
        // components always sum to `energy_uj(cycles)`, even if a caller
        // pairs one run's cycles with counters accumulated over more.
        let imem = mem.imem_stall_cycles.min(cycles);
        let dmem = mem.dmem_stall_cycles.min(cycles - imem);
        EnergyBreakdown {
            core_uj: self.energy_uj(cycles - imem - dmem),
            imem_uj: self.energy_uj(imem),
            dmem_uj: self.energy_uj(dmem),
        }
    }

    /// Latency in milliseconds for a number of cycles on this platform.
    pub fn latency_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz * 1e3
    }
}

/// Per-inference energy split by the component the cycles were spent on
/// (all in microjoules; the sum equals the total `energy_uj`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy of cycles the core spent executing instructions.
    pub core_uj: f64,
    /// Energy of cycles stalled refilling the instruction prefetch
    /// buffer.
    pub imem_uj: f64,
    /// Energy of cycles stalled on data-SRAM port contention.
    pub dmem_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy across the three components.
    pub fn total_uj(&self) -> f64 {
        self.core_uj + self.imem_uj + self.dmem_uj
    }
}

/// Deployment metrics of one model on one platform (one Table-I cell row).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformResult {
    /// Platform name.
    pub platform: &'static str,
    /// Code size in bytes.
    pub code_bytes: usize,
    /// Data size in bytes.
    pub data_bytes: usize,
    /// Cycles per inference.
    pub cycles: u64,
    /// Latency per inference in milliseconds.
    pub latency_ms: f64,
    /// Energy per inference in microjoules.
    pub energy_uj: f64,
    /// The same energy split into core / imem / dmem components (the
    /// memory components are zero when the cycles were measured under the
    /// flat memory model or estimated analytically).
    pub energy: EnergyBreakdown,
}

/// Analytical model of the STM32L4R5 + X-CUBE-AI deployment.
///
/// X-CUBE-AI does not support mixed precision, so all weights are deployed
/// at 8 bits; the runtime adds a large fixed code footprint and some
/// per-layer bookkeeping data.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stm32Model;

impl Stm32Model {
    /// Fixed X-CUBE-AI runtime code footprint (bytes).
    pub const RUNTIME_CODE_BYTES: usize = 22_500;
    /// Per-layer code overhead (bytes).
    pub const PER_LAYER_CODE_BYTES: usize = 90;
    /// Fixed runtime data overhead (bytes).
    pub const RUNTIME_DATA_BYTES: usize = 1_024;
    /// Average cycles per MAC of the vendor int8 kernels on a Cortex-M4
    /// (X-CUBE-AI convolutions without DSP SIMD run in the high single
    /// digits of cycles per MAC on these small geometries).
    pub const CYCLES_PER_MAC: f64 = 10.0;
    /// Fixed per-inference overhead cycles (scheduling, I/O).
    pub const OVERHEAD_CYCLES: u64 = 30_000;

    /// Code size of the deployed model.
    pub fn code_bytes(model: &QuantizedCnn) -> usize {
        Self::RUNTIME_CODE_BYTES + Self::PER_LAYER_CODE_BYTES * model.layers.len()
    }

    /// Data size (8-bit weights, 32-bit biases, 8-bit activations, runtime
    /// overhead).
    pub fn data_bytes(model: &QuantizedCnn) -> usize {
        let weights: usize = model
            .layers
            .iter()
            .map(|l| Precision::Int8.storage_bytes(l.weight_count()) + l.out_features * 4)
            .sum();
        let cfg = &model.config;
        let act = cfg.input_size * cfg.input_size * cfg.conv1_out
            + cfg.pooled_size() * cfg.pooled_size() * cfg.conv2_out.max(cfg.conv1_out);
        weights + act + Self::RUNTIME_DATA_BYTES
    }

    /// Cycles per inference.
    pub fn cycles(model: &QuantizedCnn) -> u64 {
        (model.macs() as f64 * Self::CYCLES_PER_MAC) as u64 + Self::OVERHEAD_CYCLES
    }

    /// Full platform result.
    pub fn evaluate(model: &QuantizedCnn) -> PlatformResult {
        let cycles = Self::cycles(model);
        let spec = PlatformSpec::STM32;
        PlatformResult {
            platform: spec.name,
            code_bytes: Self::code_bytes(model),
            data_bytes: Self::data_bytes(model),
            cycles,
            latency_ms: spec.latency_ms(cycles),
            energy_uj: spec.energy_uj(cycles),
            energy: spec.energy_breakdown(cycles, &MemStats::default()),
        }
    }
}

/// Converts a simulator deployment report into a [`PlatformResult`],
/// splitting the energy along the report's memory-stall breakdown.
pub fn result_from_report(spec: PlatformSpec, report: &DeploymentReport) -> PlatformResult {
    PlatformResult {
        platform: spec.name,
        code_bytes: report.code_bytes,
        data_bytes: report.data_bytes,
        cycles: report.cycles,
        latency_ms: spec.latency_ms(report.cycles),
        energy_uj: spec.energy_uj(report.cycles),
        energy: spec.energy_breakdown(report.cycles, &report.mem),
    }
}

/// Deploys `model` on all three platforms (MAUPITI and IBEX on the
/// simulator, STM32 analytically) and measures each with `frame`.
///
/// # Errors
///
/// Returns a human-readable error if the model does not fit the on-chip
/// memories or the simulation faults.
pub fn evaluate_on_platforms(
    model: &QuantizedCnn,
    frame: &[f32],
) -> Result<Vec<PlatformResult>, String> {
    let mut results = Vec::with_capacity(3);
    results.push(Stm32Model::evaluate(model));
    for (target, spec) in [
        (Target::Ibex, PlatformSpec::IBEX),
        (Target::Maupiti, PlatformSpec::MAUPITI),
    ] {
        let deployment = Deployment::new(model, target).map_err(|e| e.to_string())?;
        let report = deployment.report(frame).map_err(|e| e.to_string())?;
        results.push(result_from_report(spec, &report));
    }
    Ok(results)
}

/// One row of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Model label ("Top", "-5%", "Mini").
    pub model: String,
    /// Per-platform results (STM32, IBEX, MAUPITI).
    pub results: Vec<PlatformResult>,
}

/// Renders Table I in the same layout as the paper.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("Model    Platform  Code [B]  Data [B]  Latency [ms]  Energy [uJ]\n");
    for row in rows {
        for (i, r) in row.results.iter().enumerate() {
            let label = if i == 0 { row.model.as_str() } else { "" };
            out.push_str(&format!(
                "{label:<8} {:<9} {:>8} {:>9} {:>13.3} {:>12.3}\n",
                r.platform, r.code_bytes, r.data_bytes, r.latency_ms, r.energy_uj
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcount_nn::{CnnConfig, TrainConfig};
    use pcount_quant::{fold_sequential, PrecisionAssignment, QatCnn};
    use pcount_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_model(rng: &mut StdRng) -> (QuantizedCnn, Vec<f32>) {
        let mut x = Tensor::zeros(&[60, 1, 8, 8]);
        let mut y = Vec::new();
        for i in 0..60 {
            let class = rng.gen_range(0..4usize);
            x.set(&[i, 0, 2 + class, 3], 3.0);
            y.push(class);
        }
        let cfg = CnnConfig::seed().with_channels(8, 8, 16);
        let mut net = cfg.build(rng);
        let tc = TrainConfig {
            epochs: 2,
            batch_size: 32,
            learning_rate: 1e-3,
            weight_decay: 0.0,
            verbose: false,
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, rng);
        let folded = fold_sequential(cfg, &net).unwrap();
        let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        qat.calibrate(&x);
        (QuantizedCnn::from_qat(&qat), x.data()[0..64].to_vec())
    }

    #[test]
    fn energy_scales_linearly_with_cycles() {
        let spec = PlatformSpec::MAUPITI;
        let e1 = spec.energy_uj(10_000);
        let e2 = spec.energy_uj(20_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        // 20k cycles at 20 MHz = 1 ms at ~0.92 mW -> ~0.92 uJ.
        assert!((e2 - 0.9198).abs() < 0.01, "e2 = {e2}");
    }

    #[test]
    fn energy_breakdown_follows_the_memory_model() {
        use pcount_kernels::MemoryModel;
        let mut rng = StdRng::seed_from_u64(11);
        let (model, frame) = small_model(&mut rng);
        // Flat (default) model: ideal memories, all energy is core energy.
        let flat = Deployment::new(&model, Target::Maupiti).expect("deploy");
        assert!(flat.memory_model().is_flat());
        let flat_report = flat.report(&frame).expect("report");
        let flat_result = result_from_report(PlatformSpec::MAUPITI, &flat_report);
        assert_eq!(flat_result.energy.imem_uj, 0.0);
        assert_eq!(flat_result.energy.dmem_uj, 0.0);
        assert!((flat_result.energy.total_uj() - flat_result.energy_uj).abs() < 1e-9);
        // Maupiti model: same logits/instret, more cycles, and the stall
        // breakdown shows up as imem/dmem energy components.
        let mut hier = Deployment::new(&model, Target::Maupiti).expect("deploy");
        hier.set_memory_model(MemoryModel::maupiti());
        let hier_report = hier.report(&frame).expect("report");
        assert_eq!(hier_report.instructions, flat_report.instructions);
        assert!(hier_report.cycles > flat_report.cycles);
        assert_eq!(
            hier_report.cycles - flat_report.cycles,
            hier_report.mem.stall_cycles(),
            "extra cycles are exactly the memory stalls"
        );
        let hier_result = result_from_report(PlatformSpec::MAUPITI, &hier_report);
        assert!(hier_result.energy.imem_uj > 0.0);
        assert!(hier_result.energy.dmem_uj > 0.0);
        assert!((hier_result.energy.total_uj() - hier_result.energy_uj).abs() < 1e-9);
        assert!(hier_result.energy.core_uj > hier_result.energy.imem_uj);
    }

    #[test]
    fn stm32_is_faster_but_less_efficient_than_maupiti() {
        let mut rng = StdRng::seed_from_u64(0);
        let (model, frame) = small_model(&mut rng);
        let results = evaluate_on_platforms(&model, &frame).expect("platforms");
        assert_eq!(results.len(), 3);
        let stm = &results[0];
        let ibex = &results[1];
        let maupiti = &results[2];
        assert_eq!(stm.platform, "STM32");
        assert_eq!(maupiti.platform, "MAUPITI");
        // Latency: STM32 is fastest (120 MHz + vendor kernels).
        assert!(stm.latency_ms < maupiti.latency_ms);
        // Energy: MAUPITI is the most efficient, then IBEX, then STM32.
        assert!(maupiti.energy_uj < ibex.energy_uj);
        assert!(maupiti.energy_uj < stm.energy_uj);
        // Code size: the vendor runtime dwarfs the bare-metal kernels.
        assert!(stm.code_bytes > 5 * maupiti.code_bytes);
    }

    #[test]
    fn platform_cycles_come_from_the_block_cached_engine() {
        use pcount_kernels::{Deployment, ExecMode, Target};
        let mut rng = StdRng::seed_from_u64(4);
        let (model, frame) = small_model(&mut rng);
        let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
        assert_eq!(deployment.exec_mode(), ExecMode::BlockCached);
        // The Table-I cycle numbers include the pipeline stalls the flat
        // model cannot see, so re-measuring on the reference interpreter
        // must never yield more cycles.
        let cached_cycles = deployment.report(&frame).expect("report").cycles;
        let mut simple = deployment;
        simple.set_exec_mode(ExecMode::Simple);
        let simple_cycles = simple.report(&frame).expect("report").cycles;
        assert!(cached_cycles >= simple_cycles);
    }

    #[test]
    fn maupiti_code_is_slightly_larger_than_ibex_but_data_identical() {
        let mut rng = StdRng::seed_from_u64(1);
        let (model, frame) = small_model(&mut rng);
        let results = evaluate_on_platforms(&model, &frame).expect("platforms");
        let ibex = &results[1];
        let maupiti = &results[2];
        assert_eq!(ibex.data_bytes, maupiti.data_bytes);
        // The SIMD kernels differ in size from the scalar ones but both fit
        // comfortably in the 16 KB instruction memory.
        assert!(maupiti.code_bytes <= 16 * 1024);
        assert!(ibex.code_bytes <= 16 * 1024);
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let (model, frame) = small_model(&mut rng);
        let results = evaluate_on_platforms(&model, &frame).expect("platforms");
        let rows = vec![Table1Row {
            model: "Mini".to_string(),
            results,
        }];
        let table = format_table1(&rows);
        assert!(table.contains("Mini"));
        assert!(table.contains("MAUPITI"));
        assert!(table.contains("STM32"));
        assert!(table.contains("IBEX"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn stm32_model_penalises_larger_networks() {
        let mut rng = StdRng::seed_from_u64(3);
        let (small, _) = small_model(&mut rng);
        // Same pipeline but with more channels => more MACs and data.
        let cfg = CnnConfig::seed().with_channels(16, 16, 32);
        let mut net = cfg.build(&mut rng);
        let folded = fold_sequential(cfg, &net).unwrap();
        let _ = &mut net;
        let qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        let big = QuantizedCnn::from_qat(&qat);
        assert!(Stm32Model::cycles(&big) > Stm32Model::cycles(&small));
        assert!(Stm32Model::data_bytes(&big) > Stm32Model::data_bytes(&small));
        assert_eq!(Stm32Model::code_bytes(&big), Stm32Model::code_bytes(&small));
    }
}
