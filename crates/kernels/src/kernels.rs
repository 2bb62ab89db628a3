//! Assembly emitters for the DNN kernel library.
//!
//! All kernels follow one calling convention (documented per emitter):
//! pointers and sizes in `a0..a7`, requantisation constants in `s2`/`s3`,
//! `t0..t6` and `s4..s11` are clobbered, return with `ret`.

use crate::asm::Assembler;
use pcount_isa::reg;
use pcount_quant::Precision;

/// Output encoding of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Requantised, packed activation at the given precision.
    Packed(Precision),
    /// Raw 32-bit accumulators (used for the final logits).
    Raw32,
}

/// A kernel specialisation: input activation/weight precision, output
/// encoding and whether the SDOTP SIMD instructions are available
/// (MAUPITI) or a scalar fallback must be used (vanilla IBEX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelVariant {
    /// Precision of input activations and weights.
    pub input: Precision,
    /// Output encoding.
    pub output: OutputFormat,
    /// Use the SDOTP extension.
    pub simd: bool,
}

impl KernelVariant {
    /// A short unique label suffix for this variant.
    pub fn suffix(&self) -> String {
        let input = match self.input {
            Precision::Int8 => "i8",
            Precision::Int4 => "i4",
        };
        let output = match self.output {
            OutputFormat::Packed(Precision::Int8) => "o8",
            OutputFormat::Packed(Precision::Int4) => "o4",
            OutputFormat::Raw32 => "o32",
        };
        let simd = if self.simd { "simd" } else { "scalar" };
        format!("{input}_{output}_{simd}")
    }
}

/// Emits the inner channel (dot-product) loop.
///
/// Expects `t1` = activation pointer, `t2` = weight pointer, `a5` = bytes
/// per pixel/vector, accumulates into `s7`. Clobbers `t0, t3, t4, t5` and
/// advances `t1`/`t2`.
fn emit_channel_loop(asm: &mut Assembler, prefix: &str, input: Precision, simd: bool) {
    let loop_label = format!("{prefix}_ch");
    match (simd, input) {
        (true, Precision::Int8) => {
            asm.srli(reg::T3, reg::A5, 2);
            asm.label(&loop_label);
            asm.lw(reg::T4, reg::T1, 0);
            asm.lw(reg::T5, reg::T2, 0);
            asm.sdotp8(reg::S7, reg::T4, reg::T5);
            asm.addi(reg::T1, reg::T1, 4);
            asm.addi(reg::T2, reg::T2, 4);
            asm.addi(reg::T3, reg::T3, -1);
            asm.bne(reg::T3, reg::ZERO, &loop_label);
        }
        (true, Precision::Int4) => {
            asm.srli(reg::T3, reg::A5, 2);
            asm.label(&loop_label);
            asm.lw(reg::T4, reg::T1, 0);
            asm.lw(reg::T5, reg::T2, 0);
            asm.sdotp4(reg::S7, reg::T4, reg::T5);
            asm.addi(reg::T1, reg::T1, 4);
            asm.addi(reg::T2, reg::T2, 4);
            asm.addi(reg::T3, reg::T3, -1);
            asm.bne(reg::T3, reg::ZERO, &loop_label);
        }
        (false, Precision::Int8) => {
            asm.mv(reg::T3, reg::A5);
            asm.label(&loop_label);
            asm.lb(reg::T4, reg::T1, 0);
            asm.lb(reg::T5, reg::T2, 0);
            asm.mul(reg::T4, reg::T4, reg::T5);
            asm.add(reg::S7, reg::S7, reg::T4);
            asm.addi(reg::T1, reg::T1, 1);
            asm.addi(reg::T2, reg::T2, 1);
            asm.addi(reg::T3, reg::T3, -1);
            asm.bne(reg::T3, reg::ZERO, &loop_label);
        }
        (false, Precision::Int4) => {
            // Two channels per byte: sign-extend each nibble explicitly.
            // `gp` is used as an extra scratch register (the bare-metal
            // kernels have no runtime that reserves it) because every
            // temporary register is live in the surrounding convolution
            // loops.
            asm.mv(reg::T3, reg::A5);
            asm.label(&loop_label);
            asm.lb(reg::T4, reg::T1, 0);
            asm.lb(reg::T5, reg::T2, 0);
            // Low nibbles.
            asm.slli(reg::T0, reg::T4, 28);
            asm.srai(reg::T0, reg::T0, 28);
            asm.slli(reg::GP, reg::T5, 28);
            asm.srai(reg::GP, reg::GP, 28);
            asm.mul(reg::T0, reg::T0, reg::GP);
            asm.add(reg::S7, reg::S7, reg::T0);
            // High nibbles (the byte was sign-extended by lb).
            asm.srai(reg::T4, reg::T4, 4);
            asm.srai(reg::T5, reg::T5, 4);
            asm.mul(reg::T4, reg::T4, reg::T5);
            asm.add(reg::S7, reg::S7, reg::T4);
            asm.addi(reg::T1, reg::T1, 1);
            asm.addi(reg::T2, reg::T2, 1);
            asm.addi(reg::T3, reg::T3, -1);
            asm.bne(reg::T3, reg::ZERO, &loop_label);
        }
    }
}

/// Emits requantisation of the accumulator `s7` into `t0`:
/// `t0 = clamp(relu(round((s7 * s2) >> 16)), 0, s3)`.
fn emit_requant(asm: &mut Assembler, prefix: &str) {
    asm.mulh(reg::T0, reg::S7, reg::S2);
    asm.mul(reg::T1, reg::S7, reg::S2);
    asm.slli(reg::T0, reg::T0, 16);
    asm.srli(reg::T2, reg::T1, 16);
    asm.or(reg::T0, reg::T0, reg::T2);
    asm.srli(reg::T1, reg::T1, 15);
    asm.andi(reg::T1, reg::T1, 1);
    asm.add(reg::T0, reg::T0, reg::T1);
    // ReLU.
    let noneg = format!("{prefix}_noneg");
    asm.bge(reg::T0, reg::ZERO, &noneg);
    asm.li(reg::T0, 0);
    asm.label(&noneg);
    // Clamp at qmax (s3).
    let noclamp = format!("{prefix}_noclamp");
    asm.bge(reg::S3, reg::T0, &noclamp);
    asm.mv(reg::T0, reg::S3);
    asm.label(&noclamp);
}

/// Emits a packed activation store of the value in `t0` at element index
/// `t1` relative to base `a3`. Clobbers `t1, t2, t3`.
fn emit_store_packed(asm: &mut Assembler, prefix: &str, precision: Precision) {
    match precision {
        Precision::Int8 => {
            asm.add(reg::T1, reg::T1, reg::A3);
            asm.sb(reg::T0, reg::T1, 0);
        }
        Precision::Int4 => {
            let hi = format!("{prefix}_hi");
            let done = format!("{prefix}_stored");
            asm.andi(reg::T2, reg::T1, 1);
            asm.srli(reg::T1, reg::T1, 1);
            asm.add(reg::T1, reg::T1, reg::A3);
            asm.andi(reg::T0, reg::T0, 0xF);
            asm.bne(reg::T2, reg::ZERO, &hi);
            // Even channel: overwrite the byte (high nibble is filled by the
            // following odd channel or stays zero for padding).
            asm.sb(reg::T0, reg::T1, 0);
            asm.jump(&done);
            asm.label(&hi);
            asm.lbu(reg::T3, reg::T1, 0);
            asm.andi(reg::T3, reg::T3, 0x0F);
            asm.slli(reg::T0, reg::T0, 4);
            asm.or(reg::T3, reg::T3, reg::T0);
            asm.sb(reg::T3, reg::T1, 0);
            asm.label(&done);
        }
    }
}

/// Emits a sign-extended packed activation load: element index in `idx`,
/// base in `base`, result in `dst`. Clobbers `dst` and `scratch`.
fn emit_load_packed(
    asm: &mut Assembler,
    prefix: &str,
    precision: Precision,
    base: u8,
    idx: u8,
    dst: u8,
    scratch: u8,
) {
    match precision {
        Precision::Int8 => {
            asm.add(scratch, base, idx);
            asm.lb(dst, scratch, 0);
        }
        Precision::Int4 => {
            let hi = format!("{prefix}_lhi");
            let done = format!("{prefix}_ldone");
            asm.andi(dst, idx, 1);
            asm.srli(scratch, idx, 1);
            asm.add(scratch, scratch, base);
            asm.bne(dst, reg::ZERO, &hi);
            asm.lb(dst, scratch, 0);
            asm.slli(dst, dst, 28);
            asm.srai(dst, dst, 28);
            asm.jump(&done);
            asm.label(&hi);
            asm.lb(dst, scratch, 0);
            asm.srai(dst, dst, 4);
            asm.label(&done);
        }
    }
}

/// Emits a 3x3, stride-1, pad-1 convolution kernel named `name`.
///
/// Calling convention:
/// * `a0` input activations (channel-last, padded, packed)
/// * `a1` weights (`[out][ky][kx][in_pad]`, packed)
/// * `a2` 32-bit biases
/// * `a3` output activations (channel-last, padded, packed)
/// * `a4` spatial size (input == output)
/// * `a5` bytes per input pixel (= per weight tap)
/// * `a6` real output channels
/// * `a7` padded output channel stride (elements)
/// * `s2` requantisation multiplier, `s3` output clamp magnitude
pub fn emit_conv3x3(asm: &mut Assembler, name: &str, variant: KernelVariant) {
    let out_precision = match variant.output {
        OutputFormat::Packed(p) => p,
        OutputFormat::Raw32 => panic!("convolutions always produce packed activations"),
    };
    let p = format!("{name}_{}", variant.suffix());
    asm.label(name);
    asm.li(reg::S4, 0); // co
    asm.label(format!("{p}_co"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S4,
        reg::A6,
        format!("{p}_co_end"),
    );
    // bias -> s9
    asm.slli(reg::T0, reg::S4, 2);
    asm.add(reg::T0, reg::T0, reg::A2);
    asm.lw(reg::S9, reg::T0, 0);
    // w_co_base -> s10 = a1 + co * 9 * a5
    asm.li(reg::T0, 9);
    asm.mul(reg::T0, reg::T0, reg::A5);
    asm.mul(reg::T0, reg::T0, reg::S4);
    asm.add(reg::S10, reg::A1, reg::T0);
    asm.li(reg::S5, 0); // oy
    asm.label(format!("{p}_oy"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S5,
        reg::A4,
        format!("{p}_oy_end"),
    );
    asm.li(reg::S6, 0); // ox
    asm.label(format!("{p}_ox"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S6,
        reg::A4,
        format!("{p}_ox_end"),
    );
    asm.mv(reg::S7, reg::S9); // acc = bias
    asm.li(reg::S8, 0); // ky
    asm.label(format!("{p}_ky"));
    asm.li(reg::T0, 3);
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S8,
        reg::T0,
        format!("{p}_ky_end"),
    );
    // iy = oy + ky - 1, bounds check.
    asm.add(reg::S11, reg::S5, reg::S8);
    asm.addi(reg::S11, reg::S11, -1);
    asm.blt(reg::S11, reg::ZERO, format!("{p}_ky_next"));
    asm.bge(reg::S11, reg::A4, format!("{p}_ky_next"));
    asm.li(reg::T6, 0); // kx
    asm.label(format!("{p}_kx"));
    asm.li(reg::T0, 3);
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::T6,
        reg::T0,
        format!("{p}_kx_end"),
    );
    // ix = ox + kx - 1, bounds check.
    asm.add(reg::T0, reg::S6, reg::T6);
    asm.addi(reg::T0, reg::T0, -1);
    asm.blt(reg::T0, reg::ZERO, format!("{p}_kx_next"));
    asm.bge(reg::T0, reg::A4, format!("{p}_kx_next"));
    // x_ptr (t1) = a0 + (iy*H + ix) * a5
    asm.mul(reg::T1, reg::S11, reg::A4);
    asm.add(reg::T1, reg::T1, reg::T0);
    asm.mul(reg::T1, reg::T1, reg::A5);
    asm.add(reg::T1, reg::T1, reg::A0);
    // w_ptr (t2) = s10 + (ky*3 + kx) * a5
    asm.li(reg::T2, 3);
    asm.mul(reg::T2, reg::T2, reg::S8);
    asm.add(reg::T2, reg::T2, reg::T6);
    asm.mul(reg::T2, reg::T2, reg::A5);
    asm.add(reg::T2, reg::T2, reg::S10);
    emit_channel_loop(asm, &format!("{p}_k{}", "x"), variant.input, variant.simd);
    asm.label(format!("{p}_kx_next"));
    asm.addi(reg::T6, reg::T6, 1);
    asm.jump(format!("{p}_kx"));
    asm.label(format!("{p}_kx_end"));
    asm.label(format!("{p}_ky_next"));
    asm.addi(reg::S8, reg::S8, 1);
    asm.jump(format!("{p}_ky"));
    asm.label(format!("{p}_ky_end"));
    // Requantise and store at element index (oy*H + ox) * a7 + co.
    emit_requant(asm, &format!("{p}_rq"));
    asm.mul(reg::T1, reg::S5, reg::A4);
    asm.add(reg::T1, reg::T1, reg::S6);
    asm.mul(reg::T1, reg::T1, reg::A7);
    asm.add(reg::T1, reg::T1, reg::S4);
    emit_store_packed(asm, &format!("{p}_st"), out_precision);
    asm.addi(reg::S6, reg::S6, 1);
    asm.jump(format!("{p}_ox"));
    asm.label(format!("{p}_ox_end"));
    asm.addi(reg::S5, reg::S5, 1);
    asm.jump(format!("{p}_oy"));
    asm.label(format!("{p}_oy_end"));
    asm.addi(reg::S4, reg::S4, 1);
    asm.jump(format!("{p}_co"));
    asm.label(format!("{p}_co_end"));
    asm.ret();
}

/// Emits a fully connected kernel named `name`.
///
/// Calling convention:
/// * `a0` input activation vector (padded, packed)
/// * `a1` weights (`[out][in_pad]`, packed)
/// * `a2` 32-bit biases
/// * `a3` output (packed activations or raw 32-bit words)
/// * `a4` real output features
/// * `a5` bytes of the input vector
/// * `s2`/`s3` requantisation constants (ignored for [`OutputFormat::Raw32`])
pub fn emit_fc(asm: &mut Assembler, name: &str, variant: KernelVariant) {
    let p = format!("{name}_{}", variant.suffix());
    asm.label(name);
    asm.li(reg::S4, 0); // o
    asm.label(format!("{p}_o"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S4,
        reg::A4,
        format!("{p}_o_end"),
    );
    // acc = bias[o]
    asm.slli(reg::T0, reg::S4, 2);
    asm.add(reg::T0, reg::T0, reg::A2);
    asm.lw(reg::S7, reg::T0, 0);
    // x_ptr = a0, w_ptr = a1 + o * a5
    asm.mv(reg::T1, reg::A0);
    asm.mul(reg::T2, reg::S4, reg::A5);
    asm.add(reg::T2, reg::T2, reg::A1);
    emit_channel_loop(asm, &format!("{p}_dot"), variant.input, variant.simd);
    match variant.output {
        OutputFormat::Packed(out_precision) => {
            emit_requant(asm, &format!("{p}_rq"));
            asm.mv(reg::T1, reg::S4);
            emit_store_packed(asm, &format!("{p}_st"), out_precision);
        }
        OutputFormat::Raw32 => {
            asm.slli(reg::T1, reg::S4, 2);
            asm.add(reg::T1, reg::T1, reg::A3);
            asm.sw(reg::S7, reg::T1, 0);
        }
    }
    asm.addi(reg::S4, reg::S4, 1);
    asm.jump(format!("{p}_o"));
    asm.label(format!("{p}_o_end"));
    asm.ret();
}

/// Emits a 2x2, stride-2 max-pooling kernel named `name`.
///
/// Calling convention:
/// * `a0` input activations (channel-last, padded, packed)
/// * `a1` output activations (same channel layout, half the spatial size)
/// * `a4` input spatial size
/// * `a5` padded channel count (elements)
pub fn emit_maxpool2x2(asm: &mut Assembler, name: &str, precision: Precision) {
    let p = format!(
        "{name}_{}",
        match precision {
            Precision::Int8 => "i8",
            Precision::Int4 => "i4",
        }
    );
    asm.label(name);
    asm.srli(reg::T6, reg::A4, 1); // output spatial size
    asm.li(reg::S4, 0); // oy
    asm.label(format!("{p}_py"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S4,
        reg::T6,
        format!("{p}_py_end"),
    );
    asm.li(reg::S5, 0); // ox
    asm.label(format!("{p}_px"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S5,
        reg::T6,
        format!("{p}_px_end"),
    );
    asm.li(reg::S6, 0); // c
    asm.label(format!("{p}_pc"));
    asm.branch(
        pcount_isa::BranchOp::Bge,
        reg::S6,
        reg::A5,
        format!("{p}_pc_end"),
    );
    // Best value accumulates in s7.
    asm.li(reg::S7, -1000);
    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        let tag = format!("{p}_e{dy}{dx}");
        // element index = ((2*oy + dy) * H + (2*ox + dx)) * C + c  -> s9
        asm.slli(reg::S8, reg::S4, 1);
        asm.addi(reg::S8, reg::S8, dy);
        asm.mul(reg::S8, reg::S8, reg::A4);
        asm.slli(reg::S9, reg::S5, 1);
        asm.addi(reg::S9, reg::S9, dx);
        asm.add(reg::S8, reg::S8, reg::S9);
        asm.mul(reg::S8, reg::S8, reg::A5);
        asm.add(reg::S8, reg::S8, reg::S6);
        emit_load_packed(asm, &tag, precision, reg::A0, reg::S8, reg::S9, reg::S10);
        // s7 = max(s7, s9)
        let skip = format!("{tag}_skip");
        asm.bge(reg::S7, reg::S9, &skip);
        asm.mv(reg::S7, reg::S9);
        asm.label(&skip);
    }
    // Output element index = (oy*Hout + ox) * C + c -> t1, value in t0.
    asm.mv(reg::T0, reg::S7);
    asm.mul(reg::T1, reg::S4, reg::T6);
    asm.add(reg::T1, reg::T1, reg::S5);
    asm.mul(reg::T1, reg::T1, reg::A5);
    asm.add(reg::T1, reg::T1, reg::S6);
    // The store helper expects the output base in a3: pooling writes to a1,
    // so temporarily swap (a3 is caller-saved between kernel calls).
    asm.mv(reg::A3, reg::A1);
    emit_store_packed(asm, &format!("{p}_st"), precision);
    asm.addi(reg::S6, reg::S6, 1);
    asm.jump(format!("{p}_pc"));
    asm.label(format!("{p}_pc_end"));
    asm.addi(reg::S5, reg::S5, 1);
    asm.jump(format!("{p}_px"));
    asm.label(format!("{p}_px_end"));
    asm.addi(reg::S4, reg::S4, 1);
    asm.jump(format!("{p}_py"));
    asm.label(format!("{p}_py_end"));
    asm.ret();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcount_isa::{Cpu, DMEM_BASE};

    /// Runs a single FC layer through the emitted kernel and checks it
    /// against a scalar host computation.
    fn check_fc(variant: KernelVariant) {
        let in_features: usize = match variant.input {
            Precision::Int8 => 12,
            Precision::Int4 => 16,
        };
        let out_features = 3usize;
        // Deterministic small test vectors within the precision's range.
        let qmax = variant.input.qmax();
        let x: Vec<i8> = (0..in_features)
            .map(|i| (((i as i32 * 3 + 1) % (2 * qmax + 1)) - qmax) as i8)
            .collect();
        let w: Vec<i8> = (0..in_features * out_features)
            .map(|i| (((i as i32 * 7 + 2) % (2 * qmax + 1)) - qmax) as i8)
            .collect();
        let bias: Vec<i32> = vec![5, -3, 100];
        let mult = 1 << 14; // effective scale 0.25
        let out_qmax = match variant.output {
            OutputFormat::Packed(p) => p.qmax(),
            OutputFormat::Raw32 => 0,
        };

        // Host golden model replicating the kernel arithmetic.
        let golden: Vec<i32> = (0..out_features)
            .map(|o| {
                let mut acc = bias[o];
                for i in 0..in_features {
                    acc += x[i] as i32 * w[o * in_features + i] as i32;
                }
                match variant.output {
                    OutputFormat::Raw32 => acc,
                    OutputFormat::Packed(p) => {
                        let rq = pcount_quant::RequantParams {
                            mult,
                            shift: pcount_quant::RequantParams::SHIFT,
                        };
                        rq.apply(acc).max(0).min(out_qmax).min(p.qmax())
                    }
                }
            })
            .collect();

        // Assemble: main sets up registers and calls the kernel.
        let x_addr = DMEM_BASE;
        let w_addr = DMEM_BASE + 64;
        let b_addr = DMEM_BASE + 512;
        let o_addr = DMEM_BASE + 600;
        let x_packed = crate::layout::pack_values(&x, variant.input);
        let w_packed = crate::layout::pack_values(&w, variant.input);
        let in_bytes = x_packed.len();

        let mut asm = Assembler::new();
        asm.li(reg::A0, x_addr as i32);
        asm.li(reg::A1, w_addr as i32);
        asm.li(reg::A2, b_addr as i32);
        asm.li(reg::A3, o_addr as i32);
        asm.li(reg::A4, out_features as i32);
        asm.li(reg::A5, in_bytes as i32);
        asm.li(reg::S2, mult);
        asm.li(reg::S3, out_qmax);
        asm.call("fc");
        asm.ebreak();
        emit_fc(&mut asm, "fc", variant);
        let program = asm.assemble().unwrap();

        let mut cpu = Cpu::new_default();
        cpu.load_program(&program).unwrap();
        cpu.mem.write_dmem(x_addr, &x_packed);
        cpu.mem.write_dmem(w_addr, &w_packed);
        let bias_bytes: Vec<u8> = bias.iter().flat_map(|b| b.to_le_bytes()).collect();
        cpu.mem.write_dmem(b_addr, &bias_bytes);
        cpu.run(1_000_000).unwrap();

        match variant.output {
            OutputFormat::Raw32 => {
                for (o, &expected) in golden.iter().enumerate() {
                    let bytes = cpu.mem.read_dmem(o_addr + 4 * o as u32, 4);
                    let got = i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                    assert_eq!(got, expected, "output {o} ({variant:?})");
                }
            }
            OutputFormat::Packed(Precision::Int8) => {
                for (o, &expected) in golden.iter().enumerate() {
                    let got = cpu.mem.read_dmem(o_addr + o as u32, 1)[0] as i8 as i32;
                    assert_eq!(got, expected, "output {o} ({variant:?})");
                }
            }
            OutputFormat::Packed(Precision::Int4) => {
                for (o, &expected) in golden.iter().enumerate() {
                    let byte = cpu.mem.read_dmem(o_addr + (o / 2) as u32, 1)[0];
                    let nibble = if o % 2 == 0 { byte & 0xF } else { byte >> 4 };
                    let got = if nibble >= 8 {
                        nibble as i32 - 16
                    } else {
                        nibble as i32
                    };
                    assert_eq!(got, expected, "output {o} ({variant:?})");
                }
            }
        }
        // SDOTP instructions appear exactly when SIMD is requested.
        assert_eq!(variant.simd, cpu.sdotp > 0);
    }

    #[test]
    fn fc_int8_simd_matches_host() {
        check_fc(KernelVariant {
            input: Precision::Int8,
            output: OutputFormat::Raw32,
            simd: true,
        });
    }

    #[test]
    fn fc_int8_scalar_matches_host() {
        check_fc(KernelVariant {
            input: Precision::Int8,
            output: OutputFormat::Packed(Precision::Int8),
            simd: false,
        });
    }

    #[test]
    fn fc_int4_simd_matches_host() {
        check_fc(KernelVariant {
            input: Precision::Int4,
            output: OutputFormat::Packed(Precision::Int8),
            simd: true,
        });
    }

    #[test]
    fn fc_int4_scalar_matches_host() {
        check_fc(KernelVariant {
            input: Precision::Int4,
            output: OutputFormat::Packed(Precision::Int4),
            simd: false,
        });
    }

    #[test]
    fn fc_int8_simd_packed_int4_output() {
        check_fc(KernelVariant {
            input: Precision::Int8,
            output: OutputFormat::Packed(Precision::Int4),
            simd: true,
        });
    }

    #[test]
    fn simd_and_scalar_fc_produce_identical_results() {
        // Already covered indirectly: both are compared against the same
        // golden; this test makes the equivalence explicit for INT8/raw.
        check_fc(KernelVariant {
            input: Precision::Int8,
            output: OutputFormat::Raw32,
            simd: false,
        });
    }
}
