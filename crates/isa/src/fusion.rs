//! Macro-op fusion: idiom recognition over decoded superblock traces.
//!
//! The deployed CNN spends nearly all of its simulated time in two loop
//! shapes the kernel code generator in `pcount-kernels` emits: the SDOTP
//! MAC channel loop and the conv3x3 kernel-x guard nest that embeds it.
//! This module recognises those shapes once, at trace-build time, and
//! lowers each to a [`FusedOp`] attached to the block. The engine then
//! executes the whole loop as **one host-level loop per trace entry**:
//! the trip count comes from the live loop-carried registers, the body
//! reads data memory through direct slice access on [`Memory`], and
//! cycles / instret / pipeline stalls / memory-model costs are
//! bulk-charged from per-path [`PathCost`] summaries precomputed here by
//! one function for both idioms (the channel loop's taken pass is the
//! nest's extra channel pass) — bit-identical to per-instruction
//! dispatch. Both executors return a [`FusedOutcome`], which the engine
//! charges in one place: pipeline counters from [`FusedOutcome::cost`],
//! memory-model stalls from [`FusedOutcome::contended`] through
//! `MemModelState::charge_counts`.
//!
//! The channel loop is a do-while counted loop ending in
//! `addi cnt, cnt, -1; bne cnt, x0, entry`. Recognition is conservative:
//! the loop-carried registers must be pairwise distinct (no aliasing
//! surprises) and every fused entry re-validates that **all** loads of
//! the planned iterations stay inside data memory — any trip count that
//! would fault, wrap an address or touch instruction memory falls back
//! to the unfused trace, which reproduces the exact architectural
//! behaviour (including the faulting instruction). Fused loops only read
//! memory, so executing one never takes `&mut Memory`.

use crate::cpu::{sdotp4, sdotp8};
use crate::instr::{Decoded, Op};
use crate::memory::{Memory, DMEM_BASE};
use crate::pipeline::LOAD_USE_STALL;

/// The loop idiom a [`FusedOp`] lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedKind {
    /// 8-bit SDOTP multiply-accumulate reduction loop.
    MacSdotp8,
    /// 4-bit SDOTP multiply-accumulate reduction loop.
    MacSdotp4,
    /// The whole 3-wide convolution kernel-x guard loop: padding guards,
    /// input/weight pointer setup and the embedded SDOTP channel loop,
    /// executed as one host loop per kernel-x iteration.
    ConvNest,
}

impl FusedKind {
    /// Stable machine-readable name (reported by `Cpu::hottest_blocks`
    /// and `Cpu::fusion_profile`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FusedKind::MacSdotp8 => "mac_sdotp8",
            FusedKind::MacSdotp4 => "mac_sdotp4",
            FusedKind::ConvNest => "conv3x3_nest",
        }
    }
}

/// Pattern-specific half of a fused loop: what the engine needs to run
/// and charge it.
#[derive(Debug, Clone)]
pub(crate) enum FusedDetail {
    /// The SDOTP channel loop (see [`MacLoop`]).
    Mac(MacLoop),
    /// The 25-instruction convolution kernel-x guard loop (see
    /// [`NestDetail`]), boxed to keep `FusedOp` small for the plain MAC
    /// loop.
    ConvNest(Box<NestDetail>),
}

/// Instructions per MAC-loop iteration, back-edge branch included.
pub(crate) const MAC_LEN: usize = 7;

/// A fused SDOTP channel loop, `lw ld1, off1(p1); lw ld2, off2(p2);
/// sdotp acc, ld1, ld2; addi p1, p1, s1; addi p2, p2, s2;
/// addi cnt, cnt, -1; bne cnt, x0, entry`: its registers by index, its
/// immediates, and the costs of one pass.
#[derive(Debug, Clone)]
pub(crate) struct MacLoop {
    /// Loop counter register (`addi cnt, cnt, -1; bne cnt, x0, entry`).
    pub cnt: u8,
    /// Costs of one pass that takes the back edge, entered with no
    /// pending load (as after the back edge itself).
    pub pass: PathCost,
    /// Pipeline cycles and stalls of the final pass, which falls through
    /// the back edge. Its instructions, SDOTP and memory accesses retire
    /// through the trace's exit, so they are left at zero here.
    pub last: PathCost,
    four_bit: bool,
    p1: u8,
    off1: u32,
    s1: u32,
    p2: u8,
    off2: u32,
    s2: u32,
    ld1: u8,
    ld2: u8,
    acc: u8,
    /// The SDOTP reads `(ld2, ld1)` instead of `(ld1, ld2)`.
    swap: bool,
}

impl MacLoop {
    /// The fused kind of this loop.
    fn kind(&self) -> FusedKind {
        if self.four_bit {
            FusedKind::MacSdotp4
        } else {
            FusedKind::MacSdotp8
        }
    }
}

/// Summary of one architectural path through the nest: what the
/// per-instruction engine would have charged for exactly that
/// instruction sequence. The memory-model fields are independent of
/// [`crate::MaupitiMemConfig`], since CPUs with different configs share
/// one block table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathCost {
    /// Instructions retired on the path.
    pub instret: u64,
    /// Cycles charged, load-use stalls and taken-branch flushes
    /// included (unconditional-jump flushes are tracked in `flushes`
    /// only, exactly like the engine's per-instruction accounting).
    pub cycles: u64,
    /// Load-use stall cycles within `cycles`.
    pub stalls: u64,
    /// Flush cycles (taken branches and unconditional jumps).
    pub flushes: u64,
    /// SDOTP instructions retired on the path.
    pub sdotp: u64,
    /// PC redirects (taken branches and jumps), each a prefetch-buffer
    /// miss under the Maupiti memory model.
    pub misses: u64,
    /// One bit per data access, at its offset from the path's first
    /// instruction. Every access precedes the path's first redirect, so
    /// the access at offset `k` contends for the SRAM port exactly when
    /// the path is entered with more than `k` instructions left in the
    /// refill window.
    pub accesses: u32,
}

impl PathCost {
    /// Data accesses that contend with a prefetch refill when the path
    /// is entered with `window` instructions left in the refill window.
    pub fn contended(&self, window: u32) -> u64 {
        let covered = 1u32.checked_shl(window).map_or(u32::MAX, |bit| bit - 1);
        (self.accesses & covered).count_ones() as u64
    }
}

/// Operands and per-path costs of a fused convolution kernel-x loop —
/// the exact 25-instruction shape `emit_conv3x3` generates:
///
/// ```text
///  0  li    scratch, kmax          ; loop bound
///  1  bge   kx, scratch, kx_end    ; side exit: nest finished
///  2  add   scratch, ox, kx        ; ix = ox + kx
///  3  addi  scratch, scratch, bias ; ix -= pad
///  4  blt   scratch, x0,  skip     ; left-padding guard
///  5  bge   scratch, w,   skip     ; right-padding guard
///  6..9    xptr = ((iy*w)+ix)*ch + xbase
/// 10..14   wptr = ((ky_mul*ky)+kx)*ch + wbase
/// 15  srli  cnt, ch, trip_sh       ; channel-loop trip count
/// 16..22   SDOTP MAC channel loop (the `Mac` pattern)
/// 23  addi  kx, kx, 1              ; skip: guards land here
/// 24  jal   x0, head
/// ```
///
/// A skip iteration executes `{0..4, 23, 24}` (left) or `{0..5, 23, 24}`
/// (right) — the very same pc sequence the unfused engine retires when
/// a guard side-exits into the `kx_next` tail block — so bulk-charging
/// the precomputed [`PathCost`] per path keeps every counter
/// bit-identical.
#[derive(Debug, Clone)]
pub(crate) struct NestDetail {
    /// Kernel-x loop counter register.
    pub kx: u8,
    /// Loop bound (`li scratch, kmax`), compared signed.
    pub kmax: u32,
    /// Scratch register: holds the bound for the exit check, then `ix`.
    pub scratch: u8,
    /// Output-x register (`ix = ox + kx + bias`).
    pub ox: u8,
    /// Signed bias added to `ix` (the negated padding).
    pub ix_bias: u32,
    /// Spatial-size register the right-padding guard compares against.
    pub w: u8,
    /// Input-row register (`iy`, precomputed by the enclosing loop).
    pub iy: u8,
    /// Bytes-per-pixel register (also sourcing the trip count).
    pub ch: u8,
    /// Input tensor base-address register.
    pub xbase: u8,
    /// Kernel-y register.
    pub ky: u8,
    /// Immediate multiplying `ky` in the weight index (kernel width).
    pub ky_mul: u32,
    /// Weight base-address register (per output channel).
    pub wbase: u8,
    /// Input pointer register the channel loop walks.
    pub xptr: u8,
    /// Weight pointer register the channel loop walks.
    pub wptr: u8,
    /// Shift turning the byte count into the channel-loop trip count.
    pub trip_sh: u32,
    /// The embedded channel loop.
    pub inner: MacLoop,
    /// Costs of a left-padding skip iteration (7 instructions).
    pub skip_lo: PathCost,
    /// Costs of a right-padding skip iteration (8 instructions).
    pub skip_hi: PathCost,
    /// Costs of a full iteration with a single channel-loop pass
    /// (25 instructions). Each extra channel-loop pass costs the embedded
    /// loop's taken pass, [`MacLoop::pass`].
    pub full1: PathCost,
}

/// What one fused execution did, counted per architectural path so the
/// engine can bulk-charge instret, cycles, stalls, flushes, SDOTPs and
/// memory-model stalls exactly, whichever idiom ran.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedOutcome<'a> {
    /// Loop iterations executed (registers are advanced past all of
    /// them).
    pub iters: u64,
    /// Each path of the idiom with the number of times it ran: the MAC
    /// loop's taken and final passes, or the nest's left skip, right
    /// skip, full iteration and extra channel pass. Unused slots run
    /// zero times.
    pub runs: [(&'a PathCost, u64); 4],
    /// The path of the first iteration: the only one not entered right
    /// after a redirect. `None` when no iteration ran.
    pub first: Option<&'a PathCost>,
    /// Trace positions past the loop head at which the per-instruction
    /// pass resumes: [`MAC_LEN`] after a MAC loop's final pass fell
    /// through its back edge, otherwise 0 (the pass re-runs the head).
    pub resume: usize,
    /// Completed executions of the loop's trace the iterations stand for,
    /// as `Cpu::hottest_blocks` counts them.
    pub executions: u64,
}

impl FusedOutcome<'_> {
    /// Nothing ran yet over the idiom's `paths`; the per-instruction pass
    /// would resume at the head.
    fn new(paths: [&PathCost; 4]) -> FusedOutcome<'_> {
        FusedOutcome {
            iters: 0,
            runs: paths.map(|p| (p, 0)),
            first: None,
            resume: 0,
            executions: 0,
        }
    }

    /// The summed costs of the paths that ran (`accesses` left empty).
    pub(crate) fn cost(&self) -> PathCost {
        let mut sum = PathCost::default();
        for &(p, n) in &self.runs {
            sum.instret += p.instret * n;
            sum.cycles += p.cycles * n;
            sum.stalls += p.stalls * n;
            sum.flushes += p.flushes * n;
            sum.sdotp += p.sdotp * n;
            sum.misses += p.misses * n;
        }
        sum
    }

    /// Data accesses of the paths that ran that contend with a prefetch
    /// refill, for a prefetch buffer of `entries` words. The first
    /// iteration enters with `window` instructions left in the live
    /// refill window; every later path starts right after a redirect (a
    /// taken back edge or the nest's closing `jal`) with a full window.
    pub(crate) fn contended(&self, window: u32, entries: u32) -> u64 {
        let first = self
            .first
            .expect("contended() after at least one iteration");
        let steady: u64 = self
            .runs
            .iter()
            .map(|(p, n)| p.contended(entries) * n)
            .sum();
        steady - first.contended(entries) + first.contended(window)
    }
}

/// A recognised loop idiom attached to a `Block`, with everything the
/// engine needs to bulk-charge one iteration precomputed at build time.
#[derive(Debug, Clone)]
pub(crate) struct FusedOp {
    /// Which idiom this is.
    pub kind: FusedKind,
    /// Trace position of the loop head: the body starts at
    /// `instrs[start]` and its back edge targets it. Zero when the whole
    /// trace is the loop (a self-loop block); nonzero when the loop sits
    /// behind setup code inside a longer trace, which the engine executes
    /// per-instruction before entering the fused loop.
    pub start: usize,
    /// The idiom's operands and costs.
    pub detail: FusedDetail,
}

impl FusedOp {
    /// Executes the loop from its head against the register file and
    /// data memory within `budget` instructions, and says what ran. See
    /// [`MacLoop::execute`] and [`NestDetail::execute`].
    pub(crate) fn execute(
        &self,
        regs: &mut [u32; 32],
        mem: &Memory,
        budget: u64,
    ) -> FusedOutcome<'_> {
        match &self.detail {
            FusedDetail::Mac(mac) => {
                let mut out = mac.execute(regs, mem, budget / MAC_LEN as u64);
                // A taken back edge completes an execution of the trace
                // only when the loop is the whole trace.
                if self.start > 0 {
                    out.executions = 0;
                }
                out
            }
            FusedDetail::ConvNest(nest) => nest.execute(regs, mem, budget),
        }
    }
}

/// `addi rd, rd, imm` with `rd != x0`, the loop-carried update shape.
fn addi_self(d: &Decoded) -> Option<(u8, u32)> {
    match d.op {
        Op::Addi(imm) if d.rd != 0 && d.rd == d.rs1 => Some((d.rd, imm)),
        _ => None,
    }
}

/// All registers pairwise distinct and none of them x0.
fn distinct_nonzero(regs: &[u8]) -> bool {
    let mut mask = 1u32; // x0 pre-set, so any zero register collides
    for &r in regs {
        let bit = 1u32 << (r & 31);
        if mask & bit != 0 {
            return false;
        }
        mask |= bit;
    }
    true
}

/// Recognises a fusible loop idiom anywhere inside a freshly decoded
/// trace. Called once per block by the trace builder.
///
/// Each candidate position is taken as a loop head: the window starting
/// there must match an idiom body whose back-edge branch targets the
/// window's first instruction. Position 0 covers pure self-loop blocks
/// (the back-edge is a side exit to `entry_pc`); later positions cover
/// loops embedded behind setup code — the dominant shape in convolution
/// traces, where pointer arithmetic precedes each channel loop. The
/// first (earliest) match wins; the convolution nest is preferred over
/// the plain MAC loop because it subsumes the channel loop it embeds.
pub(crate) fn recognize(instrs: &[Decoded]) -> Option<FusedOp> {
    (0..instrs.len()).find_map(|start| {
        let w = &instrs[start..];
        let (kind, detail) = match try_nest(w) {
            Some(nest) => (FusedKind::ConvNest, FusedDetail::ConvNest(Box::new(nest))),
            None => {
                let mac = try_mac(w[0].pc, w)?;
                (mac.kind(), FusedDetail::Mac(mac))
            }
        };
        Some(FusedOp {
            kind,
            start,
            detail,
        })
    })
}

/// Length of the nest window in instructions.
const NEST_LEN: usize = 25;
/// Offset of the embedded channel loop inside the nest window.
const NEST_INNER_OFF: usize = 16;
/// Offset of the `addi kx, kx, 1` tail the padding guards skip to.
const NEST_SKIP_OFF: usize = 23;

/// The operand of `d` that is not `r`, for commutative two-register ops.
fn other_operand(d: &Decoded, r: u8) -> Option<u8> {
    if d.rs1 == r {
        Some(d.rs2)
    } else if d.rs2 == r {
        Some(d.rs1)
    } else {
        None
    }
}

/// Costs of one architectural path through the loop window `w`, given
/// as `(position, branch taken)` pairs, mirroring the engine's
/// per-instruction rules exactly: base cycles, load-use interlocks
/// (the path is entered with no pending load; the engine charges a
/// first iteration's incoming load-use stall at the loop head), flush
/// cycles added to `cycles` for taken conditional branches, and flush
/// cycles tracked in `flushes` only for unconditional jumps. Both idioms'
/// only data accesses are the channel loop's two loads, which every path
/// reaches before its first redirect, as [`PathCost::accesses`] requires.
fn path_cost(w: &[Decoded], path: impl IntoIterator<Item = (usize, bool)>) -> PathCost {
    let mut c = PathCost::default();
    let mut load_dest = 0u8;
    for (offset, (i, taken)) in path.into_iter().enumerate() {
        let d = &w[i];
        c.instret += 1;
        let mut cost = d.base_cycles as u64;
        if load_dest != 0 && (d.reads_mask >> load_dest) & 1 != 0 {
            cost += LOAD_USE_STALL;
            c.stalls += LOAD_USE_STALL;
        }
        load_dest = if d.is_load { d.rd } else { 0 };
        if d.is_load || d.is_store {
            debug_assert_eq!(c.misses, 0, "data access after a redirect");
            c.accesses |= 1 << offset;
        }
        c.sdotp += d.is_sdotp() as u64;
        match d.op {
            Op::Beq { .. }
            | Op::Bne { .. }
            | Op::Blt { .. }
            | Op::Bge { .. }
            | Op::Bltu { .. }
            | Op::Bgeu { .. }
                if taken =>
            {
                cost += d.flush_on_take as u64;
                c.flushes += d.flush_on_take as u64;
                c.misses += 1;
            }
            Op::Jal { .. } | Op::JalFollowed { .. } => {
                c.flushes += d.flush_on_take as u64;
                c.misses += 1;
            }
            _ => {}
        }
        c.cycles += cost;
    }
    c
}

/// Matches the convolution kernel-x guard loop (see [`NestDetail`] for
/// the shape). The window must be exactly [`NEST_LEN`] instructions and
/// end the trace: its closing `jal` targets the window head, which the
/// trace builder never follows (the head is already in the trace), so a
/// matching window is always a trace suffix.
fn try_nest(w: &[Decoded]) -> Option<NestDetail> {
    if w.len() != NEST_LEN {
        return None;
    }
    // 0: li scratch, kmax
    let (scratch, kmax) = match w[0].op {
        Op::Addi(imm) if w[0].rs1 == 0 && w[0].rd != 0 => (w[0].rd, imm),
        _ => return None,
    };
    // 1: bge kx, scratch -> nest finished (side exit)
    let kx = match w[1].op {
        Op::Bge { .. } if w[1].rs2 == scratch && w[1].rs1 != 0 => w[1].rs1,
        _ => return None,
    };
    // 2: add scratch, ox, kx
    let ox = match w[2].op {
        Op::Add if w[2].rd == scratch => other_operand(&w[2], kx)?,
        _ => return None,
    };
    // 3: addi scratch, scratch, bias
    let (r3, ix_bias) = addi_self(&w[3])?;
    if r3 != scratch {
        return None;
    }
    // 4: blt scratch, x0 -> skip; 5: bge scratch, w -> skip
    let t_skip = match w[4].op {
        Op::Blt { target } if w[4].rs1 == scratch && w[4].rs2 == 0 => target,
        _ => return None,
    };
    let w_reg = match w[5].op {
        Op::Bge { target } if target == t_skip && w[5].rs1 == scratch && w[5].rs2 != 0 => w[5].rs2,
        _ => return None,
    };
    if t_skip != w[NEST_SKIP_OFF].pc {
        return None;
    }
    // 6..9: xptr = ((iy * w) + ix) * ch + xbase
    let xptr = w[6].rd;
    let iy = match w[6].op {
        Op::Mul if xptr != 0 => other_operand(&w[6], w_reg)?,
        _ => return None,
    };
    if !matches!(w[7].op, Op::Add if w[7].rd == xptr && other_operand(&w[7], xptr) == Some(scratch))
    {
        return None;
    }
    let ch = match w[8].op {
        Op::Mul if w[8].rd == xptr => other_operand(&w[8], xptr)?,
        _ => return None,
    };
    let xbase = match w[9].op {
        Op::Add if w[9].rd == xptr => other_operand(&w[9], xptr)?,
        _ => return None,
    };
    // 10..14: wptr = ((ky_mul * ky) + kx) * ch + wbase
    let (wptr, ky_mul) = match w[10].op {
        Op::Addi(imm) if w[10].rs1 == 0 && w[10].rd != 0 => (w[10].rd, imm),
        _ => return None,
    };
    let ky = match w[11].op {
        Op::Mul if w[11].rd == wptr => other_operand(&w[11], wptr)?,
        _ => return None,
    };
    if !matches!(w[12].op, Op::Add if w[12].rd == wptr && other_operand(&w[12], wptr) == Some(kx)) {
        return None;
    }
    if !matches!(w[13].op, Op::Mul if w[13].rd == wptr && other_operand(&w[13], wptr) == Some(ch)) {
        return None;
    }
    let wbase = match w[14].op {
        Op::Add if w[14].rd == wptr => other_operand(&w[14], wptr)?,
        _ => return None,
    };
    // 15: srli cnt, ch, trip_sh
    let (cnt, trip_sh) = match w[15].op {
        Op::Srli(sh) if w[15].rs1 == ch && w[15].rd != 0 => (w[15].rd, sh),
        _ => return None,
    };
    // 16..22: the embedded SDOTP channel loop.
    let inner = try_mac(w[NEST_INNER_OFF].pc, &w[NEST_INNER_OFF..])?;
    if inner.cnt != cnt {
        return None;
    }
    let MacLoop {
        p1,
        p2,
        ld1,
        ld2,
        acc,
        ..
    } = inner;
    if (p1, p2) != (xptr, wptr) && (p1, p2) != (wptr, xptr) {
        return None;
    }
    // 23: addi kx, kx, 1; 24: jal x0, head
    if addi_self(&w[NEST_SKIP_OFF]) != Some((kx, 1)) {
        return None;
    }
    if !matches!(w[24].op, Op::Jal { target, .. } if target == w[0].pc && w[24].rd == 0) {
        return None;
    }
    if !distinct_nonzero(&[
        kx, scratch, ox, w_reg, iy, ch, xbase, ky, wbase, xptr, wptr, cnt, ld1, ld2, acc,
    ]) {
        return None;
    }
    // A guard skip runs the head up to its taken guard, then the
    // `addi kx` tail and the closing `jal`.
    let skip = |guard: usize| {
        let tail = [NEST_SKIP_OFF, NEST_LEN - 1];
        path_cost(w, (0..=guard).chain(tail).map(|i| (i, i == guard)))
    };
    let skip_lo = skip(4);
    let skip_hi = skip(5);
    let full1 = path_cost(w, (0..NEST_LEN).map(|i| (i, false)));
    Some(NestDetail {
        kx,
        kmax,
        scratch,
        ox,
        ix_bias,
        w: w_reg,
        iy,
        ch,
        xbase,
        ky,
        ky_mul,
        wbase,
        xptr,
        wptr,
        trip_sh,
        inner,
        skip_lo,
        skip_hi,
        full1,
    })
}

/// Matches the 7-instruction SDOTP channel loop `lw ld1, off1(p1);
/// lw ld2, off2(p2); sdotp acc, ld1, ld2; addi p1, p1, s1;
/// addi p2, p2, s2; addi cnt, cnt, -1; bne cnt, x0, entry`.
fn try_mac(entry_pc: u32, instrs: &[Decoded]) -> Option<MacLoop> {
    let back = instrs.get(6)?;
    let cnt = match back.op {
        Op::Bne { target } if target == entry_pc && back.rs2 == 0 && back.rs1 != 0 => back.rs1,
        _ => return None,
    };
    if addi_self(&instrs[5]) != Some((cnt, u32::MAX)) {
        return None;
    }
    let (ld1, p1, off1) = match instrs[0].op {
        Op::Lw(off) if instrs[0].rd != 0 => (instrs[0].rd, instrs[0].rs1, off),
        _ => return None,
    };
    let (ld2, p2, off2) = match instrs[1].op {
        Op::Lw(off) if instrs[1].rd != 0 => (instrs[1].rd, instrs[1].rs1, off),
        _ => return None,
    };
    let four_bit = match instrs[2].op {
        Op::Sdotp8 => false,
        Op::Sdotp4 => true,
        _ => return None,
    };
    let acc = instrs[2].rd;
    let swap = if (instrs[2].rs1, instrs[2].rs2) == (ld1, ld2) {
        false
    } else if (instrs[2].rs1, instrs[2].rs2) == (ld2, ld1) {
        true
    } else {
        return None;
    };
    let (ra, sa) = addi_self(&instrs[3])?;
    let (rb, sb) = addi_self(&instrs[4])?;
    let (s1, s2) = if (ra, rb) == (p1, p2) {
        (sa, sb)
    } else if (ra, rb) == (p2, p1) {
        (sb, sa)
    } else {
        return None;
    };
    if !distinct_nonzero(&[p1, p2, ld1, ld2, acc, cnt]) {
        return None;
    }
    let fall = path_cost(instrs, (0..MAC_LEN).map(|i| (i, false)));
    Some(MacLoop {
        cnt,
        pass: path_cost(instrs, (0..MAC_LEN).map(|i| (i, i == MAC_LEN - 1))),
        last: PathCost {
            cycles: fall.cycles,
            stalls: fall.stalls,
            ..PathCost::default()
        },
        four_bit,
        p1,
        off1,
        s1,
        p2,
        off2,
        s2,
        ld1,
        ld2,
        acc,
        swap,
    })
}

/// Whether every word load of the affine stream `base + off + j*stride`
/// (`j in 0..iters`) stays inside data memory *without wrapping the
/// 32-bit address space*. Checked in wide arithmetic over the two
/// endpoints; a failed check only means "run unfused", never a wrong
/// result.
fn stream_ok(dmem_len: usize, base: u32, off: u32, stride: u32, iters: u64) -> bool {
    let a0 = base.wrapping_add(off) as i128;
    let s = stride as i32 as i128;
    let last = a0 + s * (iters as i128 - 1);
    let (lo, hi) = if s >= 0 { (a0, last) } else { (last, a0) };
    lo >= DMEM_BASE as i128 && hi + 4 <= DMEM_BASE as i128 + dmem_len as i128
}

impl MacLoop {
    /// Executes up to `max_iters` iterations of the loop directly
    /// against the register file and data memory.
    ///
    /// Reads the live trip count from the counter register (a zero
    /// counter wraps: these are do-while loops, so it means 2^32
    /// iterations), executes `min(trip, max_iters)` iterations and
    /// writes back every loop-carried register exactly as the unfused
    /// body would have left it. Runs no iteration — with **no** state
    /// touched — when `max_iters` is zero or any planned access would
    /// leave data memory, so the caller falls back to per-instruction
    /// dispatch and reproduces the exact fault.
    ///
    /// Every iteration but a final one that falls through the back edge
    /// is a taken [`MacLoop::pass`]; that final one runs here but
    /// retires through the trace's exit, so only its pipeline costs
    /// ([`MacLoop::last`]) are charged with the fused loop and the
    /// per-instruction pass resumes past it.
    pub(crate) fn execute(
        &self,
        regs: &mut [u32; 32],
        mem: &Memory,
        max_iters: u64,
    ) -> FusedOutcome<'_> {
        let MacLoop {
            p1,
            off1,
            s1,
            p2,
            off2,
            s2,
            ..
        } = *self;
        let cnt0 = regs[self.cnt as usize];
        let total = if cnt0 == 0 { 1u64 << 32 } else { cnt0 as u64 };
        let iters = total.min(max_iters);
        let dmem = mem.dmem();
        if iters == 0
            || !stream_ok(dmem.len(), regs[p1 as usize], off1, s1, iters)
            || !stream_ok(dmem.len(), regs[p2 as usize], off2, s2, iters)
        {
            return FusedOutcome::new([&self.pass, &self.last, &self.pass, &self.last]);
        }
        self.run(regs, dmem, iters);
        let fell_through = iters == total;
        let taken = iters - fell_through as u64;
        FusedOutcome {
            iters,
            runs: [
                (&self.pass, taken),
                (&self.last, fell_through as u64),
                (&self.pass, 0),
                (&self.last, 0),
            ],
            first: Some(if taken > 0 { &self.pass } else { &self.last }),
            resume: if fell_through { MAC_LEN } else { 0 },
            // Each taken back edge completes one execution of the loop's
            // own trace, exactly as the unfused engine counts them.
            executions: taken,
        }
    }

    /// Runs `iters` iterations of the loop, whose loads the caller has
    /// checked to stay inside `dmem`, and writes back every loop-carried
    /// register.
    fn run(&self, regs: &mut [u32; 32], dmem: &[u8], iters: u64) {
        let MacLoop {
            four_bit,
            p1,
            off1,
            s1,
            p2,
            off2,
            s2,
            ld1,
            ld2,
            acc,
            swap,
            ..
        } = *self;
        let b1 = regs[p1 as usize];
        let b2 = regs[p2 as usize];
        let mut a1 = b1.wrapping_add(off1).wrapping_sub(DMEM_BASE) as usize;
        let mut a2 = b2.wrapping_add(off2).wrapping_sub(DMEM_BASE) as usize;
        let s1i = s1 as i32 as isize;
        let s2i = s2 as i32 as isize;
        let mut accv = regs[acc as usize] as i32;
        let (mut w1, mut w2) = (0u32, 0u32);
        for _ in 0..iters {
            w1 = u32::from_le_bytes([dmem[a1], dmem[a1 + 1], dmem[a1 + 2], dmem[a1 + 3]]);
            w2 = u32::from_le_bytes([dmem[a2], dmem[a2 + 1], dmem[a2 + 2], dmem[a2 + 3]]);
            let (x, y) = if swap { (w2, w1) } else { (w1, w2) };
            // Same accumulation expression as the engines, so overflow
            // behaviour is identical too.
            accv += if four_bit { sdotp4(x, y) } else { sdotp8(x, y) };
            a1 = a1.wrapping_add_signed(s1i);
            a2 = a2.wrapping_add_signed(s2i);
        }
        regs[ld1 as usize] = w1;
        regs[ld2 as usize] = w2;
        regs[acc as usize] = accv as u32;
        regs[p1 as usize] = b1.wrapping_add((iters as u32).wrapping_mul(s1));
        regs[p2 as usize] = b2.wrapping_add((iters as u32).wrapping_mul(s2));
        regs[self.cnt as usize] = regs[self.cnt as usize].wrapping_sub(iters as u32);
    }
}

impl NestDetail {
    /// Executes whole kernel-x iterations of the nest, stopping only at
    /// iteration boundaries.
    ///
    /// Each iteration replays the exact register effects of its
    /// architectural path: the guards are evaluated on the live
    /// registers, pointer setup uses the same wrapping arithmetic as the
    /// instruction sequence, and the embedded channel loop runs through
    /// the plain MAC executor. The loop stops — leaving the registers at
    /// a clean iteration boundary, so the per-instruction pass resumed
    /// at the nest head reproduces the exact fault, timeout or loop exit
    /// — when the counter reaches the bound, when `budget` cannot cover
    /// the next iteration in full, when the channel-loop trip count is
    /// zero (the do-while underflow pathology) or when a channel-loop
    /// access would leave data memory.
    ///
    /// Every iteration ends in the closing jump back to the nest head and
    /// counts as one execution of the trace holding the nest.
    pub(crate) fn execute(
        &self,
        regs: &mut [u32; 32],
        mem: &Memory,
        budget: u64,
    ) -> FusedOutcome<'_> {
        let MacLoop {
            p1,
            off1,
            s1,
            off2,
            s2,
            ..
        } = self.inner;
        let swap_ptrs = p1 != self.xptr;
        let dmem = mem.dmem();
        let mut out =
            FusedOutcome::new([&self.skip_lo, &self.skip_hi, &self.full1, &self.inner.pass]);
        let mut budget = budget;
        loop {
            let kx = regs[self.kx as usize];
            if (kx as i32) >= (self.kmax as i32) {
                break;
            }
            let ix = regs[self.ox as usize]
                .wrapping_add(kx)
                .wrapping_add(self.ix_bias);
            let skip_lo = (ix as i32) < 0;
            let skip_hi = !skip_lo && (ix as i32) >= (regs[self.w as usize] as i32);
            if skip_lo || skip_hi {
                let cost = if skip_lo {
                    self.skip_lo.instret
                } else {
                    self.skip_hi.instret
                };
                if budget < cost {
                    break;
                }
                budget -= cost;
                regs[self.scratch as usize] = ix;
                regs[self.kx as usize] = kx.wrapping_add(1);
                let path = &mut out.runs[if skip_lo { 0 } else { 1 }];
                path.1 += 1;
                out.first.get_or_insert(path.0);
                out.iters += 1;
                continue;
            }
            let ch = regs[self.ch as usize];
            let trip0 = ch >> self.trip_sh;
            if trip0 == 0 {
                break;
            }
            let trip = trip0 as u64;
            let cost = self.full1.instret + (trip - 1) * self.inner.pass.instret;
            if budget < cost {
                break;
            }
            let xptr = regs[self.iy as usize]
                .wrapping_mul(regs[self.w as usize])
                .wrapping_add(ix)
                .wrapping_mul(ch)
                .wrapping_add(regs[self.xbase as usize]);
            let wptr = self
                .ky_mul
                .wrapping_mul(regs[self.ky as usize])
                .wrapping_add(kx)
                .wrapping_mul(ch)
                .wrapping_add(regs[self.wbase as usize]);
            // Validate both channel-loop streams *before* touching any
            // register, so a declined iteration leaves the boundary
            // state untouched.
            let (b1, b2) = if swap_ptrs {
                (wptr, xptr)
            } else {
                (xptr, wptr)
            };
            let dlen = dmem.len();
            if !stream_ok(dlen, b1, off1, s1, trip) || !stream_ok(dlen, b2, off2, s2, trip) {
                break;
            }
            budget -= cost;
            regs[self.scratch as usize] = ix;
            regs[self.xptr as usize] = xptr;
            regs[self.wptr as usize] = wptr;
            regs[self.inner.cnt as usize] = trip0;
            self.inner.run(regs, dmem, trip);
            regs[self.kx as usize] = kx.wrapping_add(1);
            out.runs[2].1 += 1;
            out.runs[3].1 += trip - 1;
            out.first.get_or_insert(&self.full1);
            out.iters += 1;
        }
        out.executions = out.iters;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::reg;

    const ENTRY: u32 = 0x40;

    /// The MAC loop of a fused op.
    fn mac(f: &FusedOp) -> &MacLoop {
        match &f.detail {
            FusedDetail::Mac(m) => m,
            FusedDetail::ConvNest(_) => panic!("{:?} is not a MAC loop", f.kind),
        }
    }

    /// The nest of a fused op.
    fn nest(f: &FusedOp) -> &NestDetail {
        match &f.detail {
            FusedDetail::ConvNest(d) => d,
            FusedDetail::Mac(_) => panic!("{:?} is not a nest", f.kind),
        }
    }

    fn dec(program: &[Instr]) -> Vec<Decoded> {
        program
            .iter()
            .enumerate()
            .map(|(i, &instr)| Decoded::new(instr, ENTRY + 4 * i as u32))
            .collect()
    }

    /// The exact 7-instruction MAC reduction loop the kernel code
    /// generator emits for SDOTP channel loops.
    fn mac_loop(four_bit: bool) -> Vec<Instr> {
        let sdotp = if four_bit {
            Instr::Sdotp4 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            }
        } else {
            Instr::Sdotp8 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            }
        };
        vec![
            Instr::Load {
                op: crate::LoadOp::Lw,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Load {
                op: crate::LoadOp::Lw,
                rd: reg::T5,
                rs1: reg::T2,
                offset: 0,
            },
            sdotp,
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T2,
                rs1: reg::T2,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T3,
                rs1: reg::T3,
                imm: -1,
            },
            Instr::Branch {
                op: crate::BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -24,
            },
        ]
    }

    #[test]
    fn recognizes_the_kernel_mac_loops() {
        for (four_bit, kind) in [(false, FusedKind::MacSdotp8), (true, FusedKind::MacSdotp4)] {
            let f = recognize(&dec(&mac_loop(four_bit))).expect("mac loop should fuse");
            assert_eq!(f.kind, kind);
            let m = mac(&f);
            assert_eq!(m.cnt, reg::T3);
            // The sdotp reads t5 one instruction after its lw: exactly one
            // steady-state load-use stall per iteration.
            assert_eq!(m.pass.stalls, LOAD_USE_STALL);
            assert!(m.pass.flushes > 0);
        }
    }

    #[test]
    fn rejects_aliased_or_malformed_loops() {
        use crate::BranchOp;
        // Counter aliases a pointer.
        let mut p = mac_loop(false);
        if let Instr::Addi { rd, rs1, .. } = &mut p[5] {
            *rd = reg::T1;
            *rs1 = reg::T1;
        }
        if let Instr::Branch { rs1, .. } = &mut p[6] {
            *rs1 = reg::T1;
        }
        assert!(recognize(&dec(&p)).is_none());

        // Back edge to somewhere other than the trace entry.
        let p = mac_loop(false);
        assert!(recognize(&dec(&p)[1..]).is_none());

        // Decrement by something other than -1.
        let mut p = mac_loop(false);
        if let Instr::Addi { imm, .. } = &mut p[5] {
            *imm = -2;
        }
        assert!(recognize(&dec(&p)).is_none());

        // `bne` against a non-zero register is not a counted loop.
        let mut p = mac_loop(false);
        if let Instr::Branch { rs2, .. } = &mut p[6] {
            *rs2 = reg::A0;
        }
        assert!(recognize(&dec(&p)).is_none());

        // `beq` back edges never fuse.
        let mut p = mac_loop(false);
        if let Instr::Branch { op, .. } = &mut p[6] {
            *op = BranchOp::Beq;
        }
        assert!(recognize(&dec(&p)).is_none());
    }

    /// A 1 KiB data memory holding a deterministic byte pattern.
    fn patterned_mem() -> Memory {
        let mut mem = Memory::new(1024, 1024);
        let bytes: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        mem.write_dmem(DMEM_BASE, &bytes);
        mem
    }

    /// The accumulator `mac_loop(false)` leaves after `iters` iterations
    /// from `acc` over word streams starting at `p1` and `p2`.
    fn mac_reference(mem: &Memory, p1: u32, p2: u32, iters: u32, acc: u32) -> u32 {
        let words = |p: u32, j: u32| mem.load_word(p + 4 * j).expect("in bounds");
        (0..iters).fold(acc as i32, |acc, j| {
            acc + sdotp8(words(p1, j), words(p2, j))
        }) as u32
    }

    #[test]
    fn executor_runs_a_mac_loop_and_writes_back_loop_registers() {
        let f = recognize(&dec(&mac_loop(false))).unwrap();
        let mem = patterned_mem();
        let mut regs = [0u32; 32];
        regs[reg::T1 as usize] = DMEM_BASE;
        regs[reg::T2 as usize] = DMEM_BASE + 512;
        regs[reg::T3 as usize] = 16;
        regs[reg::S7 as usize] = 7;
        let out = mac(&f).execute(&mut regs, &mem, u64::MAX);
        assert_eq!(out.iters, 16);
        assert_eq!(out.resume, MAC_LEN, "the final pass fell through");
        assert_eq!(
            regs[reg::S7 as usize],
            mac_reference(&mem, DMEM_BASE, DMEM_BASE + 512, 16, 7)
        );
        assert_eq!(regs[reg::T1 as usize], DMEM_BASE + 64);
        assert_eq!(regs[reg::T2 as usize], DMEM_BASE + 512 + 64);
        assert_eq!(regs[reg::T3 as usize], 0);
        // The load destinations hold the last words loaded.
        assert_eq!(
            regs[reg::T4 as usize],
            mem.load_word(DMEM_BASE + 60).unwrap()
        );
        assert_eq!(
            regs[reg::T5 as usize],
            mem.load_word(DMEM_BASE + 512 + 60).unwrap()
        );
    }

    #[test]
    fn executor_caps_iterations_at_the_budget() {
        let f = recognize(&dec(&mac_loop(false))).unwrap();
        let mem = patterned_mem();
        let mut regs = [0u32; 32];
        regs[reg::T1 as usize] = DMEM_BASE;
        regs[reg::T2 as usize] = DMEM_BASE + 512;
        regs[reg::T3 as usize] = 100;
        let out = mac(&f).execute(&mut regs, &mem, 40);
        assert_eq!(out.iters, 40);
        assert_eq!(out.resume, 0, "every pass took the back edge");
        assert_eq!(regs[reg::T3 as usize], 60);
        assert_eq!(regs[reg::T1 as usize], DMEM_BASE + 160);
        assert_eq!(
            regs[reg::S7 as usize],
            mac_reference(&mem, DMEM_BASE, DMEM_BASE + 512, 40, 0)
        );
    }

    #[test]
    fn executor_declines_out_of_bounds_streams_and_zero_budgets() {
        let f = recognize(&dec(&mac_loop(false))).unwrap();
        let mem = patterned_mem();
        let mut regs = [0u32; 32];
        // Five words from 16 bytes before the end of the 1 KiB data
        // memory: the last load runs 4 bytes past it.
        regs[reg::T1 as usize] = DMEM_BASE + 1024 - 16;
        regs[reg::T2 as usize] = DMEM_BASE;
        regs[reg::T3 as usize] = 5;
        let saved = regs;
        assert_eq!(mac(&f).execute(&mut regs, &mem, u64::MAX).iters, 0);
        assert_eq!(regs, saved, "a declined execute must not touch state");
        // An address below data memory declines too, on either stream.
        regs[reg::T1 as usize] = DMEM_BASE;
        regs[reg::T2 as usize] = DMEM_BASE - 4;
        regs[reg::T3 as usize] = 2;
        assert_eq!(mac(&f).execute(&mut regs, &mem, u64::MAX).iters, 0);
        // Zero budget declines regardless of the counter.
        regs[reg::T2 as usize] = DMEM_BASE;
        assert_eq!(mac(&f).execute(&mut regs, &mem, 0).iters, 0);
    }

    #[test]
    fn executor_treats_zero_counter_as_a_full_wrap() {
        let f = recognize(&dec(&mac_loop(false))).unwrap();
        let mem = patterned_mem();
        let mut regs = [0u32; 32];
        regs[reg::T1 as usize] = DMEM_BASE;
        regs[reg::T2 as usize] = DMEM_BASE + 512;
        regs[reg::T3 as usize] = 0;
        // A do-while loop entered with cnt == 0 runs 2^32 iterations; a
        // 10-iteration budget caps it and leaves the counter wrapped.
        let out = mac(&f).execute(&mut regs, &mem, 10);
        assert_eq!(out.iters, 10);
        assert_eq!(out.resume, 0);
        assert_eq!(regs[reg::T3 as usize], 0u32.wrapping_sub(10));
        assert_eq!(regs[reg::T1 as usize], DMEM_BASE + 40);
    }

    /// The exact 25-instruction kernel-x guard loop `emit_conv3x3`
    /// generates: kx in t6, ix scratch t0, output-x s6, spatial size a4,
    /// input row s11, bytes-per-pixel a5, input base a0, kernel-y s8,
    /// weight base s10, pointers t1/t2, counter t3, accumulator s7.
    fn nest_loop() -> Vec<Instr> {
        let mut p = vec![
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 3,
            },
            Instr::Branch {
                op: crate::BranchOp::Bge,
                rs1: reg::T6,
                rs2: reg::T0,
                offset: 24 * 4, // kx_end, past the closing jal
            },
            Instr::Add {
                rd: reg::T0,
                rs1: reg::S6,
                rs2: reg::T6,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: crate::BranchOp::Blt,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: (23 - 4) * 4,
            },
            Instr::Branch {
                op: crate::BranchOp::Bge,
                rs1: reg::T0,
                rs2: reg::A4,
                offset: (23 - 5) * 4,
            },
            Instr::Mul {
                rd: reg::T1,
                rs1: reg::S11,
                rs2: reg::A4,
            },
            Instr::Add {
                rd: reg::T1,
                rs1: reg::T1,
                rs2: reg::T0,
            },
            Instr::Mul {
                rd: reg::T1,
                rs1: reg::T1,
                rs2: reg::A5,
            },
            Instr::Add {
                rd: reg::T1,
                rs1: reg::T1,
                rs2: reg::A0,
            },
            Instr::Addi {
                rd: reg::T2,
                rs1: reg::ZERO,
                imm: 3,
            },
            Instr::Mul {
                rd: reg::T2,
                rs1: reg::T2,
                rs2: reg::S8,
            },
            Instr::Add {
                rd: reg::T2,
                rs1: reg::T2,
                rs2: reg::T6,
            },
            Instr::Mul {
                rd: reg::T2,
                rs1: reg::T2,
                rs2: reg::A5,
            },
            Instr::Add {
                rd: reg::T2,
                rs1: reg::T2,
                rs2: reg::S10,
            },
            Instr::Srli {
                rd: reg::T3,
                rs1: reg::A5,
                shamt: 2,
            },
        ];
        p.extend(mac_loop(false));
        p.push(Instr::Addi {
            rd: reg::T6,
            rs1: reg::T6,
            imm: 1,
        });
        p.push(Instr::Jal {
            rd: reg::ZERO,
            offset: -24 * 4,
        });
        p
    }

    #[test]
    fn recognizes_the_conv_kx_nest() {
        let f = recognize(&dec(&nest_loop())).expect("nest should fuse");
        assert_eq!(f.kind, FusedKind::ConvNest);
        assert_eq!(f.start, 0);
        let d = nest(&f);
        assert_eq!(
            (d.kx, d.scratch, d.ox, d.w, d.iy, d.ch, d.xbase),
            (
                reg::T6,
                reg::T0,
                reg::S6,
                reg::A4,
                reg::S11,
                reg::A5,
                reg::A0
            )
        );
        assert_eq!(
            (d.ky, d.wbase, d.xptr, d.wptr),
            (reg::S8, reg::S10, reg::T1, reg::T2)
        );
        assert_eq!(
            (d.kmax, d.ky_mul, d.trip_sh, d.ix_bias),
            (3, 3, 2, u32::MAX)
        );
        // Path shapes: 7-instruction left skip, 8-instruction right skip,
        // 25-instruction full iteration, 7-instruction extra channel pass.
        let extra = d.inner.pass;
        assert_eq!(
            [
                d.skip_lo.instret,
                d.skip_hi.instret,
                d.full1.instret,
                extra.instret
            ],
            [7, 8, 25, 7]
        );
        // Only the channel loop has the lw->sdotp interlock.
        assert_eq!(d.skip_lo.stalls, 0);
        assert_eq!(d.full1.stalls, LOAD_USE_STALL);
        assert_eq!(extra.stalls, LOAD_USE_STALL);
        // Every path flushes at least once (guard or jump).
        assert!(d.skip_lo.flushes > 0 && d.full1.flushes > 0 && extra.flushes > 0);
        // Memory-model summaries: a skip redirects at its guard and its
        // jump, a full iteration at its jump, an extra channel pass at
        // its back-edge; only the channel loop's two loads touch data
        // memory, and each channel pass retires one SDOTP.
        let paths = [d.skip_lo, d.skip_hi, d.full1, extra];
        assert_eq!(paths.map(|p| p.misses), [2, 2, 1, 1]);
        assert_eq!(paths.map(|p| p.accesses), [0, 0, 0b11 << 16, 0b11]);
        assert_eq!(paths.map(|p| p.sdotp), [0, 0, 1, 1]);
        // The loads at offsets 16 and 17 contend only once the window
        // entering the iteration reaches past them.
        assert_eq!(
            [0, 4, 16, 17, 18, 32, u32::MAX].map(|w| d.full1.contended(w)),
            [0, 0, 0, 1, 2, 2, 2]
        );
        assert_eq!([0, 1, 2, 4].map(|w| extra.contended(w)), [0, 1, 2, 2]);
    }

    #[test]
    fn rejects_malformed_nests() {
        // A truncated window (no closing jal) is not a nest; the embedded
        // channel loop at offset 16 still fuses on its own.
        let mut p = nest_loop();
        p.pop();
        assert_eq!(
            recognize(&dec(&p))
                .expect("inner mac should still fuse")
                .kind,
            FusedKind::MacSdotp8
        );

        // Guards skipping anywhere but the `addi kx` tail are not a nest
        // (the channel loop may still fuse on its own).
        let mut p = nest_loop();
        if let Instr::Branch { offset, .. } = &mut p[4] {
            *offset += 4;
        }
        assert!(recognize(&dec(&p)).is_none_or(|f| f.kind != FusedKind::ConvNest));

        // A counter register aliasing the kernel-x register is rejected.
        let mut p = nest_loop();
        if let Instr::Srli { rd, .. } = &mut p[15] {
            *rd = reg::T6;
        }
        assert!(recognize(&dec(&p)).is_none_or(|f| f.kind != FusedKind::ConvNest));
    }

    #[test]
    fn nest_executor_walks_guards_and_full_iterations() {
        let f = recognize(&dec(&nest_loop())).unwrap();
        let mut mem = Memory::new(1024, 4096);
        let bytes: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(23) >> 3) as u8)
            .collect();
        mem.write_dmem(DMEM_BASE, &bytes);
        // W = 4, ch = 4 bytes (trip 1), iy = 1, ky = 1, ox = 0:
        // kx 0 -> ix -1 (left skip), kx 1/2 -> full iterations.
        let mut regs = [0u32; 32];
        regs[reg::A4 as usize] = 4;
        regs[reg::A5 as usize] = 4;
        regs[reg::S11 as usize] = 1;
        regs[reg::S8 as usize] = 1;
        regs[reg::A0 as usize] = DMEM_BASE;
        regs[reg::S10 as usize] = DMEM_BASE + 512;
        let mut full_budget = regs;
        let out = nest(&f).execute(&mut full_budget, &mem, u64::MAX);
        // Runs per path: left skip, right skip, full, extra channel pass.
        let runs = |out: &FusedOutcome| out.runs.map(|(_, n)| n);
        assert_eq!(runs(&out), [1, 0, 2, 0]);
        assert_eq!(out.iters, 3);
        assert_eq!(full_budget[reg::T6 as usize], 3, "kx ran to the bound");
        assert_eq!(full_budget[reg::T3 as usize], 0, "channel counter spent");
        // A budget covering only the skip and one full iteration stops at
        // the iteration boundary.
        let mut capped = regs;
        let out = nest(&f).execute(&mut capped, &mem, 7 + 25);
        assert_eq!(runs(&out), [1, 0, 1, 0]);
        assert_eq!(capped[reg::T6 as usize], 2);
        // ox = W - 1 exercises the right-padding guard on the last kx.
        let mut right = regs;
        right[reg::S6 as usize] = 3;
        let out = nest(&f).execute(&mut right, &mem, u64::MAX);
        assert_eq!(runs(&out), [0, 1, 2, 0]);
        // An out-of-bounds channel stream declines at the iteration
        // boundary without touching the counter.
        let mut oob = regs;
        oob[reg::S11 as usize] = 100_000;
        let before = oob;
        let out = nest(&f).execute(&mut oob, &mem, u64::MAX);
        assert_eq!(
            (out.iters, runs(&out)[0]),
            (1, 1),
            "only the guard skip ran"
        );
        assert_eq!(oob[reg::T6 as usize], 1);
        assert_eq!(oob[reg::T1 as usize], before[reg::T1 as usize]);
    }
}
