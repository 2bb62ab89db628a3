//! The block-cached execution engine.
//!
//! Instead of fetching and decoding one word per [`Cpu::step`], the engine
//! decodes each superblock trace once into a dense `Vec<Decoded>`
//! ([`crate::block`]) whose elements carry fully lowered micro-ops (every
//! immediate, width and control-flow target pre-resolved), caches it keyed
//! by entry PC, and dispatches cached traces in a tight threaded loop that
//! never touches `Memory::fetch`, re-decodes a word, or updates the trace
//! map per instruction. Cycle accounting follows the pipelined IBEX timing
//! model ([`crate::pipeline`]), inlined in the dispatch loop.
//!
//! Two levels keep the dispatch overhead off the hot path:
//!
//! 1. superblocks extend through conditional branches (side exits) and
//!    unconditional jumps, so kernel loop bodies split across labels
//!    execute as one trace;
//! 2. an exit that targets its own trace entry (every tight loop)
//!    re-enters the execution loop locally, with no dispatch at all.
//!
//! Every other trace transition is one dispatch: a single bounds-checked
//! probe of the block table, which borrows the cached block.
//!
//! SDOTP accounting is O(1) per trace execution: every exit carries the
//! number of SDOTPs on its retired prefix and the CPU counts (slot, exit)
//! pairs, which are folded into [`Cpu::sdotp`] when [`run`] returns (on
//! success *and* on error); fused loops add their SDOTPs per iteration.
//! Observable state is indistinguishable from the reference interpreter.
//!
//! The cache is one write-once table per program image, shared through
//! an `Arc` by every clone of a `Cpu`, including clones running on other
//! threads: each slot is built once, by the first clone to enter it, and
//! never changes afterwards. A deployment that clones a pristine CPU per
//! frame range therefore warms the cache once and every later frame — on
//! any thread — dispatches fully pre-decoded code. Loading a new program
//! image assigns a fresh table, so clones diverging by program never see
//! each other's blocks.
//!
//! Architectural results (registers, memory, instruction and SDOTP
//! counts, faults) are identical to [`ExecMode::Simple`] — the
//! differential tests below and the deployment tests in `pcount-kernels`
//! hold both engines to bit-exactness; only the cycle model is
//! finer-grained (it adds load-use interlock stalls the flat model cannot
//! see). When touching instruction semantics, change BOTH
//! [`Cpu::exec_instr`] and [`run_inner`] here.

use crate::block::{build_block, Block, BlockEnd};
use crate::cpu::{sdotp4, sdotp8, BlockProfile, Cpu, RunSummary, SimError};
use crate::instr::Op;
use crate::mem_model::{MemStats, MemoryModel};
use crate::memory::{Memory, IMEM_BASE};
use crate::pipeline::LOAD_USE_STALL;
use std::sync::{Arc, OnceLock};

/// Which execution engine a [`Cpu`] uses in [`Cpu::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Reference interpreter: fetch + decode every instruction, flat
    /// per-instruction cycle costs.
    #[default]
    Simple,
    /// Pre-decoded basic-block cache with the pipelined IBEX timing model.
    BlockCached,
}

/// Lazily populated cache of decoded blocks: one write-once slot per
/// instruction word, direct-mapped by word index and shared by every
/// clone of a [`Cpu`] that runs the same program image, on any thread
/// (see module docs).
///
/// The first CPU to enter a block builds it into its slot; a clone
/// entering the same empty slot at the same time waits for that build
/// instead of repeating it. A filled slot never changes, so dispatch
/// borrows the block without a lock or a reference count. Boxing keeps
/// an empty slot at 16 bytes.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache(Arc<[OnceLock<Box<Block>>]>);

impl BlockCache {
    /// An empty table with one slot per instruction word.
    pub(crate) fn new(imem_bytes: usize) -> Self {
        Self((0..imem_bytes / 4).map(|_| OnceLock::new()).collect())
    }

    /// Number of blocks built so far.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Returns the slot index and block entered at `pc`, building the
    /// block on first entry. `None` means `pc` cannot index instruction
    /// memory at all.
    #[inline]
    fn get_or_build(&self, mem: &Memory, pc: u32) -> Option<(usize, &Block)> {
        let off = pc.checked_sub(IMEM_BASE)? as usize;
        if !off.is_multiple_of(4) {
            return None;
        }
        let index = off / 4;
        let block = self
            .0
            .get(index)?
            .get_or_init(|| Box::new(build_block(mem, pc)));
        Some((index, block))
    }
}

/// Runs `cpu` until halt or budget exhaustion using the block cache.
pub(crate) fn run(cpu: &mut Cpu, max_instructions: u64) -> Result<RunSummary, SimError> {
    let start_instret = cpu.instret;
    let start_cycles = cpu.cycles;
    let start_sdotp = cpu.sdotp;
    // One handle on the table for the whole run: dispatch and the fold
    // borrow blocks from it while `cpu` stays mutable.
    let cache = cpu.cache.clone();
    let result = run_inner(cpu, &cache, max_instructions);
    fold_exec_counts(cpu, &cache);
    result?;
    Ok(RunSummary {
        instructions: cpu.instret - start_instret,
        cycles: cpu.cycles - start_cycles,
        sdotp: cpu.sdotp - start_sdotp,
    })
}

fn run_inner(cpu: &mut Cpu, cache: &BlockCache, max_instructions: u64) -> Result<(), SimError> {
    // All per-instruction accounting lives in locals for the whole run and
    // is committed to the CPU exactly once on exit (including error exits),
    // so the dispatch loop does no redundant memory traffic.
    let mut executed = 0u64;
    // SDOTPs retired outside counted exits (fused iterations, cut-off
    // prefixes); the exits' static counts fold in `fold_exec_counts`.
    let mut sdotp = 0u64;
    let mut cycles = 0u64;
    let mut load_dest = cpu.pipeline.load_dest;
    let mut stalls = 0u64;
    let mut flushes = 0u64;
    let mut fault: Option<SimError> = None;
    let fusion = cpu.fusion_enabled;
    // Memory-hierarchy model: `None` for the flat (free) model, so the
    // dispatch loop pays one branch per trace execution. Under the
    // Maupiti model, every retired prefix is charged in one
    // `charge_prefix` call against the block's precomputed access
    // summary — never per instruction.
    let maupiti = match cpu.memory_model() {
        MemoryModel::Flat => None,
        MemoryModel::Maupiti(cfg) => Some(cfg),
    };
    let mut mem_state = cpu.mem_state;
    let mut mem_stats = MemStats::default();
    // Memory-model charge base for the current trace execution:
    // positions [0, mem_base) were already charged in bulk by a
    // mid-trace fused loop, so the segment-convention handlers charge
    // [mem_base, exit) instead of the whole prefix. Reset per dispatch
    // and per self-loop re-entry. Declared here so `charge_mem!` can see
    // it across macro hygiene.
    let mut mem_base;
    // The profile is allocated on first block-cached use, so CPUs that
    // only ever run the reference interpreter (and the pristine CPU a
    // deployment clones per inference) carry nothing to copy.
    let slots = cpu.mem.imem_size() / 4;
    if cpu.profile.len() != slots {
        cpu.profile = vec![BlockProfile::default(); slots];
    }

    // Charges the memory model for the retired segment [mem_base, $n) of
    // the current trace execution and attributes the stall cycles to the
    // trace's profile slot. `mem_base` is 0 except after a mid-trace
    // fused loop ran, which charges everything before its final
    // iteration in bulk. `$exit_redirect` marks a taken side exit ending
    // the segment. A no-op under the flat model.
    macro_rules! charge_mem {
        ($block:expr, $slot:expr, $n:expr, $exit_redirect:expr) => {
            if let Some(cfg) = &maupiti {
                let stall = mem_state.charge_prefix(
                    cfg,
                    &$block.mem_prefix,
                    &$block.redirects,
                    mem_base,
                    $n,
                    $exit_redirect,
                    &mut mem_stats,
                );
                cycles += stall;
                cpu.profile[$slot].mem_stall_cycles += stall;
            }
        };
    }

    // Writes `rd`, keeping x0 hard-wired to zero without a branch.
    macro_rules! wr {
        ($d:expr, $v:expr) => {{
            // The mask elides the bounds check (register fields are < 32
            // by construction).
            cpu.regs[$d.rd as usize & 31] = $v;
            cpu.regs[0] = 0;
        }};
    }

    'dispatch: while !cpu.halted {
        if executed >= max_instructions {
            fault = Some(SimError::Timeout { max_instructions });
            break;
        }
        let pc = cpu.pc;
        let Some((slot, block)) = cache.get_or_build(&cpu.mem, pc) else {
            fault = Some(SimError::BadFetch { pc });
            break;
        };
        let profile = &mut cpu.profile[slot];
        if !profile.touched {
            profile.touched = true;
            cpu.touched_slots.push(slot);
            if profile.exit_counts.len() != block.exits.len() {
                profile.exit_counts = vec![0; block.exits.len()];
            }
        }
        let len = block.instrs.len();
        let entry = block.entry_pc;
        let end_exit = block.exits.len() - 1;
        // Trace position the per-instruction pass resumes from: nonzero
        // only right after a fused loop ran, so the pass continues past
        // (or, on a declined/partial run, from) the loop head.
        let mut start = 0usize;
        mem_base = 0;
        let active_fused = block.fused.as_ref().filter(|_| fusion);
        // Macro-op fusion gets one shot per trace execution: the pass
        // pauses when it reaches the recognised loop head, the fused
        // executor runs the whole loop, and the pass resumes past it.
        let mut fused_armed = active_fused.is_some();
        // Tight loops (side or end exits back to the trace entry) re-enter
        // here without another dispatch.
        loop {
            let remaining = max_instructions - executed;
            let n = if remaining < len as u64 {
                remaining as usize
            } else {
                len
            };
            let full = n == len;
            // Pause point for macro-op fusion: stop the pass at the loop
            // head so the recognised loop can run fused.
            let stop = match active_fused {
                Some(f) if fused_armed && f.start < n => f.start,
                _ => n,
            };
            let mut ctrl_next = block.cont_pc;
            let mut mem_fault: Option<(usize, u32)> = None;
            let mut side_exit: Option<(usize, u16)> = None;
            for (i, d) in block.instrs[start..stop].iter().enumerate() {
                let i = i + start;
                let mut cost = d.base_cycles as u64;
                let prev_load_dest = load_dest;
                let mut stall = 0u64;
                if load_dest != 0 && (d.reads_mask >> load_dest) & 1 != 0 {
                    cost += LOAD_USE_STALL;
                    stall = LOAD_USE_STALL;
                }
                load_dest = if d.is_load { d.rd } else { 0 };
                let rs1v = cpu.regs[d.rs1 as usize & 31];
                let rs2v = cpu.regs[d.rs2 as usize & 31];
                // A faulting instruction does not retire: it consumes no
                // cycles and leaves the pipeline hazard state untouched,
                // exactly like the reference interpreter.
                macro_rules! bad_addr {
                    ($addr:expr) => {{
                        load_dest = prev_load_dest;
                        mem_fault = Some((i, $addr));
                        break;
                    }};
                }
                // A taken conditional branch leaves the trace through its
                // side exit.
                macro_rules! take_exit {
                    ($target:expr) => {{
                        ctrl_next = $target;
                        cost += d.flush_on_take as u64;
                        flushes += d.flush_on_take as u64;
                        cycles += cost;
                        stalls += stall;
                        side_exit = Some((i, d.exit_ordinal));
                        break;
                    }};
                }
                match d.op {
                    Op::Addi(imm) => wr!(d, rs1v.wrapping_add(imm)),
                    Op::Add => wr!(d, rs1v.wrapping_add(rs2v)),
                    Op::Lw(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_word(addr) {
                            Some(v) => wr!(d, v),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Sw(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_word(addr, rs2v).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Sdotp8 => {
                        let acc = cpu.regs[d.rd as usize & 31] as i32;
                        wr!(d, (acc + sdotp8(rs1v, rs2v)) as u32);
                    }
                    Op::Sdotp4 => {
                        let acc = cpu.regs[d.rd as usize & 31] as i32;
                        wr!(d, (acc + sdotp4(rs1v, rs2v)) as u32);
                    }
                    Op::Lui(value) => wr!(d, value),
                    Op::Auipc(value) => wr!(d, value),
                    Op::Slti(imm) => wr!(d, ((rs1v as i32) < imm) as u32),
                    Op::Sltiu(imm) => wr!(d, (rs1v < imm) as u32),
                    Op::Xori(imm) => wr!(d, rs1v ^ imm),
                    Op::Ori(imm) => wr!(d, rs1v | imm),
                    Op::Andi(imm) => wr!(d, rs1v & imm),
                    Op::Slli(sh) => wr!(d, rs1v << sh),
                    Op::Srli(sh) => wr!(d, rs1v >> sh),
                    Op::Srai(sh) => wr!(d, ((rs1v as i32) >> sh) as u32),
                    Op::Sub => wr!(d, rs1v.wrapping_sub(rs2v)),
                    Op::Sll => wr!(d, rs1v << (rs2v & 31)),
                    Op::Slt => wr!(d, ((rs1v as i32) < (rs2v as i32)) as u32),
                    Op::Sltu => wr!(d, (rs1v < rs2v) as u32),
                    Op::Xor => wr!(d, rs1v ^ rs2v),
                    Op::Srl => wr!(d, rs1v >> (rs2v & 31)),
                    Op::Sra => wr!(d, ((rs1v as i32) >> (rs2v & 31)) as u32),
                    Op::Or => wr!(d, rs1v | rs2v),
                    Op::And => wr!(d, rs1v & rs2v),
                    Op::Mul => wr!(d, rs1v.wrapping_mul(rs2v)),
                    Op::Mulh => {
                        wr!(
                            d,
                            (((rs1v as i32 as i64) * (rs2v as i32 as i64)) >> 32) as u32
                        )
                    }
                    Op::Mulhsu => {
                        wr!(
                            d,
                            (((rs1v as i32 as i64) * (rs2v as u64 as i64)) >> 32) as u32
                        )
                    }
                    Op::Mulhu => wr!(d, (((rs1v as u64) * (rs2v as u64)) >> 32) as u32),
                    Op::Div => {
                        let a = rs1v as i32;
                        let b = rs2v as i32;
                        let q = if b == 0 {
                            -1
                        } else if a == i32::MIN && b == -1 {
                            a
                        } else {
                            a / b
                        };
                        wr!(d, q as u32);
                    }
                    Op::Divu => wr!(d, rs1v.checked_div(rs2v).unwrap_or(u32::MAX)),
                    Op::Rem => {
                        let a = rs1v as i32;
                        let b = rs2v as i32;
                        let r = if b == 0 {
                            a
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            a % b
                        };
                        wr!(d, r as u32);
                    }
                    Op::Remu => wr!(d, if rs2v == 0 { rs1v } else { rs1v % rs2v }),
                    Op::Lb(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_byte(addr) {
                            Some(v) => wr!(d, v as i8 as i32 as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lh(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_half(addr) {
                            Some(v) => wr!(d, v as i16 as i32 as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lbu(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_byte(addr) {
                            Some(v) => wr!(d, v as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lhu(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_half(addr) {
                            Some(v) => wr!(d, v as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Sb(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_byte(addr, rs2v as u8).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Sh(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_half(addr, rs2v as u16).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Beq { target } => {
                        if rs1v == rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Bne { target } => {
                        if rs1v != rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Blt { target } => {
                        if (rs1v as i32) < (rs2v as i32) {
                            take_exit!(target);
                        }
                    }
                    Op::Bge { target } => {
                        if (rs1v as i32) >= (rs2v as i32) {
                            take_exit!(target);
                        }
                    }
                    Op::Bltu { target } => {
                        if rs1v < rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Bgeu { target } => {
                        if rs1v >= rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Jal { link, target } => {
                        // Unfollowed jump: always the last trace element.
                        wr!(d, link);
                        ctrl_next = target;
                        flushes += d.flush_on_take as u64;
                    }
                    Op::JalFollowed { link } => {
                        // Followed jump: the next trace element is the
                        // target instruction; only link and pay the flush.
                        wr!(d, link);
                        flushes += d.flush_on_take as u64;
                    }
                    Op::Jalr { link, offset } => {
                        let target = rs1v.wrapping_add(offset) & !1;
                        wr!(d, link);
                        ctrl_next = target;
                        flushes += d.flush_on_take as u64;
                    }
                    Op::Halt => {
                        cpu.halted = true;
                    }
                }
                cycles += cost;
                stalls += stall;
            }
            // Resume offsets apply to exactly one pass; the handlers below
            // account whole prefixes from 0 by convention.
            start = 0;

            if let Some((i, addr)) = mem_fault {
                // The faulting instruction counts as issued (it was traced
                // and counted before the fault in the reference
                // interpreter) but consumes no cycles, and the PC stays on
                // it. The memory model charges only the retired prefix —
                // a faulting access never reaches the SRAM port.
                charge_mem!(block, slot, i, false);
                executed += i as u64 + 1;
                sdotp += sdotp_in(&block.instrs[..=i]);
                let pc = block.instrs[i].pc;
                cpu.pc = pc;
                fault = Some(SimError::BadMemoryAccess { pc, addr });
                break 'dispatch;
            }

            if let Some((i, ordinal)) = side_exit {
                executed += i as u64 + 1;
                cpu.profile[slot].exit_counts[ordinal as usize] += 1;
                // The taken branch ending the prefix is itself a
                // prefetch-buffer miss.
                charge_mem!(block, slot, i + 1, true);
                // Self-loop fast path: the exit jumped back to this trace's
                // entry, so re-enter without another dispatch. The re-entry
                // is a fresh trace execution: re-arm the fused loop and
                // restart the memory-model charge range.
                if ctrl_next == entry && executed < max_instructions && !cpu.halted {
                    fused_armed = active_fused.is_some();
                    mem_base = 0;
                    continue;
                }
                cpu.pc = ctrl_next;
                continue 'dispatch;
            }

            // The pass paused at the head of the recognised loop: execute
            // the whole loop as one host loop and bulk-charge every cost
            // stream from the paths it ran, whichever idiom it is. The
            // executor stops at an iteration boundary with the head's
            // budget share (`f.start` instructions) reserved and advances
            // registers for every iteration it reports; the per-instruction
            // pass then resumes at the head (a final guard exit, a
            // mid-iteration timeout or a faulting access, reproduced
            // exactly) or, after a MAC loop's fall-through pass, past the
            // back edge. That final MAC pass's instret, SDOTP and memory
            // accounting flows through the trace's exit over
            // [mem_base, ·); its pipeline cycles are charged here.
            if stop < n {
                fused_armed = false;
                let f = active_fused.expect("paused only at a fused loop");
                let budget = (max_instructions - executed).saturating_sub(f.start as u64);
                let out = f.execute(&mut cpu.regs, &cpu.mem, budget);
                if out.iters > 0 {
                    // Only the first iteration can enter with a pending
                    // load; every later one starts after a redirect.
                    let head = &block.instrs[f.start];
                    let head_stall = if load_dest != 0 && (head.reads_mask >> load_dest) & 1 != 0 {
                        LOAD_USE_STALL
                    } else {
                        0
                    };
                    let cost = out.cost();
                    cycles += cost.cycles + head_stall;
                    stalls += cost.stalls + head_stall;
                    flushes += cost.flushes;
                    executed += cost.instret;
                    sdotp += cost.sdotp;
                    // Every path ends in a branch or jump, which clears the
                    // pending-load hazard state.
                    load_dest = 0;
                    if cost.instret > 0 {
                        if let Some(cfg) = &maupiti {
                            // Arch order: the setup segment before the loop
                            // head, then the iterations. The first enters
                            // with the live refill window; every retired
                            // path ends in a redirect, leaving a full one.
                            charge_mem!(block, slot, f.start, false);
                            let contended =
                                out.contended(mem_state.window_left, cfg.prefetch_entries);
                            let mstall = mem_state.charge_counts(
                                cfg,
                                cost.misses,
                                contended,
                                &mut mem_stats,
                            );
                            cycles += mstall;
                            cpu.profile[slot].mem_stall_cycles += mstall;
                        }
                        mem_base = f.start;
                    }
                    let profile = &mut cpu.profile[slot];
                    profile.instructions += cost.instret;
                    profile.executions += out.executions;
                    profile.fused_entry(f.kind, out.iters, cost.cycles + head_stall);
                }
                start = f.start + out.resume;
                continue;
            }

            if !full {
                // Budget-capped mid-trace: the next dispatch iteration
                // raises the timeout. The retired prefix is counted
                // directly (it is not a counted exit).
                charge_mem!(block, slot, n, false);
                executed += n as u64;
                sdotp += sdotp_in(&block.instrs[..n]);
                cpu.pc = block.instrs[n].pc;
                continue 'dispatch;
            }

            executed += len as u64;
            cpu.profile[slot].exit_counts[end_exit] += 1;
            // End-exit redirects (terminator JAL/JALR) sit in the block's
            // `redirects` summary, so no explicit exit redirect here.
            charge_mem!(block, slot, len, false);
            if ctrl_next == entry
                && executed < max_instructions
                && !cpu.halted
                && block.end == BlockEnd::Terminator
            {
                // Terminator self-loop re-entry: a fresh trace execution,
                // so re-arm the fused loop and restart the charge range.
                fused_armed = active_fused.is_some();
                mem_base = 0;
                continue;
            }
            cpu.pc = ctrl_next;
            match block.end {
                BlockEnd::Terminator | BlockEnd::Fallthrough => {}
                // Deferred faults: execution reached the end of the
                // decodable region, so raise exactly what the reference
                // interpreter would raise at this PC (which `ctrl_next`
                // already points at).
                BlockEnd::BadFetch { pc } => {
                    fault = Some(SimError::BadFetch { pc });
                    break 'dispatch;
                }
                BlockEnd::Illegal { pc, word } => {
                    fault = Some(SimError::IllegalInstruction { pc, word });
                    break 'dispatch;
                }
            }
            continue 'dispatch;
        }
    }

    cpu.instret += executed;
    cpu.sdotp += sdotp;
    cpu.pipeline.stats.instructions += executed;
    cpu.cycles += cycles;
    cpu.pipeline.load_dest = load_dest;
    cpu.pipeline.stats.load_use_stalls += stalls;
    cpu.pipeline.stats.flush_cycles += flushes;
    cpu.mem_state = mem_state;
    cpu.mem_stats.accumulate(&mem_stats);
    match fault {
        None => Ok(()),
        Some(error) => Err(error),
    }
}

/// SDOTPs among `instrs`, for a retired prefix that is not a counted
/// exit.
fn sdotp_in(instrs: &[crate::instr::Decoded]) -> u64 {
    instrs.iter().filter(|d| d.is_sdotp()).count() as u64
}

/// Folds per-slot, per-exit execution counts into [`Cpu::sdotp`] and the
/// persistent per-block profiling totals behind [`Cpu::hottest_blocks`].
fn fold_exec_counts(cpu: &mut Cpu, cache: &BlockCache) {
    while let Some(slot) = cpu.touched_slots.pop() {
        let block = cache.0[slot]
            .get()
            .expect("a dispatched slot holds its block");
        let profile = &mut cpu.profile[slot];
        profile.touched = false;
        for (exit, count) in block.exits.iter().zip(profile.exit_counts.iter_mut()) {
            if *count > 0 {
                profile.executions += *count;
                profile.instructions += *count * exit.retired as u64;
                cpu.sdotp += *count * exit.sdotp;
                *count = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchOp, Instr, LoadOp, StoreOp};
    use crate::memory::DMEM_BASE;
    use crate::reg;

    fn cpu_pair(program: &[Instr]) -> (Cpu, Cpu) {
        let mut simple = Cpu::new_default();
        simple.load_program(program).unwrap();
        let mut cached = Cpu::new_default();
        cached.set_exec_mode(ExecMode::BlockCached);
        cached.load_program(program).unwrap();
        (simple, cached)
    }

    fn assert_same_architectural_state(simple: &Cpu, cached: &Cpu) {
        for r in 0..32 {
            assert_eq!(simple.reg(r), cached.reg(r), "register x{r} diverged");
        }
        assert_eq!(simple.pc, cached.pc, "pc diverged");
        assert_eq!(simple.instret, cached.instret, "instret diverged");
        assert_eq!(simple.sdotp, cached.sdotp, "SDOTP count diverged");
        assert_eq!(simple.halted(), cached.halted(), "halt state diverged");
    }

    #[test]
    fn loop_program_matches_simple_mode_exactly() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 50,
            },
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 0,
            },
            Instr::Add {
                rd: reg::A0,
                rs1: reg::A0,
                rs2: reg::T0,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: -8,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(100_000).unwrap();
        let rc = cached.run(100_000).unwrap();
        assert_eq!(rs.instructions, rc.instructions);
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 50 * 51 / 2);
    }

    #[test]
    fn every_alu_op_matches_simple_mode() {
        let mut program = vec![
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: -1234,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 77,
            },
            Instr::Lui {
                rd: reg::A2,
                imm: 0x12345,
            },
            Instr::Auipc {
                rd: reg::A3,
                imm: 0x700,
            },
        ];
        for (rd, instr) in [
            Instr::Slti {
                rd: 0,
                rs1: reg::A0,
                imm: 5,
            },
            Instr::Sltiu {
                rd: 0,
                rs1: reg::A0,
                imm: 5,
            },
            Instr::Xori {
                rd: 0,
                rs1: reg::A0,
                imm: -3,
            },
            Instr::Ori {
                rd: 0,
                rs1: reg::A0,
                imm: 0x55,
            },
            Instr::Andi {
                rd: 0,
                rs1: reg::A0,
                imm: 0x3C,
            },
            Instr::Slli {
                rd: 0,
                rs1: reg::A0,
                shamt: 3,
            },
            Instr::Srli {
                rd: 0,
                rs1: reg::A0,
                shamt: 5,
            },
            Instr::Srai {
                rd: 0,
                rs1: reg::A0,
                shamt: 5,
            },
            Instr::Add {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sub {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sll {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Slt {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sltu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Xor {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Srl {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sra {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Or {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::And {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mul {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulh {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulhsu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulhu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Div {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Divu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Rem {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Remu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Div {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::ZERO,
            },
            Instr::Rem {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::ZERO,
            },
            Instr::Sdotp8 {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sdotp4 {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, instr)| ((8 + (i % 20)) as u8, instr))
        {
            // Rotate destinations through s/t registers so results feed
            // later inputs and divergence cannot cancel out.
            let fixed = match instr {
                Instr::Slti { rs1, imm, .. } => Instr::Slti { rd, rs1, imm },
                Instr::Sltiu { rs1, imm, .. } => Instr::Sltiu { rd, rs1, imm },
                Instr::Xori { rs1, imm, .. } => Instr::Xori { rd, rs1, imm },
                Instr::Ori { rs1, imm, .. } => Instr::Ori { rd, rs1, imm },
                Instr::Andi { rs1, imm, .. } => Instr::Andi { rd, rs1, imm },
                Instr::Slli { rs1, shamt, .. } => Instr::Slli { rd, rs1, shamt },
                Instr::Srli { rs1, shamt, .. } => Instr::Srli { rd, rs1, shamt },
                Instr::Srai { rs1, shamt, .. } => Instr::Srai { rd, rs1, shamt },
                Instr::Add { rs1, rs2, .. } => Instr::Add { rd, rs1, rs2 },
                Instr::Sub { rs1, rs2, .. } => Instr::Sub { rd, rs1, rs2 },
                Instr::Sll { rs1, rs2, .. } => Instr::Sll { rd, rs1, rs2 },
                Instr::Slt { rs1, rs2, .. } => Instr::Slt { rd, rs1, rs2 },
                Instr::Sltu { rs1, rs2, .. } => Instr::Sltu { rd, rs1, rs2 },
                Instr::Xor { rs1, rs2, .. } => Instr::Xor { rd, rs1, rs2 },
                Instr::Srl { rs1, rs2, .. } => Instr::Srl { rd, rs1, rs2 },
                Instr::Sra { rs1, rs2, .. } => Instr::Sra { rd, rs1, rs2 },
                Instr::Or { rs1, rs2, .. } => Instr::Or { rd, rs1, rs2 },
                Instr::And { rs1, rs2, .. } => Instr::And { rd, rs1, rs2 },
                Instr::Mul { rs1, rs2, .. } => Instr::Mul { rd, rs1, rs2 },
                Instr::Mulh { rs1, rs2, .. } => Instr::Mulh { rd, rs1, rs2 },
                Instr::Mulhsu { rs1, rs2, .. } => Instr::Mulhsu { rd, rs1, rs2 },
                Instr::Mulhu { rs1, rs2, .. } => Instr::Mulhu { rd, rs1, rs2 },
                Instr::Div { rs1, rs2, .. } => Instr::Div { rd, rs1, rs2 },
                Instr::Divu { rs1, rs2, .. } => Instr::Divu { rd, rs1, rs2 },
                Instr::Rem { rs1, rs2, .. } => Instr::Rem { rd, rs1, rs2 },
                Instr::Remu { rs1, rs2, .. } => Instr::Remu { rd, rs1, rs2 },
                Instr::Sdotp8 { rs1, rs2, .. } => Instr::Sdotp8 { rd, rs1, rs2 },
                Instr::Sdotp4 { rs1, rs2, .. } => Instr::Sdotp4 { rd, rs1, rs2 },
                other => other,
            };
            program.push(fixed);
        }
        program.push(Instr::Ebreak);
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(1_000).unwrap();
        cached.run(1_000).unwrap();
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn loads_and_stores_of_every_width_match_simple_mode() {
        let program = [
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: -259,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 0,
            },
            Instr::Store {
                op: StoreOp::Sh,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 4,
            },
            Instr::Store {
                op: StoreOp::Sb,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 6,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lh,
                rd: reg::A3,
                rs1: reg::A0,
                offset: 4,
            },
            Instr::Load {
                op: LoadOp::Lhu,
                rd: reg::A4,
                rs1: reg::A0,
                offset: 4,
            },
            Instr::Load {
                op: LoadOp::Lb,
                rd: reg::A5,
                rs1: reg::A0,
                offset: 6,
            },
            Instr::Load {
                op: LoadOp::Lbu,
                rd: reg::A6,
                rs1: reg::A0,
                offset: 6,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(100).unwrap();
        cached.run(100).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A2) as i32, -259);
        assert_eq!(cached.reg(reg::A5) as i32, -3); // low byte of -259
    }

    #[test]
    fn memory_faults_match_simple_mode() {
        let program = [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 5,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::ZERO,
                rs2: reg::A0,
                offset: 0,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn illegal_instruction_faults_match_simple_mode() {
        let mut bytes = Vec::new();
        for i in [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 2,
            },
        ] {
            bytes.extend_from_slice(&i.encode().to_le_bytes());
        }
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let mut simple = Cpu::new_default();
        simple.load_program_bytes(&bytes).unwrap();
        let mut cached = Cpu::new_default();
        cached.set_exec_mode(ExecMode::BlockCached);
        cached.load_program_bytes(&bytes).unwrap();
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn timeouts_match_simple_mode() {
        let program = [Instr::Jal {
            rd: reg::ZERO,
            offset: 0,
        }];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(100).unwrap_err();
        let ec = cached.run(100).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn mid_block_timeout_counts_instructions_exactly() {
        // A long straight-line block; the budget cuts it mid-way.
        let mut program = vec![];
        for _ in 0..20 {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Ebreak);
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(7).unwrap_err();
        let ec = cached.run(7).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 7);
    }

    #[test]
    fn jalr_with_rd_equal_rs1_matches_simple_mode() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 12,
            },
            Instr::Jalr {
                rd: reg::T0,
                rs1: reg::T0,
                offset: 0,
            },
            Instr::Ebreak, // skipped
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(10).unwrap();
        cached.run(10).unwrap();
        assert_same_architectural_state(&simple, &cached);
        // The target (old t0 = 12) was read before the link overwrote t0.
        assert_eq!(cached.reg(reg::T0), 8);
        assert_eq!(cached.pc, 16, "jumped to old t0 = 12, then past ebreak");
    }

    #[test]
    fn load_use_hazards_add_stall_cycles_over_the_flat_model() {
        let program = [
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::A0,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            // Immediately consumes the loaded value: one interlock stall.
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A1,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(10).unwrap();
        let rc = cached.run(10).unwrap();
        assert_eq!(rs.instructions, rc.instructions);
        assert_eq!(rc.cycles, rs.cycles + 1, "exactly the load-use stall");
        assert_eq!(cached.pipeline_stats().load_use_stalls, 1);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn faulting_instruction_leaves_no_pipeline_residue() {
        // lw a1 <- valid; lw a2 <- *a1 where a1 holds an invalid address.
        // The second load both consumes the first load's destination (a
        // would-be stall) and faults; a faulting instruction must charge
        // no cycles, record no stall and leave the hazard state untouched.
        let program = [
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::ZERO,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A1,
                offset: 0,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(
            simple.cycles, cached.cycles,
            "faulting stall must not be charged"
        );
        let stats = cached.pipeline_stats();
        assert_eq!(
            stats.load_use_stalls, 0,
            "unretired stall must not be counted"
        );
    }

    #[test]
    fn cache_is_reused_across_clones_and_invalidated_on_load() {
        let program = [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Ebreak,
        ];
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        let mut warm = cpu.clone();
        warm.run(10).unwrap();
        // The clone warmed the shared cache.
        assert_eq!(cpu.cached_blocks(), 1);
        // Loading a new image detaches and clears this CPU's cache only.
        cpu.load_program(&[Instr::Ebreak]).unwrap();
        assert_eq!(cpu.cached_blocks(), 0);
        assert_eq!(warm.cached_blocks(), 1);
    }

    #[test]
    fn run_can_resume_after_timeout() {
        let mut program = vec![];
        for _ in 0..10 {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Ebreak);
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        assert!(cpu.run(4).is_err());
        let summary = cpu.run(100).unwrap();
        assert_eq!(cpu.reg(reg::A0), 10);
        assert_eq!(summary.instructions, 7); // 6 remaining addis + ebreak
    }

    #[test]
    fn cpu_is_send_and_sync() {
        // Compile-time property: parallel frame evaluation moves warmed
        // CPU clones across threads. The shared block cache must therefore
        // never reintroduce `Rc`/`RefCell`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cpu>();
        assert_send_sync::<BlockCache>();
        assert_send_sync::<Block>();
    }

    #[test]
    fn warmed_cpu_clone_runs_on_another_thread_with_identical_results() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 30,
            },
            Instr::Add {
                rd: reg::A0,
                rs1: reg::A0,
                rs2: reg::T0,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: -8,
            },
            Instr::Ebreak,
        ];
        let mut base = Cpu::new_default().with_exec_mode(ExecMode::BlockCached);
        base.load_program(&program).unwrap();
        // Warm the shared cache on this thread.
        let mut warm = base.clone();
        warm.run(100_000).unwrap();
        assert!(base.cached_blocks() > 0, "warming built the blocks");
        // `base` never ran, but it shares the table `warm` filled: every
        // clone dispatches and folds from those prebuilt blocks.
        for cpu in &run_clones_at_once(&base) {
            assert_same_architectural_state(&warm, cpu);
        }
    }

    /// Runs four clones of `base` on four threads, released together by
    /// a barrier, and returns them once every run has finished.
    fn run_clones_at_once(base: &Cpu) -> Vec<Cpu> {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut cpu = base.clone();
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        cpu.run(100_000).unwrap();
                        cpu
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn fallthrough_split_and_backward_jal_match_simple_mode() {
        // One program exercising both end exits with a static successor:
        //  * a straight-line run longer than MAX_BLOCK_LEN, so the first
        //    trace ends with BlockEnd::Fallthrough and dispatches its
        //    continuation;
        //  * a backward JAL that ends the trace with a static unfollowed
        //    JAL back to the loop head.
        use crate::block::MAX_BLOCK_LEN;
        let body = MAX_BLOCK_LEN + 40; // splits into two traces
        let mut program = vec![Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 25,
        }];
        let loop_head = program.len(); // trace entry of the loop
        for _ in 0..body {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::T0,
            imm: -1,
        });
        // Loop exit: skip the backward jump once t0 hits zero.
        program.push(Instr::Branch {
            op: BranchOp::Beq,
            rs1: reg::T0,
            rs2: reg::ZERO,
            offset: 8,
        });
        let jal_at = program.len();
        program.push(Instr::Jal {
            rd: reg::ZERO,
            offset: ((loop_head as i64 - jal_at as i64) * 4) as i32,
        });
        program.push(Instr::Ebreak);

        let (mut simple, mut cached) = cpu_pair(&program);
        let budget = 200_000;
        let rs = simple.run(budget).unwrap();
        let rc = cached.run(budget).unwrap();
        assert_eq!(rs.instructions, rc.instructions);
        assert_eq!(rs.cycles, rc.cycles, "no loads, so no interlock stalls");
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 25 * body as u32);
        // The straight-line body really did split: more than one trace.
        assert!(cached.cached_blocks() >= 2, "fallthrough split expected");
    }

    #[test]
    fn static_jal_end_exit_between_distinct_traces_matches_simple_mode() {
        // The entry trace runs into the loop and ends with an *unfollowed*
        // static JAL (its target is already inside the trace), whose end
        // exit dispatches the loop-head trace — a distinct block, so the
        // self-loop fast path does not take it.
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 25,
            },
            // loop head (idx 1)
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Beq,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: 12,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::A1,
                imm: 1,
            },
            // idx 5: backward jump to the loop head (idx 1).
            Instr::Jal {
                rd: reg::ZERO,
                offset: -16,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(10_000).unwrap();
        let rc = cached.run(10_000).unwrap();
        assert_eq!(rs, rc, "no loads, so no interlock stalls");
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 25);
        assert_eq!(cached.reg(reg::A1), 24);
        assert!(cached.cached_blocks() >= 2, "two distinct traces expected");
    }

    #[test]
    fn hottest_blocks_ranks_the_inner_loop_first() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 20,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::ZERO,
                imm: 10,
            },
            // inner loop body at +8
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: -4,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: -16,
            },
            Instr::Ebreak,
        ];
        let mut cpu = Cpu::new_default().with_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        cpu.run(100_000).unwrap();
        let hot = cpu.hottest_blocks(10);
        assert!(!hot.is_empty());
        let total: u64 = hot.iter().map(|h| h.instructions).sum();
        assert_eq!(total, cpu.instret, "profile accounts every instruction");
        assert!(
            hot[0].executions >= 20,
            "the hottest trace is executed once per outer iteration at least"
        );
        for pair in hot.windows(2) {
            assert!(pair[0].instructions >= pair[1].instructions);
        }
        // The profile resets with the program image.
        cpu.load_program(&[Instr::Ebreak]).unwrap();
        assert!(cpu.hottest_blocks(10).is_empty());
    }

    /// Nested loops over several traces: inner blocks execute thousands
    /// of times, so the fold-based exit accounting is exercised hard.
    fn nested_loops() -> [Instr; 8] {
        [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 40,
            }, // outer
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::ZERO,
                imm: 25,
            }, // inner
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: -8,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: -20,
            },
            Instr::Ebreak,
        ]
    }

    #[test]
    fn branch_heavy_program_traces_match_simple_mode() {
        let (mut simple, mut cached) = cpu_pair(&nested_loops());
        simple.run(100_000).unwrap();
        cached.run(100_000).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 40 * 25);
    }

    #[test]
    fn cold_clones_build_each_block_once_across_threads() {
        let (_, mut serial) = cpu_pair(&nested_loops());
        serial.run(100_000).unwrap();
        assert!(serial.cached_blocks() >= 3, "several traces expected");
        // Four clones of a CPU that never ran enter the same empty slots
        // at once.
        let (_, base) = cpu_pair(&nested_loops());
        for cpu in &run_clones_at_once(&base) {
            assert_same_architectural_state(&serial, cpu);
        }
        assert_eq!(base.cached_blocks(), serial.cached_blocks());
    }

    // ---- macro-op fusion differential tests -------------------------

    use crate::mem_model::{MaupitiMemConfig, MemoryModel};

    /// Flat, the silicon-default Maupiti hierarchy, a 1-entry Maupiti
    /// prefetch buffer (only the first load of a MAC pass entered right
    /// after a redirect contends; with the default 4 entries both do),
    /// and a Maupiti prefetch buffer deeper than the 16 instructions
    /// ahead of the nest's channel-loop loads, so a window entering a
    /// nest iteration reaches the first of them.
    fn memory_models() -> [MemoryModel; 4] {
        [
            MemoryModel::Flat,
            MemoryModel::maupiti(),
            MemoryModel::Maupiti(MaupitiMemConfig {
                prefetch_entries: 1,
                refill_cycles: 2,
                contention_cycles: 1,
            }),
            MemoryModel::Maupiti(MaupitiMemConfig {
                prefetch_entries: 17,
                refill_cycles: 3,
                contention_cycles: 2,
            }),
        ]
    }

    /// Runs `program` on three CPUs — the Simple reference, BlockCached
    /// with fusion off and BlockCached with fusion on — under the same
    /// instruction budget and memory model, and asserts that the fused
    /// engine is bit-identical to both: architectural state and instret
    /// against Simple, plus cycles, stall breakdowns, memory-model stats
    /// and the full data image against the unfused block engine. Returns
    /// `(unfused, fused)` for extra per-test assertions.
    fn assert_fusion_parity(
        program: &[Instr],
        budget: u64,
        model: MemoryModel,
        setup: &dyn Fn(&mut Cpu),
    ) -> (Cpu, Cpu) {
        let mut simple = Cpu::new_default();
        simple.set_memory_model(model);
        simple.load_program(program).unwrap();
        setup(&mut simple);
        let rs = simple.run(budget);

        let run_cached = |fusion: bool| {
            let mut cpu = Cpu::new_default();
            cpu.set_exec_mode(ExecMode::BlockCached);
            cpu.set_macro_fusion(fusion);
            cpu.set_memory_model(model);
            cpu.load_program(program).unwrap();
            setup(&mut cpu);
            let r = cpu.run(budget);
            (cpu, r)
        };
        let (unfused, ru) = run_cached(false);
        let (fused, rf) = run_cached(true);

        assert_eq!(ru, rf, "run outcome diverged fused vs unfused");
        assert_eq!(
            rs.as_ref().err(),
            rf.as_ref().err(),
            "fault behaviour diverged fused vs Simple"
        );
        if let (Ok(s), Ok(f)) = (&rs, &rf) {
            assert_eq!(s.instructions, f.instructions);
        }
        assert_same_architectural_state(&simple, &fused);
        for r in 0..32 {
            assert_eq!(unfused.reg(r), fused.reg(r), "register x{r} diverged");
        }
        assert_eq!(unfused.pc, fused.pc, "pc diverged");
        assert_eq!(unfused.instret, fused.instret, "instret diverged");
        assert_eq!(unfused.cycles, fused.cycles, "cycles diverged");
        assert_eq!(unfused.sdotp, fused.sdotp, "SDOTP count diverged");
        assert_eq!(unfused.halted(), fused.halted());
        assert_eq!(
            unfused.pipeline.stats, fused.pipeline.stats,
            "pipeline stall breakdown diverged"
        );
        assert_eq!(unfused.mem_stats, fused.mem_stats, "memory stats diverged");
        let len = fused.mem.dmem_size();
        assert_eq!(
            simple.mem.read_dmem(DMEM_BASE, len),
            fused.mem.read_dmem(DMEM_BASE, len),
            "data memory diverged fused vs Simple"
        );
        assert_eq!(
            unfused.mem.read_dmem(DMEM_BASE, len),
            fused.mem.read_dmem(DMEM_BASE, len),
            "data memory diverged fused vs unfused"
        );
        (unfused, fused)
    }

    /// Materialises `DMEM_BASE + extra` (or `DMEM_BASE + 16K - extra`
    /// when probing the end of data memory) without exceeding the
    /// 12-bit `addi` immediate.
    fn li_addr(rd: u8, near_end: bool, extra: i32) -> [Instr; 2] {
        let (upper, imm) = if near_end {
            (0x104, -extra) // DMEM_BASE + 16 KiB
        } else {
            (0x100, extra)
        };
        [
            Instr::Lui { rd, imm: upper },
            Instr::Addi { rd, rs1: rd, imm },
        ]
    }

    /// The SDOTP channel-loop idiom emitted by the kernel code
    /// generator, preceded by pointer/counter setup.
    fn mac_program(four_bit: bool, count: i32) -> Vec<Instr> {
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
        let mut p = Vec::new();
        p.extend(li_addr(reg::T1, false, 0));
        p.extend(li_addr(reg::T2, false, 512));
        p.push(Instr::Addi {
            rd: reg::T3,
            rs1: reg::ZERO,
            imm: count,
        });
        p.push(Instr::Addi {
            rd: reg::S7,
            rs1: reg::ZERO,
            imm: 7,
        });
        p.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
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
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -24,
            },
            Instr::Ebreak,
        ]);
        p
    }

    fn fill_dmem(cpu: &mut Cpu) {
        let bytes: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        cpu.mem.write_dmem(DMEM_BASE, &bytes);
    }

    #[test]
    fn fused_mac_loops_match_unfused_and_simple_bit_for_bit() {
        for four_bit in [false, true] {
            for model in [MemoryModel::Flat, MemoryModel::maupiti()] {
                let (unfused, fused) =
                    assert_fusion_parity(&mac_program(four_bit, 60), 100_000, model, &fill_dmem);
                assert_eq!(unfused.fusion_profile(), &[]);
                let profile = fused.fusion_profile();
                let want = if four_bit { "mac_sdotp4" } else { "mac_sdotp8" };
                assert_eq!(profile.len(), 1);
                assert_eq!(profile[0].0, want);
                // The loop body sits behind the setup code inside the
                // prologue trace; mid-trace recognition fuses it there,
                // so every iteration executes through the fused path.
                assert_eq!(profile[0].2, 60);
            }
        }
    }

    #[test]
    fn single_iteration_and_fallthrough_entry_match() {
        // cnt0 == 1: one iteration, back-edge never taken.
        assert_fusion_parity(
            &mac_program(false, 1),
            100_000,
            MemoryModel::Flat,
            &fill_dmem,
        );
        // cnt0 == 2: exactly one taken back-edge.
        assert_fusion_parity(
            &mac_program(false, 2),
            100_000,
            MemoryModel::Flat,
            &fill_dmem,
        );
    }

    #[test]
    fn zero_trip_count_wraps_and_times_out_identically() {
        // A do-while loop entered with cnt == 0 runs 2^32 iterations;
        // with a small budget both engines must time out at the same
        // instruction, with identical partial register state.
        let p = mac_program(false, 0);
        // Budgets hitting the loop at every phase: mid-iteration, on an
        // iteration boundary and right at the back-edge.
        for budget in [100, 101, 102, 103, 104, 4003] {
            assert_fusion_parity(&p, budget, MemoryModel::Flat, &fill_dmem);
        }
    }

    #[test]
    fn budget_expiry_mid_fused_loop_matches() {
        // 60 MAC iterations * 7 instructions after a 6-instruction
        // prologue; every budget up to past the final ebreak crosses each
        // iteration boundary and each position inside an iteration.
        let p = mac_program(false, 60);
        for model in memory_models() {
            for budget in 1..=500u64 {
                assert_fusion_parity(&p, budget, model, &fill_dmem);
            }
        }
    }

    /// `mac_program` whose last setup instruction loads the loop's first
    /// pointer from data memory (`lw t1, 0(t6)`), so the loop head's
    /// `lw t4, 0(t1)` enters the fused loop with a pending load and pays
    /// one load-use stall.
    fn mac_program_loaded_pointer(count: i32) -> Vec<Instr> {
        let mut p = Vec::new();
        p.extend(li_addr(reg::T6, false, 1536));
        p.extend(li_addr(reg::T1, false, 0));
        p.push(Instr::Store {
            op: StoreOp::Sw,
            rs1: reg::T6,
            rs2: reg::T1,
            offset: 0,
        });
        p.push(Instr::Addi {
            rd: reg::T1,
            rs1: reg::ZERO,
            imm: 0,
        });
        let mac = mac_program(false, count);
        // `mac_program` is four setup instructions for t1/t2, then t3 and
        // s7, then the loop; keep all but t1's setup and load t1 last.
        p.extend_from_slice(&mac[2..6]);
        p.push(Instr::Load {
            op: LoadOp::Lw,
            rd: reg::T1,
            rs1: reg::T6,
            offset: 0,
        });
        p.extend_from_slice(&mac[6..]);
        p
    }

    #[test]
    fn fused_mac_entered_with_a_pending_load_pays_the_head_stall() {
        let count = 60;
        let p = mac_program_loaded_pointer(count);
        for model in memory_models() {
            let (unfused, fused) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
            // One lw -> sdotp interlock per iteration plus the head's.
            assert_eq!(
                unfused.pipeline_stats().load_use_stalls,
                count as u64 + 1,
                "{model:?}"
            );
            assert_eq!(fused.fusion_profile(), [("mac_sdotp8", 1, count as u64)]);
            for budget in 1..=500u64 {
                assert_fusion_parity(&p, budget, model, &fill_dmem);
            }
        }
    }

    #[test]
    fn out_of_bounds_stream_falls_back_and_faults_identically() {
        // The weight stream runs off the end of data memory; the fused
        // path must decline and the unfused trace must reproduce the
        // exact fault.
        let mut p = mac_program(false, 64);
        // 8 words of headroom for a 64-word stream.
        p.splice(2..4, li_addr(reg::T2, true, 32));
        let (_, fused) = assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
        assert!(
            fused.fusion_profile().is_empty(),
            "a declined stream must not count as a fusion hit"
        );
    }

    #[test]
    fn reloading_a_program_resets_the_fusion_profile() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        assert_eq!(cpu.fusion_profile(), [("mac_sdotp8", 1, 60)]);
        // Loading a new image invalidates the decoded blocks and the
        // fusion counters; the 4-bit loop then fuses from scratch.
        cpu.load_program(&mac_program(true, 8)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        assert_eq!(cpu.fusion_profile(), [("mac_sdotp4", 1, 8)]);
    }

    #[test]
    fn hottest_blocks_attribution_still_sums_to_instret_with_fusion() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        let blocks = cpu.hottest_blocks(16);
        let total: u64 = blocks.iter().map(|b| b.instructions).sum();
        assert_eq!(
            total, cpu.instret,
            "per-block attribution must sum to instret"
        );
        let hot = &blocks[0];
        assert_eq!(hot.fused_kind, Some("mac_sdotp8"));
        assert!(hot.fused_entries >= 1);
        // Mid-trace recognition fuses the loop inside the prologue
        // trace, so all 60 iterations are attributed to one block.
        assert_eq!(hot.fused_iterations, 60);
        assert!(hot.fused_cycles > 0);
    }

    #[test]
    fn toggling_fusion_off_disables_the_fused_path() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        assert!(cpu.macro_fusion());
        cpu.set_macro_fusion(false);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        assert!(cpu.fusion_profile().is_empty());
        assert!(cpu
            .hottest_blocks(16)
            .iter()
            .all(|b| b.fused_kind.is_none()));
    }

    /// An output-row sweep over the conv3x3 kernel-x guard nest, exactly
    /// as `emit_conv3x3` lays it out: for each `ox` in `0..w`, reset the
    /// accumulator, run kx in `0..3` with left/right padding guards
    /// around an SDOTP channel loop, then consume the accumulator. The
    /// first trace (entry 0) carries the nest as a suffix at start 12;
    /// the re-entry trace at the loop head carries it at start 0.
    fn conv_nest_program(w: i32, ch: i32) -> Vec<Instr> {
        let mut p = Vec::new();
        p.extend(li_addr(reg::A0, false, 0)); // xbase
        p.extend(li_addr(reg::S10, false, 512)); // wbase
        for (rd, imm) in [
            (reg::A4, w),
            (reg::A5, ch),
            (reg::S8, 1),  // ky
            (reg::S11, 2), // iy
            (reg::S6, 0),  // ox
            (reg::S5, 0),  // checksum
        ] {
            p.push(Instr::Addi {
                rd,
                rs1: reg::ZERO,
                imm,
            });
        }
        // ox loop head (index 10): reset acc, kx = 0.
        p.push(Instr::Addi {
            rd: reg::S7,
            rs1: reg::ZERO,
            imm: 7,
        });
        p.push(Instr::Addi {
            rd: reg::T6,
            rs1: reg::ZERO,
            imm: 0,
        });
        // kx nest, indices 12..=36.
        p.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 3,
        });
        p.push(Instr::Branch {
            op: BranchOp::Bge,
            rs1: reg::T6,
            rs2: reg::T0,
            offset: 24 * 4,
        });
        p.push(Instr::Add {
            rd: reg::T0,
            rs1: reg::S6,
            rs2: reg::T6,
        });
        p.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::T0,
            imm: -1,
        });
        p.push(Instr::Branch {
            op: BranchOp::Blt,
            rs1: reg::T0,
            rs2: reg::ZERO,
            offset: (23 - 4) * 4,
        });
        p.push(Instr::Branch {
            op: BranchOp::Bge,
            rs1: reg::T0,
            rs2: reg::A4,
            offset: (23 - 5) * 4,
        });
        p.push(Instr::Mul {
            rd: reg::T1,
            rs1: reg::S11,
            rs2: reg::A4,
        });
        p.push(Instr::Add {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::T0,
        });
        p.push(Instr::Mul {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::A5,
        });
        p.push(Instr::Add {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::A0,
        });
        p.push(Instr::Addi {
            rd: reg::T2,
            rs1: reg::ZERO,
            imm: 3,
        });
        p.push(Instr::Mul {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::S8,
        });
        p.push(Instr::Add {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::T6,
        });
        p.push(Instr::Mul {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::A5,
        });
        p.push(Instr::Add {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::S10,
        });
        p.push(Instr::Srli {
            rd: reg::T3,
            rs1: reg::A5,
            shamt: 2,
        });
        p.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T5,
                rs1: reg::T2,
                offset: 0,
            },
            Instr::Sdotp8 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            },
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
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -24,
            },
        ]);
        p.push(Instr::Addi {
            rd: reg::T6,
            rs1: reg::T6,
            imm: 1,
        });
        p.push(Instr::Jal {
            rd: reg::ZERO,
            offset: -24 * 4,
        });
        // kx_end (index 37): fold the accumulator, advance ox.
        p.push(Instr::Add {
            rd: reg::S5,
            rs1: reg::S5,
            rs2: reg::S7,
        });
        p.push(Instr::Addi {
            rd: reg::S6,
            rs1: reg::S6,
            imm: 1,
        });
        p.push(Instr::Branch {
            op: BranchOp::Blt,
            rs1: reg::S6,
            rs2: reg::A4,
            offset: (10 - 39) * 4,
        });
        p.push(Instr::Ebreak);
        p
    }

    #[test]
    fn fused_conv_nest_matches_unfused_and_simple_bit_for_bit() {
        // W = 6, ch = 8 bytes (trip 2): ox = 0 takes the left-padding
        // guard, ox = 5 the right-padding guard, everything else runs
        // three full kernel taps. A full budget sweep under every memory
        // model crosses every phase: prologue, guard skips,
        // mid-channel-loop expiry and the iteration boundaries of the
        // fused nest.
        let p = conv_nest_program(6, 8);
        // trip 1 (ch = 4): the channel loop collapses to a single pass.
        let p1 = conv_nest_program(6, 4);
        for model in memory_models() {
            for budget in 1..=600u64 {
                assert_fusion_parity(&p, budget, model, &fill_dmem);
            }
            let (_, fused) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
            let profile = fused.fusion_profile();
            assert!(
                profile.iter().any(|(name, entries, iters)| {
                    *name == "conv3x3_nest" && *entries >= 6 && *iters >= 18
                }),
                "{model:?}: nest should dominate the profile, got {profile:?}"
            );
            let hot = fused.hottest_blocks(usize::MAX);
            assert!(hot.iter().any(|b| b.fused_kind == Some("conv3x3_nest")));
            // Every memory-model stall cycle, bulk-charged nest
            // iterations included, is attributed to a trace.
            let attributed: u64 = hot.iter().map(|b| b.mem_stall_cycles).sum();
            assert_eq!(attributed, fused.mem_stats().stall_cycles(), "{model:?}");

            for budget in [1, 17, 40, 41, 42, 100, 253, 254, 255, 100_000] {
                assert_fusion_parity(&p1, budget, model, &fill_dmem);
            }
        }
    }

    #[test]
    fn conv_nest_zero_trip_channel_loop_times_out_identically() {
        // ch = 2 makes `srli` produce a zero trip count: the do-while
        // channel loop wraps through 2^32 iterations. The nest must
        // decline at the iteration boundary and both engines time out on
        // the same instruction with identical partial state.
        let p = conv_nest_program(6, 2);
        for model in memory_models() {
            for budget in [40, 41, 50, 100, 200] {
                assert_fusion_parity(&p, budget, model, &fill_dmem);
            }
        }
    }

    #[test]
    fn conv_nest_out_of_bounds_stream_faults_identically() {
        // iy = 2000 pushes xptr far past data memory: the fused nest
        // must decline the iteration untouched and the unfused replay
        // reproduces the exact access fault.
        let mut p = conv_nest_program(6, 8);
        p[7] = Instr::Addi {
            rd: reg::S11,
            rs1: reg::ZERO,
            imm: 2000,
        };
        assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
        assert_fusion_parity(&p, 100_000, MemoryModel::maupiti(), &fill_dmem);
    }

    mod fusion_props {
        use super::*;
        use proptest::prelude::*;

        /// Seeds data memory with a deterministic byte pattern.
        fn seeded_fill(seed: u64) -> impl Fn(&mut Cpu) {
            move |cpu: &mut Cpu| {
                let mut state = seed | 1;
                let bytes: Vec<u8> = (0..cpu.mem.dmem_size())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as u8
                    })
                    .collect();
                cpu.mem.write_dmem(DMEM_BASE, &bytes);
            }
        }

        proptest! {
            /// Random SDOTP MAC reductions — both lane widths, random
            /// word strides (unaligned included: data memory has no
            /// alignment requirement), random budgets — are
            /// bit-identical.
            #[test]
            fn random_mac_loops_are_bit_identical(
                four_bit in any::<bool>(),
                s1 in -8i32..9,
                s2 in -8i32..9,
                count in 0i32..70,
                e1 in 600i32..1800,
                e2 in 600i32..1800,
                near_end_sel in 0u32..5,
                budget in 1u64..1200,
                seed in any::<u64>(),
            ) {
                let sdotp = if four_bit {
                    Instr::Sdotp4 { rd: reg::S7, rs1: reg::T4, rs2: reg::T5 }
                } else {
                    Instr::Sdotp8 { rd: reg::S7, rs1: reg::T4, rs2: reg::T5 }
                };
                let near_end = near_end_sel == 0;
                let mut p = Vec::new();
                p.extend(li_addr(reg::T1, near_end, e1));
                p.extend(li_addr(reg::T2, false, e2));
                p.push(Instr::Addi { rd: reg::T3, rs1: reg::ZERO, imm: count });
                p.extend([
                    Instr::Load { op: LoadOp::Lw, rd: reg::T4, rs1: reg::T1, offset: 0 },
                    Instr::Load { op: LoadOp::Lw, rd: reg::T5, rs1: reg::T2, offset: 0 },
                    sdotp,
                    Instr::Addi { rd: reg::T1, rs1: reg::T1, imm: s1 },
                    Instr::Addi { rd: reg::T2, rs1: reg::T2, imm: s2 },
                    Instr::Addi { rd: reg::T3, rs1: reg::T3, imm: -1 },
                    Instr::Branch { op: BranchOp::Bne, rs1: reg::T3, rs2: reg::ZERO, offset: -24 },
                    Instr::Ebreak,
                ]);
                for model in memory_models() {
                    assert_fusion_parity(&p, budget, model, &seeded_fill(seed));
                }
            }
        }
    }
}
