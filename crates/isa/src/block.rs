//! Superblock (trace) extraction: straight-line regions decoded once,
//! extended through conditional branches and unconditional jumps.
//!
//! A trace starts at an entry PC and grows instruction by instruction:
//!
//! * ordinary instructions are appended;
//! * **conditional branches** become *side exits*: the trace continues on
//!   the fall-through path, and a taken branch leaves the trace mid-way
//!   (bounds-check branches in the generated kernels are almost never
//!   taken, so the hot path stays inside one trace);
//! * **unconditional jumps (JAL)** are *followed*: the jump stays in the
//!   trace (it retires, links and is charged its flush cycles) and decoding
//!   continues at its target, so loop tails like `addi; j loop_head` no
//!   longer split the loop body;
//! * JALR (dynamic target), ECALL/EBREAK, a JAL to an address already in
//!   the trace (a cycle), the [`MAX_BLOCK_LEN`] cap, and undecodable or
//!   unfetchable words end the trace.
//!
//! Decode problems do **not** fail extraction: the trace ends early and
//! remembers the fault, which the engine raises only if execution actually
//! reaches that address — exactly matching the lazily-faulting reference
//! interpreter.
//!
//! Every possible way out of a trace (each side exit plus "ran to the
//! end") has an [`exit`](Block::exits) entry carrying the numbers of
//! instructions and SDOTPs retired on that path, so the engine can
//! account a whole trace execution with a single counter increment.

use crate::instr::{decode, Decoded, Op};
use crate::memory::Memory;
use std::collections::HashSet;

/// Upper bound on decoded instructions per trace, so pathological images
/// (e.g. instruction memory full of straight-line code) still produce
/// bounded traces. Execution falls through to the next trace seamlessly.
pub(crate) const MAX_BLOCK_LEN: usize = 1024;

/// Why extraction of a trace stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockEnd {
    /// The last instruction decides the next PC at run time (JALR, an
    /// unfollowed JAL) or halts the core (ECALL/EBREAK).
    Terminator,
    /// The trace hit [`MAX_BLOCK_LEN`]; execution falls through to
    /// [`Block::cont_pc`].
    Fallthrough,
    /// The next fetch would fail; raise `SimError::BadFetch` if reached.
    BadFetch {
        /// The unfetchable address.
        pc: u32,
    },
    /// The next word does not decode; raise `SimError::IllegalInstruction`
    /// if reached.
    Illegal {
        /// Address of the undecodable word.
        pc: u32,
        /// The raw word.
        word: u32,
    },
}

/// One way out of a trace, with the trace-prefix counts retired when
/// leaving through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitPoint {
    /// Number of instructions retired when exiting here (`idx + 1` for a
    /// side exit at instruction `idx`; `instrs.len()` for the end exit).
    pub retired: usize,
    /// SDOTP instructions among those `retired` instructions.
    pub sdotp: u64,
}

/// A decoded superblock of the program.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Address of the first instruction.
    pub entry_pc: u32,
    /// The pre-decoded instructions, in trace order. PCs are NOT
    /// necessarily contiguous: followed jumps splice their target stream
    /// into the trace.
    pub instrs: Vec<Decoded>,
    /// Why the trace ends.
    pub end: BlockEnd,
    /// Where execution continues when the trace runs to its end without a
    /// run-time redirect (fall-through / deferred-fault address).
    pub cont_pc: u32,
    /// All ways out of the trace; the last entry is always the end exit.
    /// Conditional branches hold their exit's index in
    /// [`Decoded::exit_ordinal`].
    pub exits: Vec<ExitPoint>,
    /// Per-trace access summary for the memory-hierarchy model:
    /// `mem_prefix[i]` counts the data accesses (loads + stores) among
    /// the trace's first `i` instructions, so any retired prefix's access
    /// count is one subtraction.
    pub mem_prefix: Vec<u32>,
    /// Ascending trace positions of instructions that *always* redirect
    /// the PC when executed — followed JALs mid-trace plus a terminator
    /// JAL/JALR. Together with [`Block::mem_prefix`] this lets the engine
    /// charge the memory model once per trace execution
    /// (`MemModelState::charge_prefix`) instead of once per instruction.
    pub redirects: Vec<u32>,
    /// Macro-op fusion: a recognised loop idiom inside the trace (the
    /// SDOTP MAC channel loop or the conv3x3 kernel-x guard nest) that
    /// the engine may execute as one bulk host loop per entry. `None`
    /// when the trace matches no pattern.
    pub fused: Option<crate::fusion::FusedOp>,
}

/// Decodes the superblock starting at `entry_pc`.
pub(crate) fn build_block(mem: &Memory, entry_pc: u32) -> Block {
    let mut instrs: Vec<Decoded> = Vec::new();
    let mut exits: Vec<ExitPoint> = Vec::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut sdotp = 0u64;
    let mut pc = entry_pc;
    let end = loop {
        if instrs.len() >= MAX_BLOCK_LEN {
            break BlockEnd::Fallthrough;
        }
        let Some(word) = mem.fetch(pc) else {
            break BlockEnd::BadFetch { pc };
        };
        let Ok(instr) = decode(word) else {
            break BlockEnd::Illegal { pc, word };
        };
        let mut d = Decoded::new(instr, pc);
        visited.insert(pc);
        sdotp += d.is_sdotp() as u64;
        match d.op {
            // Conditional branch: side exit, keep decoding the
            // fall-through path.
            Op::Beq { .. }
            | Op::Bne { .. }
            | Op::Blt { .. }
            | Op::Bge { .. }
            | Op::Bltu { .. }
            | Op::Bgeu { .. } => {
                d.exit_ordinal = exits.len() as u16;
                exits.push(ExitPoint {
                    retired: instrs.len() + 1,
                    sdotp,
                });
                instrs.push(d);
                pc = pc.wrapping_add(4);
            }
            // Unconditional jump: follow the target when it is new,
            // otherwise end the trace (loops back into itself).
            Op::Jal { link, target } => {
                if visited.contains(&target) {
                    instrs.push(d);
                    // cont_pc is unused (the jump always redirects).
                    pc = pc.wrapping_add(4);
                    break BlockEnd::Terminator;
                }
                d.op = Op::JalFollowed { link };
                instrs.push(d);
                pc = target;
            }
            // Dynamic target or halt: hard trace end. After a halt the PC
            // architecturally advances past the instruction, so `cont_pc`
            // must point behind it.
            Op::Jalr { .. } | Op::Halt => {
                instrs.push(d);
                pc = pc.wrapping_add(4);
                break BlockEnd::Terminator;
            }
            _ => {
                instrs.push(d);
                pc = pc.wrapping_add(4);
            }
        }
    };
    // The end exit: ran through every instruction of the trace.
    exits.push(ExitPoint {
        retired: instrs.len(),
        sdotp,
    });
    let mut mem_prefix = Vec::with_capacity(instrs.len() + 1);
    mem_prefix.push(0u32);
    let mut redirects = Vec::new();
    for (i, d) in instrs.iter().enumerate() {
        mem_prefix.push(mem_prefix[i] + (d.is_load || d.is_store) as u32);
        if matches!(
            d.op,
            Op::JalFollowed { .. } | Op::Jal { .. } | Op::Jalr { .. }
        ) {
            redirects.push(i as u32);
        }
    }
    let fused = crate::fusion::recognize(&instrs);
    Block {
        entry_pc,
        instrs,
        end,
        cont_pc: pc,
        exits,
        mem_prefix,
        redirects,
        fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchOp, Instr};
    use crate::memory::IMEM_BASE;
    use crate::reg;

    fn load(mem: &mut Memory, program: &[Instr]) {
        let mut bytes = Vec::new();
        for i in program {
            bytes.extend_from_slice(&i.encode().to_le_bytes());
        }
        mem.load_imem(&bytes).unwrap();
    }

    #[test]
    fn trace_ends_at_backward_jump_into_itself() {
        let mut mem = Memory::maupiti();
        load(
            &mut mem,
            &[
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
                Instr::Jal {
                    rd: reg::ZERO,
                    offset: -8,
                },
                Instr::Addi {
                    rd: reg::A2,
                    rs1: reg::ZERO,
                    imm: 3,
                },
            ],
        );
        let b = build_block(&mem, IMEM_BASE);
        assert_eq!(b.instrs.len(), 3);
        assert_eq!(b.end, BlockEnd::Terminator);
        // A trace can start in the middle of a region another trace covers;
        // from +4 the backward jump targets a *fresh* address (0), so the
        // builder follows it and the cycle closes one lap later:
        // [addi@4, jal@8 (followed), addi@0, addi@4, jal@8 (unfollowed)].
        let b2 = build_block(&mem, IMEM_BASE + 4);
        assert_eq!(b2.instrs.len(), 5);
        assert_eq!(b2.end, BlockEnd::Terminator);
        assert_eq!(b2.instrs[2].pc, IMEM_BASE);
    }

    #[test]
    fn forward_jumps_are_followed_into_one_trace() {
        let mut mem = Memory::maupiti();
        load(
            &mut mem,
            &[
                Instr::Addi {
                    rd: reg::A0,
                    rs1: reg::ZERO,
                    imm: 1,
                },
                Instr::Jal {
                    rd: reg::ZERO,
                    offset: 8,
                },
                Instr::Ebreak, // skipped by the jump
                Instr::Addi {
                    rd: reg::A1,
                    rs1: reg::ZERO,
                    imm: 2,
                },
                Instr::Ebreak,
            ],
        );
        let b = build_block(&mem, IMEM_BASE);
        // addi, jal (followed), addi@12, ebreak@16 — the skipped ebreak@8
        // is not part of the trace.
        assert_eq!(b.instrs.len(), 4);
        assert_eq!(b.end, BlockEnd::Terminator);
        assert!(matches!(b.instrs[1].op, Op::JalFollowed { .. }));
        assert_eq!(b.instrs[2].pc, IMEM_BASE + 12);
    }

    #[test]
    fn conditional_branches_become_side_exits() {
        let mut mem = Memory::maupiti();
        load(
            &mut mem,
            &[
                Instr::Sdotp8 {
                    rd: reg::A2,
                    rs1: reg::A0,
                    rs2: reg::A1,
                },
                Instr::Branch {
                    op: BranchOp::Beq,
                    rs1: reg::A0,
                    rs2: reg::ZERO,
                    offset: 8,
                },
                Instr::Sdotp4 {
                    rd: reg::A2,
                    rs1: reg::A0,
                    rs2: reg::A1,
                },
                Instr::Ebreak,
            ],
        );
        let b = build_block(&mem, IMEM_BASE);
        assert_eq!(b.instrs.len(), 4, "trace continues past the branch");
        assert_eq!(b.instrs[1].exit_ordinal, 0);
        // One side exit plus the end exit, each with the instructions and
        // SDOTPs retired when leaving through it.
        let exits: Vec<(usize, u64)> = b.exits.iter().map(|e| (e.retired, e.sdotp)).collect();
        assert_eq!(exits, [(2, 1), (4, 2)]);
    }

    #[test]
    fn halt_terminates_a_trace() {
        let mut mem = Memory::maupiti();
        load(
            &mut mem,
            &[
                Instr::Addi {
                    rd: reg::A0,
                    rs1: reg::ZERO,
                    imm: 1,
                },
                Instr::Ebreak,
            ],
        );
        let b = build_block(&mem, IMEM_BASE);
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.end, BlockEnd::Terminator);
    }

    #[test]
    fn illegal_word_defers_the_fault() {
        let mut mem = Memory::maupiti();
        let mut bytes = Instr::Addi {
            rd: reg::A0,
            rs1: reg::ZERO,
            imm: 1,
        }
        .encode()
        .to_le_bytes()
        .to_vec();
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        mem.load_imem(&bytes).unwrap();
        let b = build_block(&mem, IMEM_BASE);
        assert_eq!(b.instrs.len(), 1);
        assert_eq!(
            b.end,
            BlockEnd::Illegal {
                pc: IMEM_BASE + 4,
                word: 0xFFFF_FFFF
            }
        );
        assert_eq!(b.cont_pc, IMEM_BASE + 4);
    }

    #[test]
    fn empty_imem_yields_an_empty_faulting_trace() {
        let mem = Memory::new(0, 16);
        let b = build_block(&mem, IMEM_BASE);
        assert!(b.instrs.is_empty());
        assert_eq!(b.end, BlockEnd::BadFetch { pc: IMEM_BASE });
        assert_eq!(b.exits.len(), 1);
        assert_eq!(b.exits[0].retired, 0);
    }
}
