//! Instruction definitions, binary encoding and decoding.

/// Conditional branch comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if less than (signed).
    Blt,
    /// Branch if greater or equal (signed).
    Bge,
    /// Branch if less than (unsigned).
    Bltu,
    /// Branch if greater or equal (unsigned).
    Bgeu,
}

/// Memory load widths / sign behaviours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load signed byte.
    Lb,
    /// Load signed half-word.
    Lh,
    /// Load word.
    Lw,
    /// Load unsigned byte.
    Lbu,
    /// Load unsigned half-word.
    Lhu,
}

/// Memory store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store half-word.
    Sh,
    /// Store word.
    Sw,
}

/// One RV32IM (+ MAUPITI SDOTP) instruction.
///
/// Immediates are stored sign-extended; `Lui`/`Auipc` store the 20-bit
/// upper-immediate value (the architectural effect is `imm << 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Instr {
    Lui {
        rd: u8,
        imm: i32,
    },
    Auipc {
        rd: u8,
        imm: i32,
    },
    Jal {
        rd: u8,
        offset: i32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        offset: i32,
    },
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    Load {
        op: LoadOp,
        rd: u8,
        rs1: u8,
        offset: i32,
    },
    Store {
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    Addi {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Slti {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Sltiu {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Xori {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Ori {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Andi {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Slli {
        rd: u8,
        rs1: u8,
        shamt: u8,
    },
    Srli {
        rd: u8,
        rs1: u8,
        shamt: u8,
    },
    Srai {
        rd: u8,
        rs1: u8,
        shamt: u8,
    },
    Add {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sub {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sll {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Slt {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sltu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Xor {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Srl {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sra {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Or {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    And {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Mul {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Mulh {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Mulhsu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Mulhu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Div {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Divu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Rem {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Remu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// MAUPITI SDOTP on four signed 8-bit lanes:
    /// `rd += Σ_i sext8(rs1[i]) * sext8(rs2[i])`.
    Sdotp8 {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// MAUPITI SDOTP on eight signed 4-bit lanes:
    /// `rd += Σ_i sext4(rs1[i]) * sext4(rs2[i])`.
    Sdotp4 {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Ecall,
    Ebreak,
}

const OPC_LUI: u32 = 0x37;
const OPC_AUIPC: u32 = 0x17;
const OPC_JAL: u32 = 0x6F;
const OPC_JALR: u32 = 0x67;
const OPC_BRANCH: u32 = 0x63;
const OPC_LOAD: u32 = 0x03;
const OPC_STORE: u32 = 0x23;
const OPC_OP_IMM: u32 = 0x13;
const OPC_OP: u32 = 0x33;
const OPC_SYSTEM: u32 = 0x73;
/// `custom-0` opcode used by the MAUPITI SDOTP extension.
const OPC_CUSTOM0: u32 = 0x0B;

fn enc_r(funct7: u32, rs2: u8, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    (funct7 << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn enc_i(imm: i32, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    ((imm as u32 & 0xFFF) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn enc_s(imm: i32, rs2: u8, rs1: u8, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5 & 0x7F) << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
}

fn enc_b(imm: i32, rs2: u8, rs1: u8, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3F) << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((imm >> 1 & 0xF) << 8)
        | ((imm >> 11 & 1) << 7)
        | opcode
}

fn enc_u(imm20: i32, rd: u8, opcode: u32) -> u32 {
    ((imm20 as u32 & 0xF_FFFF) << 12) | ((rd as u32) << 7) | opcode
}

fn enc_j(imm: i32, rd: u8, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3FF) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xFF) << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

impl Instr {
    /// Encodes the instruction as a 32-bit RISC-V word.
    ///
    /// Immediates must fit their encoding field (e.g. 12 signed bits for
    /// `addi`): the encoder keeps only the field's bits, so debug builds
    /// check that the word decodes back to `self`.
    pub fn encode(self) -> u32 {
        use Instr::*;
        let word = match self {
            Lui { rd, imm } => enc_u(imm, rd, OPC_LUI),
            Auipc { rd, imm } => enc_u(imm, rd, OPC_AUIPC),
            Jal { rd, offset } => enc_j(offset, rd, OPC_JAL),
            Jalr { rd, rs1, offset } => enc_i(offset, rs1, 0, rd, OPC_JALR),
            Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let f3 = match op {
                    BranchOp::Beq => 0,
                    BranchOp::Bne => 1,
                    BranchOp::Blt => 4,
                    BranchOp::Bge => 5,
                    BranchOp::Bltu => 6,
                    BranchOp::Bgeu => 7,
                };
                enc_b(offset, rs2, rs1, f3, OPC_BRANCH)
            }
            Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let f3 = match op {
                    LoadOp::Lb => 0,
                    LoadOp::Lh => 1,
                    LoadOp::Lw => 2,
                    LoadOp::Lbu => 4,
                    LoadOp::Lhu => 5,
                };
                enc_i(offset, rs1, f3, rd, OPC_LOAD)
            }
            Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let f3 = match op {
                    StoreOp::Sb => 0,
                    StoreOp::Sh => 1,
                    StoreOp::Sw => 2,
                };
                enc_s(offset, rs2, rs1, f3, OPC_STORE)
            }
            Addi { rd, rs1, imm } => enc_i(imm, rs1, 0, rd, OPC_OP_IMM),
            Slti { rd, rs1, imm } => enc_i(imm, rs1, 2, rd, OPC_OP_IMM),
            Sltiu { rd, rs1, imm } => enc_i(imm, rs1, 3, rd, OPC_OP_IMM),
            Xori { rd, rs1, imm } => enc_i(imm, rs1, 4, rd, OPC_OP_IMM),
            Ori { rd, rs1, imm } => enc_i(imm, rs1, 6, rd, OPC_OP_IMM),
            Andi { rd, rs1, imm } => enc_i(imm, rs1, 7, rd, OPC_OP_IMM),
            Slli { rd, rs1, shamt } => enc_r(0, shamt, rs1, 1, rd, OPC_OP_IMM),
            Srli { rd, rs1, shamt } => enc_r(0, shamt, rs1, 5, rd, OPC_OP_IMM),
            Srai { rd, rs1, shamt } => enc_r(0x20, shamt, rs1, 5, rd, OPC_OP_IMM),
            Add { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0, rd, OPC_OP),
            Sub { rd, rs1, rs2 } => enc_r(0x20, rs2, rs1, 0, rd, OPC_OP),
            Sll { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 1, rd, OPC_OP),
            Slt { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 2, rd, OPC_OP),
            Sltu { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 3, rd, OPC_OP),
            Xor { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 4, rd, OPC_OP),
            Srl { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 5, rd, OPC_OP),
            Sra { rd, rs1, rs2 } => enc_r(0x20, rs2, rs1, 5, rd, OPC_OP),
            Or { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 6, rd, OPC_OP),
            And { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 7, rd, OPC_OP),
            Mul { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0, rd, OPC_OP),
            Mulh { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 1, rd, OPC_OP),
            Mulhsu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 2, rd, OPC_OP),
            Mulhu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 3, rd, OPC_OP),
            Div { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 4, rd, OPC_OP),
            Divu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 5, rd, OPC_OP),
            Rem { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 6, rd, OPC_OP),
            Remu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 7, rd, OPC_OP),
            Sdotp8 { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0, rd, OPC_CUSTOM0),
            Sdotp4 { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 1, rd, OPC_CUSTOM0),
            Ecall => 0x0000_0073,
            Ebreak => 0x0010_0073,
        };
        debug_assert_eq!(decode(word), Ok(self), "{self:?} does not fit its encoding");
        word
    }
}

/// A fully lowered micro-operation: instruction semantics with every
/// immediate, shift amount, memory width and control-flow target resolved
/// at decode time, so the block-cached engine's dispatch loop is a single
/// flat match with no nested decoding or address arithmetic beyond the
/// register file and data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `rd = value` (LUI, value pre-shifted).
    Lui(u32),
    /// `rd = value` (AUIPC, `pc + (imm << 12)` pre-computed).
    Auipc(u32),
    /// `rd = pc + 4` (pre-computed link), jump to `target` (pre-computed).
    Jal {
        link: u32,
        target: u32,
    },
    /// A JAL whose target the trace builder inlined: the next trace
    /// element IS the target instruction, so execution just continues.
    /// Costs and flush accounting are unchanged.
    JalFollowed {
        link: u32,
    },
    /// `rd = link`, jump to `(rs1 + offset) & !1`.
    Jalr {
        link: u32,
        offset: u32,
    },
    /// Conditional branches; `target` pre-computed from pc + offset.
    Beq {
        target: u32,
    },
    Bne {
        target: u32,
    },
    Blt {
        target: u32,
    },
    Bge {
        target: u32,
    },
    Bltu {
        target: u32,
    },
    Bgeu {
        target: u32,
    },
    /// Loads at `rs1 + offset` (width/sign in the opcode).
    Lb(u32),
    Lh(u32),
    Lw(u32),
    Lbu(u32),
    Lhu(u32),
    /// Stores of `rs2` at `rs1 + offset`.
    Sb(u32),
    Sh(u32),
    Sw(u32),
    Addi(u32),
    Slti(i32),
    Sltiu(u32),
    Xori(u32),
    Ori(u32),
    Andi(u32),
    /// Shift-immediates with the shift amount pre-masked to 0..32.
    Slli(u32),
    Srli(u32),
    Srai(u32),
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Sdotp8,
    Sdotp4,
    /// ECALL / EBREAK.
    Halt,
}

/// A pre-decoded instruction: the architectural [`Instr`] plus the static
/// metadata the block-cached engine and the pipelined timing model need,
/// extracted once at decode time instead of on every execution.
///
/// `rs1`/`rs2` are the registers the instruction *reads* (0 when a port is
/// unused — x0 never participates in hazards), `rd` is the written
/// register. The SDOTP instructions additionally read their destination as
/// an accumulator through the third register-file read port, flagged by
/// `reads_rd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The architectural instruction.
    pub instr: Instr,
    /// Address of this instruction.
    pub pc: u32,
    /// Destination register (0 when the instruction writes no register).
    pub rd: u8,
    /// First read port (0 when unused).
    pub rs1: u8,
    /// Second read port (0 when unused).
    pub rs2: u8,
    /// Whether `rd` is also read (SDOTP accumulation).
    pub reads_rd: bool,
    /// Whether this is a data-memory load (source of load-use hazards).
    pub is_load: bool,
    /// Whether this is a data-memory store (loads and stores together are
    /// the accesses charged through the memory-hierarchy model).
    pub is_store: bool,
    /// Whether this instruction ends a basic block (control flow or halt).
    pub is_terminator: bool,
    /// Fetch-flush cycles charged when this instruction redirects the PC
    /// (1 for jumps resolved in decode, 2 for branches resolved in
    /// execute, 0 otherwise).
    pub flush_on_take: u8,
    /// Bitmask of registers read (bit r set when register r is read; bit 0
    /// is meaningless since x0 never participates in hazards).
    pub reads_mask: u32,
    /// Flat stage-occupancy cycles (IBEX reference numbers; taken-branch
    /// redirect cycles are added at run time).
    pub base_cycles: u8,
    /// The lowered micro-operation executed by the block-cached engine.
    pub(crate) op: Op,
    /// For conditional branches inside a trace: index of this instruction's
    /// side exit in the owning block's exit table (set by the trace
    /// builder; 0 otherwise).
    pub(crate) exit_ordinal: u16,
}

impl Decoded {
    /// Pre-decodes `instr` located at `pc`.
    pub fn new(instr: Instr, pc: u32) -> Self {
        use Instr::*;
        let (rd, rs1, rs2, reads_rd) = match instr {
            Lui { rd, .. } | Auipc { rd, .. } | Jal { rd, .. } => (rd, 0, 0, false),
            Jalr { rd, rs1, .. } => (rd, rs1, 0, false),
            Branch { rs1, rs2, .. } => (0, rs1, rs2, false),
            Load { rd, rs1, .. } => (rd, rs1, 0, false),
            Store { rs1, rs2, .. } => (0, rs1, rs2, false),
            Addi { rd, rs1, .. }
            | Slti { rd, rs1, .. }
            | Sltiu { rd, rs1, .. }
            | Xori { rd, rs1, .. }
            | Ori { rd, rs1, .. }
            | Andi { rd, rs1, .. }
            | Slli { rd, rs1, .. }
            | Srli { rd, rs1, .. }
            | Srai { rd, rs1, .. } => (rd, rs1, 0, false),
            Add { rd, rs1, rs2 }
            | Sub { rd, rs1, rs2 }
            | Sll { rd, rs1, rs2 }
            | Slt { rd, rs1, rs2 }
            | Sltu { rd, rs1, rs2 }
            | Xor { rd, rs1, rs2 }
            | Srl { rd, rs1, rs2 }
            | Sra { rd, rs1, rs2 }
            | Or { rd, rs1, rs2 }
            | And { rd, rs1, rs2 }
            | Mul { rd, rs1, rs2 }
            | Mulh { rd, rs1, rs2 }
            | Mulhsu { rd, rs1, rs2 }
            | Mulhu { rd, rs1, rs2 }
            | Div { rd, rs1, rs2 }
            | Divu { rd, rs1, rs2 }
            | Rem { rd, rs1, rs2 }
            | Remu { rd, rs1, rs2 } => (rd, rs1, rs2, false),
            Sdotp8 { rd, rs1, rs2 } | Sdotp4 { rd, rs1, rs2 } => (rd, rs1, rs2, true),
            Ecall | Ebreak => (0, 0, 0, false),
        };
        let is_load = matches!(instr, Load { .. });
        let is_store = matches!(instr, Store { .. });
        let is_terminator = matches!(
            instr,
            Jal { .. } | Jalr { .. } | Branch { .. } | Ecall | Ebreak
        );
        let flush_on_take = match instr {
            Jal { .. } | Jalr { .. } => 1,
            Branch { .. } => 2,
            _ => 0,
        };
        let base_cycles = crate::pipeline::stage_cycles(&instr);
        let mut reads_mask = 0u32;
        reads_mask |= 1 << rs1;
        reads_mask |= 1 << rs2;
        if reads_rd {
            reads_mask |= 1 << rd;
        }
        let op = match instr {
            Lui { imm, .. } => Op::Lui((imm as u32) << 12),
            Auipc { imm, .. } => Op::Auipc(pc.wrapping_add((imm as u32) << 12)),
            Jal { offset, .. } => Op::Jal {
                link: pc.wrapping_add(4),
                target: pc.wrapping_add(offset as u32),
            },
            Jalr { offset, .. } => Op::Jalr {
                link: pc.wrapping_add(4),
                offset: offset as u32,
            },
            Branch { op, offset, .. } => {
                let target = pc.wrapping_add(offset as u32);
                match op {
                    BranchOp::Beq => Op::Beq { target },
                    BranchOp::Bne => Op::Bne { target },
                    BranchOp::Blt => Op::Blt { target },
                    BranchOp::Bge => Op::Bge { target },
                    BranchOp::Bltu => Op::Bltu { target },
                    BranchOp::Bgeu => Op::Bgeu { target },
                }
            }
            Load { op, offset, .. } => match op {
                LoadOp::Lb => Op::Lb(offset as u32),
                LoadOp::Lh => Op::Lh(offset as u32),
                LoadOp::Lw => Op::Lw(offset as u32),
                LoadOp::Lbu => Op::Lbu(offset as u32),
                LoadOp::Lhu => Op::Lhu(offset as u32),
            },
            Store { op, offset, .. } => match op {
                StoreOp::Sb => Op::Sb(offset as u32),
                StoreOp::Sh => Op::Sh(offset as u32),
                StoreOp::Sw => Op::Sw(offset as u32),
            },
            Addi { imm, .. } => Op::Addi(imm as u32),
            Slti { imm, .. } => Op::Slti(imm),
            Sltiu { imm, .. } => Op::Sltiu(imm as u32),
            Xori { imm, .. } => Op::Xori(imm as u32),
            Ori { imm, .. } => Op::Ori(imm as u32),
            Andi { imm, .. } => Op::Andi(imm as u32),
            Slli { shamt, .. } => Op::Slli((shamt & 31) as u32),
            Srli { shamt, .. } => Op::Srli((shamt & 31) as u32),
            Srai { shamt, .. } => Op::Srai((shamt & 31) as u32),
            Add { .. } => Op::Add,
            Sub { .. } => Op::Sub,
            Sll { .. } => Op::Sll,
            Slt { .. } => Op::Slt,
            Sltu { .. } => Op::Sltu,
            Xor { .. } => Op::Xor,
            Srl { .. } => Op::Srl,
            Sra { .. } => Op::Sra,
            Or { .. } => Op::Or,
            And { .. } => Op::And,
            Mul { .. } => Op::Mul,
            Mulh { .. } => Op::Mulh,
            Mulhsu { .. } => Op::Mulhsu,
            Mulhu { .. } => Op::Mulhu,
            Div { .. } => Op::Div,
            Divu { .. } => Op::Divu,
            Rem { .. } => Op::Rem,
            Remu { .. } => Op::Remu,
            Sdotp8 { .. } => Op::Sdotp8,
            Sdotp4 { .. } => Op::Sdotp4,
            Ecall | Ebreak => Op::Halt,
        };
        Self {
            instr,
            pc,
            rd,
            rs1,
            rs2,
            reads_rd,
            is_load,
            is_store,
            is_terminator,
            flush_on_take,
            reads_mask,
            base_cycles,
            op,
            exit_ordinal: 0,
        }
    }

    /// Whether the instruction is an SDOTP (either lane width).
    pub(crate) fn is_sdotp(&self) -> bool {
        matches!(self.op, Op::Sdotp8 | Op::Sdotp4)
    }

    /// Whether the instruction reads register `r` (always false for x0).
    pub fn uses(&self, r: u8) -> bool {
        r != 0 && (self.reads_mask >> r) & 1 != 0
    }
}

/// Decodes a 32-bit RISC-V word into an [`Instr`].
///
/// # Errors
///
/// Returns the raw word if it is not a supported RV32IM / SDOTP encoding.
pub fn decode(word: u32) -> Result<Instr, u32> {
    let opcode = word & 0x7F;
    let rd = ((word >> 7) & 0x1F) as u8;
    let funct3 = (word >> 12) & 7;
    let rs1 = ((word >> 15) & 0x1F) as u8;
    let rs2 = ((word >> 20) & 0x1F) as u8;
    let funct7 = word >> 25;
    let imm_i = sext(word >> 20, 12);
    let imm_s = sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12);
    let imm_b = sext(
        ((word >> 31) << 12)
            | (((word >> 7) & 1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1),
        13,
    );
    let imm_u = ((word >> 12) & 0xF_FFFF) as i32;
    let imm_j = sext(
        ((word >> 31) << 20)
            | (((word >> 12) & 0xFF) << 12)
            | (((word >> 20) & 1) << 11)
            | (((word >> 21) & 0x3FF) << 1),
        21,
    );
    let instr = match opcode {
        OPC_LUI => Instr::Lui { rd, imm: imm_u },
        OPC_AUIPC => Instr::Auipc { rd, imm: imm_u },
        OPC_JAL => Instr::Jal { rd, offset: imm_j },
        OPC_JALR if funct3 == 0 => Instr::Jalr {
            rd,
            rs1,
            offset: imm_i,
        },
        OPC_BRANCH => {
            let op = match funct3 {
                0 => BranchOp::Beq,
                1 => BranchOp::Bne,
                4 => BranchOp::Blt,
                5 => BranchOp::Bge,
                6 => BranchOp::Bltu,
                7 => BranchOp::Bgeu,
                _ => return Err(word),
            };
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset: imm_b,
            }
        }
        OPC_LOAD => {
            let op = match funct3 {
                0 => LoadOp::Lb,
                1 => LoadOp::Lh,
                2 => LoadOp::Lw,
                4 => LoadOp::Lbu,
                5 => LoadOp::Lhu,
                _ => return Err(word),
            };
            Instr::Load {
                op,
                rd,
                rs1,
                offset: imm_i,
            }
        }
        OPC_STORE => {
            let op = match funct3 {
                0 => StoreOp::Sb,
                1 => StoreOp::Sh,
                2 => StoreOp::Sw,
                _ => return Err(word),
            };
            Instr::Store {
                op,
                rs1,
                rs2,
                offset: imm_s,
            }
        }
        OPC_OP_IMM => match funct3 {
            0 => Instr::Addi {
                rd,
                rs1,
                imm: imm_i,
            },
            2 => Instr::Slti {
                rd,
                rs1,
                imm: imm_i,
            },
            3 => Instr::Sltiu {
                rd,
                rs1,
                imm: imm_i,
            },
            4 => Instr::Xori {
                rd,
                rs1,
                imm: imm_i,
            },
            6 => Instr::Ori {
                rd,
                rs1,
                imm: imm_i,
            },
            7 => Instr::Andi {
                rd,
                rs1,
                imm: imm_i,
            },
            1 => Instr::Slli {
                rd,
                rs1,
                shamt: rs2,
            },
            5 if funct7 == 0 => Instr::Srli {
                rd,
                rs1,
                shamt: rs2,
            },
            5 if funct7 == 0x20 => Instr::Srai {
                rd,
                rs1,
                shamt: rs2,
            },
            _ => return Err(word),
        },
        OPC_OP => match (funct7, funct3) {
            (0, 0) => Instr::Add { rd, rs1, rs2 },
            (0x20, 0) => Instr::Sub { rd, rs1, rs2 },
            (0, 1) => Instr::Sll { rd, rs1, rs2 },
            (0, 2) => Instr::Slt { rd, rs1, rs2 },
            (0, 3) => Instr::Sltu { rd, rs1, rs2 },
            (0, 4) => Instr::Xor { rd, rs1, rs2 },
            (0, 5) => Instr::Srl { rd, rs1, rs2 },
            (0x20, 5) => Instr::Sra { rd, rs1, rs2 },
            (0, 6) => Instr::Or { rd, rs1, rs2 },
            (0, 7) => Instr::And { rd, rs1, rs2 },
            (1, 0) => Instr::Mul { rd, rs1, rs2 },
            (1, 1) => Instr::Mulh { rd, rs1, rs2 },
            (1, 2) => Instr::Mulhsu { rd, rs1, rs2 },
            (1, 3) => Instr::Mulhu { rd, rs1, rs2 },
            (1, 4) => Instr::Div { rd, rs1, rs2 },
            (1, 5) => Instr::Divu { rd, rs1, rs2 },
            (1, 6) => Instr::Rem { rd, rs1, rs2 },
            (1, 7) => Instr::Remu { rd, rs1, rs2 },
            _ => return Err(word),
        },
        OPC_CUSTOM0 => match (funct7, funct3) {
            (0, 0) => Instr::Sdotp8 { rd, rs1, rs2 },
            (0, 1) => Instr::Sdotp4 { rd, rs1, rs2 },
            _ => return Err(word),
        },
        OPC_SYSTEM => match word {
            0x0000_0073 => Instr::Ecall,
            0x0010_0073 => Instr::Ebreak,
            _ => return Err(word),
        },
        _ => return Err(word),
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings_match_the_spec() {
        // addi a0, zero, 5  ->  0x00500513
        assert_eq!(
            Instr::Addi {
                rd: 10,
                rs1: 0,
                imm: 5
            }
            .encode(),
            0x0050_0513
        );
        // add a0, a1, a2 -> 0x00C58533
        assert_eq!(
            Instr::Add {
                rd: 10,
                rs1: 11,
                rs2: 12
            }
            .encode(),
            0x00C5_8533
        );
        // lw a0, 8(sp) -> 0x00812503
        assert_eq!(
            Instr::Load {
                op: LoadOp::Lw,
                rd: 10,
                rs1: 2,
                offset: 8
            }
            .encode(),
            0x0081_2503
        );
        // sw a0, 8(sp) -> 0x00A12423
        assert_eq!(
            Instr::Store {
                op: StoreOp::Sw,
                rs1: 2,
                rs2: 10,
                offset: 8
            }
            .encode(),
            0x00A1_2423
        );
        assert_eq!(Instr::Ecall.encode(), 0x0000_0073);
        assert_eq!(Instr::Ebreak.encode(), 0x0010_0073);
    }

    #[test]
    fn negative_immediates_round_trip() {
        for imm in [-1, -5, -2048, 2047] {
            let i = Instr::Addi { rd: 3, rs1: 4, imm };
            assert_eq!(decode(i.encode()), Ok(i));
        }
        for offset in [-4096, -2, 0, 2, 4094] {
            let b = Instr::Branch {
                op: BranchOp::Bne,
                rs1: 5,
                rs2: 6,
                offset,
            };
            assert_eq!(decode(b.encode()), Ok(b));
        }
        for offset in [-1048576, -4, 0, 4, 1048574] {
            let j = Instr::Jal { rd: 1, offset };
            assert_eq!(decode(j.encode()), Ok(j));
        }
    }

    #[test]
    fn sdotp_uses_custom0_opcode() {
        let w = Instr::Sdotp8 {
            rd: 10,
            rs1: 11,
            rs2: 12,
        }
        .encode();
        assert_eq!(w & 0x7F, 0x0B);
        assert_eq!(
            decode(w),
            Ok(Instr::Sdotp8 {
                rd: 10,
                rs1: 11,
                rs2: 12
            })
        );
        let w4 = Instr::Sdotp4 {
            rd: 5,
            rs1: 6,
            rs2: 7,
        }
        .encode();
        assert_eq!(
            decode(w4),
            Ok(Instr::Sdotp4 {
                rd: 5,
                rs1: 6,
                rs2: 7
            })
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit its encoding")]
    fn out_of_range_immediates_are_caught_in_debug_builds() {
        // 16 KiB - 32 needs 15 bits; `addi` has 12.
        let _ = Instr::Addi {
            rd: 7,
            rs1: 7,
            imm: 16 * 1024 - 32,
        }
        .encode();
    }

    #[test]
    fn unknown_words_are_rejected() {
        assert!(decode(0xFFFF_FFFF).is_err());
        assert!(decode(0x0000_0000).is_err());
    }

    /// One exemplar of every `Instr` variant (all fields non-trivial where
    /// the encoding allows, negative immediates where legal).
    fn every_variant() -> Vec<Instr> {
        let mut all = vec![
            Instr::Lui {
                rd: 7,
                imm: 0xF_F0F0,
            },
            Instr::Auipc {
                rd: 8,
                imm: 0x0_1234,
            },
            Instr::Jal {
                rd: 1,
                offset: -1048576,
            },
            Instr::Jalr {
                rd: 2,
                rs1: 3,
                offset: -2048,
            },
            Instr::Addi {
                rd: 4,
                rs1: 5,
                imm: -1,
            },
            Instr::Slti {
                rd: 6,
                rs1: 7,
                imm: 2047,
            },
            Instr::Sltiu {
                rd: 8,
                rs1: 9,
                imm: -2048,
            },
            Instr::Xori {
                rd: 10,
                rs1: 11,
                imm: 0x555,
            },
            Instr::Ori {
                rd: 12,
                rs1: 13,
                imm: -86,
            },
            Instr::Andi {
                rd: 14,
                rs1: 15,
                imm: 0x0F0,
            },
            Instr::Slli {
                rd: 16,
                rs1: 17,
                shamt: 31,
            },
            Instr::Srli {
                rd: 18,
                rs1: 19,
                shamt: 1,
            },
            Instr::Srai {
                rd: 20,
                rs1: 21,
                shamt: 15,
            },
            Instr::Add {
                rd: 22,
                rs1: 23,
                rs2: 24,
            },
            Instr::Sub {
                rd: 25,
                rs1: 26,
                rs2: 27,
            },
            Instr::Sll {
                rd: 28,
                rs1: 29,
                rs2: 30,
            },
            Instr::Slt {
                rd: 31,
                rs1: 0,
                rs2: 1,
            },
            Instr::Sltu {
                rd: 2,
                rs1: 3,
                rs2: 4,
            },
            Instr::Xor {
                rd: 5,
                rs1: 6,
                rs2: 7,
            },
            Instr::Srl {
                rd: 8,
                rs1: 9,
                rs2: 10,
            },
            Instr::Sra {
                rd: 11,
                rs1: 12,
                rs2: 13,
            },
            Instr::Or {
                rd: 14,
                rs1: 15,
                rs2: 16,
            },
            Instr::And {
                rd: 17,
                rs1: 18,
                rs2: 19,
            },
            Instr::Mul {
                rd: 20,
                rs1: 21,
                rs2: 22,
            },
            Instr::Mulh {
                rd: 23,
                rs1: 24,
                rs2: 25,
            },
            Instr::Mulhsu {
                rd: 26,
                rs1: 27,
                rs2: 28,
            },
            Instr::Mulhu {
                rd: 29,
                rs1: 30,
                rs2: 31,
            },
            Instr::Div {
                rd: 1,
                rs1: 2,
                rs2: 3,
            },
            Instr::Divu {
                rd: 4,
                rs1: 5,
                rs2: 6,
            },
            Instr::Rem {
                rd: 7,
                rs1: 8,
                rs2: 9,
            },
            Instr::Remu {
                rd: 10,
                rs1: 11,
                rs2: 12,
            },
            Instr::Sdotp8 {
                rd: 13,
                rs1: 14,
                rs2: 15,
            },
            Instr::Sdotp4 {
                rd: 16,
                rs1: 17,
                rs2: 18,
            },
            Instr::Ecall,
            Instr::Ebreak,
        ];
        for op in [
            BranchOp::Beq,
            BranchOp::Bne,
            BranchOp::Blt,
            BranchOp::Bge,
            BranchOp::Bltu,
            BranchOp::Bgeu,
        ] {
            all.push(Instr::Branch {
                op,
                rs1: 20,
                rs2: 21,
                offset: -4096,
            });
        }
        for op in [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu] {
            all.push(Instr::Load {
                op,
                rd: 22,
                rs1: 23,
                offset: 2047,
            });
        }
        for op in [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw] {
            all.push(Instr::Store {
                op,
                rs1: 24,
                rs2: 25,
                offset: -2048,
            });
        }
        all
    }

    /// The new `Decoded` IR rides on `decode`, so every `Instr` variant —
    /// including both SDOTP widths — must survive an encode→decode round
    /// trip bit-exactly or the block-cached engine would silently diverge
    /// from the reference interpreter.
    #[test]
    fn encode_decode_is_identity_for_every_variant() {
        let all = every_variant();
        // Defensive: adding an `Instr` variant must extend `every_variant`.
        let distinct: std::collections::HashSet<_> =
            all.iter().map(std::mem::discriminant).collect();
        assert!(distinct.len() >= 8, "variant exemplar list looks truncated");
        for instr in all {
            assert_eq!(decode(instr.encode()), Ok(instr), "{instr:?}");
        }
    }

    /// The lowered micro-op of a decoded word matches the micro-op lowered
    /// straight from the in-memory instruction: the `Decoded` IR cannot
    /// diverge between the assembler path and the binary path.
    #[test]
    fn decoded_ir_is_stable_across_the_binary_round_trip() {
        for (k, instr) in every_variant().into_iter().enumerate() {
            let pc = 4 * k as u32;
            let direct = Decoded::new(instr, pc);
            let via_binary = Decoded::new(decode(instr.encode()).unwrap(), pc);
            assert_eq!(direct, via_binary, "{instr:?}");
        }
    }

    fn arb_reg() -> impl Strategy<Value = u8> {
        0u8..32
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rd, rs1, imm)| Instr::Addi {
                rd,
                rs1,
                imm
            }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Add {
                rd,
                rs1,
                rs2
            }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Mulh {
                rd,
                rs1,
                rs2
            }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Sdotp8 {
                rd,
                rs1,
                rs2
            }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Sdotp4 {
                rd,
                rs1,
                rs2
            }),
            (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rd, rs1, offset)| Instr::Load {
                op: LoadOp::Lb,
                rd,
                rs1,
                offset
            }),
            (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rs1, rs2, offset)| Instr::Store {
                op: StoreOp::Sw,
                rs1,
                rs2,
                offset
            }),
            (arb_reg(), arb_reg(), -2048i32..2047, 0u8..6).prop_map(|(rs1, rs2, raw, opsel)| {
                let op = [
                    BranchOp::Beq,
                    BranchOp::Bne,
                    BranchOp::Blt,
                    BranchOp::Bge,
                    BranchOp::Bltu,
                    BranchOp::Bgeu,
                ][opsel as usize];
                Instr::Branch {
                    op,
                    rs1,
                    rs2,
                    offset: raw * 2,
                }
            }),
            (arb_reg(), 0i32..0xF_FFFF).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
            (arb_reg(), arb_reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Srai {
                rd,
                rs1,
                shamt
            }),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_round_trip(instr in arb_instr()) {
            prop_assert_eq!(decode(instr.encode()), Ok(instr));
        }
    }
}
