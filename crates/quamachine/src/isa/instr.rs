//! The instruction enum.

use super::cond::Cond;
use super::operand::Operand;
use super::reg::{FpRegList, RegList};

/// Operation size: byte, word, or long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size {
    /// 8 bits.
    B,
    /// 16 bits.
    W,
    /// 32 bits.
    L,
}

impl Size {
    /// The size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Size::B => 1,
            Size::W => 2,
            Size::L => 4,
        }
    }

    /// Mask selecting the low `bytes()*8` bits.
    #[must_use]
    pub fn mask(self) -> u32 {
        match self {
            Size::B => 0xFF,
            Size::W => 0xFFFF,
            Size::L => 0xFFFF_FFFF,
        }
    }

    /// The sign bit for this size.
    #[must_use]
    pub fn sign_bit(self) -> u32 {
        match self {
            Size::B => 0x80,
            Size::W => 0x8000,
            Size::L => 0x8000_0000,
        }
    }

    /// Sign-extend a value of this size to 32 bits.
    #[must_use]
    pub fn sext(self, v: u32) -> u32 {
        match self {
            Size::B => v as u8 as i8 as i32 as u32,
            Size::W => v as u16 as i16 as i32 as u32,
            Size::L => v,
        }
    }
}

impl std::fmt::Display for Size {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Size::B => write!(f, "b"),
            Size::W => write!(f, "w"),
            Size::L => write!(f, "l"),
        }
    }
}

/// Shift/rotate kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Rotate left.
    Rol,
    /// Rotate right.
    Ror,
}

/// Branch target of an intra-block branch.
///
/// While a block is being assembled targets are symbolic labels; the
/// assembler resolves them to instruction indices within the block.
/// Cross-block control transfers use `Jmp`/`Jsr` with absolute operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchTarget {
    /// An unresolved label (assembly-time only; executing it is an error).
    Label(u32),
    /// A resolved instruction index within the same code block.
    Idx(u32),
}

/// A Quamachine instruction.
///
/// The set is a 68020 subset plus two pseudo-instructions that exist only
/// in the simulator: [`Instr::Halt`] stops the machine and [`Instr::KCall`]
/// transfers control to the embedding host (used for cold-path kernel work
/// whose cycle cost is charged explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `MOVE.size src,dst` — also covers MOVEA (address-register
    /// destination, no flags), MOVEQ (small immediate), and CLR via
    /// an immediate zero source.
    Move(Size, Operand, Operand),
    /// `MOVEM.L regs,ea` (store, `to_mem == true`) or `MOVEM.L ea,regs`
    /// (load). Always long-sized here.
    Movem {
        /// Direction: `true` stores registers to memory.
        to_mem: bool,
        /// The registers transferred.
        regs: RegList,
        /// Base effective address (`Ind`, `Disp`, `Abs`, `PreDec`/`PostInc`).
        ea: Operand,
    },
    /// `LEA ea,An` — load effective address.
    Lea(Operand, u8),
    /// `ADD.size src,dst`.
    Add(Size, Operand, Operand),
    /// `SUB.size src,dst`.
    Sub(Size, Operand, Operand),
    /// `CMP.size src,dst` — computes `dst - src`, sets flags only.
    Cmp(Size, Operand, Operand),
    /// `TST.size ea`.
    Tst(Size, Operand),
    /// `AND.size src,dst`.
    And(Size, Operand, Operand),
    /// `EOR.size src,dst`.
    Eor(Size, Operand, Operand),
    /// Shift or rotate `dst` by `count` (an immediate 1–8 or a data
    /// register, 68000-style).
    Shift(ShiftKind, Size, Operand, Operand),
    /// `Bcc label` — conditional branch within the current block.
    Bcc(Cond, BranchTarget),
    /// `DBF Dn,label` — decrement and branch unless the low word
    /// becomes `-1` (the classic `dbra` loop instruction).
    Dbf(u8, BranchTarget),
    /// `JMP ea` — jump to an effective address (absolute, register
    /// indirect, displacement...).
    Jmp(Operand),
    /// `JSR ea` — push the return address, jump.
    Jsr(Operand),
    /// `RTS`.
    Rts,
    /// `RTE` — return from exception (privileged).
    Rte,
    /// `TRAP #n` — synchronous trap through vector `32 + n`.
    Trap(u8),
    /// `CAS.size Dc,Du,ea` — compare-and-swap: if `ea == Dc` then
    /// `ea = Du` (Z set), else `Dc = ea` (Z clear). Atomic on the
    /// simulated bus.
    Cas {
        /// Operation size.
        size: Size,
        /// Compare register.
        dc: u8,
        /// Update register.
        du: u8,
        /// Memory operand.
        ea: Operand,
    },
    /// `TAS ea` — test-and-set the high bit of a byte, atomically.
    Tas(Operand),
    /// `LINK An,#disp` — push `An`, copy SP to `An`, add `disp` to SP.
    Link(u8, i16),
    /// `UNLK An`.
    Unlk(u8),
    /// `MOVE ea,SR` (privileged) or `MOVE SR,ea`.
    MoveSr {
        /// Direction: `true` writes the status register.
        to_sr: bool,
        /// The other operand.
        ea: Operand,
    },
    /// `MOVE USP,An` / `MOVE An,USP` (privileged).
    MoveUsp {
        /// Direction: `true` writes the USP from `An`.
        to_usp: bool,
        /// Address register.
        areg: u8,
    },
    /// `MOVEC Rn,VBR` / `MOVEC VBR,Rn` (privileged; the only control
    /// register modelled is the VBR).
    MoveVbr {
        /// Direction: `true` writes the VBR.
        to_vbr: bool,
        /// Source/destination operand (register or immediate for writes).
        ea: Operand,
    },
    /// `STOP #sr` — load SR and halt until an interrupt (privileged).
    Stop(u16),
    /// `NOP`.
    Nop,
    /// `FMOVE.D ea,FPn` / `FMOVE.D FPn,ea` — double-precision move
    /// between memory (two longs) or a data-register pair and an FP
    /// register. Raises the coprocessor-unavailable trap if the FPU is
    /// disabled for the current thread.
    FMove {
        /// Direction: `true` stores the FP register to `ea`.
        to_mem: bool,
        /// FP register number.
        fp: u8,
        /// Memory operand (8 bytes).
        ea: Operand,
    },
    /// `FMOVEM regs,ea` / `FMOVEM ea,regs` — save/restore FP registers.
    FMovem {
        /// Direction: `true` stores registers to memory.
        to_mem: bool,
        /// FP registers transferred.
        regs: FpRegList,
        /// Base address operand.
        ea: Operand,
    },
    /// Pseudo: stop the simulation (the embedder regains control).
    Halt,
    /// Pseudo: host-service call with a 16-bit selector. The embedder
    /// handles it and charges a modelled cycle cost; registers carry
    /// arguments and results like a calling convention.
    KCall(u16),
}

/// The operands of one instruction, held inline: no instruction has more
/// than two. Dereferences to a slice and iterates by value.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    ops: [Operand; 2],
    len: u8,
}

impl std::ops::Deref for Operands {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.ops[..usize::from(self.len)]
    }
}

impl IntoIterator for Operands {
    type Item = Operand;
    type IntoIter = std::iter::Take<std::array::IntoIter<Operand, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter().take(usize::from(self.len))
    }
}

impl Instr {
    /// All operands of this instruction, in evaluation order.
    #[must_use]
    pub fn operands(&self) -> Operands {
        use Instr::*;
        // Slots past `len` are never exposed; any operand fills them.
        const UNUSED: Operand = Operand::Dr(0);
        let (ops, len) = match self {
            Move(_, s, d)
            | Add(_, s, d)
            | Sub(_, s, d)
            | Cmp(_, s, d)
            | And(_, s, d)
            | Eor(_, s, d)
            | Shift(_, _, s, d) => ([*s, *d], 2),
            Movem { ea, .. }
            | Tst(_, ea)
            | Jmp(ea)
            | Jsr(ea)
            | Tas(ea)
            | MoveSr { ea, .. }
            | MoveVbr { ea, .. }
            | Cas { ea, .. }
            | FMove { ea, .. }
            | FMovem { ea, .. }
            | Lea(ea, _) => ([*ea, UNUSED], 1),
            _ => ([UNUSED; 2], 0),
        };
        Operands { ops, len }
    }

    /// Whether any operand still contains an unfilled hole.
    #[must_use]
    pub fn has_hole(&self) -> bool {
        self.operands().iter().any(Operand::has_hole)
    }

    /// Whether this instruction unconditionally transfers control away
    /// (so the next instruction is unreachable by fallthrough). `Stop` is
    /// NOT a terminator: execution resumes at the next instruction after
    /// the interrupt that wakes the CPU returns.
    ///
    /// That is reachability. Whether a rewriter may reason straight through
    /// an instruction is [`Instr::effects`]' `control`: `stop`, `jsr`, `trap`
    /// and `kcall` are not terminators yet are `Control::Leave`, a
    /// conditional `bcc` or `dbf` is not one yet is `Control::Branch`, and
    /// `bra` is a terminator that is only a `Branch`.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        use Instr::*;
        matches!(self, Jmp(_) | Rts | Rte | Halt | Bcc(Cond::T, _))
    }

    /// The branch target, if this is an intra-block branch.
    #[must_use]
    pub fn branch_target(&self) -> Option<BranchTarget> {
        match self {
            Instr::Bcc(_, t) | Instr::Dbf(_, t) => Some(*t),
            _ => None,
        }
    }

    /// Replace the branch target of an intra-block branch.
    pub fn set_branch_target(&mut self, nt: BranchTarget) {
        match self {
            Instr::Bcc(_, t) | Instr::Dbf(_, t) => *t = nt,
            _ => panic!("set_branch_target on non-branch {self:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand::*;

    #[test]
    fn size_helpers() {
        assert_eq!(Size::B.bytes(), 1);
        assert_eq!(Size::W.mask(), 0xFFFF);
        assert_eq!(Size::L.sign_bit(), 0x8000_0000);
        assert_eq!(Size::B.sext(0x80), 0xFFFF_FF80);
        assert_eq!(Size::W.sext(0x8000), 0xFFFF_8000);
        assert_eq!(Size::W.sext(0x7FFF), 0x7FFF);
    }

    #[test]
    fn hole_detection() {
        let i = Instr::Move(Size::L, ImmHole(0), Dr(0));
        assert!(i.has_hole());
        let j = Instr::Move(Size::L, Imm(1), Dr(0));
        assert!(!j.has_hole());
    }

    #[test]
    fn operands_expose_exactly_the_instruction_s_own() {
        let two = Instr::Add(Size::W, Imm(1), Disp(4, 2));
        assert_eq!(&*two.operands(), &[Imm(1), Disp(4, 2)]);
        assert_eq!(
            two.operands().into_iter().collect::<Vec<_>>(),
            vec![Imm(1), Disp(4, 2)]
        );
        let one = Instr::Lea(Abs(0x40), 3);
        assert_eq!(&*one.operands(), &[Abs(0x40)]);
        assert_eq!(one.operands().into_iter().count(), 1);
        assert!(Instr::Rts.operands().is_empty());
        assert_eq!(Instr::Unlk(6).operands().into_iter().count(), 0);
    }

    #[test]
    fn terminators() {
        assert!(Instr::Rts.is_terminator());
        assert!(Instr::Jmp(Abs(0)).is_terminator());
        assert!(Instr::Bcc(Cond::T, BranchTarget::Idx(0)).is_terminator());
        assert!(!Instr::Bcc(Cond::Eq, BranchTarget::Idx(0)).is_terminator());
        assert!(!Instr::Nop.is_terminator());
    }

    #[test]
    fn branch_target_accessors() {
        let mut b = Instr::Bcc(Cond::Ne, BranchTarget::Idx(3));
        assert_eq!(b.branch_target(), Some(BranchTarget::Idx(3)));
        b.set_branch_target(BranchTarget::Idx(7));
        assert_eq!(b.branch_target(), Some(BranchTarget::Idx(7)));
        assert_eq!(Instr::Nop.branch_target(), None);
    }
}
