//! What an instruction reads, writes and does to control flow: the one
//! table the run-time rewriters (`codegen::factor`, `unix::emu`'s trap
//! elision) consult (DESIGN.md §10).
//!
//! `exec.rs` is the ground truth; `tests/effects.rs` checks this table
//! against it form by form, and `Machine::step` on every instruction a
//! debug build retires. The table over-approximates: rely only on a
//! register's *absence* from `reads`/`writes` and on `writes_flags`
//! being `false`.
#![deny(clippy::wildcard_enum_match_arm)]

use super::instr::{Instr, Size};
use super::operand::Operand::{self, *};
use super::reg::RegList;

/// Where control goes after an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Always to the next instruction of the block.
    #[default]
    Fall,
    /// There or to a target inside the block (`bcc`, `dbf`).
    Branch,
    /// Out of the block's straight-line flow (`jmp jsr rts rte trap kcall
    /// halt stop`). Whoever gets control may read and write anything, so
    /// these read and write every register and write the flags.
    Leave,
}

/// The register and flag effects of one instruction. "The flags" are the
/// condition codes `N`/`Z`/`V`/`C`, with `X` carried beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Registers whose entry value can matter to anything the instruction
    /// does — an address, a stored value, the flags, the next pc, a fault,
    /// another register's final value *or its own*: a byte or word write
    /// to `Dn` keeps the upper bits, so it reads `Dn`.
    pub reads: RegList,
    /// Registers whose value can change, `(An)+`/`-(An)` updates included.
    pub writes: RegList,
    /// A flag can change — and then, unless the instruction is a
    /// [`Leave`](Control::Leave), all of `N`/`Z`/`V`/`C` are overwritten.
    pub writes_flags: bool,
    /// Where control goes next.
    pub control: Control,
}

/// The register an operand *is*, if it is one.
fn reg(op: Operand) -> RegList {
    match op {
        Dr(n) => RegList::d(n),
        Ar(n) => RegList::a(n),
        Ind(_) | PostInc(_) | PreDec(_) | Disp(..) | Idx(..) | Abs(_) | Imm(_) | ImmHole(_)
        | AbsHole(_) => RegList::EMPTY,
    }
}

impl Effects {
    fn reads(mut self, r: RegList) -> Effects {
        self.reads = self.reads.with(r);
        self
    }

    fn writes(mut self, r: RegList) -> Effects {
        self.writes = self.writes.with(r);
        self
    }

    fn sets_flags(mut self, sets: bool) -> Effects {
        self.writes_flags = sets;
        self
    }

    fn goes(mut self, control: Control) -> Effects {
        self.control = control;
        self
    }

    /// An operand whose value or address is used: the register itself, or
    /// a memory operand's base and index and its auto-increment update.
    fn uses(self, op: Operand) -> Effects {
        match op {
            Dr(_) | Ar(_) => self.reads(reg(op)),
            Ind(n) | Disp(_, n) => self.reads(RegList::a(n)),
            PostInc(n) | PreDec(n) => self.reads(RegList::a(n)).writes(RegList::a(n)),
            Idx(_, n, ix) if ix.addr => self.reads(RegList::a(n).with(RegList::a(ix.reg))),
            Idx(_, n, ix) => self.reads(RegList::a(n).with(RegList::d(ix.reg))),
            Abs(_) | Imm(_) | ImmHole(_) | AbsHole(_) => self,
        }
    }

    /// A destination that is read, then written.
    fn updates(self, op: Operand) -> Effects {
        self.uses(op).writes(reg(op))
    }

    /// A destination that is only written. `An` is overwritten whole at any
    /// size (the value is sign-extended) and `Dn` at long size; a shorter
    /// write to `Dn` merges into it.
    fn sets(self, op: Operand, size: Size) -> Effects {
        if matches!((op, size), (Ar(_), _) | (Dr(_), Size::L)) {
            self.writes(reg(op))
        } else {
            self.updates(op)
        }
    }
}

impl Instr {
    /// What this instruction reads, writes and does to control flow (see
    /// [`Effects`] for what each field promises).
    #[must_use]
    pub fn effects(&self) -> Effects {
        use Instr::*;
        const SP: Operand = Ar(7);
        let is_areg = |op| matches!(op, Ar(_));
        let fx = Effects::default();
        match *self {
            // `movea`, `adda` and `suba` leave the flags alone.
            Move(size, s, d) => fx.uses(s).sets(d, size).sets_flags(!is_areg(d)),
            Add(_, s, d) | Sub(_, s, d) => fx.uses(s).updates(d).sets_flags(!is_areg(d)),
            Movem { to_mem, regs, ea } if to_mem => fx.uses(ea).reads(regs),
            Movem { regs, ea, .. } => fx.uses(ea).writes(regs),
            Lea(ea, n) => fx.uses(ea).writes(RegList::a(n)),
            Cmp(_, s, d) => fx.uses(s).uses(d).sets_flags(true),
            Tst(_, ea) => fx.uses(ea).sets_flags(true),
            And(_, s, d) | Eor(_, s, d) | Shift(_, _, s, d) => {
                fx.uses(s).updates(d).sets_flags(true)
            }
            Tas(ea) => fx.updates(ea).sets_flags(true),
            Bcc(..) => fx.goes(Control::Branch),
            Dbf(n, _) => fx.updates(Dr(n)).goes(Control::Branch),
            Jmp(_) | Jsr(_) | Rts | Rte | Trap(_) | Stop(_) | Halt | KCall(_) => fx
                .reads(RegList::ALL)
                .writes(RegList::ALL)
                .sets_flags(true)
                .goes(Control::Leave),
            // `dc` is written only on a mismatch, so it is also read.
            Cas { dc, du, ea, .. } => fx.updates(ea).updates(Dr(dc)).uses(Dr(du)).sets_flags(true),
            Link(n, _) => fx.updates(Ar(n)).updates(SP),
            // `a7` is loaded from `An` before the pop: its old value is dead.
            Unlk(n) => fx.updates(Ar(n)).writes(RegList::a(7)),
            // Writing the S bit swaps `a7` with the parked stack pointer.
            MoveSr { to_sr: true, ea } => fx.uses(ea).updates(SP).sets_flags(true),
            MoveSr { to_sr: false, ea } => fx.sets(ea, Size::W),
            MoveUsp { to_usp: true, areg } => fx.uses(Ar(areg)),
            MoveUsp { areg, .. } => fx.sets(Ar(areg), Size::L),
            MoveVbr { to_vbr: true, ea } => fx.uses(ea),
            MoveVbr { to_vbr: false, ea } => fx.sets(ea, Size::L),
            FMove { ea, .. } | FMovem { ea, .. } => fx.uses(ea),
            Nop => fx,
        }
    }
}
