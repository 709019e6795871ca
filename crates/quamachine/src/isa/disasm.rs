//! Instruction pretty-printing (Motorola-style syntax).
//!
//! Used by the kernel monitor's trace dumps and in test failure output.

use std::fmt;

use super::instr::{BranchTarget, Instr, ShiftKind};
use super::operand::Operand;

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Dr(n) => write!(f, "d{n}"),
            Operand::Ar(n) => write!(f, "a{n}"),
            Operand::Ind(n) => write!(f, "(a{n})"),
            Operand::PostInc(n) => write!(f, "(a{n})+"),
            Operand::PreDec(n) => write!(f, "-(a{n})"),
            Operand::Disp(d, n) => write!(f, "{d}(a{n})"),
            Operand::Idx(d, n, ix) => {
                let r = if ix.addr { "a" } else { "d" };
                write!(f, "{d}(a{n},{r}{}*{})", ix.reg, ix.scale)
            }
            Operand::Abs(a) => write!(f, "(${a:x}).l"),
            Operand::Imm(v) => write!(f, "#{}", *v as i32),
            Operand::ImmHole(h) => write!(f, "#<hole:{h}>"),
            Operand::AbsHole(h) => write!(f, "(<hole:{h}>).l"),
        }
    }
}

impl fmt::Display for BranchTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BranchTarget::Label(l) => write!(f, "L{l}?"),
            BranchTarget::Idx(i) => write!(f, "@{i}"),
        }
    }
}

impl fmt::Display for ShiftKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShiftKind::Lsl => "lsl",
            ShiftKind::Lsr => "lsr",
            ShiftKind::Rol => "rol",
            ShiftKind::Ror => "ror",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match self {
            Move(sz, s, d) => write!(f, "move.{sz} {s},{d}"),
            Movem { to_mem, regs, ea } => {
                if *to_mem {
                    write!(f, "movem.l <{:#06x}>,{ea}", regs.0)
                } else {
                    write!(f, "movem.l {ea},<{:#06x}>", regs.0)
                }
            }
            Lea(ea, n) => write!(f, "lea {ea},a{n}"),
            Add(sz, s, d) => write!(f, "add.{sz} {s},{d}"),
            Sub(sz, s, d) => write!(f, "sub.{sz} {s},{d}"),
            Cmp(sz, s, d) => write!(f, "cmp.{sz} {s},{d}"),
            Tst(sz, ea) => write!(f, "tst.{sz} {ea}"),
            And(sz, s, d) => write!(f, "and.{sz} {s},{d}"),
            Eor(sz, s, d) => write!(f, "eor.{sz} {s},{d}"),
            Shift(k, sz, c, d) => write!(f, "{k}.{sz} {c},{d}"),
            Bcc(c, t) => write!(f, "b{c} {t}"),
            Dbf(n, t) => write!(f, "dbf d{n},{t}"),
            Jmp(ea) => write!(f, "jmp {ea}"),
            Jsr(ea) => write!(f, "jsr {ea}"),
            Rts => write!(f, "rts"),
            Rte => write!(f, "rte"),
            Trap(n) => write!(f, "trap #{n}"),
            Cas { size, dc, du, ea } => write!(f, "cas.{size} d{dc},d{du},{ea}"),
            Tas(ea) => write!(f, "tas {ea}"),
            Link(n, d) => write!(f, "link a{n},#{d}"),
            Unlk(n) => write!(f, "unlk a{n}"),
            MoveSr { to_sr, ea } => {
                if *to_sr {
                    write!(f, "move.w {ea},sr")
                } else {
                    write!(f, "move.w sr,{ea}")
                }
            }
            MoveUsp { to_usp, areg } => {
                if *to_usp {
                    write!(f, "move.l a{areg},usp")
                } else {
                    write!(f, "move.l usp,a{areg}")
                }
            }
            MoveVbr { to_vbr, ea } => {
                if *to_vbr {
                    write!(f, "movec {ea},vbr")
                } else {
                    write!(f, "movec vbr,{ea}")
                }
            }
            Stop(sr) => write!(f, "stop #{sr:#06x}"),
            Nop => write!(f, "nop"),
            FMove { to_mem, fp, ea } => {
                if *to_mem {
                    write!(f, "fmove.d fp{fp},{ea}")
                } else {
                    write!(f, "fmove.d {ea},fp{fp}")
                }
            }
            FMovem { to_mem, regs, ea } => {
                if *to_mem {
                    write!(f, "fmovem <{:#04x}>,{ea}", regs.0)
                } else {
                    write!(f, "fmovem {ea},<{:#04x}>", regs.0)
                }
            }
            Halt => write!(f, "halt"),
            KCall(n) => write!(f, "kcall #{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Operand::*, Size};

    #[test]
    fn display_forms() {
        assert_eq!(
            Instr::Move(Size::L, Imm(5), Dr(0)).to_string(),
            "move.l #5,d0"
        );
        assert_eq!(
            Instr::Move(Size::B, PostInc(0), PreDec(7)).to_string(),
            "move.b (a0)+,-(a7)"
        );
        assert_eq!(
            Instr::Cas {
                size: Size::L,
                dc: 0,
                du: 1,
                ea: Abs(0x40)
            }
            .to_string(),
            "cas.l d0,d1,($40).l"
        );
        assert_eq!(
            Instr::Bcc(Cond::Ne, BranchTarget::Idx(4)).to_string(),
            "bne @4"
        );
        assert_eq!(
            Instr::Move(Size::L, ImmHole(2), Dr(1)).to_string(),
            "move.l #<hole:2>,d1"
        );
        assert_eq!(Instr::Jmp(Abs(0x1000)).to_string(), "jmp ($1000).l");
    }

    #[test]
    fn negative_immediates_display_signed() {
        assert_eq!(
            Instr::Move(Size::L, Imm(-1i32 as u32), Dr(0)).to_string(),
            "move.l #-1,d0"
        );
    }
}
