//! Encoded-size accounting.
//!
//! Instructions are interpreted structurally, but each is assigned the size
//! in bytes its 68020 encoding would occupy. Sizes drive three things:
//! instruction addresses inside a block (so branches and return addresses
//! are byte-accurate), the synthesized-code space accounting of the paper's
//! Section 6.4, and the code-buffer allocator.
//!
//! The sizes follow the 68000/68020 encoding rules closely: a 16-bit
//! operation word plus extension words per operand (immediates: 2 or 4
//! bytes; absolute long: 4; displacement: 2; brief index: 2; `MOVEM` mask:
//! 2; ...). Simulator pseudo-instructions are charged 2 bytes like a
//! one-word opcode.

use super::instr::{Instr, Size};
use super::operand::Operand;

/// Extension-word bytes contributed by an operand.
#[must_use]
pub fn operand_ext_bytes(op: &Operand, size: Size) -> u32 {
    match op {
        Operand::Dr(_)
        | Operand::Ar(_)
        | Operand::Ind(_)
        | Operand::PostInc(_)
        | Operand::PreDec(_) => 0,
        Operand::Disp(_, _) => 2,
        Operand::Idx(_, _, _) => 2,
        Operand::Abs(_) | Operand::AbsHole(_) => 4,
        Operand::Imm(_) | Operand::ImmHole(_) => match size {
            Size::B | Size::W => 2,
            Size::L => 4,
        },
    }
}

/// The encoded size of an instruction in bytes.
#[must_use]
pub fn size_bytes(i: &Instr) -> u32 {
    use Instr::*;
    match i {
        Move(sz, s, d) => 2 + operand_ext_bytes(s, *sz) + operand_ext_bytes(d, *sz),
        Movem { ea, .. } => 4 + operand_ext_bytes(ea, Size::L),
        Lea(ea, _) => 2 + operand_ext_bytes(ea, Size::L),
        Add(sz, s, d) | Sub(sz, s, d) | Cmp(sz, s, d) | And(sz, s, d) | Eor(sz, s, d) => {
            2 + operand_ext_bytes(s, *sz) + operand_ext_bytes(d, *sz)
        }
        Tst(sz, ea) => 2 + operand_ext_bytes(ea, *sz),
        Shift(_, sz, cnt, d) => {
            // Register-shift forms are one word; a memory destination or a
            // count > 8 is not encodable in one word on the 68000 but we
            // charge extension words uniformly.
            2 + operand_ext_bytes(cnt, *sz) + operand_ext_bytes(d, *sz)
        }
        Bcc(_, _) => 4, // Bcc with 16-bit displacement.
        Dbf(_, _) => 4, // DBcc is always 2 words.
        Jmp(ea) | Jsr(ea) => 2 + operand_ext_bytes(ea, Size::L),
        Rts | Rte | Nop | Halt => 2,
        Trap(_) => 2,
        Cas { ea, size, .. } => 4 + operand_ext_bytes(ea, *size),
        Tas(ea) => 2 + operand_ext_bytes(ea, Size::B),
        Link(_, _) => 4,
        Unlk(_) => 2,
        MoveSr { ea, .. } => 2 + operand_ext_bytes(ea, Size::W),
        MoveUsp { .. } => 2,
        MoveVbr { ea, .. } => 4 + operand_ext_bytes(ea, Size::L),
        Stop(_) => 4,
        FMove { ea, .. } => 4 + operand_ext_bytes(ea, Size::L),
        FMovem { ea, .. } => 4 + operand_ext_bytes(ea, Size::L),
        KCall(_) => 2,
    }
}

/// Total encoded size of a sequence of instructions.
#[must_use]
pub fn block_bytes(instrs: &[Instr]) -> u32 {
    instrs.iter().map(size_bytes).sum()
}

/// Byte offset of each instruction within a block, plus the total size as a
/// final element (so `offsets[i+1] - offsets[i]` is the size of `i`).
#[must_use]
pub fn offsets(instrs: &[Instr]) -> Vec<u32> {
    let mut v = Vec::with_capacity(instrs.len() + 1);
    let mut off = 0;
    for i in instrs {
        v.push(off);
        off += size_bytes(i);
    }
    v.push(off);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Operand::*};

    #[test]
    fn simple_sizes() {
        assert_eq!(size_bytes(&Instr::Nop), 2);
        assert_eq!(size_bytes(&Instr::Rts), 2);
        assert_eq!(size_bytes(&Instr::Move(Size::L, Dr(0), Dr(1))), 2);
        assert_eq!(size_bytes(&Instr::Move(Size::L, Imm(5), Dr(1))), 6);
        assert_eq!(size_bytes(&Instr::Move(Size::W, Imm(5), Dr(1))), 4);
        assert_eq!(
            size_bytes(&Instr::Move(Size::L, Abs(0x100), Abs(0x200))),
            10
        );
        assert_eq!(size_bytes(&Instr::Jmp(Abs(0x100))), 6);
        assert_eq!(
            size_bytes(&Instr::Bcc(Cond::Eq, super::super::BranchTarget::Idx(0))),
            4
        );
    }

    #[test]
    fn holes_sized_like_filled_operands() {
        // Filling a hole must not change instruction sizes, or patching
        // would shift every later instruction.
        let with_hole = Instr::Move(Size::L, ImmHole(0), Dr(0));
        let filled = Instr::Move(Size::L, Imm(1234), Dr(0));
        assert_eq!(size_bytes(&with_hole), size_bytes(&filled));
        let wh = Instr::Jmp(AbsHole(0));
        let fl = Instr::Jmp(Abs(0x8000));
        assert_eq!(size_bytes(&wh), size_bytes(&fl));
    }

    #[test]
    fn offsets_accumulate() {
        let is = vec![Instr::Nop, Instr::Move(Size::L, Imm(1), Dr(0)), Instr::Rts];
        assert_eq!(offsets(&is), vec![0, 2, 8, 10]);
        assert_eq!(block_bytes(&is), 10);
    }
}
