//! Instruction-stream editing: deleting instructions while keeping branch
//! targets and entry-point marks consistent.

use std::collections::HashMap;

use quamachine::isa::{BranchTarget, Instr, Operand};

/// `ins` with every operand replaced by `f(operand)`.
#[must_use]
pub fn map_operands(ins: Instr, mut f: impl FnMut(Operand) -> Operand) -> Instr {
    use Instr::*;
    match ins {
        Move(s, a, b) => Move(s, f(a), f(b)),
        Movem { to_mem, regs, ea } => Movem {
            to_mem,
            regs,
            ea: f(ea),
        },
        Lea(ea, n) => Lea(f(ea), n),
        Add(s, a, b) => Add(s, f(a), f(b)),
        Sub(s, a, b) => Sub(s, f(a), f(b)),
        Cmp(s, a, b) => Cmp(s, f(a), f(b)),
        Tst(s, ea) => Tst(s, f(ea)),
        And(s, a, b) => And(s, f(a), f(b)),
        Eor(s, a, b) => Eor(s, f(a), f(b)),
        Shift(k, s, c, d) => Shift(k, s, f(c), f(d)),
        Jmp(ea) => Jmp(f(ea)),
        Jsr(ea) => Jsr(f(ea)),
        Cas { size, dc, du, ea } => Cas {
            size,
            dc,
            du,
            ea: f(ea),
        },
        Tas(ea) => Tas(f(ea)),
        MoveSr { to_sr, ea } => MoveSr { to_sr, ea: f(ea) },
        MoveVbr { to_vbr, ea } => MoveVbr { to_vbr, ea: f(ea) },
        FMove { to_mem, fp, ea } => FMove {
            to_mem,
            fp,
            ea: f(ea),
        },
        FMovem { to_mem, regs, ea } => FMovem {
            to_mem,
            regs,
            ea: f(ea),
        },
        other => other,
    }
}

/// Which instruction indices are the target of some intra-block branch.
#[must_use]
pub fn branch_target_flags(instrs: &[Instr]) -> Vec<bool> {
    let mut flags = vec![false; instrs.len() + 1];
    for i in instrs {
        if let Some(BranchTarget::Idx(t)) = i.branch_target() {
            if let Some(f) = flags.get_mut(t as usize) {
                *f = true;
            }
        }
    }
    flags
}

/// Remove the instructions whose `keep` flag is false, remapping branch
/// targets and `marks` to the new indices.
///
/// A branch (or mark) pointing at a removed instruction is retargeted to
/// the next surviving instruction at or after it; if none survives it
/// points one past the end, which a verifier should reject — callers keep
/// block-terminating instructions alive, so this does not arise in
/// practice.
#[must_use]
pub fn compact(
    instrs: Vec<Instr>,
    keep: &[bool],
    marks: &mut HashMap<String, usize>,
) -> Vec<Instr> {
    debug_assert_eq!(instrs.len(), keep.len());
    // new_at_or_after[i] = new index of the first kept instruction at or
    // after old index i.
    let mut new_at_or_after = vec![0usize; instrs.len() + 1];
    let mut count = 0usize;
    for i in 0..instrs.len() {
        new_at_or_after[i] = count;
        if keep[i] {
            count += 1;
        }
    }
    new_at_or_after[instrs.len()] = count;

    let mut out = Vec::with_capacity(count);
    for (i, mut instr) in instrs.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Some(BranchTarget::Idx(t)) = instr.branch_target() {
            instr.set_branch_target(BranchTarget::Idx(
                new_at_or_after[(t as usize).min(keep.len())] as u32,
            ));
        }
        out.push(instr);
    }
    for idx in marks.values_mut() {
        *idx = new_at_or_after[(*idx).min(keep.len())];
    }
    out
}

/// Indices reachable from the given entry points by fallthrough and
/// intra-block branches. `Jmp`, `Rts`, `Rte`, `Halt`, and unconditional
/// branches end a path; everything else (including `Jsr`, `Trap`,
/// `Stop`, and `KCall`) falls through.
#[must_use]
pub fn reachable(instrs: &[Instr], entries: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; instrs.len()];
    let mut stack: Vec<usize> = entries
        .iter()
        .copied()
        .filter(|&e| e < instrs.len())
        .collect();
    while let Some(i) = stack.pop() {
        if i >= instrs.len() || seen[i] {
            continue;
        }
        seen[i] = true;
        let instr = &instrs[i];
        if let Some(BranchTarget::Idx(t)) = instr.branch_target() {
            stack.push(t as usize);
        }
        if !instr.is_terminator() {
            stack.push(i + 1);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{Cond, Operand::*, Size::L};

    fn mv(v: u32, d: u8) -> Instr {
        Instr::Move(L, Imm(v), Dr(d))
    }

    #[test]
    fn compact_remaps_branches() {
        // 0: move; 1: move (removed); 2: bcc -> 1; 3: rts
        let instrs = vec![
            mv(1, 0),
            mv(2, 1),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(1)),
            Instr::Rts,
        ];
        let mut marks = HashMap::new();
        marks.insert("mid".to_string(), 1);
        let out = compact(instrs, &[true, false, true, true], &mut marks);
        assert_eq!(out.len(), 3);
        // Branch to removed index 1 retargets to old index 2 = new index 1.
        assert_eq!(out[1], Instr::Bcc(Cond::Eq, BranchTarget::Idx(1)));
        assert_eq!(marks["mid"], 1);
    }

    #[test]
    fn reachable_stops_at_terminators() {
        let instrs = vec![
            mv(1, 0),    // 0
            Instr::Rts,  // 1
            mv(2, 1),    // 2: dead
            Instr::Halt, // 3: dead
        ];
        let r = reachable(&instrs, &[0]);
        assert_eq!(r, vec![true, true, false, false]);
    }

    #[test]
    fn reachable_follows_branches_and_extra_entries() {
        let instrs = vec![
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(3)), // 0
            Instr::Rts,                                 // 1
            mv(9, 0),                                   // 2: only via entry list
            Instr::Halt,                                // 3: via branch
        ];
        let r = reachable(&instrs, &[0]);
        assert_eq!(r, vec![true, true, false, true]);
        let r2 = reachable(&instrs, &[0, 2]);
        assert_eq!(r2, vec![true, true, true, true]);
    }

    #[test]
    fn branch_target_flags_collects() {
        let instrs = vec![
            Instr::Bcc(Cond::Ne, BranchTarget::Idx(2)),
            Instr::Nop,
            Instr::Rts,
        ];
        let f = branch_target_flags(&instrs);
        assert!(!f[0] && !f[1] && f[2]);
    }
}
