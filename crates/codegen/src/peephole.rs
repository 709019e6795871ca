//! The specialized peephole optimizer.
//!
//! "The optimization stage then improves the final code with specialized
//! peephole optimizations" (paper Section 2.3). These passes run after
//! Factoring Invariants and Collapsing Layers; they are deliberately
//! conservative about condition codes — a rewrite is applied only when the
//! flags it changes are provably dead.
//!
//! Patterns:
//!
//! - `cmp #0,x` → `tst x` (identical flags, smaller encoding);
//! - `add/sub #0,Dn`, `or/eor #0,Dn`, `and #-1,Dn` → deleted when flags
//!   are dead;
//! - `move x,x` (same register) → deleted when flags are dead;
//! - a dead store `move _,Dn` overwritten by another `move _,Dn` with no
//!   intervening read, branch target, or control transfer → deleted;
//! - `bcc` over a single `bra` (inverted-branch threading);
//! - `bra`-to-`bra` chains are threaded to the final target;
//! - `mulu #2ᵏ,Dn` → `and.l #0xFFFF,Dn ; lsl.l #k,Dn` when flags are
//!   dead (27 → 6 cycles; the mask reproduces mulu's 16-bit operand
//!   truncation and keeps the shifted-out carry at zero, but `lsl`
//!   writes X, hence the flags-dead gate);
//! - a reload `move Abs,Dn` immediately after the matching store
//!   `move Dn,Abs` → deleted (the store already set the same flags from
//!   the same value, so no gate is needed — but device registers are
//!   volatile and are never touched).
//!
//! The passes also run on a stream whose holes are still in place. Four
//! tests look at a number — `#0`, `#2ᵏ`, "same address" and "below
//! `DEV_BASE`" — and on a hole each reads it through the [`Resolver`]
//! (which logs it), after every test that needs no value has passed.

use std::collections::HashMap;

use quamachine::devices::DEV_BASE;
use quamachine::isa::{BranchTarget, Cond, Instr, Operand, ShiftKind, Size};

use crate::plan::Resolver;
use crate::rewrite;

/// The value of an immediate operand; `None` for anything else.
fn imm_value(op: Operand, r: &mut Resolver<'_>) -> Option<u32> {
    match op {
        Operand::Imm(v) => Some(v),
        Operand::ImmHole(h) => Some(r.read(h)),
        _ => None,
    }
}

/// The address of an absolute operand; `None` for anything else.
fn abs_value(op: Operand, r: &mut Resolver<'_>) -> Option<u32> {
    match op {
        Operand::Abs(a) => Some(a),
        Operand::AbsHole(h) => Some(r.read(h)),
        _ => None,
    }
}

/// Whether the condition codes produced by instruction `i` are dead — i.e.
/// every path from `i+1` reaches a flag-*writing* instruction before any
/// flag-*reading* instruction, without leaving the block.
///
/// Conservative: branch targets, block exits, and unknown instructions
/// count as reads.
fn flags_dead_after(instrs: &[Instr], i: usize, targets: &[bool]) -> bool {
    let mut j = i + 1;
    while j < instrs.len() {
        if targets[j] {
            // Someone may jump here with our flags? No — they'd bring
            // their own. But *we* fall into a merge point whose consumers
            // were analyzed along another path; stay conservative.
            return false;
        }
        match &instrs[j] {
            // Flag readers.
            Instr::Bcc(_, _) | Instr::Scc(_, _) => return false,
            // Control leaves the block with flags live (the caller or
            // handler might inspect them — conservative).
            Instr::Jmp(_)
            | Instr::Jsr(_)
            | Instr::Rts
            | Instr::Rte
            | Instr::Trap(_)
            | Instr::Halt
            | Instr::KCall(_)
            | Instr::Stop(_)
            | Instr::Dbf(_, _) => return false,
            // Flag writers (NZVC all written).
            Instr::Move(_, _, dst) => {
                if !matches!(dst, Operand::Ar(_)) {
                    return true;
                }
                // MOVEA writes no flags: keep scanning.
            }
            Instr::Add(_, _, dst) | Instr::Sub(_, _, dst) => {
                if !matches!(dst, Operand::Ar(_)) {
                    return true;
                }
            }
            Instr::Cmp(_, _, _)
            | Instr::Tst(_, _)
            | Instr::And(_, _, _)
            | Instr::Or(_, _, _)
            | Instr::Eor(_, _, _)
            | Instr::Not(_, _)
            | Instr::Neg(_, _)
            | Instr::MulU(_, _)
            | Instr::DivU(_, _)
            | Instr::Shift(_, _, _, _)
            | Instr::Swap(_)
            | Instr::Ext(_, _)
            | Instr::Cas { .. }
            | Instr::Tas(_) => return true,
            // Flag-neutral instructions: keep scanning.
            Instr::Movem { .. }
            | Instr::Lea(_, _)
            | Instr::Pea(_)
            | Instr::Link(_, _)
            | Instr::Unlk(_)
            | Instr::MoveUsp { .. }
            | Instr::MoveVbr { .. }
            | Instr::Nop
            | Instr::FMove { .. }
            | Instr::FMovem { .. }
            | Instr::FAdd(_, _)
            | Instr::FSub(_, _)
            | Instr::FMul(_, _) => {}
            Instr::MoveSr { .. } => return false,
        }
        j += 1;
    }
    false
}

/// Whether `instrs[j]` reads data register `n` (conservatively true for
/// anything unclear).
fn reads_dreg(instr: &Instr, n: u8) -> bool {
    let uses_op = |op: &Operand| -> bool {
        match *op {
            Operand::Dr(d) => d == n,
            Operand::Idx(_, _, ix) => !ix.addr && ix.reg == n,
            _ => false,
        }
    };
    use Instr::*;
    match instr {
        Move(_, s, d) => uses_op(s) || (uses_op(d) && !matches!(d, Operand::Dr(x) if *x == n)),
        Add(_, s, d) | Sub(_, s, d) | Cmp(_, s, d) | And(_, s, d) | Or(_, s, d) | Eor(_, s, d) => {
            uses_op(s) || uses_op(d)
        }
        Shift(_, _, c, d) => uses_op(c) || uses_op(d),
        Tst(_, ea)
        | Not(_, ea)
        | Neg(_, ea)
        | Scc(_, ea)
        | Pea(ea)
        | Jmp(ea)
        | Jsr(ea)
        | Tas(ea) => uses_op(ea),
        Lea(ea, _) => uses_op(ea),
        MulU(ea, d) | DivU(ea, d) => uses_op(ea) || *d == n,
        Movem { to_mem, regs, ea } => (*to_mem && regs.has_d(n)) || uses_op(ea),
        Cas { dc, du, ea, .. } => *dc == n || *du == n || uses_op(ea),
        Swap(d) | Ext(_, d) | Dbf(d, _) => *d == n,
        MoveSr { to_sr: true, ea } | MoveVbr { to_vbr: true, ea } => uses_op(ea),
        FMove { ea, .. } | FMovem { ea, .. } => uses_op(ea),
        // Anything that leaves the block may read everything.
        Trap(_) | KCall(_) | Rts | Rte | Halt | Stop(_) => true,
        _ => false,
    }
}

/// Whether `instr` writes data register `n` long-sized (fully overwrites).
fn overwrites_dreg_long(instr: &Instr, n: u8) -> bool {
    matches!(instr, Instr::Move(Size::L, _, Operand::Dr(d)) if *d == n)
}

/// `cmp #0,x` → `tst x`. Flag-equivalent, always safe.
fn pass_cmp0_to_tst(instrs: &mut [Instr], r: &mut Resolver<'_>) -> bool {
    let mut changed = false;
    for ins in instrs.iter_mut() {
        if let Instr::Cmp(size, src, dst) = *ins {
            if !matches!(dst, Operand::Ar(_)) && imm_value(src, r) == Some(0) {
                *ins = Instr::Tst(size, dst);
                changed = true;
            }
        }
    }
    changed
}

/// Delete arithmetic identities whose flag effects are dead.
fn pass_identities(
    instrs: &[Instr],
    keep: &mut [bool],
    targets: &[bool],
    r: &mut Resolver<'_>,
) -> bool {
    let mut changed = false;
    for (i, ins) in instrs.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        // `(deletable if flags allow, the hole that must read 0 for it)`.
        let (identity, zero_hole) = match *ins {
            // add #0 to memory still performs the read/write cycle but
            // has no effect; deleting it is safe when flags are dead
            // and the EA has no side effects.
            Instr::Add(_, s, d)
            | Instr::Sub(_, s, d)
            | Instr::Or(_, s, d)
            | Instr::Eor(_, s, d)
                if !matches!(d, Operand::PostInc(_) | Operand::PreDec(_)) =>
            {
                match s {
                    Operand::Imm(v) => (v == 0, None),
                    Operand::ImmHole(h) => (true, Some(h)),
                    _ => (false, None),
                }
            }
            Instr::Move(_, s, d) => (s == d && s.is_register(), None),
            _ => (false, None),
        };
        if !identity {
            continue;
        }
        let flags_matter = !matches!(*ins, Instr::Move(_, _, Operand::Ar(_)));
        if (!flags_matter || flags_dead_after(instrs, i, targets))
            && zero_hole.is_none_or(|h| r.read(h) == 0)
        {
            keep[i] = false;
            changed = true;
        }
    }
    changed
}

/// Delete `move _,Dn` whose value is overwritten before any read.
fn pass_dead_stores(instrs: &[Instr], keep: &mut [bool], targets: &[bool]) -> bool {
    let mut changed = false;
    'outer: for i in 0..instrs.len() {
        if !keep[i] {
            continue;
        }
        // Only pure register stores with side-effect-free sources.
        let Instr::Move(_, src, Operand::Dr(n)) = instrs[i] else {
            continue;
        };
        if matches!(src, Operand::PostInc(_) | Operand::PreDec(_)) || src.is_memory() {
            // A memory read may fault or touch a device: keep it.
            continue;
        }
        if !flags_dead_after(instrs, i, targets) {
            continue;
        }
        let mut j = i + 1;
        while j < instrs.len() {
            if targets[j] {
                continue 'outer; // unknown path may read Dn
            }
            if !keep[j] {
                j += 1;
                continue;
            }
            if reads_dreg(&instrs[j], n) {
                continue 'outer;
            }
            if overwrites_dreg_long(&instrs[j], n) {
                keep[i] = false;
                changed = true;
                continue 'outer;
            }
            if instrs[j].is_terminator() {
                continue 'outer;
            }
            j += 1;
        }
    }
    changed
}

/// `mulu #2^k,Dn` → `and.l #0xFFFF,Dn ; lsl.l #k,Dn` (just the `and`
/// when k = 0). The replacement's N/Z/V/C match mulu's, but `lsl`
/// writes X and mulu does not, so the rewrite applies only when flags
/// are provably dead. Grows the stream, hence [`rewrite::splice`].
fn pass_strength_reduce(
    instrs: &mut Vec<Instr>,
    marks: &mut HashMap<String, usize>,
    r: &mut Resolver<'_>,
) -> bool {
    let reducible = |v: u32| v.is_power_of_two() && v <= 0x8000;
    let mut changed = false;
    let mut i = instrs.len();
    while i > 0 {
        i -= 1;
        let Instr::MulU(src, d) = instrs[i] else {
            continue;
        };
        // A number is tested now, a hole only once the flags are known dead.
        let candidate = match src {
            Operand::Imm(v) => reducible(v),
            Operand::ImmHole(_) => true,
            _ => false,
        };
        if !candidate {
            continue;
        }
        let targets = rewrite::branch_target_flags(instrs);
        if !flags_dead_after(instrs, i, &targets) {
            continue;
        }
        let Some(v) = imm_value(src, r).filter(|&v| reducible(v)) else {
            continue;
        };
        let k = v.trailing_zeros();
        let mut repl = vec![Instr::And(Size::L, Operand::Imm(0xFFFF), Operand::Dr(d))];
        if k > 0 {
            repl.push(Instr::Shift(
                ShiftKind::Lsl,
                Size::L,
                Operand::Imm(k),
                Operand::Dr(d),
            ));
        }
        rewrite::splice(instrs, marks, i, i + 1, repl);
        changed = true;
    }
    changed
}

/// Delete the reload in `move Dn,Abs ; move Abs,Dn` (same size, same
/// register, same address). The reload's flags equal the store's — both
/// derive from the same value — so no flags-dead gate is required.
/// Device registers are volatile: never elide a read from one.
fn pass_store_reload(
    instrs: &[Instr],
    keep: &mut [bool],
    targets: &[bool],
    r: &mut Resolver<'_>,
) -> bool {
    let mut changed = false;
    for i in 0..instrs.len().saturating_sub(1) {
        if !keep[i] || !keep[i + 1] || targets[i + 1] {
            continue;
        }
        let (
            Instr::Move(s1, Operand::Dr(n1), to @ (Operand::Abs(_) | Operand::AbsHole(_))),
            Instr::Move(s2, from @ (Operand::Abs(_) | Operand::AbsHole(_)), Operand::Dr(n2)),
        ) = (instrs[i], instrs[i + 1])
        else {
            continue;
        };
        if s1 != s2 || n1 != n2 {
            continue;
        }
        let (Some(a1), Some(a2)) = (abs_value(to, r), abs_value(from, r)) else {
            continue;
        };
        if a1 == a2 && a1 < DEV_BASE {
            keep[i + 1] = false;
            changed = true;
        }
    }
    changed
}

/// Thread `bra` chains: a branch whose target is an unconditional branch
/// goes straight to the final target.
fn pass_branch_threading(instrs: &mut [Instr]) -> bool {
    let mut changed = false;
    for i in 0..instrs.len() {
        let Some(BranchTarget::Idx(t)) = instrs[i].branch_target() else {
            continue;
        };
        let mut t = t as usize;
        let mut hops = 0;
        while hops < 8 {
            match instrs.get(t) {
                Some(Instr::Bcc(Cond::T, BranchTarget::Idx(t2))) if *t2 as usize != t => {
                    t = *t2 as usize;
                    hops += 1;
                }
                _ => break,
            }
        }
        if let Some(BranchTarget::Idx(orig)) = instrs[i].branch_target() {
            if orig as usize != t {
                instrs[i].set_branch_target(BranchTarget::Idx(t as u32));
                changed = true;
            }
        }
    }
    changed
}

/// `bcc L1; bra L2; L1:` → `b!cc L2` (inverted-branch elimination).
fn pass_invert_skip(instrs: &mut [Instr], keep: &mut [bool]) -> bool {
    let mut changed = false;
    let targets = rewrite::branch_target_flags(instrs);
    for i in 0..instrs.len().saturating_sub(1) {
        if !keep[i] || !keep[i + 1] {
            continue;
        }
        // The bra must not itself be a branch target.
        if targets[i + 1] {
            continue;
        }
        let (Instr::Bcc(c, BranchTarget::Idx(t1)), Instr::Bcc(Cond::T, BranchTarget::Idx(t2))) =
            (instrs[i], instrs[i + 1])
        else {
            continue;
        };
        if c == Cond::T || t1 as usize != i + 2 {
            continue;
        }
        instrs[i] = Instr::Bcc(c.negate(), BranchTarget::Idx(t2));
        keep[i + 1] = false;
        changed = true;
    }
    changed
}

/// Run all peephole passes to a fixpoint on a hole-free stream; returns
/// the optimized stream with `marks` remapped.
#[must_use]
pub fn optimize(instrs: Vec<Instr>, marks: &mut HashMap<String, usize>) -> Vec<Instr> {
    optimize_holed(instrs, marks, &mut Resolver::none())
}

/// [`optimize`] on a stream that may still contain holes (see the module
/// docs).
#[must_use]
pub fn optimize_holed(
    mut instrs: Vec<Instr>,
    marks: &mut HashMap<String, usize>,
    r: &mut Resolver<'_>,
) -> Vec<Instr> {
    for _ in 0..8 {
        let mut changed = pass_cmp0_to_tst(&mut instrs, r);
        changed |= pass_branch_threading(&mut instrs);
        changed |= pass_strength_reduce(&mut instrs, marks, r);
        let targets = rewrite::branch_target_flags(&instrs);
        let mut keep = vec![true; instrs.len()];
        changed |= pass_identities(&instrs, &mut keep, &targets, r);
        changed |= pass_dead_stores(&instrs, &mut keep, &targets);
        changed |= pass_store_reload(&instrs, &mut keep, &targets, r);
        changed |= pass_invert_skip(&mut instrs, &mut keep);
        instrs = rewrite::compact(instrs, &keep, marks);
        if !changed {
            break;
        }
    }
    instrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::Operand::*;
    use quamachine::isa::Size::L;

    fn opt(instrs: Vec<Instr>) -> Vec<Instr> {
        let mut marks = HashMap::new();
        optimize(instrs, &mut marks)
    }

    #[test]
    fn cmp_zero_becomes_tst() {
        let out = opt(vec![
            Instr::Cmp(L, Imm(0), Dr(1)),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::Tst(L, Dr(1)));
    }

    #[test]
    fn add_zero_removed_when_flags_dead() {
        let out = opt(vec![
            Instr::Add(L, Imm(0), Dr(1)),
            Instr::Move(L, Imm(5), Dr(2)), // writes flags: add's are dead
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Instr::Move(L, Imm(5), Dr(2)));
    }

    #[test]
    fn add_zero_kept_when_flags_read() {
        let out = opt(vec![
            Instr::Add(L, Imm(0), Dr(1)),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3, "flags feed the branch; must keep");
    }

    #[test]
    fn self_move_removed() {
        let out = opt(vec![
            Instr::Move(L, Dr(3), Dr(3)),
            Instr::Move(L, Imm(1), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn dead_store_removed() {
        let out = opt(vec![
            Instr::Move(L, Imm(1), Dr(0)), // dead: overwritten below
            Instr::Move(L, Imm(2), Dr(1)),
            Instr::Move(L, Imm(3), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Instr::Move(L, Imm(2), Dr(1)));
    }

    #[test]
    fn store_read_before_overwrite_kept() {
        let out = opt(vec![
            Instr::Move(L, Imm(1), Dr(0)),
            Instr::Add(L, Dr(0), Dr(1)), // reads d0
            Instr::Move(L, Imm(3), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn memory_load_store_not_removed() {
        // A load may fault or hit a device register; never delete it.
        let out = opt(vec![
            Instr::Move(L, Abs(0x2000), Dr(0)),
            Instr::Move(L, Imm(3), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn branch_chains_threaded() {
        let out = opt(vec![
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)), // 0 -> 2
            Instr::Rts,                                 // 1
            Instr::Bcc(Cond::T, BranchTarget::Idx(4)),  // 2 -> 4
            Instr::Rts,                                 // 3
            Instr::Halt,                                // 4
        ]);
        // The conditional now goes straight to the halt.
        let Instr::Bcc(Cond::Eq, BranchTarget::Idx(t)) = out[0] else {
            panic!("expected threaded bcc, got {:?}", out[0]);
        };
        assert_eq!(out[t as usize], Instr::Halt);
    }

    #[test]
    fn inverted_branch_skip() {
        // beq L1; bra L2; L1: move; rts   =>   bne L2; move; rts
        let out = opt(vec![
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
            Instr::Bcc(Cond::T, BranchTarget::Idx(3)),
            Instr::Move(L, Imm(1), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
        let Instr::Bcc(Cond::Ne, BranchTarget::Idx(t)) = out[0] else {
            panic!("expected inverted branch, got {:?}", out[0]);
        };
        assert_eq!(out[t as usize], Instr::Rts);
    }

    #[test]
    fn mulu_pow2_reduced_when_flags_dead() {
        // mulu #8,d0 followed by a flag-writer: 27 cycles become 6.
        let out = opt(vec![
            Instr::MulU(Imm(8), 0),
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Rts,
        ]);
        assert_eq!(
            out,
            vec![
                Instr::And(L, Imm(0xFFFF), Dr(0)),
                Instr::Shift(ShiftKind::Lsl, L, Imm(3), Dr(0)),
                Instr::Move(L, Dr(0), Abs(0x2000)),
                Instr::Rts,
            ]
        );
    }

    #[test]
    fn mulu_by_one_becomes_bare_mask() {
        let out = opt(vec![
            Instr::MulU(Imm(1), 4),
            Instr::Move(L, Dr(4), Abs(0x2000)),
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::And(L, Imm(0xFFFF), Dr(4)));
        assert!(!out.iter().any(|i| matches!(i, Instr::Shift(..))));
    }

    #[test]
    fn mulu_kept_when_flags_feed_a_branch() {
        // Proof case for the flags-dead gate: the branch reads mulu's Z.
        let out = opt(vec![
            Instr::MulU(Imm(8), 0),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::MulU(Imm(8), 0), "live flags must block it");
    }

    #[test]
    fn mulu_kept_when_sr_is_stored() {
        // Proof case for X: lsl writes X, mulu does not, and a store-SR
        // observes X — the rewrite must not fire.
        let out = opt(vec![
            Instr::MulU(Imm(8), 0),
            Instr::MoveSr {
                to_sr: false,
                ea: Dr(1),
            },
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::MulU(Imm(8), 0), "stored SR observes X");
    }

    #[test]
    fn mulu_non_pow2_kept() {
        let out = opt(vec![
            Instr::MulU(Imm(6), 0),
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::MulU(Imm(6), 0));
    }

    #[test]
    fn mulu_splice_retargets_branches_and_marks() {
        let mut marks = HashMap::new();
        marks.insert("out".to_string(), 4);
        let out = optimize(
            vec![
                Instr::MulU(Imm(8), 0),                     // 0: grows to 2 instrs
                Instr::Move(L, Dr(0), Abs(0x2000)),         // 1: flag-writer
                Instr::Tst(L, Dr(7)),                       // 2
                Instr::Bcc(Cond::Ne, BranchTarget::Idx(4)), // 3 -> rts
                Instr::Rts,                                 // 4: mark "out"
            ],
            &mut marks,
        );
        let rts_at = out.iter().position(|i| matches!(i, Instr::Rts)).unwrap();
        let Some(Instr::Bcc(Cond::Ne, BranchTarget::Idx(t))) =
            out.iter().find(|i| matches!(i, Instr::Bcc(Cond::Ne, _)))
        else {
            panic!("bne lost: {out:?}");
        };
        assert_eq!(*t as usize, rts_at);
        assert_eq!(marks["out"], rts_at);
    }

    #[test]
    fn store_reload_elided() {
        let out = opt(vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Move(L, Abs(0x2000), Dr(0)), // redundant reload
            Instr::Move(L, Imm(1), Dr(1)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Instr::Move(L, Dr(0), Abs(0x2000)));
        assert_eq!(out[1], Instr::Move(L, Imm(1), Dr(1)));
    }

    #[test]
    fn store_reload_kept_at_device_registers() {
        // Proof case for volatility: a device read has side effects.
        let dev = quamachine::devices::DEV_BASE + 0x100;
        let out = opt(vec![
            Instr::Move(L, Dr(0), Abs(dev)),
            Instr::Move(L, Abs(dev), Dr(0)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn store_reload_kept_when_reload_is_a_branch_target() {
        // Someone jumps straight to the reload: it must survive.
        let out = opt(vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),         // 0
            Instr::Move(L, Abs(0x2000), Dr(0)),         // 1: target
            Instr::Tst(L, Dr(7)),                       // 2
            Instr::Bcc(Cond::Ne, BranchTarget::Idx(1)), // 3
            Instr::Rts,                                 // 4
        ]);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn store_reload_different_reg_or_size_kept() {
        let out = opt(vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Move(L, Abs(0x2000), Dr(1)), // different register
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
        let out = opt(vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Move(Size::W, Abs(0x2000), Dr(0)), // different size
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn promoted_patterns_prove_equivalent() {
        // The differential oracle agrees with the two rewrites that came
        // from search rather than from the paper: `mulu` strength reduction
        // and store-reload elision.
        let original = vec![
            Instr::MulU(Imm(4), 2),
            Instr::Move(L, Dr(2), Abs(0x2000)),
            Instr::Move(L, Abs(0x2000), Dr(2)),
            Instr::Rts,
        ];
        let optimized = opt(original.clone());
        assert!(!optimized.iter().any(|i| matches!(i, Instr::MulU(..))));
        assert!(
            !optimized
                .iter()
                .any(|i| matches!(i, Instr::Move(_, Abs(_), Dr(_)))),
            "reload should be gone: {optimized:?}"
        );
        crate::equiv::diff_check(&original, &optimized, &crate::equiv::DiffConfig::default())
            .expect("promoted rewrites must be behaviorally equivalent");
    }

    #[test]
    fn movea_does_not_write_flags_for_deadness() {
        // add #0,d1 ; movea (flag-neutral) ; beq — flags still live.
        let out = opt(vec![
            Instr::Add(L, Imm(0), Dr(1)),
            Instr::Move(L, Imm(0x100), Ar(0)),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(3)),
            Instr::Rts,
        ]);
        assert_eq!(out.len(), 4);
    }
}
