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
//! - a dead store `move _,Dn` whose register is overwritten whole with no
//!   intervening read, branch target, branch or control transfer → deleted;
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
use quamachine::isa::{BranchTarget, Cond, Control, Effects, Instr, Operand, ShiftKind, Size};

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

/// Whether something instruction `i` leaves behind is dead: the
/// straight-line run after it reaches an instruction that overwrites it
/// before one that reads it.
///
/// The walk trusts only what [`Instr::effects`] promises, and gives up —
/// "live" — at anything that is not [`Control::Fall`] (the other path, the
/// callee or the handler was not looked at), at a branch target (a merge
/// point: this walk covers one path into it, and a rewrite licensed here
/// must hold on all of them) and at the end of the block.
fn dead_after(
    instrs: &[Instr],
    i: usize,
    targets: &[bool],
    read_overwritten: impl Fn(&Effects) -> (bool, bool),
) -> bool {
    for j in i + 1..instrs.len() {
        let fx = instrs[j].effects();
        let (read, overwritten) = read_overwritten(&fx);
        if targets[j] || fx.control != Control::Fall || read {
            return false;
        }
        if overwritten {
            return true;
        }
    }
    false
}

/// Whether the condition codes produced by instruction `i` are dead.
fn flags_dead_after(instrs: &[Instr], i: usize, targets: &[bool]) -> bool {
    dead_after(instrs, i, targets, |fx| (fx.reads_flags, fx.writes_flags))
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
        if (!ins.effects().writes_flags || flags_dead_after(instrs, i, targets))
            && zero_hole.is_none_or(|h| r.read(h) == 0)
        {
            keep[i] = false;
            changed = true;
        }
    }
    changed
}

/// Delete `move _,Dn` whose flags are dead and whose value is overwritten
/// whole before any read.
fn pass_dead_stores(instrs: &[Instr], keep: &mut [bool], targets: &[bool]) -> bool {
    let mut changed = false;
    for i in 0..instrs.len() {
        // Only pure register stores; a memory read may fault or touch a
        // device.
        let Instr::Move(_, src, Operand::Dr(n)) = instrs[i] else {
            continue;
        };
        if keep[i]
            && !src.is_memory()
            && flags_dead_after(instrs, i, targets)
            && dead_after(instrs, i, targets, |fx| {
                (fx.reads.has_d(n), fx.kills.has_d(n))
            })
        {
            keep[i] = false;
            changed = true;
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
    fn store_kept_when_control_can_leave_before_the_overwrite() {
        // `move.l #1,d0` is overwritten on the fall-through path only: the
        // branch target, or the callee, reads it.
        let store = Instr::Move(L, Imm(1), Dr(0));
        let overwrite = Instr::Move(L, Imm(2), Dr(0));
        let reader = Instr::Move(L, Dr(0), Abs(0x2000));
        let rows = [
            vec![
                store,
                Instr::Tst(L, Dr(1)),
                Instr::Bcc(Cond::Eq, BranchTarget::Idx(5)),
                overwrite,
                Instr::Rts,
                reader,
                Instr::Rts,
            ],
            vec![
                store,
                Instr::Move(L, Imm(3), Dr(2)), // the store's flags are dead
                Instr::Dbf(1, BranchTarget::Idx(5)),
                overwrite,
                Instr::Rts,
                reader,
                Instr::Rts,
            ],
            vec![
                store,
                Instr::Move(L, Imm(3), Dr(2)),
                Instr::Jsr(Abs(0x3000)),
                overwrite,
                Instr::Rts,
            ],
        ];
        // d1 = 0 takes the `beq` and falls out of the `dbf`; d1 = 5 the reverse.
        let cfg = crate::equiv::DiffConfig {
            preset_sets: vec![vec![(true, 1, 0)], vec![(true, 1, 5)]],
            ..Default::default()
        };
        for original in rows {
            let out = opt(original.clone());
            assert_eq!(out[0], store, "store lost from {original:?}");
            crate::equiv::diff_check(&original, &out, &cfg).expect("equivalent");
        }
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
