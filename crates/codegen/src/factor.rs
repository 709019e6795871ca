//! Factoring Invariants: specialize a template for known run-time values.
//!
//! "The Factoring Invariants method bypasses redundant computations, much
//! like constant folding" (paper Section 2.2). The pipeline is:
//!
//! 1. **Substitute** — fill every hole with its bound value;
//! 2. **Propagate** — track registers holding known constants and flags
//!    with statically known outcomes, rewriting register reads into
//!    immediates;
//! 3. **Resolve** — a conditional branch whose flags are known becomes
//!    unconditional or disappears;
//! 4. **Prune** — instructions unreachable from the template's entry
//!    points are deleted.
//!
//! This is what makes an `open(/dev/null)`-synthesized `read` collapse to
//! a handful of instructions: the device pointer, buffering mode, and
//! debug flags are invariants of the open file, so every test on them
//! folds away.
//!
//! Steps 2–4 are [`fold`], which also runs on a stream whose holes are
//! still in place: a hole's value is then *carried* (a register holding
//! it is rewritten to the hole, not to a number) and is read — through
//! the [`Resolver`], which logs it — only where the fold computes with
//! it. [`factor`] is step 1 followed by [`fold`] with no holes left.

use std::collections::HashMap;

use quamachine::isa::{Cond, HoleId, Instr, Operand, Size};

use crate::plan::Resolver;
use crate::rewrite;
use crate::template::{Bindings, Template};

/// Factoring errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// A hole used in the template has no binding.
    MissingBinding(String),
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::MissingBinding(n) => write!(f, "no binding for hole {n:?}"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Fill holes with bound values.
///
/// # Errors
///
/// Fails if an instruction uses a hole with no binding.
pub fn substitute(t: &Template, b: &Bindings) -> Result<Vec<Instr>, FactorError> {
    let mut missing = None;
    let instrs = t
        .instrs
        .iter()
        .map(|&i| {
            rewrite::map_operands(i, |op| {
                let Some(h) = op.hole() else { return op };
                let name = &t.holes[h as usize];
                match (b.get(name), op) {
                    (Some(v), Operand::ImmHole(_)) => Operand::Imm(v),
                    (Some(v), _) => Operand::Abs(v),
                    (None, _) => {
                        missing.get_or_insert_with(|| name.clone());
                        op
                    }
                }
            })
        })
        .collect();
    match missing {
        Some(name) => Err(FactorError::MissingBinding(name)),
        None => Ok(instrs),
    }
}

/// What the fold knows a register or immediate to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// This number.
    Const(u32),
    /// Whatever this hole is bound to — carried, not looked at.
    Hole(HoleId),
}

impl Val {
    /// The number: a hole's value is read (and logged) only here.
    fn read(self, r: &mut Resolver<'_>) -> u32 {
        match self {
            Val::Const(v) => v,
            Val::Hole(h) => r.read(h),
        }
    }

    /// The immediate operand that denotes this value.
    fn operand(self) -> Operand {
        match self {
            Val::Const(v) => Operand::Imm(v),
            Val::Hole(h) => Operand::ImmHole(h),
        }
    }
}

/// A register-constant lattice: `Some(v)` = known value, `None` = unknown.
#[derive(Debug, Clone, Default)]
struct Consts {
    d: [Option<Val>; 8],
    a: [Option<Val>; 8],
}

impl Consts {
    fn get(&self, op: &Operand) -> Option<Val> {
        match *op {
            Operand::Dr(n) => self.d[n as usize],
            Operand::Ar(n) => self.a[n as usize],
            Operand::Imm(v) => Some(Val::Const(v)),
            Operand::ImmHole(h) => Some(Val::Hole(h)),
            _ => None,
        }
    }

    /// Record the effect of a write to a register.
    fn set_reg(&mut self, op: &Operand, size: Size, v: Option<Val>, r: &mut Resolver<'_>) {
        match *op {
            Operand::Dr(n) => {
                // Sub-long writes merge into unknown upper bits.
                self.d[n as usize] = match (size, v) {
                    (Size::L, val) => val,
                    _ => None,
                };
            }
            Operand::Ar(n) => {
                // A sub-long write sign-extends: that computes with the
                // value, so a carried hole is read.
                self.a[n as usize] = match size {
                    Size::L => v,
                    _ => v.map(|x| Val::Const(size.sext(x.read(r)))),
                };
            }
            _ => {}
        }
    }
}

/// Statically known condition flags.
#[derive(Debug, Clone, Copy)]
struct KnownFlags {
    n: bool,
    z: bool,
    v: bool,
    c: bool,
}

/// What the fold knows about the condition codes. The flags a `move`,
/// `tst` or `cmp` sets are kept as their recipe and worked out only when
/// a `Bcc` consumes them, so a hole that merely passes through a
/// flag-setting instruction is never read.
#[derive(Debug, Clone, Copy)]
enum Flags {
    Unknown,
    Known(KnownFlags),
    /// Those of this value at this size (`move`, `tst`).
    OfValue(Size, Val),
    /// Those of `dst - src` (`cmp`): `(size, dst, src)`.
    OfSub(Size, Val, Val),
}

impl Flags {
    fn force(self, r: &mut Resolver<'_>) -> Option<KnownFlags> {
        match self {
            Flags::Unknown => None,
            Flags::Known(f) => Some(f),
            Flags::OfValue(size, v) => Some(flags_of_value(size, v.read(r))),
            Flags::OfSub(size, d, s) => Some(flags_of_sub(size, d.read(r), s.read(r))),
        }
    }
}

fn flags_of_value(size: Size, v: u32) -> KnownFlags {
    let v = v & size.mask();
    KnownFlags {
        n: v & size.sign_bit() != 0,
        z: v == 0,
        v: false,
        c: false,
    }
}

fn flags_of_sub(size: Size, dst: u32, src: u32) -> KnownFlags {
    let (dst, src) = (dst & size.mask(), src & size.mask());
    let r = dst.wrapping_sub(src) & size.mask();
    let sb = size.sign_bit();
    KnownFlags {
        n: r & sb != 0,
        z: r == 0,
        v: ((dst ^ src) & (dst ^ r) & sb) != 0,
        c: src > dst,
    }
}

fn flags_of_add(size: Size, a: u32, b: u32) -> KnownFlags {
    let (a, b) = (a & size.mask(), b & size.mask());
    let r = a.wrapping_add(b) & size.mask();
    let sb = size.sign_bit();
    KnownFlags {
        n: r & sb != 0,
        z: r == 0,
        v: ((a ^ r) & (b ^ r) & sb) != 0,
        c: (u64::from(a) + u64::from(b)) > u64::from(size.mask()),
    }
}

/// The value (unmasked) and flags that `add`, `sub`, `and` or `eor` at
/// `size` leaves from destination `d` and source `s`.
fn alu(ins: Instr, size: Size, d: u32, s: u32) -> (u32, KnownFlags) {
    let logic = |v: u32| (v, flags_of_value(size, v));
    match ins {
        Instr::Add(..) => (d.wrapping_add(s), flags_of_add(size, d, s)),
        Instr::Sub(..) => (d.wrapping_sub(s), flags_of_sub(size, d, s)),
        Instr::And(..) => logic(d & s),
        _ => logic(d ^ s),
    }
}

/// Rewrite a constant data-register source into an immediate.
fn rewrite_src(op: &mut Operand, consts: &Consts, changed: &mut bool) {
    if matches!(op, Operand::Dr(_)) {
        if let Some(v) = consts.get(op) {
            *op = v.operand();
            *changed = true;
        }
    }
}

/// One forward pass of constant propagation and branch resolution over a
/// linear instruction stream. Returns `(instrs, keep, changed)`.
///
/// The arms below only *compute*: the value an instruction leaves in a
/// register and the flags it sets, where the fold can know them. What an
/// instruction invalidates is not theirs to know — after the arm, every
/// register in [`Instr::effects`]' `writes` is forgotten unless the arm
/// just gave its value, and the flags are whatever the arm worked out
/// (nothing, by default) if `writes_flags`. An instruction that leaves the
/// block writes everything, so nothing is known after it.
fn propagate(mut instrs: Vec<Instr>, r: &mut Resolver<'_>) -> (Vec<Instr>, Vec<bool>, bool) {
    let targets = rewrite::branch_target_flags(&instrs);
    let mut keep = vec![true; instrs.len()];
    let mut changed = false;

    let mut consts = Consts::default();
    let mut flags = Flags::Unknown;

    for i in 0..instrs.len() {
        if targets[i] {
            // Control can arrive here from elsewhere: forget everything.
            consts = Consts::default();
            flags = Flags::Unknown;
        }

        // Work on a copy (Instr is Copy); write it back at the end.
        let mut ins = instrs[i];
        let fx = ins.effects();
        // The register write whose value the arm knows (`None` = unknown
        // value), and the flags if the instruction sets them.
        let mut sets: Option<(Operand, Size, Option<Val>)> = None;
        let mut new_flags = Flags::Unknown;
        use Instr::*;
        match &mut ins {
            Move(size, src, dst) => {
                rewrite_src(src, &consts, &mut changed);
                let v = consts.get(src);
                sets = Some((*dst, *size, v));
                new_flags = v.map_or(Flags::Unknown, |x| Flags::OfValue(*size, x));
            }
            Add(size, src, dst)
            | Sub(size, src, dst)
            | And(size, src, dst)
            | Eor(size, src, dst) => {
                rewrite_src(src, &consts, &mut changed);
                if let (Some(s), Some(d)) = (consts.get(src), consts.get(dst)) {
                    let (s, d) = (s.read(r), d.read(r));
                    // ADDA/SUBA sign-extend the source and use all of An.
                    let (sz, s) = match (instrs[i], *dst) {
                        (Add(..) | Sub(..), Operand::Ar(_)) => (Size::L, size.sext(s)),
                        _ => (*size, s),
                    };
                    let (v, f) = alu(instrs[i], sz, d, s);
                    sets = Some((*dst, sz, Some(Val::Const(v & sz.mask()))));
                    new_flags = Flags::Known(f);
                }
            }
            Cmp(size, src, dst) => {
                rewrite_src(src, &consts, &mut changed);
                if let (Some(s), Some(d)) = (consts.get(src), consts.get(dst)) {
                    new_flags = Flags::OfSub(*size, d, s);
                }
            }
            Tst(size, ea) => {
                if let Some(v) = consts.get(ea) {
                    new_flags = Flags::OfValue(*size, v);
                }
            }
            Bcc(cond, _) => {
                if let Some(f) = flags.force(r) {
                    flags = Flags::Known(f);
                    let taken = cond.eval(f.n, f.z, f.v, f.c);
                    if taken {
                        if *cond != Cond::T {
                            *cond = Cond::T;
                            changed = true;
                        }
                    } else {
                        keep[i] = false;
                        changed = true;
                    }
                }
            }
            Lea(ea, n) => {
                let v = match *ea {
                    Operand::Abs(a) => Some(Val::Const(a)),
                    Operand::AbsHole(h) => Some(Val::Hole(h)),
                    _ => None,
                };
                sets = Some((Operand::Ar(*n), Size::L, v));
            }
            _ => {}
        }
        for (is_a, n) in fx.writes.iter() {
            let known = if is_a { &mut consts.a } else { &mut consts.d };
            known[n as usize] = None;
        }
        if fx.writes_flags {
            flags = new_flags;
        }
        if let Some((dst, size, v)) = sets {
            consts.set_reg(&dst, size, v, r);
        }
        instrs[i] = ins;
    }
    (instrs, keep, changed)
}

/// Remove branches to the immediately following instruction.
fn drop_branches_to_next(instrs: &[Instr], keep: &mut [bool]) -> bool {
    let mut changed = false;
    for (i, instr) in instrs.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Instr::Bcc(_, quamachine::isa::BranchTarget::Idx(t)) = instr {
            // Target is the next *kept* instruction?
            let mut next = i + 1;
            while next < instrs.len() && !keep[next] {
                next += 1;
            }
            if *t as usize == next {
                keep[i] = false;
                changed = true;
            }
        }
    }
    changed
}

/// Propagate, resolve, prune — to a fixpoint, on a stream that may still
/// contain holes (see the module docs). Entry points listed in `marks`
/// (plus index 0) stay reachable; `marks` is remapped.
#[must_use]
pub fn fold(
    mut instrs: Vec<Instr>,
    marks: &mut HashMap<String, usize>,
    r: &mut Resolver<'_>,
) -> Vec<Instr> {
    // Iterate to a fixpoint (bounded: each round deletes or rewrites).
    for _ in 0..8 {
        let (new_instrs, mut keep, mut changed) = propagate(instrs, r);
        instrs = new_instrs;
        changed |= drop_branches_to_next(&instrs, &mut keep);
        // Apply branch-removals first so reachability sees the pruned CFG,
        // then eliminate code unreachable from any entry point.
        instrs = rewrite::compact(instrs, &keep, marks);
        let mut entries: Vec<usize> = vec![0];
        entries.extend(marks.values().copied());
        let reach = rewrite::reachable(&instrs, &entries);
        if reach.iter().any(|kept| !kept) {
            changed = true;
            instrs = rewrite::compact(instrs, &reach, marks);
        }
        if !changed {
            break;
        }
    }
    instrs
}

/// The full Factoring Invariants pipeline: substitute, then [`fold`].
///
/// # Errors
///
/// Fails if a used hole has no binding.
pub fn factor(t: &Template, b: &Bindings) -> Result<Template, FactorError> {
    let mut marks = t.marks.clone();
    let instrs = fold(substitute(t, b)?, &mut marks, &mut Resolver::none());
    Ok(Template {
        name: t.name.clone(),
        instrs,
        holes: Vec::new(),
        marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Operand::*, Size::L};

    #[test]
    fn substitute_fills_holes() {
        let mut a = Asm::new("t");
        let h = a.imm_hole("x");
        let ab = a.abs_hole("y");
        a.move_(L, h, Dr(0));
        a.move_(L, Dr(0), ab);
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let b = Bindings::new().with("x", 42).with("y", 0x2000);
        let out = substitute(&t, &b).unwrap();
        assert_eq!(out[0], Instr::Move(L, Imm(42), Dr(0)));
        assert_eq!(out[1], Instr::Move(L, Dr(0), Abs(0x2000)));
    }

    #[test]
    fn missing_binding_is_an_error() {
        let mut a = Asm::new("t");
        let h = a.imm_hole("x");
        a.move_(L, h, Dr(0));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        assert_eq!(
            factor(&t, &Bindings::new()).unwrap_err(),
            FactorError::MissingBinding("x".to_string())
        );
    }

    #[test]
    fn constant_test_folds_branch_and_dead_path() {
        // if (mode == 0) { fast } else { slow } with mode bound to 0.
        let mut a = Asm::new("t");
        let mode = a.imm_hole("mode");
        let slow = a.label();
        let end = a.label();
        a.move_(L, mode, Dr(1));
        a.tst(L, Dr(1));
        a.bcc(quamachine::isa::Cond::Ne, slow);
        a.move_i(L, 111, Dr(0)); // fast path
        a.bra(end);
        a.bind(slow);
        a.move_i(L, 222, Dr(0)); // slow path
        a.bind(end);
        a.rts();
        let t = Template::from_asm(a).unwrap();

        let fast = factor(&t, &Bindings::new().with("mode", 0)).unwrap();
        // Expect: move #0,d1 ; move #111,d0 ; rts (tst folded, branch
        // resolved not-taken, slow path unreachable, bra-to-next dropped).
        assert!(
            fast.instrs.len() <= 4,
            "specialized fast path should shrink, got {:?}",
            fast.instrs
        );
        assert!(fast.instrs.contains(&Instr::Move(L, Imm(111), Dr(0))));
        assert!(!fast.instrs.contains(&Instr::Move(L, Imm(222), Dr(0))));

        let slow = factor(&t, &Bindings::new().with("mode", 1)).unwrap();
        assert!(slow.instrs.contains(&Instr::Move(L, Imm(222), Dr(0))));
        assert!(!slow.instrs.contains(&Instr::Move(L, Imm(111), Dr(0))));
    }

    #[test]
    fn constant_compare_folds() {
        let mut a = Asm::new("t");
        let n = a.imm_hole("n");
        let big = a.label();
        a.move_(L, n, Dr(2));
        a.cmp(L, Imm(100), Dr(2));
        a.bcc(quamachine::isa::Cond::Ge, big); // n >= 100?
        a.move_i(L, 1, Dr(0));
        a.rts();
        a.bind(big);
        a.move_i(L, 2, Dr(0));
        a.rts();
        let t = Template::from_asm(a).unwrap();

        let small = factor(&t, &Bindings::new().with("n", 5)).unwrap();
        assert!(small.instrs.contains(&Instr::Move(L, Imm(1), Dr(0))));
        assert!(!small.instrs.contains(&Instr::Move(L, Imm(2), Dr(0))));

        let large = factor(&t, &Bindings::new().with("n", 500)).unwrap();
        assert!(large.instrs.contains(&Instr::Move(L, Imm(2), Dr(0))));
        assert!(!large.instrs.contains(&Instr::Move(L, Imm(1), Dr(0))));
    }

    #[test]
    fn constant_register_reads_become_immediates() {
        let mut a = Asm::new("t");
        let x = a.imm_hole("x");
        a.move_(L, x, Dr(3));
        a.move_(L, Dr(3), Abs(0x2000));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = factor(&t, &Bindings::new().with("x", 7)).unwrap();
        assert!(out.instrs.contains(&Instr::Move(L, Imm(7), Abs(0x2000))));
    }

    /// `original` folded with nothing bound, and checked against the
    /// differential oracle.
    fn folded(original: &[Instr]) -> Vec<Instr> {
        let t = Template {
            name: "t".into(),
            instrs: original.to_vec(),
            holes: Vec::new(),
            marks: HashMap::new(),
        };
        let out = factor(&t, &Bindings::new()).unwrap().instrs;
        crate::equiv::diff_check(original, &out, &crate::equiv::DiffConfig::default())
            .expect("equivalent");
        out
    }

    #[test]
    fn a_register_written_by_any_instruction_is_no_longer_constant() {
        // `move.l #5,d0 ; <writes d0> ; move.l d0,$2000`: the store must
        // still read the register.
        let store = Instr::Move(L, Dr(0), Abs(0x2000));
        for writer in [
            Instr::MoveSr {
                to_sr: false,
                ea: Dr(0),
            },
            Instr::Tas(Dr(0)),
            Instr::Shift(quamachine::isa::ShiftKind::Lsl, L, Imm(1), Dr(0)),
        ] {
            let out = folded(&[Instr::Move(L, Imm(5), Dr(0)), writer, store, Instr::Rts]);
            assert_eq!(out[2], store, "folded through `{writer}`");
        }
    }

    /// The value and condition codes `propagate` assumes for each arm that
    /// computes — `move`, `add`, `sub`, `and`, `eor`, `cmp`, `tst`, through
    /// `flags_of_value`, `flags_of_add`, `flags_of_sub` and [`alu`] — equal
    /// what the interpreter leaves, at byte width, for every (destination,
    /// source) byte pair and all 32 entry values of X/N/Z/V/C. The fold does
    /// not model X (no `Bcc` reads it), so X is not compared. The
    /// destination's upper bytes hold a filler that a byte operation keeps
    /// and the fold never claims.
    #[test]
    fn the_fold_s_arms_agree_with_the_interpreter_exhaustively() {
        use quamachine::code::CodeBlock;
        use quamachine::cpu::sr_bits::{C, CCR, N, S, V, Z};
        use quamachine::isa::Size::B;
        use quamachine::machine::{Machine, MachineConfig};

        const CODE: u32 = 0x10_0000;
        const FILLER: u32 = 0xA5A5_A500;
        let (src, dst) = (Dr(0), Dr(1));
        let arms = [
            Instr::Move(B, src, dst),
            Instr::Add(B, src, dst),
            Instr::Sub(B, src, dst),
            Instr::And(B, src, dst),
            Instr::Eor(B, src, dst),
            Instr::Cmp(B, src, dst),
            Instr::Tst(B, dst),
        ];
        // The byte `dst` holds afterwards and its flags, as the fold sees them.
        let model = |ins: Instr, d: u32, s: u32| -> (u32, u16) {
            let (dv, sv) = (Val::Const(d), Val::Const(s));
            let (v, flags) = match ins {
                Instr::Move(..) => (s, Flags::OfValue(B, sv)),
                Instr::Cmp(..) => (d, Flags::OfSub(B, dv, sv)),
                Instr::Tst(..) => (d, Flags::OfValue(B, dv)),
                _ => {
                    let (v, f) = alu(ins, B, d, s);
                    (v, Flags::Known(f))
                }
            };
            let f = flags.force(&mut Resolver::none()).expect("known");
            let bit = |on: bool, b: u16| if on { b } else { 0 };
            (
                v & 0xFF,
                bit(f.n, N) | bit(f.z, Z) | bit(f.v, V) | bit(f.c, C),
            )
        };

        let mut m = Machine::new(MachineConfig::sun3_emulation());
        for (k, ins) in arms.into_iter().enumerate() {
            let at = CODE + 0x100 * k as u32;
            m.load_block(at, CodeBlock::new("arm", vec![ins, Instr::Halt]))
                .unwrap();
            for d in 0..=0xFFu32 {
                for s in 0..=0xFFu32 {
                    let (want, nzvc) = model(ins, d, s);
                    for ccr in 0..=CCR {
                        m.cpu = quamachine::cpu::Cpu::new();
                        m.cpu.sr = S | (7 << 8) | ccr;
                        m.cpu.d[0] = FILLER | s;
                        m.cpu.d[1] = FILLER | d;
                        m.cpu.pc = at;
                        assert!(matches!(m.step(), Ok(None)), "{ins}");
                        let got = (m.cpu.d[1], m.cpu.sr & (N | Z | V | C));
                        assert_eq!(
                            got,
                            (FILLER | want, nzvc),
                            "{ins}: dst {d:#04x}, src {s:#04x}, ccr {ccr:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adda_w_folds_on_the_whole_register() {
        // `adda.w`/`suba.w` sign-extend the source and work on all 32 bits
        // of An; folded at word width this stored 0xFFFF_8004.
        let out = folded(&[
            Instr::Lea(Abs(0x0001_8000), 0),
            Instr::Add(quamachine::isa::Size::W, Imm(4), Ar(0)),
            Instr::Move(L, Ar(0), Dr(0)),
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Rts,
        ]);
        assert_eq!(out[3], Instr::Move(L, Imm(0x0001_8004), Abs(0x2000)));
    }

    #[test]
    fn marks_survive_and_stay_reachable() {
        let mut a = Asm::new("t");
        a.move_i(L, 1, Dr(0));
        a.rts();
        a.mark("alt");
        a.move_i(L, 2, Dr(0));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = factor(&t, &Bindings::new()).unwrap();
        // The alt entry is only reachable via its mark; it must survive.
        assert_eq!(out.instrs.len(), 4);
        let alt = out.marks["alt"];
        assert_eq!(out.instrs[alt], Instr::Move(L, Imm(2), Dr(0)));
    }

    #[test]
    fn branch_targets_clear_known_state() {
        // d0 is constant on the fall-through path but the loop makes the
        // label a merge point: the branch must NOT fold.
        let mut a = Asm::new("t");
        a.move_i(L, 0, Dr(0));
        let top = a.here();
        a.add(L, Imm(1), Dr(0));
        a.cmp(L, Imm(10), Dr(0));
        a.bcc(quamachine::isa::Cond::Ne, top);
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = factor(&t, &Bindings::new()).unwrap();
        // The loop must remain intact.
        assert!(out
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Bcc(quamachine::isa::Cond::Ne, _))));
        assert_eq!(out.instrs.len(), t.instrs.len());
    }
}
