//! The plan memo against the pipeline it memoizes.
//!
//! `QuajectCreator::synthesize` compiles a template once, holes in place,
//! and afterwards only fills holes — on the argument that the passes can
//! see a binding only through the `Resolver`, so bindings that agree on
//! its read log get the same code. Debug builds re-run the pipeline on
//! every plan hit and assert that; this file is the check that also
//! runs in `--release`: what the creator installs is, instruction for
//! instruction, what substitute-first `collapse → factor → peephole`
//! produces through the public stage functions.

use std::collections::HashMap;
use std::sync::Arc;

use quamachine::asm::Asm;
use quamachine::devices::DEV_BASE;
use quamachine::isa::{encode, Cond, Instr, Operand::*, Size::L};
use quamachine::machine::{Machine, MachineConfig};
use synthesis_codegen::creator::{QuajectCreator, SynthError, SynthesisOptions};
use synthesis_codegen::factor::{self, FactorError};
use synthesis_codegen::template::{Bindings, Template, TemplateLib, PLAN_CAP};
use synthesis_codegen::{collapse, peephole};

fn machine() -> Machine {
    Machine::new(MachineConfig::sun3_emulation())
}

fn creator() -> QuajectCreator {
    QuajectCreator::new(0x10_0000, 0x10_0000)
}

/// `t` as the pipeline sees it under `opts`: call sites inlined, or not.
fn staged(t: &Template, lib: &TemplateLib, opts: SynthesisOptions) -> Template {
    if opts.collapse && !t.call_sites().is_empty() {
        collapse::collapse(t, lib).unwrap()
    } else {
        t.clone()
    }
}

/// The reference: fill every hole first, then run the stages `opts`
/// selects on the hole-free stream.
fn substitute_first(
    t: &Template,
    lib: &TemplateLib,
    b: &Bindings,
    opts: SynthesisOptions,
) -> (Vec<Instr>, HashMap<String, usize>) {
    let work = staged(t, lib, opts);
    let (mut instrs, mut marks) = if opts.fold {
        let f = factor::factor(&work, b).unwrap();
        (f.instrs, f.marks)
    } else {
        (factor::substitute(&work, b).unwrap(), work.marks)
    };
    if opts.peephole {
        instrs = peephole::optimize(instrs, &mut marks);
    }
    (instrs, marks)
}

/// Synthesize through the creator and require the installed block to be
/// the reference's, instruction for instruction, with the same entries
/// and size — its name, offsets and entry table shared with a kept plan,
/// not copied; then free it.
fn assert_installs_the_reference(
    c: &mut QuajectCreator,
    m: &mut Machine,
    name: &str,
    b: &Bindings,
    opts: SynthesisOptions,
) {
    let (want, marks) = substitute_first(c.lib.get(name).unwrap(), &c.lib, b, opts);
    let s = c
        .synthesize(m, name, b, opts)
        .unwrap_or_else(|e| panic!("{name} {opts:?} {b:?}: {e}"));
    let block = m.code.block(s.base).unwrap();
    assert_eq!(block.instrs, want, "{name} {opts:?} {b:?}");
    let offsets = encode::offsets(&want);
    assert_eq!(s.size, offsets[want.len()], "{name}: size");
    let mut entries: Vec<(String, u32)> = marks
        .into_iter()
        .map(|(mark, idx)| (mark, offsets[idx]))
        .collect();
    entries.sort();
    assert_eq!(*s.entries, *entries, "{name}: entries");
    for (mark, off) in &entries {
        assert_eq!(s.entry(mark), Some(s.base + off), "{name}: entry {mark}");
    }
    assert!(
        c.lib
            .plans(name)
            .iter()
            .any(|p| Arc::ptr_eq(&p.name, &block.name)
                && Arc::ptr_eq(p.offsets(), &block.offsets)
                && Arc::ptr_eq(p.entries(), &s.entries)),
        "{name}: the block shares its plan's name, offsets and entries"
    );
    c.destroy(m, &s);
}

/// Binding vectors over `holes`: every hole the same value (0, 1, −1, a
/// device register, an ordinary address — so any two holes share an
/// address), all distinct, and rotations of a mix of those with powers
/// of two.
fn binding_vectors(holes: &[String]) -> Vec<Bindings> {
    let dev = DEV_BASE + 0x10C;
    let bind = |f: &dyn Fn(usize) -> u32| {
        let mut b = Bindings::new();
        for (i, h) in holes.iter().enumerate() {
            b.bind(h.clone(), f(i));
        }
        b
    };
    let mut out: Vec<Bindings> = [0, 1, u32::MAX, dev, 0x2000]
        .into_iter()
        .map(|v| bind(&|_| v))
        .collect();
    out.push(bind(&|i| 0x2000 + 8 * i as u32));
    let mix = [0, 8, u32::MAX, dev, 0x2000, 1, 0x8000, 0x2000, 3];
    for rot in 0..mix.len() {
        out.push(bind(&|i| mix[(i + rot) % mix.len()]));
    }
    out
}

#[test]
fn every_kernel_template_installs_what_substitute_first_produces() {
    let mut m = machine();
    let mut c = creator();
    synthesis_core::templates::install_all(&mut c.lib);
    let mut names: Vec<String> = c.lib.templates().map(|t| t.name.to_string()).collect();
    names.sort();
    assert!(names.len() >= 41);
    let switches = [false, true];
    for name in &names {
        for (collapse, fold, peephole) in switches
            .iter()
            .flat_map(|&c| switches.iter().map(move |&f| (c, f)))
            .flat_map(|(c, f)| switches.iter().map(move |&p| (c, f, p)))
        {
            let opts = SynthesisOptions {
                collapse,
                fold,
                peephole,
            };
            let holes = staged(c.lib.get(name).unwrap(), &c.lib, opts).holes;
            for b in binding_vectors(&holes) {
                assert_installs_the_reference(&mut c, &mut m, name, &b, opts);
            }
        }
    }
    // The memo did the work: far fewer compiles than syntheses, and the
    // hot per-thread templates never looked at a binding.
    assert!(c.stats.plan_hits > c.stats.plans_compiled);
    for name in ["sw_basic", "dispatch_trap1", "dispatch_trap2", "trap_error"] {
        for p in c.lib.plans(name) {
            assert_eq!(p.logged().count(), 0, "{name} logged a hole");
        }
    }
    assert_eq!(c.codebuf.in_use, 0);
}

#[test]
fn every_test_that_reads_a_hole_matches_the_reference() {
    // One of each: a folded add and a sign-extending `movea.w` (fold), and
    // the peephole's `#0` test.
    let mut a = Asm::new("reads");
    let (k, z, w) = (a.imm_hole("k"), a.imm_hole("z"), a.imm_hole("w"));
    let out = a.abs_hole("out");
    a.move_i(L, 3, Dr(0));
    a.add(L, k, Dr(0)); // both sides known: folded, `k` read
    a.move_(L, Dr(0), out);
    a.move_(quamachine::isa::Size::W, w, Ar(2)); // sign-extends `w`
    a.move_(L, Ar(2), Dr(5));
    a.cmp(L, z, Dr(2)); // #0 → tst
    a.halt();
    let mut m = machine();
    let mut c = creator();
    c.lib.add(Template::from_asm(a).unwrap());
    let values = [0, 1, 8, 6, 0x9000, 0x2000, DEV_BASE + 4];
    for (i, &k) in values.iter().enumerate() {
        for (j, &z) in values.iter().enumerate() {
            let b = Bindings::new()
                .with("k", k)
                .with("z", z)
                .with("w", values[(i + 3 * j) % values.len()])
                .with("out", 0x4000);
            for opts in [SynthesisOptions::full(), SynthesisOptions::none()] {
                assert_installs_the_reference(&mut c, &mut m, "reads", &b, opts);
            }
        }
    }
    let mut logged: Vec<&str> = c
        .lib
        .plans("reads")
        .iter()
        .flat_map(|p| p.logged())
        .map(|(h, _)| h)
        .collect();
    logged.sort_unstable();
    logged.dedup();
    assert_eq!(logged, ["k", "w", "z"], "`out` is only carried");
    assert!(c.stats.plan_hits > 0);
}

/// `modal` of the creator's unit tests plus a hole `x` that is only
/// carried: `mode` picks which of two stores of `x` survives.
fn modal() -> Template {
    let mut a = Asm::new("modal");
    let mode = a.imm_hole("mode");
    let x = a.imm_hole("x");
    let slow = a.label();
    a.move_(L, mode, Dr(1));
    a.tst(L, Dr(1));
    a.bcc(Cond::Ne, slow);
    a.move_(L, x, Dr(0));
    a.halt();
    a.bind(slow);
    a.move_(L, x, Dr(2));
    a.halt();
    Template::from_asm(a).unwrap()
}

#[test]
fn a_decision_hole_splits_plans_and_a_carried_hole_never_does() {
    let mut m = machine();
    let mut c = creator();
    c.lib.add(modal());
    let opts = SynthesisOptions::full();
    for mode in [0, 1, 0, 1] {
        for x in [0, 7, u32::MAX, DEV_BASE] {
            let b = Bindings::new().with("mode", mode).with("x", x);
            assert_installs_the_reference(&mut c, &mut m, "modal", &b, opts);
        }
    }
    let plans = c.lib.plans("modal");
    assert_eq!(plans.len(), 2, "one plan per value of `mode`");
    assert_eq!(c.stats.plans_compiled, 2);
    assert_eq!(c.stats.plan_hits, 14);
    let logs: Vec<Vec<(&str, u32)>> = plans.iter().map(|p| p.logged().collect()).collect();
    assert_eq!(logs, [vec![("mode", 0)], vec![("mode", 1)]]);
}

#[test]
fn a_thousand_threads_compile_one_switch() {
    let mut m = machine();
    let mut c = creator();
    synthesis_core::templates::install_all(&mut c.lib);
    for i in 0..1000u32 {
        let tte = 0x2_0000 + 0x400 * i;
        let mut b = Bindings::new();
        b.bind("save", tte)
            .bind("usp_slot", tte + 0x3C)
            .bind("ssp_slot", tte + 0x40)
            .bind("vt", 0x80_0000 + 0x400 * i)
            .bind("quantum", 200)
            .bind("timer_qreg", DEV_BASE + 0x108)
            .bind("timer_ack", DEV_BASE + 0x10C)
            .bind("tid", i)
            .bind("next", 0);
        if i % 100 == 0 {
            assert_installs_the_reference(&mut c, &mut m, "sw_basic", &b, SynthesisOptions::full());
        } else {
            let s = c
                .synthesize(&mut m, "sw_basic", &b, SynthesisOptions::full())
                .unwrap();
            c.destroy(&mut m, &s);
        }
    }
    assert_eq!(c.stats.plans_compiled, 1);
    assert_eq!(c.stats.plan_hits, 999);
    assert_eq!(c.lib.plans("sw_basic").len(), 1);
}

fn leaf(k: u32) -> Template {
    let mut a = Asm::new("leaf");
    a.add(L, Imm(k), Dr(0));
    a.rts();
    Template::from_asm(a).unwrap()
}

#[test]
fn adding_a_template_drops_every_plan() {
    let mut m = machine();
    let mut c = creator();
    c.lib.add(leaf(7));
    let mut outer = Asm::new("outer");
    let call = outer.abs_hole(Template::call_hole_name("leaf"));
    outer.jsr(call);
    outer.halt();
    c.lib.add(Template::from_asm(outer).unwrap());
    let (b, opts) = (Bindings::new(), SynthesisOptions::full());

    assert_installs_the_reference(&mut c, &mut m, "outer", &b, opts);
    assert_installs_the_reference(&mut c, &mut m, "leaf", &b, opts);
    assert_eq!(
        (c.lib.plans("outer").len(), c.lib.plans("leaf").len()),
        (1, 1)
    );

    // Replacing the collapsed callee: the caller's plan inlined the old
    // body, so it must go — and the next synthesis shows the new one.
    c.lib.add(leaf(9));
    assert!(c.lib.plans("outer").is_empty() && c.lib.plans("leaf").is_empty());
    let s = c.synthesize(&mut m, "outer", &b, opts).unwrap();
    let block = &m.code.block(s.base).unwrap().instrs;
    assert!(block.contains(&Instr::Add(L, Imm(9), Dr(0))), "{block:?}");
    assert_eq!(c.stats.plans_compiled, 3);

    // Adding an unrelated template invalidates too (one rule, no graph).
    c.lib.add(modal());
    assert!(c.lib.plans("outer").is_empty());
}

#[test]
fn the_cap_holds_under_an_unbounded_decision_hole() {
    // `n` feeds a compare the fold resolves: every value is a new log.
    let mut a = Asm::new("sized");
    let n = a.imm_hole("n");
    let big = a.label();
    a.move_(L, n, Dr(2));
    a.cmp(L, Imm(100), Dr(2));
    a.bcc(Cond::Ge, big);
    a.move_i(L, 1, Dr(0));
    a.halt();
    a.bind(big);
    a.move_i(L, 2, Dr(0));
    a.halt();
    let mut m = machine();
    let mut c = creator();
    c.lib.add(Template::from_asm(a).unwrap());
    let opts = SynthesisOptions::full();
    for n in 0..200 {
        let b = Bindings::new().with("n", n);
        assert_installs_the_reference(&mut c, &mut m, "sized", &b, opts);
        assert!(c.lib.plans("sized").len() <= PLAN_CAP);
    }
    assert_eq!(c.lib.plans("sized").len(), PLAN_CAP);
    assert_eq!(c.stats.plans_compiled, 200);
    // Oldest out: what is kept is the last PLAN_CAP values.
    let kept: Vec<u32> = c
        .lib
        .plans("sized")
        .iter()
        .map(|p| p.logged().next().unwrap().1)
        .collect();
    assert_eq!(kept, (200 - PLAN_CAP as u32..200).collect::<Vec<_>>());
}

#[test]
fn a_missing_binding_is_an_error_even_where_the_fold_prunes_its_use() {
    let missing = |r: Result<_, SynthError>| match r {
        Err(SynthError::Factor(FactorError::MissingBinding(h))) => h,
        other => panic!("expected a missing binding, got {other:?}"),
    };
    let opts = SynthesisOptions::full();
    // `y` is used only on the path `mode = 0` prunes.
    let mut a = Asm::new("t");
    let mode = a.imm_hole("mode");
    let y = a.imm_hole("y");
    let slow = a.label();
    a.move_(L, mode, Dr(1));
    a.tst(L, Dr(1));
    a.bcc(Cond::Ne, slow);
    a.halt();
    a.bind(slow);
    a.move_(L, y, Dr(2));
    a.halt();
    let t = Template::from_asm(a).unwrap();
    let without_y = Bindings::new().with("mode", 0);
    assert_eq!(
        factor::factor(&t, &without_y).unwrap_err(),
        FactorError::MissingBinding("y".into()),
        "the reference"
    );

    let mut m = machine();
    let mut c = creator();
    c.lib.add(t);
    // Compiling: no plan yet.
    assert_eq!(missing(c.synthesize(&mut m, "t", &without_y, opts)), "y");
    assert!(c.lib.plans("t").is_empty());
    // Instantiating: a plan for `mode = 0` exists, and `y` is not in it.
    let s = c
        .synthesize(&mut m, "t", &without_y.clone().with("y", 5), opts)
        .unwrap();
    let block = &m.code.block(s.base).unwrap().instrs;
    assert!(
        !block.contains(&Instr::Move(L, Imm(5), Dr(2))),
        "the use of `y` was pruned: {block:?}"
    );
    assert_eq!(missing(c.synthesize(&mut m, "t", &without_y, opts)), "y");
    // The first unbound hole in instruction order is the one named.
    assert_eq!(
        missing(c.synthesize(&mut m, "t", &Bindings::new(), opts)),
        "mode"
    );
    assert_eq!(c.stats.plans_compiled, 1);
}
