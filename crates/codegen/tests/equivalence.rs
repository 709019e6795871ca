//! Property tests: synthesis must never change what the code computes.
//!
//! Random straight-line programs over data registers (with hole-driven
//! constants) are synthesized with full optimization and with none; both
//! versions run on the machine and must leave identical data registers —
//! while the optimized version must never execute more cycles.

use proptest::prelude::*;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand, ShiftKind, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};
use synthesis_codegen::creator::{QuajectCreator, SynthesisOptions};
use synthesis_codegen::template::{Bindings, Template};

/// One random straight-line operation.
#[derive(Debug, Clone)]
enum Op {
    MoveImm(u32, u8),
    MoveHole(usize, u8),
    MoveReg(u8, u8),
    Add(u8, u8),
    AddImm(u32, u8),
    Sub(u8, u8),
    And(u8, u8),
    Eor(u8, u8),
    Lsl(u8, u8),
    Lsr(u8, u8),
    CmpBlt(u8, u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 0u8..8;
    prop_oneof![
        (any::<u32>(), r.clone()).prop_map(|(v, d)| Op::MoveImm(v, d)),
        (0usize..4, r.clone()).prop_map(|(h, d)| Op::MoveHole(h, d)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Op::MoveReg(s, d)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Op::Add(s, d)),
        (any::<u32>(), r.clone()).prop_map(|(v, d)| Op::AddImm(v, d)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Op::Sub(s, d)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Op::And(s, d)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Op::Eor(s, d)),
        (1u8..9, r.clone()).prop_map(|(c, d)| Op::Lsl(c, d)),
        (1u8..9, r.clone()).prop_map(|(c, d)| Op::Lsr(c, d)),
        (r.clone(), r.clone(), r).prop_map(|(a, b, d)| Op::CmpBlt(a, b, d)),
    ]
}

fn build_template(ops: &[Op]) -> Template {
    let mut a = Asm::new("prop");
    let holes: Vec<Operand> = (0..4).map(|i| a.imm_hole(format!("h{i}"))).collect();
    use Operand::*;
    use Size::L;
    for op in ops {
        match *op {
            Op::MoveImm(v, d) => a.move_i(L, v, Dr(d)),
            Op::MoveHole(h, d) => a.move_(L, holes[h], Dr(d)),
            Op::MoveReg(s, d) => a.move_(L, Dr(s), Dr(d)),
            Op::Add(s, d) => a.add(L, Dr(s), Dr(d)),
            Op::AddImm(v, d) => a.add(L, Imm(v), Dr(d)),
            Op::Sub(s, d) => a.sub(L, Dr(s), Dr(d)),
            Op::And(s, d) => a.and(L, Dr(s), Dr(d)),
            Op::Eor(s, d) => a.eor(L, Dr(s), Dr(d)),
            Op::Lsl(c, d) => a.shift(ShiftKind::Lsl, L, Imm(u32::from(c)), Dr(d)),
            Op::Lsr(c, d) => a.shift(ShiftKind::Lsr, L, Imm(u32::from(c)), Dr(d)),
            Op::CmpBlt(s, d, t) => {
                // `dt` = -1 unless `ds` < `dd`, signed.
                let less = a.label();
                a.cmp(L, Dr(s), Dr(d));
                a.bcc(Cond::Lt, less);
                a.move_i(L, u32::MAX, Dr(t));
                a.bind(less);
            }
        }
    }
    a.halt();
    Template::from_asm(a).unwrap()
}

/// Run a synthesized program; return final data registers and cycles.
fn run_synth(t: &Template, binds: &[u32; 4], opts: SynthesisOptions) -> ([u32; 8], u64) {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut c = QuajectCreator::new(0x10_0000, 0x10_0000);
    let mut b = Bindings::new();
    for (i, v) in binds.iter().enumerate() {
        b.bind(format!("h{i}"), *v);
    }
    let s = c.synthesize_template(&mut m, t, &b, opts).unwrap();
    m.cpu.pc = s.base;
    m.cpu.a[7] = 0x8000;
    let start = m.meter.cycles;
    assert_eq!(m.run(10_000_000), RunExit::Halted);
    (m.cpu.d, m.meter.cycles - start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimization_preserves_register_results(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        binds in proptest::array::uniform4(any::<u32>()),
    ) {
        let t = build_template(&ops);
        let (regs_full, cycles_full) = run_synth(&t, &binds, SynthesisOptions::full());
        let (regs_none, cycles_none) = run_synth(&t, &binds, SynthesisOptions::none());
        prop_assert_eq!(regs_full, regs_none, "optimized code computed different results");
        prop_assert!(
            cycles_full <= cycles_none,
            "optimization made the code slower: {} > {}",
            cycles_full,
            cycles_none
        );
    }

    #[test]
    fn factoring_is_idempotent(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        binds in proptest::array::uniform4(any::<u32>()),
    ) {
        let t = build_template(&ops);
        let mut b = Bindings::new();
        for (i, v) in binds.iter().enumerate() {
            b.bind(format!("h{i}"), *v);
        }
        let once = synthesis_codegen::factor::factor(&t, &b).unwrap();
        let twice = synthesis_codegen::factor::factor(&once, &Bindings::new()).unwrap();
        prop_assert_eq!(once.instrs, twice.instrs, "factoring must be a fixpoint");
    }
}
