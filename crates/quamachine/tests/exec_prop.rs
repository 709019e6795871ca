//! Property tests: the executor's arithmetic agrees with host-side
//! reference semantics, including condition codes.

use proptest::prelude::*;
use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};

/// Run one ALU op with both operands in registers; return (result,
/// n, z, v, c).
fn run_alu(op: &str, size: Size, a_val: u32, b_val: u32) -> (u32, bool, bool, bool, bool) {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut a = Asm::new("alu");
    a.move_i(Size::L, a_val, Dr(0));
    a.move_i(Size::L, b_val, Dr(1));
    match op {
        "add" => a.add(size, Dr(0), Dr(1)),
        "sub" => a.sub(size, Dr(0), Dr(1)),
        "and" => a.and(size, Dr(0), Dr(1)),
        "eor" => a.eor(size, Dr(0), Dr(1)),
        "cmp" => a.cmp(size, Dr(0), Dr(1)),
        _ => unreachable!(),
    }
    a.halt();
    let e = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.cpu.pc = e;
    m.cpu.a[7] = 0x8000;
    assert_eq!(m.run(10_000), RunExit::Halted);
    (
        m.cpu.d[1],
        m.cpu.flag_n(),
        m.cpu.flag_z(),
        m.cpu.flag_v(),
        m.cpu.flag_c(),
    )
}

fn sizes() -> impl Strategy<Value = Size> {
    prop_oneof![Just(Size::B), Just(Size::W), Just(Size::L)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn add_matches_reference(size in sizes(), x in any::<u32>(), y in any::<u32>()) {
        let (r, n, z, v, c) = run_alu("add", size, x, y);
        let mask = size.mask();
        let (xs, ys) = (x & mask, y & mask);
        let expect = xs.wrapping_add(ys) & mask;
        prop_assert_eq!(r & mask, expect);
        prop_assert_eq!(z, expect == 0);
        prop_assert_eq!(n, expect & size.sign_bit() != 0);
        prop_assert_eq!(c, (u64::from(xs) + u64::from(ys)) > u64::from(mask));
        let sv = ((xs ^ expect) & (ys ^ expect) & size.sign_bit()) != 0;
        prop_assert_eq!(v, sv);
        // Upper destination bits must be preserved for sub-long sizes.
        if size != Size::L {
            prop_assert_eq!(r & !mask, y & !mask);
        }
    }

    #[test]
    fn sub_and_cmp_agree_on_flags(size in sizes(), x in any::<u32>(), y in any::<u32>()) {
        // SUB computes dst-src and writes; CMP computes the same flags
        // without writing.
        let (rs, n1, z1, v1, c1) = run_alu("sub", size, x, y);
        let (rc, n2, z2, v2, c2) = run_alu("cmp", size, x, y);
        prop_assert_eq!((n1, z1, v1, c1), (n2, z2, v2, c2));
        let mask = size.mask();
        prop_assert_eq!(rs & mask, (y & mask).wrapping_sub(x & mask) & mask);
        prop_assert_eq!(rc & mask, y & mask, "cmp does not write");
        prop_assert_eq!(c1, (x & mask) > (y & mask), "borrow");
    }

    #[test]
    fn logic_ops_match(size in sizes(), x in any::<u32>(), y in any::<u32>()) {
        let mask = size.mask();
        for (op, f) in [
            ("and", x & y),
            ("eor", x ^ y),
        ] {
            let (r, n, z, v, c) = run_alu(op, size, x, y);
            prop_assert_eq!(r & mask, f & mask, "{}", op);
            prop_assert_eq!(z, f & mask == 0);
            prop_assert_eq!(n, f & size.sign_bit() != 0);
            prop_assert!(!v && !c);
        }
    }

    #[test]
    fn shifts_match_reference(count in 1u32..31, x in any::<u32>()) {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut a = Asm::new("sh");
        a.move_i(Size::L, x, Dr(0));
        a.move_i(Size::L, x, Dr(1));
        a.move_i(Size::L, count, Dr(5));
        a.shift(ShiftKind::Lsl, Size::L, Dr(5), Dr(0));
        a.shift(ShiftKind::Lsr, Size::L, Dr(5), Dr(1));
        a.halt();
        let e = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
        m.cpu.pc = e;
        m.cpu.a[7] = 0x8000;
        assert_eq!(m.run(10_000), RunExit::Halted);
        prop_assert_eq!(m.cpu.d[0], x << count);
        prop_assert_eq!(m.cpu.d[1], x >> count);
    }

    #[test]
    fn conditional_branches_agree_with_cond_eval(x in any::<u32>(), y in any::<u32>()) {
        // After cmp x,y each condition's branch outcome must match
        // Cond::eval of the computed flags.
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Hi, Cond::Ls, Cond::Cc, Cond::Cs] {
            let mut m = Machine::new(MachineConfig::sun3_emulation());
            let mut a = Asm::new("br");
            a.move_i(Size::L, x, Dr(0));
            a.move_i(Size::L, y, Dr(1));
            a.cmp(Size::L, Dr(0), Dr(1));
            let taken = a.label();
            a.bcc(cond, taken);
            a.move_i(Size::L, 0, Dr(7));
            a.halt();
            a.bind(taken);
            a.move_i(Size::L, 1, Dr(7));
            a.halt();
            let e = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
            m.cpu.pc = e;
            m.cpu.a[7] = 0x8000;
            assert_eq!(m.run(10_000), RunExit::Halted);
            let (_, n, z, v, c) = run_alu("cmp", Size::L, x, y);
            prop_assert_eq!(m.cpu.d[7] == 1, cond.eval(n, z, v, c), "{:?}", cond);
        }
    }
}
