//! Integration tests for the Quamachine executor: whole programs running
//! through the fetch/execute loop, exceptions, interrupts, and devices.

use quamachine::asm::Asm;
use quamachine::cost::{EXCEPTION_BASE, EXCEPTION_REFS};
use quamachine::devices::timer::{Timer, REG_ALARM_US, REG_QUANTUM_US};
use quamachine::devices::tty::{Tty, CTRL_RX_IRQ, REG_CTRL, REG_DATA};
use quamachine::devices::{dev_reg_addr, DevCtx};
use quamachine::error::{Exception, MachineError};
use quamachine::isa::{Cond, FpRegList, IndexSpec, Operand::*, RegList, ShiftKind, Size::*};
use quamachine::machine::{Machine, MachineConfig, RunExit};

fn machine() -> Machine {
    Machine::new(MachineConfig::sun3_emulation())
}

/// Load a program at 0x1000, point the PC at it, run to halt.
fn run_program(m: &mut Machine, asm: Asm) -> RunExit {
    let entry = m.load_block(0x1000, asm.assemble().unwrap()).unwrap();
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000; // supervisor stack
    m.run(1_000_000)
}

#[test]
fn arithmetic_and_flags() {
    let mut m = machine();
    let mut a = Asm::new("arith");
    a.move_i(L, 10, Dr(0));
    a.add(L, Imm(32), Dr(0)); // 42
    a.sub(L, Imm(2), Dr(0)); // 40
    a.move_(L, Dr(0), Dr(1));
    a.add(L, Dr(0), Dr(1));
    a.add(L, Dr(0), Dr(1)); // 120
    a.halt();
    assert_eq!(run_program(&mut m, a), RunExit::Halted);
    assert_eq!(m.cpu.d[0], 40);
    assert_eq!(m.cpu.d[1], 120);
}

#[test]
fn memory_roundtrip_and_sizes() {
    let mut m = machine();
    let mut a = Asm::new("mem");
    a.move_i(L, 0xDEADBEEF, Abs(0x2000));
    a.move_(W, Abs(0x2000), Dr(0)); // high word: 0xDEAD
    a.move_(B, Abs(0x2003), Dr(1)); // last byte: 0xEF
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[0] & 0xFFFF, 0xDEAD);
    assert_eq!(m.cpu.d[1] & 0xFF, 0xEF);
    assert_eq!(m.mem.peek(0x2000, L), 0xDEADBEEF);
}

#[test]
fn dbf_loop_block_copy() {
    // Classic unrolled-free copy loop: copy 16 longs with (a0)+ -> (a1)+.
    let mut m = machine();
    for i in 0..16u32 {
        m.mem.poke(0x2000 + i * 4, L, 0x1111_0000 + i);
    }
    let mut a = Asm::new("copy");
    a.lea(Abs(0x2000), 0);
    a.lea(Abs(0x3000), 1);
    a.move_i(W, 15, Dr(0)); // dbf counts N+1
    let top = a.here();
    a.move_(L, PostInc(0), PostInc(1));
    a.dbf(0, top);
    a.halt();
    run_program(&mut m, a);
    for i in 0..16u32 {
        assert_eq!(m.mem.peek(0x3000 + i * 4, L), 0x1111_0000 + i);
    }
    assert_eq!(m.cpu.a[0], 0x2040);
    assert_eq!(m.cpu.a[1], 0x3040);
}

#[test]
fn indexed_addressing() {
    let mut m = machine();
    m.mem.poke(0x2000 + 5 * 4, L, 777);
    let mut a = Asm::new("idx");
    a.lea(Abs(0x2000), 0);
    a.move_i(L, 5, Dr(1));
    a.move_(L, Idx(0, 0, IndexSpec::d(1, 4)), Dr(2));
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[2], 777);
}

#[test]
fn jsr_rts_nesting() {
    let mut m = machine();
    // Subroutine at 0x4000: d0 += 7; rts.
    let mut sub = Asm::new("sub7");
    sub.add(L, Imm(7), Dr(0));
    sub.rts();
    m.load_block(0x4000, sub.assemble().unwrap()).unwrap();

    let mut a = Asm::new("main");
    a.move_i(L, 0, Dr(0));
    a.jsr(Abs(0x4000));
    a.jsr(Abs(0x4000));
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[0], 14);
    assert_eq!(m.cpu.a[7], 0x8000, "stack balanced");
}

#[test]
fn jmp_through_register_is_indirect() {
    let mut m = machine();
    let mut tgt = Asm::new("tgt");
    tgt.move_i(L, 99, Dr(3));
    tgt.halt();
    m.load_block(0x5000, tgt.assemble().unwrap()).unwrap();

    let mut a = Asm::new("main");
    a.lea(Abs(0x5000), 0);
    a.jmp(Ind(0));
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[3], 99);
}

#[test]
fn trap_vectors_through_vbr_and_rte_returns() {
    let mut m = machine();
    // Handler at 0x6000: d5 = 1234; rte.
    let mut h = Asm::new("trap0");
    h.move_i(L, 1234, Dr(5));
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    // Vector table at 0x100: vector 32 (trap #0) -> 0x6000.
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 32, L, 0x6000);

    let mut a = Asm::new("main");
    a.trap(0);
    a.move_i(L, 1, Dr(6)); // must run after rte
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[5], 1234);
    assert_eq!(m.cpu.d[6], 1);
    assert_eq!(m.meter.exception_count, 1);
}

#[test]
fn user_mode_privilege_violation_vectors() {
    let mut m = machine();
    // Privilege-violation handler (vector 8): d7 = 0xBAD; halt.
    let mut h = Asm::new("priv");
    h.move_i(L, 0xBAD, Dr(7));
    h.halt();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 8, L, 0x6000);

    // User program tries a privileged stop.
    let mut a = Asm::new("user");
    a.stop(0);
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    // Map a user window over the code area (code fetches are not checked,
    // but the user stack needs supervisor push later, which is exempt).
    m.mem.map = quamachine::mem::AddressMap::single(1, 0x0000, 0x10000);
    m.cpu.a[7] = 0x8000; // SSP while still supervisor
    m.cpu.pc = entry;
    // Drop to user mode: write SR with S clear.
    m.cpu.write_sr(0);
    m.cpu.set_usp(0x7000);
    // a7 is now USP (0). Fix it.
    m.cpu.a[7] = 0x7000;
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 0xBAD);
}

#[test]
fn bus_error_on_unmapped_user_access() {
    let mut m = machine();
    let mut h = Asm::new("buserr");
    h.move_i(L, 0xFA17, Dr(7));
    h.halt();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 2, L, 0x6000);

    let mut a = Asm::new("user");
    a.move_(L, Abs(0x20000), Dr(0)); // outside the window
    a.halt();
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.mem.map = quamachine::mem::AddressMap::single(1, 0x0000, 0x10000);
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000;
    m.cpu.write_sr(0);
    m.cpu.a[7] = 0x7000;
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 0xFA17);
}

#[test]
fn fp_unavailable_trap_enables_lazy_fpu() {
    let mut m = machine();
    // Handler: enable FPU cannot be done from guest code — model the
    // kernel doing it host-side at the kcall. Here the handler issues
    // kcall #9; the host enables the FPU and resumes; rte retries the
    // faulting instruction.
    let mut h = Asm::new("fptrap");
    h.kcall(9);
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 11, L, 0x6000);
    m.mem.poke(0x2000, L, 0x40450000); // 42.0 f64 high word
    m.mem.poke(0x2004, L, 0);

    let mut a = Asm::new("main");
    a.fmove_load(Abs(0x2000), 0);
    a.halt();
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000;
    // First run: fault -> handler -> kcall.
    match m.run(100_000) {
        RunExit::KCall(9) => m.cpu.fpu_enabled = true,
        other => panic!("expected kcall, got {other:?}"),
    }
    // Resume: rte re-executes the fmove, which now succeeds.
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert!((m.cpu.fp[0] - 42.0).abs() < 1e-12);
}

/// The FPU bit follows the thread: a `movec` to the VBR takes it away, a
/// supervisor `fmovem` runs without it, and an `fmovem` load gives it back.
#[test]
fn a_vbr_write_disables_the_fpu_and_an_fmovem_load_enables_it() {
    let mut m = machine();
    m.cpu.fpu_enabled = true;
    let mut a = Asm::new("switch_in");
    a.move_to_vbr(Imm(0x100));
    a.halt();
    assert_eq!(run_program(&mut m, a), RunExit::Halted);
    assert!(!m.cpu.fpu_enabled, "movec to the VBR");

    let mut m = machine();
    m.mem.poke(0x2000, L, 0x4045_0000); // 42.0
    let mut a = Asm::new("fp_switch_in");
    a.fmovem_save(FpRegList::ALL, Abs(0x3000));
    a.fmovem_load(Abs(0x2000), FpRegList(1));
    a.halt();
    assert_eq!(run_program(&mut m, a), RunExit::Halted);
    assert!(m.cpu.fpu_enabled, "fmovem load");
    assert_eq!(m.cpu.fp[0], 42.0);
}

/// `exception_to` enters a handler as an exception would, from user mode
/// too: the frame goes on the supervisor stack, S is set, every interrupt
/// is masked, and it costs exception processing.
#[test]
fn exception_to_pushes_a_masked_frame_on_the_supervisor_stack() {
    let mut m = machine();
    m.cpu.a[7] = 0x8000; // SSP
    m.cpu.write_sr(0x0004); // user mode, mask 0, Z
    m.cpu.a[7] = 0x6000; // USP
    m.cpu.pc = 0x1234;
    let (c0, e0) = (m.meter.cycles, m.meter.exception_count);
    m.exception_to(0x4000).unwrap();
    assert_eq!(m.cpu.pc, 0x4000);
    assert!(m.cpu.supervisor());
    assert_eq!(m.cpu.int_mask(), 7);
    assert_eq!(m.cpu.a[7], 0x8000 - 6, "on the supervisor stack");
    assert_eq!(m.cpu.usp(), 0x6000, "the user stack untouched");
    assert_eq!(m.mem.peek(0x8000 - 6, W), 0x0004, "the old SR");
    assert_eq!(m.mem.peek(0x8000 - 4, L), 0x1234, "the PC to resume at");
    let bus = m.cost.bus_cycles();
    assert_eq!(m.meter.cycles - c0, EXCEPTION_BASE + EXCEPTION_REFS * bus);
    assert_eq!(m.meter.exception_count - e0, 1);
}

#[test]
fn cas_success_and_failure() {
    let mut m = machine();
    m.mem.poke(0x2000, L, 5);
    let mut a = Asm::new("cas");
    // Success: expect 5, swap in 9.
    a.move_i(L, 5, Dr(0));
    a.move_i(L, 9, Dr(1));
    // d2 / d3 = 0xFF where Z says the swap happened.
    let read_z = |a: &mut Asm, dn: u8| {
        let failed = a.label();
        a.bcc(Cond::Ne, failed);
        a.move_i(L, 0xFF, Dr(dn));
        a.bind(failed);
    };
    a.cas(L, 0, 1, Abs(0x2000));
    read_z(&mut a, 2);
    // Failure: expect 5 again (memory is now 9) -> d0 loaded with 9.
    a.move_i(L, 5, Dr(0));
    a.cas(L, 0, 1, Abs(0x2000));
    read_z(&mut a, 3);
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.mem.peek(0x2000, L), 9);
    assert_eq!(m.cpu.d[2] & 0xFF, 0xFF);
    assert_eq!(m.cpu.d[3] & 0xFF, 0x00);
    assert_eq!(m.cpu.d[0], 9, "failed cas loads the current value");
}

#[test]
fn movem_saves_and_restores() {
    let mut m = machine();
    let mut a = Asm::new("movem");
    a.move_i(L, 11, Dr(0));
    a.move_i(L, 22, Dr(1));
    a.lea(Abs(0x2000), 0);
    // Save d0-d1/a0 to 0x3000.
    a.movem_save(
        RegList::d(0).with(RegList::d(1)).with(RegList::a(0)),
        Abs(0x3000),
    );
    a.move_i(L, 0, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.lea(Abs(0), 0);
    a.movem_load(
        Abs(0x3000),
        RegList::d(0).with(RegList::d(1)).with(RegList::a(0)),
    );
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[0], 11);
    assert_eq!(m.cpu.d[1], 22);
    assert_eq!(m.cpu.a[0], 0x2000);
}

#[test]
fn movem_predec_postinc_stack_discipline() {
    let mut m = machine();
    let mut a = Asm::new("stack");
    a.move_i(L, 0xAA, Dr(0));
    a.move_i(L, 0xBB, Dr(1));
    a.movem_save(RegList::d(0).with(RegList::d(1)), PreDec(7));
    a.move_i(L, 0, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.movem_load(PostInc(7), RegList::d(0).with(RegList::d(1)));
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[0], 0xAA);
    assert_eq!(m.cpu.d[1], 0xBB);
    assert_eq!(m.cpu.a[7], 0x8000);
}

#[test]
fn shifts() {
    let mut m = machine();
    let mut a = Asm::new("shifts");
    a.move_i(L, 1, Dr(0));
    a.shift(ShiftKind::Lsl, L, Imm(4), Dr(0)); // 16
    a.move_i(L, 0x80, Dr(1));
    a.shift(ShiftKind::Lsr, L, Imm(3), Dr(1)); // 16
    a.move_i(L, 0xFFFF_FF00, Dr(2));
    a.shift(ShiftKind::Ror, L, Imm(4), Dr(2)); // the low nibble comes round
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[0], 16);
    assert_eq!(m.cpu.d[1], 16);
    assert_eq!(m.cpu.d[2], 0x0FFF_FFF0);
}

#[test]
fn timer_quantum_interrupt_preempts() {
    let mut m = machine();
    let timer_idx = m.attach_device(Box::new(Timer::new(6)));
    // IRQ handler: count in d7, ack timer, rte.
    let mut h = Asm::new("tick");
    h.add(L, Imm(1), Dr(7));
    h.move_i(
        L,
        0,
        Abs(dev_reg_addr(timer_idx, quamachine::devices::timer::REG_ACK)),
    );
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * (24 + 6), L, 0x6000);

    // Main: program 100 µs quantum, open interrupts, spin.
    let mut a = Asm::new("main");
    a.move_i(L, 100, Abs(dev_reg_addr(timer_idx, REG_QUANTUM_US)));
    a.move_to_sr(Imm(0x2000)); // supervisor, mask 0
    let spin = a.here();
    a.cmp(L, Imm(5), Dr(7));
    a.bcc(Cond::Ne, spin);
    a.halt();
    assert_eq!(run_program(&mut m, a), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 5);
    let t: &mut Timer = m.device_mut(timer_idx).unwrap();
    assert!(t.quantum_fires >= 5);
    // Five quanta of 100 µs each: virtual time should be a bit over 500 µs.
    assert!(
        m.now_us() > 500.0 && m.now_us() < 700.0,
        "t = {}",
        m.now_us()
    );
}

#[test]
fn stop_sleeps_until_alarm() {
    let mut m = machine();
    let timer_idx = m.attach_device(Box::new(Timer::new(6)));
    let mut h = Asm::new("alarm");
    h.move_i(L, 1, Dr(7));
    h.move_i(
        L,
        0,
        Abs(dev_reg_addr(timer_idx, quamachine::devices::timer::REG_ACK)),
    );
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * (24 + 6), L, 0x6000);

    let mut a = Asm::new("main");
    a.move_i(L, 250, Abs(dev_reg_addr(timer_idx, REG_ALARM_US)));
    a.stop(0x2000); // sleep with interrupts open
    a.halt();
    assert_eq!(run_program(&mut m, a), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 1);
    assert!(m.now_us() >= 250.0, "slept until the alarm: {}", m.now_us());
}

#[test]
fn tty_receive_interrupt_picks_up_character() {
    let mut m = machine();
    let tty_idx = m.attach_device(Box::new(Tty::new(5)));
    // Handler: read the data register into d6's low byte, rte.
    let mut h = Asm::new("ttyirq");
    h.move_(L, Abs(dev_reg_addr(tty_idx, REG_DATA)), Dr(6));
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * (24 + 5), L, 0x6000);

    let mut a = Asm::new("main");
    a.move_i(L, CTRL_RX_IRQ, Abs(dev_reg_addr(tty_idx, REG_CTRL)));
    a.move_to_sr(Imm(0x2000));
    let spin = a.here();
    a.tst(L, Dr(6));
    a.bcc(Cond::Eq, spin);
    a.halt();
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000;
    // Type an 'x' at 1000 cps after the program starts.
    m.with_dev_ctx::<Tty, _>(tty_idx, |t, ctx: &mut DevCtx| {
        t.type_at(b"x", 1000, ctx);
    })
    .unwrap();
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.cpu.d[6], u32::from(b'x'));
}

#[test]
fn fatal_errors_surface() {
    let mut m = machine();
    m.cpu.pc = 0x9999; // no code there
    match m.run(100) {
        RunExit::Error(MachineError::BadCodeAddress(0x9999)) => {}
        other => panic!("expected BadCodeAddress, got {other:?}"),
    }
}

#[test]
fn unvectored_exception_is_double_fault() {
    let mut m = machine();
    let mut a = Asm::new("main");
    a.trap(3); // vector never initialized (reads 0)
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000;
    match m.run(1000) {
        RunExit::Error(MachineError::DoubleFault(Exception::Trap(3), _)) => {}
        other => panic!("expected DoubleFault, got {other:?}"),
    }
}

#[test]
fn cycle_accounting_is_deterministic() {
    let run_once = || {
        let mut m = machine();
        let mut a = Asm::new("det");
        a.move_i(L, 100, Dr(0));
        let top = a.here();
        a.add(L, Imm(3), Dr(1));
        a.dbf(0, top);
        a.halt();
        run_program(&mut m, a);
        (m.meter.instr_count, m.meter.cycles, m.mem.ref_count)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "same program, same counters");
    assert!(a.0 > 200, "loop executed");
}

#[test]
fn breakpoints_stop_and_resume() {
    let mut m = machine();
    let mut a = Asm::new("bp");
    a.move_i(L, 1, Dr(0)); // 0x1000, 6 bytes
    a.move_i(L, 2, Dr(1)); // 0x1006
    a.move_i(L, 3, Dr(2)); // 0x100C
    a.halt();
    let entry = m.load_block(0x1000, a.assemble().unwrap()).unwrap();
    m.cpu.pc = entry;
    m.cpu.a[7] = 0x8000;
    m.breakpoints.insert(0x1006);
    assert_eq!(m.run(1000), RunExit::Breakpoint(0x1006));
    assert_eq!(m.cpu.d[0], 1);
    assert_eq!(m.cpu.d[1], 0, "stopped before the second move");
    // Resume executes through to halt.
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[2], 3);
}

#[test]
fn procedure_chaining_by_rewriting_return_address() {
    // The Synthesis Procedure Chaining trick: an interrupt handler changes
    // the return address on its exception frame so that a chained routine
    // runs after the handler returns (paper Section 3.1).
    let mut m = machine();
    // Chained routine at 0x7000.
    let mut c = Asm::new("chained");
    c.move_i(L, 0xC4A1, Dr(5));
    c.halt();
    m.load_block(0x7000, c.assemble().unwrap()).unwrap();
    // Trap handler: rewrite the stacked PC (at sp+2) to 0x7000, rte.
    let mut h = Asm::new("handler");
    h.move_i(L, 0x7000, Disp(2, 7));
    h.rte();
    m.load_block(0x6000, h.assemble().unwrap()).unwrap();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 32, L, 0x6000);

    let mut a = Asm::new("main");
    a.trap(0);
    a.move_i(L, 1, Dr(6)); // skipped: control is redirected
    a.halt();
    run_program(&mut m, a);
    assert_eq!(m.cpu.d[5], 0xC4A1);
    assert_eq!(m.cpu.d[6], 0, "original continuation was chained away");
}
