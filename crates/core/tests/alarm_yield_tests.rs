//! Alarms, yields, and cross-thread signals through the syscall surface.

use quamachine::asm::Asm;
use quamachine::isa::Size;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).unwrap()
}

fn emit_exit(a: &mut Asm) {
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let dead = a.here();
    a.bcc(Cond::T, dead);
}

#[test]
fn alarm_wakes_a_waiting_thread() {
    let mut k = boot();
    let mut a = Asm::new("alarmuser");
    // set_alarm(300 µs); wait; record the time-ish marker; exit.
    a.move_i(L, general::SET_ALARM, Dr(0));
    a.move_i(L, 300, Dr(1));
    a.trap(traps::GENERAL);
    a.move_i(L, general::WAIT_ALARM, Dr(0));
    a.trap(traps::GENERAL);
    a.move_i(L, 0xA1A, Abs(UBUF));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    let t0 = k.m.now_us();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    let dt = k.m.now_us() - t0;
    assert_eq!(k.m.mem.peek(UBUF, Size::L), 0xA1A, "woke and continued");
    assert!(dt >= 290.0, "did not pass the wait early: {dt:.0} µs");
    assert!(dt < 5_000.0, "woke promptly after the alarm: {dt:.0} µs");
}

/// Regression: a `WAIT_ALARM` that blocked came back with its own call
/// number (15) in `d0` — the thread was parked before the call's result
/// was written.
#[test]
fn a_wait_alarm_that_blocks_returns_zero() {
    let mut k = boot();
    let mut a = Asm::new("alarmresult");
    a.move_i(L, general::SET_ALARM, Dr(0));
    a.move_i(L, 300, Dr(1));
    a.trap(traps::GENERAL);
    a.move_i(L, general::WAIT_ALARM, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke(UBUF, Size::L, 0xFFFF_FFFF);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    let t0 = k.m.now_us();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    assert!(k.m.now_us() - t0 >= 290.0, "the wait blocked");
    assert_eq!(k.m.mem.peek(UBUF, Size::L), 0, "WAIT_ALARM's result");
}

/// Regression: `SET_ALARM` with `d1 = 0` cancels the timer's alarm but
/// still marked one pending, so the next `WAIT_ALARM` blocked for an
/// alarm that never came.
#[test]
fn a_cancelled_alarm_leaves_nothing_to_wait_for() {
    let mut k = boot();
    let mut a = Asm::new("alarmcancel");
    // set_alarm(300 µs); set_alarm(0); wait; mark; exit.
    for us in [300, 0] {
        a.move_i(L, general::SET_ALARM, Dr(0));
        a.move_i(L, us, Dr(1));
        a.trap(traps::GENERAL);
    }
    a.move_i(L, general::WAIT_ALARM, Dr(0));
    a.trap(traps::GENERAL);
    a.move_i(L, 0xCA7, Abs(UBUF));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 50_000_000), "WAIT_ALARM returned");
    assert_eq!(k.m.mem.peek(UBUF, Size::L), 0xCA7);
}

#[test]
fn yield_rotates_between_threads() {
    // Pinned to one CPU: the alternation this test asserts is a
    // uniprocessor scheduling property — on an SMP kernel the second
    // thread gets stolen to another CPU and the threads run unmixed.
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .unwrap();
    // Two politely yielding threads appending to a shared log (ownership
    // alternates if yield really rotates).
    let mk = |name: &str, tag: u32, log: u32| {
        let mut a = Asm::new(name);
        a.move_i(L, 30, Dr(7));
        let top = a.here();
        // log[idx++] = tag
        a.move_(L, Abs(log), Dr(2));
        a.move_(L, Dr(2), Dr(3));
        a.shift(quamachine::isa::ShiftKind::Lsl, L, Imm(2), Dr(3));
        a.move_(L, Imm(log + 4), Ar(1));
        a.add(L, Dr(3), Ar(1));
        a.move_(L, Imm(tag), Ind(1));
        a.add(L, Imm(1), Dr(2));
        a.move_(L, Dr(2), Abs(log));
        // yield()
        a.move_i(L, general::YIELD, Dr(0));
        a.trap(traps::GENERAL);
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        emit_exit(&mut a);
        a
    };
    let log = UBUF;
    let e1 = k
        .load_user_program(mk("y1", 1, log).assemble().unwrap())
        .unwrap();
    let e2 = k
        .load_user_program(mk("y2", 2, log).assemble().unwrap())
        .unwrap();
    let t1 = k.create_thread(e1, USTACK, user_map()).unwrap();
    let t2 = k.create_thread(e2, USTACK + 0x1000, user_map()).unwrap();
    k.start(t1).unwrap();
    k.start(t2).unwrap();
    assert!(k.run_until_exit(t1, 2_000_000_000));
    assert!(k.run_until_exit(t2, 2_000_000_000));
    let n = k.m.mem.peek(log, Size::L);
    assert_eq!(n, 60, "both threads logged all entries");
    // Count alternations: with yields, ownership changes often.
    let mut changes = 0;
    let mut prev = 0;
    for i in 0..n {
        let v = k.m.mem.peek(log + 4 + 4 * i, Size::L);
        if v != prev {
            changes += 1;
            prev = v;
        }
    }
    assert!(
        changes >= 20,
        "yield interleaved the threads ({changes} ownership changes)"
    );
}

#[test]
fn signal_to_self_runs_handler_then_resumes() {
    let k = boot();
    // Handler: mark and SIG_RETURN.
    let mut h = Asm::new("handler");
    h.move_i(L, 0x44, Abs(UBUF + 8));
    h.move_i(L, general::SIG_RETURN, Dr(0));
    h.trap(traps::GENERAL);
    let dead = h.here();
    h.bcc(Cond::T, dead);
    let mut k2 = k; // rebind mutable
    let handler = k2.load_user_program(h.assemble().unwrap()).unwrap();

    let mut a = Asm::new("selfsig");
    a.move_i(L, general::SET_SIG_HANDLER, Dr(0));
    a.move_(L, Imm(handler), Dr(1));
    a.trap(traps::GENERAL);
    // signal(self): gettid then signal.
    a.move_i(L, general::GETTID, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(1));
    a.move_i(L, general::SIGNAL, Dr(0));
    a.move_i(L, 7, Dr(2));
    a.trap(traps::GENERAL);
    // After the handler returns, this line runs.
    a.move_i(L, 0x55, Abs(UBUF + 12));
    emit_exit(&mut a);
    let entry = k2.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k2.create_thread(entry, USTACK, user_map()).unwrap();
    k2.start(tid).unwrap();
    assert!(k2.run_until_exit(tid, 2_000_000_000));
    assert_eq!(k2.m.mem.peek(UBUF + 8, Size::L), 0x44, "handler ran");
    assert_eq!(
        k2.m.mem.peek(UBUF + 12, Size::L),
        0x55,
        "continuation resumed"
    );
}

#[test]
fn error_trap_parks_faulting_pc_for_the_handler() {
    // Install a custom error handler that reads the parked PC from its
    // TTE slot and exits; verify the parked PC points at the faulting
    // instruction.
    let mut k = boot();
    let mut h = Asm::new("errhandler");
    // The kernel's trap_error parks the faulting PC at TTE+ERR_PC; the
    // thread can't easily read its own TTE address, so just mark and
    // exit — the host checks the slot.
    h.move_i(L, 0xE44, Abs(UBUF));
    emit_exit(&mut h);
    let handler = k.load_user_program(h.assemble().unwrap()).unwrap();

    let mut a = Asm::new("faulter");
    a.move_i(L, 1, Dr(3));
    a.move_(L, Abs(0x10), Dr(0)); // bus error (outside the quaspace)
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    // Point this thread's error path at our custom handler by
    // re-synthesizing its trap_error with the new handler binding.
    let tte = k.threads[&tid].tte;
    let errh = k
        .creator
        .synthesize(
            &mut k.m,
            "trap_error",
            synthesis_codegen::template::Bindings::new()
                .bind(
                    "err_pc_slot",
                    tte + synthesis_core::thread::tte::off::ERR_PC,
                )
                .bind("handler", handler),
            k.opts,
        )
        .unwrap();
    for vec in [2u32, 3, 4, 5, 8] {
        k.set_vector(tid, vec, errh.base).unwrap();
    }
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    assert_eq!(k.m.mem.peek(UBUF, Size::L), 0xE44, "custom handler ran");
    let parked =
        k.m.mem
            .peek(tte + synthesis_core::thread::tte::off::ERR_PC, Size::L);
    // The faulting instruction is the second one of the program (after
    // the 6-byte move_i).
    assert_eq!(parked, entry + 6, "parked PC points at the faulting move");
}
