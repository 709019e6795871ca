//! Table 3 — thread operations.
//!
//! Every row but `step` is a general call a running user thread makes on
//! another thread, counted on the path probe ([`crate::path`]) from its
//! `trap` to the first instruction back in user code. `step` has no guest
//! call: it is the host's debugger call, timed from where it interrupts
//! the running thread, as Table 4's block and unblock are.

use quamachine::isa::{Operand::*, Size, Size::*};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;

use crate::path::Probe;
use crate::Row;

/// The cycles of the general call `call` with `d1` and `d2` as its
/// arguments, and what it returned in `d0`.
pub fn general_call(p: &mut Probe, call: u32, d1: u32, d2: u32) -> (u64, u32) {
    let path = p.call(|a| {
        a.move_i(L, d1, Dr(1));
        a.move_i(L, d2, Dr(2));
        a.move_i(L, call, Dr(0));
        a.trap(traps::GENERAL);
    });
    (path.cycles, p.emu.k.m.cpu.d[0])
}

/// Regenerate Table 3.
#[must_use]
pub fn run() -> Vec<Row> {
    run_on(&mut Probe::boot())
}

/// [`run`] on `p`, a fresh [`Probe`].
pub fn run_on(p: &mut Probe) -> Vec<Row> {
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();

    // The target, a counter loop: created, started and stopped by the
    // caller, stepped by the host, then — with a signal handler installed
    // — signalled and destroyed by the caller.
    let stack = layout::USER_BASE + 0x4000;
    let victim = p.load_spinner(|a| a.add(L, Imm(1), Dr(0)));
    let (create, target) = general_call(p, general::THREAD_CREATE, victim, stack);
    let on_target = |p: &mut Probe, call| general_call(p, call, target, 0).0;
    let start = on_target(p, general::THREAD_START);
    let stop = on_target(p, general::THREAD_STOP);
    let step = p.time(|k| k.step_thread(target).unwrap()).cycles;
    let tte = p.emu.k.threads[&target].tte;
    p.emu.k.m.mem.poke(tte + off::SIG_HANDLER, Size::L, spin);
    let signal = on_target(p, general::SIGNAL);
    let destroy = on_target(p, general::THREAD_DESTROY);

    let us = |cycles| p.emu.k.m.cost.cycles_to_us(cycles);
    [
        ("thread create", 142.0, create),
        ("thread destroy", 11.0, destroy),
        ("thread stop", 8.0, stop),
        ("thread start", 8.0, start),
        ("thread step (debugger)", 37.0, step),
        ("thread signal (thread to thread)", 8.0, signal),
    ]
    .map(|(what, paper, cycles)| Row::new(what, Some(paper), us(cycles), "us"))
    .into()
}
