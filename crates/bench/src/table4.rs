//! Table 4 — the dispatcher: context-switch costs.
//!
//! Every row is a path run on a booted kernel and counted off the
//! machine's instruction trace ([`crate::path`]). The full switch is a
//! quantum expiry between two user threads of one address map, from the
//! interrupted instruction to the incoming thread's first; the FP figure
//! is the same between two threads that took the lazy-FP resynthesis. The
//! partial switch — the paper switches "only the part of the context being
//! used" — is the full switch less the register-file moves it executed.
//! Block/unblock are the ready-queue unlink and front-insert of a thread
//! that is not running.

use quamachine::isa::{Instr, Operand};
use synthesis_core::kernel::irq_levels;
use synthesis_core::{layout, Kernel};

use crate::path::Probe;
use crate::Row;

/// Regenerate Table 4.
#[must_use]
pub fn run() -> Vec<Row> {
    run_on(&mut Probe::boot())
}

/// [`run`] on `p`, a fresh [`Probe`].
pub fn run_on(p: &mut Probe) -> Vec<Row> {
    let quantum_expiry = |k: &mut Kernel| k.m.irq.raise(irq_levels::QUANTUM);
    let spin = p.load_spinner(|_| {});
    let plain = [p.create(spin), p.create(spin)];
    plain.iter().for_each(|&t| p.emu.k.start(t).unwrap());
    let full = p.time(quantum_expiry);
    let movem = full.cycles_in(|i| matches!(i, Instr::Movem { .. }));

    let other = p.create(spin);
    let unblock = p.time(|k| k.start(other).unwrap());
    let block = p.time(|k| k.stop(other).unwrap());

    // Two threads whose first FP instruction has the kernel resynthesize
    // their switch onto the FP variant.
    let fp_load = Operand::Abs(layout::USER_BASE + 0x2000);
    let fp_spin = p.load_spinner(|a| a.fmove_load(fp_load, 0));
    let fp = [p.create(fp_spin), p.create(fp_spin)];
    plain.iter().for_each(|&t| p.emu.k.stop(t).unwrap());
    fp.iter().for_each(|&t| p.emu.k.start(t).unwrap());
    while !fp.iter().all(|t| p.emu.k.threads[t].uses_fp) {
        p.time(quantum_expiry);
    }
    let full_fp = p.time(quantum_expiry);

    let us = |cycles| p.emu.k.m.cost.cycles_to_us(cycles);
    [
        ("full context switch (no FP)", 11.0, full.cycles),
        ("full context switch (FP registers)", 21.0, full_fp.cycles),
        ("partial context switch", 3.0, full.cycles - movem),
        ("block thread (unlink from ready queue)", 4.0, block.cycles),
        ("unblock thread (insert at front)", 4.0, unblock.cycles),
    ]
    .map(|(what, paper, cycles)| Row::new(what, Some(paper), us(cycles), "us"))
    .into()
}
