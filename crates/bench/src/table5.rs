//! Table 5 — interrupt handling.
//!
//! Every row is a path run on a booted kernel and counted off the
//! machine's instruction trace ([`crate::path`]): an interrupt raised under
//! a running user thread, or a host call made beside it, timed to the
//! first instruction back in user code. "Set alarm" is the running
//! thread's own `SET_ALARM` general call, counted from its `trap` as
//! Table 3's calls are; it is the last row, so the alarm it arms fires
//! after every other row. Procedure chaining is driven as
//! `interrupt::chain`'s own test drives it — a handler's kernel call
//! chains a stub onto the handler's return — and its row is what the chain
//! adds to that handler's path.

use quamachine::asm::Asm;
use quamachine::devices::{audio, dev_reg_addr, tty};
use quamachine::isa::Size;
use quamachine::machine::RunExit;
use synthesis_codegen::template::Bindings;
use synthesis_core::interrupt::chain;
use synthesis_core::kernel::irq_levels;
use synthesis_core::syscall::general;
use synthesis_core::thread::{tte::off, Tid};
use synthesis_core::{layout, Kernel};

use crate::path::{Path, Probe};
use crate::{table3, Row};

/// A `kcall` selector the kernel does not own: the chaining handler's
/// call, answered by the probe.
const CHAIN_CALL: u16 = 0x7F;

/// Scratch memory for the A/D handlers' slots and the chain's resume slot.
const DATA: u32 = layout::USER_BASE + 0x8000;

/// The audio interrupt's vector.
const AUDIO_VECTOR: u32 = 24 + irq_levels::AUDIO as u32;

/// Synthesize `template` with `holes` bound; its entry.
fn synthesize(k: &mut Kernel, template: &str, holes: &[(&'static str, u32)]) -> u32 {
    let mut b = Bindings::new();
    for &(hole, value) in holes {
        b.bind(hole, value);
    }
    let opts = k.opts;
    let code = k.creator.synthesize(&mut k.m, template, &b, opts);
    code.expect("synthesizes").base
}

/// Load a block of kernel code; its entry.
fn load(k: &mut Kernel, a: Asm) -> u32 {
    k.load_user_program(a.assemble().expect("assembles"))
        .expect("loads")
}

/// The A/D handlers of Section 5.4, installed in the vector table of
/// `user`, the running thread, and timed one audio interrupt each: the
/// first specialized slot handler, which repoints the vector at its
/// successor — here the simple pointer-based handler, run on its fast path
/// (the queue element not yet full).
pub fn ad_interrupts(p: &mut Probe, user: Tid) -> [Path; 2] {
    let ad_data = dev_reg_addr(p.emu.k.dev.audio, audio::REG_DATA);
    let vec_slot = p.emu.k.threads[&user].vt() + 4 * AUDIO_VECTOR;
    let (ptr_slot, end_slot) = (DATA + 0x40, DATA + 0x44);
    p.emu.k.m.mem.poke(ptr_slot, Size::L, DATA + 0x80);
    p.emu.k.m.mem.poke(end_slot, Size::L, DATA + 0xA0);
    let gauge = DATA + 0x48;
    let simple = [
        ("ad_data", ad_data),
        ("ptr_slot", ptr_slot),
        ("end_slot", end_slot),
        ("gauge", gauge),
    ];
    let simple = synthesize(&mut p.emu.k, "irq_ad_simple", &simple);
    let slot_0 = [
        ("ad_data", ad_data),
        ("slot", DATA),
        ("vec", vec_slot),
        ("next", simple),
    ];
    let slot_0 = synthesize(&mut p.emu.k, "irq_ad_slot", &slot_0);
    p.emu.k.set_vector(user, AUDIO_VECTOR, slot_0).unwrap();
    let audio_irq = |k: &mut Kernel| k.m.irq.raise_on(k.m.active_cpu(), irq_levels::AUDIO);
    [p.time(audio_irq), p.time(audio_irq)]
}

/// Regenerate Table 5.
#[must_use]
pub fn run() -> Vec<Row> {
    run_on(&mut Probe::boot())
}

/// [`run`] on `p`, a fresh [`Probe`].
pub fn run_on(p: &mut Probe) -> Vec<Row> {
    let spin = p.load_spinner(|_| {});
    let user = p.create(spin);
    p.emu.k.start(user).unwrap();

    // The raw tty receive handler every thread's table names: one
    // character arrives with no reader waiting.
    let tty_ctrl = dev_reg_addr(p.emu.k.dev.tty, tty::REG_CTRL);
    p.emu.k.m.host_reg_write(tty_ctrl, tty::CTRL_RX_IRQ);
    let tty_rx = p.time(|k| {
        let dev = k.dev.tty;
        k.m.with_dev_ctx(dev, |t: &mut tty::Tty, ctx| t.inject(b"x", ctx));
    });
    let [ad_specialized, ad_simple] = ad_interrupts(p, user);

    // The alarm handler, its kernel call serviced by the run.
    let alarm = p.time(|k| k.m.irq.raise_on(k.m.active_cpu(), irq_levels::ALARM));

    // Procedure chaining: a handler whose kernel call chains a stub (which
    // calls an empty procedure) onto its return, against the same handler
    // unchained.
    let mut h = Asm::new("chaining_handler");
    h.kcall(CHAIN_CALL);
    h.rte();
    let handler = load(&mut p.emu.k, h);
    let mut e = Asm::new("empty_procedure");
    e.rts();
    let target = load(&mut p.emu.k, e);
    p.emu.k.creator.lib.add(chain::chained_stub_template());
    let resume_slot = DATA + 0x60;
    let stub = [("target", target), ("resume_slot", resume_slot)];
    let stub = synthesize(&mut p.emu.k, "chain_stub", &stub);
    p.emu.k.set_vector(user, AUDIO_VECTOR, handler).unwrap();
    let mut through_handler = |chained: bool| {
        p.time(|k| {
            k.m.irq.raise_on(k.m.active_cpu(), irq_levels::AUDIO);
            assert_eq!(k.m.run(u64::MAX), RunExit::KCall(CHAIN_CALL));
            if chained {
                chain::chain_procedure(&mut k.m, resume_slot, stub);
            }
        })
        .cycles
    };
    let chain_us = through_handler(true) - through_handler(false);

    // Signal a ready thread that is not running.
    let ready = p.create(spin);
    let tte = p.emu.k.threads[&ready].tte;
    p.emu.k.m.mem.poke(tte + off::SIG_HANDLER, Size::L, spin);
    p.emu.k.start(ready).unwrap();
    let signal = p.time(|k| k.signal(ready, 1).unwrap());

    let (set_alarm, _) = table3::general_call(p, general::SET_ALARM, 500, 0);

    let us = |cycles| p.emu.k.m.cost.cycles_to_us(cycles);
    [
        ("service raw tty interrupt", Some(16.0), tty_rx.cycles),
        (
            "service raw A/D interrupt (specialized)",
            Some(3.0),
            ad_specialized.cycles,
        ),
        ("service raw A/D interrupt (simple)", None, ad_simple.cycles),
        ("set alarm", Some(9.0), set_alarm),
        ("alarm interrupt", Some(7.0), alarm.cycles),
        ("chain to a procedure (no retry)", Some(4.0), chain_us),
        ("chain (signal) a thread", Some(9.0), signal.cycles),
    ]
    .map(|(what, paper, cycles)| Row::new(what, paper, us(cycles), "us"))
    .into()
}
