//! Synthesized interrupt and trap handlers (Table 5, Sections 4.3, 5.3,
//! 5.4).
//!
//! "Each thread in Synthesis synthesizes its own interrupt handling
//! routine, as well as system calls" — though "currently the majority of
//! them are shared by all threads" (Section 5.3). The handlers here run
//! under whatever thread is current, saving only the registers they use.

use quamachine::asm::Asm;
use quamachine::isa::{IndexSpec, Operand::*, RegList, Size::*};
use synthesis_codegen::template::Template;

use crate::syscall::kcalls;

/// The raw tty receive handler: "raw tty interrupt handling simply picks
/// up the character" (Section 6.3) — and drops it into the raw input
/// queue for the cooked filter.
///
/// Holes: `tty_data` (device register), `qhead`, `qbuf`, `qmask`,
/// `gauge`.
#[must_use]
pub fn tty_rx_template() -> Template {
    let mut a = Asm::new("irq_tty_rx");
    let tty_data = a.abs_hole("tty_data");
    let qhead = a.abs_hole("qhead");
    let qbuf = a.imm_hole("qbuf");
    let qmask = a.imm_hole("qmask");
    let gauge = a.abs_hole("gauge");
    let waiters = a.abs_hole("waiters");
    let regs = RegList::d(0)
        .with(RegList::d(1))
        .with(RegList::d(2))
        .with(RegList::a(0));
    let no_waiter = a.label();
    // Save only what we use.
    a.movem_save(regs, PreDec(7));
    a.move_(L, tty_data, Dr(0)); // read = acknowledge
    a.move_(L, qhead, Dr(1));
    a.move_(L, Dr(1), Dr(2));
    a.and(L, qmask, Dr(2));
    a.move_(L, qbuf, Ar(0));
    a.move_(B, Dr(0), Idx(0, 0, IndexSpec::d(2, 1)));
    a.add(L, Imm(1), Dr(1));
    a.move_(L, Dr(1), qhead);
    a.add(L, Imm(1), gauge);
    // Wake a blocked reader, if any (Procedure Chaining territory: the
    // wakeup is chained onto the end of interrupt handling).
    a.tst(L, waiters);
    a.bcc(quamachine::isa::Cond::Eq, no_waiter);
    a.kcall(kcalls::WAKE_TTY);
    a.bind(no_waiter);
    a.movem_load(PostInc(7), regs);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// The simple A/D handler: one saved register, pointer-indirect store
/// into the current buffered-queue element.
///
/// Holes: `ad_data` (device data register), `ptr_slot` (fill pointer),
/// `end_slot` (element end), `gauge`.
#[must_use]
pub fn ad_simple_template() -> Template {
    let mut a = Asm::new("irq_ad_simple");
    let ad_data = a.abs_hole("ad_data");
    let ptr_slot = a.abs_hole("ptr_slot");
    let end_slot = a.abs_hole("end_slot");
    let done = a.label();
    a.move_(L, Ar(0), PreDec(7));
    a.move_(L, ptr_slot, Ar(0));
    a.move_(L, ad_data, PostInc(0)); // sample -> element slot
    a.move_(L, Ar(0), ptr_slot);
    a.cmp(L, end_slot, Ar(0)); // element full?
    a.bcc(quamachine::isa::Cond::Ne, done);
    a.kcall(kcalls::AD_ADVANCE);
    a.bind(done);
    a.move_(L, PostInc(7), Ar(0));
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// The *specialized* A/D slot handler of Section 5.4, from which the
/// eight handlers of a queue element are synthesized: "a couple of
/// instructions; each moves a chunk of data into a different area of the
/// same queue element". `irq_ad_slot`, specialized for slot `i`, stores
/// the sample into slot `i` (an absolute address folded in) and repoints
/// the interrupt vector at handler `i + 1` — the handler sequence is an
/// executable data structure. `irq_ad_last`, specialized for the last
/// slot, instead asks the kernel to advance to the next queue element
/// (which repatches the slot addresses).
///
/// Holes: `ad_data`, `slot`; and on `irq_ad_slot`, `vec` (the
/// vector-table entry) and `next` (the following handler's address).
#[must_use]
pub fn ad_slot_template(last: bool) -> Template {
    let mut a = Asm::new(if last { "irq_ad_last" } else { "irq_ad_slot" });
    let ad_data = a.abs_hole("ad_data");
    let slot = a.abs_hole("slot");
    if last {
        a.move_(L, ad_data, slot);
        a.kcall(kcalls::AD_ADVANCE);
    } else {
        let vec = a.abs_hole("vec");
        let next = a.imm_hole("next");
        a.move_(L, ad_data, slot);
        a.move_(L, next, vec);
    }
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// The alarm interrupt handler (Table 5: 7 µs).
///
/// Holes: `timer_ack`.
#[must_use]
pub fn alarm_template() -> Template {
    let mut a = Asm::new("irq_alarm");
    let timer_ack = a.abs_hole("timer_ack");
    a.move_i(L, 0, timer_ack);
    a.kcall(kcalls::ALARM);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// The coprocessor-unavailable trap handler: lazy FP resynthesis.
#[must_use]
pub fn fp_trap_template() -> Template {
    let mut a = Asm::new("trap_fp_unavail");
    a.kcall(kcalls::FP_RESYNTH);
    a.rte(); // retries the faulting FP instruction
    Template::from_asm(a).expect("assembles")
}

/// The error-trap handler (Section 4.3): redirect the exception back into
/// the thread as a user-mode error signal. "The error trap handler copies
/// the kernel stack frame onto the user stack, modifies the return
/// address on the kernel stack to the user error signal procedure, and
/// executes a return from exception." — about 5 machine instructions.
///
/// Holes: `err_pc_slot` (a TTE slot where the faulting PC is parked for
/// the handler), `handler` (the thread's user error procedure).
#[must_use]
pub fn error_trap_template() -> Template {
    let mut a = Asm::new("trap_error");
    let err_pc_slot = a.abs_hole("err_pc_slot");
    let handler = a.imm_hole("handler");
    // Frame layout: SR at (a7), PC at 2(a7).
    a.move_(L, Disp(2, 7), err_pc_slot); // park the faulting PC
    a.move_(L, handler, Disp(2, 7)); // redirect the return
    a.rte();
    Template::from_asm(a).expect("assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_trap_is_about_five_instructions() {
        let t = error_trap_template();
        assert!(t.instrs.len() <= 5, "paper: ~5 instructions");
    }

    #[test]
    fn ad_slot_handlers_are_a_couple_of_instructions() {
        for last in [false, true] {
            let t = ad_slot_template(last);
            assert!(
                t.instrs.len() <= 3,
                "{} must be tiny: {:?}",
                t.name,
                t.instrs
            );
        }
    }
}
