//! Context-switch templates (paper Figure 3, Section 4.2).
//!
//! Each thread gets its own specialized switch code: the TTE field
//! addresses, vector-table address, and CPU quantum are folded in as
//! constants. The block's entries:
//!
//! - `sw_out` — the timer-interrupt vector target: acknowledge the timer,
//!   save the registers being used, and `jmp` to the *next* thread's
//!   `sw_in` (the jump target is patched by the executable ready queue,
//!   which finds the `jmp` by its mark, `chain`);
//! - `sw_save` — `sw_out` past the timer acknowledge: where a kernel call
//!   that blocks, yields or stops its caller leaves the thread
//!   (`kernel/ready.rs`);
//! - `ipi_in` — the reschedule IPI's target: mask interrupts, then
//!   `sw_out`;
//! - `sw_in_mmu` — entered when an address-space change is required:
//!   installs the thread's address map, then falls into `sw_in`;
//! - `sw_in` — load the kernel stack, the VBR (per-thread vector table),
//!   the quantum, the user stack pointer, the registers, and `rte` into
//!   the thread.
//!
//! The floating-point variant (`sw_fp`) additionally saves/restores
//! `fp0`–`fp7`; threads start on the non-FP variant and are resynthesized
//! onto `sw_fp` at their first FP instruction (Section 4.2's lazy
//! floating-point switch — Table 4's 11 µs vs 21 µs).

use quamachine::asm::Asm;
use quamachine::isa::{FpRegList, Operand::*, RegList, Size::*};
use synthesis_codegen::template::Template;

use crate::syscall::kcalls;

/// The names of the two switch templates, without and with the FP
/// registers: every block of switch code is an instance of one of them.
pub const SWITCH_TEMPLATES: [&str; 2] = ["sw_basic", "sw_fp"];

/// Build the context-switch template.
///
/// Holes: `save` (register save area), `usp_slot`, `ssp_slot`, `vt`
/// (vector-table address), `quantum` (µs), `timer_qreg` / `timer_ack`
/// (timer device registers), `tid`, `next` (the patched jump target), and
/// — in the FP variant — `fp_save`.
#[must_use]
pub fn switch_template(fp: bool) -> Template {
    let mut a = Asm::new(SWITCH_TEMPLATES[usize::from(fp)]);
    let save = a.abs_hole("save");
    let usp_slot = a.abs_hole("usp_slot");
    let ssp_slot = a.abs_hole("ssp_slot");
    let vt = a.imm_hole("vt");
    let quantum = a.imm_hole("quantum");
    let timer_qreg = a.abs_hole("timer_qreg");
    let timer_ack = a.abs_hole("timer_ack");
    let tid = a.imm_hole("tid");
    let next = a.abs_hole("next");
    let fp_save = if fp {
        Some(a.abs_hole("fp_save"))
    } else {
        None
    };

    // --- ipi_in ---------------------------------------------------------
    // The reschedule IPI arrives at level 1, the lowest priority: unlike
    // the quantum (level 6), the hardware entry mask does not shield the
    // switch from nesting device interrupts, which would re-vector
    // through a half-saved thread table. Raise the mask for the duration
    // of the switch; the terminating rte restores the resumed thread's
    // own SR. The quantum vector still enters at sw_out, so the Table 4
    // path is unchanged.
    a.mark("ipi_in");
    a.move_to_sr(Imm(0x2700));
    // Falls into sw_out.

    // --- sw_out ---------------------------------------------------------
    a.mark("sw_out");
    // Acknowledge the quantum interrupt so it does not immediately recur.
    a.move_i(L, 0, timer_ack);
    // --- sw_save --------------------------------------------------------
    // A kernel call that blocks, yields or stops its caller enters here,
    // behind a frame the kernel pushed with interrupts masked: no timer to
    // acknowledge.
    a.mark("sw_save");
    // "We switch only the part of the context being used, not all of it."
    a.movem_save(RegList::ALL_BUT_SP, save);
    a.emit(quamachine::isa::Instr::MoveUsp {
        to_usp: false,
        areg: 0,
    });
    a.move_(L, Ar(0), usp_slot);
    if let Some(fps) = fp_save {
        a.fmovem_save(FpRegList::ALL, fps);
    }
    a.move_(L, Ar(7), ssp_slot);
    // "A jmp instruction ... points to the context-switch-in procedure of
    // the following thread." Patched by the ready queue, which finds it
    // by its mark.
    a.mark("chain");
    a.jmp(next);

    // --- sw_in_mmu ------------------------------------------------------
    a.mark("sw_in_mmu");
    a.move_(L, tid, Dr(0));
    a.kcall(kcalls::SET_MAP);
    // Falls through into sw_in.

    // --- sw_in ----------------------------------------------------------
    a.mark("sw_in");
    a.move_(L, ssp_slot, Ar(7));
    a.move_to_vbr(vt);
    // Program this thread's CPU quantum (fine-grain scheduling patches
    // this immediate in place to adapt it).
    a.move_(L, quantum, timer_qreg);
    a.move_(L, usp_slot, Ar(0));
    a.emit(quamachine::isa::Instr::MoveUsp {
        to_usp: true,
        areg: 0,
    });
    if let Some(fps) = fp_save {
        a.fmovem_load(fps, FpRegList::ALL);
    }
    a.movem_load(save, RegList::ALL_BUT_SP);
    a.rte();

    Template::from_asm(a).expect("ctxsw template assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_has_all_three_entries() {
        for fp in [false, true] {
            let t = switch_template(fp);
            assert!(t.marks.contains_key("sw_out"));
            assert!(t.marks.contains_key("sw_in"));
            assert!(t.marks.contains_key("sw_in_mmu"));
            let chain = t.marks["chain"];
            assert!(matches!(
                t.instrs[chain],
                quamachine::isa::Instr::Jmp(AbsHole(_))
            ));
            assert_eq!(chain + 1, t.marks["sw_in_mmu"]);
            // The masked IPI entry leads the block and falls into sw_out.
            assert_eq!(t.marks["ipi_in"], 0);
            assert_eq!(t.marks["sw_out"], 1);
            // The kernel-call entry skips only the timer acknowledge.
            assert_eq!(t.marks["sw_save"], 2);
            assert!(t.marks["sw_in_mmu"] < t.marks["sw_in"]);
        }
    }
}
