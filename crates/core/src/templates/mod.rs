//! The kernel's code templates.
//!
//! "1000 lines for the templates used in code synthesis (e.g., queues,
//! threads, files)" (Section 6.4). Each submodule builds parameterized
//! [`Template`](synthesis_codegen::template::Template)s; the kernel's quaject creator specializes them with
//! Factoring Invariants and installs the result.
//!
//! # Kernel ABI
//!
//! System calls are traps. Caller-saved registers: `d0`–`d3`, `a0`–`a2`
//! (synthesized kernel code may clobber them); everything else is
//! preserved.
//!
//! | trap | call | arguments | result |
//! |---|---|---|---|
//! | `#0` | general kernel call | `d0` selector, `d1`/`d2`/`a0` args | `d0` |
//! | `#1` | `read`  | `d0` fd, `a0` buffer, `d1` count | `d0` bytes |
//! | `#2` | `write` | `d0` fd, `a0` buffer, `d1` count | `d0` bytes |
//! | `#3` | UNIX emulator call | `d0` UNIX syscall #, rest per call | `d0` |
//!
//! Four kernel-resident routines are loaded once at boot. Templates call
//! the two copies with `jsr`, naming them as constant operands (no hole);
//! the host runs the thread fill and the thread block's release through
//! `Kernel::call_routine`, which
//! starts a routine with [`RoutineRegs`], in supervisor state with every
//! interrupt masked, on the stack below
//! [`layout::ROUTINE_STACK`](crate::layout::ROUTINE_STACK), and takes the
//! machine back at its `rts`:
//!
//! | address | routine | arguments | result | clobbers |
//! |---|---|---|---|---|
//! | [`layout::COPY_WRITE`](crate::layout::COPY_WRITE) | copy `(a0)+ → (a1)+` | `d3` = bytes >> 4 (≥ 1) | `a0`, `a1` advanced by 16 · `d3` | `d3`, CCR |
//! | [`layout::COPY_READ`](crate::layout::COPY_READ) | copy `(a1)+ → (a0)+` | `d3` = bytes >> 4 (≥ 1) | `a1`, `a0` advanced by 16 · `d3` | `d3`, CCR |
//! | [`layout::THREAD_INIT`](crate::layout::THREAD_INIT) | pop a thread block, fill the new thread's image | [`thread_init::ThreadImage::regs`]: `d0`–`d5`, `a2`, `a3`, `a5` | the free list's head block popped; its TTE (tid included), kstack frame and pinned vectors written | all but `a7`, CCR |
//! | [`layout::THREAD_FINI`](crate::layout::THREAD_FINI) | push a thread block | `a0` the block | the block is the free list's head | nothing |
//!
//! [`copy::emit_copy`] is the copy's call sequence (the byte tail stays
//! inline).

use synthesis_codegen::template::TemplateLib;

pub mod copy;
pub mod ctxsw;
pub mod irq;
pub mod pipe;
pub mod queue;
pub mod rw;
pub mod syscall;
pub mod thread_init;

/// The registers a host call of a resident routine starts it with:
/// `d0`–`d7` and `a0`–`a6` (`a7` is the routine stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutineRegs {
    /// `d0`–`d7`.
    pub d: [u32; 8],
    /// `a0`–`a6`.
    pub a: [u32; 7],
}

/// Install every kernel template into a library.
pub fn install_all(lib: &mut TemplateLib) {
    lib.add(ctxsw::switch_template(false));
    lib.add(ctxsw::switch_template(true));
    lib.add(rw::read_null_template());
    lib.add(rw::write_null_template());
    lib.add(rw::read_tty_template());
    lib.add(rw::write_tty_template());
    lib.add(rw::read_file_template());
    lib.add(rw::write_file_template());
    lib.add(crate::io::tty::cooked_read_template());
    lib.add(pipe::pipe_write_template());
    lib.add(pipe::pipe_read_template());
    lib.add(queue::spsc_put_template());
    lib.add(queue::spsc_get_template());
    lib.add(queue::mpsc_put_template());
    lib.add(queue::mpsc_get_template());
    lib.add(syscall::rw_dispatch_template(1));
    lib.add(syscall::rw_dispatch_template(2));
    lib.add(syscall::ebadf_template());
    lib.add(syscall::kcall_trampoline_template());
    // Trap-elided (`jsr`-entered) variants of every rw body, and the
    // fused wrappers that guard them (see `syscall`): the bodies are
    // the same templates with `rte` → `rts`.
    for name in [
        "pipe_write",
        "pipe_read",
        "read_null",
        "write_null",
        "read_tty",
        "read_file",
        "write_file",
    ] {
        let v = lib
            .get(name)
            .expect("body installed above")
            .returning_variant();
        lib.add(v);
    }
    lib.add(syscall::fused_pipe_write_template());
    lib.add(syscall::fused_pipe_read_template());
    for callee in [
        "read_null",
        "write_null",
        "read_tty",
        "read_file",
        "write_file",
    ] {
        lib.add(syscall::fused_rw_template(callee));
    }
    lib.add(irq::tty_rx_template());
    lib.add(irq::ad_simple_template());
    lib.add(irq::ad_slot_template(false));
    lib.add(irq::ad_slot_template(true));
    lib.add(irq::alarm_template());
    lib.add(irq::fp_trap_template());
    lib.add(irq::error_trap_template());
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthesis_codegen::verify;

    #[test]
    fn all_templates_verify() {
        let mut lib = TemplateLib::new();
        install_all(&mut lib);
        assert_eq!(lib.len(), 40);
        for name in [
            "pipe_write~rts",
            "pipe_read~rts",
            "read_null~rts",
            "write_null~rts",
            "read_tty~rts",
            "read_file~rts",
            "write_file~rts",
            "fused_pipe_write",
            "fused_pipe_read",
            "fused_read_null",
            "fused_write_null",
            "fused_read_tty",
            "fused_read_file",
            "fused_write_file",
            "sw_basic",
            "sw_fp",
            "read_null",
            "write_null",
            "read_tty",
            "write_tty",
            "read_file",
            "write_file",
            "cooked_read",
            "pipe_write",
            "pipe_read",
            "q_spsc_put",
            "q_spsc_get",
            "q_mpsc_put",
            "q_mpsc_get",
            "dispatch_trap1",
            "dispatch_trap2",
            "ebadf",
            "kcall_trampoline",
            "irq_tty_rx",
            "irq_ad_simple",
            "irq_ad_slot",
            "irq_ad_last",
            "irq_alarm",
            "trap_fp_unavail",
            "trap_error",
        ] {
            let t = lib
                .get(name)
                .unwrap_or_else(|| panic!("missing template {name}"));
            verify::verify(t).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// A plan is verified once, when it is compiled, on the argument that
    /// filling a hole changes no branch, mark or final instruction: over
    /// every kernel template — and three broken ones — the plan passes
    /// exactly when an instance of it does.
    #[test]
    fn every_plan_passes_verification_exactly_when_its_instances_do() {
        use quamachine::asm::Asm;
        use quamachine::isa::{Cond, Instr, Operand::*, Size::L};
        use synthesis_codegen::creator::SynthesisOptions;
        use synthesis_codegen::plan::Plan;
        use synthesis_codegen::template::Template;

        let mut lib = TemplateLib::new();
        install_all(&mut lib);
        let mut broken = Vec::new();
        let mut a = Asm::new("falls_off_the_end");
        a.move_(L, AbsHole(0), Dr(0));
        broken.push(a);
        let mut a = Asm::new("branches_past_the_end");
        a.emit(Instr::Bcc(Cond::Eq, quamachine::isa::BranchTarget::Idx(9)));
        a.move_(L, Dr(0), AbsHole(0));
        a.rts();
        broken.push(a);
        let mut a = Asm::new("mark_past_the_end");
        a.move_(L, Dr(0), AbsHole(0));
        a.rts();
        a.mark("after");
        broken.push(a);
        let broken: Vec<Template> = broken
            .into_iter()
            .map(|a| {
                let mut t = Template::from_asm(a).expect("assembles");
                t.holes = vec!["slot".into()];
                t
            })
            .collect();

        let mut checked = (0, 0);
        for t in lib.templates().chain(&broken) {
            // Every name bound, collapsed callees' holes too, each to a
            // long-aligned value of its own.
            let value_of = |name: &str| {
                Some(
                    0x4_0000
                        + 4 * name
                            .bytes()
                            .fold(0u32, |h, b| (h * 31 + u32::from(b)) % 0x1000),
                )
            };
            let plan = Plan::compile(t, &lib, SynthesisOptions::full(), &value_of)
                .unwrap_or_else(|e| panic!("{}: {e}", t.name));
            let table = plan.table(&value_of).expect("every hole bound");
            let instance = plan.instantiate(&table);
            let once = plan.verified().is_ok();
            let each = verify::verify_reported(&t.name, &instance, plan.marks()).is_ok();
            assert_eq!(once, each, "{}: plan {once}, instance {each}", t.name);
            if once {
                checked.0 += 1;
            } else {
                checked.1 += 1;
            }
        }
        assert_eq!(checked.1, broken.len(), "only the broken ones fail");
        assert_eq!(checked.0, lib.len());
    }
}
