//! The kernel's code templates.
//!
//! "1000 lines for the templates used in code synthesis (e.g., queues,
//! threads, files)" (Section 6.4). Each submodule builds parameterized
//! [`Template`]s; the kernel's quaject creator specializes them with
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
//! Kernel code also calls two kernel-resident routines with `jsr`, loaded
//! once at boot and named by templates as constant operands (no hole):
//!
//! | address | routine | arguments | result | clobbers |
//! |---|---|---|---|---|
//! | [`layout::COPY_WRITE`](crate::layout::COPY_WRITE) | copy `(a0)+ → (a1)+` | `d3` = bytes >> 4 (≥ 1) | `a0`, `a1` advanced by 16 · `d3` | `d3`, CCR |
//! | [`layout::COPY_READ`](crate::layout::COPY_READ) | copy `(a1)+ → (a0)+` | `d3` = bytes >> 4 (≥ 1) | `a1`, `a0` advanced by 16 · `d3` | `d3`, CCR |
//!
//! [`copy::emit_copy`] is the call sequence (the byte tail stays inline).

use synthesis_codegen::template::TemplateLib;

pub mod copy;
pub mod ctxsw;
pub mod irq;
pub mod pipe;
pub mod queue;
pub mod rw;
pub mod syscall;

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
    lib.add(rw::rw_generic_template());
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
        "write_tty",
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
        "write_tty",
        "read_file",
        "write_file",
    ] {
        lib.add(syscall::fused_rw_template(callee));
    }
    lib.add(irq::tty_rx_template());
    lib.add(irq::ad_simple_template());
    for i in 0..8 {
        lib.add(irq::ad_slot_template(i, i == 7));
    }
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
        assert!(lib.len() >= 41);
        for name in [
            "pipe_write~rts",
            "pipe_read~rts",
            "read_null~rts",
            "write_null~rts",
            "read_tty~rts",
            "write_tty~rts",
            "read_file~rts",
            "write_file~rts",
            "fused_pipe_write",
            "fused_pipe_read",
            "fused_read_null",
            "fused_write_null",
            "fused_read_tty",
            "fused_write_tty",
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
            "rw_generic",
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
            "irq_ad_0",
            "irq_ad_7",
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
}
