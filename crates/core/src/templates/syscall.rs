//! Trap-dispatch templates — and their trap-*elided* fused forms.
//!
//! "As new quajects are opened (such as files, devices, threads, and
//! others), the thread's system call vectors are changed to point to the
//! synthesized procedures" (Section 5.3). Each thread's `trap #1`/`#2`
//! vectors point at a per-thread dispatcher that jumps through the fd
//! table in the thread's TTE — three instructions from trap to the
//! synthesized routine.
//!
//! When the caller and the quaject share the flat address space there is
//! no protection boundary for the trap to cross, so the trap itself is
//! overhead. The `fused_*` templates here are the specialized entries
//! the kernel binds *directly into the call site* as a `jsr` target
//! ([`Kernel::bind_site`](crate::kernel::Kernel::bind_site)): an fd guard, then the synthesized body collapsed inline
//! (its `rte`s rewritten to `rts` — see
//! [`Template::returning_variant`]), ending in a plain `rts`. Foreign
//! fds fall back to the original `trap`, so the layered path remains
//! the semantic reference.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, IndexSpec, Operand::*, Size::*};
use synthesis_codegen::template::Template;

/// `kcall` selector for the general kernel call (selector in `d0`).
pub const KCALL_GENERAL: u16 = 0x00;

/// The trap number reserved for the UNIX emulator call (see the ABI
/// table in [`super`]); the fused wrappers' foreign-fd fallback re-traps
/// through it.
pub const UNIX_TRAP_NO: u8 = 3;

/// UNIX `read`/`write` syscall numbers (mirroring the emulator's ABI
/// table). The fused wrappers' foreign-fd fallback must re-materialize
/// `d0` before re-trapping: once a site is bound, trap elision deletes
/// the caller's own `move #sysno,d0` (the wrapper keys on `d1`/`d2`
/// only), so `d0` is dead on entry here.
pub const UNIX_SYS_READ: u32 = 3;
/// See [`UNIX_SYS_READ`].
pub const UNIX_SYS_WRITE: u32 = 4;

/// Per-thread `read`/`write` dispatcher.
///
/// `trap_no` 1 dispatches reads (fd-table entry offset 0), 2 writes
/// (offset 4). Hole: `fdtable` — the thread's fd table (16 entries of two
/// longs: read entry, write entry).
#[must_use]
pub fn rw_dispatch_template(trap_no: u8) -> Template {
    let name = format!("dispatch_trap{trap_no}");
    let entry_off = if trap_no == 1 { 0i8 } else { 4i8 };
    let mut a = Asm::new(name);
    let fdtable = a.imm_hole("fdtable");
    // d0 = fd; mask to table range rather than test-and-branch (frugality:
    // a bad fd lands on the EBADF routine installed in every free slot).
    a.move_(L, Dr(0), Dr(2));
    a.and(L, Imm(15), Dr(2));
    a.move_(L, fdtable, Ar(1));
    a.move_(L, Idx(entry_off, 1, IndexSpec::d(2, 8)), Ar(1));
    a.jmp(Ind(1));
    Template::from_asm(a).expect("assembles")
}

/// The shared `EBADF` routine every unused fd slot points at.
#[must_use]
pub fn ebadf_template() -> Template {
    let mut a = Asm::new("ebadf");
    a.move_i(L, (-9i32) as u32, Dr(0)); // -EBADF
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `trap #0` handler: the general kernel call. The host services it (the
/// selector is in `d0`, arguments in `d1`/`d2`/`a0`); the `kcall` itself
/// is free, so the call costs its trap entry, its `rte` and only the
/// [`crate::charges`] formulas the work it reaches still carries.
#[must_use]
pub fn kcall_trampoline_template() -> Template {
    let mut a = Asm::new("kcall_trampoline");
    a.kcall(KCALL_GENERAL);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// A fused syscall wrapper around a non-pipe `read`/`write` body.
///
/// Entered by `jsr` from a rewritten UNIX call site (so the UNIX ABI is
/// live: `d1` = fd, `d2` = count, `a0` = buffer). The guard compares
/// `d1` against the fd this wrapper was specialized to; on a match the
/// count moves to `d1` (the kernel rw ABI) and the collapsed
/// `<callee>~rts` body runs inline — no trap, no dispatcher, no fd
/// table. A foreign fd re-traps through the layered path.
///
/// Holes: `fd`, plus the callee's own holes namespaced
/// `"<callee>~rts.<hole>"` by Collapsing Layers.
#[must_use]
pub fn fused_rw_template(callee: &str) -> Template {
    let sysno = if callee.starts_with("write") {
        UNIX_SYS_WRITE
    } else {
        UNIX_SYS_READ
    };
    let mut a = Asm::new(format!("fused_{callee}"));
    let fd = a.imm_hole("fd");
    let call = a.abs_hole(Template::call_hole_name(&format!("{callee}~rts")));
    let ltrap = a.label();
    a.cmp(L, fd, Dr(1));
    a.bcc(Cond::Ne, ltrap);
    a.move_(L, Dr(2), Dr(1)); // count: UNIX abi d2 → kernel abi d1
    a.jsr(call); // collapsed inline
    a.rts();
    a.bind(ltrap);
    // The wrapper is specialized per direction, so the syscall number
    // is a constant here; the caller's own `move #sysno,d0` was elided
    // when this site was bound.
    a.move_i(L, sysno, Dr(0));
    a.trap(UNIX_TRAP_NO);
    a.rts();
    Template::from_asm(a).expect("assembles")
}

/// Fused 1-byte pipe write: the Table 1 row-2 fast path.
///
/// Same entry contract as [`fused_rw_template`]. A 1-byte write to the
/// specialized fd with ring space free is nine data moves between the
/// guard and the `rts` — head load, space check, byte store, head
/// publish — with the ring address, mask, and size folded in as
/// constants. Multi-byte writes and a full ring take the collapsed
/// general body (`pipe_write~rts`, whose blocking `kcall` still works
/// from user mode); foreign fds re-trap.
///
/// Only synthesized for solo pipes (one reader, one writer, both ends
/// owned by the calling thread), which is what lets the fast path elide
/// the reader-wake check: a thread cannot be blocked reading the pipe
/// it is currently writing. `pipe_attach` ends solo, and finds what
/// relies on it by layout: entry through the first store to `head_slot`
/// — so the fast path stays ahead of the general body.
///
/// Holes: `fd`, `head_slot`, `tail_slot`, `buf`, `size`, `mask`,
/// `gauge`, plus the callee's namespaced holes.
#[must_use]
pub fn fused_pipe_write_template() -> Template {
    let mut a = Asm::new("fused_pipe_write");
    let fd = a.imm_hole("fd");
    let head_slot = a.abs_hole("head_slot");
    let tail_slot = a.abs_hole("tail_slot");
    let buf = a.imm_hole("buf");
    let size = a.imm_hole("size");
    let mask = a.imm_hole("mask");
    let gauge = a.abs_hole("gauge");
    let call = a.abs_hole(Template::call_hole_name("pipe_write~rts"));
    let ltrap = a.label();
    let lgen = a.label();
    a.cmp(L, fd, Dr(1));
    a.bcc(Cond::Ne, ltrap);
    a.cmp(L, Imm(1), Dr(2));
    a.bcc(Cond::Ne, lgen);
    // Fast path: d2 still holds the count in case we bail to Lgen, so
    // scratch in d0/d3/a1 only.
    a.move_(L, head_slot, Dr(0));
    a.move_(L, Dr(0), Dr(3));
    a.sub(L, tail_slot, Dr(3)); // used = head - tail
    a.cmp(L, size, Dr(3));
    a.bcc(Cond::Eq, lgen); // full: the general body blocks
    a.move_(L, Dr(0), Dr(3));
    a.and(L, mask, Dr(3)); // index = head & mask
    a.move_(L, buf, Ar(1));
    a.move_(B, Ind(0), Idx(0, 1, IndexSpec::d(3, 1))); // data in place...
    a.add(L, Imm(1), Dr(0));
    a.move_(L, Dr(0), head_slot); // ...then head published
    a.add(L, Imm(1), gauge);
    a.move_i(L, 1, Dr(0));
    a.rts();
    a.bind(lgen);
    a.move_(L, Dr(2), Dr(1));
    a.jsr(call);
    a.rts();
    a.bind(ltrap);
    a.move_i(L, UNIX_SYS_WRITE, Dr(0)); // see fused_rw_template's ltrap
    a.trap(UNIX_TRAP_NO);
    a.rts();
    Template::from_asm(a).expect("assembles")
}

/// Fused 1-byte pipe read: mirror of [`fused_pipe_write_template`]
/// (tail advances, empty ring falls back to the blocking general body).
#[must_use]
pub fn fused_pipe_read_template() -> Template {
    let mut a = Asm::new("fused_pipe_read");
    let fd = a.imm_hole("fd");
    let head_slot = a.abs_hole("head_slot");
    let tail_slot = a.abs_hole("tail_slot");
    let buf = a.imm_hole("buf");
    let mask = a.imm_hole("mask");
    let gauge = a.abs_hole("gauge");
    let call = a.abs_hole(Template::call_hole_name("pipe_read~rts"));
    let ltrap = a.label();
    let lgen = a.label();
    a.cmp(L, fd, Dr(1));
    a.bcc(Cond::Ne, ltrap);
    a.cmp(L, Imm(1), Dr(2));
    a.bcc(Cond::Ne, lgen);
    a.move_(L, tail_slot, Dr(3)); // one tail load serves test and index
    a.move_(L, head_slot, Dr(0));
    a.sub(L, Dr(3), Dr(0)); // available
    a.bcc(Cond::Eq, lgen); // empty: the general body blocks
    a.move_(L, Dr(3), Dr(1)); // fd guard passed; d1 is free scratch now
    a.and(L, mask, Dr(1)); // index = tail & mask
    a.move_(L, buf, Ar(1));
    a.move_(B, Idx(0, 1, IndexSpec::d(1, 1)), Ind(0));
    a.add(L, Imm(1), Dr(3));
    a.move_(L, Dr(3), tail_slot);
    a.add(L, Imm(1), gauge);
    a.move_i(L, 1, Dr(0));
    a.rts();
    a.bind(lgen);
    a.move_(L, Dr(2), Dr(1));
    a.jsr(call);
    a.rts();
    a.bind(ltrap);
    a.move_i(L, UNIX_SYS_READ, Dr(0)); // see fused_rw_template's ltrap
    a.trap(UNIX_TRAP_NO);
    a.rts();
    Template::from_asm(a).expect("assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_is_three_instructions_plus_mask() {
        let t = rw_dispatch_template(1);
        assert!(
            t.instrs.len() <= 5,
            "dispatch must stay tiny, got {:?}",
            t.instrs
        );
    }

    #[test]
    fn read_and_write_use_different_entry_offsets() {
        let r = rw_dispatch_template(1);
        let w = rw_dispatch_template(2);
        assert_ne!(r.instrs, w.instrs);
    }
}
