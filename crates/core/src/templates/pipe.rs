//! Synthesized pipe `read`/`write`.
//!
//! A pipe is an SP-SC byte ring in kernel memory (Figure 1's discipline:
//! the writer alone advances `head`, the reader alone advances `tail`,
//! and `head` is published only after the data is in place). The ring
//! address, size, and mask are folded into the code at open time; the
//! bulk of each copy is a call to the kernel-resident unrolled long-word
//! loop of Section 6.2 (see [`super::copy`]).
//!
//! Table 1's programs 2–4 (pipe read/write at 1 B / 1 KB / 4 KB) run on
//! exactly this code.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use synthesis_codegen::template::Template;

use super::copy::{emit_copy, Dir};

/// `kcall`: writer found the pipe full; block until space.
pub const KCALL_WAIT_PIPE_SPACE: u16 = 0x21;
/// `kcall`: reader found the pipe empty; block until data.
pub const KCALL_WAIT_PIPE_DATA: u16 = 0x22;

/// `write(pipe)`: copy `d1` bytes from `(a0)` into the ring; block while
/// there is not enough space for the whole write (writes up to the ring
/// size are atomic, like `PIPE_BUF`). A larger write has its count cut
/// to the ring size by the `WAIT_PIPE_SPACE` kernel call and returns
/// short.
///
/// Holes: `head_slot`, `tail_slot`, `buf`, `size`, `mask`, `gauge`.
#[must_use]
pub fn pipe_write_template() -> Template {
    let mut a = Asm::new("pipe_write");
    let head_slot = a.abs_hole("head_slot");
    let tail_slot = a.abs_hole("tail_slot");
    let buf = a.imm_hole("buf");
    let size = a.imm_hole("size");
    let mask = a.imm_hole("mask");
    let gauge = a.abs_hole("gauge");

    let pid = a.imm_hole("pid");
    let r_wait = a.abs_hole("r_wait");
    let ok = a.label();
    let wrap = a.label();
    let publish = a.label();
    let no_waiter = a.label();

    // Space check; block until the whole write fits.
    let retry = a.here();
    a.move_(L, head_slot, Dr(2));
    a.sub(L, tail_slot, Dr(2)); // used = head - tail
    a.move_(L, size, Dr(3));
    a.sub(L, Dr(2), Dr(3)); // space
    a.cmp(L, Dr(3), Dr(1)); // count - space
    a.bcc(Cond::Ls, ok);
    a.move_(L, pid, Dr(2)); // identify the pipe for the kernel
    a.kcall(KCALL_WAIT_PIPE_SPACE);
    a.bra(retry);

    a.bind(ok);
    a.move_(L, head_slot, Dr(0));
    a.move_(L, Dr(0), Ar(2)); // saved head counter
    a.move_(L, Dr(0), Dr(2));
    a.and(L, mask, Dr(2)); // index
    a.move_(L, buf, Ar(1));
    a.add(L, Dr(2), Ar(1)); // dst = buf + index
    a.move_(L, size, Dr(0));
    a.sub(L, Dr(2), Dr(0)); // contiguous capacity to the ring end
    a.cmp(L, Dr(0), Dr(1)); // count - capacity
    a.bcc(Cond::Hi, wrap);
    // Contiguous fast path.
    a.move_(L, Dr(1), Dr(2));
    emit_copy(&mut a, Dir::Write, 2);
    a.bra(publish);
    // Wrapping path: two copies.
    a.bind(wrap);
    a.move_(L, Dr(1), PreDec(7)); // second-segment length on the stack
    a.sub(L, Dr(0), Ind(7));
    a.move_(L, Dr(0), Dr(2));
    emit_copy(&mut a, Dir::Write, 2);
    a.move_(L, buf, Ar(1));
    a.move_(L, PostInc(7), Dr(2));
    emit_copy(&mut a, Dir::Write, 2);

    a.bind(publish);
    // "We update Q_head at the last instruction during Q_put."
    a.move_(L, Ar(2), Dr(0));
    a.add(L, Dr(1), Dr(0));
    a.move_(L, Dr(0), head_slot);
    a.add(L, Imm(1), gauge);
    // Wake a blocked reader, if any.
    a.tst(L, r_wait);
    a.bcc(Cond::Eq, no_waiter);
    a.move_(L, pid, Dr(2));
    a.kcall(super::super::syscall::kcalls::WAKE_PIPE_DATA);
    a.bind(no_waiter);
    a.move_(L, Dr(1), Dr(0));
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `read(pipe)`: copy up to `d1` available bytes from the ring to `(a0)`;
/// block while the pipe is empty.
#[must_use]
pub fn pipe_read_template() -> Template {
    let mut a = Asm::new("pipe_read");
    let head_slot = a.abs_hole("head_slot");
    let tail_slot = a.abs_hole("tail_slot");
    let buf = a.imm_hole("buf");
    let size = a.imm_hole("size");
    let mask = a.imm_hole("mask");
    let gauge = a.abs_hole("gauge");

    let pid = a.imm_hole("pid");
    let w_wait = a.abs_hole("w_wait");
    let have = a.label();
    let sized = a.label();
    let wrap = a.label();
    let publish = a.label();
    let no_waiter = a.label();

    let retry = a.here();
    a.move_(L, head_slot, Dr(2));
    a.sub(L, tail_slot, Dr(2)); // available
    a.bcc(Cond::Ne, have);
    a.move_(L, pid, Dr(2));
    a.kcall(KCALL_WAIT_PIPE_DATA);
    a.bra(retry);

    a.bind(have);
    a.cmp(L, Dr(2), Dr(1)); // count - available
    a.bcc(Cond::Ls, sized);
    a.move_(L, Dr(2), Dr(1)); // clamp to available
    a.bind(sized);
    a.move_(L, tail_slot, Dr(0));
    a.move_(L, Dr(0), Ar(2));
    a.move_(L, Dr(0), Dr(2));
    a.and(L, mask, Dr(2));
    a.move_(L, buf, Ar(1));
    a.add(L, Dr(2), Ar(1)); // src = buf + index
    a.move_(L, size, Dr(0));
    a.sub(L, Dr(2), Dr(0)); // contiguous bytes to ring end
    a.cmp(L, Dr(0), Dr(1));
    a.bcc(Cond::Hi, wrap);
    a.move_(L, Dr(1), Dr(2));
    emit_copy(&mut a, Dir::Read, 2);
    a.bra(publish);
    a.bind(wrap);
    a.move_(L, Dr(1), PreDec(7));
    a.sub(L, Dr(0), Ind(7));
    a.move_(L, Dr(0), Dr(2));
    emit_copy(&mut a, Dir::Read, 2);
    a.move_(L, buf, Ar(1));
    a.move_(L, PostInc(7), Dr(2));
    emit_copy(&mut a, Dir::Read, 2);

    a.bind(publish);
    a.move_(L, Ar(2), Dr(0));
    a.add(L, Dr(1), Dr(0));
    a.move_(L, Dr(0), tail_slot);
    a.add(L, Imm(1), gauge);
    // Wake a blocked writer, if any.
    a.tst(L, w_wait);
    a.bcc(Cond::Eq, no_waiter);
    a.move_(L, pid, Dr(2));
    a.kcall(super::super::syscall::kcalls::WAKE_PIPE_SPACE);
    a.bind(no_waiter);
    a.move_(L, Dr(1), Dr(0));
    a.rte();
    Template::from_asm(a).expect("assembles")
}
