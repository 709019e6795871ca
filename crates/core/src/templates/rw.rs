//! Synthesized `read`/`write` routines.
//!
//! "When we open a file for input, a custom-made (thus short and fast)
//! read routine is returned for later read calls" (Section 1). Each
//! routine here is the body a trap-dispatch jumps into: arguments arrive
//! in registers (see [`super`]), the result goes in `d0`, and the routine
//! ends with `rte`, returning straight to the user — no layers in
//! between.
//!
//! Specialization points (holes) per flavour:
//!
//! - `/dev/null`: nothing — reads return 0 bytes, writes succeed;
//! - tty: the device registers and the raw input queue's location;
//! - file: the cache buffer's address and capacity, and the open file's
//!   offset/length slots.
//!
//! `rw_generic` is the baseline: one routine handling every object kind
//! by consulting a descriptor at run time — the layered, general-purpose
//! code that synthesis specializes away. It is in no kernel's library: it
//! is built only for this module's tests, which hold the specialized read
//! to fewer cycles than it.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, IndexSpec, Operand::*, Size::*};
use synthesis_codegen::template::Template;

use super::copy::{emit_copy, Dir};
use crate::syscall::kcalls;

/// `read(/dev/null)`: always 0 bytes (EOF).
#[must_use]
pub fn read_null_template() -> Template {
    let mut a = Asm::new("read_null");
    let gauge = a.abs_hole("gauge");
    a.add(L, Imm(1), gauge);
    a.move_i(L, 0, Dr(0));
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `write(/dev/null)`: accept everything.
#[must_use]
pub fn write_null_template() -> Template {
    let mut a = Asm::new("write_null");
    let gauge = a.abs_hole("gauge");
    a.add(L, Imm(1), gauge);
    a.move_(L, Dr(1), Dr(0));
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `read(tty)`: drain up to `d1` characters from the raw input queue
/// (filled by the tty receive interrupt); block when nothing is there.
///
/// Queue layout: free-running `head` (producer/IRQ) and `tail` (consumer)
/// counters; data ring of `mask + 1` bytes.
#[must_use]
pub fn read_tty_template() -> Template {
    let mut a = Asm::new("read_tty");
    let qhead = a.abs_hole("qhead");
    let qtail = a.abs_hole("qtail");
    let qbuf = a.imm_hole("qbuf");
    let mask = a.imm_hole("qmask");
    let gauge = a.abs_hole("gauge");

    let done = a.label();
    let empty = a.label();
    a.move_i(L, 0, Dr(0)); // bytes read
    let top = a.here();
    a.cmp(L, Dr(1), Dr(0)); // d0 - d1
    a.bcc(Cond::Cc, done); // d0 >= d1: count satisfied
    a.move_(L, qtail, Dr(2));
    a.cmp(L, qhead, Dr(2)); // d2 - head
    a.bcc(Cond::Eq, empty);
    // One byte out of the ring.
    a.move_(L, Dr(2), Dr(3));
    a.and(L, mask, Dr(3));
    a.move_(L, qbuf, Ar(1));
    a.move_(B, Idx(0, 1, IndexSpec::d(3, 1)), PostInc(0));
    a.add(L, Imm(1), Dr(2));
    a.move_(L, Dr(2), qtail);
    a.add(L, Imm(1), Dr(0));
    a.bra(top);
    a.bind(empty);
    // Return short reads; block only when nothing at all arrived.
    a.tst(L, Dr(0));
    a.bcc(Cond::Ne, done);
    a.kcall(kcalls::WAIT_TTY);
    a.bra(top);
    a.bind(done);
    a.add(L, Imm(1), gauge);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `write(tty)`: push `d1` bytes from the user buffer to the screen.
#[must_use]
pub fn write_tty_template() -> Template {
    let mut a = Asm::new("write_tty");
    let data_reg = a.abs_hole("tty_data");
    let gauge = a.abs_hole("gauge");
    let done = a.label();
    a.move_(L, Dr(1), Dr(0));
    a.tst(L, Dr(1));
    a.bcc(Cond::Eq, done);
    a.sub(L, Imm(1), Dr(1));
    let top = a.here();
    a.move_(B, PostInc(0), Dr(2));
    a.move_(L, Dr(2), data_reg);
    a.dbf(1, top);
    a.bind(done);
    a.add(L, Imm(1), gauge);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `read(file)`: copy from the (memory-resident) cache buffer at the
/// current offset into the user buffer; clamp to the remaining length.
#[must_use]
pub fn read_file_template() -> Template {
    let mut a = Asm::new("read_file");
    let offset_slot = a.abs_hole("offset_slot");
    let len_slot = a.abs_hole("len_slot");
    let buf = a.imm_hole("buf");
    let gauge = a.abs_hole("gauge");

    let ok = a.label();
    a.move_(L, offset_slot, Dr(2));
    a.move_(L, len_slot, Dr(3));
    a.sub(L, Dr(2), Dr(3)); // remaining = len - offset
    a.cmp(L, Dr(3), Dr(1)); // d1 - remaining
    a.bcc(Cond::Ls, ok);
    a.move_(L, Dr(3), Dr(1)); // clamp
    a.bind(ok);
    a.move_(L, buf, Ar(1));
    a.add(L, Dr(2), Ar(1)); // src = buf + offset
    a.move_(L, Dr(1), Dr(0)); // return value
    a.add(L, Dr(0), Dr(2));
    a.move_(L, Dr(2), offset_slot); // offset += n
    a.add(L, Imm(1), gauge);
    emit_copy(&mut a, Dir::Read, 1);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// `write(file)`: copy from the user buffer into the cache buffer at the
/// current offset; extend the length; clamp to the buffer capacity.
#[must_use]
pub fn write_file_template() -> Template {
    let mut a = Asm::new("write_file");
    let offset_slot = a.abs_hole("offset_slot");
    let len_slot = a.abs_hole("len_slot");
    let buf = a.imm_hole("buf");
    let cap = a.imm_hole("cap");
    let gauge = a.abs_hole("gauge");

    let ok = a.label();
    let noext = a.label();
    a.move_(L, offset_slot, Dr(2));
    a.move_(L, cap, Dr(3));
    a.sub(L, Dr(2), Dr(3)); // space = cap - offset
    a.cmp(L, Dr(3), Dr(1));
    a.bcc(Cond::Ls, ok);
    a.move_(L, Dr(3), Dr(1)); // clamp to capacity
    a.bind(ok);
    a.move_(L, buf, Ar(1));
    a.add(L, Dr(2), Ar(1)); // dst = buf + offset
    a.move_(L, Dr(1), Dr(0));
    a.add(L, Dr(0), Dr(2));
    a.move_(L, Dr(2), offset_slot);
    // Extend length when the write went past it.
    a.move_(L, len_slot, Dr(3));
    a.cmp(L, Dr(2), Dr(3)); // len - newoff
    a.bcc(Cond::Cc, noext); // len >= newoff
    a.move_(L, Dr(2), len_slot);
    a.bind(noext);
    a.add(L, Imm(1), gauge);
    emit_copy(&mut a, Dir::Write, 1);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// Object kinds understood by the generic routine; kind 0 is
/// `/dev/null`.
#[cfg(test)]
mod obj_kind {
    /// The tty.
    pub const TTY: u32 = 1;
    /// A cached file.
    pub const FILE: u32 = 2;
}

/// The general-purpose, unspecialized read/write — the baseline the
/// synthesized routines are measured against.
///
/// Entry `read` (the default) or mark `write`. The object descriptor's
/// address arrives in `a2`; its longs are `+0` kind, `+4` offset, `+8`
/// length, `+12` buffer address, `+16` capacity, `+20` device data
/// register, `+24` gauge address. Every decision the synthesized routines
/// fold away is taken at run time here.
#[cfg(test)]
fn rw_generic_template() -> Template {
    let mut a = Asm::new("rw_generic");
    let gauge_indirect = 24i16;

    // --- read entry ------------------------------------------------------
    a.mark("read");
    {
        let not_null = a.label();
        let not_tty = a.label();
        let done = a.label();
        let ok = a.label();
        // kind checks, every call.
        a.move_(L, Disp(0, 2), Dr(2));
        a.tst(L, Dr(2));
        a.bcc(Cond::Ne, not_null);
        a.move_i(L, 0, Dr(0));
        a.bra(done);
        a.bind(not_null);
        a.cmp(L, Imm(obj_kind::TTY), Dr(2));
        a.bcc(Cond::Ne, not_tty);
        // Generic tty read: one blocking character via the kernel.
        a.kcall(kcalls::WAIT_TTY);
        a.move_i(L, 1, Dr(0));
        a.bra(done);
        a.bind(not_tty);
        // Generic file read: all parameters loaded from the descriptor.
        a.move_(L, Disp(4, 2), Dr(2)); // offset
        a.move_(L, Disp(8, 2), Dr(3)); // length
        a.sub(L, Dr(2), Dr(3));
        a.cmp(L, Dr(3), Dr(1));
        a.bcc(Cond::Ls, ok);
        a.move_(L, Dr(3), Dr(1));
        a.bind(ok);
        a.move_(L, Disp(12, 2), Ar(1)); // buffer pointer (indirect!)
        a.add(L, Dr(2), Ar(1));
        a.move_(L, Dr(1), Dr(0));
        a.add(L, Dr(0), Dr(2));
        a.move_(L, Dr(2), Disp(4, 2));
        emit_copy(&mut a, Dir::Read, 1);
        a.bind(done);
        a.add(L, Imm(1), Disp(gauge_indirect, 2));
        a.rte();
    }

    // --- write entry -----------------------------------------------------
    a.mark("write");
    {
        let not_null = a.label();
        let not_tty = a.label();
        let done = a.label();
        let ok = a.label();
        let noext = a.label();
        a.move_(L, Disp(0, 2), Dr(2));
        a.tst(L, Dr(2));
        a.bcc(Cond::Ne, not_null);
        a.move_(L, Dr(1), Dr(0));
        a.bra(done);
        a.bind(not_null);
        a.cmp(L, Imm(obj_kind::TTY), Dr(2));
        a.bcc(Cond::Ne, not_tty);
        // Generic tty write: push through the descriptor's device reg.
        {
            let wdone = a.label();
            a.move_(L, Dr(1), Dr(0));
            a.tst(L, Dr(1));
            a.bcc(Cond::Eq, wdone);
            a.sub(L, Imm(1), Dr(1));
            let top = a.here();
            a.move_(B, PostInc(0), Dr(2));
            a.move_(L, Disp(20, 2), Ar(1));
            a.move_(L, Dr(2), Ind(1));
            a.dbf(1, top);
            a.bind(wdone);
            a.bra(done);
        }
        a.bind(not_tty);
        a.move_(L, Disp(4, 2), Dr(2));
        a.move_(L, Disp(16, 2), Dr(3));
        a.sub(L, Dr(2), Dr(3));
        a.cmp(L, Dr(3), Dr(1));
        a.bcc(Cond::Ls, ok);
        a.move_(L, Dr(3), Dr(1));
        a.bind(ok);
        a.move_(L, Disp(12, 2), Ar(1));
        a.add(L, Dr(2), Ar(1));
        a.move_(L, Dr(1), Dr(0));
        a.add(L, Dr(0), Dr(2));
        a.move_(L, Dr(2), Disp(4, 2));
        a.move_(L, Disp(8, 2), Dr(3));
        a.cmp(L, Dr(2), Dr(3));
        a.bcc(Cond::Cc, noext);
        a.move_(L, Dr(2), Disp(8, 2));
        a.bind(noext);
        emit_copy(&mut a, Dir::Write, 1);
        a.bind(done);
        a.add(L, Imm(1), Disp(gauge_indirect, 2));
        a.rte();
    }

    Template::from_asm(a).expect("assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::machine::{Machine, MachineConfig, RunExit};
    use synthesis_codegen::creator::{QuajectCreator, SynthesisOptions};
    use synthesis_codegen::template::Bindings;

    /// Cycles for one `n`-byte read of a 64 KB file through the
    /// specialized `read_file` or through `rw_generic`'s `read` entry,
    /// which re-derives everything from a descriptor at run time. Both
    /// move the bytes through the same resident copy routine.
    fn read_cycles(n: u32, generic: bool) -> u64 {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        super::super::copy::load_routines(&mut m).unwrap();
        let mut c = QuajectCreator::new(0x10_0000, 0x2_0000);
        c.lib.add(read_file_template());
        c.lib.add(rw_generic_template());
        let buf = 0x2_0000u32;
        let len_slot = 0x1_0000u32;
        let offset_slot = 0x1_0004u32;
        let gauge = 0x1_0008u32;
        let desc = 0x1_0020u32;
        m.mem.poke(len_slot, L, 65536);
        m.mem.poke(offset_slot, L, 0);
        // The generic routine's descriptor: kind, offset, length, buffer,
        // capacity.
        m.mem.poke(desc, L, obj_kind::FILE);
        m.mem.poke(desc + 4, L, 0);
        m.mem.poke(desc + 8, L, 65536);
        m.mem.poke(desc + 12, L, buf);
        m.mem.poke(desc + 16, L, 65536);

        let entry = if generic {
            let s = c
                .synthesize(
                    &mut m,
                    "rw_generic",
                    &Bindings::new(),
                    SynthesisOptions::full(),
                )
                .unwrap();
            s.entry("read").expect("rw_generic marks read")
        } else {
            let b = Bindings::new()
                .with("offset_slot", offset_slot)
                .with("len_slot", len_slot)
                .with("buf", buf)
                .with("gauge", gauge);
            c.synthesize(&mut m, "read_file", &b, SynthesisOptions::full())
                .unwrap()
                .base
        };
        // A halt block the routine's rte returns into, via a fabricated
        // frame.
        let mut h = Asm::new("after");
        h.halt();
        let after = m.load_block(0xF000, h.assemble().unwrap()).unwrap();
        m.cpu.a[7] = 0x8000 - 6;
        m.mem.poke(0x8000 - 6, W, 0x2000);
        m.mem.poke(0x8000 - 4, L, after);
        m.cpu.pc = entry;
        m.cpu.d[0] = 0; // fd
        m.cpu.d[1] = n; // count
        m.cpu.a[0] = 0x9000; // destination
        m.cpu.a[2] = desc;
        let before = m.meter.cycles;
        assert_eq!(m.run(10_000_000), RunExit::Halted);
        assert_eq!(m.cpu.d[0], n, "read returned the full count");
        m.meter.cycles - before
    }

    /// The Factoring Invariants claim: the read synthesized at open
    /// beats the general-purpose routine at every size.
    #[test]
    fn specialized_read_beats_the_generic_routine() {
        for n in [1, 1024] {
            let spec = read_cycles(n, false);
            let generic = read_cycles(n, true);
            assert!(
                spec < generic,
                "read {n} B: specialized {spec} cycles vs generic {generic}"
            );
        }
    }
}
