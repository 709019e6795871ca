//! Bulk copy: one kernel-resident routine per direction, and the call
//! sequence every data path emits.
//!
//! "The generated code loads long words from one quaspace into registers
//! and stores them back in the other quaspace. With unrolled loops this
//! achieves the data transfer rate of about 8 MB per second" (Section
//! 6.2). The unrolled loop is [`copy_routine`]: 64 `move.l (src)+,(dst)+`
//! per 256 bytes under one `dbf`, then the 16-byte groups left over four
//! longs at a time. Every copy site moves bytes the same way, so the loop
//! is not synthesized per channel: `Kernel::boot` loads the two routines
//! once ([`load_routines`], at [`layout::COPY_WRITE`] and
//! [`layout::COPY_READ`]) and every CPU, thread and template — fused or
//! layered — calls the same code, which is never unloaded. What a template
//! inlines is [`emit_copy`]: the group count, a `jsr` when there is at
//! least one group, and the byte tail.
//!
//! # Contract of the routines
//!
//! | | |
//! |---|---|
//! | in | `d3` = bytes >> 4: at least 1, below 2^20 (a 16 MB copy) |
//! | out | source and destination advanced by 16 · `d3` |
//! | clobbers | `d3` and the CCR (the ABI's caller-saved set) |

use quamachine::asm::Asm;
use quamachine::code::CodeBlock;
use quamachine::error::MachineError;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use quamachine::machine::Machine;

use crate::layout;

/// Which way a copy moves data, and so which routine it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `(a0)+ → (a1)+`: the caller's buffer into the kernel's.
    Write,
    /// `(a1)+ → (a0)+`: the kernel's buffer into the caller's.
    Read,
}

impl Dir {
    /// `(source, destination)` address registers.
    fn regs(self) -> (u8, u8) {
        match self {
            Dir::Write => (0, 1),
            Dir::Read => (1, 0),
        }
    }

    /// Where this direction's routine is loaded.
    fn routine(self) -> u32 {
        match self {
            Dir::Write => layout::COPY_WRITE,
            Dir::Read => layout::COPY_READ,
        }
    }
}

/// The resident routine for `dir` (contract in the module doc).
#[must_use]
pub fn copy_routine(dir: Dir) -> CodeBlock {
    let (src, dst) = dir.regs();
    let mut a = Asm::new(match dir {
        Dir::Write => "copy_write",
        Dir::Read => "copy_read",
    });
    let groups = a.label();
    let done = a.label();
    // Both counts ride in d3, so nothing is saved: the low word holds the
    // 256-byte blocks (`dbf` counts only it) and bits 28–31 the groups
    // left over.
    a.shift(ShiftKind::Ror, L, Imm(4), Dr(3));
    a.tst(W, Dr(3));
    a.bcc(Cond::Eq, groups);
    a.sub(W, Imm(1), Dr(3));
    let block = a.here();
    for _ in 0..64 {
        a.move_(L, PostInc(src), PostInc(dst));
    }
    a.dbf(3, block);
    a.bind(groups);
    a.shift(ShiftKind::Rol, L, Imm(4), Dr(3));
    a.and(L, Imm(15), Dr(3));
    a.bcc(Cond::Eq, done);
    a.sub(L, Imm(1), Dr(3));
    let group = a.here();
    for _ in 0..4 {
        a.move_(L, PostInc(src), PostInc(dst));
    }
    a.dbf(3, group);
    a.bind(done);
    a.rts();
    a.assemble().expect("assembles")
}

/// Load both routines where every copy site calls them: what
/// `Kernel::boot` does once, and what a bare [`Machine`] running
/// synthesized data paths must do first.
///
/// # Errors
///
/// Fails if code is already loaded there.
pub fn load_routines(m: &mut Machine) -> Result<(), MachineError> {
    for dir in [Dir::Write, Dir::Read] {
        m.load_block(dir.routine(), copy_routine(dir))?;
    }
    Ok(())
}

/// Emit code copying `d{len}` bytes in direction `dir`: the 16-byte
/// groups through the resident routine, the rest a byte at a time.
///
/// Clobbers `d{len}` and `d3`; on exit the address registers point past
/// the copied data. `len` may be 0.
pub fn emit_copy(a: &mut Asm, dir: Dir, len: u8) {
    debug_assert_ne!(len, 3, "d3 carries the group count");
    let (src, dst) = dir.regs();
    let tail = a.label();
    let done = a.label();
    a.move_(L, Dr(len), Dr(3));
    a.shift(ShiftKind::Lsr, L, Imm(4), Dr(3)); // groups; Z when none
    a.bcc(Cond::Eq, tail);
    a.jsr(Abs(dir.routine()));
    a.bind(tail);
    a.and(L, Imm(15), Dr(len));
    a.bcc(Cond::Eq, done);
    a.sub(L, Imm(1), Dr(len));
    let byte = a.here();
    a.move_(B, PostInc(src), PostInc(dst));
    a.dbf(len, byte);
    a.bind(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::machine::{MachineConfig, RunExit};

    const ENTRY: u32 = 0x1000;
    const SRC: u32 = 0x1_0000;
    const DST: u32 = 0x2_0000;
    /// Guard bytes on each side of the destination.
    const GUARD: u32 = 16;
    const LONGEST: u32 = 4097;

    /// A bare machine with the routines loaded and, at `ENTRY`, one copy
    /// site per direction (each followed by `halt`): `[write, read]`.
    fn machine(len: u8) -> (Machine, [u32; 2]) {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        load_routines(&mut m).unwrap();
        let mut entries = [0; 2];
        let mut at = ENTRY;
        for (i, dir) in [Dir::Write, Dir::Read].into_iter().enumerate() {
            let mut a = Asm::new("site");
            emit_copy(&mut a, dir, len);
            a.halt();
            let block = a.assemble().unwrap();
            let size = block.size_bytes();
            entries[i] = m.load_block(at, block).unwrap();
            at += size;
        }
        m.mem.poke_bytes(SRC, &pattern(LONGEST));
        (m, entries)
    }

    /// The bytes at `SRC`.
    fn pattern(n: u32) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Copy `n` bytes through the site at `entry` with the count in
    /// `d{len}`, from registers that each start at a value of their own
    /// into a destination between guards; check the bytes, the guards and
    /// every register the contract keeps, and return the cycles taken.
    fn copy(m: &mut Machine, entry: u32, dir: Dir, len: u8, n: u32) -> u64 {
        let (src, dst) = dir.regs();
        m.mem
            .poke_bytes(DST - GUARD, &vec![0xA5; (n + 2 * GUARD) as usize]);
        for r in 0..8 {
            m.cpu.d[r] = 0xD0D0_0000 + r as u32;
            m.cpu.a[r] = 0xA0A0_0000 + r as u32;
        }
        m.cpu.a[7] = 0xF000;
        m.cpu.d[usize::from(len)] = n;
        m.cpu.a[usize::from(src)] = SRC;
        m.cpu.a[usize::from(dst)] = DST;
        let (d, a) = (m.cpu.d, m.cpu.a);
        m.cpu.pc = entry;
        let before = m.meter.cycles;
        assert_eq!(m.run(10_000_000), RunExit::Halted);

        let what = format!("{dir:?} {n} bytes, count in d{len}");
        assert_eq!(m.mem.peek_bytes(DST, n), pattern(n), "{what}");
        let guards = [DST - GUARD, DST + n].map(|at| m.mem.peek_bytes(at, GUARD));
        assert_eq!(
            guards,
            [[0xA5; GUARD as usize]; 2].map(Vec::from),
            "{what}: guards"
        );
        let mut want_a = a;
        want_a[usize::from(src)] += n;
        want_a[usize::from(dst)] += n;
        assert_eq!(m.cpu.a, want_a, "{what}: address registers");
        let (mut got_d, mut want_d) = (m.cpu.d, d);
        for r in [3, usize::from(len)] {
            (got_d[r], want_d[r]) = (0, 0);
        }
        assert_eq!(got_d, want_d, "{what}: data registers but d3 and d{len}");
        m.meter.cycles - before
    }

    /// Cycles of one copy site moving `n` bytes, at 4 cycles per bus
    /// reference: the site's fixed 16, then the `jsr` and routine when
    /// there is a 16-byte group, then the byte tail.
    fn cycles(n: u32) -> u64 {
        let (groups, bytes) = (u64::from(n >> 4), u64::from(n & 15));
        let (blocks, rest) = (groups >> 4, groups & 15);
        let blocks = if blocks > 0 { 646 * blocks } else { 2 };
        let rest = if rest > 0 { 46 * rest } else { 2 };
        let call = if groups > 0 {
            8 + 32 + blocks + rest
        } else {
            2
        };
        16 + call + if bytes > 0 { 16 * bytes } else { 2 }
    }

    #[test]
    fn every_length_copies_exactly_in_both_directions() {
        for len in [1u8, 2] {
            let (mut m, entries) = machine(len);
            for (dir, entry) in [Dir::Write, Dir::Read].into_iter().zip(entries) {
                for n in (0..=1100).chain(4095..=LONGEST) {
                    let took = copy(&mut m, entry, dir, len, n);
                    assert_eq!(took, cycles(n), "{dir:?} {n} bytes: cycles");
                }
            }
        }
    }

    #[test]
    fn the_routines_fit_their_slots() {
        for dir in [Dir::Write, Dir::Read] {
            let size = copy_routine(dir).size_bytes();
            assert!(
                size <= layout::COPY_READ - layout::COPY_WRITE,
                "{dir:?}: {size} bytes"
            );
        }
    }

    #[test]
    fn transfer_rate_is_near_8mb_per_second() {
        // 4 KB at 16 MHz + 1 ws: 16 blocks of 64 `move.l`s. Each move is
        // 2 cycles plus 2 bus references (10 cycles per 4 bytes), so the
        // model's floor is 6.4 MB/s against the paper's ~8.
        let (mut m, entries) = machine(2);
        let took = copy(&mut m, entries[0], Dir::Write, 2, 4096);
        let rate_mb_s = 4096.0 / m.cost.cycles_to_us(took); // bytes/µs == MB/s
        assert!(
            (6.2..6.4).contains(&rate_mb_s),
            "copy rate = {rate_mb_s:.2} MB/s (paper: ~8)"
        );
    }
}
