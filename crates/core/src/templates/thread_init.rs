//! Thread creation's fill and destruction's release: the kernel-resident
//! routines that pop a thread block off the free list and write the new
//! thread's TTE, fd table, stack pointers, first kernel-stack frame and
//! vector table into it, and that push a dead thread's block back.
//!
//! "About 100 [µs] are needed to fill approximately 1 KBytes in the TTE"
//! (Section 6.3). The fill is code that runs: [`routine`] is straight-line
//! `movem.l` bursts of up to 14 registers, which `Kernel::boot` loads once
//! at [`layout::THREAD_INIT`] and every thread creation — the boot CPUs'
//! idle threads too — runs through `Kernel::call_routine`, every cycle
//! counted.
//!
//! # The free list
//!
//! A thread owns one block of [`layout::THREAD_BLOCK_LEN`] bytes: the TTE,
//! the vector table at `+TTE_LEN`, the kernel stack above it. Blocks no
//! thread owns sit on a LIFO list whose head is the long at
//! [`layout::THREAD_FREE`] (0: empty); a listed block's first long (the
//! TTE's saved `d0`, which the fill zeroes) links to the next. The fill
//! pops the head as its first instructions and derives the vector table
//! and the kernel-stack top from it with `lea`; [`fini`], loaded at
//! [`layout::THREAD_FINI`], pushes a block. The host reads the head before
//! the fill, to bind the block's addresses into the thread's synthesized
//! code, and grows the list from the fast-fit heap (one block, pushed by
//! [`fini`]) only when it is empty.
//!
//! Factoring Invariants at boot: what every thread shares (the FP,
//! spurious, alarm, tty and trampoline vectors, the `EBADF` routine in
//! every fd slot, and whether the IPI vector is the thread's own or
//! spurious, by the CPU count) is bound when the routine is made, as an
//! immediate or as a long of its constant pool at
//! [`layout::THREAD_INIT_POOL`]; what differs per thread comes in
//! registers ([`ThreadImage::regs`]).
//!
//! The routine writes the thread's image and nothing else but the list's
//! head:
//! - the 1 KB TTE: zero, but for the fd table (every slot `EBADF`), the
//!   saved USP (the user stack) and SSP (the frame below);
//! - the 6-byte frame at the top of the kernel stack that the first
//!   `sw_in`'s `rte` pops: the initial SR, then `entry`;
//! - the pinned vectors: the error traps (2–5, 8) at the thread's error
//!   handler, lazy FP (11), the seven interrupt levels (25–31), the
//!   sixteen traps (32–47). Every other vector is left as it was.
//!
//! # Contract
//!
//! | | |
//! |---|---|
//! | in | the block at the head of the free list; `d1` entry, `d2` initial SR, `d3` user SP, `d4` error handler, `d5` `sw_out`, `d0` `ipi_in` (read on a multiprocessor only), `a2`/`a3` the `trap #1`/`#2` dispatchers |
//! | out | the block popped |
//! | clobbers | every register but `a7`, and the CCR |
//!
//! [`fini`] takes the block in `a0`, pushes it, and clobbers nothing.

use quamachine::asm::Asm;
use quamachine::code::CodeBlock;
use quamachine::isa::{Operand, Operand::*, RegList, Size::*};

use super::RoutineRegs;
use crate::kernel::irq_levels;
use crate::layout;
use crate::syscall::traps;
use crate::thread::tte::{off, FD_MAX};

/// The routines every thread's vectors and fd slots name: made once per
/// boot, before the first thread.
#[derive(Debug, Clone, Copy)]
pub struct Shared {
    /// The lazy-FP trap.
    pub fp_trap: u32,
    /// The stub of every interrupt level no handler claims.
    pub spurious: u32,
    /// The alarm interrupt handler.
    pub alarm: u32,
    /// The tty receive interrupt handler.
    pub tty_rx: u32,
    /// The general kernel call's entry (every trap but `#1` and `#2`).
    pub trampoline: u32,
    /// The `EBADF` answer of a free fd slot.
    pub ebadf: u32,
}

/// What differs from one thread's image to the next, but for its block
/// (the free list's head).
#[derive(Debug, Clone, Copy)]
pub struct ThreadImage {
    /// Where the thread starts.
    pub entry: u32,
    /// Its initial user stack pointer.
    pub user_sp: u32,
    /// The SR it starts with.
    pub sr: u16,
    /// Its switch-out: the quantum vector.
    pub sw_out: u32,
    /// Its IPI entry: the IPI vector on a multiprocessor.
    pub ipi_in: u32,
    /// Its `trap #1` (read) dispatcher.
    pub dispatch_read: u32,
    /// Its `trap #2` (write) dispatcher.
    pub dispatch_write: u32,
    /// Its error-trap handler.
    pub error: u32,
}

impl ThreadImage {
    /// The registers the routine takes this image in (the contract in the
    /// module doc).
    #[must_use]
    pub fn regs(&self) -> RoutineRegs {
        RoutineRegs {
            d: [
                self.ipi_in,
                self.entry,
                u32::from(self.sr),
                self.user_sp,
                self.error,
                self.sw_out,
                0,
                0,
            ],
            a: [0, 0, self.dispatch_read, self.dispatch_write, 0, 0, 0],
        }
    }
}

/// `d0`–`d7` and `a1`–`a6`: the fourteen registers a zero burst stores
/// (`a0` is the TTE).
const BURST: RegList = RegList(0x7EFF);
/// `d0`–`d7` and `a2`–`a6`: the thirteen registers that store vectors
/// 25–37 in one burst, vector `25 + i` from the `i`-th.
const RUN_A: RegList = RegList(0x7CFF);
/// `d0`–`d7` and `a2`–`a3`: vectors 38–47, all the trampoline.
const RUN_B: RegList = RegList(0x0CFF);
/// `d0`–`d7`: the `EBADF` burst.
const EBADF: RegList = RegList(0x00FF);
/// The first vector of run A.
const RUN_A_FIRST: u32 = 25;
/// The first vector of run B.
const RUN_B_FIRST: u32 = RUN_A_FIRST + 13;

/// The vector of interrupt level `level`.
fn level(level: u8) -> u32 {
    24 + u32::from(level)
}

/// The vector of `trap #n`.
fn trap(n: u8) -> u32 {
    32 + u32::from(n)
}

/// Vector `v` of the table in `a1`.
fn vector(v: u32) -> Operand {
    Disp(
        i16::try_from(4 * v).expect("a vector table is 256 bytes"),
        1,
    )
}

/// Offset `at` of the thread block in `a0` (its TTE first).
fn tte(at: u32) -> Operand {
    Disp(i16::try_from(at).expect("a thread block is 3,328 bytes"), 0)
}

/// The registers of `list` in `movem` order, each as a one-register list.
fn regs(list: RegList) -> impl Iterator<Item = RegList> {
    (0..16)
        .filter(move |b| list.0 & (1 << b) != 0)
        .map(|b| RegList(1 << b))
}

/// The first `n` registers of `list` in `movem` order.
fn first(list: RegList, n: u32) -> RegList {
    regs(list)
        .take(n as usize)
        .fold(RegList::EMPTY, RegList::with)
}

/// The routine for a kernel of `cpus` CPUs that shares `shared`, and its
/// constant pool (the longs to store at [`layout::THREAD_INIT_POOL`]).
#[must_use]
pub fn routine(shared: &Shared, cpus: usize) -> (CodeBlock, Vec<u32>) {
    let mut pool = Vec::new();
    // Load `values` from the pool into `list`, in `movem` order.
    let mut load = |a: &mut Asm, list: RegList, values: &[u32]| {
        debug_assert_eq!(list.count() as usize, values.len());
        let at = layout::THREAD_INIT_POOL + 4 * pool.len() as u32;
        pool.extend_from_slice(values);
        a.movem_load(Abs(at), list);
    };
    let mut a = Asm::new("thread_init");

    // Pop the free list's head: the TTE, then the vector table and the
    // kernel-stack top at their offsets in the block.
    a.move_(L, Abs(layout::THREAD_FREE), Ar(0));
    a.move_(L, Ind(0), Abs(layout::THREAD_FREE));
    a.lea(tte(layout::TTE_LEN), 1);
    a.lea(tte(layout::THREAD_BLOCK_LEN), 4);

    // The frame `sw_in`'s `rte` pops into `entry`, pushed on the kernel
    // stack; the USP and SSP beside each other in the TTE.
    a.move_(L, Dr(1), PreDec(4));
    a.move_(W, Dr(2), PreDec(4));
    a.movem_save(RegList::d(3).with(RegList::a(4)), tte(off::USP));
    // Error traps (Section 4.3): bus error, address error, illegal, zero
    // divide (the 68020's vector; no instruction here raises it),
    // privilege violation.
    for v in [2, 3, 4, 5, 8] {
        a.move_(L, Dr(4), vector(v));
    }
    a.move_i(L, shared.fp_trap, vector(11));

    // Vectors 25–37 in one burst: the interrupt levels (a level no
    // handler claims is spurious), then the traps. The thread's own
    // entries are already in their registers; the pool fills the rest.
    let own = |v: u32| {
        (v == level(irq_levels::IPI) && cpus > 1)
            || v == level(irq_levels::QUANTUM)
            || v == trap(traps::READ)
            || v == trap(traps::WRITE)
    };
    let shared_at = |v: u32| match v {
        _ if v == level(irq_levels::ALARM) => shared.alarm,
        _ if v == level(irq_levels::TTY) => shared.tty_rx,
        _ if v < trap(0) => shared.spurious,
        _ => shared.trampoline,
    };
    let (mut fill, mut values) = (RegList::EMPTY, Vec::new());
    for (v, r) in (RUN_A_FIRST..).zip(regs(RUN_A)) {
        if !own(v) {
            fill = fill.with(r);
            values.push(shared_at(v));
        }
    }
    load(&mut a, fill, &values);
    a.movem_save(RUN_A, vector(RUN_A_FIRST));
    load(&mut a, RUN_B, &[shared.trampoline; 10]);
    a.movem_save(RUN_B, vector(RUN_B_FIRST));

    // The TTE: zero in 14-register bursts around the fd table and the
    // stack pointers.
    load(&mut a, BURST, &[0; 14]);
    let zero = |a: &mut Asm, from: u32, to: u32| {
        let mut at = from;
        while at < to {
            let longs = ((to - at) / 4).min(14);
            if longs == 1 {
                a.move_(L, Dr(0), tte(at));
            } else {
                a.movem_save(first(BURST, longs), tte(at));
            }
            at += 4 * longs;
        }
    };
    zero(&mut a, off::REGS, off::USP);
    zero(&mut a, off::FP, off::FD_TABLE);
    let fd_end = off::FD_TABLE + 8 * FD_MAX;
    zero(&mut a, fd_end, layout::TTE_LEN);
    // Every fd slot `EBADF`.
    load(&mut a, EBADF, &[shared.ebadf; 8]);
    for at in (off::FD_TABLE..fd_end).step_by(32) {
        a.movem_save(EBADF, tte(at));
    }
    a.rts();
    (a.assemble().expect("assembles"), pool)
}

/// The push of the thread block in `a0` onto the free list: its first
/// long links to the old head, and it becomes the head.
#[must_use]
pub fn fini() -> CodeBlock {
    let mut a = Asm::new("thread_fini");
    a.move_(L, Abs(layout::THREAD_FREE), Ind(0));
    a.move_(L, Ar(0), Abs(layout::THREAD_FREE));
    a.rts();
    a.assemble().expect("assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Shared {
        Shared {
            fp_trap: 0x1000,
            spurious: 0x1100,
            alarm: 0x1200,
            tty_rx: 0x1300,
            trampoline: 0x1400,
            ebadf: 0x1500,
        }
    }

    #[test]
    fn the_routine_and_its_pool_fit_their_slots() {
        for cpus in [1, 2] {
            let (block, pool) = routine(&shared(), cpus);
            assert!(block.size_bytes() <= layout::HOST_RETURN - layout::THREAD_INIT);
            assert!(fini().size_bytes() <= layout::THREAD_INIT_POOL - layout::THREAD_FINI);
            assert!(4 * pool.len() as u32 <= 0x100, "{} longs", pool.len());
        }
    }

    /// Run A stores vector `25 + i` from its `i`-th register: the thread's
    /// own vectors must be the registers [`ThreadImage::regs`] puts them in.
    #[test]
    fn run_a_stores_each_own_vector_from_its_argument_register() {
        let image = ThreadImage {
            entry: 0,
            user_sp: 0,
            sr: 0,
            // Each the number of the vector it belongs in, plus 0x100.
            sw_out: 0x100 + 30,
            ipi_in: 0x100 + 25,
            dispatch_read: 0x100 + 33,
            dispatch_write: 0x100 + 34,
            error: 0,
        };
        let r = image.regs();
        let value = |bit: u32| {
            if bit < 8 {
                r.d[bit as usize]
            } else {
                r.a[bit as usize - 8]
            }
        };
        for v in [
            level(irq_levels::IPI),
            level(irq_levels::QUANTUM),
            trap(traps::READ),
            trap(traps::WRITE),
        ] {
            let reg = regs(RUN_A).nth((v - RUN_A_FIRST) as usize).unwrap();
            assert_eq!(value(reg.0.trailing_zeros()), 0x100 + v, "vector {v}");
        }
    }
}
