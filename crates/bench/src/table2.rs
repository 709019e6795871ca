//! Table 2 — file and device I/O, native Synthesis vs UNIX emulation.
//!
//! Every row is made of single calls counted on the path probe
//! ([`crate::path`]): one caller thread, with the UNIX personality
//! installed under the user-window map (the layered path), makes each call
//! — native through the Synthesis traps, emulated through `trap #3` — and
//! each is counted from its `trap` to the first instruction back in user
//! code. An open+close row is the counted open plus the counted close of
//! the pair after one warm-up pair; the cold and warm opens are the first
//! two opens of a file.

use quamachine::isa::{Operand::*, Size::*};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};
use synthesis_unix::abi;

use crate::path::Probe;
use crate::Row;

const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;

/// `/dev/null`, in the caller's space.
const DEV_NULL: u32 = UPATH;
/// `/dev/tty`, in the caller's space.
pub const DEV_TTY: u32 = UPATH + 0x10;
/// A file no row but the cold and warm opens touches.
const BENCH_FILE: u32 = UPATH + 0x20;

/// The caller's descriptor for `/dev/null`.
const NULL_FD: u32 = 0;
/// The caller's descriptor for a 64 KB file.
const FILE_FD: u32 = 1;

/// Which interface a call goes through.
#[derive(Debug, Clone, Copy)]
pub enum Abi {
    /// The Synthesis traps.
    Native,
    /// The UNIX emulator's `trap #3`.
    Emulated,
}

/// The specialization-cache figures of the cold and warm opens.
#[derive(Debug, Clone, Copy)]
pub struct CacheBench {
    /// First `open()` of a path: full synthesis (µs).
    pub cold_us: f64,
    /// Second `open()` of the same path: cache hit, link cost only (µs).
    pub warm_us: f64,
    /// Specialization-cache hits over the two opens.
    pub hits: u64,
    /// Specialization-cache misses over the two opens.
    pub misses: u64,
    /// Hit rate over the two opens.
    pub hit_rate: f64,
    /// Bytes of synthesized code shared instead of duplicated.
    pub shared_bytes: u64,
}

/// A probe running the caller every row's calls are made by, with
/// `/dev/null` open as descriptor 0 and a cached 64 KB file as 1.
#[must_use]
pub fn probe() -> Probe {
    let mut p = Probe::boot();
    let idle = p.load_spinner(|_| {});
    let caller = p.create(idle);
    let k = &mut p.emu.k;
    k.m.mem.poke_bytes(DEV_NULL, b"/dev/null\0");
    k.m.mem.poke_bytes(DEV_TTY, b"/dev/tty\0");
    k.m.mem.poke_bytes(BENCH_FILE, b"/tmp/bench\0");
    let [file, _] = ["/tmp/f", "/tmp/bench"].map(|name| {
        k.fs.create(&mut k.m, &mut k.heap, name, 65536)
            .expect("file fits")
    });
    k.fs.write_contents(&mut k.m, file, &[0x33; 65536]);
    assert_eq!(k.open_for(caller, "/dev/null"), Ok(NULL_FD));
    assert_eq!(k.open_for(caller, "/tmp/f"), Ok(FILE_FD));
    p.emu.install(caller).expect("UNIX personality installs");
    p.emu.k.start(caller).expect("caller starts");
    p
}

/// Cycles of a read of `n` bytes from descriptor `fd`.
fn read(p: &mut Probe, abi: Abi, fd: u32, n: u32) -> u64 {
    p.call(|a| match abi {
        Abi::Native => {
            a.move_i(L, fd, Dr(0));
            a.lea(Abs(UBUF), 0);
            a.move_i(L, n, Dr(1));
            a.trap(traps::READ);
        }
        Abi::Emulated => {
            a.move_i(L, abi::SYS_READ, Dr(0));
            a.move_i(L, fd, Dr(1));
            a.lea(Abs(UBUF), 0);
            a.move_i(L, n, Dr(2));
            a.trap(abi::UNIX_TRAP);
        }
    })
    .cycles
}

/// The selector of the general call `native`, or of the UNIX call `unix`,
/// and the trap that makes it.
fn selector(abi: Abi, native: u32, unix: u32) -> (u32, u8) {
    match abi {
        Abi::Native => (native, traps::GENERAL),
        Abi::Emulated => (unix, abi::UNIX_TRAP),
    }
}

/// Cycles of an open of the path at `path`; the descriptor is left in `d0`.
fn open(p: &mut Probe, abi: Abi, path: u32) -> u64 {
    let (sysno, trap) = selector(abi, general::OPEN, abi::SYS_OPEN);
    p.call(|a| {
        a.move_i(L, sysno, Dr(0));
        a.lea(Abs(path), 0);
        a.trap(trap);
    })
    .cycles
}

/// Cycles of a close of the descriptor in `d0`.
fn close(p: &mut Probe, abi: Abi) -> u64 {
    let (sysno, trap) = selector(abi, general::CLOSE, abi::SYS_CLOSE);
    p.call(|a| {
        a.move_(L, Dr(0), Dr(1));
        a.move_i(L, sysno, Dr(0));
        a.trap(trap);
    })
    .cycles
}

/// Cycles of one open+close pair of the path at `path`: the counted open
/// plus the counted close.
pub fn open_close(p: &mut Probe, abi: Abi, path: u32) -> u64 {
    open(p, abi, path) + close(p, abi)
}

/// Regenerate Table 2, with the cache figures of its cold and warm opens.
#[must_use]
pub fn run() -> (Vec<Row>, CacheBench) {
    run_on(&mut probe())
}

/// [`run`] on `p`, a fresh [`probe`].
pub fn run_on(p: &mut Probe) -> (Vec<Row>, CacheBench) {
    let hits_misses = |p: &Probe| {
        let stats = &p.emu.k.creator.stats;
        (stats.cache_hits, stats.cache_misses)
    };
    let (hits0, misses0) = hits_misses(p);
    let cold = open(p, Abi::Native, BENCH_FILE);
    let warm = open(p, Abi::Native, BENCH_FILE);
    let (hits1, misses1) = hits_misses(p);

    let [oc_null_nat, oc_null_emu, oc_tty_nat, oc_tty_emu] = [
        (Abi::Native, DEV_NULL),
        (Abi::Emulated, DEV_NULL),
        (Abi::Native, DEV_TTY),
        (Abi::Emulated, DEV_TTY),
    ]
    .map(|(abi, path)| {
        open_close(p, abi, path);
        open_close(p, abi, path)
    });
    let [null_nat, null_emu, read1_nat, read1_emu, read1k_nat, read1k_emu] = [
        (Abi::Native, NULL_FD, 16),
        (Abi::Emulated, NULL_FD, 16),
        (Abi::Native, FILE_FD, 1),
        (Abi::Emulated, FILE_FD, 1),
        (Abi::Native, FILE_FD, 1024),
        (Abi::Emulated, FILE_FD, 1024),
    ]
    .map(|(abi, fd, n)| read(p, abi, fd, n));

    let us = |cycles| p.emu.k.m.cost.cycles_to_us(cycles);
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    let cache = CacheBench {
        cold_us: us(cold),
        warm_us: us(warm),
        hits,
        misses,
        hit_rate: hits as f64 / (hits + misses) as f64,
        shared_bytes: p.emu.k.creator.cache.shared_bytes(),
    };
    let rows = [
        ("emulation trap overhead", Some(2.0), null_emu - null_nat),
        ("open+close /dev/null (native)", Some(61.0), oc_null_nat),
        ("open+close /dev/null (emulated)", Some(71.0), oc_null_emu),
        ("open+close /dev/tty (native)", Some(80.0), oc_tty_nat),
        ("open+close /dev/tty (emulated)", Some(90.0), oc_tty_emu),
        ("read 1 char from file (native)", Some(9.0), read1_nat),
        ("read 1 char from file (emulated)", Some(10.0), read1_emu),
        (
            "read 1 KB from file (native, 9+N/8)",
            Some(137.0),
            read1k_nat,
        ),
        (
            "read 1 KB from file (emulated, 10+N/8)",
            Some(138.0),
            read1k_emu,
        ),
        ("read N from /dev/null (native)", Some(6.0), null_nat),
        ("read N from /dev/null (emulated)", Some(8.0), null_emu),
        ("open file, cold (synthesizes)", None, cold),
        ("open file, warm (cache hit)", None, warm),
    ];
    let rows = rows.map(|(what, paper, cycles)| Row::new(what, paper, us(cycles), "us"));
    (rows.into(), cache)
}
