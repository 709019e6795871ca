//! The Appendix-A benchmark programs (Table 1).
//!
//! Seven programs, written once against the UNIX trap ABI and run
//! unmodified on both kernels:
//!
//! 1. the compute-bound calibration: a chaotic sequence (Hofstadter's
//!    Q-like recurrence) that "touches a large array at non-contiguous
//!    points, which ensures that we are not just measuring the
//!    'in-the-cache' performance" (Section 6.1);
//! 2. (through 4.) write-then-read-back through a pipe in chunks of 1,
//!    1024, and 4096 bytes;
//! 5. read and write a (cached) file in 1 KB chunks;
//! 6. `open("/dev/null")`/`close` loops;
//! 7. `open("/dev/tty")`/`close` loops.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, IndexSpec, Operand::*, ShiftKind, Size::*};

use crate::abi;

/// Addresses the programs use for their data (inside the user quaspace).
pub mod addrs {
    use synthesis_core::layout::USER_BASE;

    /// I/O buffer (up to 8 KB).
    pub const BUF: u32 = USER_BASE + 0x2_0000;
    /// Path strings.
    pub const PATHS: u32 = USER_BASE + 0x2_8000;
    /// Destination buffer of [`pipe_xfer`](super::pipe_xfer), disjoint
    /// from the source at [`BUF`].
    pub const XFER_DST: u32 = BUF + 0x4000;
    /// Result slot: programs may store a checksum here.
    pub const RESULT: u32 = USER_BASE + 0x2_9000;
    /// The chaotic-sequence array (up to 64 K entries × 4 bytes).
    pub const QARRAY: u32 = USER_BASE + 0x4_0000;
    /// Initial user stack pointer.
    pub const USTACK: u32 = USER_BASE + 0x1_0000;
}

/// Null-terminated path strings the loader must place at
/// [`addrs::PATHS`]: `/dev/null` at +0, `/dev/tty` at +0x10,
/// `/tmp/bench` at +0x20.
#[must_use]
pub fn path_blob() -> Vec<u8> {
    let mut v = vec![0u8; 0x30];
    v[..10].copy_from_slice(b"/dev/null\0");
    v[0x10..0x10 + 9].copy_from_slice(b"/dev/tty\0");
    v[0x20..0x20 + 11].copy_from_slice(b"/tmp/bench\0");
    v
}

fn emit_exit(a: &mut Asm) {
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    // Not reached; keeps the verifier happy about fallthrough.
    let dead = a.here();
    a.bcc(Cond::T, dead);
}

/// Program 1 — the compute calibration.
///
/// A Q-like chaotic recurrence over `len` entries, iterated `iters`
/// times: `q[i] = q[i - q[i-1] mod i] + q[i - q[i-2] mod i]` with the
/// indices bounced around the array non-contiguously. The checksum lands
/// in [`addrs::RESULT`].
#[must_use]
pub fn compute(len: u32, iters: u32) -> Asm {
    assert!(len.is_power_of_two() && len >= 4);
    let mask = len - 1;
    let mut a = Asm::new("p1_compute");
    // Seed q[0..2] = 1.
    a.move_i(L, 1, Abs(addrs::QARRAY));
    a.move_i(L, 1, Abs(addrs::QARRAY + 4));
    a.move_i(L, iters, Dr(7)); // outer counter
    let outer = a.here();
    // i runs 2..len; a1 = &q[0].
    a.lea(Abs(addrs::QARRAY), 1);
    a.move_i(L, 2, Dr(6)); // i
    let inner = a.here();
    // d0 = q[i-1]; d1 = q[i-2].
    a.move_(L, Dr(6), Dr(2));
    a.sub(L, Imm(1), Dr(2));
    a.shift(ShiftKind::Lsl, L, Imm(2), Dr(2));
    a.move_(L, Idx(0, 1, IndexSpec::d(2, 1)), Dr(0));
    a.move_(L, Dr(6), Dr(2));
    a.sub(L, Imm(2), Dr(2));
    a.shift(ShiftKind::Lsl, L, Imm(2), Dr(2));
    a.move_(L, Idx(0, 1, IndexSpec::d(2, 1)), Dr(1));
    // idx0 = (i - q[i-1]) & mask ; idx1 = (i - q[i-2]) & mask.
    a.move_(L, Dr(6), Dr(2));
    a.sub(L, Dr(0), Dr(2));
    a.and(L, Imm(mask), Dr(2));
    a.shift(ShiftKind::Lsl, L, Imm(2), Dr(2));
    a.move_(L, Dr(6), Dr(3));
    a.sub(L, Dr(1), Dr(3));
    a.and(L, Imm(mask), Dr(3));
    a.shift(ShiftKind::Lsl, L, Imm(2), Dr(3));
    // q[i] = q[idx0] + q[idx1] (non-contiguous touches).
    a.move_(L, Idx(0, 1, IndexSpec::d(2, 1)), Dr(0));
    a.add(L, Idx(0, 1, IndexSpec::d(3, 1)), Dr(0));
    a.and(L, Imm(0x00FF_FFFF), Dr(0)); // keep indices bounded
    a.move_(L, Dr(6), Dr(2));
    a.shift(ShiftKind::Lsl, L, Imm(2), Dr(2));
    a.move_(L, Dr(0), Idx(0, 1, IndexSpec::d(2, 1)));
    // i += 1; loop.
    a.add(L, Imm(1), Dr(6));
    a.cmp(L, Imm(len), Dr(6));
    a.bcc(Cond::Ne, inner);
    // Outer loop.
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, outer);
    // Checksum = q[len-1].
    a.move_(L, Abs(addrs::QARRAY + (len - 1) * 4), Abs(addrs::RESULT));
    emit_exit(&mut a);
    a
}

/// Programs 2–4 — pipe write/read-back in `chunk`-byte pieces,
/// `iters` iterations.
#[must_use]
pub fn pipe_rw(chunk: u32, iters: u32) -> Asm {
    let mut a = Asm::new(match chunk {
        1 => "p2_pipe_1",
        1024 => "p3_pipe_1k",
        _ => "p4_pipe_4k",
    });
    // pipe() -> d0 = (rfd<<8)|wfd; keep in d5.
    a.move_i(L, abi::SYS_PIPE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5));
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    // write(wfd, BUF, chunk)
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.and(L, Imm(0xFF), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    // read(rfd, BUF, chunk)
    a.move_i(L, abi::SYS_READ, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    emit_exit(&mut a);
    a
}

/// The checkable sibling of [`pipe_rw`], for tests rather than Table 1:
/// `rounds` × (pipe; `iters` × (write `chunk` bytes from [`addrs::BUF`];
/// read them back into [`addrs::XFER_DST`]); close both ends), with
/// every `read`/`write` return value totalled into [`addrs::RESULT`] —
/// so a test can check bytes moved and data integrity, not just
/// completion, and with `rounds > 1` every call site serves a fresh pair
/// of fds each round.
#[must_use]
pub fn pipe_xfer(chunk: u32, iters: u32, rounds: u32) -> Asm {
    let mut a = Asm::new("pipe_xfer");
    a.move_i(L, rounds, Dr(4));
    a.move_i(L, 0, Dr(6)); // bytes-moved total
    let round = a.here();
    a.move_i(L, abi::SYS_PIPE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5)); // (rfd<<8) | wfd
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    // write(wfd, BUF, chunk)
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.and(L, Imm(0xFF), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Dr(6));
    // read(rfd, XFER_DST, chunk)
    a.move_i(L, abi::SYS_READ, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
    a.lea(Abs(addrs::XFER_DST), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Dr(6));
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    // close(rfd); close(wfd)
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.and(L, Imm(0xFF), Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.sub(L, Imm(1), Dr(4));
    a.bcc(Cond::Ne, round);
    a.move_(L, Dr(6), Abs(addrs::RESULT));
    emit_exit(&mut a);
    a
}

/// Program 5 — file write/read in 1 KB chunks, `iters` iterations.
///
/// The file (`/tmp/bench`) must exist before the run; it stays cached in
/// main memory, as in the paper's measurement.
#[must_use]
pub fn file_rw(iters: u32) -> Asm {
    let mut a = Asm::new("p5_file_rw");
    // open("/tmp/bench") -> d6.
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS + 0x20), 0);
    a.move_i(L, 2, Dr(1)); // O_RDWR
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(6));
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    // lseek(fd, 0); write(fd, BUF, 1024); lseek(fd, 0); read back.
    a.move_i(L, abi::SYS_LSEEK, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.move_i(L, 0, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, 1024, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.move_i(L, abi::SYS_LSEEK, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.move_i(L, 0, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.move_i(L, abi::SYS_READ, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, 1024, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    // close(fd)
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.trap(abi::UNIX_TRAP);
    emit_exit(&mut a);
    a
}

/// Programs 6 and 7 — `open`/`close` loops on a device path.
///
/// `path_off` is the offset into [`path_blob`]: 0 for `/dev/null`,
/// `0x10` for `/dev/tty`.
#[must_use]
pub fn open_close(path_off: u32, iters: u32) -> Asm {
    let mut a = Asm::new(if path_off == 0 {
        "p6_open_null"
    } else {
        "p7_open_tty"
    });
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS + path_off), 0);
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(1));
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    emit_exit(&mut a);
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_assemble() {
        assert!(compute(1024, 2).assemble().is_ok());
        assert!(pipe_rw(1, 10).assemble().is_ok());
        assert!(pipe_rw(1024, 10).assemble().is_ok());
        assert!(pipe_rw(4096, 10).assemble().is_ok());
        assert!(file_rw(10).assemble().is_ok());
        assert!(open_close(0, 10).assemble().is_ok());
        assert!(open_close(0x10, 10).assemble().is_ok());
    }

    #[test]
    fn path_blob_layout() {
        let b = path_blob();
        assert_eq!(&b[..9], b"/dev/null");
        assert_eq!(b[9], 0);
        assert_eq!(&b[0x10..0x18], b"/dev/tty");
        assert_eq!(&b[0x20..0x2A], b"/tmp/bench");
    }
}
