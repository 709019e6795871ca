//! The Appendix-A programs run correctly on BOTH kernels — the paper's
//! same-binaries methodology — and Synthesis beats the baseline.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use quamachine::machine::RunExit;
use synthesis_core::kernel::KernelConfig;
use synthesis_core::syscall::errno;
use synthesis_unix::abi;
use synthesis_unix::programs::{self, addrs};
use synthesis_unix::sunos::Sunos;

/// Run a program on the baseline; returns elapsed µs.
fn run_sunos(program: quamachine::asm::Asm, setup: impl FnOnce(&mut Sunos)) -> (Sunos, f64) {
    let mut s = Sunos::boot();
    let entry = s.load_program(program);
    s.m.mem.poke_bytes(addrs::PATHS, &programs::path_blob());
    setup(&mut s);
    let t0 = s.m.now_us();
    let exit = s.run_program(entry, 20_000_000_000);
    assert_eq!(exit, RunExit::Halted, "program must exit cleanly");
    let t = s.m.now_us() - t0;
    (s, t)
}

/// Run a program under the Synthesis UNIX emulator; returns elapsed µs.
fn run_synthesis(
    program: quamachine::asm::Asm,
    setup: impl FnOnce(&mut synthesis_unix::emu::UnixEmulator),
) -> (synthesis_unix::emu::UnixEmulator, f64) {
    let (mut emu, tid) =
        synthesis_unix::emu::boot_with_program(KernelConfig::default(), program).unwrap();
    setup(&mut emu);
    let t0 = emu.k.m.now_us();
    assert!(
        emu.run_until_exit(tid, 20_000_000_000),
        "program must exit cleanly under emulation"
    );
    let t = emu.k.m.now_us() - t0;
    (emu, t)
}

fn make_bench_file_synthesis(emu: &mut synthesis_unix::emu::UnixEmulator) {
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", 65536)
        .unwrap();
    let data = vec![0xA5u8; 4096];
    emu.k.fs.write_contents(&mut emu.k.m, fid, &data);
}

#[test]
fn compute_program_runs_identically_on_both() {
    // Program 1 validates the "hardware emulation": same binary, same
    // machine model — the checksums must be bit-identical and the times
    // within a few percent (the kernel is not involved).
    let (s, t_sun) = run_sunos(programs::compute(1024, 3), |_| {});
    let sum_sun = s.m.mem.peek(addrs::RESULT, L);
    let (emu, t_syn) = run_synthesis(programs::compute(1024, 3), |_| {});
    let sum_syn = emu.k.m.mem.peek(addrs::RESULT, L);
    assert_eq!(sum_sun, sum_syn, "identical chaotic checksums");
    assert!(sum_syn != 0);
    let ratio = t_sun / t_syn;
    assert!(
        (0.8..1.25).contains(&ratio),
        "compute-bound parity: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs"
    );
}

#[test]
fn pipe_1_byte_synthesis_wins_big() {
    const N: u32 = 50;
    let (_, t_sun) = run_sunos(programs::pipe_rw(1, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::pipe_rw(1, N), |_| {});
    let ratio = t_sun / t_syn;
    // The paper reports 56× here; our baseline models SunOS's structure
    // but not its memory system, so the gap is smaller (see
    // EXPERIMENTS.md). The direction and order must hold.
    assert!(
        ratio > 4.0,
        "1-byte pipes: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn pipe_4k_synthesis_wins_moderately() {
    const N: u32 = 10;
    let (_, t_sun) = run_sunos(programs::pipe_rw(4096, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::pipe_rw(4096, N), |_| {});
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 2.0,
        "4K pipes: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn file_rw_works_on_both() {
    const N: u32 = 5;
    let (s, t_sun) = run_sunos(programs::file_rw(N), |s| {
        s.write_bench_file(&vec![0x5Au8; 4096]);
    });
    assert_eq!(s.m.mem.peek(addrs::BUF, L) >> 24, 0, "read-back happened");
    let (_, t_syn) = run_synthesis(programs::file_rw(N), make_bench_file_synthesis);
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 1.5,
        "file R/W: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn open_close_null_synthesis_wins() {
    const N: u32 = 20;
    let (_, t_sun) = run_sunos(programs::open_close(0, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::open_close(0, N), |_| {});
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 3.0,
        "open/close null: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn open_close_tty_works_on_both() {
    const N: u32 = 20;
    let (_, t_sun) = run_sunos(programs::open_close(0x10, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::open_close(0x10, N), |_| {});
    assert!(t_sun / t_syn > 1.8, "tty open: {t_sun:.0} vs {t_syn:.0}");
}

#[test]
fn pipe_data_integrity_both_kernels() {
    // Write a pattern through the pipe and read it back: contents must
    // survive on both kernels.
    const N: u32 = 3;
    let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 13 % 251) as u8).collect();
    let (s, _) = run_sunos(programs::pipe_rw(1024, N), |s| {
        s.m.mem.poke_bytes(addrs::BUF, &pattern);
    });
    assert_eq!(s.m.mem.peek_bytes(addrs::BUF, 1024), pattern);
    let (emu, _) = run_synthesis(programs::pipe_rw(1024, N), |e| {
        e.k.m.mem.poke_bytes(addrs::BUF, &pattern);
    });
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF, 1024), pattern);
}

/// A guest that fills its fd table: 11 opens of `/dev/null` (fds 0–10),
/// then `pipe` until a call fails, then a use of the two pipes it was
/// given — a byte written into each and read back — and of every
/// `/dev/null` fd, and one more open. Each call's `d0` lands in its own
/// long from `addrs::RESULT` on: opens 0–10, pipes 11–14, the pipe
/// transfers 15–18, the `/dev/null` writes 19–29, the last open 30.
fn pipe_until_full() -> Asm {
    let mut a = Asm::new("pipe_until_full");
    let call = |a: &mut Asm, sysno: u32, slot: u32| {
        a.move_i(L, sysno, Dr(0));
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), Abs(addrs::RESULT + 4 * slot));
    };
    let open = |a: &mut Asm, slot: u32| {
        a.lea(Abs(addrs::PATHS), 0);
        a.move_i(L, 0, Dr(1));
        call(a, abi::SYS_OPEN, slot);
    };
    // `d2` bytes at `buf` through the fd in `d1`.
    let rw = |a: &mut Asm, sysno: u32, buf: u32, slot: u32| {
        a.lea(Abs(buf), 0);
        a.move_i(L, 1, Dr(2));
        call(a, sysno, slot);
    };
    a.move_i(B, 0x5A, Abs(addrs::BUF));
    for slot in 0..11 {
        open(&mut a, slot);
    }
    let full = a.label();
    for slot in 11..15 {
        call(&mut a, abi::SYS_PIPE, slot);
        a.tst(L, Dr(0));
        a.bcc(Cond::Mi, full);
    }
    a.bind(full);
    for p in 0..2 {
        let fds = Abs(addrs::RESULT + 4 * (11 + p));
        a.move_(L, fds, Dr(1));
        a.and(L, Imm(0xFF), Dr(1)); // the write end
        rw(&mut a, abi::SYS_WRITE, addrs::BUF, 15 + 2 * p);
        a.move_(L, fds, Dr(1));
        a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1)); // the read end
        rw(&mut a, abi::SYS_READ, addrs::XFER_DST + p, 16 + 2 * p);
    }
    for fd in 0..11 {
        a.move_i(L, fd, Dr(1));
        rw(&mut a, abi::SYS_WRITE, addrs::BUF, 19 + fd);
    }
    open(&mut a, 30);
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    a
}

/// Guest input that fills the fd table fails the call with `EMFILE` on
/// both kernels, with no host panic and nothing claimed: the two pipes
/// made before still carry a byte, every earlier fd still works, and the
/// next open gets the one fd the failed `pipe` saw free.
#[test]
fn a_pipe_past_a_full_fd_table_fails_with_emfile_on_both() {
    let results = |mem: &quamachine::mem::Memory| {
        let at = |slot: u32| mem.peek(addrs::RESULT + 4 * slot, L) as i32;
        let bytes = [0, 1].map(|p| mem.peek(addrs::XFER_DST + p, B));
        ((0..31).map(at).collect::<Vec<_>>(), bytes)
    };
    let mut want: Vec<i32> = (0..11).collect();
    want.extend([(11 << 8) | 12, (13 << 8) | 14, -errno::EMFILE, 0]);
    want.extend([1; 4 + 11]);
    want.push(15);
    let (s, _) = run_sunos(pipe_until_full(), |_| {});
    assert_eq!(results(&s.m.mem), (want.clone(), [0x5A; 2]), "baseline");
    let (emu, _) = run_synthesis(pipe_until_full(), |_| {});
    assert_eq!(results(&emu.k.m.mem), (want, [0x5A; 2]), "Synthesis");
}

/// `pipe` then `close` of both ends, six times over: more rounds than
/// either kernel has pipes. Each call's `d0` lands in its own long from
/// `addrs::RESULT` on: round `r`'s pipe at `3r`, its closes at `3r + 1`
/// (the read end) and `3r + 2` (the write end).
fn pipe_close_rounds() -> Asm {
    let mut a = Asm::new("pipe_close_rounds");
    for round in 0..6 {
        let slot = |n: u32| Abs(addrs::RESULT + 4 * (3 * round + n));
        a.move_i(L, abi::SYS_PIPE, Dr(0));
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), slot(0));
        for (n, end) in [(1, 8), (2, 0)] {
            a.move_(L, slot(0), Dr(1));
            if end > 0 {
                a.shift(ShiftKind::Lsr, L, Imm(end), Dr(1));
            }
            a.and(L, Imm(0xFF), Dr(1));
            a.move_i(L, abi::SYS_CLOSE, Dr(0));
            a.trap(abi::UNIX_TRAP);
            a.move_(L, Dr(0), slot(n));
        }
    }
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    a
}

/// Closing both ends of a pipe gives its descriptor back: every round's
/// `pipe` succeeds on both kernels, with the fds the first round got, and
/// every `close` answers 0.
#[test]
fn closed_pipes_are_reused_on_both() {
    let results = |mem: &quamachine::mem::Memory| {
        (0..18)
            .map(|slot| mem.peek(addrs::RESULT + 4 * slot, L) as i32)
            .collect::<Vec<_>>()
    };
    let (s, _) = run_sunos(pipe_close_rounds(), |_| {});
    let (emu, _) = run_synthesis(pipe_close_rounds(), |_| {});
    for (kernel, got) in [
        ("baseline", results(&s.m.mem)),
        ("Synthesis", results(&emu.k.m.mem)),
    ] {
        let first = got[0];
        assert!(first > 0, "{kernel}: the first pipe failed: {got:?}");
        let want: Vec<i32> = (0..6).flat_map(|_| [first, 0, 0]).collect();
        assert_eq!(got, want, "{kernel}");
    }
}

/// Run a program under the Synthesis UNIX emulator in the user window,
/// which the kernel never fuses: every call takes the layered trap path.
fn run_layered(program: Asm) -> synthesis_unix::emu::UnixEmulator {
    let k = synthesis_core::kernel::Kernel::boot(KernelConfig::default()).unwrap();
    let mut emu = synthesis_unix::emu::UnixEmulator::new(k);
    let map = quamachine::mem::AddressMap::single(
        1,
        synthesis_core::layout::USER_BASE,
        synthesis_core::layout::USER_LEN,
    );
    let tid = emu.spawn(program, map).unwrap();
    assert!(
        emu.run_until_exit(tid, 20_000_000_000),
        "program must exit cleanly under emulation"
    );
    emu
}

/// UNIX call `sysno` with `d1`, `a0` and `d2` as given; its `d0` is stored
/// in result slot `slot`.
fn emit_call(a: &mut Asm, sysno: u32, d1: quamachine::isa::Operand, a0: u32, d2: u32, slot: u32) {
    a.move_i(L, sysno, Dr(0));
    a.move_(L, d1, Dr(1));
    a.lea(Abs(a0), 0);
    a.move_i(L, d2, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Abs(result_slot(slot)));
}

fn result_slot(slot: u32) -> u32 {
    addrs::RESULT + 4 * slot
}

fn emit_unix_exit(a: &mut Asm) {
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
}

/// The first `n` result slots of a program's run, as signed `d0`s.
fn results(mem: &quamachine::mem::Memory, n: u32) -> Vec<i32> {
    (0..n).map(|s| mem.peek(result_slot(s), L) as i32).collect()
}

/// Open `/dev/null`, write 5 bytes to it and read 5 back; open `/dev/tty`
/// and write 5 bytes to it; make call 20, which neither kernel has.
fn device_calls() -> Asm {
    let mut a = Asm::new("device_calls");
    emit_call(&mut a, abi::SYS_OPEN, Imm(0), addrs::PATHS, 0, 0);
    emit_call(
        &mut a,
        abi::SYS_WRITE,
        Abs(result_slot(0)),
        addrs::BUF,
        5,
        1,
    );
    emit_call(
        &mut a,
        abi::SYS_READ,
        Abs(result_slot(0)),
        addrs::BUF + 0x100,
        5,
        2,
    );
    emit_call(&mut a, abi::SYS_OPEN, Imm(0), addrs::PATHS + 0x10, 0, 3);
    emit_call(
        &mut a,
        abi::SYS_WRITE,
        Abs(result_slot(3)),
        addrs::BUF,
        5,
        4,
    );
    emit_call(&mut a, 20, Imm(0), addrs::BUF, 0, 5);
    emit_unix_exit(&mut a);
    a
}

/// `/dev/null` and `/dev/tty` answer alike on the baseline and on
/// Synthesis, fused and layered: the same fds, a `/dev/null` write takes
/// all its bytes and a read finds none, a tty write takes all its bytes;
/// and a call number neither kernel has (20) is `-EINVAL` on each.
#[test]
fn device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval() {
    let (s, _) = run_sunos(device_calls(), |_| {});
    let baseline = results(&s.m.mem, 6);
    let (fused, _) = run_synthesis(device_calls(), |_| {});
    let layered = run_layered(device_calls());
    let (null, tty) = (baseline[0], baseline[3]);
    assert_eq!(baseline, [null, 5, 0, tty, 5, -errno::EINVAL]);
    assert_ne!(null, tty);
    assert_eq!(results(&fused.k.m.mem, 6), baseline, "fused");
    assert_eq!(results(&layered.k.m.mem, 6), baseline, "layered");
}

/// `pipe()`, then a write to its read end and a read from its write end.
fn wrong_way_pipe_calls() -> Asm {
    let mut a = Asm::new("wrong_way_pipe_calls");
    emit_call(&mut a, abi::SYS_PIPE, Imm(0), addrs::BUF, 0, 0);
    a.move_(L, Abs(result_slot(0)), Dr(3));
    a.shift(ShiftKind::Lsr, L, Imm(8), Dr(3));
    emit_call(&mut a, abi::SYS_WRITE, Dr(3), addrs::BUF, 1, 1);
    a.move_(L, Abs(result_slot(0)), Dr(3));
    a.and(L, Imm(0xFF), Dr(3));
    emit_call(&mut a, abi::SYS_READ, Dr(3), addrs::BUF + 0x100, 1, 2);
    emit_unix_exit(&mut a);
    a
}

/// A call on the wrong end of a pipe is `-EBADF` on both kernels: the
/// baseline's vnode table names `u_ret_ebadf` for it; on Synthesis the
/// fd's slot for that direction names the shared `ebadf` routine, which
/// a fused program reaches through the layered shims, since the bind
/// finds no wrapper for a wrong-way end.
#[test]
fn a_wrong_way_pipe_call_is_ebadf_on_both_kernels() {
    let (s, _) = run_sunos(wrong_way_pipe_calls(), |_| {});
    let baseline = results(&s.m.mem, 3);
    assert!(baseline[0] > 0, "the pipe is made: {baseline:?}");
    assert_eq!(baseline[1..], [-errno::EBADF; 2]);
    let (fused, _) = run_synthesis(wrong_way_pipe_calls(), |_| {});
    let layered = run_layered(wrong_way_pipe_calls());
    for (kernel, emu) in [("fused", &fused), ("layered", &layered)] {
        let got = results(&emu.k.m.mem, 3);
        assert!(got[0] > 0, "{kernel}: the pipe is made: {got:?}");
        assert_eq!(got[1..], [-errno::EBADF; 2], "{kernel}");
    }
}

/// A trap that no vector claims enters the baseline's `u_panic`, which
/// halts the machine with `0xDEAD` in `d7`.
#[test]
fn an_unclaimed_trap_panics_the_baseline() {
    let mut a = Asm::new("unclaimed_trap");
    a.move_i(L, 0, Dr(7));
    a.trap(5);
    let (s, _) = run_sunos(a, |_| {});
    assert_eq!(s.m.cpu.d[7], 0xDEAD);
}

/// Under the emulator, a fused program's tty reads wait for typed input
/// (`WAIT_TTY`, woken by the receive interrupt's `WAKE_TTY`): a raw read
/// (`/dev/tty-raw`) runs its fused wrapper, which returns what has
/// arrived; a cooked read (`/dev/tty`) has no fused form, so its site is
/// bound to the layered read shim, and the line-editing `cooked_read`
/// returns the line.
#[test]
fn a_fused_programs_tty_reads_wait_for_typed_input_raw_and_cooked() {
    const RAW_PATH: u32 = addrs::PATHS + 0x30;
    let mut a = Asm::new("tty_reads");
    emit_call(&mut a, abi::SYS_OPEN, Imm(0), RAW_PATH, 0, 0);
    emit_call(&mut a, abi::SYS_READ, Abs(result_slot(0)), addrs::BUF, 3, 1);
    emit_call(&mut a, abi::SYS_OPEN, Imm(0), addrs::PATHS + 0x10, 0, 2);
    emit_call(
        &mut a,
        abi::SYS_READ,
        Abs(result_slot(2)),
        addrs::BUF + 0x100,
        16,
        3,
    );
    emit_unix_exit(&mut a);
    let (emu, _) = run_synthesis(a, |emu| {
        use quamachine::devices::{dev_reg_addr, tty};
        emu.k.m.mem.poke_bytes(RAW_PATH, b"/dev/tty-raw\0");
        let dev = emu.k.dev.tty;
        emu.k
            .m
            .with_dev_ctx(dev, |t: &mut tty::Tty, ctx| t.type_at(b"xcd\n", 1000, ctx))
            .unwrap();
        emu.k
            .m
            .host_reg_write(dev_reg_addr(dev, tty::REG_CTRL), tty::CTRL_RX_IRQ);
    });
    let got = results(&emu.k.m.mem, 4);
    assert_eq!([got[1], got[3]], [1, 3], "{got:?}");
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF, 1), b"x");
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF + 0x100, 3), b"cd\n");
}

/// Open `/dev/tty` and read up to 16 bytes from it.
fn tty_read() -> Asm {
    let mut a = Asm::new("tty_read");
    emit_call(&mut a, abi::SYS_OPEN, Imm(0), addrs::PATHS + 0x10, 0, 0);
    emit_call(
        &mut a,
        abi::SYS_READ,
        Abs(result_slot(0)),
        addrs::BUF + 0x100,
        16,
        1,
    );
    emit_unix_exit(&mut a);
    a
}

/// Where the kernels differ on purpose: the baseline answers a `/dev/tty`
/// read with 0 bytes at once (its vnode read is `u_null_read`), while
/// Synthesis's cooked read waits for a whole line. Typed at 100
/// characters a second, the line `ok\n` is complete 30 ms in; the
/// baseline's answer comes long before the first character would.
#[test]
fn a_tty_read_is_eof_at_once_on_the_baseline_and_waits_for_a_line_on_synthesis() {
    let (s, t_sun) = run_sunos(tty_read(), |_| {});
    let got = results(&s.m.mem, 2);
    let fd = got[0];
    assert!(fd >= 0, "the tty opens: {got:?}");
    assert_eq!(got[1], 0, "the baseline's tty read is EOF");
    assert!(t_sun < 10_000.0, "at once: {t_sun:.0} µs");

    let (emu, t_syn) = run_synthesis(tty_read(), |emu| {
        use quamachine::devices::{dev_reg_addr, tty};
        let dev = emu.k.dev.tty;
        emu.k
            .m
            .with_dev_ctx(dev, |t: &mut tty::Tty, ctx| t.type_at(b"ok\n", 100, ctx))
            .unwrap();
        emu.k
            .m
            .host_reg_write(dev_reg_addr(dev, tty::REG_CTRL), tty::CTRL_RX_IRQ);
    });
    let got = results(&emu.k.m.mem, 2);
    assert_eq!(got[0], fd, "the same fd");
    assert_eq!(got[1], 3, "Synthesis's tty read returns the line");
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF + 0x100, 3), b"ok\n");
    assert!(t_syn >= 30_000.0, "it waited for the line: {t_syn:.0} µs");
}
