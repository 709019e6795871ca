//! End-to-end kernel tests: boot, threads, preemption, synthesized I/O,
//! pipes, blocking, signals, and lazy FP — all through real simulated
//! execution.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout::{self, MemLayout};
use synthesis_core::syscall::{errno, general, traps};
use synthesis_core::thread::ThreadState;

/// A user map covering the whole user area.
fn user_map() -> AddressMap {
    AddressMap::single(
        1,
        synthesis_core::layout::USER_BASE,
        synthesis_core::layout::USER_LEN,
    )
}

/// User-space addresses for test data.
const USTACK: u32 = synthesis_core::layout::USER_BASE + 0x1_0000;
const UBUF: u32 = synthesis_core::layout::USER_BASE + 0x2_0000;
const UBUF2: u32 = synthesis_core::layout::USER_BASE + 0x3_0000;

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).expect("kernel boots")
}

/// Emit `exit()`.
fn emit_exit(a: &mut Asm) {
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
}

/// Spawn a user program and run it to completion; returns the kernel.
fn run_user(asm: Asm, budget: u64) -> Kernel {
    let mut k = boot();
    let entry = k
        .load_user_program(asm.assemble().expect("assembles"))
        .expect("loads");
    let tid = k.create_thread(entry, USTACK, user_map()).expect("creates");
    k.start(tid).expect("starts");
    assert!(k.run_until_exit(tid, budget), "thread must exit in budget");
    k
}

#[test]
fn boot_reaches_idle_and_time_advances() {
    let mut k = boot();
    let exit = k.run(200_000);
    assert_eq!(exit, RunExit::CycleLimit);
    assert!(k.m.now_us() > 1000.0, "virtual time advanced in idle");
}

#[test]
fn boot_refuses_a_cpu_count_outside_1_to_8() {
    for cpus in [0, 9] {
        let cfg = KernelConfig {
            cpus,
            ..KernelConfig::default()
        };
        assert!(
            matches!(
                Kernel::boot(cfg),
                Err(synthesis_core::kernel::KernelError::Invalid(_))
            ),
            "cpus: {cpus} must be refused"
        );
    }
}

#[test]
fn user_thread_runs_and_exits() {
    let mut a = Asm::new("user");
    // Write a marker into user memory, then exit.
    a.move_i(L, 0xC0DE, Abs(UBUF));
    emit_exit(&mut a);
    let k = run_user(a, 50_000_000);
    assert_eq!(k.m.mem.peek(UBUF, L), 0xC0DE);
}

#[test]
fn putc_console_output() {
    let mut a = Asm::new("hello");
    for &ch in b"hi!" {
        a.move_i(L, general::PUTC, Dr(0));
        a.move_i(L, u32::from(ch), Dr(1));
        a.trap(traps::GENERAL);
    }
    emit_exit(&mut a);
    let k = run_user(a, 50_000_000);
    assert_eq!(k.console, b"hi!");
}

#[test]
fn gettid_returns_thread_id() {
    let mut a = Asm::new("gettid");
    a.move_i(L, general::GETTID, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    emit_exit(&mut a);
    // Run by hand so we can compare against the tid create_thread
    // actually handed out (the idle threads — one per CPU — come first).
    let mut k = boot();
    let entry = k
        .load_user_program(a.assemble().expect("assembles"))
        .expect("loads");
    let tid = k.create_thread(entry, USTACK, user_map()).expect("creates");
    k.start(tid).expect("starts");
    assert!(k.run_until_exit(tid, 50_000_000));
    assert_eq!(k.m.mem.peek(UBUF, L), tid);
}

#[test]
fn dev_null_read_and_write_through_synthesized_code() {
    let mut k = boot();
    // Store the path string in user memory.
    let mut a = Asm::new("nulltest");
    // open("/dev/null")
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0); // path
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(4)); // fd (callee-saved region d4+)
                              // write(fd, buf, 100) -> 100
    a.move_(L, Dr(4), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 100, Dr(1));
    a.trap(traps::WRITE);
    a.move_(L, Dr(0), Abs(UBUF + 0x100)); // result
                                          // read(fd, buf, 100) -> 0 (EOF)
    a.move_(L, Dr(4), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 100, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF + 0x104));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/dev/null\0");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(k.m.mem.peek(UBUF + 0x100, L), 100, "write accepted all");
    assert_eq!(k.m.mem.peek(UBUF + 0x104, L), 0, "read returns EOF");
}

#[test]
fn file_write_then_read_roundtrip() {
    let mut k = boot();
    let fid =
        k.fs.create(&mut k.m, &mut k.heap, "/tmp/data", 4096)
            .unwrap();
    let _ = fid;
    let mut a = Asm::new("filetest");
    // open("/tmp/data")
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(4));
    // write(fd, src, 16)
    a.move_(L, Dr(4), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 16, Dr(1));
    a.trap(traps::WRITE);
    // seek(fd, 0)
    a.move_i(L, general::SEEK, Dr(0));
    a.move_(L, Dr(4), Dr(1));
    a.move_i(L, 0, Dr(2));
    a.trap(traps::GENERAL);
    // read(fd, dst, 16)
    a.move_(L, Dr(4), Dr(0));
    a.lea(Abs(UBUF + 0x100), 0);
    a.move_i(L, 16, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF + 0x200));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/tmp/data\0");
    k.m.mem.poke_bytes(UBUF, b"synthesis kernel");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(k.m.mem.peek(UBUF + 0x200, L), 16, "read returned 16");
    assert_eq!(k.m.mem.peek_bytes(UBUF + 0x100, 16), b"synthesis kernel");
}

#[test]
fn missing_file_is_enoent() {
    let mut k = boot();
    let mut a = Asm::new("noent");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/no/such\0");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(k.m.mem.peek(UBUF, L) as i32, -2, "ENOENT");
}

#[test]
fn bad_fd_returns_ebadf_via_shared_stub() {
    let mut a = Asm::new("badfd");
    a.move_i(L, 7, Dr(0)); // never opened
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 4, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF2));
    emit_exit(&mut a);
    let k = run_user(a, 50_000_000);
    assert_eq!(k.m.mem.peek(UBUF2, L) as i32, -9, "EBADF");
}

#[test]
fn pipe_roundtrip_same_thread() {
    let mut k = boot();
    let mut a = Asm::new("pipe");
    // pipe() -> d0 = (rfd<<8)|wfd
    a.move_i(L, general::PIPE, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5)); // save
                              // wfd = d5 & 0xff; write(wfd, src, 32)
    a.move_(L, Dr(5), Dr(0));
    a.and(L, Imm(0xFF), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 32, Dr(1));
    a.trap(traps::WRITE);
    a.move_(L, Dr(0), Abs(UBUF2 + 8));
    // rfd = d5 >> 8; read(rfd, dst, 32)
    a.move_(L, Dr(5), Dr(0));
    a.shift(quamachine::isa::ShiftKind::Lsr, L, Imm(8), Dr(0));
    a.lea(Abs(UBUF + 0x100), 0);
    a.move_i(L, 32, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF2 + 12));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem
        .poke_bytes(UBUF, b"0123456789abcdefFEDCBA9876543210");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(k.m.mem.peek(UBUF2 + 8, L), 32);
    assert_eq!(k.m.mem.peek(UBUF2 + 12, L), 32);
    assert_eq!(
        k.m.mem.peek_bytes(UBUF + 0x100, 32),
        b"0123456789abcdefFEDCBA9876543210"
    );
}

#[test]
fn preemptive_switching_interleaves_two_threads() {
    let mut k = boot();
    // Two spinners, each bumping its own counter; they only make joint
    // progress if the quantum timer switches between them.
    let mk = |name: &str, slot: u32| {
        let mut a = Asm::new(name);
        let top = a.here();
        a.add(L, Imm(1), Abs(slot));
        a.cmp(L, Imm(2000), Abs(slot));
        a.bcc(Cond::Ne, top);
        emit_exit(&mut a);
        a
    };
    let s1 = UBUF;
    let s2 = UBUF + 4;
    let e1 = k
        .load_user_program(mk("t1", s1).assemble().unwrap())
        .unwrap();
    let e2 = k
        .load_user_program(mk("t2", s2).assemble().unwrap())
        .unwrap();
    let t1 = k.create_thread(e1, USTACK, user_map()).unwrap();
    let t2 = k.create_thread(e2, USTACK + 0x1000, user_map()).unwrap();
    k.start(t1).unwrap();
    k.start(t2).unwrap();
    // Run a while, then check both progressed even though neither exited.
    k.run(3_000_000);
    let c1 = k.m.mem.peek(s1, L);
    let c2 = k.m.mem.peek(s2, L);
    assert!(c1 > 100, "thread 1 progressed: {c1}");
    assert!(c2 > 100, "thread 2 progressed: {c2}");
    // Run to completion.
    assert!(k.run_until_exit(t1, 400_000_000));
    assert!(k.run_until_exit(t2, 400_000_000));
    assert_eq!(k.m.mem.peek(s1, L), 2000);
    assert_eq!(k.m.mem.peek(s2, L), 2000);
}

/// Boot a reader that blocks in an 8-byte pipe `read` and a writer that
/// spins a while, then writes 8 bytes: `(kernel, reader, writer)`, both
/// started.
fn pipe_reader_and_writer() -> (Kernel, u32, u32) {
    let mut k = boot();
    // Reader thread: reads 8 bytes from the pipe (blocking), stores the
    // result, exits.
    // Writer thread: spins a while, then writes 8 bytes.
    // Setup: create the pipe host-side for thread A, attach to thread B.
    let mut reader = Asm::new("reader");
    reader.move_i(L, 0, Dr(0)); // rfd patched below via register convention
                                // rfd will be fd 0 of the reader thread.
    reader.lea(Abs(UBUF + 0x100), 0);
    reader.move_i(L, 8, Dr(1));
    reader.trap(traps::READ);
    reader.move_(L, Dr(0), Abs(UBUF2));
    emit_exit(&mut reader);

    let mut writer = Asm::new("writer");
    // Burn some time first so the reader blocks.
    writer.move_i(L, 20_000, Dr(3));
    let spin = writer.here();
    writer.dbf(3, spin);
    writer.move_i(L, 1, Dr(0)); // wfd = 1 in the writer thread
    writer.lea(Abs(UBUF), 0);
    writer.move_i(L, 8, Dr(1));
    writer.trap(traps::WRITE);
    emit_exit(&mut writer);

    let re = k.load_user_program(reader.assemble().unwrap()).unwrap();
    let we = k.load_user_program(writer.assemble().unwrap()).unwrap();
    let rt = k.create_thread(re, USTACK, user_map()).unwrap();
    let wt = k.create_thread(we, USTACK + 0x1000, user_map()).unwrap();
    // Pipe endpoints: fds 0,1 in rt; attach gives fds 0,1 in wt.
    let (rfd, wfd) = k.pipe_for(rt).unwrap();
    assert_eq!((rfd, wfd), (0, 1));
    let (rfd2, wfd2) = k.pipe_attach(wt, 0).unwrap();
    assert_eq!((rfd2, wfd2), (0, 1));
    k.m.mem.poke_bytes(UBUF, b"pipedata");
    k.start(rt).unwrap();
    k.start(wt).unwrap();
    (k, rt, wt)
}

/// Run until `tid` is blocked.
fn run_until_blocked(k: &mut Kernel, tid: u32) {
    for _ in 0..1000 {
        if matches!(k.threads[&tid].state, ThreadState::Blocked(_)) {
            return;
        }
        k.run(1_000);
    }
    panic!("thread {tid} never blocked");
}

#[test]
fn blocking_pipe_between_threads() {
    let (mut k, rt, _) = pipe_reader_and_writer();
    assert!(k.run_until_exit(rt, 500_000_000), "reader finished");
    assert_eq!(k.m.mem.peek(UBUF2, L), 8);
    assert_eq!(k.m.mem.peek_bytes(UBUF + 0x100, 8), b"pipedata");
    // The reader must have actually blocked (it was woken by the write).
    assert!(k.exited.contains(&rt));
}

/// A thread destroyed while blocked leaves its wait list with it: the
/// write that would have woken it finds nobody, instead of taking the
/// kernel down looking for the dead waiter.
#[test]
fn destroying_a_blocked_thread_takes_it_off_its_wait_list() {
    let (mut k, rt, wt) = pipe_reader_and_writer();
    run_until_blocked(&mut k, rt);
    k.destroy(rt).unwrap();
    assert_eq!(k.wait_lists().count(), 0, "the dead reader still waits");
    assert!(k.run_until_exit(wt, 500_000_000), "writer finished");
}

/// A thread quarantined while blocked is not brought back by the wake
/// of the object it was blocked on: "refused by `start` forever" holds
/// for `wake` too.
#[test]
fn waking_does_not_revive_a_thread_quarantined_while_blocked() {
    let (mut k, rt, wt) = pipe_reader_and_writer();
    run_until_blocked(&mut k, rt);
    k.quarantine(rt, "test");
    assert_eq!(k.wait_lists().count(), 0, "the quarantined reader waits");
    assert!(k.run_until_exit(wt, 500_000_000), "writer finished");
    assert!(k.is_quarantined(rt));
    assert_eq!(k.threads[&rt].state, ThreadState::Stopped);
    assert!(
        k.cpus.iter().all(|c| !c.ready.contains(rt)),
        "a quarantined thread is back on a ready chain"
    );
    assert!(!k.exited.contains(&rt));
}

/// A writer and a reader on one pipe (read end fd 0, write end fd 1 in
/// both), created but not started: `(kernel, writer, reader)`. `UBUF`
/// holds 12,000 bytes of a counting pattern.
fn pipe_pair(writer: Asm, reader: Asm) -> (Kernel, u32, u32) {
    let mut k = boot();
    let we = k.load_user_program(writer.assemble().unwrap()).unwrap();
    let re = k.load_user_program(reader.assemble().unwrap()).unwrap();
    let wt = k.create_thread(we, USTACK, user_map()).unwrap();
    let rt = k.create_thread(re, USTACK + 0x1000, user_map()).unwrap();
    assert_eq!(k.pipe_for(wt).unwrap(), (0, 1));
    assert_eq!(k.pipe_attach(rt, 0).unwrap(), (0, 1));
    k.m.mem.poke_bytes(UBUF, &pattern(12_000));
    (k, wt, rt)
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 7 + 3) as u8).collect()
}

/// Emit `write(1, buf, n)`, storing the result at `result`.
fn emit_pipe_write(a: &mut Asm, buf: u32, n: u32, result: u32) {
    a.move_i(L, 1, Dr(0));
    a.lea(Abs(buf), 0);
    a.move_i(L, n, Dr(1));
    a.trap(traps::WRITE);
    a.move_(L, Dr(0), Abs(result));
}

/// A write larger than the ring can never fit, so it must not wait for
/// room: its count is cut to the ring size and it returns short.
#[test]
fn a_write_larger_than_the_pipe_returns_short() {
    let mut writer = Asm::new("writer");
    emit_pipe_write(&mut writer, UBUF, 9_000, UBUF2);
    emit_exit(&mut writer);
    let mut reader = Asm::new("reader");
    reader.move_i(L, 0, Dr(0));
    reader.lea(Abs(UBUF + 0x4000), 0);
    reader.move_i(L, 9_000, Dr(1));
    reader.trap(traps::READ);
    reader.move_(L, Dr(0), Abs(UBUF2 + 4));
    emit_exit(&mut reader);
    let (mut k, wt, rt) = pipe_pair(writer, reader);
    let size = synthesis_core::io::pipe::DEFAULT_PIPE_SIZE;

    k.start(wt).unwrap();
    assert!(k.run_until_exit(wt, 50_000_000), "the writer returned");
    assert_eq!(
        k.m.mem.peek(UBUF2, L),
        size,
        "a short write of the ring size"
    );
    k.start(rt).unwrap();
    assert!(k.run_until_exit(rt, 50_000_000), "the reader returned");
    assert_eq!(k.m.mem.peek(UBUF2 + 4, L), size);
    assert_eq!(
        k.m.mem.peek_bytes(UBUF + 0x4000, size),
        pattern(size as usize)
    );
}

/// A write that fits the ring but not its free space blocks — it does not
/// spin, `Ready`, through its quantum — until the reader has made room for
/// all of it.
#[test]
fn a_write_that_does_not_fit_blocks_until_the_reader_makes_room() {
    let mut writer = Asm::new("writer");
    emit_pipe_write(&mut writer, UBUF, 6_000, UBUF2);
    emit_pipe_write(&mut writer, UBUF + 6_000, 6_000, UBUF2 + 4);
    emit_exit(&mut writer);
    // Read until all 12,000 bytes have arrived; d4 counts, a3 walks.
    let mut reader = Asm::new("reader");
    reader.move_i(L, 0, Dr(4));
    reader.lea(Abs(UBUF + 0x8000), 3);
    let top = reader.here();
    reader.move_i(L, 0, Dr(0));
    reader.move_(L, Ar(3), Ar(0));
    reader.move_i(L, 12_000, Dr(1));
    reader.sub(L, Dr(4), Dr(1));
    reader.trap(traps::READ);
    reader.add(L, Dr(0), Dr(4));
    reader.add(L, Dr(0), Ar(3));
    reader.cmp(L, Imm(12_000), Dr(4));
    reader.bcc(Cond::Ne, top);
    reader.move_(L, Dr(4), Abs(UBUF2 + 8));
    emit_exit(&mut reader);
    let (mut k, wt, rt) = pipe_pair(writer, reader);

    // 6,000 bytes in, 2,192 free: the second write blocks.
    k.start(wt).unwrap();
    run_until_blocked(&mut k, wt);
    assert_eq!(k.m.mem.peek(UBUF2, L), 6_000);
    assert_eq!(k.m.mem.peek(UBUF2 + 4, L), 0, "the second write is waiting");
    k.start(rt).unwrap();
    assert!(
        k.run_until_exit(rt, 100_000_000),
        "the reader got everything"
    );
    assert!(k.run_until_exit(wt, 100_000_000), "the writer finished");
    assert_eq!(k.m.mem.peek(UBUF2 + 4, L), 6_000);
    assert_eq!(k.m.mem.peek(UBUF2 + 8, L), 12_000);
    assert_eq!(k.m.mem.peek_bytes(UBUF + 0x8000, 12_000), pattern(12_000));
}

#[test]
fn tty_read_blocks_until_typed_input() {
    let mut k = boot();
    let mut a = Asm::new("ttyread");
    // open("/dev/tty-raw")
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0);
    a.trap(traps::GENERAL);
    // read(fd, buf, 3)
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 3, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF + 0x10));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/dev/tty-raw\0");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    // Type "ab\n" at 1000 cps, arriving while the reader blocks.
    let tty_idx = k.dev.tty;
    k.m.with_dev_ctx::<quamachine::devices::tty::Tty, _>(tty_idx, |t, ctx| {
        t.type_at(b"abc", 1000, ctx);
    })
    .unwrap();
    // Enable the receive interrupt.
    let ctrl = quamachine::devices::dev_reg_addr(tty_idx, quamachine::devices::tty::REG_CTRL);
    k.m.host_reg_write(ctrl, quamachine::devices::tty::CTRL_RX_IRQ);
    assert!(k.run_until_exit(tid, 500_000_000), "reader finished");
    assert!(k.m.mem.peek(UBUF + 0x10, L) >= 1, "read got input");
    assert_eq!(
        k.m.mem.peek(UBUF, quamachine::isa::Size::B),
        u32::from(b'a')
    );
}

#[test]
fn lazy_fp_resynthesis_on_first_fp_instruction() {
    let mut k = boot();
    // Park a double (42.0) in user memory; the thread copies it through fp0.
    let mut a = Asm::new("fpuser");
    a.fmove_load(Abs(UBUF), 0);
    a.fmove_store(0, Abs(UBUF + 8));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let bits = 42.0f64.to_bits();
    k.m.mem.poke(UBUF, L, (bits >> 32) as u32);
    k.m.mem.poke(UBUF + 4, L, bits as u32);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    assert!(!k.uses_fp(&k.threads[&tid]));
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    let hi = k.m.mem.peek(UBUF + 8, L);
    let lo = k.m.mem.peek(UBUF + 12, L);
    let v = f64::from_bits((u64::from(hi) << 32) | u64::from(lo));
    assert_eq!(v, 42.0, "the value went through fp0");
}

/// Regression: the FPU stayed enabled after an FP thread switched out, so
/// a thread that had never used FP ran its first `fmove` without the
/// lazy-FP trap, never got the FP switch, and lost its FP registers to
/// the FP thread's next switch-in.
#[test]
fn a_thread_after_an_fp_thread_takes_its_own_lazy_fp_trap() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .unwrap();
    let emit_yield = |a: &mut Asm| {
        a.move_i(L, general::YIELD, Dr(0));
        a.trap(traps::GENERAL);
    };
    // A: fp0 = 1.0, then yield forever.
    let mut a = Asm::new("fp_a");
    a.fmove_load(Abs(UBUF), 0);
    let top = a.here();
    emit_yield(&mut a);
    a.bcc(Cond::T, top);
    // B: fp0 = 2.0, yield (A runs), store fp0, then yield forever.
    let mut b = Asm::new("fp_b");
    b.fmove_load(Abs(UBUF + 8), 0);
    emit_yield(&mut b);
    b.fmove_store(0, Abs(UBUF + 16));
    let top = b.here();
    emit_yield(&mut b);
    b.bcc(Cond::T, top);
    for (at, v) in [(UBUF, 1.0f64), (UBUF + 8, 2.0), (UBUF + 16, -1.0)] {
        k.m.mem.poke(at, L, (v.to_bits() >> 32) as u32);
        k.m.mem.poke(at + 4, L, v.to_bits() as u32);
    }
    let ea = k.load_user_program(a.assemble().unwrap()).unwrap();
    let eb = k.load_user_program(b.assemble().unwrap()).unwrap();
    let ta = k.create_thread(ea, USTACK, user_map()).unwrap();
    k.start(ta).unwrap();
    k.run(200_000);
    assert!(k.uses_fp(&k.threads[&ta]), "A is on the FP switch");
    let tb = k.create_thread(eb, USTACK + 0x1000, user_map()).unwrap();
    k.start(tb).unwrap();
    k.run(2_000_000);
    assert!(k.uses_fp(&k.threads[&tb]), "B's first fmove trapped");
    let (hi, lo) = (k.m.mem.peek(UBUF + 16, L), k.m.mem.peek(UBUF + 20, L));
    let v = f64::from_bits((u64::from(hi) << 32) | u64::from(lo));
    assert_eq!(v, 2.0, "B's fp0 survived a switch through A");
}

/// A double read from a `uses_fp` thread's FP save area in its TTE.
fn parked_fp(k: &Kernel, tid: u32, reg: u32) -> f64 {
    let at = k.threads[&tid].tte + synthesis_core::thread::tte::off::FP + 8 * reg;
    let (hi, lo) = (k.m.mem.peek(at, L), k.m.mem.peek(at + 4, L));
    f64::from_bits((u64::from(hi) << 32) | u64::from(lo))
}

/// Regression: `step` used to load and save the integer registers only,
/// so an FP instruction stepped over ran on whatever the CPU's FP
/// registers last held and its result was thrown away.
#[test]
fn stepping_a_stopped_fp_thread_runs_on_its_own_fp_registers() {
    let mut k = boot();
    let double = |k: &mut Kernel, at: u32, v: f64| {
        k.m.mem.poke(at, L, (v.to_bits() >> 32) as u32);
        k.m.mem.poke(at + 4, L, v.to_bits() as u32);
    };
    let peek_double = |k: &Kernel, at: u32| {
        let (hi, lo) = (k.m.mem.peek(at, L), k.m.mem.peek(at + 4, L));
        f64::from_bits((u64::from(hi) << 32) | u64::from(lo))
    };
    // fp0 = 1.0; then forever store fp0 to UBUF + 8 and load fp1 from
    // UBUF + 16.
    let mut a = Asm::new("fpcopier");
    a.fmove_load(Abs(UBUF), 0);
    let top = a.here();
    a.fmove_store(0, Abs(UBUF + 8));
    a.fmove_load(Abs(UBUF + 16), 1);
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    double(&mut k, UBUF, 1.0);
    double(&mut k, UBUF + 16, 2.0);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    k.run(2_000_000);
    k.stop(tid).unwrap();
    assert!(k.uses_fp(&k.threads[&tid]), "the first FP instruction ran");
    assert_eq!(peek_double(&k, UBUF + 8), 1.0, "the thread stored fp0");
    assert_eq!(parked_fp(&k, tid, 1), 2.0, "the thread loaded fp1");
    double(&mut k, UBUF + 8, -1.0);
    double(&mut k, UBUF + 16, 3.0);
    // Another context's FP registers are on the CPU by now.
    k.m.cpu.fp = [1e9; 8];
    let before = k.m.cpu.clone();
    // The store, the load and the branch, in whichever order the stop fell.
    for _ in 0..3 {
        k.step_thread(tid).unwrap();
    }
    assert_eq!(
        peek_double(&k, UBUF + 8),
        1.0,
        "the store read the thread's own fp0"
    );
    assert_eq!(parked_fp(&k, tid, 1), 3.0, "the load is in the TTE");
    assert_eq!(parked_fp(&k, tid, 0), 1.0, "fp0 is untouched");
    // The active thread's own context is what it was. Its FP registers
    // are not part of it: under lazy FP a thread that never used them
    // runs on `sw_basic`, which never saves them.
    let own = |c: &quamachine::cpu::Cpu| (c.d, c.a, c.usp(), c.sr, c.pc);
    assert_eq!(
        own(&k.m.cpu),
        own(&before),
        "the active thread's own context is restored"
    );
}

/// Regression: the out-of-code-space reap in FP resynthesis left a log
/// line and a gauge tick but, unlike every other reap, no trace record.
#[test]
fn fp_resynthesis_out_of_code_space_reaps_on_the_record() {
    use synthesis_core::trace::{Kind, REC_REAP};
    let mut k = boot();
    let mut a = Asm::new("fpuser");
    a.fmove_load(Abs(UBUF), 0);
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    // No room left for the (larger) FP switch block.
    exhaust(|n| k.creator.codebuf.alloc(n).is_ok());
    assert_eq!(k.run(2_000_000), RunExit::CycleLimit, "the kernel runs on");
    assert!(!k.threads.contains_key(&tid), "the thread was reaped");
    assert_eq!(k.recovery.reaped.read(), 1);
    assert!(
        k.recovery_log
            .iter()
            .any(|(t, why)| *t == tid && why.starts_with("reaped")),
        "the reap is in the recovery log"
    );
    assert!(
        k.trace
            .drain(tid)
            .iter()
            .any(|r| r.kind == Kind::Recovery && r.a == REC_REAP),
        "the reap is in the thread's trace ring"
    );
}

#[test]
fn error_trap_default_handler_exits_thread() {
    let mut k = boot();
    let mut a = Asm::new("faulty");
    // Touch memory far outside the quaspace: bus error -> error signal ->
    // default handler -> exit.
    a.move_(L, Abs(0x10), Dr(0));
    a.move_i(L, 0xBAD, Abs(UBUF)); // never reached
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000), "faulting thread exits");
    assert_eq!(k.m.mem.peek(UBUF, L), 0, "continuation never ran");
}

#[test]
fn stop_start_step_thread_ops() {
    let mut k = boot();
    let mut a = Asm::new("counter");
    let top = a.here();
    a.add(L, Imm(1), Abs(UBUF));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    k.run(2_000_000);
    let at_stop = {
        k.stop(tid).unwrap();
        k.m.mem.peek(UBUF, L)
    };
    assert!(at_stop > 0, "thread ran before stop");
    // While stopped, it makes no progress.
    k.run(2_000_000);
    assert_eq!(k.m.mem.peek(UBUF, L), at_stop, "no progress while stopped");
    assert_eq!(k.threads[&tid].state, ThreadState::Stopped);
    // Step one instruction at a time: two steps = one more increment
    // (add + branch).
    k.step_thread(tid).unwrap();
    k.step_thread(tid).unwrap();
    let after_steps = k.m.mem.peek(UBUF, L);
    assert!(
        after_steps == at_stop + 1 || after_steps == at_stop,
        "single-stepping advanced at most one loop iteration"
    );
    // Restart and observe progress again.
    k.start(tid).unwrap();
    k.run(2_000_000);
    assert!(k.m.mem.peek(UBUF, L) > after_steps + 10, "resumed");
}

#[test]
fn signal_delivery_to_parked_thread() {
    let mut k = boot();
    // The handler: set a flag in user memory, then SIG_RETURN.
    let mut hb = Asm::new("sighandler");
    hb.move_i(L, 0x516, Abs(UBUF2));
    hb.move_i(L, general::SIG_RETURN, Dr(0));
    hb.trap(traps::GENERAL);
    let dead = hb.here();
    hb.bcc(Cond::T, dead); // unreachable
    let handler_entry = k.load_user_program(hb.assemble().unwrap()).unwrap();

    // The target: install the handler (address read from user memory),
    // then spin forever bumping a counter.
    let mut a = Asm::new("sigtarget");
    a.move_i(L, general::SET_SIG_HANDLER, Dr(0));
    a.move_(L, Abs(UBUF + 0x40), Dr(1));
    a.trap(traps::GENERAL);
    let top = a.here();
    a.add(L, Imm(1), Abs(UBUF));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke(UBUF + 0x40, L, handler_entry);

    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    // Let it install the handler and spin a while.
    k.run(2_000_000);
    assert!(k.m.mem.peek(UBUF, L) > 0, "target running");
    assert_eq!(k.m.mem.peek(UBUF2, L), 0, "no signal yet");
    // Park it (the kernel is between kcalls; the thread sits in the
    // chain, parked by the last timer switch), then signal.
    k.signal(tid, 1).unwrap();
    k.run(3_000_000);
    assert_eq!(k.m.mem.peek(UBUF2, L), 0x516, "handler ran");
    // And the target kept running afterwards (SIG_RETURN restored it).
    let c = k.m.mem.peek(UBUF, L);
    k.run(2_000_000);
    assert!(k.m.mem.peek(UBUF, L) > c, "target resumed after handler");
}

#[test]
fn pipe_with_one_free_fd_fails_cleanly_and_unwinds() {
    // Regression: when only one fd slot is free, pipe() used to leave a
    // dangling read end referring to an unregistered pipe, panicking on
    // the later close.
    let mut k = boot();
    let mut a = Asm::new("fdhog");
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    // Occupy 15 of the 16 fds host-side.
    for _ in 0..15 {
        k.open_for(tid, "/dev/null").unwrap();
    }
    let before_heap = k.heap.in_use;
    let r = k.pipe_for(tid);
    assert_eq!(r, Err(24), "EMFILE: no room for the write end");
    // The single remaining fd is free again and reusable...
    let fd = k.open_for(tid, "/dev/null").unwrap();
    assert_eq!(fd, 15);
    // ...the close path does not panic...
    k.close_for(tid, 15).unwrap();
    // ...and the pipe's kernel memory was released.
    assert_eq!(k.heap.in_use, before_heap, "no pipe memory leaked");
    assert!(k.pipes.is_empty(), "failed pipe never registered");
    // A pipe for no thread opens no end: its ring goes back too.
    assert_eq!(k.pipe_for(tid + 1), Err(errno::EINVAL as u32));
    assert_eq!(k.heap.in_use, before_heap, "no pipe memory leaked");
    assert!(k.pipes.is_empty());
}

/// Take everything `alloc` will still give, largest pieces first.
fn exhaust(mut alloc: impl FnMut(u32) -> bool) {
    for shift in (2..24).rev() {
        while alloc(1 << shift) {}
    }
}

/// A kernel with one loaded program nobody runs; its entry.
fn boot_with_entry() -> (Kernel, u32) {
    let mut k = boot();
    let mut a = Asm::new("never_run");
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    (k, entry)
}

/// The kernel heap and code buffer in use, and the thread blocks listed.
fn held(k: &Kernel) -> (u32, u32, u32) {
    let listed = k.listed_thread_blocks().len() as u32;
    (k.heap.in_use, k.creator.codebuf.in_use, listed)
}

/// A failed create took nothing but, perhaps, the `grown` thread blocks it
/// added to the free list: the heap holds exactly those more.
fn assert_gave_back(k: &Kernel, before: (u32, u32, u32), grown: u32) {
    let (heap, code, listed) = held(k);
    assert_eq!(listed, before.2 + grown, "thread blocks listed");
    assert_eq!(heap, before.0 + grown * layout::THREAD_BLOCK_LEN, "heap");
    assert_eq!(code, before.1, "code buffer");
}

#[test]
fn create_thread_out_of_heap_gives_back_what_it_took() {
    let (mut k, entry) = boot_with_entry();
    // Less than a thread block is left, and none is listed: the
    // list cannot grow.
    let room = layout::THREAD_BLOCK_LEN - synthesis_core::alloc::fastfit::ALIGN;
    let hold = k.heap.alloc(room).unwrap();
    exhaust(|n| k.heap.alloc(n).is_ok());
    k.heap.free(hold, room);
    let before = held(&k);
    assert_eq!(before.2, 0);
    assert!(k.create_thread(entry, USTACK, user_map()).is_err());
    assert_gave_back(&k, before, 0);
}

#[test]
fn create_thread_out_of_code_space_gives_back_what_it_took() {
    let (mut k, entry) = boot_with_entry();
    let threads = k.threads.len();
    // A switch block is as big as the idle thread's.
    let sw_size = k.threads.values().next().expect("idle").sw.size;
    let hold = k.creator.codebuf.alloc(sw_size).unwrap();
    exhaust(|n| k.creator.codebuf.alloc(n).is_ok());
    // No room for the switch block: the create grew the free list by the
    // block it would have filled, and that block stays listed...
    let before = held(&k);
    assert!(k.create_thread(entry, USTACK, user_map()).is_err());
    assert_gave_back(&k, before, 1);
    // ...then room for exactly that: the first dispatcher fails, and the
    // listed block serves without growing the list.
    k.creator.codebuf.free(hold, sw_size);
    let before = held(&k);
    assert!(k.create_thread(entry, USTACK, user_map()).is_err());
    assert_gave_back(&k, before, 0);
    assert_eq!(k.threads.len(), threads);
    assert_eq!(k.run(50_000), RunExit::CycleLimit, "the kernel runs on");
}

/// The pipes one thread of a kernel with a 64 KB heap opens until the
/// heap is out, after `others` other threads were created and destroyed
/// (their blocks listed); also how many blocks are listed at the end.
fn pipes_until_the_heap_is_out(others: usize) -> (usize, usize) {
    let mut k = Kernel::boot(KernelConfig {
        layout: MemLayout {
            heap_len: 0x1_0000,
            ..MemLayout::default()
        },
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    let mut a = Asm::new("never_run");
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let holder = k.create_thread(entry, USTACK, user_map()).unwrap();
    let tids: Vec<_> = (0..others)
        .map(|_| k.create_thread(entry, USTACK, user_map()).unwrap())
        .collect();
    for tid in tids {
        k.destroy(tid).unwrap();
    }
    assert_eq!(k.listed_thread_blocks().len(), others);
    let mut pipes = 0;
    while k.pipe_for(holder).is_ok() {
        pipes += 1;
    }
    assert_eq!(k.pipe_for(holder), Err(errno::ENOMEM as u32));
    (pipes, k.listed_thread_blocks().len())
}

/// Listed thread blocks are kernel heap no thread owns: an allocation
/// that finds the heap full gives them back to it and tries again, so a
/// kernel whose threads came and went opens as many pipes as a fresh one.
#[test]
fn a_full_heap_takes_back_the_listed_thread_blocks() {
    let (fresh, _) = pipes_until_the_heap_is_out(0);
    assert!(
        (2..8).contains(&fresh),
        "{fresh} pipes: the heap binds first"
    );
    assert_eq!(pipes_until_the_heap_is_out(5), (fresh, 0));
}

#[test]
fn a_tid_consumed_by_a_failed_create_is_not_reported_exited() {
    let (mut k, entry) = boot_with_entry();
    let first = k.create_thread(entry, USTACK, user_map()).unwrap();
    let mut held = Vec::new();
    exhaust(|n| {
        k.creator
            .codebuf
            .alloc(n)
            .map(|a| held.push((a, n)))
            .is_ok()
    });
    assert!(k.create_thread(entry, USTACK, user_map()).is_err());
    for (a, n) in held {
        k.creator.codebuf.free(a, n);
    }
    let third = k.create_thread(entry, USTACK, user_map()).unwrap();
    assert_eq!(third, first + 2, "the failed create consumed a tid");
    k.destroy(third).unwrap();
    assert!(!k.exited.contains(&(first + 1)));
    assert_eq!(k.exited.iter().collect::<Vec<_>>(), [third]);
}

#[test]
fn exited_yields_destroyed_tids_in_ascending_order() {
    let (mut k, entry) = boot_with_entry();
    let tids: Vec<u32> = (0..4)
        .map(|_| k.create_thread(entry, USTACK, user_map()).unwrap())
        .collect();
    for i in [2, 0, 3] {
        k.destroy(tids[i]).unwrap();
    }
    assert_eq!(
        k.exited.iter().collect::<Vec<_>>(),
        [tids[0], tids[2], tids[3]]
    );
    assert!(!k.exited.contains(&tids[1]), "still alive");
}

/// The thread behind a VBR is the tid its TTE holds, checked against the
/// thread that owns the block: a destroyed thread's vector table names
/// nobody until the next create pops its block and names itself, and a
/// VBR outside the heap, or a TTE whose tid slot names another thread,
/// names nobody.
#[test]
fn tid_at_reads_the_tid_the_tte_behind_a_vbr_holds() {
    use synthesis_core::thread::tte::off;
    let (mut k, entry) = boot_with_entry();
    let tids: Vec<u32> = (0..3)
        .map(|_| k.create_thread(entry, USTACK, user_map()).unwrap())
        .collect();
    for (&tid, t) in &k.threads {
        assert_eq!(k.tid_at(t.vt()), Some(tid), "live tid {tid}");
    }
    assert_eq!(k.tid_at(0), None, "the VBR at boot");
    // A TTE-shaped long outside the heap that names a live thread.
    let outside = layout::USER_BASE + 0x4_0000;
    k.m.mem.poke(outside + off::TID, L, tids[0]);
    assert_eq!(
        k.tid_at(outside + layout::TTE_LEN),
        None,
        "outside the heap"
    );

    // A scribbled tid slot names another live thread: nobody.
    let (vt1, tte1) = (k.threads[&tids[1]].vt(), k.threads[&tids[1]].tte);
    k.m.mem.poke(tte1 + off::TID, L, tids[2]);
    assert_eq!(k.tid_at(vt1), None, "a scribbled slot");
    k.m.mem.poke(tte1 + off::TID, L, tids[1]);

    let (dead, dead_vt) = (tids[0], k.threads[&tids[0]].vt());
    k.destroy(dead).unwrap();
    let block = dead_vt - layout::TTE_LEN;
    assert_eq!(k.listed_thread_blocks(), [block]);
    assert_eq!(k.m.mem.peek(block + off::TID, L), dead, "the stale tid");
    assert_eq!(k.tid_at(dead_vt), None, "a listed block");

    let next = k.create_thread(entry, USTACK, user_map()).unwrap();
    assert_eq!(k.threads[&next].vt(), dead_vt, "the create pops the block");
    assert_eq!(k.tid_at(dead_vt), Some(next));
}
