//! Fused vs layered pipe I/O is observationally equivalent.
//!
//! The contract of call-site fusion: collapsing the pipe path into the
//! caller (trap-elided `jsr`-bound wrappers, the pipe body inlined
//! behind them) must not change anything a program can see — only how
//! many cycles it costs.
//! This property test runs the same transfer program on two identically
//! configured Synthesis kernels — once as a thread sharing the kernel's
//! flat space (fused) and once under the user-window map, which the
//! kernel never fuses (layered) — across randomized chunk sizes, data
//! seeds, and 1/2/4-CPU machines, and compares:
//!
//! - **bytes moved** — the program totals its `read`/`write` return
//!   values into a result slot; both kernels must report the full
//!   `2 × chunk × iters` and the destination buffer must hold the
//!   source bytes (the ring wraps many times for chunks that do not
//!   divide the 8 KB ring),
//! - **TraceQuery event sequence** — the pipe-queue wake events
//!   (`QueuePut`/`QueueGet`, class pipe) must match record for record,
//!   and elision must only ever *remove* syscall traps,
//! - **guest-visible state** — source buffer unclobbered, identical on
//!   both kernels.

use proptest::prelude::*;
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::trace::{Kind, TraceQuery, QCLASS_PIPE};
use synthesis_unix::emu::UnixEmulator;
use synthesis_unix::programs::{addrs, pipe_xfer};

/// One run: boot, seed the source buffer, transfer, collect everything
/// a program (or a tracing observer) can see.
struct Observed {
    bytes_moved: u32,
    src: Vec<u8>,
    dst: Vec<u8>,
    pipe_events: Vec<(Kind, u32, u32)>,
    syscall_traps: usize,
}

fn run_one(flat: bool, cpus: usize, chunk: u32, iters: u32, seed: u64) -> Observed {
    let cfg = KernelConfig {
        cpus,
        ..KernelConfig::default()
    };
    let mut emu = UnixEmulator::new(Kernel::boot(cfg).expect("boots"));
    // The caller's address map is the whole difference between the two
    // sides: the kernel fuses a thread that can already see all of it.
    let map = if flat {
        AddressMap::single(1, 0, emu.k.m.mem.size())
    } else {
        AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
    };
    let tid = emu.spawn(pipe_xfer(chunk, iters, 1), map).expect("spawns");
    // Deterministic pseudo-random source bytes from the seed.
    let mut x = seed | 1;
    let data: Vec<u8> = (0..chunk)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect();
    emu.k.m.mem.poke_bytes(addrs::BUF, &data);
    assert!(
        emu.run_until_exit(tid, 10_000_000_000),
        "transfer must finish (flat={flat}, cpus={cpus}, chunk={chunk}, iters={iters})"
    );
    let bytes_moved = emu.k.m.mem.peek(addrs::RESULT, quamachine::isa::Size::L);
    let src = emu.k.m.mem.peek_bytes(addrs::BUF, chunk);
    let dst = emu.k.m.mem.peek_bytes(addrs::XFER_DST, chunk);
    let q = TraceQuery::drain(&mut emu.k);
    let pipe_events: Vec<(Kind, u32, u32)> = q
        .records()
        .iter()
        .filter(|r| matches!(r.kind, Kind::QueuePut | Kind::QueueGet) && r.a == QCLASS_PIPE)
        .map(|r| (r.kind, r.a, r.b))
        .collect();
    let syscall_traps = q.thread(tid).count_kind(Kind::SyscallEnter);
    Observed {
        bytes_moved,
        src,
        dst,
        pipe_events,
        syscall_traps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn fused_and_layered_pipes_agree(
        chunk in 1u32..4097,
        iters in 1u32..6,
        seed in any::<u64>(),
        cpus in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let fused = run_one(true, cpus, chunk, iters, seed);
        let layered = run_one(false, cpus, chunk, iters, seed);

        // Bytes moved: both sides count every byte, twice (write+read).
        prop_assert_eq!(fused.bytes_moved, 2 * chunk * iters);
        prop_assert_eq!(fused.bytes_moved, layered.bytes_moved);

        // Data integrity: the destination holds the source bytes and
        // the source is unclobbered, identically on both kernels.
        prop_assert_eq!(&fused.dst, &fused.src);
        prop_assert_eq!(&fused.src, &layered.src);
        prop_assert_eq!(&fused.dst, &layered.dst);

        // The pipe-queue wake events match record for record (a solo
        // pipe that never blocks produces none on either side; any that
        // do fire must agree).
        prop_assert_eq!(&fused.pipe_events, &layered.pipe_events);

        // Trap elision only ever removes syscall traps.
        prop_assert!(
            fused.syscall_traps <= layered.syscall_traps,
            "fused path grew traps: {} > {}",
            fused.syscall_traps,
            layered.syscall_traps
        );
    }
}

/// The fusion rule is the caller's address map and nothing else: on one
/// kernel configuration, a thread under the user-window map gets no
/// fused spec for fds a flat-space thread fuses, and every one of its
/// syscalls stays a trap.
#[test]
fn user_window_thread_never_fuses() {
    let iters = 4;
    let specs = |flat: bool| -> (bool, bool) {
        let mut emu = UnixEmulator::new(Kernel::boot(KernelConfig::default()).expect("boots"));
        let map = if flat {
            AddressMap::single(1, 0, emu.k.m.mem.size())
        } else {
            AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
        };
        let tid = emu.spawn(pipe_xfer(64, iters, 1), map).expect("spawns");
        // Run up to the first transfer: the pipe's two fds are open.
        while emu.k.threads[&tid].fd(1).is_none() {
            emu.run(500);
        }
        (
            emu.k.fused_rw_spec(tid, 0, false).is_some(),
            emu.k.fused_rw_spec(tid, 1, true).is_some(),
        )
    };
    assert_eq!(
        specs(true),
        (true, true),
        "a flat-space caller's solo pipe fuses"
    );
    assert_eq!(specs(false), (false, false), "a windowed caller never does");

    // pipe + iters × (write + read) + 2 closes + exit, each one a trap —
    // or none.
    let layered = run_one(false, 1, 64, iters, 7);
    assert_eq!(layered.syscall_traps, 2 * iters as usize + 4);
    assert_eq!(run_one(true, 1, 64, iters, 7).syscall_traps, 0);
}

/// The `jsr` targets of the loaded program `name`, site by site.
fn jsr_targets(k: &Kernel, name: &str) -> Vec<u32> {
    use quamachine::isa::{Instr, Operand};
    let (_, block) =
        k.m.code
            .iter()
            .find(|(_, b)| &*b.name == name)
            .expect("the program is loaded");
    block
        .instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Jsr(Operand::Abs(t)) => Some(*t),
            _ => None,
        })
        .collect()
}

/// A fused bind is traced where it happens. `pipe_rw` opens its pipe,
/// binds its `write` and `read` sites on their first execution, and
/// never opens or closes anything again before `exit`: the two
/// wrappers' `CacheMiss` records must be in the binding thread's ring
/// stamped inside the window the bind ran in — not held back until the
/// exit's teardown happens to drain them — and no event may be left
/// waiting in the creator between calls.
#[test]
fn a_fused_bind_is_traced_in_the_call_that_made_it() {
    use std::collections::BTreeMap;
    use synthesis_unix::emu::boot_with_program;
    use synthesis_unix::programs::pipe_rw;

    let cfg = KernelConfig {
        trace_records: 1 << 16,
        ..KernelConfig::default()
    };
    let (mut emu, tid) = boot_with_program(cfg, pipe_rw(1, 2000)).expect("boots");
    // Before the first instruction every site targets a static thunk.
    let thunks = jsr_targets(&emu.k, "p2_pipe_1");
    // Wrapper base -> the cycle window its site was first seen bound in.
    let mut bound: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    while !emu.k.exited.contains(&tid) {
        let before = emu.k.m.meter.cycles;
        emu.run(500);
        let after = emu.k.m.meter.cycles;
        assert!(after < 50_000_000, "the program never exited");
        assert_eq!(
            emu.k.creator.cache_events,
            [],
            "cache events left waiting at cycle {after}"
        );
        if emu.k.exited.contains(&tid) {
            break; // the exit re-armed the sites and unloaded the program
        }
        for t in jsr_targets(&emu.k, "p2_pipe_1") {
            if !thunks.contains(&t) {
                bound.entry(t).or_insert((before, after));
            }
        }
    }
    assert_eq!(bound.len(), 2, "a write wrapper and a read wrapper bound");
    let last_bind = bound.values().map(|w| w.1).max().unwrap();
    let exit = emu.k.m.meter.cycles;
    assert!(
        exit > last_bind + 100_000,
        "the exit ({exit}) is nowhere near the binds ({last_bind})"
    );

    let q = TraceQuery::drain(&mut emu.k)
        .thread(tid)
        .kind(Kind::CacheMiss);
    for (base, (before, after)) in bound {
        assert_eq!(
            q.count(|r| r.a == base && (before..=after).contains(&r.cycle)),
            1,
            "wrapper {base:#x} bound in cycles {before}..={after}; the thread's misses: {:?}",
            q.records()
        );
    }
}

// --- One owner for the code behind a (tid, fd) ---------------------------
//
// A flat-map UNIX writer whose pipe stops being solo under it: a native
// reader is attached to the pipe from the host, blocks on the empty ring,
// and must be woken by the writer's next 1-byte write — through whatever
// its call site is bound to by then.

mod attach {
    use quamachine::asm::Asm;
    use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
    use quamachine::machine::RunExit;
    use quamachine::mem::AddressMap;
    use synthesis_core::io::pipe::DEFAULT_PIPE_SIZE;
    use synthesis_core::kernel::{Kernel, KernelConfig};
    use synthesis_core::layout;
    use synthesis_core::syscall::{general, traps};
    use synthesis_core::thread::{ThreadState, Tid, WaitObject};
    use synthesis_unix::abi;
    use synthesis_unix::emu::{boot_with_program, UnixEmulator};
    use synthesis_unix::programs::addrs;

    /// A `kcall` neither the kernel nor the emulator owns: `run` hands
    /// control to the host at exactly this instruction boundary.
    pub const MARK: u16 = 0x60;
    /// Where the reader leaves its `read`'s return value.
    const READER_RESULT: u32 = addrs::RESULT + 0x10;

    fn unix_rw(a: &mut Asm, sysno: u32, fd_from_d5: impl FnOnce(&mut Asm)) {
        a.move_i(L, sysno, Dr(0));
        a.move_(L, Dr(5), Dr(1));
        fd_from_d5(a);
        a.lea(Abs(addrs::BUF), 0);
        a.move_i(L, 1, Dr(2));
        a.trap(abi::UNIX_TRAP);
    }

    fn exit(a: &mut Asm) {
        a.move_i(L, abi::SYS_EXIT, Dr(0));
        a.trap(abi::UNIX_TRAP);
        let dead = a.here();
        a.bcc(Cond::T, dead);
    }

    /// Spin well past one 200 µs quantum, so a freshly started thread
    /// gets the CPU (and blocks) before the writer goes on.
    fn spin(a: &mut Asm) {
        a.move_i(L, 20_000, Dr(6));
        let top = a.here();
        a.sub(L, Imm(1), Dr(6));
        a.bcc(Cond::Ne, top);
    }

    /// `pipe`; write 1 B and read it back (binding both sites); mark;
    /// spin; mark; write 1 B *through the same site*; mark; exit.
    pub fn binder_then_writer() -> Asm {
        let mut a = Asm::new("binder_then_writer");
        a.move_i(L, abi::SYS_PIPE, Dr(0));
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), Dr(5)); // (rfd << 8) | wfd
        a.move_i(L, 2, Dr(7));
        let done = a.label();
        let top = a.here();
        unix_rw(&mut a, abi::SYS_WRITE, |a| a.and(L, Imm(0xFF), Dr(1)));
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Eq, done);
        unix_rw(&mut a, abi::SYS_READ, |a| {
            a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
        });
        a.kcall(MARK);
        spin(&mut a);
        a.kcall(MARK);
        a.bcc(Cond::T, top);
        a.bind(done);
        a.kcall(MARK);
        exit(&mut a);
        a
    }

    /// Spin; mark; write 1 B to fd 1; mark; exit. The host opens the
    /// pipe for it before it first runs.
    pub fn late_writer() -> Asm {
        let mut a = Asm::new("late_writer");
        spin(&mut a);
        a.kcall(MARK);
        a.move_i(L, 1, Dr(5));
        unix_rw(&mut a, abi::SYS_WRITE, |_| {});
        a.kcall(MARK);
        exit(&mut a);
        a
    }

    pub fn boot(program: Asm) -> (UnixEmulator, Tid) {
        let (mut emu, tid) = boot_with_program(KernelConfig::default(), program).expect("boots");
        emu.k.m.mem.poke(addrs::BUF, B, 0x5A);
        (emu, tid)
    }

    pub fn run_to_mark(emu: &mut UnixEmulator) {
        assert_eq!(emu.run(50_000_000), RunExit::KCall(MARK));
    }

    /// A native thread under the user-window map: `read(fd 0, 1 byte)`
    /// through `trap #1`, leave the return value in memory, exit. Created
    /// stopped, with no fds.
    pub fn native_reader(k: &mut Kernel) -> Tid {
        native_peer(k, false)
    }

    /// The same around one byte at [`addrs::XFER_DST`], read from fd 0 or
    /// written to fd 1.
    pub fn native_peer(k: &mut Kernel, write: bool) -> Tid {
        let mut a = Asm::new("native_peer");
        a.move_i(L, u32::from(write), Dr(0));
        a.lea(Abs(addrs::XFER_DST), 0);
        a.move_i(L, 1, Dr(1));
        a.trap(if write { traps::WRITE } else { traps::READ });
        a.move_(L, Dr(0), Abs(READER_RESULT));
        a.move_i(L, general::EXIT, Dr(0));
        a.trap(traps::GENERAL);
        let dead = a.here();
        a.bcc(Cond::T, dead);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        k.m.mem.poke(READER_RESULT, L, 0);
        let window = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
        k.create_thread(entry, addrs::USTACK + 0x1000, window)
            .unwrap()
    }

    /// `pipe`, then 1-byte calls on it until one blocks: the first `read`
    /// (empty ring), or the `write` after the ring's worth. Each call's
    /// return value goes to [`addrs::RESULT`]; then mark and exit.
    pub fn blocks_on_its_own_pipe(write: bool) -> Asm {
        let mut a = Asm::new("blocks_on_its_own_pipe");
        a.move_i(L, abi::SYS_PIPE, Dr(0));
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), Dr(5)); // (rfd << 8) | wfd
        a.move_i(L, if write { DEFAULT_PIPE_SIZE + 1 } else { 1 }, Dr(7));
        let top = a.here();
        if write {
            unix_rw(&mut a, abi::SYS_WRITE, |a| a.and(L, Imm(0xFF), Dr(1)));
        } else {
            unix_rw(&mut a, abi::SYS_READ, |a| {
                a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
            });
        }
        a.move_(L, Dr(0), Abs(addrs::RESULT));
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        a.kcall(MARK);
        exit(&mut a);
        a
    }

    pub fn assert_blocked_on_pipe(k: &Kernel, reader: Tid, pid: u32) {
        assert_eq!(
            k.threads[&reader].state,
            ThreadState::Blocked(WaitObject::PipeData(pid)),
            "the reader ran into the empty ring"
        );
    }

    /// The reader got its byte and exited; `false` if it is still there.
    pub fn reader_finishes(emu: &mut UnixEmulator, reader: Tid) -> bool {
        // The writer may still have marks to pass on its way out.
        for _ in 0..4 {
            if emu.run_until_exit(reader, 5_000_000) {
                break;
            }
        }
        emu.k.exited.contains(&reader)
            && emu.k.m.mem.peek(READER_RESULT, L) == 1
            && emu.k.m.mem.peek(addrs::XFER_DST, B) == 0x5A
    }
}

/// (a) Attach after bind: the writer's site was bound while its pipe was
/// solo; a reader attached since then is blocked on the ring when the
/// writer calls through that site again.
#[test]
fn a_reader_attached_after_the_bind_is_woken_by_the_next_write() {
    let (mut emu, _writer) = attach::boot(attach::binder_then_writer());
    attach::run_to_mark(&mut emu); // both sites bound
    let reader = attach::native_reader(&mut emu.k);
    assert_eq!(emu.k.pipe_attach(reader, 0), Ok((0, 1)));
    emu.k.start(reader).unwrap();
    attach::run_to_mark(&mut emu); // the writer spun; the reader ran
    attach::assert_blocked_on_pipe(&emu.k, reader, 0);
    attach::run_to_mark(&mut emu); // 1 byte through the same site
    assert!(
        attach::reader_finishes(&mut emu, reader),
        "the byte is in the ring and the reader is {:?}",
        emu.k.threads.get(&reader).map(|t| &t.state)
    );
}

/// (b) One reader and one writer is not solo when they are two threads.
#[test]
fn one_reader_and_one_writer_in_two_threads_is_not_solo() {
    let (mut emu, writer) = attach::boot(attach::late_writer());
    assert_eq!(emu.k.pipe_for(writer), Ok((0, 1)));
    let reader = attach::native_reader(&mut emu.k);
    assert_eq!(emu.k.pipe_attach(reader, 0), Ok((0, 1)));
    emu.k.close_for(writer, 0).unwrap();
    emu.k.close_for(reader, 1).unwrap();
    let p = &emu.k.pipes[0];
    assert_eq!((p.readers, p.writers), (1, 1), "solo by count alone");
    assert!(
        emu.k.fused_rw_spec(writer, 1, true).is_none(),
        "the read end is another thread's"
    );
    emu.k.start(reader).unwrap();
    attach::run_to_mark(&mut emu);
    attach::assert_blocked_on_pipe(&emu.k, reader, 0);
    attach::run_to_mark(&mut emu);
    assert!(
        attach::reader_finishes(&mut emu, reader),
        "the byte is in the ring and the reader is {:?}",
        emu.k.threads.get(&reader).map(|t| &t.state)
    );
}

/// (d) The holder is on the wrapper's fast path, past its guard, when the
/// attach comes. Running: it is stepped past the publish first, so the
/// publish it was about to make lands before a reader can be waiting.
/// Parked there: the attach answers `EAGAIN`, changes nothing, and goes
/// through once the holder has run on.
#[test]
fn an_attach_never_leaves_the_holder_inside_a_solo_wrapper() {
    use quamachine::isa::{Instr, Operand, Size};
    use quamachine::machine::RunExit;
    use synthesis_core::syscall::errno;

    for park in [false, true] {
        let (mut emu, writer) = attach::boot(attach::binder_then_writer());
        attach::run_to_mark(&mut emu);
        // The write wrapper's fast-path publish: its first store to head.
        let Some(open) = emu.k.threads[&writer].fd(1) else {
            panic!("fd 1 is the pipe's write end");
        };
        let bound = &open.bound;
        let [site] = &bound[..] else {
            panic!("one write site, bound: {bound:?}");
        };
        let (site_at, wrapper) = (site.site, site.wrapper.base);
        let head_slot = emu.k.pipes[0].head_slot;
        let block = emu.k.m.code.block(wrapper).expect("resident");
        let store = block
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Move(_, _, Operand::Abs(a)) if *a == head_slot))
            .expect("the wrapper publishes head");
        let publish = emu.k.m.code.addr_of(wrapper, store).unwrap();
        // What relies on solo: entry through the publish. What follows
        // it wakes nobody because nobody can be waiting yet.
        let inside = wrapper..=publish;
        emu.k.m.breakpoints.insert(publish);
        attach::run_to_mark(&mut emu); // past the spin
        assert_eq!(emu.run(1_000_000), RunExit::Breakpoint(publish));
        emu.k.m.breakpoints.clear();
        let head = |emu: &UnixEmulator| emu.k.m.mem.peek(head_slot, Size::L);
        let before = head(&emu);

        let reader = attach::native_reader(&mut emu.k);
        if park {
            emu.k.stop(writer).unwrap();
            assert_eq!(emu.k.pipe_attach(reader, 0), Err(errno::EAGAIN as u32));
            let p = &emu.k.pipes[0];
            assert_eq!((p.readers, p.writers, p.fused_by), (1, 1, Some(writer)));
            assert_eq!(jsr_targets(&emu.k, "binder_then_writer")[1], wrapper);
            assert_eq!(head(&emu), before, "nothing ran");
            emu.k.start(writer).unwrap();
            attach::run_to_mark(&mut emu); // one more slice: out of the wrapper
        }
        assert_eq!(emu.k.pipe_attach(reader, 0), Ok((0, 1)));
        assert_eq!(head(&emu), before + 1, "the publish came first");
        for cpu in 0..emu.k.cpus.len() {
            assert!(!inside.contains(&emu.k.m.cpu_ref(cpu).pc), "cpu {cpu}");
        }
        let loc = emu.k.m.code.locate(site_at).unwrap();
        assert_ne!(
            emu.k.m.code.instr(loc),
            Some(&Instr::Jsr(Operand::Abs(wrapper))),
            "the site no longer leads into the wrapper"
        );
        assert!(emu.k.m.code.block(wrapper).is_some(), "still referenced");
        emu.k.start(reader).unwrap();
        assert!(attach::reader_finishes(&mut emu, reader), "park: {park}");
    }
}

/// (e) The holder is blocked on its own solo pipe — in the general body
/// its wrapper falls back to, so with a resume frame inside the wrapper —
/// and the attach is the only thing that can bring the peer that wakes
/// it: it goes through, and the peer's one byte lets the holder's call
/// return.
#[test]
fn an_attach_reaches_a_holder_blocked_on_its_own_pipe() {
    use quamachine::isa::Size;
    use quamachine::machine::RunExit;
    use synthesis_core::thread::{ThreadState, WaitObject};

    for write in [false, true] {
        let (mut emu, holder) = attach::boot(attach::blocks_on_its_own_pipe(write));
        let idle = emu.run(20_000_000);
        assert!(matches!(idle, RunExit::Halted | RunExit::CycleLimit));
        let t = &emu.k.threads[&holder];
        let (fd, wait) = if write {
            (1, WaitObject::PipeSpace(0))
        } else {
            (0, WaitObject::PipeData(0))
        };
        assert_eq!(t.state, ThreadState::Blocked(wait), "write: {write}");
        let Some(open) = t.fd(fd) else {
            panic!("fd {fd} is the pipe's");
        };
        let bound = &open.bound;
        let [site] = &bound[..] else {
            panic!("one site, bound: {bound:?}");
        };
        // It blocked in the wrapper itself, not in a layered routine.
        let wrapper = site.wrapper.base..site.wrapper.base + site.wrapper.size;
        let stack = t.kstack()..t.kstack() + layout::KSTACK_LEN - 3;
        assert!(
            stack
                .step_by(2)
                .any(|a| wrapper.contains(&emu.k.m.mem.peek(a, Size::L))),
            "write: {write}: no frame returns into the wrapper"
        );

        let peer = attach::native_peer(&mut emu.k, !write);
        emu.k.m.mem.poke(addrs::XFER_DST, Size::B, 0xA5);
        assert_eq!(emu.k.pipe_attach(peer, 0), Ok((0, 1)), "write: {write}");
        emu.k.start(peer).unwrap();
        attach::run_to_mark(&mut emu); // the holder's call came back
        assert_eq!(emu.k.m.mem.peek(addrs::RESULT, Size::L), 1);
        let byte = if write { addrs::XFER_DST } else { addrs::BUF };
        let sent = if write { 0x5A } else { 0xA5 };
        assert_eq!(emu.k.m.mem.peek(byte, Size::B), sent, "write: {write}");
        assert!(emu.run_until_exit(holder, 5_000_000));
    }
}
