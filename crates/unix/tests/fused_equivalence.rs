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
    use synthesis_core::thread::FdObject;

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
        while matches!(emu.k.threads[&tid].fds[1], FdObject::Free) {
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
            .find(|(_, b)| b.name == name)
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
