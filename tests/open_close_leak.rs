//! Leak soak for the channel registry: thousands of open/close cycles
//! across every device class must return the code buffer and the
//! FastFit kernel heap to their initial byte counts. Closed channels'
//! code stays warm in the specialization cache, so a quiescent point
//! holds exactly `baseline + warm_bytes` of code with no live
//! reference; flushing the cache restores the baseline to the byte.

mod common;

use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::*};
use quamachine::mem::AddressMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synthesis::codegen::codebuf;
use synthesis::kernel::io::stream::standard;
use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::kernel::syscall::{errno, general, traps};
use synthesis::kernel::thread::Tid;

const CYCLES: usize = 10_000;

/// A thread that would exit at once, created and never started.
fn parked_thread(k: &mut Kernel) -> Tid {
    let mut a = Asm::new("parked");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(
        entry,
        layout::USER_BASE + 0x1_0000,
        AddressMap::single(1, layout::USER_BASE, layout::USER_LEN),
    )
    .unwrap()
}

fn boot_with_thread() -> (Kernel, Tid) {
    let mut k = Kernel::boot(KernelConfig::default()).expect("kernel boots");
    let tid = parked_thread(&mut k);
    (k, tid)
}

struct Baseline {
    code_in_use: u32,
    code_free: u32,
    heap_in_use: u32,
    heap_free: u32,
}

fn baseline(k: &Kernel) -> Baseline {
    Baseline {
        code_in_use: k.creator.codebuf.in_use,
        code_free: k.creator.codebuf.free_bytes(),
        heap_in_use: k.heap.in_use,
        heap_free: k.heap.free_bytes(),
    }
}

/// A quiescent point (no fd open): every cached block is warm — no
/// reference outlived its fd — the code buffer holds the baseline plus
/// exactly the warm blocks' extents, and the heap is back to the byte.
fn assert_quiescent(k: &Kernel, b: &Baseline, what: &str, cycle: usize) {
    let cache = &k.creator.cache;
    assert_eq!(
        cache.resident_bytes(),
        cache.warm_bytes(),
        "{what} cycle {cycle}: a cache reference outlived its fd"
    );
    let warm: u32 = cache
        .warm_blocks()
        .map(|s| s.size.next_multiple_of(codebuf::ALIGN))
        .sum();
    assert_eq!(
        k.creator.codebuf.in_use,
        b.code_in_use + warm,
        "{what} cycle {cycle}: codebuf bytes in use"
    );
    assert_eq!(
        k.creator.codebuf.free_bytes(),
        b.code_free - warm,
        "{what} cycle {cycle}: codebuf free list"
    );
    assert_eq!(
        k.heap.in_use, b.heap_in_use,
        "{what} cycle {cycle}: heap bytes in use"
    );
    assert_eq!(
        k.heap.free_bytes(),
        b.heap_free,
        "{what} cycle {cycle}: heap free list"
    );
}

/// Quiescent, and after flushing the warm entries the code buffer is
/// back at the baseline exactly, with the cache empty.
fn assert_restored(k: &mut Kernel, b: &Baseline, what: &str, cycle: usize) {
    assert_quiescent(k, b, what, cycle);
    k.creator.flush_cache(&mut k.m);
    assert!(
        k.creator.cache.is_empty(),
        "{what} cycle {cycle}: stale cache entries"
    );
    assert_quiescent(k, b, what, cycle);
}

#[test]
fn ten_thousand_open_close_cycles_leak_nothing() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/soak", 4096)
        .unwrap();
    let b = baseline(&k);

    // Spread the budget across the device classes; each iteration is a
    // full open→close (or pipe→close-both) round trip.
    let per = CYCLES / 5;
    for i in 0..per {
        let fd = k.open_for(tid, "/dev/null").unwrap();
        k.close_for(tid, fd).unwrap();
        if i % 1024 == 0 {
            assert_quiescent(&k, &b, "/dev/null", i);
        }
    }
    assert_restored(&mut k, &b, "/dev/null", per);

    for i in 0..per {
        let fd = k.open_for(tid, "/dev/tty").unwrap();
        k.close_for(tid, fd).unwrap();
        if i % 1024 == 0 {
            assert_quiescent(&k, &b, "/dev/tty", i);
        }
    }
    assert_restored(&mut k, &b, "/dev/tty", per);

    for i in 0..per {
        let fd = k.open_for(tid, "/dev/tty-raw").unwrap();
        k.close_for(tid, fd).unwrap();
        if i % 1024 == 0 {
            assert_quiescent(&k, &b, "/dev/tty-raw", i);
        }
    }
    assert_restored(&mut k, &b, "/dev/tty-raw", per);

    for i in 0..per {
        let fd = k.open_for(tid, "/tmp/soak").unwrap();
        k.close_for(tid, fd).unwrap();
        if i % 1024 == 0 {
            assert_quiescent(&k, &b, "/tmp/soak", i);
        }
    }
    assert_restored(&mut k, &b, "/tmp/soak", per);

    for i in 0..per {
        let (rfd, wfd) = k.pipe_for(tid).unwrap();
        k.close_for(tid, rfd).unwrap();
        k.close_for(tid, wfd).unwrap();
        if i % 1024 == 0 {
            assert_quiescent(&k, &b, "pipe", i);
        }
    }
    assert_restored(&mut k, &b, "pipe", per);
}

/// The same invariant seen through the event trace: every device class
/// emits one synthesis event (cache hit or miss) per cached block it
/// opens and exactly one destroy event per block it releases, with the
/// first synthesis strictly before the first destroy.
#[test]
fn every_device_class_balances_synthesize_and_destroy_events() {
    use synthesis::kernel::trace::{Kind, TraceQuery};

    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/soak", 4096)
        .unwrap();
    // Cut point: discard boot-time synthesis events.
    let _ = TraceQuery::drain(&mut k);

    for class in ["/dev/null", "/dev/tty", "/dev/tty-raw", "/tmp/soak"] {
        for _ in 0..8 {
            let fd = k.open_for(tid, class).unwrap();
            k.close_for(tid, fd).unwrap();
        }
        let q = TraceQuery::drain(&mut k).thread(tid);
        let synths = q.count_kind(Kind::CacheHit) + q.count_kind(Kind::CacheMiss);
        let destroys = q.count_kind(Kind::Destroy);
        assert!(synths > 0, "{class}: opens must emit synthesis events");
        assert_eq!(
            synths, destroys,
            "{class}: synthesize events must balance destroy events"
        );
        assert!(
            q.ordered(&[
                &|r| matches!(r.kind, Kind::CacheHit | Kind::CacheMiss),
                &|r| r.kind == Kind::Destroy,
            ]),
            "{class}: a synthesis must precede the first destroy"
        );
    }

    for _ in 0..8 {
        let (rfd, wfd) = k.pipe_for(tid).unwrap();
        k.close_for(tid, rfd).unwrap();
        k.close_for(tid, wfd).unwrap();
    }
    let q = TraceQuery::drain(&mut k).thread(tid);
    let synths = q.count_kind(Kind::CacheHit) + q.count_kind(Kind::CacheMiss);
    assert!(synths > 0, "pipe: opens must emit synthesis events");
    assert_eq!(
        synths,
        q.count_kind(Kind::Destroy),
        "pipe: synthesize events must balance destroy events"
    );
}

#[test]
fn interleaved_open_close_with_sharing_leaks_nothing() {
    // The cache-heavy pattern: several fds on the same channel live at
    // once, closed in a different order than opened; then fd numbering.
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/soak", 4096)
        .unwrap();
    let b = baseline(&k);

    for round in 0..500 {
        let a = k.open_for(tid, "/tmp/soak").unwrap();
        let c = k.open_for(tid, "/tmp/soak").unwrap();
        let d = k.open_for(tid, "/dev/null").unwrap();
        k.close_for(tid, a).unwrap();
        let e = k.open_for(tid, "/tmp/soak").unwrap();
        k.close_for(tid, d).unwrap();
        k.close_for(tid, c).unwrap();
        k.close_for(tid, e).unwrap();
        if round % 100 == 0 {
            assert_quiescent(&k, &b, "interleaved", round);
        }
    }
    // A full table, two holes punched in it: the lowest free number comes
    // back first, then the next, then none is left.
    let fds: Vec<u32> = (0..16)
        .map(|_| k.open_for(tid, "/dev/null").unwrap())
        .collect();
    assert_eq!(fds, (0..16).collect::<Vec<_>>());
    k.close_for(tid, 3).unwrap();
    k.close_for(tid, 7).unwrap();
    assert_eq!(k.open_for(tid, "/tmp/soak"), Ok(3));
    assert_eq!(k.open_for(tid, "/dev/null"), Ok(7));
    assert_eq!(k.open_for(tid, "/dev/null"), Err(24), "EMFILE");
    common::assert_code_consistent(&k);
    for fd in fds {
        k.close_for(tid, fd).unwrap();
    }
    assert_restored(&mut k, &b, "interleaved", 500);
}

/// Seeded randomized churn: arbitrary interleavings of opens and
/// closes across the device classes, with up to 8 fds live at once,
/// must still balance to the baseline at every quiescent point. On
/// failure the shared soak plumbing prints the exact `SOAK_SEED=<seed>`
/// replay command.
#[test]
fn randomized_open_close_order_leaks_nothing() {
    for seed in common::soak_seeds(4) {
        common::soak_case(
            "open_close_leak",
            "randomized_open_close_order_leaks_nothing",
            seed,
            |slot| {
                let (k0, tid) = boot_with_thread();
                let k = slot.insert(k0);
                k.fs.create(&mut k.m, &mut k.heap, "/tmp/soak", 4096)
                    .unwrap();
                let b = baseline(k);
                let paths = ["/dev/null", "/dev/tty", "/dev/tty-raw", "/tmp/soak"];
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut live: Vec<u32> = Vec::new();
                for i in 0..2_000 {
                    if live.len() < 8 && (live.is_empty() || rng.random::<bool>()) {
                        let path = paths[rng.random_range(0..paths.len())];
                        live.push(k.open_for(tid, path).unwrap());
                    } else {
                        let fd = live.swap_remove(rng.random_range(0..live.len()));
                        k.close_for(tid, fd).unwrap();
                    }
                    if i % 512 == 0 && live.is_empty() {
                        assert_quiescent(k, &b, "randomized", i);
                    }
                }
                for fd in live.drain(..) {
                    k.close_for(tid, fd).unwrap();
                }
                assert_restored(k, &b, "randomized", 2_000);
            },
        );
    }
}

#[test]
fn stream_open_close_cycles_leak_nothing() {
    let mut k = Kernel::boot(KernelConfig::default()).expect("kernel boots");
    let b = baseline(&k);
    for i in 0..500 {
        let chan = k.open_stream(standard::device_to_cooked(), 64).unwrap();
        let put2 = k.stream_attach_producer(&chan).unwrap();
        k.stream_release_endpoint(&put2);
        k.close_stream(chan);
        if i % 100 == 0 {
            assert_quiescent(&k, &b, "stream", i);
        }
    }
    assert_restored(&mut k, &b, "stream", 500);
}

/// The same invariant through run-time code rewriting: a UNIX-ABI
/// program whose traps are elided opens a channel, writes through it —
/// binding the call site to a freshly fused per-(tid, fd) wrapper — and
/// closes it, which re-arms the site and releases the wrapper. Every
/// cycle binds and unbinds; code and heap come back to the byte.
#[test]
fn fused_open_write_close_churn_leaks_nothing() {
    use quamachine::isa::Cond;
    use quamachine::machine::RunExit;
    use synthesis::unix::abi;
    use synthesis::unix::emu::boot_with_program;
    use synthesis::unix::programs::addrs;

    /// A `kcall` the emulator does not own: each one hands control to
    /// the host between cycles, with no fd open.
    const MARK: u16 = 0x60;
    const ROUNDS: usize = 300;

    let mut a = Asm::new("fused_churn");
    let top = a.here();
    a.kcall(MARK);
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS), 0); // "/dev/null"
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5));
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, 8, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Abs(addrs::RESULT));
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.bcc(Cond::T, top);

    let (mut emu, tid) = boot_with_program(KernelConfig::default(), a).expect("boots");
    let mut b = None;
    for round in 0..=ROUNDS {
        assert_eq!(emu.run(10_000_000), RunExit::KCall(MARK), "round {round}");
        if round == 1 {
            // One warm-up cycle behind us; start from an empty cache.
            emu.k.creator.flush_cache(&mut emu.k.m);
            b = Some(baseline(&emu.k));
        } else if let Some(b) = &b {
            assert_quiescent(&emu.k, b, "fused churn", round);
        }
        common::assert_code_consistent(&emu.k);
    }
    assert_eq!(
        emu.k.m.mem.peek(addrs::RESULT, L),
        8 * ROUNDS as u32,
        "every write went through"
    );
    // The warm-up cycle and the one after the flush synthesize; every
    // later cycle relinks both endpoints and rebinds the fused wrapper.
    assert_eq!(emu.k.creator.stats.cache_hits, 3 * (ROUNDS as u64 - 2));
    assert_restored(
        &mut emu.k,
        &b.expect("set in round 1"),
        "fused churn",
        ROUNDS,
    );
    assert!(emu.k.threads.contains_key(&tid), "still parked at its mark");
}

/// `pipe`; write 1 byte and read it back, binding both call sites; hand
/// control to the host; exit.
fn pipe_binder() -> Asm {
    use synthesis::unix::abi;
    use synthesis::unix::programs::addrs;

    let mut a = Asm::new("pipe_binder");
    a.move_i(L, abi::SYS_PIPE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5)); // (rfd << 8) | wfd: (0, 1) in a fresh thread
    for (sysno, fd) in [(abi::SYS_WRITE, 1), (abi::SYS_READ, 0)] {
        a.move_i(L, sysno, Dr(0));
        a.move_i(L, fd, Dr(1));
        a.lea(Abs(addrs::BUF), 0);
        a.move_i(L, 1, Dr(2));
        a.trap(abi::UNIX_TRAP);
    }
    a.kcall(0x60);
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a
}

/// (c) However a thread with bound call sites dies, its wrappers go with
/// it: the host's `destroy` — the path the fault reaper and the watchdog
/// take — leaves exactly what the thread's own `exit` leaves.
#[test]
fn destroying_a_thread_with_bound_sites_releases_what_its_exit_would() {
    use quamachine::machine::RunExit;
    use synthesis::unix::emu::boot_with_program;

    let left_after = |reap: bool| {
        let (mut emu, tid) = boot_with_program(KernelConfig::default(), pipe_binder()).unwrap();
        assert_eq!(emu.run(10_000_000), RunExit::KCall(0x60));
        common::assert_code_consistent(&emu.k);
        if reap {
            emu.k.destroy(tid).unwrap();
        } else {
            assert!(emu.run_until_exit(tid, 10_000_000));
        }
        common::assert_code_consistent(&emu.k);
        emu.k.creator.flush_cache(&mut emu.k.m);
        (
            emu.k.creator.cache.resident_bytes(),
            emu.k.creator.codebuf.in_use,
        )
    };
    let exited = left_after(false);
    assert_eq!(exited.0, 0, "an exit leaves no referenced block");
    assert_eq!(left_after(true), exited);
}

/// A UNIX thread's `trap #3` dispatcher is the thread's: fifty threads
/// through one loaded program leave the code space where two did.
#[test]
fn a_unix_thread_takes_its_dispatcher_with_it() {
    use synthesis::unix::emu::UnixEmulator;

    let mut emu = UnixEmulator::new(Kernel::boot(KernelConfig::default()).unwrap());
    let mut a = Asm::new("exits");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = emu.k.load_user_program(a.assemble().unwrap()).unwrap();
    let window = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let mut after = Vec::new();
    for _ in 0..50 {
        let tid = emu
            .k
            .create_thread(entry, layout::USER_BASE + 0x1_0000, window.clone())
            .unwrap();
        emu.install(tid).unwrap();
        emu.k.start(tid).unwrap();
        assert!(emu.run_until_exit(tid, 1_000_000));
        after.push(emu.k.creator.codebuf.in_use);
    }
    assert_eq!(
        after[49], after[1],
        "code bytes in use after each exit: {after:?}"
    );
}

/// An attach that fails half way leaves the pipe as it found it: its
/// ends, and the holder whose bound sites it would have retired.
#[test]
fn a_failed_attach_leaves_the_pipe_and_its_bound_sites_alone() {
    use quamachine::machine::RunExit;
    use synthesis::unix::emu::boot_with_program;

    let (mut emu, binder) = boot_with_program(KernelConfig::default(), pipe_binder()).unwrap();
    assert_eq!(emu.run(10_000_000), RunExit::KCall(0x60));
    let k = &mut emu.k;
    let other = parked_thread(k);
    // One free fd: the read end opens, the write end does not.
    for _ in 0..15 {
        k.open_for(other, "/dev/null").unwrap();
    }
    let found = |k: &Kernel| (k.pipe_ends(0), k.pipe_holder(0));
    let before = found(k);
    assert_eq!(before, ((1, 1), Some(binder)));
    assert_eq!(k.pipe_attach(other, 0), Err(24), "EMFILE");
    assert_eq!(found(k), before);
    common::assert_code_consistent(k);
    assert!(k.fused_rw_spec(binder, 1, true).is_some(), "still solo");
    // With room, it goes through and the sites are retired.
    k.close_for(other, 0).unwrap();
    assert_eq!(k.pipe_attach(other, 0), Ok((0, 15)));
    assert_eq!(found(k), ((2, 2), None));
    common::assert_code_consistent(k);
    assert!(k.fused_rw_spec(binder, 1, true).is_none());
}

/// A site an attach retired is refused for good — even when the peer has
/// gone and the pipe is solo again by the site's next call — so the fd
/// never holds two entries for one site.
#[test]
fn a_retired_site_stays_layered_when_its_pipe_is_solo_again() {
    use quamachine::machine::RunExit;
    use synthesis::unix::emu::boot_with_program;

    let (mut emu, binder) = boot_with_program(KernelConfig::default(), pipe_binder()).unwrap();
    assert_eq!(emu.run(10_000_000), RunExit::KCall(0x60));
    let k = &mut emu.k;
    let other = parked_thread(k);
    let (rfd, wfd) = k.pipe_attach(other, 0).unwrap();
    k.close_for(other, rfd).unwrap();
    k.close_for(other, wfd).unwrap();
    assert!(k.fused_rw_spec(binder, 1, true).is_some(), "solo again");
    let sites = |k: &Kernel| match k.threads[&binder].fd(1) {
        Some(open) => open
            .bound
            .iter()
            .map(|b| (b.site, b.rearm, b.retired))
            .collect(),
        None => vec![],
    };
    let [(site, rearm, true)] = sites(k)[..] else {
        panic!("one write site, retired: {:x?}", sites(k));
    };
    // The site's next call: its thunk asks again.
    assert_eq!(k.bind_site(binder, 1, true, site, rearm, rearm), rearm);
    assert_eq!(sites(k), [(site, rearm, true)]);
    common::assert_code_consistent(k);
}

/// An attach to a pipe whose every end has closed answers `EBADF` and
/// touches nothing: the ring went back to the heap with the last close,
/// and whatever the heap handed the memory to next keeps it.
#[test]
fn attaching_a_freed_pipe_is_ebadf() {
    let (mut k, tid) = boot_with_thread();
    assert_eq!(k.pipe_for(tid), Ok((0, 1)));
    k.close_for(tid, 0).unwrap();
    k.close_for(tid, 1).unwrap();
    // The next small allocation takes the ring's freed head slot.
    let reused = k.heap.alloc(16).unwrap();
    let (in_use, free) = (k.heap.in_use, k.heap.free_bytes());

    assert_eq!(k.pipe_attach(tid, 0), Err(errno::EBADF as u32));
    assert!(k.threads[&tid].fds.is_empty(), "no fd opened");
    assert_eq!((k.heap.in_use, k.heap.free_bytes()), (in_use, free));
    common::assert_code_consistent(&k);
    k.heap.free(reused, 16);
}

/// A pipe takes the lowest id no live pipe holds: 1,000 pipes made and
/// closed one after another leave one table slot, not 1,000, and two
/// live at once take ids 0 and 1, as the first two pipes always have.
#[test]
fn pipe_ids_are_reused_lowest_first() {
    let (mut k, tid) = boot_with_thread();
    let b = baseline(&k);
    for _ in 0..1000 {
        let (r, w) = k.pipe_for(tid).unwrap();
        k.close_for(tid, r).unwrap();
        k.close_for(tid, w).unwrap();
    }
    assert_eq!(k.pipes.len(), 1, "one slot for one pipe live at a time");
    assert_eq!(k.heap.in_use, b.heap_in_use, "every ring was freed");

    assert_eq!(k.pipe_for(tid), Ok((0, 1)));
    assert_eq!(k.pipe_for(tid), Ok((2, 3)));
    assert_eq!((k.pipe_ends(0), k.pipe_ends(1)), ((1, 1), (1, 1)));
    // Closing pipe 0 frees its id for the next pipe; pipe 1 keeps its own.
    k.close_for(tid, 0).unwrap();
    k.close_for(tid, 1).unwrap();
    assert!(k.live_pipe(0).is_none());
    assert_eq!(k.pipe_for(tid), Ok((0, 1)));
    assert_eq!(k.pipes.len(), 2);
    assert_eq!((k.pipe_ends(0), k.pipe_ends(1)), ((1, 1), (1, 1)));
    common::assert_code_consistent(&k);
    common::assert_chains_consistent(&k);
}

/// Destroying a thread that holds two fds on one file and both ends of a
/// pipe frees the shared offset slot and the ring once each: each fd is
/// released while the later ones still name them.
#[test]
fn destroy_frees_a_shared_offset_slot_and_a_ring_once() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 256).unwrap();
    let b = baseline(&k);
    assert_eq!(k.open_for(tid, "/tmp/f"), Ok(0));
    assert_eq!(k.open_for(tid, "/tmp/f"), Ok(1));
    assert_eq!(k.pipe_for(tid), Ok((2, 3)));
    common::assert_code_consistent(&k);

    k.destroy(tid).unwrap();
    assert!(k.live_pipe(0).is_none(), "the ring is freed");
    assert_eq!(
        k.heap.in_use, b.heap_in_use,
        "slot and ring freed once each"
    );
    assert_eq!(k.heap.free_bytes(), b.heap_free);
    common::assert_code_consistent(&k);
    common::assert_chains_consistent(&k);
}
