//! The tracing subsystem's own contract: fixed-size binary records,
//! rings that wrap keeping the newest events, strict per-thread
//! isolation, post-mortem drains that outlive the reaped thread, and a
//! disabled trace that costs nothing and records nothing.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::Tid;
use synthesis_core::trace::{Kind, TraceRecord, RECORD_BYTES};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

/// A thread that opens `/dev/null` and writes 8-byte records forever —
/// a steady event source for the trace.
fn io_writer(k: &mut Kernel, stack: u32) -> Tid {
    let mut a = Asm::new("trace_io");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::WRITE);
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(entry, stack, user_map()).unwrap()
}

fn boot_io_kernel(cfg: KernelConfig) -> (Kernel, Tid) {
    let mut k = Kernel::boot(cfg).expect("kernel boots");
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let tid = io_writer(&mut k, USTACK);
    k.start(tid).unwrap();
    (k, tid)
}

#[test]
fn records_are_24_bytes_and_roundtrip() {
    let r = TraceRecord {
        cycle: 0x0123_4567_89AB_CDEF,
        tid: 7,
        kind: Kind::SyscallExit,
        flags: 0,
        a: 0xDEAD_BEEF,
        b: 42,
    };
    let wire = r.to_bytes();
    assert_eq!(wire.len(), RECORD_BYTES);
    assert_eq!(TraceRecord::from_bytes(&wire), Some(r));

    // An unknown kind on the wire decodes to None instead of garbage.
    let mut bad = wire;
    bad[12] = 0xFF;
    bad[13] = 0xFF;
    assert_eq!(TraceRecord::from_bytes(&bad), None);
}

#[test]
fn rings_are_isolated_per_thread() {
    let mut k = Kernel::boot(KernelConfig::default()).expect("kernel boots");
    for i in 0..5u32 {
        k.trace.push(1, 0, u64::from(i), Kind::QueuePut, 1, i);
    }
    for i in 0..3u32 {
        k.trace.push(2, 0, u64::from(i), Kind::QueueGet, 2, i);
    }

    let one = k.trace.snapshot(1);
    assert_eq!(one.len(), 5);
    assert!(one.iter().all(|r| r.tid == 1 && r.kind == Kind::QueuePut));

    // Draining thread 2 takes its records and leaves thread 1 alone.
    let two = k.trace.drain(2);
    assert_eq!(two.len(), 3);
    assert!(two.iter().all(|r| r.tid == 2 && r.kind == Kind::QueueGet));
    assert!(k.trace.drain(2).is_empty());
    assert_eq!(k.trace.snapshot(1).len(), 5);
}

#[test]
fn rings_wrap_keeping_the_newest_records() {
    // A deliberately tiny ring under a real workload: the ring must hold
    // exactly its capacity, all of it newer than the first window.
    let cfg = KernelConfig {
        trace_records: 16,
        ..KernelConfig::default()
    };
    let (mut k, tid) = boot_io_kernel(cfg);

    k.run(2_000_000);
    k.pump_trace();
    let c1 = k.trace.snapshot(tid).last().map_or(0, |r| r.cycle);
    assert!(c1 > 0, "the first window produced events");

    k.run(2_000_000);
    k.pump_trace();
    let recs = k.trace.snapshot(tid);
    assert_eq!(recs.len(), 16, "the ring holds exactly its capacity");
    assert!(
        recs.iter().all(|r| r.cycle > c1),
        "wraparound kept only the newest records"
    );
    assert!(
        recs.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "snapshot is oldest-first"
    );
}

#[test]
fn reaped_threads_stay_drainable_post_mortem() {
    // A victim scribbles a wild address over its own trap vector; taking
    // the trap is a machine error and the kernel reaps the thread. Its
    // ring must survive for the post-mortem, reap record included.
    use synthesis_core::trace::REC_REAP;

    let mut k = Kernel::boot(KernelConfig::default()).expect("kernel boots");
    let mut v = Asm::new("victim");
    v.trap(traps::UNIX);
    let entry = k.load_user_program(v.assemble().unwrap()).unwrap();
    let victim = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.set_vector(victim, 32 + u32::from(traps::UNIX), 0x00F0_0000)
        .unwrap();
    k.start(victim).unwrap();
    k.run(5_000_000);

    assert!(
        !k.threads.contains_key(&victim),
        "the victim was reaped and destroyed"
    );
    assert!(
        k.trace.tids().contains(&victim),
        "the reaped thread's ring is still registered"
    );
    let recs = k.trace.drain(victim);
    assert!(
        recs.iter().any(|r| r.kind == Kind::CtxSwitch),
        "the victim's dispatch is on the record"
    );
    assert!(
        recs.iter()
            .any(|r| r.kind == Kind::Recovery && r.a == REC_REAP),
        "the reap itself is the ring's final word"
    );
}

/// Regression: a destroyed thread's ring stayed registered forever, one
/// per lifecycle. It now goes with the first drain after the thread, so
/// a churn drained every 100 lifecycles holds no more rings than live
/// threads.
#[test]
fn a_thread_churn_keeps_no_ring_per_lifecycle() {
    use synthesis_core::trace::TraceQuery;

    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    for i in 0..1000 {
        let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
        k.start(tid).unwrap();
        k.run(5_000);
        k.destroy(tid).unwrap();
        if i % 100 == 99 {
            let q = TraceQuery::drain(&mut k);
            assert!(
                q.thread(tid).count_kind(Kind::CtxSwitch) > 0,
                "the last thread's dispatch was drained"
            );
            assert!(
                k.trace.tids().len() <= k.threads.len(),
                "lifecycle {i}: {} rings for {} live threads",
                k.trace.tids().len(),
                k.threads.len()
            );
        }
    }
}

/// Everything guest-visible about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    instrs: u64,
    /// Tids in the order they exited (ties within one slice by tid).
    exits: Vec<Tid>,
}

/// Run `slices` windows through `run`, noting the order threads exit
/// in; returns the outcome and the number of trace records taken.
fn drive<S>(
    mut sys: S,
    kernel: fn(&mut S) -> &mut Kernel,
    run: fn(&mut S, u64),
    workers: usize,
    slices: usize,
) -> (Outcome, usize) {
    let mut exits: Vec<Tid> = Vec::new();
    for _ in 0..slices {
        run(&mut sys, 100_000);
        let k = kernel(&mut sys);
        let new: Vec<Tid> = k.exited.iter().filter(|t| !exits.contains(t)).collect();
        exits.extend(new);
        if workers > 0 && exits.len() == workers {
            break;
        }
    }
    let k = kernel(&mut sys);
    assert_eq!(exits.len(), workers, "every finite worker exited");
    k.pump_trace();
    let outcome = Outcome {
        cycles: k.m.meter.cycles,
        instrs: k.m.meter.instr_count,
        exits,
    };
    (outcome, k.trace.len())
}

/// The endless `/dev/null` writer over native traps, three windows.
fn native_writer(enabled: bool) -> (Outcome, usize) {
    let (mut k, _) = boot_io_kernel(KernelConfig::default());
    k.trace.enabled = enabled;
    drive(
        k,
        |k| k,
        |k, n| {
            k.run(n);
        },
        0,
        30,
    )
}

/// A fused UNIX pipe program: traps elided, wrappers bound at first
/// call and released at each round's `close`, run to its exit.
fn fused_pipe(enabled: bool) -> (Outcome, usize) {
    use synthesis_unix::emu::boot_with_program;
    use synthesis_unix::programs::pipe_xfer;
    let (mut emu, _) =
        boot_with_program(KernelConfig::default(), pipe_xfer(64, 300, 2)).expect("boots");
    emu.k.trace.enabled = enabled;
    drive(
        emu,
        |e| &mut e.k,
        |e, n| {
            e.run(n);
        },
        1,
        400,
    )
}

/// Four CPUs, three counting spinners and two `/dev/null` writers, all
/// started on CPU 0 so the others steal: every thread runs to its exit.
fn smp_mix(enabled: bool) -> (Outcome, usize) {
    let cfg = KernelConfig {
        cpus: 4,
        ..KernelConfig::default()
    };
    let mut k = Kernel::boot(cfg).expect("kernel boots");
    k.trace.enabled = enabled;
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    for i in 0..5u32 {
        let writer = i >= 3;
        let mut a = Asm::new(if writer { "mix_io" } else { "mix_cnt" });
        if writer {
            a.move_i(L, general::OPEN, Dr(0));
            a.lea(Abs(UPATH), 0);
            a.trap(traps::GENERAL);
            a.move_(L, Dr(0), Dr(5));
        }
        a.move_i(L, if writer { 1_500 } else { 40_000 + 1_000 * i }, Dr(7));
        let top = a.here();
        if writer {
            a.move_(L, Dr(5), Dr(0));
            a.lea(Abs(UBUF), 0);
            a.move_i(L, 8, Dr(1));
            a.trap(traps::WRITE);
        }
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        a.move_i(L, general::EXIT, Dr(0));
        a.trap(traps::GENERAL);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        let tid = k
            .create_thread(entry, USTACK + 0x1000 * i, user_map())
            .unwrap();
        k.start(tid).unwrap();
    }
    drive(
        k,
        |k| k,
        |k, n| {
            k.run(n);
        },
        5,
        400,
    )
}

#[test]
fn runtime_disable_records_nothing_and_charges_no_cycles() {
    // Same workload, same windows; one kernel records, the other has the
    // runtime switch off. Virtual time, the instruction count and the
    // order threads exit in must be identical — tracing is host-side
    // observability and never charges guest cycles — and the disabled
    // kernel's rings must stay empty.
    type Input = fn(bool) -> (Outcome, usize);
    let inputs: [(&str, Input); 3] = [
        ("native writer", native_writer),
        ("fused pipe", fused_pipe),
        ("4-CPU mix", smp_mix),
    ];
    for (name, input) in inputs {
        let (on, on_records) = input(true);
        let (off, off_records) = input(false);
        assert_eq!(on, off, "{name}: tracing must not perturb the guest");
        assert!(on_records > 0, "{name}: the enabled trace recorded");
        assert_eq!(off_records, 0, "{name}: disabled trace records nothing");
    }
}

/// Total dispatches `monitor::trace_report` counts for a two-thread
/// 1-byte ping-pong of `trips` round trips over two shared (non-solo)
/// pipes on one CPU, both threads run to exit.
fn pingpong_dispatches(trips: u32) -> u64 {
    const TOTAL: u32 = layout::USER_BASE + 0x2_9000;
    let mut k = Kernel::boot(KernelConfig {
        // No quantum expires during the run: every dispatch is a block,
        // a wake-up or an exit.
        default_quantum_us: 10_000_000,
        cpus: 1,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    k.trace.enabled = true;
    let io = |a: &mut Asm, trap: u8, fd: u32| {
        a.move_i(L, fd, Dr(0));
        a.lea(Abs(UBUF), 0);
        a.move_i(L, 1, Dr(1));
        a.trap(trap);
        a.add(L, Dr(0), Abs(TOTAL));
    };
    // The initiator writes pipe 0 (fd 1) then reads pipe 1 (fd 2); the
    // echo reads pipe 0 (fd 0) then writes pipe 1 (fd 3).
    let mut tids = Vec::new();
    for (first, second) in [
        ((traps::WRITE, 1), (traps::READ, 2)),
        ((traps::READ, 0), (traps::WRITE, 3)),
    ] {
        let mut a = Asm::new("pingpong");
        a.move_i(L, trips, Dr(7));
        let top = a.here();
        io(&mut a, first.0, first.1);
        io(&mut a, second.0, second.1);
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        a.move_i(L, general::EXIT, Dr(0));
        a.trap(traps::GENERAL);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        let stack = USTACK + 0x1000 * tids.len() as u32;
        tids.push(k.create_thread(entry, stack, user_map()).unwrap());
    }
    let (ta, tb) = (tids[0], tids[1]);
    // Both threads hold both ends of both pipes, so neither is solo.
    assert_eq!(k.pipe_for(ta), Ok((0, 1)));
    assert_eq!(k.pipe_attach(tb, 0), Ok((0, 1)));
    assert_eq!(k.pipe_for(tb), Ok((2, 3)));
    assert_eq!(k.pipe_attach(ta, 1), Ok((2, 3)));
    k.start(ta).unwrap();
    k.start(tb).unwrap();
    assert!(k.run_until_exit(ta, 1_000_000_000) && k.run_until_exit(tb, 1_000_000_000));
    assert_eq!(k.m.mem.peek(TOTAL, L), 4 * trips, "every byte moved");
    let report = synthesis_core::monitor::trace_report(&mut k);
    assert_eq!(k.trace.dropped, 0);
    report
        .threads
        .iter()
        .filter(|t| t.tid == ta || t.tid == tb)
        .map(|t| t.ctx_switches)
        .sum()
}

#[test]
fn a_blocking_round_trip_is_two_dispatches() {
    // Each read blocks and is woken by the peer's write: initiator →
    // echo → initiator. The host's `enter` and the `sw_in` it aims the
    // CPU at are one dispatch, not two. Start-up and exit cost the same
    // at either length, so the difference is the steady state.
    let (short, long) = (pingpong_dispatches(10), pingpong_dispatches(30));
    assert_eq!(long - short, 2 * 20, "short {short}, long {long}");
}
