//! Fine-grain scheduling: gauges drive quanta, and the quantum lands as
//! a patched immediate inside live switch code. The gauge is the only
//! meter: fused I/O counts, and tracing cannot move a quantum.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Instr, Operand, Operand::*, Size, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::sched::{set_quantum, FineGrain, QUANTUM_MAX_US, QUANTUM_MIN_US};
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;
use synthesis_core::thread::Tid;
use synthesis_unix::emu::UnixEmulator;
use synthesis_unix::{abi, programs::addrs};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).unwrap()
}

/// A thread that spins forever — enough of a program to create and
/// schedule without doing any I/O.
fn spin_thread(k: &mut Kernel, stack: u32) -> synthesis_core::thread::Tid {
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(entry, stack, user_map()).unwrap()
}

/// The quantum immediate currently patched into `tid`'s sw_in code.
fn patched_quantum(k: &Kernel, tid: synthesis_core::thread::Tid) -> u32 {
    let base = k.threads[&tid].sw.base;
    let qreg =
        quamachine::devices::dev_reg_addr(k.dev.timer, quamachine::devices::timer::REG_QUANTUM_US);
    let block = k.m.code.block(base).unwrap();
    block
        .instrs
        .iter()
        .find_map(|i| match i {
            Instr::Move(Size::L, Operand::Imm(q), Operand::Abs(r)) if *r == qreg => Some(*q),
            _ => None,
        })
        .expect("quantum immediate present in the switch code")
}

#[test]
fn set_quantum_patches_the_switch_code() {
    let mut k = boot();
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();

    set_quantum(&mut k, tid, 333).unwrap();
    assert_eq!(k.threads[&tid].quantum_us, 333);
    // The immediate inside the installed sw_in changed.
    let base = k.threads[&tid].sw.base;
    let qreg =
        quamachine::devices::dev_reg_addr(k.dev.timer, quamachine::devices::timer::REG_QUANTUM_US);
    let block = k.m.code.block(base).unwrap();
    assert!(
        block.instrs.iter().any(|i| matches!(
            i,
            Instr::Move(Size::L, Operand::Imm(333), Operand::Abs(r)) if *r == qreg
        )),
        "patched immediate present in the switch code"
    );
}

#[test]
fn set_quantum_clamps_to_bounds() {
    let mut k = boot();
    let tid = spin_thread(&mut k, USTACK);

    // Below the floor: clamped up. A zero quantum would make the thread
    // unschedulable.
    set_quantum(&mut k, tid, 0).unwrap();
    assert_eq!(k.threads[&tid].quantum_us, QUANTUM_MIN_US);
    assert_eq!(
        patched_quantum(&k, tid),
        k.threads[&tid].quantum_us,
        "the sw_in immediate always matches Thread::quantum_us"
    );

    // Above the ceiling: clamped down.
    set_quantum(&mut k, tid, 1_000_000).unwrap();
    assert_eq!(k.threads[&tid].quantum_us, QUANTUM_MAX_US);
    assert_eq!(patched_quantum(&k, tid), k.threads[&tid].quantum_us);

    // In range: taken verbatim.
    set_quantum(&mut k, tid, 250).unwrap();
    assert_eq!(k.threads[&tid].quantum_us, 250);
    assert_eq!(patched_quantum(&k, tid), 250);
}

#[test]
fn adapt_is_a_noop_for_quarantined_threads() {
    let mut k = boot();
    let bad = spin_thread(&mut k, USTACK);
    let good = spin_thread(&mut k, USTACK + 0x1000);

    // Give the quarantined thread a distinctive quantum, then fake I/O
    // traffic on the healthy thread so an adaptation pass would rescale
    // everyone it samples.
    set_quantum(&mut k, bad, 777).unwrap();
    k.quarantine(bad, "test: misbehaving peer");
    assert!(k.is_quarantined(bad));
    bump_gauge(&mut k, good, 1_000);

    let mut policy = FineGrain::new();
    policy.adapt(&mut k);

    // The healthy thread got all the traffic share, hence the max
    // quantum; the quarantined one was skipped entirely — its quantum
    // and sw_in immediate are both untouched.
    assert_eq!(k.threads[&good].quantum_us, QUANTUM_MAX_US);
    assert_eq!(k.threads[&bad].quantum_us, 777);
    assert_eq!(patched_quantum(&k, bad), 777);

    // And quarantine still means what it always meant: no restarts.
    assert!(k.start(bad).is_err());
}

#[test]
fn closing_a_quarantined_threads_fds_releases_cached_refs() {
    // Regression for the channel registry: quarantine stops scheduling,
    // but the thread's channels must still release their specialization-
    // cache references so the shared code can be evicted.
    let mut k = boot();
    let bad = spin_thread(&mut k, USTACK);
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/q", 4096).unwrap();
    let code_base = k.creator.codebuf.in_use;
    let heap_base = k.heap.in_use;

    let fd1 = k.open_for(bad, "/tmp/q").unwrap();
    let fd2 = k.open_for(bad, "/tmp/q").unwrap();
    assert_eq!(k.creator.stats.cache_hits, 2, "second open shared the code");

    k.quarantine(bad, "test: fault storm");
    assert!(k.is_quarantined(bad));

    k.close_for(bad, fd1).unwrap();
    k.close_for(bad, fd2).unwrap();
    assert_eq!(
        k.creator.cache.resident_bytes(),
        k.creator.cache.warm_bytes(),
        "all cached refs released"
    );
    k.creator.flush_cache(&mut k.m);
    assert!(k.creator.cache.is_empty(), "nothing pins the shared code");
    assert_eq!(k.creator.codebuf.in_use, code_base, "shared code evicted");
    assert_eq!(k.heap.in_use, heap_base, "offset slot freed");

    // Destroying the quarantined thread afterwards stays clean too.
    let destroyed = k.destroy(bad);
    assert!(destroyed.is_ok(), "destroy after quarantine: {destroyed:?}");
}

#[test]
fn adapt_rewards_io_bound_threads() {
    let mut k = boot();
    // I/O thread: writes /dev/null forever.
    let mut io = Asm::new("io");
    io.move_i(L, general::OPEN, Dr(0));
    io.lea(Abs(UPATH), 0);
    io.trap(traps::GENERAL);
    io.move_(L, Dr(0), Dr(5));
    let top = io.here();
    io.move_(L, Dr(5), Dr(0));
    io.lea(Abs(layout::USER_BASE + 0x2_0000), 0);
    io.move_i(L, 8, Dr(1));
    io.trap(traps::WRITE);
    io.bcc(Cond::T, top);
    let io_entry = k.load_user_program(io.assemble().unwrap()).unwrap();

    let mut cpu = Asm::new("cpu");
    let ctop = cpu.here();
    cpu.add(L, Imm(1), Dr(0));
    cpu.bcc(Cond::T, ctop);
    let cpu_entry = k.load_user_program(cpu.assemble().unwrap()).unwrap();

    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let t_io = k.create_thread(io_entry, USTACK, user_map()).unwrap();
    let t_cpu = k
        .create_thread(cpu_entry, USTACK + 0x1000, user_map())
        .unwrap();
    k.start(t_io).unwrap();
    k.start(t_cpu).unwrap();

    let mut policy = FineGrain::new();
    for _ in 0..3 {
        k.run(6_000_000);
        policy.adapt(&mut k);
    }
    let io_q = k.threads[&t_io].quantum_us;
    let cpu_q = k.threads[&t_cpu].quantum_us;
    assert!(
        io_q > cpu_q,
        "I/O-bound got the larger quantum: {io_q} vs {cpu_q}"
    );
    assert!(io_q <= QUANTUM_MAX_US && cpu_q >= QUANTUM_MIN_US);
    assert!(policy.adjustments > 0, "adaptation actually changed quanta");

    // And with the I/O stopped, quanta converge again.
    k.stop(t_io).unwrap();
    for _ in 0..3 {
        k.run(6_000_000);
        policy.adapt(&mut k);
    }
    let io_q2 = k.threads[&t_io].quantum_us;
    assert!(
        io_q2 < io_q,
        "idle I/O thread loses its bonus: {io_q} -> {io_q2}"
    );
}

/// A quarantined thread leaves exactly one trace: the quarantine record
/// itself. No dispatch (context-switch) or syscall records may follow
/// it — the watchdog's promise, checked through the event trace.
#[test]
fn quarantined_threads_emit_no_dispatch_records() {
    use synthesis_core::trace::{Kind, TraceQuery, REC_QUARANTINE};

    let mut k = boot();
    let bad = spin_thread(&mut k, USTACK);
    let good = spin_thread(&mut k, USTACK + 0x1000);
    k.start(bad).unwrap();
    k.start(good).unwrap();
    k.run(2_000_000);

    // Both threads were dispatched before the cut point...
    let before = TraceQuery::drain(&mut k);
    assert!(
        before.thread(bad).count_kind(Kind::CtxSwitch) > 0,
        "the bad thread ran before quarantine"
    );

    k.quarantine(bad, "test: fault storm");
    k.run(2_000_000);

    let after = TraceQuery::drain(&mut k);
    let bad_trace = after.thread(bad);
    assert_eq!(
        bad_trace.count(
            |r: &synthesis_core::trace::TraceRecord| r.kind == Kind::Recovery
                && r.a == REC_QUARANTINE
        ),
        1,
        "the quarantine itself is on the record"
    );
    assert_eq!(
        bad_trace.count_kind(Kind::CtxSwitch),
        0,
        "a quarantined thread must never be dispatched"
    );
    assert_eq!(
        bad_trace.count_kind(Kind::SyscallEnter),
        0,
        "a quarantined thread must never enter a syscall"
    );
    assert!(
        after.thread(good).count_kind(Kind::CtxSwitch) > 0,
        "the healthy thread keeps running"
    );
}

/// Count `n` calls into `tid`'s synthesized I/O code on its TTE gauge,
/// as the code itself would.
fn bump_gauge(k: &mut Kernel, tid: Tid, n: u64) {
    let at = k.threads[&tid].tte + off::GAUGE;
    let g = k.m.mem.peek(at, Size::L);
    k.m.mem.poke(at, Size::L, g + u32::try_from(n).unwrap());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Section 4.4 as a property: whatever the traffic volumes, the
    /// I/O-heavy thread of a window gets the larger quantum, a traffic
    /// reversal moves both quanta in opposite directions, and every
    /// quantum the policy ever sets stays within
    /// `[QUANTUM_MIN_US, QUANTUM_MAX_US]`.
    #[test]
    fn synthetic_io_windows_move_quanta_oppositely_within_bounds(
        heavy in 50u64..400,
        light_pct in 0u64..50,
    ) {
        let light = heavy * light_pct / 100;
        let mut k = boot();
        let a = spin_thread(&mut k, USTACK);
        let b = spin_thread(&mut k, USTACK + 0x1000);
        let mut policy = FineGrain::new();

        // Window 1: A is I/O-heavy, B mostly computes.
        bump_gauge(&mut k, a, heavy);
        bump_gauge(&mut k, b, light);
        policy.adapt(&mut k);
        let (qa1, qb1) = (k.threads[&a].quantum_us, k.threads[&b].quantum_us);
        proptest::prop_assert!(qa1 > qb1, "I/O-heavy thread got the larger quantum: {qa1} vs {qb1}");
        proptest::prop_assert!((QUANTUM_MIN_US..=QUANTUM_MAX_US).contains(&qa1));
        proptest::prop_assert!((QUANTUM_MIN_US..=QUANTUM_MAX_US).contains(&qb1));

        // Window 2: the traffic pattern reverses.
        bump_gauge(&mut k, a, light);
        bump_gauge(&mut k, b, heavy);
        policy.adapt(&mut k);
        let (qa2, qb2) = (k.threads[&a].quantum_us, k.threads[&b].quantum_us);
        proptest::prop_assert!(qa2 < qa1, "the now-quiet thread's quantum shrinks: {qa1} -> {qa2}");
        proptest::prop_assert!(qb2 > qb1, "the now-busy thread's quantum grows: {qb1} -> {qb2}");
        proptest::prop_assert!((QUANTUM_MIN_US..=QUANTUM_MAX_US).contains(&qa2));
        proptest::prop_assert!((QUANTUM_MIN_US..=QUANTUM_MAX_US).contains(&qb2));
    }
}

/// A UNIX program writing 8 bytes to `/dev/null` forever.
fn unix_null_writer() -> Asm {
    let mut a = Asm::new("unix_null_writer");
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS), 0);
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5));
    let top = a.here();
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, 8, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.bcc(Cond::T, top);
    a
}

/// One kernel, three threads — a `/dev/null` writer spawned flat through
/// the UNIX emulator (its writes bound to a fused wrapper: a `jsr`, no
/// trap), a native `trap #2` `/dev/null` writer under the user map, and
/// a spinner — run for `windows` windows of `run` + `adapt`.
fn three_thread_windows(traced: bool, windows: u32) -> (UnixEmulator, [Tid; 3], FineGrain) {
    let mut emu = UnixEmulator::new(boot());
    emu.k.trace.enabled = traced;
    let flat = AddressMap::single(1, 0, emu.k.m.mem.size());
    let fused = emu.spawn(unix_null_writer(), flat).unwrap();

    let mut io = Asm::new("native_null_writer");
    io.move_i(L, general::OPEN, Dr(0));
    io.lea(Abs(addrs::PATHS), 0);
    io.trap(traps::GENERAL);
    io.move_(L, Dr(0), Dr(5));
    let top = io.here();
    io.move_(L, Dr(5), Dr(0));
    io.lea(Abs(addrs::BUF), 0);
    io.move_i(L, 8, Dr(1));
    io.trap(traps::WRITE);
    io.bcc(Cond::T, top);
    let entry = emu.k.load_user_program(io.assemble().unwrap()).unwrap();
    let native = emu
        .k
        .create_thread(entry, USTACK + 0x1000, user_map())
        .unwrap();
    emu.k.start(native).unwrap();
    let spinner = spin_thread(&mut emu.k, USTACK + 0x2000);
    emu.k.start(spinner).unwrap();

    let mut policy = FineGrain::new();
    for _ in 0..windows {
        emu.run(2_000_000);
        policy.adapt(&mut emu.k);
    }
    (emu, [fused, native, spinner], policy)
}

#[test]
fn a_fused_writer_earns_a_longer_quantum_than_a_spinner() {
    use synthesis_core::trace::{Kind, TraceQuery};
    let (mut emu, [fused, native, spinner], _) = three_thread_windows(true, 4);
    // The premise: the fused writer does I/O the trace never sees as a
    // trap, and its gauge counts every call.
    let q = TraceQuery::drain(&mut emu.k);
    let writes = q
        .thread(fused)
        .count(|r: &synthesis_core::trace::TraceRecord| {
            r.kind == Kind::SyscallEnter && r.a == u32::from(abi::UNIX_TRAP)
        });
    assert_eq!(
        writes, 0,
        "the fused writer's writes are bound, not trapped"
    );
    let gauge = |tid: Tid| {
        emu.k
            .m
            .mem
            .peek(emu.k.threads[&tid].tte + off::GAUGE, Size::L)
    };
    assert!(
        gauge(fused) > 100,
        "the fused writer's gauge counts its writes"
    );
    assert!(gauge(native) > 100, "so does the native writer's");

    let quantum = |tid: Tid| emu.k.threads[&tid].quantum_us;
    assert!(
        quantum(fused) > quantum(spinner),
        "fused writer {} µs vs spinner {} µs",
        quantum(fused),
        quantum(spinner)
    );
    assert_eq!(quantum(spinner), QUANTUM_MIN_US, "the spinner does no I/O");
    assert!(quantum(native) > QUANTUM_MIN_US);
}

#[test]
fn tracing_does_not_move_a_quantum() {
    // Everything the scheduler decided and everything the guest did,
    // with the trace switch on and off.
    let outcome = |traced| {
        let (emu, tids, policy) = three_thread_windows(traced, 4);
        let k = &emu.k;
        (
            tids.map(|t| k.threads[&t].quantum_us),
            tids.map(|t| k.m.mem.peek(k.threads[&t].tte + off::GAUGE, Size::L)),
            policy.adjustments,
            k.m.meter.cycles,
            k.m.meter.instr_count,
        )
    };
    let (traced, untraced) = (outcome(true), outcome(false));
    assert!(traced.2 > 0, "the policy changed quanta: {traced:?}");
    assert_eq!(
        traced, untraced,
        "(quanta, gauges, adjustments, cycles, instructions)"
    );
}

#[test]
fn gauges_count_synthesized_io() {
    let mut k = boot();
    let mut a = Asm::new("g");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5));
    a.move_i(L, 10, Dr(7));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(layout::USER_BASE + 0x2_0000), 0);
    a.move_i(L, 4, Dr(1));
    a.trap(traps::WRITE);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    let tte = k.threads[&tid].tte;
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    // 10 writes; the gauge slot survives the thread (TTE freed but the
    // memory is still readable in this test since nothing reused it).
    let gauge = k.m.mem.peek(tte + off::GAUGE, Size::L);
    assert_eq!(gauge, 10, "each synthesized write bumped the gauge");
}

/// Regression: `run` budgets shorter than a quantum on a multiprocessor
/// with an idle CPU. The idle CPU's `stop` used to leap its clock to its
/// next timer event — a whole 50 ms measurement quantum ahead — and the
/// next `run` raised every parked CPU to that clock. Deadlines taken
/// before that catch-up were already past for all of them, so only the
/// idle CPU ever ran again.
#[test]
fn short_run_budgets_make_progress_on_every_cpu() {
    const COUNTERS: u32 = layout::USER_BASE + 0x2_9200;
    const BUDGET: u64 = 100_000; // a quantum is 800,000 cycles at 16 MHz
    for cpus in [2usize, 4] {
        let mut k = Kernel::boot(KernelConfig {
            cpus,
            default_quantum_us: 50_000,
            ..KernelConfig::default()
        })
        .unwrap();
        // One counting spinner per CPU but the last, which stays idle.
        let busy = cpus - 1;
        for cpu in 0..busy {
            let slot = COUNTERS + 4 * cpu as u32;
            let mut a = Asm::new("count");
            let top = a.here();
            a.add(L, Imm(1), Abs(slot));
            a.bcc(Cond::T, top);
            let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
            let stack = USTACK + 0x1000 * cpu as u32;
            let tid = k.create_thread(entry, stack, user_map()).unwrap();
            k.threads.get_mut(&tid).unwrap().cpu = cpu;
            k.start(tid).unwrap();
        }
        let mut last = vec![0u32; busy];
        for round in 0..40 {
            k.run(BUDGET);
            for (cpu, prev) in last.iter_mut().enumerate() {
                let now = k.m.mem.peek(COUNTERS + 4 * cpu as u32, Size::L);
                assert!(
                    now > *prev,
                    "{cpus} CPUs, run {round}: the spinner on CPU {cpu} stalled at {now}"
                );
                *prev = now;
            }
        }
    }
}

/// An idle CPU with its quantum armed sleeps in `stop` through whole
/// watchdog slices, since a sleep ends no later than the run's budget.
/// Those slices execute nothing, but they are idle, not silent: no CPU
/// may be quarantined for stopping its heartbeat.
#[test]
fn idle_cpus_with_an_armed_quantum_stay_in_service() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 4,
        default_quantum_us: 50_000,
        ..KernelConfig::default()
    })
    .unwrap();
    let tid = spin_thread(&mut k, USTACK);
    k.start(tid).unwrap();
    for round in 0..20 {
        k.run(1_000_000);
        for cpu in 0..4 {
            assert!(
                !k.is_cpu_quarantined(cpu),
                "run {round}: CPU {cpu} quarantined: {:?}",
                k.recovery_log
            );
        }
    }
}

/// A CPU's idle cycles are the cycles the machine counted it asleep in
/// `stop`, to the cycle, and its busy cycles the rest of its slices —
/// whatever was current when a slice began. A thread started on an idle
/// CPU counts down inside the first slice and exits: its run is busy,
/// and the CPU's sleep after it (and the whole run of a CPU that never
/// gets work) is idle.
#[test]
fn idle_cycles_are_the_machines_count_of_cycles_asleep() {
    for cpus in [1, 2] {
        let mut k = Kernel::boot(KernelConfig {
            cpus,
            ..KernelConfig::default()
        })
        .unwrap();
        let mut a = Asm::new("countdown");
        a.move_i(L, 2_000, Dr(7));
        let top = a.here();
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        a.move_i(L, general::EXIT, Dr(0));
        a.trap(traps::GENERAL);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
        k.start(tid).unwrap();
        let instrs = k.m.meter.instr_count;
        assert!(k.run_until_exit(tid, 10_000_000), "{cpus} cpu(s)");
        assert!(k.m.meter.instr_count - instrs > 4_000, "the countdown ran");
        k.run(1_000_000);
        for (i, c) in k.cpus.iter().enumerate() {
            let at = format!("{cpus} cpu(s), cpu {i}");
            assert_eq!(c.idle_cycles, k.m.halted_cycles(i), "{at}");
            let slices = c.idle_cycles + c.busy_cycles;
            assert!(c.idle_cycles * 10 > slices * 9, "{at}: {c:?}");
        }
        // Two instructions an iteration, each of at least 4 cycles.
        let busy = k.cpus[0].busy_cycles;
        assert!(
            busy > 2_000 * 8,
            "{cpus} cpu(s): the countdown was busy for {busy} cycles"
        );
    }
}

/// Run `n` equal finite spinners, all started on CPU 0 of a `cpus`-CPU
/// kernel with the 50 ms measurement quantum, until every one has
/// exited; `check` sees the kernel two watchdog slices in. Returns the
/// cycles the run took.
fn equal_spinners(cpus: usize, n: usize, check: impl Fn(&Kernel)) -> u64 {
    const ITERS: u32 = 200_000;
    let mut k = Kernel::boot(KernelConfig {
        cpus,
        default_quantum_us: 50_000,
        ..KernelConfig::default()
    })
    .unwrap();
    let mut a = Asm::new("finite_spin");
    a.move_i(L, ITERS, Dr(7));
    let top = a.here();
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tids: Vec<Tid> = (0..n)
        .map(|i| {
            let tid = k
                .create_thread(entry, USTACK + 0x1000 * i as u32, user_map())
                .unwrap();
            k.threads.get_mut(&tid).unwrap().cpu = 0;
            k.start(tid).unwrap();
            tid
        })
        .collect();
    let start = k.m.meter.cycles;
    // Two watchdog slices: enough rotations for every steal.
    k.run(200_000);
    check(&k);
    for &tid in &tids {
        assert!(k.run_until_exit(tid, 1 << 32), "thread {tid} exited");
    }
    k.m.meter.cycles - start
}

/// Eight equal spinners, all started on CPU 0 of four: the balance
/// moves threads until no CPU runs two more than another, so every chain
/// holds two, and the last exit lands near the floor of the total work
/// spread over four CPUs. A balance that steals only for a starved CPU
/// leaves the chains at 5/1/1/1 and finishes 1.5x the floor.
#[test]
fn equal_spinners_balance_across_four_cpus() {
    let total = equal_spinners(1, 8, |_| {});
    let four = equal_spinners(4, 8, |k| {
        let loads: Vec<usize> = k
            .cpus
            .iter()
            .map(|c| {
                if c.ready.contains(c.idle_tid) {
                    0
                } else {
                    c.ready.len()
                }
            })
            .collect();
        assert_eq!(loads, [2, 2, 2, 2], "real threads per chain");
    });
    // Measured at 1.031x; the starved-only balance read 1.5x.
    let floor = total / 4;
    assert!(
        four * 100 <= floor * 105,
        "the last exit at {four} cycles, {:.3}x the floor {floor}",
        four as f64 / floor as f64
    );
}

/// Two threads whose address maps differ only in their windows — a
/// flat-space program and a user-window thread, both conventionally map
/// id 1 — share one CPU. "Same address space" is decided by comparing
/// the maps: keyed on the id alone, each switched into the other through
/// `sw_in` and ran under the other's map. One CPU whatever
/// `SYNTHESIS_CPUS` says: the subject is two threads sharing a chain,
/// and with more CPUs the second is stolen onto its own.
#[test]
fn threads_with_equal_map_ids_still_switch_address_spaces() {
    const COUNTERS: u32 = layout::USER_BASE + 0x2_9200;
    let mut k = Kernel::boot(KernelConfig {
        default_quantum_us: 100,
        cpus: 1,
        ..KernelConfig::default()
    })
    .unwrap();
    let flat = AddressMap::single(1, 0, k.m.mem.size());
    let mut tids = Vec::new();
    for (i, map) in [flat, user_map()].into_iter().enumerate() {
        let mut a = Asm::new("count");
        let top = a.here();
        a.add(L, Imm(1), Abs(COUNTERS + 4 * i as u32));
        a.bcc(Cond::T, top);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        let tid = k
            .create_thread(entry, USTACK + 0x1000 * i as u32, map)
            .unwrap();
        k.start(tid).unwrap();
        tids.push(tid);
    }
    let mut seen = [0u32; 2];
    for _ in 0..400 {
        k.run(500);
        // In user mode the dispatch is complete: the installed map must
        // be the running thread's.
        if k.m.cpu.supervisor() {
            continue;
        }
        let tid = k.current_tid().expect("a thread owns the CPU");
        assert_eq!(
            k.m.mem.map, k.threads[&tid].map,
            "thread {tid} runs under another thread's address map"
        );
        if let Some(i) = tids.iter().position(|&t| t == tid) {
            seen[i] += 1;
        }
    }
    assert!(seen[0] > 0 && seen[1] > 0, "both threads ran: {seen:?}");
}
