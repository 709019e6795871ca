//! Blocking through the switch-out: a kernel call that blocks leaves the
//! thread through its own synthesized `sw_save`, which parks exactly what
//! the thread had at the `kcall` — from a layered routine in supervisor
//! state and from a fused wrapper in its user-mode caller, FP registers
//! included — at a fixed cost per blocking round trip.
//!
//! Parking on the host goes the same way: a host `stop` or `signal` of a
//! running thread parks it through its own `sw_save`, on its own CPU, and
//! a kernel call about a thread current on another CPU comes back to its
//! caller's CPU with its result.

use quamachine::asm::Asm;
use quamachine::cpu::{sr_bits, Cpu};
use quamachine::isa::{Cond, FpRegList, Instr, Operand::*, Size::*};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use synthesis_codegen::creator::Synthesized;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, kcalls, traps};
use synthesis_core::thread::tte::off;
use synthesis_core::thread::{ThreadState, Tid, WaitObject};
use synthesis_unix::programs::pingpong;

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UBUF2: u32 = layout::USER_BASE + 0x3_0000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).expect("boots")
}

fn emit_exit(a: &mut Asm) {
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
}

/// `fd` of `count` bytes at `buf` through the native trap `trap`.
fn emit_io(a: &mut Asm, trap: u8, fd: u32, buf: u32, count: u32) {
    a.move_i(L, fd, Dr(0));
    a.lea(Abs(buf), 0);
    a.move_i(L, count, Dr(1));
    a.trap(trap);
}

/// Distinct values in the registers a read leaves alone.
fn emit_marked_registers(a: &mut Asm) {
    for r in 3..8u8 {
        a.move_i(L, 0xD0D0_0000 | u32::from(r), Dr(r));
    }
    for r in 1..7u8 {
        a.move_(L, Imm(0xA0A0_0000 | u32::from(r)), Ar(r));
    }
}

/// The address of the `kcall #sel` in the first of `code` that has one.
fn kcall_in(k: &Kernel, code: &[Synthesized], sel: u16) -> u32 {
    code.iter()
        .find_map(|s| {
            let block = k.m.code.block(s.base)?;
            let is_it = |i: &Instr| matches!(i, Instr::KCall(n) if *n == sel);
            let i = block.instrs.iter().position(is_it)?;
            k.m.code.addr_of(s.base, i)
        })
        .expect("the routine blocks through this kernel call")
}

/// The code serving `tid`'s `fd`.
fn fd_code(k: &Kernel, tid: Tid, fd: u32) -> &[Synthesized] {
    let Some(open) = k.threads[&tid].fd(fd) else {
        panic!("fd {fd} is open");
    };
    &open.code
}

/// Run until a CPU is about to execute the instruction at `at`; its
/// registers there.
fn cpu_at(k: &mut Kernel, at: u32) -> Cpu {
    k.m.breakpoints.insert(at);
    let exit = k.run(50_000_000);
    k.m.breakpoints.remove(&at);
    assert_eq!(exit, RunExit::Breakpoint(at));
    k.m.cpu.clone()
}

/// `tid` is blocked on `wait`, and its TTE and kernel stack hold what the
/// CPU held at the `kcall` at `kcall`, resuming after it.
fn assert_parked_as(k: &Kernel, tid: Tid, wait: WaitObject, at: &Cpu, kcall: u32) {
    assert_eq!(k.threads[&tid].state, ThreadState::Blocked(wait));
    assert_resumes_at(k, tid, at, kcall + 2);
}

/// `tid`'s TTE and kernel stack hold the context `at` with its PC at
/// `pc`: the save area the registers, the USP slot the USP, and the SSP
/// slot one frame below the SSP — a frame of that SR and `pc`.
fn assert_resumes_at(k: &Kernel, tid: Tid, at: &Cpu, pc: u32) {
    let t = &k.threads[&tid];
    let (regs, usp) = t.parked_regs(&k.m.mem);
    let want: Vec<u32> = at.d.iter().chain(&at.a[..7]).copied().collect();
    assert_eq!(regs.to_vec(), want, "d0-d7/a0-a6");
    assert_eq!(usp, at.usp(), "USP");
    let frame = k.m.mem.peek(t.tte + off::SSP, L);
    assert_eq!(frame, at.ssp() - 6, "one frame on the kernel stack");
    assert_eq!(k.m.mem.peek(frame, W), u32::from(at.sr), "SR");
    assert_eq!(k.m.mem.peek(frame + 2, L), pc, "resume PC");
}

#[test]
fn a_block_parks_what_the_thread_had_at_its_kernel_call() {
    let mut k = boot();
    // Read one byte of an empty pipe through the layered trap path.
    let mut a = Asm::new("reader");
    emit_marked_registers(&mut a);
    emit_io(&mut a, traps::READ, 0, UBUF, 1);
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    assert_eq!(k.pipe_for(tid), Ok((0, 1)));
    let kcall = kcall_in(&k, fd_code(&k, tid, 0), kcalls::WAIT_PIPE_DATA);
    k.start(tid).unwrap();
    let at = cpu_at(&mut k, kcall);
    assert!(
        at.supervisor(),
        "a layered routine runs in supervisor state"
    );
    k.run(100_000);
    assert_parked_as(&k, tid, WaitObject::PipeData(0), &at, kcall);
    assert_eq!(at.d[5], 0xD0D0_0005);
    assert_eq!(at.a[6], 0xA0A0_0006);
}

/// `THREAD_STOP` of the caller itself leaves like a block, so the call's
/// result is what the thread resumes with when it is started again.
#[test]
fn a_thread_that_stops_itself_resumes_with_the_calls_result() {
    let mut k = boot();
    let mut a = Asm::new("self_stop");
    a.move_i(L, general::GETTID, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(1));
    a.move_i(L, general::THREAD_STOP, Dr(0));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke(UBUF, L, 0xFFFF_FFFF);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    k.run(1_000_000);
    assert_eq!(k.threads[&tid].state, ThreadState::Stopped);
    assert_eq!(k.m.mem.peek(UBUF, L), 0xFFFF_FFFF, "stopped in its call");
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 10_000_000));
    assert_eq!(k.m.mem.peek(UBUF, L), 0, "THREAD_STOP's result");
}

/// Eight distinct doubles at `at`.
fn poke_doubles(k: &mut Kernel, at: u32, first: f64) {
    for i in 0..8u32 {
        let bits = (first + f64::from(i)).to_bits();
        k.m.mem.poke(at + 8 * i, L, (bits >> 32) as u32);
        k.m.mem.poke(at + 8 * i + 4, L, bits as u32);
    }
}

fn peek_double(k: &Kernel, at: u32) -> f64 {
    let (hi, lo) = (k.m.mem.peek(at, L), k.m.mem.peek(at + 4, L));
    f64::from_bits((u64::from(hi) << 32) | u64::from(lo))
}

/// Load `fp0`–`fp7` from `at` one `fmove` at a time (the first takes the
/// lazy-FP trap).
fn emit_fp_loads(a: &mut Asm, at: u32) {
    for i in 0..8u8 {
        a.fmove_load(Abs(at + 8 * u32::from(i)), i);
    }
}

#[test]
fn an_fp_thread_blocked_on_a_pipe_resumes_with_its_fp_registers() {
    let mut k = boot();
    // The reader fills its FP registers, blocks on an empty pipe, and on
    // waking stores them.
    let mut r = Asm::new("fp_reader");
    emit_fp_loads(&mut r, UBUF);
    emit_io(&mut r, traps::READ, 0, UBUF + 0x100, 1);
    r.fmovem_save(FpRegList::ALL, Abs(UBUF2));
    emit_exit(&mut r);
    // The writer fills the CPU's FP registers with its own, then writes.
    let mut w = Asm::new("fp_writer");
    emit_fp_loads(&mut w, UBUF + 0x200);
    emit_io(&mut w, traps::WRITE, 1, UBUF + 0x300, 1);
    emit_exit(&mut w);
    poke_doubles(&mut k, UBUF, 1.5);
    poke_doubles(&mut k, UBUF + 0x200, -100.0);
    let re = k.load_user_program(r.assemble().unwrap()).unwrap();
    let we = k.load_user_program(w.assemble().unwrap()).unwrap();
    let reader = k.create_thread(re, USTACK, user_map()).unwrap();
    let writer = k.create_thread(we, USTACK + 0x1000, user_map()).unwrap();
    assert_eq!(k.pipe_for(reader), Ok((0, 1)));
    assert_eq!(k.pipe_attach(writer, 0), Ok((0, 1)));
    k.start(reader).unwrap();
    while k.threads[&reader].state != ThreadState::Blocked(WaitObject::PipeData(0)) {
        k.run(50_000);
    }
    assert!(k.uses_fp(&k.threads[&reader]), "blocked on the FP switch");
    k.start(writer).unwrap();
    assert!(k.run_until_exit(reader, 50_000_000));
    for i in 0..8u32 {
        let v = peek_double(&k, UBUF2 + 8 * i);
        assert_eq!(v, 1.5 + f64::from(i), "fp{i} after the block");
    }
}

#[test]
fn a_user_mode_caller_of_a_fused_wrapper_blocks_and_resumes() {
    const WRAPPER: u32 = UBUF + 0x400;
    const RESULT: u32 = UBUF + 0x404;
    let mut k = boot();
    // The UNIX ABI of a fused read: fd in d1, count in d2, buffer in a0;
    // the wrapper runs in its caller's (user) mode.
    let mut a = Asm::new("fused_caller");
    emit_marked_registers(&mut a);
    a.move_i(L, 0, Dr(1));
    a.move_i(L, 1, Dr(2));
    a.lea(Abs(UBUF), 0);
    a.move_(L, Abs(WRAPPER), Ar(1));
    a.jsr(Ind(1));
    a.move_(L, Dr(0), Abs(RESULT));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let flat = AddressMap::single(1, 0, k.m.mem.size());
    let holder = k.create_thread(entry, USTACK, flat).unwrap();
    assert_eq!(k.pipe_for(holder), Ok((0, 1)));
    let (name, bindings) = k.fused_rw_spec(holder, 0, false).expect("a solo pipe");
    let wrapper = k.synthesize_cached_for(holder, &name, &bindings).unwrap();
    k.m.mem.poke(WRAPPER, L, wrapper.base);
    let kcall = kcall_in(&k, std::slice::from_ref(&wrapper), kcalls::WAIT_PIPE_DATA);
    k.start(holder).unwrap();
    let at = cpu_at(&mut k, kcall);
    assert_eq!(at.sr & sr_bits::S, 0, "the wrapper runs in user mode");
    k.run(100_000);
    assert_parked_as(&k, holder, WaitObject::PipeData(0), &at, kcall);

    // A peer attaches and writes; the holder's call comes back with it.
    let mut p = Asm::new("peer");
    emit_io(&mut p, traps::WRITE, 1, UBUF2, 1);
    emit_exit(&mut p);
    let pe = k.load_user_program(p.assemble().unwrap()).unwrap();
    let peer = k.create_thread(pe, USTACK + 0x1000, user_map()).unwrap();
    assert_eq!(k.pipe_attach(peer, 0), Ok((0, 1)));
    k.m.mem.poke(UBUF2, B, 0x5A);
    k.start(peer).unwrap();
    assert!(k.run_until_exit(holder, 50_000_000));
    assert_eq!(k.m.mem.peek(RESULT, L), 1, "one byte read");
    assert_eq!(k.m.mem.peek(UBUF, B), 0x5A);
    k.release_code_for(holder, &wrapper);
}

/// Run until the initiator's mark.
fn run_to_mark(k: &mut Kernel) {
    loop {
        match k.run(50_000) {
            RunExit::KCall(pingpong::MARK) => return,
            RunExit::CycleLimit => {}
            other => panic!("stopped before the mark: {other:?}"),
        }
    }
}

/// `pipe_pingpong`'s round trip, exactly, on its programs
/// (`programs::pingpong`): the initiator writes a byte on pipe 0 and reads
/// the echo on pipe 1, the echo reads pipe 0 and writes pipe 1, both
/// through the native traps, one CPU, neither pipe solo — so each trip
/// blocks twice, once per reader.
///
/// Itemized (sun3 emulation, a bus reference is 4 cycles), the trip is
/// 1,372 cycles: two switch-outs (2 × 120 = 240: an exception frame, 32,
/// and `sw_save` — `movem` 68, `move usp` 4, two stores 12, `jmp` 4 =
/// 88), the two switch-ins up to their exits (2 × 98 = 196), four trap
/// entries (4 × 32 = 128), four trap dispatches (4 × 16 = 64), six `rte`s
/// (4 trap returns and 2 switch-in exits, 6 × 18 = 108), and 636 cycles
/// of pipe bodies — guards, ring arithmetic, copies, the failed attempt of
/// each woken reader, the wake tests — and user code; the two `WAKE_*`
/// kernel calls cost nothing.
#[test]
fn a_blocking_pipe_round_trip_costs_1372_cycles() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        default_quantum_us: 50_000,
        ..KernelConfig::default()
    })
    .expect("boots");
    let [ta, tb] = pingpong::load(&mut k, 1_000_000).unwrap();
    k.m.mem.poke(pingpong::COUNT, L, 10);
    k.start(ta).unwrap();
    k.start(tb).unwrap();
    run_to_mark(&mut k);

    // Two passes differ only in their number of trips.
    let mut pass_cycles = |trips: u32| {
        k.m.mem.poke(pingpong::COUNT, L, trips);
        let (c0, e0) = (k.m.meter.cycles, k.m.meter.exception_count);
        run_to_mark(&mut k);
        (k.m.meter.cycles - c0, k.m.meter.exception_count - e0)
    };
    let (c100, e100) = pass_cycles(100);
    let (c200, e200) = pass_cycles(200);
    assert_eq!(c200 - c100, 100 * 1_372, "cycles per round trip × 100");
    // Four traps and two switch-out frames per trip.
    assert_eq!(e200 - e100, 100 * 6, "exceptions per round trip × 100");
}

// --- Parking on the host ----------------------------------------------------

/// Raised by a thread once it is running; the other threads wait on it.
const FLAG: u32 = UBUF + 0xA000;
/// The tid a caller's general call names.
const TARGET: u32 = UBUF + 0xA004;
/// Where a caller stores its call's result.
const RESULT: u32 = UBUF + 0xA008;
/// Bumped by the signal handler.
const HITS: u32 = UBUF + 0xA00C;
/// Bumped by a counting loop.
const TICKS: u32 = UBUF + 0xA010;

fn boot_cpus(cpus: usize) -> Kernel {
    Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("boots")
}

fn load(k: &mut Kernel, a: Asm) -> u32 {
    k.load_user_program(a.assemble().unwrap()).unwrap()
}

/// A thread at `entry`, homed on `cpu`, started.
fn start_on(k: &mut Kernel, cpu: usize, entry: u32, stack: u32) -> Tid {
    let tid = k.create_thread(entry, stack, user_map()).unwrap();
    k.threads.get_mut(&tid).unwrap().cpu = cpu;
    k.start(tid).unwrap();
    tid
}

/// The CPU `tid` is current on, and that CPU's context.
fn running(k: &Kernel, tid: Tid) -> (usize, Cpu) {
    let cpu = (0..k.cpus.len())
        .find(|&c| k.current_tid_on(c) == Some(tid))
        .expect("the thread is running");
    (cpu, k.m.cpu_ref(cpu).clone())
}

/// Marked registers, `FLAG` raised, then one `bra` to itself forever: the
/// thread's context is the same at every safe point. Returns the entry
/// and the `bra`'s address.
fn spinner(k: &mut Kernel, prologue: impl FnOnce(&mut Asm)) -> (u32, u32) {
    let mut a = Asm::new("spinner");
    prologue(&mut a);
    emit_marked_registers(&mut a);
    a.move_i(L, 1, Abs(FLAG));
    let at = a.len();
    let top = a.here();
    a.bra(top);
    let entry = load(k, a);
    (entry, k.m.code.addr_of(entry, at).unwrap())
}

/// Once `FLAG` is up, general call `call` on the tid at `TARGET`, the
/// result to `RESULT`, then spin. Returns the entry, the `trap`'s address
/// and the next instruction's.
fn caller(k: &mut Kernel, call: u32) -> (u32, u32, u32) {
    let mut a = Asm::new("caller");
    let wait = a.here();
    a.tst(L, Abs(FLAG));
    a.bcc(Cond::Eq, wait);
    a.move_i(L, call, Dr(0));
    a.move_(L, Abs(TARGET), Dr(1));
    let trap = a.len();
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(RESULT));
    let spin = a.here();
    a.bra(spin);
    let entry = load(k, a);
    let at = |i| k.m.code.addr_of(entry, i).unwrap();
    (entry, at(trap), at(trap + 1))
}

/// Two CPUs: a caller on CPU 0 makes general call `call` on `target`,
/// running on CPU 1 from `target_entry`. Returns the kernel as the caller
/// resumes after its `trap`, the caller, the target and CPU 1's context
/// at the call.
fn cross_cpu_call(
    call: u32,
    target_entry: impl FnOnce(&mut Kernel) -> u32,
) -> (Kernel, Tid, Tid, Cpu) {
    let mut k = boot_cpus(2);
    let te = target_entry(&mut k);
    let (ce, trap, after) = caller(&mut k, call);
    let a = start_on(&mut k, 0, ce, USTACK);
    let b = start_on(&mut k, 1, te, USTACK + 0x1000);
    k.m.mem.poke(TARGET, L, b);
    cpu_at(&mut k, trap);
    assert_eq!(k.current_tid_on(1), Some(b), "the target runs on CPU 1");
    let at = k.m.cpu_ref(1).clone();
    let resumed = cpu_at(&mut k, after);
    assert_eq!(k.m.active_cpu(), 0, "the caller's CPU is the active one");
    assert_eq!(k.current_tid(), Some(a));
    assert_eq!(resumed.d[0], 0, "the caller resumes with the call's result");
    (k, a, b, at)
}

/// Regression: a `THREAD_STOP` of a thread running on another CPU left
/// the machine on that CPU; the caller kept `d0 = 4` and the run loop
/// went on executing the other CPU inside the caller's slice.
#[test]
fn a_cross_cpu_thread_stop_returns_to_its_caller() {
    let mut spin_pc = 0;
    let (k, _, b, at) = cross_cpu_call(general::THREAD_STOP, |k| {
        let (entry, pc) = spinner(k, |_| {});
        spin_pc = pc;
        entry
    });
    assert_eq!(at.pc, spin_pc);
    assert_eq!(k.threads[&b].state, ThreadState::Stopped);
    assert_resumes_at(&k, b, &at, at.pc);
    assert_ne!(k.current_tid_on(1), Some(b), "the target left CPU 1");
}

#[test]
fn a_cross_cpu_thread_destroy_returns_to_its_caller() {
    let (mut k, _, b, _) = cross_cpu_call(general::THREAD_DESTROY, |k| spinner(k, |_| {}).0);
    assert!(!k.threads.contains_key(&b));
    let head = k.cpus[1].ready.head();
    assert_eq!(
        k.current_tid_on(1),
        head,
        "CPU 1 went on to its chain's head"
    );
    assert_eq!(k.run(1_000_000), RunExit::CycleLimit);
}

/// A handler that bumps `HITS`, clobbers `d3` and `a2`, and returns.
fn counting_handler(k: &mut Kernel) -> u32 {
    let mut h = Asm::new("handler");
    h.add(L, Imm(1), Abs(HITS));
    h.move_i(L, 0xBAD, Dr(3));
    h.move_(L, Imm(0xBAD), Ar(2));
    h.move_i(L, general::SIG_RETURN, Dr(0));
    h.trap(traps::GENERAL);
    let dead = h.here();
    h.bra(dead);
    load(k, h)
}

/// Install `handler` as the thread's signal handler.
fn emit_set_handler(a: &mut Asm, handler: u32) {
    a.move_i(L, general::SET_SIG_HANDLER, Dr(0));
    a.move_i(L, handler, Dr(1));
    a.trap(traps::GENERAL);
}

/// Regression: a `SIGNAL` of a thread running on another CPU wrote its
/// frame under the stale SSP in the target's TTE, which that CPU's next
/// switch-out overwrote — the handler never ran.
#[test]
fn a_cross_cpu_signal_is_delivered_once() {
    let (mut k, ..) = cross_cpu_call(general::SIGNAL, |k| {
        let handler = counting_handler(k);
        let mut t = Asm::new("counter");
        emit_set_handler(&mut t, handler);
        t.move_i(L, 1, Abs(FLAG));
        let top = t.here();
        t.add(L, Imm(1), Abs(TICKS));
        t.bra(top);
        load(k, t)
    });
    k.run(2_000_000);
    let ticks = k.m.mem.peek(TICKS, L);
    k.run(2_000_000);
    assert_eq!(k.m.mem.peek(HITS, L), 1, "the handler ran exactly once");
    assert!(
        k.m.mem.peek(TICKS, L) > ticks,
        "the target's loop kept counting"
    );
}

/// Boot at `cpus`, start a thread from `entry` on the last CPU, run it a
/// while, and make CPU 0 the active one — so at 2 CPUs the thread runs on
/// a CPU the host does not have active.
fn running_thread(cpus: usize, entry: impl FnOnce(&mut Kernel) -> u32) -> (Kernel, Tid) {
    let mut k = boot_cpus(cpus);
    let entry = entry(&mut k);
    let tid = start_on(&mut k, cpus - 1, entry, USTACK);
    k.run(2_000_000);
    k.m.switch_cpu(0);
    (k, tid)
}

/// Host `stop` of `tid`, running: it is parked with exactly its CPU's
/// context, on that CPU, and the host's CPU is still the active one.
/// Returns that context.
fn stop_running(k: &mut Kernel, tid: Tid) -> Cpu {
    let (_, at) = running(k, tid);
    let active = k.m.active_cpu();
    k.stop(tid).unwrap();
    assert_eq!(k.m.active_cpu(), active, "the host's CPU is active again");
    assert_eq!(k.threads[&tid].state, ThreadState::Stopped);
    assert!((0..k.cpus.len()).all(|c| k.current_tid_on(c) != Some(tid)));
    assert_resumes_at(k, tid, &at, at.pc);
    at
}

/// Stop, restart, run and stop again: the second park finds what the
/// first left, so the thread resumed exactly where it was stopped.
fn stop_resume_stop(k: &mut Kernel, tid: Tid) -> Cpu {
    let at = stop_running(k, tid);
    k.start(tid).unwrap();
    k.run(2_000_000);
    let again = stop_running(k, tid);
    assert_eq!(
        (again.d, again.a, again.usp(), again.sr, again.pc),
        (at.d, at.a, at.usp(), at.sr, at.pc)
    );
    at
}

#[test]
fn a_host_stop_parks_a_running_thread_through_its_own_switch() {
    for cpus in [1, 2] {
        let mut spin_pc = 0;
        let (mut k, tid) = running_thread(cpus, |k| {
            let (entry, pc) = spinner(k, |_| {});
            spin_pc = pc;
            entry
        });
        let at = stop_resume_stop(&mut k, tid);
        assert_eq!(at.pc, spin_pc, "{cpus} cpus: stopped in user code");
        assert_eq!(at.d[5], 0xD0D0_0005);
    }
}

#[test]
fn a_host_stop_inside_a_trap_handler_parks_above_the_trap_frame() {
    const VECTOR: u8 = 5;
    for cpus in [1, 2] {
        let mut k = boot_cpus(cpus);
        let mut h = Asm::new("spinning_handler");
        h.move_i(L, 0x5EED, Dr(2));
        let top = h.here();
        h.bra(top);
        let handler = load(&mut k, h);
        let (entry, _) = spinner(&mut k, |a| a.trap(VECTOR));
        let tid = start_on(&mut k, cpus - 1, entry, USTACK);
        k.set_vector(tid, 32 + u32::from(VECTOR), handler).unwrap();
        k.run(2_000_000);
        k.m.switch_cpu(0);
        let at = stop_resume_stop(&mut k, tid);
        assert!(at.supervisor(), "{cpus} cpus: stopped in the handler");
        assert_eq!(at.d[2], 0x5EED);
        let after_trap = k.m.code.addr_of(entry, 1).unwrap();
        assert_eq!(
            k.m.mem.peek(at.ssp() + 2, L),
            after_trap,
            "the trap's frame is under the park's"
        );
    }
}

#[test]
fn a_host_signal_of_a_running_thread_returns_to_the_exact_interrupted_state() {
    for cpus in [1, 2] {
        let (mut k, tid) = running_thread(cpus, |k| {
            let handler = counting_handler(k);
            spinner(k, |a| emit_set_handler(a, handler)).0
        });
        let (_, at) = running(&k, tid);
        let active = k.m.active_cpu();
        k.signal(tid, 1).unwrap();
        assert_eq!(k.m.active_cpu(), active, "the host's CPU is active again");
        k.run(2_000_000);
        assert_eq!(
            k.m.mem.peek(HITS, L),
            1,
            "{cpus} cpus: the handler ran once"
        );
        k.m.mem.poke(HITS, L, 0);
        // The handler's clobbers are gone: what is parked now is what the
        // signal interrupted.
        let now = stop_running(&mut k, tid);
        assert_eq!(
            (now.d, now.a, now.usp(), now.sr, now.pc),
            (at.d, at.a, at.usp(), at.sr, at.pc),
            "{cpus} cpus"
        );
    }
}

#[test]
fn a_host_stop_of_an_fp_thread_keeps_its_fp_registers() {
    for cpus in [1, 2] {
        let (mut k, tid) = running_thread(cpus, |k| {
            poke_doubles(k, UBUF, 1.5);
            spinner(k, |a| emit_fp_loads(a, UBUF)).0
        });
        assert!(k.uses_fp(&k.threads[&tid]), "on the FP switch");
        let at = stop_running(&mut k, tid);
        let fp_slot = |k: &Kernel, i: u32| peek_double(k, k.threads[&tid].tte + off::FP + 8 * i);
        for i in 0..8u32 {
            assert_eq!(
                fp_slot(&k, i),
                1.5 + f64::from(i),
                "{cpus} cpus: fp{i} parked"
            );
            assert_eq!(at.fp[i as usize], 1.5 + f64::from(i));
        }
        // Whatever the CPUs hold meanwhile is not the thread's.
        for c in 0..cpus {
            k.m.cpu_mut(c).fp = [1e9; 8];
        }
        k.start(tid).unwrap();
        k.run(2_000_000);
        let again = stop_running(&mut k, tid);
        assert_eq!(again.fp, at.fp, "{cpus} cpus: fp0-fp7 came back");
    }
}
