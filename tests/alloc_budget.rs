//! Heap allocations on the kernel's steady paths, counted.
//!
//! A create → start → stop → destroy lifecycle instantiates four kept
//! plans (the switch, two trap dispatchers, the error handler) and runs
//! the resident fill, which allocates nothing. What an instantiation owns
//! is only what varies — the filled instructions, the code-buffer extent;
//! the name, offsets, instruction facts and entry table are its plan's,
//! shared, the hole values go into the creator's reused table, and the
//! kernel rebinds the values of kept bindings (DESIGN.md §10). What is
//! left: the four instruction vectors, the fast-fit heap's three free-list
//! nodes, a node of code memory's index now and then, and the caller's
//! copy of the address map. A thread that opens no file allocates no fd
//! list. A blocking pipe round trip synthesizes nothing and allocates
//! nothing: the wait lists keep their capacity across a
//! wake and `Kernel::run` keeps its per-CPU state in fixed arrays; once
//! warm it does not search code memory either. This
//! binary's allocator counts the calling thread's allocations and holds
//! each path to its budget: a copy of something shared, or a per-block
//! allocation, crept back in if one fails.
//!
//! Release only: debug builds re-run the pipeline on every plan hit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size, Size::*};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout::{MemLayout, USER_BASE, USER_LEN};
use synthesis::kernel::syscall::traps;

/// The system allocator, counting what the current thread allocates
/// (a reallocation counts: it is a fresh allocation when it moves).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Threads in the ready chain for the whole run.
const RESIDENT: u32 = 100;
const WARM: u32 = 2_000;
const MEASURED: u32 = 5_000;
/// Allocations allowed per lifecycle, on average: the 9 it makes, plus
/// one (the kernel that copied every plan's name, offsets and entries
/// made 50; a table and a facts vector per instantiation and fresh
/// bindings and part lists per create made 23; a 16-slot fd vector per
/// create made 10).
const BUDGET: f64 = 10.0;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_thread_lifecycle_stays_within_its_allocation_budget() {
    // Booted as the benchmark's `thread_churn` boots.
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        layout: MemLayout::for_threads(RESIDENT + 64),
        ..synthesis_bench::measurement_config()
    })
    .expect("boots");
    k.trace.enabled = false;
    k.m.meter.tracing = false;
    let ub = k.layout.user_base;
    let mut a = Asm::new("spinner");
    let top = a.here();
    a.add(L, Imm(1), Abs(ub + 0x108));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let (ustack, map) = (ub + 0x1_0000, AddressMap::single(1, ub, k.layout.user_len));

    for _ in 0..RESIDENT {
        let tid = k.create_thread(entry, ustack, map.clone()).unwrap();
        k.start(tid).unwrap();
    }
    let lifecycle = |k: &mut Kernel| {
        let tid = k.create_thread(entry, ustack, map.clone()).unwrap();
        k.start(tid).unwrap();
        k.stop(tid).unwrap();
        k.destroy(tid).unwrap();
    };
    for _ in 0..WARM {
        lifecycle(&mut k);
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED {
        lifecycle(&mut k);
    }
    let per = (ALLOCS.with(Cell::get) - before) as f64 / f64::from(MEASURED);
    eprintln!("{per:.2} allocations per lifecycle");
    assert!(
        per <= BUDGET,
        "{per:.2} allocations per lifecycle, budget {BUDGET}"
    );
}

/// The kcall the round-trip initiator makes after each pass.
/// The resident fill, run from the host as every create runs it,
/// allocates nothing: `call_routine` keeps the CPU it borrows on the
/// stack.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_thread_fill_allocates_nothing() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..synthesis_bench::measurement_config()
    })
    .expect("boots");
    let idle = k.cpus[0].idle_tid;
    let t = &k.threads[&idle];
    let kstack_top = t.kstack + synthesis::kernel::layout::KSTACK_LEN;
    // The idle thread's own image, written again.
    let image = synthesis::kernel::templates::thread_init::ThreadImage {
        tte: t.tte,
        vt: t.vt,
        kstack_top,
        entry: k.m.mem.peek(kstack_top - 4, Size::L),
        user_sp: 0,
        sr: 0x2000,
        sw_out: k.switch_entries(t).sw_out,
        ipi_in: k.switch_entries(t).ipi_in,
        dispatch_read: t.trap_read.base,
        dispatch_write: t.trap_write.base,
        error: t.trap_error.base,
    };
    let regs = image.regs();
    let fill = synthesis::kernel::layout::THREAD_INIT;
    k.call_routine(fill, &regs).unwrap();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        k.call_routine(fill, &regs).unwrap();
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
}

const MARK: u16 = 0x60;
const COUNT: u32 = USER_BASE + 0x2_9008;

/// One pass of `COUNT` round trips as `pipe_pingpong` makes them: the
/// initiator writes a byte on pipe 0 (fd 1) and reads the echo on pipe 1
/// (fd 2); the echo reads pipe 0 (fd 0) and writes pipe 1 (fd 3).
fn pingpong_programs() -> (Asm, Asm) {
    let io = |a: &mut Asm, trap: u8, fd: u32, buf: u32| {
        a.move_i(L, fd, Dr(0));
        a.lea(Abs(buf), 0);
        a.move_i(L, 1, Dr(1));
        a.trap(trap);
    };
    let mut a = Asm::new("initiator");
    let pass = a.here();
    a.move_(L, Abs(COUNT), Dr(7));
    let top = a.here();
    io(&mut a, traps::WRITE, 1, USER_BASE + 0x2_0000);
    io(&mut a, traps::READ, 2, USER_BASE + 0x2_0100);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.kcall(MARK);
    a.bcc(Cond::T, pass);
    let mut b = Asm::new("echo");
    let top = b.here();
    io(&mut b, traps::READ, 0, USER_BASE + 0x2_0200);
    io(&mut b, traps::WRITE, 3, USER_BASE + 0x2_0200);
    b.bcc(Cond::T, top);
    (a, b)
}

/// Run in the benchmark's 50,000-cycle slices until the initiator's mark.
fn run_to_mark(k: &mut Kernel) {
    loop {
        match k.run(50_000) {
            RunExit::KCall(MARK) => return,
            RunExit::CycleLimit => {}
            other => panic!("stopped before the mark: {other:?}"),
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_blocking_pipe_round_trip_allocates_nothing() {
    // Booted as the benchmark's `pipe_pingpong` boots: one CPU, two
    // threads, both holding both ends of both pipes (neither is solo),
    // native traps.
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..synthesis_bench::measurement_config()
    })
    .expect("boots");
    k.trace.enabled = false;
    k.m.meter.tracing = false;
    let (a, b) = pingpong_programs();
    let ea = k.load_user_program(a.assemble().unwrap()).unwrap();
    let eb = k.load_user_program(b.assemble().unwrap()).unwrap();
    let map = AddressMap::single(1, USER_BASE, USER_LEN);
    let ta = k
        .create_thread(ea, USER_BASE + 0x1_0000, map.clone())
        .unwrap();
    let tb = k.create_thread(eb, USER_BASE + 0x1_1000, map).unwrap();
    let fds = [
        k.pipe_for(ta),
        k.pipe_attach(tb, 0),
        k.pipe_for(tb),
        k.pipe_attach(ta, 1),
    ];
    assert_eq!(fds, [Ok((0, 1)), Ok((0, 1)), Ok((2, 3)), Ok((2, 3))]);
    k.m.mem.poke(COUNT, L, 500);
    k.start(ta).unwrap();
    k.start(tb).unwrap();
    // Two warm-up passes: `run` returns at a mark without draining the
    // machine's hook log, so the slice after the first mark is the one
    // that grows the log to a mark's leftovers plus a slice.
    run_to_mark(&mut k);
    run_to_mark(&mut k);

    let trips = 4_000;
    k.m.mem.poke(COUNT, L, trips);
    let moved = k.m.meter.instr_count;
    let searched = k.m.code.searches();
    let before = ALLOCS.with(Cell::get);
    run_to_mark(&mut k);
    let allocs = ALLOCS.with(Cell::get) - before;
    let searches = k.m.code.searches() - searched;
    assert!(
        k.m.meter.instr_count - moved > 200 * u64::from(trips),
        "the round trips ran"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in {trips} blocking round trips"
    );
    // Nor any search: every trap, `rte`, `jsr`/`rts`, chain `jmp` and
    // chain patch finds its address in a warm line, the two threads'
    // switch blocks 1 KB apart included.
    assert_eq!(
        searches, 0,
        "{searches} code-memory searches in {trips} blocking round trips"
    );
}
