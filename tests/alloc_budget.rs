//! Heap allocations on the kernel's steady paths, counted.
//!
//! A create → start → stop → destroy lifecycle instantiates four kept
//! plans (the switch, two trap dispatchers, the error handler) and runs
//! the resident fill and push of its thread block, which allocate nothing:
//! the block comes off the kernel's guest free list and goes back on it,
//! never through the fast-fit heap. What an instantiation owns is only
//! what varies — the filled instructions, the code-buffer extent; the
//! name, offsets, instruction facts and entry table are its plan's,
//! shared, the hole values go into the creator's reused table, and the
//! kernel rebinds the values of kept bindings (DESIGN.md §10). What is
//! left: the four instruction vectors and the caller's copy of the
//! address map, and a node of code memory's index now and then. A thread that
//! opens no file allocates no fd list. A warm open+close of a file makes
//! a pinned number of allocations: its offset slot's heap free reuses the
//! box of the block it merges with. A blocking pipe round trip synthesizes nothing and allocates
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
use synthesis::kernel::layout::{self, MemLayout};
use synthesis::kernel::templates::thread_init::ThreadImage;
use synthesis::kernel::templates::RoutineRegs;
use synthesis::unix::programs::pingpong;

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
/// Allocations allowed per lifecycle, on average: the 5 it makes, plus
/// one (the kernel that copied every plan's name, offsets and entries
/// made 50; a table and a facts vector per instantiation and fresh
/// bindings and part lists per create made 23; a 16-slot fd vector per
/// create made 10; three fast-fit blocks per thread, each freed into a
/// new heap node, made 9).
const BUDGET: f64 = 6.0;
/// Allocations of one warm open+close of a file (7 while every fast-fit
/// free boxed a new node).
const OPEN_CLOSE_ALLOCS: f64 = 6.0;

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

/// The resident push and fill of a thread block, run from the host as
/// every destroy and create runs them, allocate nothing: `call_routine`
/// keeps the CPU it borrows on the stack.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_thread_block_push_and_fill_allocate_nothing() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..synthesis_bench::measurement_config()
    })
    .expect("boots");
    let idle = k.cpus[0].idle_tid;
    let t = &k.threads[&idle];
    let kstack_top = t.kstack() + layout::KSTACK_LEN;
    // The idle thread's own block, pushed and filled with its own image
    // again.
    let mut push = RoutineRegs::default();
    push.a[0] = t.tte;
    let image = ThreadImage {
        entry: k.m.mem.peek(kstack_top - 4, Size::L),
        user_sp: 0,
        sr: 0x2000,
        sw_out: k.switch_entries(t).sw_out,
        ipi_in: k.switch_entries(t).ipi_in,
        dispatch_read: t.trap_read.base,
        dispatch_write: t.trap_write.base,
        error: t.trap_error.base,
    };
    let fill = image.regs();
    let cycle = |k: &mut Kernel| {
        k.call_routine(layout::THREAD_FINI, &push).unwrap();
        k.call_routine(layout::THREAD_INIT, &fill).unwrap();
    };
    cycle(&mut k);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        cycle(&mut k);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(
        k.m.mem.peek(layout::THREAD_FREE, Size::L),
        0,
        "each push popped"
    );
}

/// A warm open+close of a file from the host makes exactly
/// `OPEN_CLOSE_ALLOCS` allocations: the fast-fit heap's offset slot is
/// carved off a free block and freed back into it, reusing that block's
/// node, and the cached code is a hit.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_warm_open_close_pair_makes_its_pinned_allocations() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..synthesis_bench::measurement_config()
    })
    .expect("boots");
    k.trace.enabled = false;
    k.m.meter.tracing = false;
    let mut a = Asm::new("never_run");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let ub = k.layout.user_base;
    let map = AddressMap::single(1, ub, k.layout.user_len);
    let tid = k.create_thread(entry, ub + 0x1_0000, map).unwrap();
    let fid =
        k.fs.create(&mut k.m, &mut k.heap, "/tmp/budget", 256)
            .unwrap();
    assert_eq!(k.fs.lookup("/tmp/budget").0, Some(fid));
    let pair = |k: &mut Kernel| {
        let fd = k.open_for(tid, "/tmp/budget").unwrap();
        k.close_for(tid, fd).unwrap();
    };
    for _ in 0..20 {
        pair(&mut k);
    }
    let pairs = 1_000;
    let before = ALLOCS.with(Cell::get);
    for _ in 0..pairs {
        pair(&mut k);
    }
    let per = (ALLOCS.with(Cell::get) - before) as f64 / f64::from(pairs);
    assert_eq!(per, OPEN_CLOSE_ALLOCS, "allocations per warm open+close");
}

/// Run in the benchmark's 50,000-cycle slices until the initiator's mark.
fn run_to_mark(k: &mut Kernel) {
    loop {
        match k.run(50_000) {
            RunExit::KCall(pingpong::MARK) => return,
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
    let [ta, tb] = pingpong::load(&mut k, 1_000_000).unwrap();
    k.m.mem.poke(pingpong::COUNT, L, 500);
    k.start(ta).unwrap();
    k.start(tb).unwrap();
    // Two warm-up passes: `run` returns at a mark without draining the
    // machine's hook log, so the slice after the first mark is the one
    // that grows the log to a mark's leftovers plus a slice.
    run_to_mark(&mut k);
    run_to_mark(&mut k);

    let trips = 4_000;
    k.m.mem.poke(pingpong::COUNT, L, trips);
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
