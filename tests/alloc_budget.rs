//! Heap allocations per thread lifecycle, counted.
//!
//! A create → start → stop → destroy lifecycle instantiates four kept
//! plans (the switch, two trap dispatchers, the error handler). What an
//! instantiation owns is only what varies — the filled instructions and
//! their facts, the code-buffer extent; the name, offsets and entry table
//! are its plan's, shared, and the kernel binds its holes by literal
//! names (DESIGN.md §10). This binary's allocator counts the calling
//! thread's allocations and holds that to a budget: a copy of something
//! shared crept back in if it fails.
//!
//! Release only: debug builds re-run the pipeline on every plan hit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout::MemLayout;

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
/// Allocations allowed per lifecycle, on average (the kernel that
/// copied every plan's name, offsets and entries made 50).
const BUDGET: f64 = 25.0;

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
