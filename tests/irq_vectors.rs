//! Which code each exception, interrupt level and trap enters: every
//! thread's vector table, read back from memory and resolved to the
//! block it names.
//!
//! A level that no device owns must enter `irq_spurious` (a bare `rte`),
//! so a table that still names a handler for a device the kernel no
//! longer boots fails here. A vector that names one of the thread's own
//! blocks must name that thread's copy, also in a recycled table. The
//! tables are written by the resident thread fill, which binds the IPI
//! vector by the CPU count: spurious on one CPU, the thread's own
//! `ipi_in` on two.

use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::kernel::thread::Thread;
use synthesis::machine::asm::Asm;
use synthesis::machine::isa::Size;
use synthesis::machine::mem::AddressMap;

/// What a vector must name.
#[derive(Clone, Copy)]
enum Want {
    /// The shared block of this name.
    Shared(&'static str),
    /// The base of one of the thread's own blocks.
    Own(fn(&Thread) -> u32),
    /// The thread's own switch-out entry.
    SwitchOut,
    /// The thread's own IPI entry, inside its switch code.
    IpiIn,
}

/// Every pinned vector of a thread on a kernel of `cpus` CPUs, with what
/// it must name: the error traps, lazy FP, interrupt levels 1–7 (24 +
/// level) and the sixteen `trap #n` vectors (32 + n).
fn expected(cpus: usize) -> Vec<(u32, Want)> {
    let mut v: Vec<(u32, Want)> = [2, 3, 4, 5, 8]
        .into_iter()
        .map(|vec| (vec, Want::Own(|t| t.trap_error.base)))
        .collect();
    v.extend([
        (11, Want::Shared("trap_fp_unavail")),
        // The IPI line: a reschedule on a multiprocessor; on one CPU
        // nobody sends one.
        (
            25,
            if cpus > 1 {
                Want::IpiIn
            } else {
                Want::Shared("irq_spurious")
            },
        ),
        (26, Want::Shared("irq_spurious")), // unassigned
        (27, Want::Shared("irq_alarm")),
        (28, Want::Shared("irq_tty_rx")),
        (29, Want::Shared("irq_spurious")), // A/D: the embedder installs its handlers
        (30, Want::SwitchOut),              // the quantum timer
        (31, Want::Shared("irq_spurious")),
    ]);
    v.extend((32..48).map(|vec| match vec {
        33 => (vec, Want::Own(|t| t.trap_read.base)),
        34 => (vec, Want::Own(|t| t.trap_write.base)),
        _ => (vec, Want::Shared("kcall_trampoline")),
    }));
    v
}

/// Check every thread's table against [`expected`].
fn assert_vectors(k: &Kernel) {
    for (tid, t) in &k.threads {
        for (vec, want) in expected(k.cpus.len()) {
            let addr = k.m.mem.peek(t.vt() + 4 * vec, Size::L);
            let loc =
                k.m.code.locate(addr).unwrap_or_else(|| {
                    panic!("thread {tid}: vector {vec} names no code ({addr:#x})")
                });
            let name = &k.m.code.block(loc.block_base).expect("resident").name;
            match want {
                Want::Shared(want) => {
                    assert_eq!(&**name, want, "thread {tid}: vector {vec} enters {name}")
                }
                Want::Own(base) => assert_eq!(
                    addr,
                    base(t),
                    "thread {tid}: vector {vec} enters {name} at {addr:#x}, not its own"
                ),
                Want::SwitchOut => assert!(
                    Some(addr) == t.sw.entry("sw_out") && loc.block_base == t.sw.base,
                    "thread {tid}: vector {vec} enters {name}+{addr:#x}, not its switch-out"
                ),
                Want::IpiIn => assert!(
                    Some(addr) == t.sw.entry("ipi_in") && loc.block_base == t.sw.base,
                    "thread {tid}: vector {vec} enters {name}+{addr:#x}, not its IPI entry"
                ),
            }
        }
    }
}

/// Boot `cpus` CPUs, then check every table: the idle threads', a new
/// thread's, and a thread's that is handed the table of one destroyed.
fn every_table_on(cpus: usize) {
    let mut k = Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bra(top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let stack = layout::USER_BASE + 0x1_0000;
    let first = k
        .create_thread(entry, stack, map.clone())
        .expect("thread created");
    assert_eq!(
        k.threads.len(),
        cpus + 1,
        "the idle threads and the user thread"
    );
    assert_vectors(&k);

    // A table freed by `destroy` and handed to the next thread.
    let vt = k.threads[&first].vt();
    k.destroy(first).expect("thread destroyed");
    let second = k.create_thread(entry, stack, map).expect("thread created");
    assert_eq!(k.threads[&second].vt(), vt, "the vector table is recycled");
    assert_vectors(&k);
}

#[test]
fn every_interrupt_level_enters_its_handler() {
    every_table_on(1);
}

#[test]
fn on_two_cpus_the_ipi_vector_enters_the_threads_own_switch() {
    every_table_on(2);
}
