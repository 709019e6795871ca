//! Which code each interrupt level enters: every thread's vector table,
//! read back from memory and resolved to the block it names.
//!
//! A level that no device owns must enter `irq_spurious` (a bare `rte`),
//! so a table that still names a handler for a device the kernel no
//! longer boots fails here.

use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::machine::asm::Asm;
use synthesis::machine::isa::Size;
use synthesis::machine::mem::AddressMap;

/// The handler each level 1–7 must name on a uniprocessor kernel;
/// `None` is the thread's own switch-out.
const EXPECTED: [(u32, Option<&str>); 7] = [
    (1, Some("irq_spurious")), // the IPI line: no other CPU sends one
    (2, Some("irq_spurious")), // unassigned
    (3, Some("irq_alarm")),
    (4, Some("irq_tty_rx")),
    (5, Some("irq_spurious")), // A/D: the embedder installs its handlers
    (6, None),                 // the quantum timer
    (7, Some("irq_spurious")),
];

#[test]
fn every_interrupt_level_enters_its_handler() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bra(top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    k.create_thread(entry, layout::USER_BASE + 0x1_0000, map)
        .expect("thread created");
    assert!(k.threads.len() >= 2, "the idle thread and the user thread");

    for t in k.threads.values() {
        for (level, want) in EXPECTED {
            let addr = k.m.mem.peek(t.vt + 4 * (24 + level), Size::L);
            let loc = k.m.code.locate(addr).unwrap_or_else(|| {
                panic!("thread {}: level {level} names no code ({addr:#x})", t.tid)
            });
            let name = &k.m.code.block(loc.block_base).expect("resident").name;
            match want {
                Some(want) => assert_eq!(
                    &**name, want,
                    "thread {}: level {level} enters {name}",
                    t.tid
                ),
                None => assert!(
                    addr == t.sw_out && loc.block_base == t.sw.base,
                    "thread {}: level {level} enters {name}+{addr:#x}, not its switch-out",
                    t.tid
                ),
            }
        }
    }
}
