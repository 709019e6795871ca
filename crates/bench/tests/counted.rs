//! A reported figure is a counted run, and counting it another way gives
//! the same figure: Table 4's full switch against a `Machine::step` count
//! of one real quantum expiry, and Table 1's steady state against a second
//! iteration count.

use quamachine::asm::Asm;
use quamachine::isa::Cond;
use quamachine::mem::AddressMap;
use synthesis_bench::{table1, table4};
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::layout;

/// Cycles `Machine::step` counts over one quantum expiry between two user
/// threads: from the interrupt's acceptance to the incoming thread's first
/// instruction.
fn stepped_quantum_expiry() -> u64 {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .expect("boots");
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let block = a.assemble().unwrap();
    let size = block.size_bytes();
    let spin = k.load_user_program(block).unwrap();
    let user = spin..spin + size;
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let threads = [0x1000, 0x1800].map(|sp| {
        let tid = k
            .create_thread(spin, layout::USER_BASE + sp, map.clone())
            .unwrap();
        k.start(tid).unwrap();
        tid
    });
    while !user.contains(&k.m.cpu.pc) {
        k.run(1_000);
    }
    let outgoing = k.current_tid().expect("a user thread runs");
    let incoming = threads.iter().find(|&&t| t != outgoing).unwrap();
    let accepted = |k: &Kernel| k.m.irq.accepted[usize::from(irq_levels::QUANTUM)];

    // Step the outgoing thread to its quantum's end.
    let before = accepted(&k);
    let mut at = k.m.meter.cycles;
    while accepted(&k) == before {
        at = k.m.meter.cycles;
        assert_eq!(k.m.step().expect("steps"), None);
    }
    // Step the switch through to the incoming thread's user code.
    while !(user.contains(&k.m.cpu.pc) && k.m.cpu.vbr == k.threads[incoming].vt) {
        assert_eq!(k.m.step().expect("steps"), None);
    }
    k.m.meter.cycles - at
}

#[test]
fn table4_full_switch_is_one_stepped_quantum_expiry() {
    let stepped = stepped_quantum_expiry();
    let rows = table4::run();
    let full = rows
        .iter()
        .find(|r| r.what == "full context switch (no FP)")
        .expect("the full switch row");
    let cost = quamachine::cost::CostModel::sun3_emulation();
    assert_eq!(
        full.measured,
        cost.cycles_to_us(stepped),
        "Table 4 reports {} µs; stepping counts {stepped} cycles",
        full.measured
    );
}

#[test]
fn table1_tty_row_is_a_steady_state() {
    let tty = table1::programs()
        .into_iter()
        .find(|p| p.name.contains("/dev/tty"))
        .expect("the /dev/tty row");
    let at_n = format!("{:.3}", tty.speedup(tty.n));
    let at_2n = format!("{:.3}", tty.speedup(2 * tty.n));
    assert_eq!(at_n, at_2n, "the speedup depends on the iteration count");
}
