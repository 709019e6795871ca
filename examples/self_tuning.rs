//! Fine-grain scheduling (paper Section 4.4): CPU quanta adapt to each
//! thread's observed I/O rate — and the adjustment happens by patching
//! the quantum immediate inside the thread's synthesized switch code.
//!
//! ```text
//! cargo run --example self_tuning
//! ```

use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::kernel::sched::FineGrain;
use synthesis::kernel::syscall::{general, traps};
use synthesis::machine::asm::Asm;
use synthesis::machine::isa::{Cond, Operand::*, Size::*};
use synthesis::machine::mem::AddressMap;

const UPATH: u32 = layout::USER_BASE + 0x2_8000;

fn main() {
    let mut k = Kernel::boot(KernelConfig::default()).expect("boots");
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);

    // An I/O-bound thread: writes to /dev/null as fast as it can (each
    // synthesized write bumps the thread's gauge).
    let mut io = Asm::new("io_bound");
    io.move_i(L, general::OPEN, Dr(0));
    io.lea(Abs(UPATH), 0);
    io.trap(traps::GENERAL);
    io.move_(L, Dr(0), Dr(5));
    let top = io.here();
    io.move_(L, Dr(5), Dr(0));
    io.lea(Abs(layout::USER_BASE + 0x2_0000), 0);
    io.move_i(L, 16, Dr(1));
    io.trap(traps::WRITE);
    io.bcc(Cond::T, top);
    let io_entry = k.load_user_program(io.assemble().unwrap()).unwrap();

    // A compute-bound thread: pure spinning.
    let mut cpu = Asm::new("cpu_bound");
    let ctop = cpu.here();
    cpu.add(L, Imm(1), Dr(0));
    cpu.bcc(Cond::T, ctop);
    let cpu_entry = k.load_user_program(cpu.assemble().unwrap()).unwrap();

    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let t_io = k
        .create_thread(io_entry, layout::USER_BASE + 0x1_0000, map.clone())
        .unwrap();
    let t_cpu = k
        .create_thread(cpu_entry, layout::USER_BASE + 0x1_8000, map)
        .unwrap();
    k.start(t_io).unwrap();
    k.start(t_cpu).unwrap();

    let mut policy = FineGrain::new();
    println!("pass |  io-thread quantum | cpu-thread quantum | io gauge delta");
    let mut last_gauge = 0u64;
    for pass in 0..6 {
        k.run(8_000_000); // half a simulated second
        policy.adapt(&mut k);
        let io_q = k.quantum_us(t_io).unwrap();
        let cpu_q = k.quantum_us(t_cpu).unwrap();
        let g = u64::from(k.m.mem.peek(
            k.threads[&t_io].tte + synthesis::kernel::thread::tte::off::GAUGE,
            synthesis::machine::isa::Size::L,
        ));
        println!(
            "{pass:4} | {io_q:15} µs | {cpu_q:15} µs | {:14}",
            g - last_gauge
        );
        last_gauge = g;
    }
    let io_q = k.quantum_us(t_io).unwrap();
    let cpu_q = k.quantum_us(t_cpu).unwrap();
    assert!(
        io_q > cpu_q,
        "the I/O-bound thread earned the larger quantum ({io_q} vs {cpu_q})"
    );
    println!(
        "\nfine-grain scheduling gave the I/O-bound thread {io_q} µs vs {cpu_q} µs \
         ({} adjustments, {} passes) — by patching its switch code in place",
        policy.adjustments, policy.passes
    );
}
