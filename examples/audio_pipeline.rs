//! The A/D server of paper Section 5.4: surviving 44,100 interrupts per
//! second by amortizing queue overhead with a blocking factor of eight.
//!
//! Two layers:
//! - the *simulated* layer prices the synthesized interrupt handlers under
//!   the 68020 cost model (Table 5's 3 µs figure);
//! - the *real* layer pushes one second of 44.1 kHz samples through the
//!   buffered queue with actual threads.
//!
//! ```text
//! cargo run --release --example audio_pipeline
//! ```

use synthesis::blocks::buffered;
use synthesis::codegen::template::Bindings;
use synthesis::kernel::kernel::{Kernel, KernelConfig};

fn handler_cost_us(k: &mut Kernel) -> (f64, f64) {
    // Static path costs of the two A/D handler styles (Section 6.3's
    // counting), including interrupt acceptance.
    let cost = k.m.cost;
    let entry = {
        use synthesis::machine::cost::{EXCEPTION_BASE, EXCEPTION_REFS, IACK_BASE};
        cost.cycles_to_us(IACK_BASE + EXCEPTION_BASE + EXCEPTION_REFS * cost.bus_cycles())
    };
    let sum_block = |k: &Kernel, base: u32, skip_kcall: bool| -> f64 {
        let block = k.m.code.block(base).expect("installed");
        let mut cycles = 0;
        for ins in &block.instrs {
            if skip_kcall && matches!(ins, synthesis::machine::isa::Instr::KCall(_)) {
                continue;
            }
            let (b, r) = synthesis::machine::cost::instr_cost(ins);
            cycles += b + r * cost.bus_cycles();
        }
        cost.cycles_to_us(cycles)
    };
    let spec = k
        .creator
        .synthesize(
            &mut k.m,
            "irq_ad_0",
            Bindings::new()
                .bind("ad_data", 0xFF00_0300)
                .bind("slot", 0x5000)
                .bind("vec", 0x100)
                .bind("next", 0x2000),
            k.opts,
        )
        .unwrap();
    let simple = k
        .creator
        .synthesize(
            &mut k.m,
            "irq_ad_simple",
            Bindings::new()
                .bind("ad_data", 0xFF00_0300)
                .bind("ptr_slot", 0x5100)
                .bind("end_slot", 0x5104)
                .bind("gauge", 0x5108),
            k.opts,
        )
        .unwrap();
    (
        entry + sum_block(k, spec.base, false),
        entry + sum_block(k, simple.base, true),
    )
}

fn main() {
    // --- Simulated: what one A/D interrupt costs at 16 MHz + 1 ws.
    let mut k = Kernel::boot(KernelConfig::default()).expect("boots");
    let (spec_us, simple_us) = handler_cost_us(&mut k);
    println!("A/D interrupt service (SUN 3/160 emulation mode):");
    println!("  specialized slot handler: {spec_us:.1} µs  (paper: 3 µs)");
    println!("  simple pointer handler:   {simple_us:.1} µs");
    let budget = 1_000_000.0 / 44_100.0;
    println!(
        "  at 44,100 Hz the budget is {budget:.1} µs/sample -> {:.0}% of the CPU",
        spec_us / budget * 100.0
    );

    // --- Real: one second of samples through the factor-8 buffered queue.
    let (mut p, mut c) = buffered::channel::<u32, 8>(512);
    let t0 = std::time::Instant::now();
    let consumer = std::thread::spawn(move || {
        let mut got = 0u32;
        let mut checksum = 0u64;
        while got < 44_100 {
            if let Some(chunk) = c.get_chunk() {
                for s in chunk {
                    checksum = checksum.wrapping_add(u64::from(s));
                }
                got += 8;
            } else if let Some(s) = c.get() {
                checksum = checksum.wrapping_add(u64::from(s));
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        (got, checksum)
    });
    for i in 0..44_104u32 {
        while p.put(i).is_err() {
            std::thread::yield_now();
        }
    }
    // The last chunk may have completed against a full queue.
    while !p.flush() {
        std::thread::yield_now();
    }
    let (got, checksum) = consumer.join().unwrap();
    let dt = t0.elapsed();
    println!("\nreal buffered queue (this machine):");
    println!(
        "  {got} samples in {:.1} ms ({:.1}x the blocking factor amortization: {} chunk puts for {} items)",
        dt.as_secs_f64() * 1000.0,
        p.amortization(),
        p.chunk_puts,
        p.items
    );
    println!("  checksum {checksum:#x}");
}
