//! The A/D server of paper Section 5.4: surviving 44,100 interrupts per
//! second by amortizing queue overhead with a blocking factor of eight.
//!
//! Two layers:
//! - the *simulated* layer runs the synthesized interrupt handlers on the
//!   machine and counts their cycles (Table 5's 3 µs figure);
//! - the *real* layer pushes one second of 44.1 kHz samples through the
//!   buffered queue with actual threads.
//!
//! ```text
//! cargo run --release --example audio_pipeline
//! ```

use synthesis::blocks::buffered;
use synthesis_bench::path::Probe;
use synthesis_bench::table5;

fn main() {
    // --- Simulated: one A/D interrupt of each handler style, run under a
    // user thread and counted off the machine's instruction trace
    // (Section 6.3), interrupt acceptance included.
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let user = p.create(spin);
    p.emu.k.start(user).unwrap();
    let [spec, simple] = table5::ad_interrupts(&mut p, user);
    let (spec_us, simple_us) = (
        p.emu.k.m.cost.cycles_to_us(spec.cycles),
        p.emu.k.m.cost.cycles_to_us(simple.cycles),
    );
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
