//! Ablations: the design choices DESIGN.md calls out, each toggled.
//!
//! - **Kernel code synthesis on/off**: the same UNIX program on a kernel
//!   that specializes (fold + collapse + peephole) vs one that only
//!   substitutes parameters.
//! - **Collapsing Layers on/off**: inlined vs layered composition of the
//!   same templates (measured in simulated cycles).
//! - **Lazy vs eager FP save**: the Table 4 delta, as a path cost.
//!
//! Virtual-time results print once; criterion tracks regeneration cost.

use criterion::{criterion_group, criterion_main, Criterion};
use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::L};
use quamachine::machine::{Machine, MachineConfig, RunExit};
use synthesis_codegen::creator::{QuajectCreator, SynthesisOptions};
use synthesis_codegen::template::{Bindings, Template};
use synthesis_core::kernel::KernelConfig;
use synthesis_unix::programs;

/// Run the 1 KB pipe program with a given synthesis switchboard; returns
/// virtual µs.
fn pipe_with_opts(opts: SynthesisOptions) -> f64 {
    let cfg = KernelConfig {
        synthesis: opts,
        ..synthesis_bench::measurement_config()
    };
    let (mut emu, tid) =
        synthesis_unix::emu::boot_with_program(cfg, programs::pipe_rw(1024, 10)).unwrap();
    let t0 = emu.k.m.now_us();
    assert!(emu.run_until_exit(tid, 60_000_000_000));
    emu.k.m.now_us() - t0
}

/// Collapsed vs layered composition of a two-layer call chain, in cycles.
fn collapse_cycles(collapse: bool) -> u64 {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut c = QuajectCreator::new(0x10_0000, 0x2_0000);
    let mut leaf = Asm::new("leaf");
    leaf.add(L, Imm(7), Dr(0));
    leaf.rts();
    c.lib.add(Template::from_asm(leaf).unwrap());
    let s_leaf = c
        .synthesize(&mut m, "leaf", &Bindings::new(), SynthesisOptions::full())
        .unwrap();
    c.link("leaf", s_leaf.base);
    let mut outer = Asm::new("outer");
    let call = outer.abs_hole(Template::call_hole_name("leaf"));
    outer.move_i(L, 0, Dr(0));
    for _ in 0..4 {
        outer.jsr(call);
    }
    outer.halt();
    c.lib.add(Template::from_asm(outer).unwrap());
    let opts = SynthesisOptions {
        collapse,
        ..SynthesisOptions::full()
    };
    let s = c
        .synthesize(&mut m, "outer", &Bindings::new(), opts)
        .unwrap();
    m.cpu.pc = s.base;
    m.cpu.a[7] = 0x8000;
    let before = m.meter.cycles;
    assert_eq!(m.run(100_000), RunExit::Halted);
    m.meter.cycles - before
}

/// Specialized (synthesized-at-open) file read vs the general-purpose
/// routine that re-derives everything from a descriptor at run time —
/// the core Factoring Invariants claim. Returns cycles for a read of
/// `n` bytes.
fn read_cycles(n: u32, generic: bool) -> u64 {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut c = QuajectCreator::new(0x10_0000, 0x2_0000);
    c.lib
        .add(synthesis_core::templates::rw::read_file_template());
    c.lib
        .add(synthesis_core::templates::rw::rw_generic_template());
    // File state: a 64 KB buffer at 0x2_0000, length/offset slots.
    let buf = 0x2_0000u32;
    let len_slot = 0x1_0000u32;
    let offset_slot = 0x1_0004u32;
    let gauge = 0x1_0008u32;
    let desc = 0x1_0020u32;
    m.mem.poke(len_slot, L, 65536);
    m.mem.poke(offset_slot, L, 0);
    // The generic routine's descriptor: kind=FILE, offset, len, buf, cap.
    m.mem
        .poke(desc, L, synthesis_core::templates::rw::obj_kind::FILE);
    m.mem.poke(desc + 4, L, 0);
    m.mem.poke(desc + 8, L, 65536);
    m.mem.poke(desc + 12, L, buf);
    m.mem.poke(desc + 16, L, 65536);

    let (entry, routine) = if generic {
        let s = c
            .synthesize(
                &mut m,
                "rw_generic",
                &Bindings::new(),
                SynthesisOptions::full(),
            )
            .unwrap();
        (s.entry("read").expect("rw_generic marks read"), s)
    } else {
        let s = c
            .synthesize(
                &mut m,
                "read_file",
                Bindings::new()
                    .bind("offset_slot", offset_slot)
                    .bind("len_slot", len_slot)
                    .bind("buf", buf)
                    .bind("gauge", gauge),
                SynthesisOptions::full(),
            )
            .unwrap();
        (s.base, s)
    };
    let _ = routine;
    // A halt block the routine's rte returns into, via a fabricated frame.
    let mut h = Asm::new("after");
    h.halt();
    let after = m.load_block(0xF000, h.assemble().unwrap()).unwrap();
    m.cpu.a[7] = 0x8000 - 6;
    m.mem.poke(0x8000 - 6, quamachine::isa::Size::W, 0x2000);
    m.mem.poke(0x8000 - 4, L, after);
    m.cpu.pc = entry;
    m.cpu.d[0] = 0; // fd
    m.cpu.d[1] = n; // count
    m.cpu.a[0] = 0x9000; // destination
    m.cpu.a[2] = desc;
    let before = m.meter.cycles;
    assert_eq!(m.run(10_000_000), RunExit::Halted);
    assert_eq!(m.cpu.d[0], n, "read returned the full count");
    m.meter.cycles - before
}

fn bench_ablation(c: &mut Criterion) {
    // Print the virtual-time ablations once.
    for n in [1u32, 1024] {
        let spec = read_cycles(n, false);
        let gen = read_cycles(n, true);
        println!(
            "[ablation] read {n} B: specialized {spec} cycles vs generic {gen} cycles ({:.2}x)",
            gen as f64 / spec as f64
        );
    }
    let full = pipe_with_opts(SynthesisOptions::full());
    let none = pipe_with_opts(SynthesisOptions::none());
    println!(
        "[ablation] pipe 1KB x10: synthesis FULL {full:.0} µs vs NONE {none:.0} µs ({:.2}x)",
        none / full
    );
    let collapsed = collapse_cycles(true);
    let layered = collapse_cycles(false);
    println!(
        "[ablation] 4-call chain: collapsed {collapsed} cycles vs layered {layered} cycles ({:.2}x)",
        layered as f64 / collapsed as f64
    );

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("pipe_synthesis_full", |b| {
        b.iter(|| std::hint::black_box(pipe_with_opts(SynthesisOptions::full())));
    });
    g.bench_function("pipe_synthesis_none", |b| {
        b.iter(|| std::hint::black_box(pipe_with_opts(SynthesisOptions::none())));
    });
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
