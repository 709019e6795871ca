//! Table 4 — the dispatcher: context-switch costs.
//!
//! The full switch is the static cost of the synthesized switch path plus
//! timer-interrupt acceptance — exactly the instruction counting of
//! Section 6.3 — computed on the *installed* code of a live thread. The
//! FP number comes from a thread that took the lazy-FP resynthesis.
//! Block/unblock are the ready-queue unlink/insert operations (the paper's
//! spread-waiting-queue discipline) measured through the monitor.

use quamachine::mem::AddressMap;
use synthesis_core::layout;
use synthesis_core::monitor;

use crate::static_cost;
use crate::Row;

/// Instruction indices of a thread's `sw_in_mmu` prologue, which the
/// switch between two threads of one address map skips.
fn mmu_prologue(k: &synthesis_core::Kernel, tid: u32) -> std::ops::Range<usize> {
    let sw = &k.threads[&tid].sw;
    let block = k.m.code.block(sw.base).expect("switch installed");
    let idx_of = |mark| {
        let addr = sw.entry(mark).expect("a switch entry");
        block.index_at(addr - sw.base).expect("entry aligns")
    };
    idx_of("sw_in_mmu")..idx_of("sw_in")
}

/// Static µs of a thread's installed switch path (skipping the
/// `sw_in_mmu` prologue), plus interrupt entry.
fn switch_us(k: &synthesis_core::Kernel, tid: u32) -> f64 {
    let skip: Vec<usize> = mmu_prologue(k, tid).collect();
    static_cost::block_us(&k.m, k.threads[&tid].sw.base, &skip)
        + static_cost::irq_entry_us(&k.m.cost)
}

/// Regenerate Table 4.
#[must_use]
pub fn run() -> Vec<Row> {
    let mut k = crate::boot_kernel();
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);

    // A plain thread and an FP thread (runs one FP instruction so the
    // kernel resynthesizes its switch).
    let mut a = quamachine::asm::Asm::new("plain");
    let top = a.here();
    a.bcc(quamachine::isa::Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let plain = k
        .create_thread(entry, layout::USER_BASE + 0x1000, map.clone())
        .unwrap();

    let mut f = quamachine::asm::Asm::new("fpuser");
    f.fmove_load(quamachine::isa::Operand::Abs(layout::USER_BASE + 0x2000), 0);
    let ftop = f.here();
    f.bcc(quamachine::isa::Cond::T, ftop);
    let fentry = k.load_user_program(f.assemble().unwrap()).unwrap();
    let fp = k
        .create_thread(fentry, layout::USER_BASE + 0x1800, map)
        .unwrap();
    k.start(fp).unwrap();
    k.run(2_000_000); // long enough to fault into the FP resynthesis
    assert!(k.threads[&fp].uses_fp, "FP thread resynthesized");

    let full = switch_us(&k, plain);
    let full_fp = switch_us(&k, fp);
    // The "partial" switch: the paper switches "only the part of the
    // context being used"; the partial figure is the switch body without
    // the register-file moves (entry, stack, vbr, quantum, rte) — the
    // part every switch pays even when no registers need moving.
    let t = &k.threads[&plain];
    let block = k.m.code.block(t.sw.base).expect("installed");
    let movem_idx: Vec<usize> = block
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, quamachine::isa::Instr::Movem { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut skip: Vec<usize> = mmu_prologue(&k, plain).collect();
    skip.extend(movem_idx);
    let partial = static_cost::block_us(&k.m, t.sw.base, &skip);

    // Block/unblock: the ready-queue unlink and front-insert.
    k.stop(fp).unwrap();
    let (_, unblock) = monitor::measure(&mut k, |k| k.start(plain).unwrap());
    let (_, block_m) = monitor::measure(&mut k, |k| k.stop(plain).unwrap());

    vec![
        Row::new("full context switch (no FP)", Some(11.0), full, "us"),
        Row::new(
            "full context switch (FP registers)",
            Some(21.0),
            full_fp,
            "us",
        ),
        Row::new("partial context switch", Some(3.0), partial, "us"),
        Row::new(
            "block thread (unlink from ready queue)",
            Some(4.0),
            block_m.us,
            "us",
        ),
        Row::new(
            "unblock thread (insert at front)",
            Some(4.0),
            unblock.us,
            "us",
        ),
    ]
}
