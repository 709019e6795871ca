//! A reported figure is a counted run, and counting it another way gives
//! the same figure: Table 4's full switch against a `Machine::step` count
//! of one real quantum expiry, Table 1's steady state against a second
//! iteration count, Table 2's open+close pair against more warm-up pairs,
//! Table 3's calls against the Table 4–5 paths they make plus the
//! general call's own cost, and Table 3's create and destroy against the
//! resident code they execute — the thread block's pop and fill, its
//! push — plus the synthesis and allocation charges. Table 4's counted
//! switches must also land in bands around the paper's figures, Table
//! 2's native open+close must be cheaper than the emulated one, as in
//! the paper, and a kernel call's `kcall` step must charge nothing: a
//! call costs what it executes.

use quamachine::asm::Asm;
use quamachine::cost::CostModel;
use quamachine::isa::{Cond, Instr, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_bench::path::Probe;
use synthesis_bench::table2::{self, Abi};
use synthesis_bench::{table1, table3, table4, table5, Row};
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};
use synthesis_core::templates;

/// The measured value of the row labelled `what`.
fn row(rows: &[Row], what: &str) -> f64 {
    let row = rows.iter().find(|r| r.what == what);
    row.unwrap_or_else(|| panic!("no row {what:?}")).measured
}

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
    while !(user.contains(&k.m.cpu.pc) && k.m.cpu.vbr == k.threads[incoming].vt()) {
        assert_eq!(k.m.step().expect("steps"), None);
    }
    k.m.meter.cycles - at
}

#[test]
fn table4_full_switch_is_one_stepped_quantum_expiry() {
    let stepped = stepped_quantum_expiry();
    let rows = table4::run();
    let full = row(&rows, "full context switch (no FP)");
    let cost = CostModel::sun3_emulation();
    assert_eq!(
        full,
        cost.cycles_to_us(stepped),
        "Table 4 reports {full} µs; stepping counts {stepped} cycles"
    );
}

/// The counted full switch lands near the paper's 11 µs (no FP) and 21 µs
/// (FP). Ours runs a few µs over because it also acknowledges the timer,
/// saves and restores the USP, and reprograms the per-thread quantum —
/// work the paper's figure does not itemize (see EXPERIMENTS.md).
#[test]
fn table4_full_switches_land_in_the_papers_bands() {
    let rows = table4::run();
    for (what, lo, hi) in [
        ("full context switch (no FP)", 9.0, 17.0),
        ("full context switch (FP registers)", 18.0, 30.0),
    ] {
        let us = row(&rows, what);
        assert!(
            (lo..hi).contains(&us),
            "{what} = {us} µs, expected in [{lo}, {hi})"
        );
    }
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

#[test]
fn table2_tty_open_close_is_the_same_after_four_warm_up_pairs() {
    let reported = row(&table2::run().0, "open+close /dev/tty (native)");
    let mut p = table2::probe();
    for _ in 0..4 {
        table2::open_close(&mut p, Abi::Native, table2::DEV_TTY);
    }
    let pair = table2::open_close(&mut p, Abi::Native, table2::DEV_TTY);
    let after_four = CostModel::sun3_emulation().cycles_to_us(pair);
    assert_eq!(
        reported, after_four,
        "the pair still carries the first open's synthesis"
    );
}

#[test]
fn table3_calls_are_the_table4_and_table5_paths_plus_a_general_call() {
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();
    let (gettid, tid) = table3::general_call(&mut p, general::GETTID, 0, 0);
    assert_eq!(tid, caller);
    let call = CostModel::sun3_emulation().cycles_to_us(gettid);

    let (t3, t4, t5) = (table3::run(), table4::run(), table5::run());
    for (thread_op, path, rows) in [
        ("thread stop", "block thread (unlink from ready queue)", &t4),
        ("thread start", "unblock thread (insert at front)", &t4),
        (
            "thread signal (thread to thread)",
            "chain (signal) a thread",
            &t5,
        ),
    ] {
        assert_eq!(
            row(&t3, thread_op) - row(rows, path),
            call,
            "{thread_op} is not {path} plus one general call"
        );
    }
}

#[test]
fn table2_native_open_close_is_cheaper_than_emulated() {
    let rows = table2::run().0;
    for dev in ["/dev/null", "/dev/tty"] {
        let native = row(&rows, &format!("open+close {dev} (native)"));
        let emulated = row(&rows, &format!("open+close {dev} (emulated)"));
        assert!(
            native < emulated,
            "open+close {dev}: native {native} µs, emulated {emulated} µs"
        );
    }
}

#[test]
fn a_kernel_calls_kcall_step_charges_nothing() {
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();
    for (what, call, d1) in [
        ("GETTID", general::GETTID, 0),
        ("SET_ALARM", general::SET_ALARM, 500),
    ] {
        let path = p.call(|a| {
            a.move_i(L, d1, Dr(1));
            a.move_i(L, call, Dr(0));
            a.trap(traps::GENERAL);
        });
        let kcall = path.cycles_in(|i| matches!(i, Instr::KCall(_)));
        assert_eq!(kcall, 0, "{what}'s kcall step charges {kcall} cycles");
    }
}

/// The records of `records` from just after its `kcall` that ran in the
/// resident routines the step calls (the thread fill or the thread-block
/// push, and their return's `halt`), and the `kcall` step's meter delta.
fn kcall_step(records: &[quamachine::trace::TraceRecord]) -> (Vec<Instr>, u64) {
    let kcall = records
        .iter()
        .position(|r| matches!(r.instr, Instr::KCall(_)))
        .expect("the call reaches its kcall");
    let resident = [
        layout::THREAD_INIT..layout::THREAD_INIT + 0x100,
        layout::THREAD_FINI..layout::THREAD_FINI + 0x80,
    ];
    let ran = |r: &&quamachine::trace::TraceRecord| {
        resident.iter().any(|at| at.contains(&r.pc)) || r.pc == layout::HOST_RETURN
    };
    let routines: Vec<_> = records[kcall + 1..]
        .iter()
        .take_while(ran)
        .map(|r| r.instr)
        .collect();
    let after = records[kcall + 1 + routines.len()].cycle;
    (routines, after - records[kcall].cycle)
}

/// The cycles `instrs` cost as they execute (none of them branches).
fn executed(instrs: &[Instr]) -> u64 {
    let cost = CostModel::sun3_emulation();
    instrs
        .iter()
        .map(|i| {
            let (base, refs) = quamachine::cost::instr_cost(i);
            base + refs * cost.bus_cycles()
        })
        .sum()
}

/// Table 3's create is counted to the cycle: its `kcall` step's meter
/// delta is the resident code the step executes (its records in the
/// path's trace) plus what the host still charges — the four syntheses
/// (424 + 160 + 160 + 112 cycles) and one allocation (28) — and nothing
/// else. The probe's fresh kernel has no thread block listed, so the
/// create grows the free list: one fast-fit allocation, the block pushed
/// by `thread_fini`, then popped by the fill. The fill is the paper's
/// "about 100 µs to fill approximately 1 KBytes in the TTE" (Section 6.3),
/// counted.
#[test]
fn table3_create_is_its_fill_plus_synthesis_and_allocation() {
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();
    let victim = p.load_spinner(|_| {});
    let path = p.call(|a| {
        a.move_i(L, victim, Dr(1));
        a.move_i(L, layout::USER_BASE + 0x4000, Dr(2));
        a.move_i(L, general::THREAD_CREATE, Dr(0));
        a.trap(traps::GENERAL);
    });
    let (routines, step) = kcall_step(path.records());
    let fini = templates::thread_init::fini().instrs;
    assert_eq!(
        routines[..=fini.len()],
        [&fini[..], &[Instr::Halt]].concat(),
        "the create grows the list: the push runs first"
    );
    let fill = &routines[fini.len() + 1..];
    assert!(!fill.is_empty(), "the create runs no fill");
    assert_eq!(
        step - executed(&routines),
        856 + 28,
        "the create kcall's charges"
    );
    let us = CostModel::sun3_emulation().cycles_to_us(executed(fill));
    assert!((80.0..120.0).contains(&us), "the 1 KB fill takes {us} µs");
}

/// Table 3's destroy is its push, counted: the `kcall` step's meter delta
/// is exactly the resident `thread_fini` the step executes, putting the
/// thread's block back on the free list, with nothing charged.
#[test]
fn table3_destroy_is_its_push() {
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();
    let entry = p.load_spinner(|_| {});
    let victim = p.create(entry);
    let block = p.emu.k.threads[&victim].tte;
    let path = p.call(|a| {
        a.move_i(L, victim, Dr(1));
        a.move_i(L, general::THREAD_DESTROY, Dr(0));
        a.trap(traps::GENERAL);
    });
    let (routines, step) = kcall_step(path.records());
    let fini = templates::thread_init::fini().instrs;
    assert_eq!(routines, [&fini[..], &[Instr::Halt]].concat(), "the push");
    assert_eq!(step, executed(&routines), "the destroy kcall charges");
    assert_eq!(
        p.emu.k.listed_thread_blocks(),
        [block],
        "the block is listed"
    );
}

/// A create that finds a listed block pops it and charges synthesis
/// alone: no fast-fit allocation, no push.
#[test]
fn table3_create_after_a_destroy_pops_and_charges_synthesis_alone() {
    let mut p = Probe::boot();
    let spin = p.load_spinner(|_| {});
    let caller = p.create(spin);
    p.emu.k.start(caller).unwrap();
    let entry = p.load_spinner(|_| {});
    let gone = p.create(entry);
    let block = p.emu.k.threads[&gone].tte;
    p.emu.k.destroy(gone).unwrap();
    let path = p.call(|a| {
        a.move_i(L, entry, Dr(1));
        a.move_i(L, layout::USER_BASE + 0x4000, Dr(2));
        a.move_i(L, general::THREAD_CREATE, Dr(0));
        a.trap(traps::GENERAL);
    });
    let (routines, step) = kcall_step(path.records());
    let k = &p.emu.k;
    let fill = &k.m.code.block(layout::THREAD_INIT).expect("loaded").instrs;
    assert_eq!(
        routines,
        [&fill[..], &[Instr::Halt]].concat(),
        "the create runs the fill alone"
    );
    assert_eq!(
        step - executed(&routines),
        856,
        "the create kcall's charges"
    );
    let (_, created) = p.emu.k.threads.last_key_value().expect("the new thread");
    assert_eq!(created.tte, block, "the listed block is popped");
    assert!(p.emu.k.listed_thread_blocks().is_empty());
}
