//! The census: every instruction form the Quamachine declares, and every
//! piece of the kernels' own code — each `kcall` selector, each template
//! of a booted kernel's library, each block the boots load — is executed
//! by a measured row, or is named with the reason why not.
//!
//! One run of every Tables 1–5 row is traced. Table 1's seven programs run
//! at their rows' iteration counts on both kernels, the SunOS baseline and
//! Synthesis, in slices short enough that the meter's trace ring never
//! wraps, and the ring is drained after each slice. Tables 2–5 run through
//! `bench::path`, whose probe keeps every path it timed. Two forms run only
//! where a CPU has nothing to run or another CPU interrupts it: `stop`, the
//! idle thread's, which each Table 1 program's CPU reaches one slice after
//! the program exits; and `move #..,sr`, the reschedule IPI's entry, which
//! needs a second CPU — so BENCH_6's 4-CPU mixed workload is traced too,
//! for its [`RUN_CYCLES`], in slices. No row blocks on a pipe, so the
//! benchmark's `pipe_pingpong` (`programs::pingpong`) is traced for
//! [`TRIPS`] round trips. Every slice's records, and every probe slice's,
//! must equal `instr_count`'s delta, so a lost record fails the census
//! instead of hiding a form; and each record is named by the block it ran
//! in when its slice ends, before the block can be unloaded, so none is
//! left unlocated.
//!
//! The declared sets are read where they are declared:
//!
//! - forms: the `Instr` variants and `ShiftKind`s of `isa/instr.rs`, the
//!   way `tools/loc.sh` counts them. `Cond` is not censused: `Bcc` is its
//!   one consumer, and `Cond::negate` must stay closed over all sixteen;
//! - selectors: every `u16` constant of `syscall::kcalls`, of `unix::abi`
//!   and of the SunOS baseline's `build.rs` (its pipe assist);
//! - templates: the library of a booted kernel under the UNIX emulator.
//!   A template counts as executed when a block of its name runs, and so
//!   does each body collapsed into it (a fused wrapper's `~rts` callee);
//! - blocks: what `Kernel::boot`, a fused program's spawn (the emulator's
//!   fusion install) and `Sunos::boot` leave in code memory, the programs
//!   themselves aside.
//!
//! An item that no source executes must be on [`NOT_RUN`] (forms on
//! [`NOT_EXECUTED`]), whose reason names the test or example that runs
//! it; a listed item that a source executes, or that is no longer
//! declared, fails the census too.
//!
//! `cargo test -p synthesis-bench --release --test census -- --nocapture`
//! prints the per-form, per-selector and per-block counts by source.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use quamachine::asm::Asm;
use quamachine::code::CodeMem;
use quamachine::isa::{Instr, ShiftKind, Size::L};
use quamachine::machine::{Machine, RunExit};
use quamachine::mem::AddressMap;
use quamachine::trace::TraceRecord;
use synthesis_bench::path::{block_names, Blocks, Probe};
use synthesis_bench::smp::{self, RUN_CYCLES};
use synthesis_bench::{measurement_config, table1, table2, table3, table4, table5};
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_unix::emu::UnixEmulator;
use synthesis_unix::programs::pingpong;
use synthesis_unix::sunos::Sunos;

/// The forms no measured row executes, each with its reason.
const NOT_EXECUTED: [(&str, &str); 2] = [
    (
        "Cas",
        "the guest queues of Figures 1-2 use it, and no measured row sends \
         traffic through them (only `open_stream`'s tests do)",
    ),
    (
        "Eor",
        "only the benchmark's `bare_step_ns_alu` probe executes it, outside \
         the tables",
    ),
];

/// The selectors, templates and blocks no source executes, each with the
/// test or example that does.
const NOT_RUN: [(&str, &str); 34] = [
    // Error paths: safety code.
    (
        "ebadf",
        "crates/core/tests/kernel_tests.rs bad_fd_returns_ebadf_via_shared_stub",
    ),
    (
        "trap_error",
        "crates/core/tests/kernel_tests.rs error_trap_default_handler_exits_thread",
    ),
    (
        "user_exit_stub",
        "crates/core/tests/kernel_tests.rs error_trap_default_handler_exits_thread",
    ),
    (
        "irq_spurious",
        "the fault plan's spurious interrupts: tests/fault_soak.rs \
         pipe_pipeline_soaks_across_seeds",
    ),
    (
        "trap_fp_unavail",
        "crates/core/tests/kernel_tests.rs lazy_fp_resynthesis_on_first_fp_instruction \
         (Table 4's FP threads take it outside their timed paths)",
    ),
    (
        "u_ret_ebadf",
        "crates/unix/tests/table1_programs.rs \
         a_wrong_way_pipe_call_is_ebadf_on_both_kernels",
    ),
    (
        "u_panic",
        "crates/unix/tests/table1_programs.rs an_unclaimed_trap_panics_the_baseline",
    ),
    (
        "u_badcall",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "unix_trap_shim_r",
        "the read site of a wrong-way pipe end: crates/unix/tests/table1_programs.rs \
         a_wrong_way_pipe_call_is_ebadf_on_both_kernels",
    ),
    (
        "unix_trap_shim_w",
        "the write site of a shared pipe: crates/unix/tests/fused_equivalence.rs \
         one_reader_and_one_writer_in_two_threads_is_not_solo",
    ),
    // Lazy FP.
    (
        "FP_RESYNTH",
        "crates/core/tests/kernel_tests.rs lazy_fp_resynthesis_on_first_fp_instruction",
    ),
    // The tty.
    (
        "WAIT_TTY",
        "crates/core/tests/kernel_tests.rs tty_read_blocks_until_typed_input",
    ),
    (
        "WAKE_TTY",
        "crates/core/tests/kernel_tests.rs tty_read_blocks_until_typed_input",
    ),
    (
        "read_tty",
        "crates/core/tests/kernel_tests.rs tty_read_blocks_until_typed_input",
    ),
    (
        "cooked_read",
        "examples/cooked_tty.rs; crates/unix/tests/table1_programs.rs \
         a_fused_programs_tty_reads_wait_for_typed_input_raw_and_cooked",
    ),
    (
        "fused_read_tty",
        "crates/unix/tests/table1_programs.rs \
         a_fused_programs_tty_reads_wait_for_typed_input_raw_and_cooked",
    ),
    (
        "read_tty~rts",
        "collapsed into fused_read_tty: crates/unix/tests/table1_programs.rs \
         a_fused_programs_tty_reads_wait_for_typed_input_raw_and_cooked",
    ),
    (
        "write_tty",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "u_tty_write",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    // Pipe-space waits.
    (
        "WAIT_PIPE_SPACE",
        "crates/core/tests/kernel_tests.rs \
         a_write_that_does_not_fit_blocks_until_the_reader_makes_room",
    ),
    (
        "WAKE_PIPE_SPACE",
        "crates/core/tests/kernel_tests.rs \
         a_write_that_does_not_fit_blocks_until_the_reader_makes_room",
    ),
    // /dev/null and the file write.
    (
        "fused_read_null",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "read_null~rts",
        "collapsed into fused_read_null: crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "fused_write_null",
        "tests/open_close_leak.rs fused_open_write_close_churn_leaks_nothing",
    ),
    (
        "write_null~rts",
        "collapsed into fused_write_null: tests/open_close_leak.rs \
         fused_open_write_close_churn_leaks_nothing",
    ),
    (
        "u_null_read",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "u_null_write",
        "crates/unix/tests/table1_programs.rs \
         device_calls_agree_on_both_kernels_and_an_unknown_call_is_einval",
    ),
    (
        "write_file",
        "the layered file write: tests/end_to_end.rs full_stack_file_roundtrip",
    ),
    // The guest queues of Figures 1-2.
    (
        "q_spsc_put",
        "open_stream: crates/core/tests/channel_tests.rs \
         spsc_stream_round_trips_data_through_synthesized_code",
    ),
    (
        "q_spsc_get",
        "open_stream: crates/core/tests/channel_tests.rs \
         spsc_stream_round_trips_data_through_synthesized_code",
    ),
    (
        "q_mpsc_put",
        "crates/core/src/templates/queue.rs tests::mpsc_fifo_and_boundaries",
    ),
    (
        "q_mpsc_get",
        "crates/core/src/templates/queue.rs tests::mpsc_fifo_and_boundaries",
    ),
    // The A/D handler at a queue element's end (Table 5 times one
    // interrupt, never an element's last).
    (
        "AD_ADVANCE",
        "crates/core/tests/ad_handlers.rs \
         eight_audio_interrupts_walk_the_slot_handlers_to_the_advance_call",
    ),
    (
        "irq_ad_last",
        "crates/core/tests/ad_handlers.rs \
         eight_audio_interrupts_walk_the_slot_handlers_to_the_advance_call",
    ),
];

/// Cycles per traced slice of a Table 1, SMP or pingpong run: at two or
/// more cycles per instruction that does not leave `run`, far fewer
/// instructions than the ring holds, even with every CPU of an SMP kernel
/// running.
const SLICE: u64 = 1_000;

/// The round trips of the traced `pipe_pingpong`.
const TRIPS: u32 = 4;

/// The sources, in report order.
const SOURCES: [&str; 8] = [
    "T1 SunOS", "T1 Synth", "Table 2", "Table 3", "Table 4", "Table 5", "SMP x4", "Pingpong",
];

/// The executed records of one source, counted by form, by block and by
/// `kcall` selector.
#[derive(Default)]
struct Tally {
    instrs: HashMap<Discriminant<Instr>, (Instr, u64)>,
    kinds: HashMap<ShiftKind, u64>,
    blocks: HashMap<Arc<str>, u64>,
    kcalls: HashMap<u16, u64>,
    /// Records that no loaded block held when their slice ended.
    unlocated: u64,
}

impl Tally {
    /// Count `records`, each named by its entry of `blocks`.
    fn add(&mut self, records: &[TraceRecord], blocks: &[Option<Arc<str>>]) {
        for (r, block) in records.iter().zip(blocks) {
            self.instrs
                .entry(discriminant(&r.instr))
                .or_insert((r.instr, 0))
                .1 += 1;
            match r.instr {
                Instr::Shift(kind, ..) => *self.kinds.entry(kind).or_default() += 1,
                Instr::KCall(sel) => *self.kcalls.entry(sel).or_default() += 1,
                _ => {}
            }
            match block {
                Some(name) => *self.blocks.entry(Arc::clone(name)).or_default() += 1,
                None => self.unlocated += 1,
            }
        }
    }

    /// Counts by variant name: `Instr` variants, then `ShiftKind`s.
    fn by_name(&self) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
        let instrs = self.instrs.values().map(|(i, n)| (name(i), *n)).collect();
        let kinds = self.kinds.iter().map(|(k, n)| (name(k), *n)).collect();
        (instrs, kinds)
    }
}

/// The identifier `text` starts with.
fn ident(text: &str) -> &str {
    let end = text.find(|c: char| !c.is_ascii_alphanumeric());
    &text[..end.unwrap_or(text.len())]
}

/// A value's variant name, from its `Debug` text.
fn name(v: &impl std::fmt::Debug) -> String {
    ident(&format!("{v:?}")).to_owned()
}

/// The text of `src` from `head` to the first `end` after it.
fn body<'a>(src: &'a str, head: &str, end: &str) -> &'a str {
    let body = src.split_once(head).expect("the item is declared").1;
    &body[..body.find(end).expect("the item ends")]
}

/// The variants of `pub enum {ty}`, as `isa/instr.rs` declares them: the
/// lines of its body indented once that start with a capital.
fn declared(ty: &str) -> BTreeSet<String> {
    let src = include_str!("../../quamachine/src/isa/instr.rs");
    body(src, &format!("pub enum {ty} {{\n"), "\n}")
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| ident(l).to_owned())
        .collect()
}

/// The `kcall` selectors, by value: every `[pub ]const NAME: u16 = 0x..;`
/// of `syscall::kcalls`, `unix::abi` and the SunOS baseline's builder.
fn selectors() -> BTreeMap<u16, String> {
    let kcalls = body(
        include_str!("../../core/src/syscall.rs"),
        "pub mod kcalls {\n",
        "\n}",
    );
    let abi = include_str!("../../unix/src/abi.rs");
    let sunos = include_str!("../../unix/src/sunos/build.rs");
    let mut by_value = BTreeMap::new();
    for line in [kcalls, abi, sunos].iter().flat_map(|s| s.lines()) {
        let line = line.trim_start();
        let Some(decl) = line
            .strip_prefix("pub const ")
            .or(line.strip_prefix("const "))
        else {
            continue;
        };
        let Some((name, value)) = decl.split_once(": u16 = 0x") else {
            continue;
        };
        let value = value.strip_suffix(';').expect("one constant a line");
        let value = u16::from_str_radix(value, 16).expect("a hex selector");
        let dup = by_value.insert(value, name.to_owned());
        assert!(dup.is_none(), "selector {value:#x} is declared twice");
    }
    by_value
}

/// The names of the blocks in `code`.
fn names(code: &CodeMem) -> BTreeSet<String> {
    code.iter().map(|(_, b)| b.name.to_string()).collect()
}

/// What the boots load: `Kernel::boot`'s blocks, those a fused program's
/// spawn adds (the emulator's fusion install and the program's thread),
/// and `Sunos::boot`'s — the program aside.
fn boot_blocks() -> BTreeSet<String> {
    let cfg = KernelConfig {
        cpus: 1,
        ..measurement_config()
    };
    let mut emu = UnixEmulator::new(Kernel::boot(cfg).expect("boots"));
    let mut blocks = names(&emu.k.m.code);
    let program = Asm::new("census_program");
    let flat = AddressMap::single(1, 0, emu.k.m.mem.size());
    emu.spawn(program, flat).expect("a fused program spawns");
    blocks.extend(names(&emu.k.m.code));
    blocks.remove("census_program");
    blocks.extend(names(&Sunos::boot().m.code));
    blocks
}

/// Drain the ring of `m` into `t`, naming each record's block from `m`'s
/// code memory, else from `start`'s; the records must be every
/// instruction executed since `n0`. Leaves `start` at `m`'s blocks, the
/// next slice's start.
fn drain(m: &mut Machine, n0: u64, start: &mut Blocks, t: &mut Tally) {
    let records = m.meter.trace();
    m.meter.clear_trace();
    assert_eq!(
        records.len() as u64,
        m.meter.instr_count - n0,
        "the ring kept the slice"
    );
    let end = Blocks::of(&m.code);
    t.add(&records, &block_names(start, &end, &records));
    *start = end;
}

/// One run of each Table 1 program on the baseline, traced slice by slice.
fn table1_sunos(t: &mut Tally) {
    for p in table1::programs() {
        let (mut s, entry) = p.on_sunos(p.n);
        s.m.meter.tracing = true;
        let mut start = Blocks::of(&s.m.code);
        let mut n0 = s.m.meter.instr_count;
        let mut exit = s.run_program(entry, SLICE);
        loop {
            drain(&mut s.m, n0, &mut start, t);
            match exit {
                RunExit::CycleLimit => {}
                RunExit::Halted => break,
                other => panic!("{}: the baseline stopped with {other:?}", p.name),
            }
            n0 = s.m.meter.instr_count;
            exit = s.run(SLICE);
        }
    }
}

/// One run of each Table 1 program on Synthesis, traced slice by slice: to
/// its exit, and one slice on, in which its CPU idles.
fn table1_synthesis(t: &mut Tally) {
    for p in table1::programs() {
        let (mut emu, tid) = p.on_synthesis(p.n);
        emu.k.m.meter.tracing = true;
        let mut start = Blocks::of(&emu.k.m.code);
        for slice in 0.. {
            assert!(slice < 100_000_000, "{}: the program exits", p.name);
            let n0 = emu.k.m.meter.instr_count;
            let exited = emu.run_until_exit(tid, SLICE);
            drain(&mut emu.k.m, n0, &mut start, t);
            if exited {
                break;
            }
        }
        let n0 = emu.k.m.meter.instr_count;
        emu.run(SLICE);
        drain(&mut emu.k.m, n0, &mut start, t);
    }
}

/// BENCH_6's 4-CPU point: the mixed workload for [`RUN_CYCLES`].
fn smp_mix(t: &mut Tally) {
    let mut k = smp::mixed_workload(4);
    k.m.meter.tracing = true;
    let mut start = Blocks::of(&k.m.code);
    for _ in 0..RUN_CYCLES / SLICE {
        let n0 = k.m.meter.instr_count;
        k.run(SLICE);
        drain(&mut k.m, n0, &mut start, t);
    }
}

/// `pipe_pingpong` as the benchmark boots it, for one pass of [`TRIPS`]
/// round trips, until both threads exit.
fn pipe_pingpong(t: &mut Tally) {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..measurement_config()
    })
    .expect("boots");
    let [ta, tb] = pingpong::load(&mut k, TRIPS).expect("the programs load");
    k.m.mem.poke(pingpong::COUNT, L, TRIPS);
    k.m.mem.poke(pingpong::DONE, L, 1);
    k.start(ta).unwrap();
    k.start(tb).unwrap();
    k.m.meter.tracing = true;
    let mut start = Blocks::of(&k.m.code);
    for slice in 0.. {
        assert!(slice < 10_000, "both threads exit");
        if k.exited.contains(&ta) && k.exited.contains(&tb) {
            break;
        }
        let n0 = k.m.meter.instr_count;
        match k.run(SLICE) {
            RunExit::CycleLimit | RunExit::KCall(pingpong::MARK) => {}
            other => panic!("pipe_pingpong stopped with {other:?}"),
        }
        drain(&mut k.m, n0, &mut start, t);
    }
    let moved = pingpong::TOTALS.map(|at| k.m.mem.peek(at, L));
    assert_eq!(moved, [2 * TRIPS; 2], "every call moved its byte");
}

/// Every path a Table 2–5 run timed.
fn paths(p: &Probe, t: &mut Tally) {
    for path in p.paths() {
        t.add(path.records(), path.blocks());
    }
}

/// Print one count per source for each row.
fn print_table(title: &str, rows: &BTreeMap<String, [u64; 8]>) {
    let width = rows
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max(title.len())
        + 2;
    println!(
        "{title:<width$}{}",
        SOURCES.map(|s| format!("{s:>10}")).concat()
    );
    for (row, counts) in rows {
        println!(
            "{row:<width$}{}",
            counts.map(|n| format!("{n:>10}")).concat()
        );
    }
}

/// What `tallies` executed of one declared set, by name: per-source counts.
fn rows_of<'a>(
    tallies: &'a [Tally; 8],
    counts: impl Fn(&'a Tally) -> Vec<(String, u64)>,
) -> BTreeMap<String, [u64; 8]> {
    let mut rows: BTreeMap<String, [u64; 8]> = BTreeMap::new();
    for (s, t) in tallies.iter().enumerate() {
        for (row, n) in counts(t) {
            rows.entry(row).or_default()[s] += n;
        }
    }
    rows
}

#[test]
fn every_declared_form_and_kernel_item_is_executed_by_a_row_or_named() {
    let mut tallies: [Tally; 8] = Default::default();
    let [sun, syn, t2, t3, t4, t5, mix, pong] = &mut tallies;
    table1_sunos(sun);
    table1_synthesis(syn);
    let mut p = table2::probe();
    table2::run_on(&mut p);
    paths(&p, t2);
    for (run, t) in [
        (table3::run_on as fn(&mut Probe) -> _, t3),
        (table4::run_on, t4),
        (table5::run_on, t5),
    ] {
        let mut p = Probe::boot();
        run(&mut p);
        paths(&p, t);
    }
    smp_mix(mix);
    pipe_pingpong(pong);

    let unlocated: Vec<_> = tallies.iter().map(|t| t.unlocated).collect();
    assert!(
        unlocated.iter().all(|&n| n == 0),
        "records no block held when their slice ended, by source: {unlocated:?}"
    );

    // Forms.
    let forms_run = rows_of(&tallies, |t| {
        let (instrs, kinds) = t.by_name();
        let kinds = kinds.into_iter().map(|(k, n)| (format!("Shift {k}"), n));
        instrs.into_iter().chain(kinds).collect()
    });
    print_table("form", &forms_run);
    let ran: BTreeSet<String> = forms_run.keys().cloned().collect();
    let ran_kinds: BTreeSet<String> = ran
        .iter()
        .filter_map(|f| f.strip_prefix("Shift "))
        .map(str::to_owned)
        .collect();

    let (forms, kinds) = (declared("Instr"), declared("ShiftKind"));
    let listed: BTreeSet<String> = NOT_EXECUTED.iter().map(|(f, _)| (*f).to_owned()).collect();
    let never: Vec<_> = forms
        .difference(&ran)
        .filter(|f| !listed.contains(*f))
        .chain(kinds.difference(&ran_kinds))
        .collect();
    assert!(
        never.is_empty(),
        "{} declared forms execute in no row; delete them or name them in NOT_EXECUTED: {never:?}",
        never.len()
    );
    let stale: Vec<_> = listed
        .iter()
        .filter(|f| !forms.contains(*f) || ran.contains(*f))
        .collect();
    assert!(
        stale.is_empty(),
        "NOT_EXECUTED names forms that are undeclared or executed: {stale:?}"
    );
    println!(
        "{} Instr variants ({} named as not executed), {} ShiftKinds",
        forms.len(),
        listed.len(),
        kinds.len()
    );

    // Selectors, templates and blocks.
    let selectors = selectors();
    let selectors_run = rows_of(&tallies, |t| {
        let declared = t.kcalls.iter().filter_map(|(sel, n)| {
            selectors
                .get(sel)
                .map(|name| (format!("{name} {sel:#04x}"), *n))
        });
        declared.collect()
    });
    print_table("selector", &selectors_run);
    let blocks_run = rows_of(&tallies, |t| {
        t.blocks.iter().map(|(b, n)| (b.to_string(), *n)).collect()
    });
    print_table("block", &blocks_run);

    let probe = Probe::boot();
    let lib = &probe.emu.k.creator.lib;
    let templates: BTreeSet<String> = lib.templates().map(|t| t.name.to_string()).collect();
    let blocks = boot_blocks();
    let ran_selectors: BTreeSet<String> = tallies
        .iter()
        .flat_map(|t| t.kcalls.keys())
        .filter_map(|sel| selectors.get(sel).cloned())
        .collect();
    let ran_blocks: BTreeSet<String> = blocks_run.keys().cloned().collect();
    let mut ran_templates: BTreeSet<String> =
        templates.intersection(&ran_blocks).cloned().collect();
    let collapsed: Vec<String> = ran_templates
        .iter()
        .flat_map(|t| lib.get(t).expect("in the library").call_sites())
        .map(|(_, callee)| callee)
        .collect();
    ran_templates.extend(collapsed);

    let sets: [(&str, BTreeSet<String>, &BTreeSet<String>); 3] = [
        (
            "selectors",
            selectors.values().cloned().collect(),
            &ran_selectors,
        ),
        ("templates", templates, &ran_templates),
        ("blocks", blocks, &ran_blocks),
    ];
    let listed: BTreeMap<&str, &str> = NOT_RUN.iter().copied().collect();
    assert_eq!(listed.len(), NOT_RUN.len(), "NOT_RUN names an item twice");
    let mut never = Vec::new();
    for (set, declared, ran) in &sets {
        let not_run: Vec<_> = declared.difference(ran).collect();
        println!(
            "{set}: {} declared, {} executed, {} named as not executed",
            declared.len(),
            declared.len() - not_run.len(),
            not_run.len()
        );
        never.extend(
            not_run
                .into_iter()
                .filter(|i| !listed.contains_key(i.as_str())),
        );
    }
    assert!(
        never.is_empty(),
        "{} declared selectors, templates or blocks execute in no source; \
         delete them or name them in NOT_RUN: {never:?}",
        never.len()
    );
    let stale: Vec<_> = listed
        .keys()
        .filter(|&&item| {
            let mut declaring = sets.iter().filter(|(_, d, _)| d.contains(item)).peekable();
            declaring.peek().is_none() || declaring.all(|(_, _, ran)| ran.contains(item))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "NOT_RUN names items that are undeclared or executed: {stale:?}"
    );
}
