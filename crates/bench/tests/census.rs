//! The instruction census: every instruction form the Quamachine declares
//! is executed by a measured row, or is on [`NOT_EXECUTED`] with the reason
//! why not.
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
//! for its [`RUN_CYCLES`], in slices. Every slice's records, and every
//! probe slice's, must equal `instr_count`'s delta, so a lost record fails
//! the census instead of hiding a form.
//!
//! The `Instr` variants and `ShiftKind`s are read from their declarations
//! in `isa/instr.rs`, the way `tools/loc.sh` counts them, so a form is in
//! the census as soon as it is declared. `Cond` is not censused: `Bcc` is
//! its one consumer, and `Cond::negate` must stay closed over all sixteen.
//!
//! `cargo test -p synthesis-bench --test census -- --nocapture` prints the
//! per-form counts by source.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::{discriminant, Discriminant};

use quamachine::isa::{Instr, ShiftKind};
use quamachine::machine::{Machine, RunExit};
use quamachine::trace::TraceRecord;
use synthesis_bench::path::Probe;
use synthesis_bench::smp::{self, RUN_CYCLES};
use synthesis_bench::{table1, table2, table3, table4, table5};

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

/// Cycles per traced slice of a Table 1 or SMP run: at two or more cycles per
/// instruction that does not leave `run`, far fewer instructions than the
/// ring holds, even with every CPU of an SMP kernel running.
const SLICE: u64 = 1_000;

/// The sources, in report order.
const SOURCES: [&str; 7] = [
    "T1 SunOS", "T1 Synth", "Table 2", "Table 3", "Table 4", "Table 5", "SMP x4",
];

/// The executed records of one source, counted by form.
#[derive(Default)]
struct Tally {
    instrs: HashMap<Discriminant<Instr>, (Instr, u64)>,
    kinds: HashMap<ShiftKind, u64>,
}

impl Tally {
    fn add(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.instrs
                .entry(discriminant(&r.instr))
                .or_insert((r.instr, 0))
                .1 += 1;
            if let Instr::Shift(kind, ..) = r.instr {
                *self.kinds.entry(kind).or_default() += 1;
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

/// The variants of `pub enum {ty}`, as `isa/instr.rs` declares them: the
/// lines of its body indented once that start with a capital.
fn declared(ty: &str) -> BTreeSet<String> {
    let src = include_str!("../../quamachine/src/isa/instr.rs");
    let head = format!("pub enum {ty} {{\n");
    let body = src.split_once(&head).expect("the enum is declared").1;
    let body = &body[..body.find("\n}").expect("the enum ends")];
    body.lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| ident(l).to_owned())
        .collect()
}

/// Drain the ring of `m` into `t`; the records must be every instruction
/// executed since `n0`.
fn drain(m: &mut Machine, n0: u64, t: &mut Tally) {
    let records = m.meter.trace();
    m.meter.clear_trace();
    assert_eq!(
        records.len() as u64,
        m.meter.instr_count - n0,
        "the ring kept the slice"
    );
    t.add(&records);
}

/// One run of each Table 1 program on the baseline, traced slice by slice.
fn table1_sunos(t: &mut Tally) {
    for p in table1::programs() {
        let (mut s, entry) = p.on_sunos(p.n);
        s.m.meter.tracing = true;
        let mut n0 = s.m.meter.instr_count;
        let mut exit = s.run_program(entry, SLICE);
        loop {
            drain(&mut s.m, n0, t);
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
        for slice in 0.. {
            assert!(slice < 100_000_000, "{}: the program exits", p.name);
            let n0 = emu.k.m.meter.instr_count;
            let exited = emu.run_until_exit(tid, SLICE);
            drain(&mut emu.k.m, n0, t);
            if exited {
                break;
            }
        }
        let n0 = emu.k.m.meter.instr_count;
        emu.run(SLICE);
        drain(&mut emu.k.m, n0, t);
    }
}

/// BENCH_6's 4-CPU point: the mixed workload for [`RUN_CYCLES`].
fn smp_mix(t: &mut Tally) {
    let mut k = smp::mixed_workload(4);
    k.m.meter.tracing = true;
    for _ in 0..RUN_CYCLES / SLICE {
        let n0 = k.m.meter.instr_count;
        k.run(SLICE);
        drain(&mut k.m, n0, t);
    }
}

/// Every path a Table 2–5 run timed.
fn paths(p: &Probe, t: &mut Tally) {
    for path in p.paths() {
        t.add(path.records());
    }
}

#[test]
fn every_declared_form_is_executed_by_a_row_or_named() {
    let mut tallies: [Tally; 7] = Default::default();
    let [sun, syn, t2, t3, t4, t5, mix] = &mut tallies;
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

    // Per-form counts, by source.
    let (mut ran, mut ran_kinds) = (BTreeSet::new(), BTreeSet::new());
    let mut rows: BTreeMap<String, [u64; 7]> = BTreeMap::new();
    for (s, t) in tallies.iter().enumerate() {
        let (instrs, kinds) = t.by_name();
        ran.extend(instrs.keys().cloned());
        ran_kinds.extend(kinds.keys().cloned());
        let kinds = kinds.into_iter().map(|(k, n)| (format!("Shift {k}"), n));
        for (form, n) in instrs.into_iter().chain(kinds) {
            rows.entry(form).or_default()[s] += n;
        }
    }
    println!(
        "{:<12}{}",
        "form",
        SOURCES.map(|s| format!("{s:>10}")).concat()
    );
    for (form, counts) in &rows {
        println!("{form:<12}{}", counts.map(|n| format!("{n:>10}")).concat());
    }

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
}
