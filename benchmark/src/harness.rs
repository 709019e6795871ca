//! What every workload shares: the kernel configuration, the counters
//! differenced around a timed section, the trace accumulator, and the
//! record one repetition returns.

use std::collections::BTreeMap;
use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand, Size};
use quamachine::machine::RunExit;
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::monitor;
use synthesis_core::syscall::{general, traps};
use synthesis_core::trace::{Kind, TraceQuery};
use synthesis_unix::abi;
use synthesis_unix::emu::UnixEmulator;

use crate::spans::{Level, Tracer};

/// The `kcall` selector the runner's guest programs execute at a phase
/// boundary. Neither the kernel nor the emulator owns it, so `run`
/// hands it back to the runner at an exact instruction boundary.
pub const MARK: u16 = 0x60;

/// Guest cycles per `run` call. The same slicing is used traced and
/// untraced, so both see the identical guest execution; the traced run
/// drains the per-thread trace rings (1024 records) at each boundary.
pub const SLICE: u64 = 50_000;

/// Cycle budget for "run until the next mark": far more than any section.
const FOREVER: u64 = 1 << 44;

/// The one kernel configuration the benchmark measures.
pub fn config(cpus: usize) -> KernelConfig {
    KernelConfig {
        cpus,
        ..synthesis_bench::measurement_config()
    }
}

/// What one repetition is told.
pub struct Ctx {
    pub seed: u64,
    pub tr: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, level: Level) -> Ctx {
        Ctx {
            seed,
            tr: Tracer::new(level),
        }
    }

    /// Whether kernel event tracing and the instruction trace are on.
    pub fn traced(&self) -> bool {
        self.tr.full()
    }

    /// Apply the repetition's tracing mode to a freshly booted kernel.
    pub fn arm(&self, k: &mut Kernel) {
        k.trace.enabled = self.traced();
        k.m.meter.tracing = self.traced();
    }
}

/// Public counters of every layer, read from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Guest time on the active CPU's clock. On a multiprocessor the
    /// timed section starts and ends on the CPU a watched thread exited
    /// on; the furthest clock would be an idle CPU's, which leaps a whole
    /// quantum ahead to its next timer event.
    pub cycles: u64,
    pub instrs: u64,
    pub exceptions: u64,
    pub synthesized: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub synth_cycles: u64,
    pub bytes_installed: u64,
    pub instrs_eliminated: u64,
}

impl Counters {
    pub fn read(k: &Kernel) -> Counters {
        let m = k.m.meter.snapshot();
        let s = &k.creator.stats;
        Counters {
            cycles: m.cycles,
            instrs: m.instr_count,
            exceptions: m.exception_count,
            synthesized: s.synthesized,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            synth_cycles: s.cycles,
            bytes_installed: s.bytes_installed,
            instrs_eliminated: s.instrs_eliminated,
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            cycles: self.cycles - before.cycles,
            instrs: self.instrs - before.instrs,
            exceptions: self.exceptions - before.exceptions,
            synthesized: self.synthesized - before.synthesized,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            synth_cycles: self.synth_cycles - before.synth_cycles,
            bytes_installed: self.bytes_installed - before.bytes_installed,
            instrs_eliminated: self.instrs_eliminated - before.instrs_eliminated,
        }
    }
}

/// Kernel state at the end of the timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndState {
    pub resident_bytes: u64,
    pub warm_bytes: u64,
    pub code_in_use: u32,
    pub heap_in_use: u32,
    pub heap_high_water: u32,
    pub heap_leak: i64,
    pub steals: u64,
    pub offloads: u64,
    pub busy_cycles: u64,
    pub idle_cycles: u64,
}

impl EndState {
    pub fn read(k: &Kernel, heap_before: u32) -> EndState {
        let size = monitor::size_report(k);
        EndState {
            resident_bytes: k.creator.cache.resident_bytes(),
            warm_bytes: k.creator.cache.warm_bytes(),
            code_in_use: k.creator.codebuf.in_use,
            heap_in_use: size.heap_in_use,
            heap_high_water: size.heap_high_water,
            heap_leak: i64::from(size.heap_in_use) - i64::from(heap_before),
            steals: k.cpus.iter().map(|c| c.steals).sum(),
            offloads: k.cpus.iter().map(|c| c.offloads).sum(),
            busy_cycles: k.cpus.iter().map(|c| c.busy_cycles).sum(),
            idle_cycles: k.cpus.iter().map(|c| c.idle_cycles).sum(),
        }
    }
}

/// Kernel trace events of one traced repetition's timed section.
#[derive(Debug, Default)]
pub struct TraceAcc {
    pub ctx_switches: u64,
    pub syscalls: u64,
    pub irqs: u64,
    pub queue_puts: u64,
    pub queue_gets: u64,
    pub records: u64,
    pub dropped: u64,
    /// Enter→exit cycles of each completed syscall.
    pub syscall_cycles: Vec<f64>,
    /// Quantum interrupt → next guest dispatch, in cycles, per CPU.
    pub dispatch_cycles: Vec<f64>,
    pending_quantum: [Option<u64>; 8],
}

impl TraceAcc {
    /// Distil and empty the kernel's trace rings. Called at every slice
    /// boundary of a traced timed section, so no ring wraps.
    pub fn drain(&mut self, k: &mut Kernel) {
        let report = monitor::trace_report(k);
        for t in &report.threads {
            self.ctx_switches += t.ctx_switches;
            self.syscalls += t.syscalls;
            self.irqs += t.irqs;
            self.queue_puts += t.queue_puts;
            self.queue_gets += t.queue_gets;
        }
        self.records += report.records as u64;
        self.dropped = report.dropped;
        for r in TraceQuery::drain(k).records() {
            let cpu = usize::from(r.flags).min(7);
            match r.kind {
                Kind::SyscallExit => self.syscall_cycles.push(f64::from(r.b)),
                Kind::Irq if r.a == u32::from(irq_levels::QUANTUM) => {
                    self.pending_quantum[cpu] = Some(r.cycle);
                }
                // Guest dispatches only (`a == 0`); host-side enters are
                // kernel surgery, not the executable ready chain.
                Kind::CtxSwitch if r.a == 0 => {
                    if let Some(c0) = self.pending_quantum[cpu].take() {
                        self.dispatch_cycles.push(r.cycle.saturating_sub(c0) as f64);
                    }
                }
                _ => {}
            }
        }
    }

    /// Forget the warm-up's events; the timed section starts clean.
    pub fn reset(&mut self, k: &mut Kernel) {
        self.drain(k);
        *self = TraceAcc::default();
    }
}

/// One part of a timed section with its own guest clock (the three
/// phases of `pipe_bulk`).
#[derive(Debug, Clone)]
pub struct Section {
    pub name: &'static str,
    pub ops: u64,
    pub guest_us: f64,
}

/// Cuts a timed section into consecutive slices of host time. The guest
/// is deterministic, so slice `k` of every repetition of a seed does the
/// same work: the run's noise floor is the sum over `k` of the fastest
/// slice `k` any repetition saw.
#[derive(Debug, Default)]
pub struct SliceClock {
    last: Option<Instant>,
    /// Host ns of each finished slice.
    pub ns: Vec<f64>,
}

impl SliceClock {
    /// Begin the timed section.
    pub fn start(&mut self) {
        self.last = Some(Instant::now());
    }

    /// End a slice; the next one begins at the same instant, so the
    /// slices add up to the wall-clock of the whole section.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            self.ns.push((now - last).as_nanos() as f64);
        }
    }

    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<f64>() / 1e9
    }
}

/// What one repetition of one workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// The timed section, slice by slice; its wall-clock is their sum.
    pub clock: SliceClock,
    pub ops: u64,
    pub failed: u64,
    /// Why ops failed (empty when none did).
    pub failures: Vec<String>,
    pub delta: Counters,
    pub guest_us: f64,
    pub end: EndState,
    /// Host seconds inside `run` calls of the timed section.
    pub run_host_s: f64,
    pub sections: Vec<Section>,
    /// Per-call samples of a `Full` repetition, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub trace: TraceAcc,
}

impl Rep {
    /// Wall-clock of the timed section.
    pub fn timed_s(&self) -> f64 {
        self.clock.total_s()
    }

    /// Begin the timed section: the counters to difference against.
    pub fn start_timed(&mut self, k: &Kernel) -> Counters {
        let before = Counters::read(k);
        self.clock.start();
        before
    }

    /// End the timed section: close the last slice and read every
    /// layer's counters and end state. `heap_before` is the heap level
    /// the section must return to.
    pub fn finish_timed(&mut self, k: &Kernel, before: &Counters, heap_before: u32) {
        self.clock.tick();
        self.delta = Counters::read(k).since(before);
        self.guest_us = k.m.cost.cycles_to_us(self.delta.cycles);
        self.end = EndState::read(k, heap_before);
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.ops);
        self.failures.push(why);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }
}

/// Something `run` can be called on in slices: the native kernel or the
/// UNIX emulator wrapped around it.
pub trait Runner {
    fn run_slice(&mut self, cycles: u64) -> RunExit;
    fn kernel(&mut self) -> &mut Kernel;
}

impl Runner for Kernel {
    fn run_slice(&mut self, cycles: u64) -> RunExit {
        self.run(cycles)
    }
    fn kernel(&mut self) -> &mut Kernel {
        self
    }
}

impl Runner for UnixEmulator {
    fn run_slice(&mut self, cycles: u64) -> RunExit {
        self.run(cycles)
    }
    fn kernel(&mut self) -> &mut Kernel {
        &mut self.k
    }
}

/// The repetition a timed `run` belongs to: each slice boundary ends a
/// slice of its clock, and drains the trace rings when it is traced.
pub struct Watch<'a> {
    pub rep: &'a mut Rep,
    pub traced: bool,
}

impl Watch<'_> {
    /// A `run` call of the timed section returned.
    pub fn slice_done(&mut self, k: &mut Kernel) {
        if self.traced {
            self.rep.trace.drain(k);
        }
        self.rep.clock.tick();
        self.rep.run_host_s += self.rep.clock.ns.last().copied().unwrap_or(0.0) / 1e9;
    }
}

/// Run the guest until its next [`MARK`], in [`SLICE`]s.
pub fn run_to_mark(r: &mut impl Runner, mut watch: Option<Watch>) -> Result<(), String> {
    let mut budget = FOREVER;
    loop {
        let exit = r.run_slice(SLICE);
        if let Some(w) = watch.as_mut() {
            w.slice_done(r.kernel());
        }
        match exit {
            RunExit::KCall(MARK) => return Ok(()),
            RunExit::CycleLimit if budget > SLICE => budget -= SLICE,
            other => return Err(format!("guest stopped before its mark: {other:?}")),
        }
    }
}

/// Run until every thread in `tids` has exited. Not sliced: on a
/// multiprocessor, `run` budgets shorter than the 50 ms measurement
/// quantum can starve every CPU but an idle one (the idle CPU's clock
/// leaps to its next timer event and the catch-up at the next `run` drags
/// the others past their deadlines). A traced repetition drains the
/// rings after each thread's exit only, so the kernel needs rings that
/// hold a whole run (see `smp_mix`).
pub fn run_until_all_exit(
    k: &mut Kernel,
    tids: &[u32],
    mut watch: Option<Watch>,
) -> Result<(), String> {
    while let Some(&tid) = tids.iter().find(|t| !k.exited.contains(t)) {
        let exited = k.run_until_exit(tid, FOREVER);
        if let Some(w) = watch.as_mut() {
            w.slice_done(k);
        }
        if !exited {
            return Err(format!("thread {tid} never exited"));
        }
    }
    Ok(())
}

/// `exit` through the native general trap, and a branch-to-self the
/// verifier accepts as the end of the program.
pub fn emit_native_exit(a: &mut Asm) {
    a.move_i(Size::L, general::EXIT, Operand::Dr(0));
    a.trap(traps::GENERAL);
    let dead = a.here();
    a.bcc(Cond::T, dead);
}

/// `exit(0)` through the UNIX trap ABI.
pub fn emit_unix_exit(a: &mut Asm) {
    a.move_i(Size::L, abi::SYS_EXIT, Operand::Dr(0));
    a.move_i(Size::L, 0, Operand::Dr(1));
    a.trap(abi::UNIX_TRAP);
    let dead = a.here();
    a.bcc(Cond::T, dead);
}

/// Seeded payload bytes.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut r = crate::stats::SplitMix64(seed ^ 0x5059_4C44);
    (0..len).map(|_| (r.next() >> 56) as u8).collect()
}
