//! Timing a kernel path by running it: the paper's Section 6.3 method.
//!
//! "Using this trace, we can calculate the exact kernel call times by
//! counting the memory references and each instruction execution time."
//! A [`Probe`] is a booted kernel whose user threads run programs loaded
//! through it, so it knows which code is user code. A path starts under a
//! thread running user code and is counted, off the meter's instruction
//! trace of one run slice, to the first instruction back in user code:
//! [`Probe::time`] raises an interrupt or makes a host call and counts
//! from there; [`Probe::call`] points the running thread at a call
//! sequence and counts from its `trap`. The slice services kernel calls
//! on the path as any run does, the UNIX emulator's included.

use std::ops::Range;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Instr};
use quamachine::mem::AddressMap;
use quamachine::trace::TraceRecord;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::thread::Tid;
use synthesis_unix::emu::UnixEmulator;

/// The slice a timed path runs in: far longer than any path, far shorter
/// than the meter's trace ring holds.
const SLICE: u64 = 4_000;

/// A path as it ran.
#[derive(Debug, Clone)]
pub struct Path {
    /// Cycles from the path's start to the first instruction back in user
    /// code.
    pub cycles: u64,
    /// The instructions executed on the way, then the first one back in
    /// user code, each with the cycle it began at.
    trace: Vec<TraceRecord>,
}

impl Path {
    /// The path from `t0` whose trace ends at `back`, the first instruction
    /// back in user code.
    fn ending(t0: u64, mut trace: Vec<TraceRecord>, back: Option<usize>) -> Path {
        trace.truncate(back.expect("the path returns to user code") + 1);
        let cycles = trace[trace.len() - 1].cycle - t0;
        Path { cycles, trace }
    }

    /// The executed instructions, then the first one back in user code.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// Cycles spent in the executed instructions that `pick` selects.
    #[must_use]
    pub fn cycles_in(&self, pick: impl Fn(&Instr) -> bool) -> u64 {
        let spent = self.trace.windows(2).filter(|w| pick(&w[0].instr));
        spent.map(|w| w[1].cycle - w[0].cycle).sum()
    }
}

/// A booted one-CPU kernel that times paths (the trace of Section 6.3 is
/// one processor's).
pub struct Probe {
    /// The kernel, under the UNIX emulator, which services the emulated
    /// calls of threads [`UnixEmulator::install`]ed on it.
    pub emu: UnixEmulator,
    /// Where the programs loaded through [`Probe::load_spinner`] live.
    user: Vec<Range<u32>>,
    /// Every path timed so far, in order.
    paths: Vec<Path>,
}

impl Probe {
    /// Boot a kernel with the measurement configuration on one CPU.
    #[must_use]
    pub fn boot() -> Probe {
        let cfg = KernelConfig {
            cpus: 1,
            ..crate::measurement_config()
        };
        let k = Kernel::boot(cfg).expect("kernel boots");
        Probe {
            emu: UnixEmulator::new(k),
            user: Vec::new(),
            paths: Vec::new(),
        }
    }

    /// Every path [`Probe::time`] and [`Probe::call`] have timed, in order.
    #[must_use]
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Load a user program of `body` followed by a loop forever; its entry.
    pub fn load_spinner(&mut self, body: impl FnOnce(&mut Asm)) -> u32 {
        let mut a = Asm::new("spin");
        body(&mut a);
        let top = a.here();
        a.bcc(Cond::T, top);
        let block = a.assemble().expect("user program assembles");
        let size = block.size_bytes();
        let base = self
            .emu
            .k
            .load_user_program(block)
            .expect("user program loads");
        self.user.push(base..base + size);
        base
    }

    /// Create a thread at `entry` with a stack of its own, in one user
    /// address map shared by all; it is not started.
    pub fn create(&mut self, entry: u32) -> Tid {
        let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
        let stack = layout::USER_BASE + 0x1000 + 0x800 * self.emu.k.threads.len() as u32;
        self.emu
            .k
            .create_thread(entry, stack, map)
            .expect("thread created")
    }

    fn in_user(&self, pc: u32) -> bool {
        self.user.iter().any(|r| r.contains(&pc))
    }

    /// Time the path `start` begins: from the instruction it interrupts to
    /// the first instruction back in user code that runs after it.
    pub fn time(&mut self, start: impl FnOnce(&mut Kernel)) -> Path {
        let (t0, started, trace) = self.slice(start);
        let back = trace
            .iter()
            .position(|r| r.cycle >= started && self.in_user(r.pc));
        self.keep(Path::ending(t0, trace, back))
    }

    /// Time the kernel call `sequence` makes: load it as a user program,
    /// point the running user thread at it, and count from its `trap` to
    /// the first instruction back in user code.
    pub fn call(&mut self, sequence: impl FnOnce(&mut Asm)) -> Path {
        let entry = self.load_spinner(sequence);
        let (_, _, mut trace) = self.slice(|k| k.m.cpu.pc = entry);
        let is_trap = |r: &TraceRecord| matches!(r.instr, Instr::Trap(_)) && self.in_user(r.pc);
        let trap = trace.iter().position(is_trap).expect("the sequence traps");
        let rest = trace.split_off(trap);
        let back = rest.iter().skip(1).position(|r| self.in_user(r.pc));
        self.keep(Path::ending(rest[0].cycle, rest, back.map(|i| i + 1)))
    }

    fn keep(&mut self, path: Path) -> Path {
        self.paths.push(path.clone());
        path
    }

    /// Run one slice with the meter's instruction trace on, `start` made
    /// first under a running user thread: the cycle `start` was made at,
    /// the cycle it returned at, and the slice's trace.
    fn slice(&mut self, start: impl FnOnce(&mut Kernel)) -> (u64, u64, Vec<TraceRecord>) {
        for _ in 0..100 {
            if self.in_user(self.emu.k.m.cpu.pc) {
                break;
            }
            self.emu.run(SLICE);
        }
        assert!(self.in_user(self.emu.k.m.cpu.pc), "a user thread runs");
        let k = &mut self.emu.k;
        k.m.meter.clear_trace();
        k.m.meter.tracing = true;
        let (t0, n0) = (k.m.meter.cycles, k.m.meter.instr_count);
        start(k);
        let started = k.m.meter.cycles;
        self.emu.run(SLICE);
        let meter = &mut self.emu.k.m.meter;
        meter.tracing = false;
        let trace = meter.trace();
        assert_eq!(
            trace.len() as u64,
            meter.instr_count - n0,
            "the ring kept the slice"
        );
        (t0, started, trace)
    }
}
