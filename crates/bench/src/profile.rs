//! The trace profiler: a mixed workload run under adaptive scheduling,
//! distilled through the kernel's event trace.
//!
//! Where Tables 1–5 time single calls, this driver answers the Section
//! 4.4 question — *who* is doing I/O, at what rate, and what did the
//! fine-grain scheduler do about it. It boots a kernel, runs an
//! I/O-bound writer, a CPU-bound spinner, and a pipe producer/consumer
//! pair side by side, adapts quanta between windows, and reports
//! [`monitor::trace_report`]'s per-thread event table plus, per thread,
//! the meter the scheduler read — its TTE gauge, and that count's rate
//! over the run — beside the quantum it set.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::monitor::{self, TraceReport};
use synthesis_core::sched::FineGrain;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;
use synthesis_core::thread::Tid;

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;

/// One profiled thread: its role in the workload, the gauge the
/// scheduler read, and where the scheduler left its quantum.
#[derive(Debug, Clone)]
pub struct ProfiledThread {
    /// The thread.
    pub tid: Tid,
    /// Workload role label.
    pub role: &'static str,
    /// The thread's TTE gauge at the end of the run: one count per call
    /// into its synthesized I/O code.
    pub gauge: u32,
    /// `gauge` per millisecond of the run's virtual time.
    pub gauge_per_ms: f64,
    /// CPU quantum after the last adaptation pass, in µs.
    pub quantum_us: u32,
}

/// The profiler's output: the distilled trace plus scheduler outcomes.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// The per-thread trace report.
    pub report: TraceReport,
    /// The workload threads and their final quanta.
    pub threads: Vec<ProfiledThread>,
    /// Adaptation passes run.
    pub passes: u64,
    /// Quanta actually changed across those passes.
    pub adjustments: u64,
}

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

/// A thread writing 8-byte records to `/dev/null` forever.
fn io_writer(k: &mut Kernel) -> Tid {
    let mut a = Asm::new("prof_io");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::WRITE);
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(entry, USTACK, user_map()).unwrap()
}

/// A thread spinning on register arithmetic forever.
fn cpu_spinner(k: &mut Kernel) -> Tid {
    let mut a = Asm::new("prof_cpu");
    let top = a.here();
    a.add(L, Imm(1), Dr(0));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(entry, USTACK + 0x1000, user_map()).unwrap()
}

/// A pipe producer/consumer pair: the producer writes 8 bytes per loop,
/// the consumer reads them; both block on the pipe as it fills and
/// drains, exercising the wake queues.
fn pipe_pair(k: &mut Kernel) -> (Tid, Tid) {
    let mut w = Asm::new("prof_pipe_w");
    let wtop = w.here();
    w.move_i(L, 1, Dr(0)); // wfd
    w.lea(Abs(UBUF), 0);
    w.move_i(L, 8, Dr(1));
    w.trap(traps::WRITE);
    w.bcc(Cond::T, wtop);
    let mut r = Asm::new("prof_pipe_r");
    let rtop = r.here();
    r.move_i(L, 0, Dr(0)); // rfd
    r.lea(Abs(UBUF + 0x100), 0);
    r.move_i(L, 8, Dr(1));
    r.trap(traps::READ);
    r.bcc(Cond::T, rtop);
    let we = k.load_user_program(w.assemble().unwrap()).unwrap();
    let re = k.load_user_program(r.assemble().unwrap()).unwrap();
    let wt = k.create_thread(we, USTACK + 0x2000, user_map()).unwrap();
    let rt = k.create_thread(re, USTACK + 0x3000, user_map()).unwrap();
    let (rfd, wfd) = k.pipe_for(rt).unwrap();
    assert_eq!((rfd, wfd), (0, 1));
    let attached = k.pipe_attach(wt, 0).unwrap();
    assert_eq!(attached, (0, 1));
    (wt, rt)
}

/// Run the mixed workload for `windows` scheduling windows of
/// `window_cycles` each, adapting quanta between windows, and distill
/// the trace. The CPU count comes from [`KernelConfig::default`] (the
/// `SYNTHESIS_CPUS` environment variable, 1 when unset).
#[must_use]
pub fn run(windows: u32, window_cycles: u64) -> ProfileResult {
    run_on(KernelConfig::default().cpus, windows, window_cycles)
}

/// [`run`], on an explicit number of CPUs.
#[must_use]
pub fn run_on(cpus: usize, windows: u32, window_cycles: u64) -> ProfileResult {
    let mut k = Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");

    let io = io_writer(&mut k);
    let cpu = cpu_spinner(&mut k);
    let (pipe_w, pipe_r) = pipe_pair(&mut k);
    let roles = [
        (io, "io: write /dev/null"),
        (cpu, "cpu: spin"),
        (pipe_w, "pipe: producer"),
        (pipe_r, "pipe: consumer"),
    ];
    for (tid, _) in roles {
        k.start(tid).unwrap();
    }

    let mut policy = FineGrain::new();
    let t0 = k.m.meter.cycles;
    for _ in 0..windows {
        k.run(window_cycles);
        policy.adapt(&mut k);
    }
    let run_ms = k.m.cost.cycles_to_us(k.m.meter.cycles - t0) / 1_000.0;

    let report = monitor::trace_report(&mut k);
    let threads = roles
        .iter()
        .map(|&(tid, role)| {
            let t = &k.threads[&tid];
            let gauge = k.m.mem.peek(t.tte + off::GAUGE, L);
            ProfiledThread {
                tid,
                role,
                gauge,
                gauge_per_ms: f64::from(gauge) / run_ms,
                quantum_us: k.quantum_us(tid).expect("a live thread's switch code"),
            }
        })
        .collect();
    ProfileResult {
        report,
        threads,
        passes: policy.passes,
        adjustments: policy.adjustments,
    }
}

impl ProfileResult {
    /// Render the profile as text: the trace report's table plus the
    /// scheduler outcome per workload thread.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = self.report.render();
        let _ = writeln!(
            out,
            "scheduler: {} adaptation passes, {} quantum changes",
            self.passes, self.adjustments
        );
        for t in &self.threads {
            let _ = writeln!(
                out,
                "  tid {:>2} {:<24} gauge {:>7} ({:>8.3}/ms)  quantum {:>4} µs",
                t.tid, t.role, t.gauge, t.gauge_per_ms, t.quantum_us
            );
        }
        out
    }
}
