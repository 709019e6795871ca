//! The Synthesis kernel: boot, threads, kernel calls, and the run loop.
//!
//! The kernel is host-side Rust that *generates and patches* the
//! simulated code that actually runs: synthesized context switches chain
//! the ready queue (Figure 3), synthesized `read`/`write` land behind
//! per-thread trap vectors (Section 5.3), and interrupt handlers feed
//! kernel queues. Cold bookkeeping reaches the host through `kcall`
//! hypercalls, each charging honest cycles (see [`crate::charges`]).
//!
//! Ready-chain membership — and with it blocking and waking — belongs
//! to the `ready` submodule: everything here that makes a thread
//! runnable or not does it through `enqueue`/`dequeue`.

use std::collections::{BTreeMap, HashMap};

use quamachine::devices::audio::Audio;
use quamachine::devices::disk::Disk;
use quamachine::devices::fb::FrameBuffer;
use quamachine::devices::null::NullDev;
use quamachine::devices::timer::Timer;
use quamachine::devices::tty::Tty;
use quamachine::devices::{dev_reg_addr, timer as timer_regs, tty as tty_regs};
use quamachine::error::Exception;
use quamachine::isa::{Instr, Operand, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};
use quamachine::mem::AddressMap;
use synthesis_codegen::creator::{QuajectCreator, SynthError, SynthesisOptions, Synthesized};
use synthesis_codegen::execds::JumpChain;
use synthesis_codegen::template::Bindings;

use synthesis_blocks::gauge::Gauge;

use crate::alloc::FastFit;
use crate::channel::FileChan;
use crate::charges;
use crate::fs::Fs;
use crate::io::disk::{DiskOutcome, DiskRequest, DiskScheduler};
use crate::io::pipe::Pipe;
use crate::io::tty::TtyServer;
use crate::layout;
use crate::syscall::{errno, general, kcalls};
use crate::templates;
use crate::thread::tte::{off, FdObject};
use crate::thread::{Thread, ThreadState, Tid, WaitObject};

mod chan;
mod ready;
mod tracepump;

/// Interrupt levels assigned to devices.
pub mod irq_levels {
    /// Inter-processor reschedule interrupt (SMP only; every thread's
    /// IPI vector is its own switch-out, so an IPI *is* a reschedule).
    pub const IPI: u8 = 1;
    /// Disk completion.
    pub const DISK: u8 = 2;
    /// One-shot alarms.
    pub const ALARM: u8 = 3;
    /// Tty receive.
    pub const TTY: u8 = 4;
    /// A/D sample.
    pub const AUDIO: u8 = 5;
    /// CPU quantum.
    pub const QUANTUM: u8 = 6;
}

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// The machine configuration (clock, wait states).
    pub machine: MachineConfig,
    /// Which synthesis stages run (the ablation switchboard).
    pub synthesis: SynthesisOptions,
    /// Initial per-thread CPU quantum in µs ("a typical quantum is on the
    /// order of a few hundred microseconds", Section 4.4).
    pub default_quantum_us: u32,
    /// Per-thread trace-ring capacity in records (see [`crate::trace`]).
    pub trace_records: usize,
    /// Number of CPUs in the Quamachine (1..=8). The default reads the
    /// `SYNTHESIS_CPUS` environment variable, falling back to 1.
    pub cpus: usize,
    /// Quaspace partition. The default reproduces the 2.5 MB Quamachine
    /// constants exactly; the capacity harness boots with
    /// [`layout::MemLayout::for_threads`] to make room for 10k+ TTEs.
    pub layout: layout::MemLayout,
}

/// Specialization-cache warm-entry byte budget the kernel boots with:
/// closed channels' code stays resident up to this many bytes, so a
/// reopen with the same invariants relinks instead of resynthesizing
/// (see [`synthesis_codegen::speccache::SpecCache`]). Experiments that
/// sweep the budget call
/// [`set_cache_budget`](QuajectCreator::set_cache_budget) after boot.
pub const CACHE_BUDGET: u32 = 128 * 1024;

/// CPU count from `SYNTHESIS_CPUS`, clamped to 1..=8; 1 if unset/garbage.
fn cpus_from_env() -> usize {
    std::env::var("SYNTHESIS_CPUS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.clamp(1, 8))
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            machine: MachineConfig {
                mem_size: layout::MEM_SIZE,
                ..MachineConfig::sun3_emulation()
            },
            synthesis: SynthesisOptions::full(),
            default_quantum_us: 200,
            trace_records: crate::trace::DEFAULT_RING_RECORDS,
            cpus: cpus_from_env(),
            layout: layout::MemLayout::default(),
        }
    }
}

/// Attached device indices.
#[derive(Debug, Clone, Copy)]
pub struct DeviceIdx {
    /// The quantum timer.
    pub timer: usize,
    /// The alarm timer.
    pub alarm: usize,
    /// The tty.
    pub tty: usize,
    /// The audio (A/D, D/A) device.
    pub audio: usize,
    /// The disk.
    pub disk: usize,
    /// The framebuffer.
    pub fb: usize,
    /// `/dev/null`'s backing device.
    pub null: usize,
}

/// Shared (per-boot, not per-thread) synthesized code addresses.
#[derive(Debug)]
struct SharedCode {
    trampoline: u32,
    ebadf: u32,
    fp_trap: u32,
    alarm: u32,
    tty_rx: u32,
    disk_done: u32,
    spurious: u32,
    user_exit_stub: u32,
}

/// Kernel errors surfaced to the embedder.
#[derive(Debug)]
pub enum KernelError {
    /// Code synthesis failed.
    Synth(SynthError),
    /// Out of kernel heap.
    NoMem,
    /// No such thread.
    NoThread(Tid),
    /// Machine-level failure.
    Machine(quamachine::error::MachineError),
    /// Invalid operation (e.g. stopping the idle thread).
    Invalid(&'static str),
    /// An I/O error after recovery was exhausted (disk retries spent or
    /// the sectors are quarantined).
    Io(&'static str),
}

impl From<SynthError> for KernelError {
    fn from(e: SynthError) -> Self {
        KernelError::Synth(e)
    }
}

impl From<crate::alloc::fastfit::OutOfMemory> for KernelError {
    fn from(_: crate::alloc::fastfit::OutOfMemory) -> Self {
        KernelError::NoMem
    }
}

impl From<quamachine::error::MachineError> for KernelError {
    fn from(e: quamachine::error::MachineError) -> Self {
        KernelError::Machine(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Synth(e) => write!(f, "synthesis: {e}"),
            KernelError::NoMem => write!(f, "kernel heap exhausted"),
            KernelError::NoThread(t) => write!(f, "no thread {t}"),
            KernelError::Machine(e) => write!(f, "machine: {e}"),
            KernelError::Invalid(s) => write!(f, "invalid operation: {s}"),
            KernelError::Io(s) => write!(f, "i/o error: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Gauges counting recovery events ([Section 2.3's gauges][Gauge] feeding
/// the monitor's recovery report).
#[derive(Debug, Default)]
pub struct RecoveryGauges {
    /// Threads killed by run-loop recovery after a fatal guest fault.
    pub reaped: Gauge,
    /// Threads quarantined by the fault-storm watchdog.
    pub quarantined: Gauge,
    /// Disk I/O errors surfaced to requesters (retries exhausted or
    /// quarantined sectors).
    pub io_errors: Gauge,
    /// CPUs quarantined by the cross-CPU watchdog.
    pub cpus_quarantined: Gauge,
    /// Quarantined CPUs re-admitted after probation.
    pub cpus_resumed: Gauge,
    /// Threads migrated off a quarantined CPU's ready chain.
    pub threads_evacuated: Gauge,
    /// Parked CPUs revived by the timer-fallback path after a reschedule
    /// IPI went missing (work waiting in the chain with no interrupt
    /// pending).
    pub ipi_fallbacks: Gauge,
}

/// Cycles between watchdog sweeps of the per-thread fault counters (the
/// run loop slices its budget so a storming guest that never traps out
/// still gets observed).
const WATCHDOG_SLICE: u64 = 100_000;
/// Guest error-faults within one sweep that mark a thread as storming
/// (a thread that faults once and exits never comes close).
const WATCHDOG_FAULT_LIMIT: u64 = 64;
/// CPU-domain guest faults (faults landing in a CPU's idle context,
/// which only the kernel and the hardware write) a CPU may absorb before
/// the cross-CPU watchdog quarantines it. One stray fault is survivable;
/// a CPU that keeps corrupting contexts on dispatch is sick.
const CPU_FAULT_LIMIT: u64 = 3;
/// Consecutive slices a CPU may lose wholesale (its clock jumping a full
/// watchdog slice with no instruction executed) before it counts as
/// having stopped heartbeating.
const CPU_SILENT_LIMIT: u32 = 3;
/// Watchdog sweeps a quarantined CPU sits out before its first
/// probation re-admission; each further strike doubles the wait.
const CPU_PROBATION_SWEEPS: u64 = 32;
/// Quarantine strikes after which a CPU is out for good: probation
/// re-admission stops being offered.
const CPU_MAX_STRIKES: u32 = 3;

/// One kernel CPU: its executable ready queue, its idle thread, and its
/// scheduling counters.
///
/// Each CPU's ready queue stays an *executable data structure* — the
/// circular chain of `jmp` instructions threaded through the TTEs
/// (Figure 3) — exactly as on the uniprocessor; only the *balancing*
/// between CPUs goes through the shared work-stealing pool.
#[derive(Debug)]
pub struct KCpu {
    /// This CPU's executable ready queue (TTE `jmp` chain).
    pub ready: JumpChain,
    /// This CPU's idle thread.
    pub idle_tid: Tid,
    /// Threads this CPU pulled out of the shared steal pool.
    pub steals: u64,
    /// Threads this CPU offered into the shared steal pool.
    pub offloads: u64,
    /// Slice cycles spent in the idle thread (run-loop attribution).
    pub idle_cycles: u64,
    /// Slice cycles spent running real threads.
    pub busy_cycles: u64,
    /// Whether the cross-CPU watchdog has quarantined this CPU: it is
    /// never dispatched, never steals, and its chain has been evacuated.
    pub quarantined: bool,
    /// Guest faults charged to the CPU domain itself (idle-context
    /// corruption on dispatch) rather than to a thread.
    pub fault_events: u64,
    /// Cycles this CPU's clock jumped on dispatch without executing
    /// anything — injected stalls, as seen by the scheduler.
    pub stall_cycles: u64,
    /// Consecutive slices lost wholesale to such jumps.
    pub silent_slices: u32,
    /// Times this CPU has been quarantined.
    pub strikes: u32,
    /// Sweep count at which probation re-admits this CPU; `None` when it
    /// is not quarantined or is out for good.
    pub probation_at: Option<u64>,
}

/// The Synthesis kernel.
pub struct Kernel {
    /// The machine.
    pub m: Machine,
    /// The quaject creator (code synthesis + code space).
    pub creator: QuajectCreator,
    /// The kernel heap (fast-fit).
    pub heap: FastFit,
    /// The file system.
    pub fs: Fs,
    /// Threads by id.
    pub threads: BTreeMap<Tid, Thread>,
    /// Per-CPU scheduler state: ready chain, idle thread, counters.
    /// Index = CPU number; a uniprocessor kernel has exactly one entry.
    pub cpus: Vec<KCpu>,
    /// Device indices.
    pub dev: DeviceIdx,
    /// The tty server state.
    pub tty_srv: TtyServer,
    /// Kernel pipes.
    pub pipes: Vec<Pipe>,
    /// Per-`(thread, file)` channel state: the shared seek-offset slot
    /// and its fd refcount (see [`crate::channel::FileChan`]).
    pub file_chans: HashMap<(Tid, u32), FileChan>,
    /// The synthesis switchboard in effect.
    pub opts: SynthesisOptions,
    /// Default quantum for new threads.
    pub default_quantum_us: u32,
    /// Console output collected from `PUTC`.
    pub console: Vec<u8>,
    /// Threads that have exited.
    pub exited: std::collections::HashSet<Tid>,
    /// The kernel-owned disk scheduler: request queue, retry/backoff, and
    /// sector quarantine (Section 5.1's pipeline stage, made persistent).
    pub disk_sched: DiskScheduler,
    /// Recovery event gauges (reaps, quarantines, surfaced I/O errors).
    pub recovery: RecoveryGauges,
    /// Recovery log: threads reaped or quarantined, with the reason.
    pub recovery_log: Vec<(Tid, String)>,
    /// Kernel event trace: per-thread rings of fixed-size records (see
    /// [`crate::trace`]), fed by [`Kernel::pump_trace`] and the
    /// [`trace!`](crate::trace!) hook.
    pub trace: crate::trace::TraceSet,
    /// The quaspace partition this kernel booted with.
    pub layout: layout::MemLayout,

    shared: SharedCode,
    /// Extents of every live switch quaject, `base -> base + size`:
    /// the O(1) index behind [`Kernel::in_switch_code`] (a linear scan
    /// over all threads would make every safe-point step O(n)).
    sw_extents: BTreeMap<u32, u32>,
    next_tid: Tid,
    vbr_to_tid: HashMap<u32, Tid>,
    /// The shared work-stealing pool: tids in transit between CPUs,
    /// carried by the optimistic MP-MC queue from `synthesis_blocks`.
    steal_pool: synthesis_blocks::steal::WorkPool<Tid>,
    /// Authoritative membership for `steal_pool`: the queue itself may
    /// hold stale entries after a stop/destroy, so a steal only counts
    /// if the tid is still in this set.
    pooled: std::collections::HashSet<Tid>,
    /// Threads blocked on each wait object, in blocking order. Read and
    /// written only by the `ready` submodule.
    waiters: HashMap<WaitObject, Vec<Tid>>,
    sig_stash: HashMap<Tid, ([u32; 15], u32)>,
    alarm_pending: bool,
    /// Completed disk outcomes by request cookie: `Ok(req)` or
    /// `Err(-errno)` once the scheduler gives up.
    disk_results: HashMap<u32, Result<DiskRequest, i32>>,
    /// Threads the watchdog quarantined; they refuse to start again.
    quarantined_tids: std::collections::HashSet<Tid>,
    /// Per-thread fault-count baselines for the watchdog sweep.
    watchdog_marks: HashMap<Tid, u64>,
    /// Watchdog sweeps since boot — the probation clock for quarantined
    /// CPUs.
    sweep_count: u64,
    /// How many of the fault plan's records have already been translated
    /// into kernel trace events (`tracepump`'s cursor).
    fault_cursor: usize,
    /// When set, [`Kernel::run`] returns `Breakpoint(tid)` as soon as
    /// this thread exits (instead of idling out the cycle budget).
    pub watch_exit: Option<Tid>,
}

impl Kernel {
    /// Boot the kernel: build the machine, attach devices, install
    /// templates, synthesize the shared handlers, and start the idle
    /// thread.
    ///
    /// # Errors
    ///
    /// Fails only if initial synthesis fails (a bug, not a runtime
    /// condition).
    pub fn boot(cfg: KernelConfig) -> Result<Kernel, KernelError> {
        let ncpus = cfg.cpus.clamp(1, 8);
        let mut machine_cfg = cfg.machine;
        machine_cfg.cpus = ncpus;
        // A scaled layout needs the physical memory to hold it.
        machine_cfg.mem_size = machine_cfg.mem_size.max(cfg.layout.mem_size);
        let mut m = Machine::new(machine_cfg);
        let timer = m.attach_device(Box::new(Timer::new(irq_levels::QUANTUM)));
        let alarm = m.attach_device(Box::new(Timer::new(irq_levels::ALARM)));
        let tty = m.attach_device(Box::new(Tty::new(irq_levels::TTY)));
        let audio = m.attach_device(Box::new(Audio::new(irq_levels::AUDIO)));
        let disk = m.attach_device(Box::new(Disk::new(irq_levels::DISK, 4096)));
        let fb = m.attach_device(Box::new(FrameBuffer::new()));
        let null = m.attach_device(Box::new(NullDev::new()));
        let dev = DeviceIdx {
            timer,
            alarm,
            tty,
            audio,
            disk,
            fb,
            null,
        };

        let mut creator = QuajectCreator::new(cfg.layout.code_base, cfg.layout.code_len);
        templates::install_all(&mut creator.lib);
        creator.lib.add(crate::io::tty::cooked_read_template());
        let trimmed = creator.cache.set_budget(CACHE_BUDGET);
        debug_assert!(trimmed.is_empty(), "empty cache trims nothing");

        let mut heap = FastFit::new(cfg.layout.heap_base, cfg.layout.heap_len);
        let tty_srv =
            TtyServer::allocate(&mut m, &mut heap, dev_reg_addr(tty, tty_regs::REG_DATA))?;

        // Shared handlers.
        let opts = cfg.synthesis;
        let trampoline = creator
            .synthesize(&mut m, "kcall_trampoline", &Bindings::new(), opts)?
            .base;
        let ebadf = creator
            .synthesize(&mut m, "ebadf", &Bindings::new(), opts)?
            .base;
        let fp_trap = creator
            .synthesize(&mut m, "trap_fp_unavail", &Bindings::new(), opts)?
            .base;
        let alarm_code = creator
            .synthesize(
                &mut m,
                "irq_alarm",
                Bindings::new().bind("timer_ack", dev_reg_addr(alarm, timer_regs::REG_ACK)),
                opts,
            )?
            .base;
        let tty_rx = creator
            .synthesize(
                &mut m,
                "irq_tty_rx",
                Bindings::new()
                    .bind("tty_data", tty_srv.data_reg)
                    .bind("qhead", tty_srv.qhead_slot)
                    .bind("qbuf", tty_srv.qbuf)
                    .bind("qmask", tty_srv.qmask)
                    .bind("gauge", tty_srv.gauge_slot)
                    .bind("waiters", tty_srv.waiters_slot),
                opts,
            )?
            .base;
        // Disk-completion and spurious-interrupt stubs.
        let disk_done = {
            let mut a = quamachine::asm::Asm::new("irq_disk_done");
            a.kcall(kcalls::DISK_DONE);
            a.rte();
            let t = synthesis_codegen::template::Template::from_asm(a).expect("assembles");
            creator
                .synthesize_template(&mut m, &t, &Bindings::new(), opts)?
                .base
        };
        let spurious = {
            let mut a = quamachine::asm::Asm::new("irq_spurious");
            a.rte();
            let t = synthesis_codegen::template::Template::from_asm(a).expect("assembles");
            creator
                .synthesize_template(&mut m, &t, &Bindings::new(), opts)?
                .base
        };
        // The default user error stub: exit the thread.
        let user_exit_stub = {
            let mut a = quamachine::asm::Asm::new("user_exit_stub");
            a.move_i(Size::L, general::EXIT, Operand::Dr(0));
            a.trap(crate::syscall::traps::GENERAL);
            let loop_ = a.here();
            a.bcc(quamachine::isa::Cond::T, loop_);
            let t = synthesis_codegen::template::Template::from_asm(a).expect("assembles");
            creator
                .synthesize_template(&mut m, &t, &Bindings::new(), opts)?
                .base
        };

        let mut k = Kernel {
            m,
            creator,
            heap,
            fs: Fs::new(),
            threads: BTreeMap::new(),
            cpus: (0..ncpus)
                .map(|_| KCpu {
                    ready: JumpChain::new(),
                    idle_tid: 0,
                    steals: 0,
                    offloads: 0,
                    idle_cycles: 0,
                    busy_cycles: 0,
                    quarantined: false,
                    fault_events: 0,
                    stall_cycles: 0,
                    silent_slices: 0,
                    strikes: 0,
                    probation_at: None,
                })
                .collect(),
            dev,
            tty_srv,
            pipes: Vec::new(),
            file_chans: HashMap::new(),
            opts,
            default_quantum_us: cfg.default_quantum_us,
            console: Vec::new(),
            exited: std::collections::HashSet::new(),
            disk_sched: DiskScheduler::new(disk),
            recovery: RecoveryGauges::default(),
            recovery_log: Vec::new(),
            trace: crate::trace::TraceSet::new(cfg.trace_records),
            layout: cfg.layout,
            sw_extents: BTreeMap::new(),
            shared: SharedCode {
                trampoline,
                ebadf,
                fp_trap,
                alarm: alarm_code,
                tty_rx,
                disk_done,
                spurious,
                user_exit_stub,
            },
            next_tid: 0,
            vbr_to_tid: HashMap::new(),
            steal_pool: synthesis_blocks::steal::WorkPool::new(64),
            pooled: std::collections::HashSet::new(),
            waiters: HashMap::new(),
            sig_stash: HashMap::new(),
            alarm_pending: false,
            disk_results: HashMap::new(),
            quarantined_tids: std::collections::HashSet::new(),
            watchdog_marks: HashMap::new(),
            sweep_count: 0,
            fault_cursor: 0,
            watch_exit: None,
        };

        // The idle thread: a supervisor-mode `stop`/loop. It anchors the
        // ready chain so the executable queue is never empty.
        let idle_code = {
            let mut a = quamachine::asm::Asm::new("idle");
            let top = a.here();
            a.stop(0x2000);
            a.bra(top);
            let t = synthesis_codegen::template::Template::from_asm(a).expect("assembles");
            k.creator
                .synthesize_template(&mut k.m, &t, &Bindings::new(), k.opts)?
        };
        // Every CPU gets its own, parked entering it: PC at its
        // switch-in, VBR already naming it — a CPU's VBR always
        // identifies the thread it is executing or about to execute.
        for cpu in 0..ncpus {
            let it = k.create_thread_inner(idle_code.base, 0, AddressMap::default(), 0x2000)?;
            k.threads.get_mut(&it).expect("just created").cpu = cpu;
            k.cpus[cpu].idle_tid = it;
            k.start(it)?;
            let (sw_in, vt) = (k.threads[&it].sw_in, k.threads[&it].vt);
            let slot = k.m.cpu_mut(cpu);
            slot.pc = sw_in;
            slot.vbr = vt;
            // Starting the idle kicked its (empty-looking) CPU; the
            // parked idle needs no boot-time reschedule.
            k.m.irq.clear_on(cpu, irq_levels::IPI);
        }
        // The CPUs ticked in lockstep through boot even though CPU 0 did
        // all the work; align the clocks so cross-CPU timestamps compare.
        k.m.sync_cpu_clocks();
        Ok(k)
    }

    // --- Thread lifecycle -------------------------------------------------

    /// Create a thread that will start executing at `entry` in user mode
    /// with user stack pointer `user_sp` and address map `map`.
    ///
    /// # Errors
    ///
    /// Fails on heap or code-space exhaustion.
    pub fn create_thread(
        &mut self,
        entry: u32,
        user_sp: u32,
        map: AddressMap,
    ) -> Result<Tid, KernelError> {
        self.create_thread_inner(entry, user_sp, map, 0x0000)
    }

    fn create_thread_inner(
        &mut self,
        entry: u32,
        user_sp: u32,
        map: AddressMap,
        initial_sr: u16,
    ) -> Result<Tid, KernelError> {
        let tid = self.next_tid;
        self.next_tid += 1;

        // Everything that can fail comes first and is recorded as it is
        // taken; a failure anywhere gives all of it back here.
        let (mut blocks, mut code) = (Vec::with_capacity(3), Vec::with_capacity(4));
        if let Err(e) = self.take_thread_parts(tid, &mut blocks, &mut code) {
            for s in &code {
                self.creator.destroy(&mut self.m, s);
            }
            for (addr, len) in blocks.into_iter().zip(THREAD_BLOCKS) {
                self.heap.free(addr, len);
            }
            return Err(e);
        }
        let [tte, vt, kstack]: [u32; 3] = blocks.try_into().expect("three blocks");
        let [sw, trap_read, trap_write, trap_error]: [Synthesized; 4] =
            code.try_into().expect("four blocks");
        self.sw_extents.insert(sw.base, sw.base + sw.size);
        let (sw_out, ipi_in, sw_in, sw_in_mmu, jmp_at) = Kernel::switch_entries(&self.m, &sw);

        // Vector table: errors, FP, interrupts, traps.
        let (d1, d2, errh) = (trap_read.base, trap_write.base, trap_error.base);
        self.fill_vector_table(vt, sw_out, ipi_in, d1, d2, errh);
        let c = charges::mem_init(&self.m.cost, layout::VECTOR_TABLE_LEN);
        self.m.charge(c);

        self.clear_fd_table(tte);

        // Fabricate the initial exception frame on the kernel stack so
        // sw_in's rte drops into `entry`.
        let frame = tte_frame_top(kstack) - 6;
        self.m.mem.poke(frame, Size::W, u32::from(initial_sr));
        self.m.mem.poke(frame + 2, Size::L, entry);
        self.m.mem.poke(tte + off::SSP, Size::L, frame);
        self.m.mem.poke(tte + off::USP, Size::L, user_sp);
        let quantum = self.default_quantum_us;
        self.m.mem.poke(tte + off::QUANTUM, Size::L, quantum);

        self.vbr_to_tid.insert(vt, tid);
        let thread = Thread {
            tid,
            tte,
            vt,
            kstack,
            sw,
            sw_out,
            sw_in,
            sw_in_mmu,
            jmp_at,
            trap_read,
            trap_write,
            trap_error,
            adopted: Vec::new(),
            uses_fp: false,
            quantum_us: quantum,
            state: ThreadState::Stopped,
            map,
            fds: (0..crate::thread::tte::FD_MAX)
                .map(|_| FdObject::Free)
                .collect(),
            cpu: self.m.active_cpu(),
            last_gauge: 0,
            last_io: 0,
        };
        self.threads.insert(tid, thread);
        Ok(tid)
    }

    /// The fallible half of thread creation: the [`THREAD_BLOCKS`] heap
    /// blocks, pushed to `blocks`, then the four private code blocks
    /// (switch, `trap #1`/`#2` dispatchers, error handler), pushed to
    /// `code`.
    fn take_thread_parts(
        &mut self,
        tid: Tid,
        blocks: &mut Vec<u32>,
        code: &mut Vec<Synthesized>,
    ) -> Result<(), KernelError> {
        for len in THREAD_BLOCKS {
            blocks.push(self.heap.alloc(len)?);
            self.charge_alloc();
        }
        let (tte, vt) = (blocks[0], blocks[1]);

        // TTE fill (the paper's ~100 µs for ~1 KB).
        for a in (tte..tte + layout::TTE_LEN).step_by(4) {
            self.m.mem.poke(a, Size::L, 0);
        }
        let c = charges::mem_init(&self.m.cost, layout::TTE_LEN);
        self.m.charge(c);

        // Factorization + optimization: the per-thread switch code, then
        // the trap dispatchers and the error handler.
        let quantum = self.default_quantum_us;
        code.push(self.synth_switch(tid, tte, vt, quantum, false)?);
        let fdtable = Bindings::new().with("fdtable", tte + off::FD_TABLE);
        let error = Bindings::new()
            .with("err_pc_slot", tte + off::ERR_PC)
            .with("handler", self.shared.user_exit_stub);
        for (name, b) in [
            ("dispatch_trap1", &fdtable),
            ("dispatch_trap2", &fdtable),
            ("trap_error", &error),
        ] {
            code.push(self.creator.synthesize(&mut self.m, name, b, self.opts)?);
        }
        Ok(())
    }

    /// Hand `tid` a block of private (uncached) code synthesized for it
    /// — an embedder's trap dispatcher, say — to be freed with the thread.
    ///
    /// # Errors
    ///
    /// Fails for unknown threads (the block stays the caller's).
    pub fn adopt_code(&mut self, tid: Tid, s: Synthesized) -> Result<(), KernelError> {
        let t = self
            .threads
            .get_mut(&tid)
            .ok_or(KernelError::NoThread(tid))?;
        t.adopted.push(s);
        Ok(())
    }

    /// Synthesize (or resynthesize) a thread's context-switch code.
    fn synth_switch(
        &mut self,
        tid: Tid,
        tte: u32,
        vt: u32,
        quantum: u32,
        fp: bool,
    ) -> Result<Synthesized, KernelError> {
        let mut b = Bindings::new();
        b.bind("save", tte + off::REGS)
            .bind("usp_slot", tte + off::USP)
            .bind("ssp_slot", tte + off::SSP)
            .bind("vt", vt)
            .bind("quantum", quantum)
            .bind(
                "timer_qreg",
                dev_reg_addr(self.dev.timer, timer_regs::REG_QUANTUM_US),
            )
            .bind(
                "timer_ack",
                dev_reg_addr(self.dev.timer, timer_regs::REG_ACK),
            )
            .bind("tid", tid)
            .bind("next", 0);
        if fp {
            b.bind("fp_save", tte + off::FP);
        }
        let name = if fp { "sw_fp" } else { "sw_basic" };
        Ok(self.creator.synthesize(&mut self.m, name, &b, self.opts)?)
    }

    /// Locate the switch code's entries and its patchable jump.
    fn switch_entries(m: &Machine, sw: &Synthesized) -> (u32, u32, u32, u32, u32) {
        let sw_out = sw.entries.get("sw_out").copied().unwrap_or(sw.base);
        let ipi_in = sw.entries.get("ipi_in").copied().unwrap_or(sw_out);
        let sw_in = sw.entries["sw_in"];
        let sw_in_mmu = sw.entries["sw_in_mmu"];
        let block = m.code.block(sw.base).expect("installed");
        let jmp_idx = block
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Jmp(Operand::Abs(_))))
            .expect("switch code contains the chain jmp");
        let jmp_at = m.code.addr_of(sw.base, jmp_idx).expect("in range");
        (sw_out, ipi_in, sw_in, sw_in_mmu, jmp_at)
    }

    fn fill_vector_table(
        &mut self,
        vt: u32,
        sw_out: u32,
        ipi_in: u32,
        d1: u32,
        d2: u32,
        errh: u32,
    ) {
        let poke = |m: &mut Machine, vec: u32, addr: u32| {
            m.mem.poke(vt + 4 * vec, Size::L, addr);
        };
        // Error traps (Section 4.3): bus error, address error, illegal,
        // zero divide, privilege violation.
        for vec in [2, 3, 4, 5, 8] {
            poke(&mut self.m, vec, errh);
        }
        // Lazy FP.
        poke(&mut self.m, 11, self.shared.fp_trap);
        // Interrupt levels.
        for level in 1..=7u32 {
            poke(&mut self.m, 24 + level, self.shared.spurious);
        }
        poke(
            &mut self.m,
            24 + u32::from(irq_levels::DISK),
            self.shared.disk_done,
        );
        poke(
            &mut self.m,
            24 + u32::from(irq_levels::ALARM),
            self.shared.alarm,
        );
        poke(
            &mut self.m,
            24 + u32::from(irq_levels::TTY),
            self.shared.tty_rx,
        );
        poke(
            &mut self.m,
            24 + u32::from(irq_levels::AUDIO),
            self.shared.spurious,
        );
        // The timer vector points straight at THIS thread's sw_out —
        // Figure 3's "the interrupt is vectored to thread-0's
        // context-switch-out procedure".
        poke(&mut self.m, 24 + u32::from(irq_levels::QUANTUM), sw_out);
        // On a multiprocessor the IPI vector points at THIS thread's
        // ipi_in: an inter-processor interrupt is exactly a reschedule
        // request, handled like a quantum expiry — but the IPI arrives at
        // level 1, so the entry first raises the mask to keep device
        // interrupts from nesting mid-switch.
        if self.m.num_cpus() > 1 {
            poke(&mut self.m, 24 + u32::from(irq_levels::IPI), ipi_in);
        }
        // Traps.
        for t in 0..16u32 {
            poke(&mut self.m, 32 + t, self.shared.trampoline);
        }
        poke(&mut self.m, 32 + u32::from(crate::syscall::traps::READ), d1);
        poke(
            &mut self.m,
            32 + u32::from(crate::syscall::traps::WRITE),
            d2,
        );
    }

    /// Install a handler address into a thread's vector table (used by
    /// the UNIX emulator and device servers).
    pub fn set_vector(&mut self, tid: Tid, vector: u32, handler: u32) -> Result<(), KernelError> {
        let vt = self.threads.get(&tid).ok_or(KernelError::NoThread(tid))?.vt;
        self.m.mem.poke(vt + 4 * vector, Size::L, handler);
        let c = charges::code_patch(&self.m.cost);
        self.m.charge(c);
        Ok(())
    }

    /// Start (or restart) a thread: insert its TTE into the executable
    /// ready queue, in front (Section 4.4's unblocking rule).
    ///
    /// # Errors
    ///
    /// Fails for unknown or dead threads.
    pub fn start(&mut self, tid: Tid) -> Result<(), KernelError> {
        self.ensure_safe_point();
        let t = self.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
        if matches!(t.state, ThreadState::Dead) {
            return Err(KernelError::Invalid("starting a dead thread"));
        }
        if self.quarantined_tids.contains(&tid) {
            return Err(KernelError::Invalid("starting a quarantined thread"));
        }
        if self.pooled.contains(&tid) {
            // Already runnable: parked in the steal pool awaiting a
            // thief.
            return Ok(());
        }
        let mut home = t.cpu;
        // A thread homed on a quarantined CPU starts on a healthy one
        // instead — nothing dispatches a quarantined CPU's chain.
        if self.cpus[home].quarantined && !self.is_idle(tid) {
            home = self.first_healthy_cpu().unwrap_or(home);
        }
        if self.cpus[home].ready.contains(tid) {
            return Ok(());
        }
        // Charged first: the kick arms the quantum timer relative to the
        // clock the caller sees when `start` returns.
        let c = 2 * charges::code_patch(&self.m.cost) + charges::kcall_overhead(&self.m.cost);
        self.m.charge(c);
        self.enqueue(home, tid)
    }

    /// Stop a thread: remove its TTE from the ready queue.
    ///
    /// # Errors
    ///
    /// Fails for unknown threads or the idle thread.
    pub fn stop(&mut self, tid: Tid) -> Result<(), KernelError> {
        if self.is_idle(tid) {
            return Err(KernelError::Invalid("stopping the idle thread"));
        }
        self.ensure_safe_point();
        if !self.threads.contains_key(&tid) {
            return Err(KernelError::NoThread(tid));
        }
        self.activate_owner(tid);
        let was_current = self.current_tid() == Some(tid);
        if was_current {
            self.suspend_current_state();
        }
        self.dequeue(tid)?;
        let c = charges::code_patch(&self.m.cost) + charges::kcall_overhead(&self.m.cost);
        self.m.charge(c);
        if was_current {
            self.enter_next();
        }
        Ok(())
    }

    /// The currently executing thread, identified by the installed VBR.
    #[must_use]
    pub fn current_tid(&self) -> Option<Tid> {
        self.vbr_to_tid.get(&self.m.cpu.vbr).copied()
    }

    /// The thread currently executing on CPU `cpu` (active or parked),
    /// identified by that CPU's installed VBR.
    #[must_use]
    pub fn current_tid_on(&self, cpu: usize) -> Option<Tid> {
        self.vbr_to_tid.get(&self.m.cpu_ref(cpu).vbr).copied()
    }

    /// Whether `tid` is one of the per-CPU idle threads.
    #[must_use]
    pub fn is_idle(&self, tid: Tid) -> bool {
        self.cpus.iter().any(|c| c.idle_tid == tid)
    }

    /// The CPU `tid` calls home — whose ready chain holds it when
    /// runnable. Unknown tids report CPU 0.
    fn home_cpu(&self, tid: Tid) -> usize {
        self.threads.get(&tid).map_or(0, |t| t.cpu)
    }

    /// Switch the machine to the CPU where `tid` is currently executing,
    /// if any, and step that CPU to a safe point. Host-side surgery on a
    /// thread that is current *somewhere* must happen with that CPU's
    /// context loaded: the parked registers hold state its TTE lacks.
    fn activate_owner(&mut self, tid: Tid) {
        if self.current_tid() == Some(tid) {
            return;
        }
        let owner = (0..self.cpus.len()).find(|&c| self.current_tid_on(c) == Some(tid));
        if let Some(c) = owner {
            self.m.switch_cpu(c);
            self.ensure_safe_point();
        }
    }

    /// Whether `pc` is inside any thread's context-switch code — the
    /// window during which CPU contents and the VBR identity are
    /// transitional, so host-side surgery would corrupt thread state.
    fn in_switch_code(&self, pc: u32) -> bool {
        // O(1) via the extent index: the predecessor block either covers
        // `pc` or nothing does. A scan over `threads` would make every
        // safe-point step O(n) — ruinous at 10k threads.
        self.sw_extents
            .range(..=pc)
            .next_back()
            .is_some_and(|(_, &end)| pc < end)
    }

    /// Step the machine out of any context-switch window so host-side
    /// operations (stop, signal, step, destroy) see consistent state.
    /// Kernel calls encountered on the way are serviced.
    pub fn ensure_safe_point(&mut self) {
        self.step_while(Kernel::in_switch_code);
    }

    /// Step the active CPU for as long as `inside(self, pc)` holds (up to
    /// a bound), servicing the kernel calls it meets.
    fn step_while(&mut self, inside: impl Fn(&Kernel, u32) -> bool) {
        for _ in 0..10_000 {
            if !inside(self, self.m.cpu.pc) {
                return;
            }
            match self.m.step() {
                Ok(None) => {}
                Ok(Some(RunExit::KCall(sel))) => {
                    let _ = self.handle_kcall(sel);
                }
                _ => return,
            }
        }
    }

    /// Save the machine's register state into the current thread's TTE
    /// and fabricate a resume frame on its kernel stack — the host-side
    /// mirror of `sw_out`, used when the kernel switches away inside a
    /// kernel call. The fabricated frame makes the later `sw_in`'s `rte`
    /// resume exactly where the `kcall` left off (mid-routine, in
    /// supervisor mode), so the synthesized routine finishes normally.
    fn suspend_current_state(&mut self) {
        self.suspend_state_of(self.m.active_cpu());
    }

    /// [`Kernel::suspend_current_state`] generalized to any CPU's
    /// context, active or parked — the CPU-quarantine path checkpoints a
    /// thread resident on a parked CPU without dispatching that CPU.
    fn suspend_state_of(&mut self, cpu: usize) {
        let Some(tid) = self.current_tid_on(cpu) else {
            return;
        };
        let t = &self.threads[&tid];
        let tte = t.tte;
        let uses_fp = t.uses_fp;
        let c = self.m.cpu_ref(cpu).clone();
        for i in 0..8 {
            self.m
                .mem
                .poke(tte + off::REGS + 4 * i as u32, Size::L, c.d[i]);
        }
        for i in 0..7 {
            self.m
                .mem
                .poke(tte + off::REGS + 32 + 4 * i as u32, Size::L, c.a[i]);
        }
        self.m.mem.poke(tte + off::USP, Size::L, c.usp());
        // Fabricate the resume frame below the current SSP.
        let frame = c.ssp().wrapping_sub(6);
        self.m.mem.poke(frame, Size::W, u32::from(c.sr));
        self.m.mem.poke(frame + 2, Size::L, c.pc);
        self.m.mem.poke(tte + off::SSP, Size::L, frame);
        if uses_fp {
            for i in 0..8u32 {
                let bits = c.fp[i as usize].to_bits();
                self.m
                    .mem
                    .poke(tte + off::FP + 8 * i, Size::L, (bits >> 32) as u32);
                self.m
                    .mem
                    .poke(tte + off::FP + 8 * i + 4, Size::L, bits as u32);
            }
        }
        let ch = charges::mem_copy(&self.m.cost, 74);
        self.m.charge(ch);
    }

    /// Point the machine at the active CPU's next ready thread's
    /// switch-in.
    fn enter_next(&mut self) {
        let cpu = self.m.active_cpu();
        if let Some(node) = self.cpus[cpu].ready.head() {
            self.enter(node.id);
        }
    }

    /// Point the machine at `tid`'s switch-in (it must have a valid frame
    /// and saved state). The VBR names `tid` from here on, not only once
    /// the switch-in has loaded it, so chain surgery before the CPU next
    /// runs knows whose `jmp` it will leave through.
    fn enter(&mut self, tid: Tid) {
        crate::trace!(self, tid, crate::trace::Kind::CtxSwitch, 1, 0);
        let t = &self.threads[&tid];
        let need_map = t.map != self.m.mem.map;
        self.m.cpu.pc = if need_map { t.sw_in_mmu } else { t.sw_in };
        self.m.cpu.vbr = t.vt;
        // Supervisor mode (sw_in uses privileged instructions) with
        // interrupts masked: a pending interrupt accepted before sw_in's
        // first instruction would vector through the *previous* thread's
        // table and corrupt its just-saved state. The incoming thread's
        // rte restores its own mask.
        let sr = (self.m.cpu.sr | quamachine::cpu::sr_bits::S) | 0x0700;
        self.m.cpu.write_sr(sr);
    }

    /// Destroy a thread, freeing everything it owns.
    ///
    /// # Errors
    ///
    /// Fails for unknown threads or the idle thread.
    pub fn destroy(&mut self, tid: Tid) -> Result<(), KernelError> {
        if self.is_idle(tid) {
            return Err(KernelError::Invalid("destroying the idle thread"));
        }
        self.ensure_safe_point();
        self.activate_owner(tid);
        // Attribute pending machine events while the VBR mapping still
        // exists; the thread's ring itself outlives it (post-mortems
        // drain it after the reap).
        self.pump_trace();
        let was_current = self.current_tid() == Some(tid);
        self.dequeue(tid)?;
        let mut t = self
            .threads
            .remove(&tid)
            .ok_or(KernelError::NoThread(tid))?;
        self.sw_extents.remove(&t.sw.base);
        // Close fds.
        for obj in std::mem::take(&mut t.fds) {
            self.release_fd_object(tid, obj);
        }
        let own = [&t.sw, &t.trap_read, &t.trap_write, &t.trap_error];
        for s in own.into_iter().chain(&t.adopted) {
            self.creator.destroy(&mut self.m, s);
        }
        for (addr, len) in [t.tte, t.vt, t.kstack].into_iter().zip(THREAD_BLOCKS) {
            self.heap.free(addr, len);
        }
        self.vbr_to_tid.remove(&t.vt);
        self.trace.forget_frames(tid);
        t.state = ThreadState::Dead;
        self.exited.insert(tid);
        let c = charges::kcall_overhead(&self.m.cost) + charges::alloc_op(&self.m.cost, 3) * 3;
        self.m.charge(c);
        if was_current {
            self.enter_next();
        }
        Ok(())
    }

    /// `step`: make a stopped thread execute one instruction (Table 3:
    /// the debugger primitive).
    ///
    /// # Errors
    ///
    /// The thread must exist and be stopped.
    pub fn step_thread(&mut self, tid: Tid) -> Result<(), KernelError> {
        let t = self.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
        if !matches!(t.state, ThreadState::Stopped) {
            return Err(KernelError::Invalid("step requires a stopped thread"));
        }
        let (tte, vt) = (t.tte, t.vt);
        // Host-side sw_in: load the thread's state into the CPU,
        // including its address map (one user-mode instruction is about
        // to run under it).
        let saved_cpu = self.m.cpu.clone();
        let saved_map = std::mem::replace(&mut self.m.mem.map, t.map.clone());
        let frame = self.m.mem.peek(tte + off::SSP, Size::L);
        let sr = self.m.mem.peek(frame, Size::W) as u16;
        let pc = self.m.mem.peek(frame + 2, Size::L);
        for i in 0..8 {
            self.m.cpu.d[i] = self.m.mem.peek(tte + off::REGS + 4 * i as u32, Size::L);
        }
        for i in 0..7 {
            self.m.cpu.a[i] = self
                .m
                .mem
                .peek(tte + off::REGS + 32 + 4 * i as u32, Size::L);
        }
        self.m.cpu.vbr = vt;
        self.m.cpu.pc = pc;
        // Build the mode: supervisor bit per the frame, but with
        // interrupts masked so the single step executes the thread's
        // instruction rather than accepting a pending interrupt.
        let masked = (sr & !0x0700) | 0x0700;
        self.m.cpu.write_sr(masked | quamachine::cpu::sr_bits::S); // temporarily super
        self.m.cpu.a[7] = frame + 6;
        let usp = self.m.mem.peek(tte + off::USP, Size::L);
        self.m.cpu.set_usp(usp);
        self.m.cpu.write_sr(masked);
        if !self.m.cpu.supervisor() {
            self.m.cpu.a[7] = usp;
        }
        let _ = self.m.step();
        // Save back (restoring the thread's real interrupt mask) and
        // refabricate the frame.
        let npc = self.m.cpu.pc;
        let nsr = (self.m.cpu.sr & !0x0700) | (sr & 0x0700);
        for i in 0..8 {
            let v = self.m.cpu.d[i];
            self.m.mem.poke(tte + off::REGS + 4 * i as u32, Size::L, v);
        }
        for i in 0..7 {
            let v = self.m.cpu.a[i];
            self.m
                .mem
                .poke(tte + off::REGS + 32 + 4 * i as u32, Size::L, v);
        }
        let nusp = self.m.cpu.usp();
        let nframe = self.m.cpu.ssp() - 6;
        self.m.mem.poke(nframe, Size::W, u32::from(nsr));
        self.m.mem.poke(nframe + 2, Size::L, npc);
        self.m.mem.poke(tte + off::SSP, Size::L, nframe);
        self.m.mem.poke(tte + off::USP, Size::L, nusp);
        self.m.cpu = saved_cpu;
        self.m.mem.map = saved_map;
        let c = 2 * charges::mem_copy(&self.m.cost, 68) + charges::kcall_overhead(&self.m.cost);
        self.m.charge(c);
        Ok(())
    }

    /// Send a signal: the target will run its signal handler the next
    /// time it is activated (Section 4.3). Host API: callable between
    /// [`Kernel::run`] slices.
    ///
    /// # Errors
    ///
    /// The target must exist and have a handler installed.
    pub fn signal(&mut self, target: Tid, sig: u32) -> Result<(), KernelError> {
        self.ensure_safe_point();
        self.activate_owner(target);
        if self.current_tid() == Some(target) {
            // The target's live state is on the CPU (the machine is
            // parked between instructions): park it properly first, then
            // deliver as to a parked thread, and resume it through its
            // switch-in so the fabricated frames unwind in order.
            self.suspend_current_state();
            self.signal_parked(target, sig)?;
            self.enter(target);
            return Ok(());
        }
        self.signal_parked(target, sig)
    }

    /// Deliver a signal to a thread whose state is in its TTE (or to the
    /// calling thread from inside its own kernel call).
    pub(crate) fn signal_from_kcall(&mut self, target: Tid, sig: u32) -> Result<(), KernelError> {
        let t = self
            .threads
            .get(&target)
            .ok_or(KernelError::NoThread(target))?;
        let tte = t.tte;
        let handler = self.m.mem.peek(tte + off::SIG_HANDLER, Size::L);
        if handler == 0 {
            return Err(KernelError::Invalid("no signal handler installed"));
        }
        if self.current_tid() == Some(target) {
            // Running target: rewrite the active trap frame (we are in a
            // kernel call from it). Park the old PC and swap in the
            // handler.
            let sp = self.m.cpu.a[7];
            let old_pc = self.m.mem.peek(sp + 2, Size::L);
            self.m.mem.poke(tte + off::SIG_PC, Size::L, old_pc);
            self.m.mem.poke(sp + 2, Size::L, handler);
            // Stash registers for SIG_RETURN.
            let mut regs = [0u32; 15];
            regs[..8].copy_from_slice(&self.m.cpu.d);
            regs[8..].copy_from_slice(&self.m.cpu.a[..7]);
            self.sig_stash.insert(target, (regs, self.m.cpu.usp()));
        } else {
            return self.signal_parked(target, sig);
        }
        let c = charges::kcall_overhead(&self.m.cost) + 3 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
        Ok(())
    }

    /// Deliver to a thread whose state lives in its TTE: push a
    /// fabricated frame so its next `rte` runs the handler; `SIG_RETURN`
    /// then falls back to the real frame.
    fn signal_parked(&mut self, target: Tid, _sig: u32) -> Result<(), KernelError> {
        let t = self
            .threads
            .get(&target)
            .ok_or(KernelError::NoThread(target))?;
        let tte = t.tte;
        let handler = self.m.mem.peek(tte + off::SIG_HANDLER, Size::L);
        if handler == 0 {
            return Err(KernelError::Invalid("no signal handler installed"));
        }
        let ssp = self.m.mem.peek(tte + off::SSP, Size::L);
        let fake = ssp - 6;
        self.m.mem.poke(fake, Size::W, 0); // user mode
        self.m.mem.poke(fake + 2, Size::L, handler);
        self.m.mem.poke(tte + off::SSP, Size::L, fake);
        let mut regs = [0u32; 15];
        for i in 0..15u32 {
            regs[i as usize] = self.m.mem.peek(tte + off::REGS + 4 * i, Size::L);
        }
        let usp = self.m.mem.peek(tte + off::USP, Size::L);
        self.sig_stash.insert(target, (regs, usp));
        let c = charges::kcall_overhead(&self.m.cost) + 3 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
        Ok(())
    }

    // --- The run loop -------------------------------------------------------

    /// Run the kernel for up to `max_cycles`, servicing kernel calls.
    ///
    /// Returns when the budget expires, on a fatal machine error, or on a
    /// `kcall` the kernel does not own (so embedders like the UNIX
    /// emulator can extend the kernel and then call [`Kernel::run`]
    /// again).
    ///
    /// Each CPU gets `max_cycles` on its own virtual clock, executed in
    /// watchdog-sized slices. One CPU is simulated at a time; the
    /// scheduler always resumes the CPU whose clock is furthest behind,
    /// so cross-CPU skew stays bounded by one slice and the interleaving
    /// is deterministic. Between slices — every CPU parked at a safe
    /// point, outside any context-switch code — the work-stealing
    /// rebalancer, the watchdogs and the trace pump run. A uniprocessor
    /// is the same loop with nobody to rotate to or steal from.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        // The watched thread may have exited host-side between runs (an
        // embedder servicing its exit call). Surface that before anything
        // executes, or the embedder would be handed a clock past the
        // exit.
        if let Some(w) = self.watched_exit() {
            return RunExit::Breakpoint(w);
        }
        let n = self.cpus.len();
        // A CPU that halts (idle with nothing ever due) stays parked
        // until an IPI or device interrupt shows up for it.
        let mut halted = vec![false; n];
        // The most recent halt: which CPU, and its clock at that point.
        let mut last_halt: Option<(usize, u64)> = None;
        // The embedder may have parked the active CPU inside switch code
        // (host-side enter); step it out so the VBR names the incoming
        // thread before the rebalancer looks for stealable work.
        self.ensure_safe_point();
        // Host-side work between runs (thread creation, synthesis,
        // emulator services) is charged to the active CPU only; the
        // parked CPUs conceptually ticked along, so raise them to the
        // active clock before resuming the rotation. Never the other
        // way around: a parked CPU ahead from slice-granularity
        // overshoot must not drag the active — measuring — clock
        // forward, or every host service call would cost the caller up
        // to a full watchdog slice of virtual time.
        self.m.catch_up_cpu_clocks();
        // Deadlines are taken after the catch-up: an idle CPU that leapt
        // to its next timer event raises every parked CPU with it, and a
        // deadline measured from the stale clocks would already be past
        // for all of them — only the leaper would ever run.
        let deadlines: Vec<u64> = (0..n)
            .map(|i| self.m.cpu_cycles(i).saturating_add(max_cycles))
            .collect();
        loop {
            // Balance before picking a CPU, so a starved CPU steals work
            // instead of idling away its first slice.
            self.rebalance();
            for (i, h) in halted.iter_mut().enumerate() {
                if !*h || self.cpus[i].quarantined {
                    continue;
                }
                if self.m.irq.any_pending_on(i) {
                    *h = false;
                } else if self.m.delayed_ipi_pending(i) || !self.cpu_starved(i) {
                    // Timer-fallback rescheduling: the IPI that should
                    // have woken this CPU was lost or is still in
                    // flight, but its chain holds runnable work (or the
                    // delayed interrupt needs the CPU running to land).
                    // Revive it — a dropped IPI costs one rotation of
                    // latency, never a hang.
                    *h = false;
                    self.recovery.ipi_fallbacks.tick();
                }
            }
            let Some(i) = (0..n)
                .filter(|&i| {
                    !halted[i] && !self.cpus[i].quarantined && self.m.cpu_cycles(i) < deadlines[i]
                })
                .min_by_key(|&i| (self.m.cpu_cycles(i), i))
            else {
                return if (0..n)
                    .filter(|&i| !self.cpus[i].quarantined)
                    .all(|i| halted[i])
                {
                    // Every CPU halted in this call and nothing revived
                    // one, so the slice just run was the last CPU's halt:
                    // with nobody left to keep pace with, report it at
                    // the clock it happened, not the slice boundary.
                    let active = self.m.active_cpu();
                    if let Some((_, at)) = last_halt.filter(|&(cpu, _)| cpu == active) {
                        self.m.meter.cycles = at;
                    }
                    RunExit::Halted
                } else {
                    RunExit::CycleLimit
                };
            };
            let parked_clock = self.m.cpu_cycles(i);
            let parked_pc = self.m.cpu_ref(i).pc;
            self.m.switch_cpu(i);
            // A dispatch-fault stall shows up as the CPU's clock jumping
            // while it executed nothing; a jump of a full watchdog slice
            // is a missed heartbeat.
            let jump = self.m.meter.cycles.saturating_sub(parked_clock);
            if jump > 0 {
                self.cpus[i].stall_cycles += jump;
            }
            // Dispatch-time context check: a sick CPU corrupts the
            // context it loads. Every CPU parks at a safe point, so the
            // parked PC was good — a loaded PC outside any code block is
            // the CPU's corruption, not the thread's. Repair the loaded
            // copy from the parked value, charge the CPU's own fault
            // budget, and quarantine it once the budget runs out. The
            // resident thread keeps its state and never sees the fault.
            if self.m.cpu.pc != parked_pc && self.m.code.locate(self.m.cpu.pc).is_none() {
                let wild = self.m.cpu.pc;
                self.m.cpu.pc = parked_pc;
                self.cpus[i].fault_events += 1;
                let idle = self.cpus[i].idle_tid;
                self.recovery_log.push((
                    idle,
                    format!("cpu {i} dispatch corruption: wild pc {wild:#x}"),
                ));
                if self.cpus[i].fault_events > CPU_FAULT_LIMIT
                    && self.quarantine_cpu(i, "fault budget exceeded")
                {
                    continue;
                }
            }
            let slice_end = self
                .m
                .meter
                .cycles
                .saturating_add(WATCHDOG_SLICE)
                .min(deadlines[i]);
            let before = self.m.meter.cycles;
            let instr_before = self.m.meter.instr_count;
            let mut hit_halt = false;
            let was_idle = self.current_tid_on(i).is_none_or(|t| self.is_idle(t));
            while self.m.meter.cycles < slice_end {
                match self.m.run(slice_end - self.m.meter.cycles) {
                    RunExit::KCall(sel) => {
                        if !self.handle_kcall(sel) {
                            return RunExit::KCall(sel);
                        }
                        // A watched exit ends the slice immediately so
                        // the embedder sees it without a slice-sized
                        // detection latency.
                        if self.watched_exit().is_some() {
                            break;
                        }
                    }
                    RunExit::CycleLimit => break,
                    RunExit::Halted => {
                        // Nothing to run and nothing due on this CPU's
                        // timeline; park it at the slice boundary so the
                        // rotation moves on.
                        halted[i] = true;
                        hit_halt = true;
                        last_halt = Some((i, self.m.meter.cycles));
                        self.m.meter.cycles = slice_end;
                        break;
                    }
                    RunExit::Error(e) => {
                        if let Err(exit) = self.recover_machine_error(e) {
                            return exit;
                        }
                    }
                    other => return other,
                }
            }
            // Park this CPU only at a safe point: host-side surgery
            // from another CPU's slice must not observe it mid-switch.
            self.ensure_safe_point();
            let delta = self.m.meter.cycles.saturating_sub(before);
            if was_idle {
                self.cpus[i].idle_cycles += delta;
            } else {
                self.cpus[i].busy_cycles += delta;
            }
            // Cross-CPU heartbeat: a clock that advances a whole slice
            // without one instruction executing (and without an honest
            // halt) is a CPU losing time, not spending it.
            let silent = jump >= WATCHDOG_SLICE
                || (delta > 0 && self.m.meter.instr_count == instr_before && !hit_halt);
            if !self.cpus[i].quarantined {
                if silent {
                    self.cpus[i].silent_slices += 1;
                    if self.cpus[i].silent_slices >= CPU_SILENT_LIMIT {
                        self.quarantine_cpu(i, "stopped heartbeating");
                    }
                } else {
                    self.cpus[i].silent_slices = 0;
                }
            }
            self.watchdog_sweep();
            for c in self.cpu_probation_tick() {
                halted[c] = false;
            }
            self.pump_trace();
            if let Some(w) = self.watched_exit() {
                return RunExit::Breakpoint(w);
            }
        }
    }

    /// The watched thread, once it has exited.
    fn watched_exit(&self) -> Option<Tid> {
        self.watch_exit.filter(|w| self.exited.contains(w))
    }

    // --- Work stealing ------------------------------------------------------

    /// Move ready threads from overloaded CPUs to starved ones through
    /// the shared steal pool. Runs between slices, with every CPU parked
    /// at a safe point, so the chain surgery is host-side; the transfer
    /// medium is the optimistic MP-MC queue (Section 3's claim that the
    /// single-CPU lock-free queues carry to multiprocessors unchanged).
    fn rebalance(&mut self) {
        if self.cpus.len() == 1 {
            return;
        }
        for thief in 0..self.cpus.len() {
            if self.cpus[thief].quarantined || !self.cpu_starved(thief) {
                continue;
            }
            if self.steal_pool.len_hint() == 0 && !self.offload_from_victim(thief) {
                continue;
            }
            self.steal_for(thief);
        }
    }

    /// Whether CPU `cpu` has nothing real to run: no non-idle thread in
    /// its chain and no real thread current on it.
    fn cpu_starved(&self, cpu: usize) -> bool {
        let idle = self.cpus[cpu].idle_tid;
        let len = self.cpus[cpu].ready.len();
        let chain_empty = len == 0 || (len == 1 && self.cpus[cpu].ready.contains(idle));
        let cur_idle = self.current_tid_on(cpu).is_none_or(|t| self.is_idle(t));
        chain_empty && cur_idle
    }

    /// Ready, non-current, non-idle, non-quarantined threads in `cpu`'s
    /// chain — the ones another CPU could run right now.
    fn surplus_tids(&self, cpu: usize) -> Vec<Tid> {
        let cur = self.current_tid_on(cpu);
        self.cpus[cpu]
            .ready
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|&id| {
                Some(id) != cur
                    && !self.is_idle(id)
                    && !self.quarantined_tids.contains(&id)
                    && self
                        .threads
                        .get(&id)
                        .is_some_and(|t| matches!(t.state, ThreadState::Ready))
            })
            .collect()
    }

    /// Detach one surplus ready thread from the most loaded CPU and
    /// offer it into the steal pool. Returns whether anything was
    /// offered.
    fn offload_from_victim(&mut self, thief: usize) -> bool {
        let mut best: Option<(Vec<Tid>, usize)> = None; // (surplus, cpu)
        for v in 0..self.cpus.len() {
            if v == thief || self.cpus[v].quarantined {
                continue;
            }
            let surplus = self.surplus_tids(v);
            if !surplus.is_empty() && best.as_ref().is_none_or(|(s, _)| surplus.len() > s.len()) {
                best = Some((surplus, v));
            }
        }
        let Some((surplus, victim)) = best else {
            return false;
        };
        let tid = surplus[0];
        // Offer first: a full pool leaves the thread where it is.
        if self.steal_pool.offer(tid).is_err() || self.dequeue_into_pool(tid).is_err() {
            return false;
        }
        self.cpus[victim].offloads += 1;
        true
    }

    /// Pull one pooled thread onto `thief`'s ready chain.
    fn steal_for(&mut self, thief: usize) {
        while let Some(tid) = self.steal_pool.steal() {
            // The pool may hold stale hints (stopped or destroyed after
            // being offered); membership in `pooled` is authoritative.
            if !self.pooled.remove(&tid) {
                continue;
            }
            // A quarantined thread must never land on another CPU's
            // chain, even if it was pooled before the watchdog acted.
            if self.quarantined_tids.contains(&tid) {
                continue;
            }
            let ready = self
                .threads
                .get(&tid)
                .is_some_and(|t| matches!(t.state, ThreadState::Ready));
            if !ready || self.enqueue(thief, tid).is_err() {
                continue;
            }
            self.cpus[thief].steals += 1;
            crate::trace!(
                self,
                tid,
                crate::trace::Kind::Steal,
                u32::try_from(thief).unwrap_or(0),
                0
            );
            return;
        }
    }

    /// Try to recover from a fatal machine error by reaping the thread
    /// that caused it: a double fault (the thread corrupted its own
    /// vector table or stack) or a wild jump out of code space is the
    /// thread's doing, so the kernel destroys it, resplices the ready
    /// chain, and keeps running. Errors the kernel cannot pin on the
    /// current thread — or that hit the idle thread, whose state only the
    /// kernel writes — are returned as fatal.
    fn recover_machine_error(&mut self, e: quamachine::error::MachineError) -> Result<(), RunExit> {
        use quamachine::error::MachineError;
        let guest_attributable = matches!(
            e,
            MachineError::DoubleFault(..) | MachineError::BadCodeAddress(_)
        );
        if !guest_attributable {
            return Err(RunExit::Error(e));
        }
        let idle_context = self.current_tid().is_none_or(|t| self.is_idle(t));
        if idle_context && self.cpus.len() > 1 {
            // An idle-context fault on a multiprocessor is the CPU
            // domain's doing: only the kernel and the dispatch hardware
            // write the idle thread's state, so a corrupted idle means a
            // corrupted dispatch (the fault plan's sick-CPU class, or
            // real hardware rot). Charge the CPU's fault budget, re-arm
            // its idle context, and keep the other CPUs running; past
            // the budget, quarantine the CPU. On the last healthy CPU
            // the quarantine is refused and the error stays fatal, as on
            // a uniprocessor.
            let cpu = self.m.active_cpu();
            self.cpus[cpu].fault_events += 1;
            self.recovery_log.push((
                self.cpus[cpu].idle_tid,
                format!("cpu {cpu} dispatch fault: {e}"),
            ));
            if self.cpus[cpu].fault_events > CPU_FAULT_LIMIT {
                if self.quarantine_cpu(cpu, "fault budget exceeded") {
                    return Ok(());
                }
                return Err(RunExit::Error(e));
            }
            let idle = self.cpus[cpu].idle_tid;
            self.enter(idle);
            return Ok(());
        }
        let Some(tid) = self.current_tid() else {
            return Err(RunExit::Error(e));
        };
        if self.is_idle(tid) {
            return Err(RunExit::Error(e));
        }
        self.recovery_log.push((tid, format!("reaped: {e}")));
        self.recovery.reaped.tick();
        self.pump_trace();
        crate::trace!(
            self,
            tid,
            crate::trace::Kind::Recovery,
            crate::trace::REC_REAP,
            0
        );
        if self.destroy(tid).is_err() {
            return Err(RunExit::Error(e));
        }
        Ok(())
    }

    /// Compare each thread's error-fault count against its last-sweep
    /// baseline; a thread that burned through more than
    /// [`WATCHDOG_FAULT_LIMIT`] faults in one sweep is stuck re-faulting
    /// (its handler retries without fixing the cause) and gets
    /// quarantined: stopped now, and refused by [`Kernel::start`] forever.
    fn watchdog_sweep(&mut self) {
        let counts: Vec<(Tid, u64)> = self
            .m
            .meter
            .error_faults
            .iter()
            .filter_map(|(vbr, &n)| self.vbr_to_tid.get(vbr).map(|&tid| (tid, n)))
            .collect();
        for (tid, n) in counts {
            let base = self.watchdog_marks.insert(tid, n).unwrap_or(0);
            let delta = n.saturating_sub(base);
            if delta > WATCHDOG_FAULT_LIMIT
                && !self.is_idle(tid)
                && !self.quarantined_tids.contains(&tid)
            {
                self.quarantine(tid, &format!("{delta} faults in one sweep"));
            }
        }
    }

    /// Quarantine `tid`: stopped now, refused by [`Kernel::start`]
    /// forever, and skipped by the fine-grain scheduler's adaptation.
    /// This is the watchdog's action made available to supervisors that
    /// learn of a misbehaving thread through some other channel.
    /// Quarantining an already-quarantined thread is a no-op.
    pub fn quarantine(&mut self, tid: Tid, reason: &str) {
        if !self.quarantined_tids.insert(tid) {
            return;
        }
        self.recovery.quarantined.tick();
        self.recovery_log
            .push((tid, format!("quarantined: {reason}")));
        crate::trace!(
            self,
            tid,
            crate::trace::Kind::Recovery,
            crate::trace::REC_QUARANTINE,
            0
        );
        // A storming thread is runnable by definition; if stop fails the
        // thread is already off the ready chain and the quarantine flag
        // alone keeps it from coming back.
        let _ = self.stop(tid);
    }

    /// Whether the watchdog has quarantined `tid`.
    #[must_use]
    pub fn is_quarantined(&self, tid: Tid) -> bool {
        self.quarantined_tids.contains(&tid)
    }

    // --- CPU quarantine -----------------------------------------------------

    /// Whether the cross-CPU watchdog has quarantined CPU `cpu`.
    #[must_use]
    pub fn is_cpu_quarantined(&self, cpu: usize) -> bool {
        self.cpus.get(cpu).is_some_and(|c| c.quarantined)
    }

    /// The lowest-numbered CPU still in service, if any.
    fn first_healthy_cpu(&self) -> Option<usize> {
        (0..self.cpus.len()).find(|&i| !self.cpus[i].quarantined)
    }

    /// Checkpoint whatever is current on `cpu` and park the CPU's
    /// context so nothing identifies a thread as current there any more.
    /// A context the dispatch fault already corrupted (its PC sitting at
    /// the wild-jump sentinel) is *not* saved — the thread's TTE keeps
    /// its last good switch-out state, which is what a healthy CPU will
    /// resume from.
    fn park_cpu_context(&mut self, cpu: usize) {
        let cur = self.current_tid_on(cpu);
        if cur.is_some_and(|t| !self.is_idle(t))
            && self.m.cpu_ref(cpu).pc != quamachine::machine::SICK_WILD_PC
        {
            if self.m.active_cpu() == cpu {
                self.ensure_safe_point();
            }
            self.suspend_state_of(cpu);
        }
        let slot = self.m.cpu_mut(cpu);
        slot.vbr = 0; // no thread is current here any more
        slot.pc = 0; // never fetched while the CPU is out of service
    }

    /// Quarantine CPU `cpu`: evacuate its ready chain onto the healthy
    /// CPUs, re-home every thread that called it home, re-route device
    /// interrupts and pending event timelines off it, and stop
    /// dispatching it. Probation re-admits it after a widening number of
    /// watchdog sweeps until [`CPU_MAX_STRIKES`] strikes put it out for
    /// good. Returns `false` — and does nothing — for an unknown or
    /// already-quarantined CPU, or when `cpu` is the last healthy CPU
    /// (the kernel never quarantines itself out of existence).
    pub fn quarantine_cpu(&mut self, cpu: usize, reason: &str) -> bool {
        if cpu >= self.cpus.len() || self.cpus[cpu].quarantined {
            return false;
        }
        let healthy: Vec<usize> = (0..self.cpus.len())
            .filter(|&i| i != cpu && !self.cpus[i].quarantined)
            .collect();
        let Some(&target) = healthy.first() else {
            return false;
        };
        self.park_cpu_context(cpu);
        self.cpus[cpu].quarantined = true;

        // Evacuate the ready chain: each runnable thread moves onto a
        // healthy CPU's chain by the same dequeue/enqueue the work
        // stealer uses. Quarantined *threads* stay put — their chain
        // entry is removed but never re-inserted anywhere.
        let idle = self.cpus[cpu].idle_tid;
        let evacuees: Vec<Tid> = self.cpus[cpu]
            .ready
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|&t| t != idle)
            .collect();
        let mut moved = 0u32;
        for (n, tid) in evacuees.into_iter().enumerate() {
            if self.dequeue(tid).is_err() || self.quarantined_tids.contains(&tid) {
                continue;
            }
            if self.enqueue(healthy[n % healthy.len()], tid).is_ok() {
                moved += 1;
                self.recovery.threads_evacuated.tick();
            }
        }
        // Blocked, stopped, and pooled threads that called this CPU home
        // wake onto healthy chains instead.
        let rehome: Vec<Tid> = self
            .threads
            .iter()
            .filter(|(&t, th)| {
                th.cpu == cpu && !self.is_idle(t) && !self.quarantined_tids.contains(&t)
            })
            .map(|(&t, _)| t)
            .collect();
        for (n, tid) in rehome.into_iter().enumerate() {
            self.threads.get_mut(&tid).expect("exists").cpu = healthy[n % healthy.len()];
        }
        // Device interrupts and pending event timelines must not target
        // a CPU that will never run again.
        if self.m.irq.route() == cpu {
            self.m.irq.reroute_devices(target);
        }
        let from_now = self.m.cpu_cycles(cpu);
        let to_now = self.m.cpu_cycles(target);
        self.m.events.migrate_cpu(cpu, target, from_now, to_now);

        self.cpus[cpu].strikes += 1;
        self.cpus[cpu].probation_at = if self.cpus[cpu].strikes > CPU_MAX_STRIKES {
            None
        } else {
            Some(self.sweep_count + (CPU_PROBATION_SWEEPS << (self.cpus[cpu].strikes - 1).min(16)))
        };
        self.recovery.cpus_quarantined.tick();
        self.recovery_log.push((
            idle,
            format!("cpu {cpu} quarantined: {reason} ({moved} threads evacuated)"),
        ));
        crate::trace!(
            self,
            idle,
            crate::trace::Kind::CpuQuarantine,
            u32::try_from(cpu).unwrap_or(0),
            moved
        );
        self.kick(target);
        true
    }

    /// Re-admit a quarantined CPU: clear its fault accounting, raise its
    /// frozen clock to the healthy CPUs' so it does not monopolize the
    /// most-behind rotation, and point its context back at its idle
    /// thread. A CPU that is still sick will fail its fault budget again
    /// and be re-quarantined with a longer probation.
    fn resume_cpu(&mut self, cpu: usize) {
        if cpu >= self.cpus.len() || !self.cpus[cpu].quarantined {
            return;
        }
        self.cpus[cpu].quarantined = false;
        self.cpus[cpu].fault_events = 0;
        self.cpus[cpu].silent_slices = 0;
        self.cpus[cpu].probation_at = None;
        let clock = (0..self.cpus.len())
            .filter(|&i| i != cpu && !self.cpus[i].quarantined)
            .map(|i| self.m.cpu_cycles(i))
            .max();
        if self.m.active_cpu() != cpu {
            self.m.switch_cpu(cpu);
        }
        if let Some(cl) = clock {
            self.m.meter.cycles = self.m.meter.cycles.max(cl);
        }
        let idle = self.cpus[cpu].idle_tid;
        self.enter(idle);
        self.recovery.cpus_resumed.tick();
        self.recovery_log
            .push((idle, format!("cpu {cpu} resumed from probation")));
        crate::trace!(
            self,
            idle,
            crate::trace::Kind::CpuResume,
            u32::try_from(cpu).unwrap_or(0),
            self.cpus[cpu].strikes
        );
    }

    /// Advance the probation clock one sweep and re-admit any quarantined
    /// CPU whose wait is up. Returns the CPUs resumed this sweep.
    fn cpu_probation_tick(&mut self) -> Vec<usize> {
        self.sweep_count += 1;
        let due: Vec<usize> = (0..self.cpus.len())
            .filter(|&c| {
                self.cpus[c].quarantined
                    && self.cpus[c]
                        .probation_at
                        .is_some_and(|d| self.sweep_count >= d)
            })
            .collect();
        for &c in &due {
            self.resume_cpu(c);
        }
        due
    }

    /// Run until thread `tid` exits (or the cycle budget is spent).
    /// Returns `true` if it exited.
    pub fn run_until_exit(&mut self, tid: Tid, max_cycles: u64) -> bool {
        let deadline = self.m.meter.cycles.saturating_add(max_cycles);
        let prev_watch = self.watch_exit.replace(tid);
        while !self.exited.contains(&tid) && self.m.meter.cycles < deadline {
            match self.run(deadline - self.m.meter.cycles) {
                RunExit::CycleLimit => break,
                RunExit::KCall(_) => break, // unowned kcall with no embedder
                RunExit::Halted => break,
                // A watched-exit notification (or a debugger breakpoint):
                // re-check the loop condition.
                RunExit::Breakpoint(_) => {}
                // Guest-attributable faults were already recovered inside
                // `run`; anything surfacing here is a kernel/embedder bug
                // and ends the run (the caller sees `false`).
                RunExit::Error(_) => break,
            }
        }
        self.watch_exit = prev_watch;
        self.exited.contains(&tid)
    }

    /// Service one kernel call; `false` means the selector is not ours.
    #[allow(clippy::too_many_lines)]
    fn handle_kcall(&mut self, sel: u16) -> bool {
        match sel {
            kcalls::GENERAL => {
                let call = self.m.cpu.d[0];
                self.general_call(call);
            }
            kcalls::SET_MAP => {
                let tid = self.m.cpu.d[0];
                if let Some(t) = self.threads.get(&tid) {
                    self.m.mem.map = t.map.clone();
                }
                let c = charges::kcall_overhead(&self.m.cost);
                self.m.charge(c);
            }
            kcalls::FP_RESYNTH => {
                self.fp_resynthesize();
            }
            kcalls::ALARM => {
                self.alarm_pending = false;
                self.wake(WaitObject::Alarm);
            }
            kcalls::AD_ADVANCE => {
                // Device servers built on the specialized A/D handlers
                // register themselves via the audio-server module; the
                // default kernel just acknowledges.
                let c = charges::kcall_overhead(&self.m.cost);
                self.m.charge(c);
            }
            kcalls::DISK_DONE => {
                let addr = dev_reg_addr(self.dev.disk, quamachine::devices::disk::REG_STATUS);
                let _ = self.m.host_reg_read(addr); // acknowledge
                match self.disk_sched.on_complete(&mut self.m) {
                    Some(DiskOutcome::Done(req)) => {
                        crate::trace!(
                            self,
                            self.trace_tid(),
                            crate::trace::Kind::QueueGet,
                            crate::trace::QCLASS_DISK,
                            req.sector
                        );
                        self.disk_results.insert(req.cookie, Ok(req));
                        self.wake(WaitObject::Disk);
                    }
                    // Re-issued with backoff; waiters stay asleep until
                    // the retry completes one way or the other.
                    Some(DiskOutcome::Retrying { .. }) => {}
                    Some(DiskOutcome::Failed(req)) => {
                        crate::trace!(
                            self,
                            self.trace_tid(),
                            crate::trace::Kind::Recovery,
                            crate::trace::REC_IO_ERROR,
                            req.sector
                        );
                        self.disk_results.insert(req.cookie, Err(errno::EIO));
                        self.recovery.io_errors.tick();
                        self.wake(WaitObject::Disk);
                    }
                    // A completion with nothing in flight (e.g. a raw
                    // device user bypassing the scheduler): just wake.
                    None => self.wake(WaitObject::Disk),
                }
            }
            kcalls::WAIT_TTY => {
                // Re-check under the "lock" (host atomicity) to avoid a
                // lost wakeup between the guest's test and the kcall.
                if self.tty_srv.available(&self.m) == 0 {
                    self.block_current(WaitObject::TtyInput);
                }
            }
            kcalls::WAIT_PIPE_DATA => {
                let pid = self.m.cpu.d[2];
                let empty = self
                    .pipes
                    .get(pid as usize)
                    .is_some_and(|p| p.available(&self.m) == 0);
                if empty {
                    self.block_current(WaitObject::PipeData(pid));
                }
            }
            kcalls::WAIT_PIPE_SPACE => {
                let pid = self.m.cpu.d[2];
                let full = self
                    .pipes
                    .get(pid as usize)
                    .is_some_and(|p| p.space(&self.m) == 0);
                if full {
                    self.block_current(WaitObject::PipeSpace(pid));
                }
            }
            kcalls::WAKE_TTY => {
                crate::trace!(
                    self,
                    self.trace_tid(),
                    crate::trace::Kind::QueuePut,
                    crate::trace::QCLASS_TTY,
                    0
                );
                self.wake(WaitObject::TtyInput);
            }
            kcalls::WAKE_PIPE_DATA => {
                let pid = self.m.cpu.d[2];
                crate::trace!(
                    self,
                    self.trace_tid(),
                    crate::trace::Kind::QueuePut,
                    crate::trace::QCLASS_PIPE,
                    pid
                );
                self.wake(WaitObject::PipeData(pid));
            }
            kcalls::WAKE_PIPE_SPACE => {
                let pid = self.m.cpu.d[2];
                crate::trace!(
                    self,
                    self.trace_tid(),
                    crate::trace::Kind::QueueGet,
                    crate::trace::QCLASS_PIPE,
                    pid
                );
                self.wake(WaitObject::PipeSpace(pid));
            }
            _ => return false,
        }
        true
    }

    /// The general kernel call (trap #0).
    fn general_call(&mut self, call: u32) {
        let d1 = self.m.cpu.d[1];
        let d2 = self.m.cpu.d[2];
        let a0 = self.m.cpu.a[0];
        let c = charges::kcall_overhead(&self.m.cost);
        self.m.charge(c);
        let status = |r: Result<(), KernelError>| r.map_or(-i64::from(errno::EINVAL), |()| 0);
        let neg = |e: u32| -i64::from(e);
        let result: i64 = match call {
            general::EXIT => {
                if let Some(tid) = self.current_tid() {
                    let _ = self.destroy(tid);
                }
                0
            }
            general::THREAD_CREATE => {
                let map = self
                    .current_tid()
                    .map(|t| self.threads[&t].map.clone())
                    .unwrap_or_default();
                match self.create_thread(d1, d2, map) {
                    Ok(tid) => i64::from(tid),
                    Err(_) => -i64::from(errno::ENOMEM),
                }
            }
            general::THREAD_START => status(self.start(d1)),
            general::THREAD_STOP => status(self.stop(d1)),
            general::THREAD_DESTROY => status(self.destroy(d1)),
            general::SIGNAL => status(self.signal_from_kcall(d1, d2)),
            general::OPEN => match self.read_user_string(a0) {
                Ok(path) => self.open(&path).map_or_else(neg, i64::from),
                Err(e) => -i64::from(e),
            },
            general::CLOSE => self.close(d1).map_or_else(neg, |()| 0),
            general::YIELD => {
                self.yield_current();
                0
            }
            general::GETTID => i64::from(self.current_tid().unwrap_or(0)),
            general::SET_SIG_HANDLER => {
                if let Some(tid) = self.current_tid() {
                    let tte = self.threads[&tid].tte;
                    self.m.mem.poke(tte + off::SIG_HANDLER, Size::L, d1);
                }
                0
            }
            general::SIG_RETURN => {
                if let Some(tid) = self.current_tid() {
                    if let Some((regs, usp)) = self.sig_stash.remove(&tid) {
                        self.m.cpu.d.copy_from_slice(&regs[..8]);
                        self.m.cpu.a[..7].copy_from_slice(&regs[8..]);
                        self.m.cpu.set_usp(usp);
                    }
                    // Drop the handler's trap frame; the original frame
                    // (or the parked PC) sits right above it.
                    let sp = self.m.cpu.a[7];
                    let tte = self.threads[&tid].tte;
                    let parked = self.m.mem.peek(tte + off::SIG_PC, Size::L);
                    if parked != 0 {
                        // Signal was delivered to a running thread: reuse
                        // this frame, restoring the parked PC.
                        self.m.mem.poke(sp + 2, Size::L, parked);
                        self.m.mem.poke(tte + off::SIG_PC, Size::L, 0);
                    } else {
                        // Parked-thread delivery: discard this frame.
                        self.m.cpu.a[7] = sp + 6;
                    }
                }
                return; // d0 intentionally preserved from the stash
            }
            general::PIPE => self
                .pipe()
                .map_or_else(neg, |(rfd, wfd)| i64::from((rfd << 8) | wfd)),
            general::SET_ALARM => {
                self.set_alarm(d1);
                0
            }
            general::WAIT_ALARM => {
                if self.alarm_pending {
                    self.block_current(WaitObject::Alarm);
                }
                0
            }
            general::PUTC => {
                self.console.push(d1 as u8);
                0
            }
            general::SEEK => self.seek(d1, d2),
            _ => -i64::from(errno::EINVAL),
        };
        self.m.cpu.d[0] = result as u32;
    }

    fn yield_current(&mut self) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        self.suspend_current_state();
        // Enter the next thread in this CPU's chain after us.
        let cpu = self.home_cpu(tid);
        if let Some(next) = self.cpus[cpu].ready.next_of_id(tid) {
            if next.id != tid {
                self.enter(next.id);
            }
        }
    }

    /// Program a one-shot alarm `us` µs from now (Table 5: set alarm).
    pub fn set_alarm(&mut self, us: u32) {
        self.alarm_pending = true;
        let addr = dev_reg_addr(self.dev.alarm, timer_regs::REG_ALARM_US);
        self.m.host_reg_write(addr, us);
        let c = charges::kcall_overhead(&self.m.cost);
        self.m.charge(c);
    }

    // --- Lazy FP -------------------------------------------------------------

    /// Resynthesize the current thread's switch code onto the FP variant
    /// (Section 4.2: invoked from the coprocessor-unavailable trap).
    fn fp_resynthesize(&mut self) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        let t = &self.threads[&tid];
        if t.uses_fp {
            self.m.cpu.fpu_enabled = true; // already resynthesized
            return;
        }
        let (tte, vt, quantum, old_sw) = (t.tte, t.vt, t.quantum_us, t.sw.clone());
        // The chain node names the old code's jmp: leave the chain
        // before that code goes, rejoin once the new code is in.
        let cpu = self.home_cpu(tid);
        let in_chain = self.cpus[cpu].ready.contains(tid);
        if in_chain {
            let _ = self.dequeue(tid);
        }
        self.sw_extents.remove(&old_sw.base);
        self.creator.destroy(&mut self.m, &old_sw);
        let sw = match self.synth_switch(tid, tte, vt, quantum, true) {
            Ok(sw) => sw,
            Err(_) => {
                // Code space is exhausted: the thread asked for FP it
                // cannot have. Reap it instead of taking the kernel down
                // — its old switch code is already destroyed, so it
                // cannot be resumed either.
                self.recovery_log
                    .push((tid, "reaped: FP resynthesis failed".to_string()));
                self.recovery.reaped.tick();
                let _ = self.destroy(tid);
                return;
            }
        };
        let (sw_out, ipi_in, sw_in, sw_in_mmu, jmp_at) = Kernel::switch_entries(&self.m, &sw);
        self.sw_extents.insert(sw.base, sw.base + sw.size);
        {
            let t = self.threads.get_mut(&tid).expect("exists");
            t.sw = sw;
            t.sw_out = sw_out;
            t.sw_in = sw_in;
            t.sw_in_mmu = sw_in_mmu;
            t.jmp_at = jmp_at;
            t.uses_fp = true;
        }
        // The timer vector must point at the NEW sw_out.
        self.m.mem.poke(
            vt + 4 * (24 + u32::from(irq_levels::QUANTUM)),
            Size::L,
            sw_out,
        );
        if self.m.num_cpus() > 1 {
            self.m
                .mem
                .poke(vt + 4 * (24 + u32::from(irq_levels::IPI)), Size::L, ipi_in);
        }
        if in_chain {
            let _ = self.enqueue(cpu, tid);
        }
        self.m.cpu.fpu_enabled = true;
    }

    // --- Misc host services ---------------------------------------------------

    /// Load a user program assembled by the embedder; returns its entry.
    ///
    /// # Errors
    ///
    /// Fails on code-space exhaustion or overlap.
    pub fn load_user_program(
        &mut self,
        block: quamachine::code::CodeBlock,
    ) -> Result<u32, KernelError> {
        let size = block.size_bytes();
        let base = self
            .creator
            .codebuf
            .alloc(size)
            .map_err(SynthError::CodeBuf)?;
        self.m.load_block(base, block)?;
        Ok(base)
    }

    /// Raise a guest-visible exception on the current thread (testing and
    /// emulation support).
    ///
    /// # Errors
    ///
    /// Propagates double faults.
    pub fn inject_exception(&mut self, e: Exception) -> Result<(), KernelError> {
        let pc = self.m.cpu.pc;
        self.m.take_exception(e, pc)?;
        Ok(())
    }

    /// Create a file whose contents are loaded from the disk through the
    /// Section 5.1 pipeline: the raw disk server DMAs sectors straight
    /// into the file's cache buffer under the disk scheduler, and the
    /// machine's virtual time advances by the modelled seek, rotation,
    /// and transfer latency.
    ///
    /// `len` is rounded up to whole sectors for the transfer; the file's
    /// length is set to `len`.
    ///
    /// # Errors
    ///
    /// Fails on heap exhaustion, with [`KernelError::Io`] when the
    /// sectors are quarantined or the scheduler's retries are exhausted,
    /// or if the disk never completes (a bug).
    pub fn load_file_from_disk(
        &mut self,
        name: &str,
        sector: u32,
        len: u32,
    ) -> Result<u32, KernelError> {
        use quamachine::devices::disk::SECTOR_SIZE;
        let sectors = len.div_ceil(SECTOR_SIZE);
        let cap = (sectors * SECTOR_SIZE).max(SECTOR_SIZE);
        let fid = self
            .fs
            .create(&mut self.m, &mut self.heap, name, cap)
            .map_err(|_| KernelError::NoMem)?;
        let f = self.fs.file(fid).expect("just created");
        let (buf, len_slot) = (f.buf, f.len_slot);

        let req = DiskRequest {
            sector,
            count: sectors,
            addr: buf,
            read: true,
            cookie: u32::MAX, // boot-time load; nothing waits on a cookie
        };
        if self.disk_sched.submit(&mut self.m, req).is_err() {
            self.recovery.io_errors.tick();
            return Err(KernelError::Io("sectors quarantined"));
        }
        // Wait for completion: advance virtual time through the event
        // queue and poll the controller's STATUS (which also acknowledges
        // the interrupt). Boot-time load; no thread runs meanwhile.
        // Transient errors are retried by the scheduler with backoff, so
        // the loop keeps driving until a final outcome.
        let status_reg = dev_reg_addr(self.dev.disk, quamachine::devices::disk::REG_STATUS);
        let mut guard = 0;
        loop {
            self.m.process_events();
            let status = self.m.host_reg_read(status_reg);
            if status & quamachine::devices::disk::STATUS_DONE != 0 {
                self.m.irq.clear(irq_levels::DISK);
                match self.disk_sched.on_complete(&mut self.m) {
                    Some(DiskOutcome::Done(_)) => break,
                    Some(DiskOutcome::Failed(_)) => {
                        self.recovery.io_errors.tick();
                        return Err(KernelError::Io("disk retries exhausted"));
                    }
                    Some(DiskOutcome::Retrying { .. }) | None => {}
                }
            }
            match self.m.events.next_due() {
                Some(t) => {
                    self.m.meter.cycles = self.m.meter.cycles.max(t).max(self.m.meter.cycles + 1)
                }
                None => return Err(KernelError::Invalid("disk never completed")),
            }
            guard += 1;
            if guard > 1_000_000 {
                return Err(KernelError::Invalid("disk wait guard tripped"));
            }
        }
        self.m.mem.poke(len_slot, Size::L, len);
        Ok(fid)
    }

    /// Submit a request through the kernel's disk scheduler. The
    /// completion lands in [`Kernel::disk_take_result`] under the
    /// request's cookie, and `WaitObject::Disk` waiters are woken when it
    /// does (retries in between do not wake anyone).
    ///
    /// # Errors
    ///
    /// `Err(errno::EIO)` immediately when the range touches a
    /// quarantined sector — known-bad hardware is not worth a wait.
    pub fn disk_submit(&mut self, req: DiskRequest) -> Result<(), i32> {
        #[allow(unused_variables)]
        let sector = req.sector;
        match self.disk_sched.submit(&mut self.m, req) {
            Ok(()) => {
                crate::trace!(
                    self,
                    self.trace_tid(),
                    crate::trace::Kind::QueuePut,
                    crate::trace::QCLASS_DISK,
                    sector
                );
                Ok(())
            }
            Err(_) => {
                crate::trace!(
                    self,
                    self.trace_tid(),
                    crate::trace::Kind::Recovery,
                    crate::trace::REC_IO_ERROR,
                    sector
                );
                self.recovery.io_errors.tick();
                Err(errno::EIO)
            }
        }
    }

    /// Take the recorded outcome of the disk request submitted with
    /// `cookie`, if it has reached one: `Ok(req)` on success, or
    /// `Err(errno::EIO)` when the scheduler gave up.
    pub fn disk_take_result(&mut self, cookie: u32) -> Option<Result<DiskRequest, i32>> {
        self.disk_results.remove(&cookie)
    }

    fn charge_alloc(&mut self) {
        let steps = self.heap.last_steps;
        let c = charges::alloc_op(&self.m.cost, steps);
        self.m.charge(c);
    }
}

/// The heap blocks a thread owns, in the order they are taken: TTE,
/// vector table, kernel stack.
const THREAD_BLOCKS: [u32; 3] = [
    layout::TTE_LEN,
    layout::VECTOR_TABLE_LEN,
    layout::KSTACK_LEN,
];

/// Top of a kernel stack (stacks grow down).
fn tte_frame_top(kstack: u32) -> u32 {
    kstack + layout::KSTACK_LEN
}
