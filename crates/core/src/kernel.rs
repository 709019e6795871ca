//! The Synthesis kernel: boot, threads, kernel calls, and the run loop.
//!
//! The kernel is host-side Rust that *generates and patches* the
//! simulated code that actually runs: synthesized context switches chain
//! the ready queue (Figure 3), synthesized `read`/`write` land behind
//! per-thread trap vectors (Section 5.3), and interrupt handlers feed
//! kernel queues. Cold bookkeeping reaches the host through `kcall`
//! hypercalls; a hypercall is free, and only the host work still priced
//! by a [`crate::charges`] formula adds cycles.
//!
//! This file is boot, the thread lifecycle and the run loop. Everything
//! the kernel knows about a thread is in its block (whose TTE names it:
//! [`Kernel::tid_at`]), its code or its [`Thread`] (but the machine's
//! fault count by its `vt`, dropped in [`Kernel::destroy`]), so removing
//! it from `threads` is the end of it. The rest has one owner each, a
//! submodule that opens with the invariant it keeps: `ready` (chain
//! membership, blocking and waking — everything here that makes a thread
//! runnable or not does it through `enqueue`/`dequeue`), `smp` (balancing
//! between CPUs), `recovery` (reaping, thread and CPU quarantine),
//! `kcall` (kernel-call dispatch and signals), `chan` (the code behind a
//! `(tid, fd)`), `tracepump` (whose ring an event lands in).

use std::collections::BTreeMap;
use std::sync::Arc;

use quamachine::devices::audio::Audio;
use quamachine::devices::null::NullDev;
use quamachine::devices::timer::Timer;
use quamachine::devices::tty::Tty;
use quamachine::devices::{dev_reg_addr, timer as timer_regs, tty as tty_regs};
use quamachine::isa::{Instr, Operand, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};
use quamachine::mem::AddressMap;
use synthesis_codegen::creator::{QuajectCreator, SynthError, SynthesisOptions, Synthesized};
use synthesis_codegen::execds::JumpChain;
use synthesis_codegen::hash::FoldMap;
use synthesis_codegen::template::Bindings;

use crate::alloc::fastfit::OutOfMemory;
use crate::alloc::FastFit;
use crate::charges;
use crate::fs::Fs;
use crate::io::pipe::Pipe;
use crate::io::tty::TtyServer;
use crate::layout;
use crate::syscall::general;
use crate::templates;
use crate::templates::ctxsw::SWITCH_TEMPLATES;
use crate::thread::tte::off;
use crate::thread::{Thread, ThreadState, Tid, TidSet, WaitObject};

mod chan;
mod kcall;
mod ready;
mod recovery;
mod smp;
mod tracepump;

pub use recovery::RecoveryGauges;
use recovery::WATCHDOG_SLICE;

/// Interrupt levels assigned to devices. Levels 2 and 7 are unassigned:
/// every thread's vector table aims them at `irq_spurious`.
pub mod irq_levels {
    /// Inter-processor reschedule interrupt (SMP only; every thread's
    /// IPI vector is its own switch-out, so an IPI *is* a reschedule).
    pub const IPI: u8 = 1;
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
    /// Initial per-thread CPU quantum in µs ("a typical quantum is on the
    /// order of a few hundred microseconds", Section 4.4).
    pub default_quantum_us: u32,
    /// Per-thread trace-ring capacity in records (see [`TraceSet`](crate::trace::TraceSet)).
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

/// The most CPUs a kernel boots with.
const MAX_CPUS: usize = 8;

/// CPU count from `SYNTHESIS_CPUS`, clamped to 1..=8; 1 if unset/garbage.
fn cpus_from_env() -> usize {
    std::env::var("SYNTHESIS_CPUS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.clamp(1, MAX_CPUS))
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
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
    /// `/dev/null`'s backing device.
    pub null: usize,
}

/// A synthesized block's entry points, as its plan shares them.
type EntryTable = Arc<[(String, u32)]>;

/// A switch block's entries and its chain `jmp`: the addresses of the
/// switch templates' marks ([`Kernel::switch_entries`]).
#[derive(Debug, Clone, Copy)]
pub struct SwitchEntries {
    /// The quantum vector's target; its code ends in the chain `jmp`.
    pub sw_out: u32,
    /// `sw_out` past the timer acknowledge: a blocking kernel call's exit.
    pub sw_save: u32,
    /// The IPI vector's target.
    pub ipi_in: u32,
    /// The switch-in a link from a thread with the same address map takes.
    pub sw_in: u32,
    /// The switch-in that installs the thread's address map first.
    pub sw_in_mmu: u32,
    /// The `jmp (abs).l` ending `sw_out`: the thread's ready-chain link.
    pub chain: u32,
}

/// The switch templates' marks, in [`SwitchEntries`] order.
const SWITCH_MARKS: [&str; 6] = ["sw_out", "sw_save", "ipi_in", "sw_in", "sw_in_mmu", "chain"];

/// The switch plans' mark offsets, each looked up by name once, when a
/// plan's first block is made, and found again by the entry table every
/// block of that plan shares.
#[derive(Debug, Default)]
struct SwitchPlans(Vec<(EntryTable, [u32; 6])>);

impl SwitchPlans {
    /// The entries of the switch block `sw`.
    fn entries(&self, sw: &Synthesized) -> SwitchEntries {
        let plan = self.0.iter().find(|(t, _)| Arc::ptr_eq(t, &sw.entries));
        let (_, offsets) = plan.expect("a switch block's plan is learned as the block is made");
        let [sw_out, sw_save, ipi_in, sw_in, sw_in_mmu, chain] = offsets.map(|o| sw.base + o);
        SwitchEntries {
            sw_out,
            sw_save,
            ipi_in,
            sw_in,
            sw_in_mmu,
            chain,
        }
    }

    /// Learn the marks of `sw`'s plan, unless they are known.
    fn learn(&mut self, sw: &Synthesized) {
        if !self.0.iter().any(|(t, _)| Arc::ptr_eq(t, &sw.entries)) {
            let at = |mark| sw.entry(mark).expect("the switch templates mark it") - sw.base;
            self.0.push((Arc::clone(&sw.entries), SWITCH_MARKS.map(at)));
        }
    }
}

/// The bindings of the four private code blocks of a thread, by template:
/// the switch, the two trap dispatchers (one table, `fdtable`), the error
/// handler. What is the same for every thread is bound at boot.
#[derive(Debug)]
struct ThreadBindings {
    switch: Bindings,
    fdtable: Bindings,
    error: Bindings,
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
        }
    }
}

impl std::error::Error for KernelError {}

/// One kernel CPU: its executable ready queue, its idle thread, and its
/// scheduling counters.
///
/// Each CPU's ready queue stays an *executable data structure* — the
/// circular chain of `jmp` instructions threaded through the TTEs
/// (Figure 3) — exactly as on the uniprocessor; only the *balancing*
/// between CPUs crosses chains (the `smp` submodule).
#[derive(Debug)]
pub struct KCpu {
    /// This CPU's executable ready queue (TTE `jmp` chain).
    pub ready: JumpChain,
    /// This CPU's idle thread.
    pub idle_tid: Tid,
    /// Threads this CPU stole from another CPU's chain.
    pub steals: u64,
    /// Threads stolen from this CPU's chain.
    pub offloads: u64,
    /// Slice cycles this CPU slept, as [`Machine::halted_cycles`] counts.
    pub idle_cycles: u64,
    /// The rest of its slice cycles: executing, whichever thread.
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
    /// Kernel pipes by id: `None` once the last fd naming one closed
    /// and its ring was freed ([`Kernel::live_pipe`]), until the next
    /// [`Kernel::pipe_for`] reuses the lowest such id.
    pub pipes: Vec<Option<Pipe>>,
    /// The synthesis options every block is made with: always
    /// [`SynthesisOptions::full`]; read by the benchmark's codegen probe.
    pub opts: SynthesisOptions,
    /// Default quantum for new threads.
    pub default_quantum_us: u32,
    /// Console output collected from `PUTC`.
    pub console: Vec<u8>,
    /// Threads that have exited.
    pub exited: TidSet,
    /// Recovery event counts (reaps, quarantines, CPU recovery).
    pub recovery: RecoveryGauges,
    /// Recovery log: threads reaped or quarantined, with the reason.
    pub recovery_log: Vec<(Tid, String)>,
    /// Kernel event trace: per-thread rings of fixed-size records, fed by
    /// [`Kernel::pump_trace`] and the [`trace!`](crate::trace!) hook.
    pub trace: crate::trace::TraceSet,
    /// The quaspace partition this kernel booted with.
    pub layout: layout::MemLayout,

    /// The shared `EBADF` routine a closed fd's slots name: the one piece
    /// of per-boot code the kernel names after boot (the rest is bound
    /// into the thread fill and the kept thread bindings).
    ebadf: u32,
    /// Where the switch plans put their marks: what
    /// [`Kernel::switch_entries`] adds a switch block's base to.
    switch_plans: SwitchPlans,
    /// The bindings of a thread's private code: every create rebinds the
    /// values in place, allocating nothing.
    thread_bindings: ThreadBindings,
    next_tid: Tid,
    /// Threads blocked on each wait object, in blocking order. Read and
    /// written only by the `ready` submodule.
    waiters: FoldMap<WaitObject, Vec<Tid>>,
    alarm_pending: bool,
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
    /// [`KernelError::Invalid`] if `cfg.cpus` is outside 1..=8; otherwise
    /// fails only if initial synthesis fails (a bug, not a runtime
    /// condition).
    pub fn boot(cfg: KernelConfig) -> Result<Kernel, KernelError> {
        let ncpus = cfg.cpus;
        if !(1..=MAX_CPUS).contains(&ncpus) {
            return Err(KernelError::Invalid("cpus must be 1..=8"));
        }
        // A scaled layout needs the physical memory to hold it.
        let mut m = Machine::new(MachineConfig {
            mem_size: cfg.layout.mem_size.max(layout::MEM_SIZE),
            cpus: ncpus,
            ..MachineConfig::sun3_emulation()
        });
        let timer = m.attach_device(Box::new(Timer::new(irq_levels::QUANTUM)));
        let alarm = m.attach_device(Box::new(Timer::new(irq_levels::ALARM)));
        let tty = m.attach_device(Box::new(Tty::new(irq_levels::TTY)));
        let audio = m.attach_device(Box::new(Audio::new(irq_levels::AUDIO)));
        let null = m.attach_device(Box::new(NullDev::new()));
        let dev = DeviceIdx {
            timer,
            alarm,
            tty,
            audio,
            null,
        };

        // Every data path's bulk copy calls these; shared, never unloaded.
        templates::copy::load_routines(&mut m)?;
        let mut creator = QuajectCreator::new(cfg.layout.code_base, cfg.layout.code_len);
        templates::install_all(&mut creator.lib);
        let trimmed = creator.cache.set_budget(CACHE_BUDGET);
        debug_assert!(trimmed.is_empty(), "empty cache trims nothing");

        let mut heap = FastFit::new(cfg.layout.heap_base, cfg.layout.heap_len);
        let tty_srv =
            TtyServer::allocate(&mut m, &mut heap, dev_reg_addr(tty, tty_regs::REG_DATA))?;

        // Shared handlers.
        let opts = SynthesisOptions::full();
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
        // The stub for every level no device owns.
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

        // Every thread's fill, with what every thread shares bound in;
        // and where a routine the host calls returns to.
        let shared = templates::thread_init::Shared {
            fp_trap,
            spurious,
            alarm: alarm_code,
            tty_rx,
            trampoline,
            ebadf,
        };
        let (fill, pool) = templates::thread_init::routine(&shared, ncpus);
        m.load_block(layout::THREAD_INIT, fill)?;
        m.load_block(layout::THREAD_FINI, templates::thread_init::fini())?;
        m.mem.poke(layout::THREAD_FREE, Size::L, 0);
        for (at, &long) in (layout::THREAD_INIT_POOL..).step_by(4).zip(&pool) {
            m.mem.poke(at, Size::L, long);
        }
        let host_return = {
            let mut a = quamachine::asm::Asm::new("host_return");
            a.halt();
            a.assemble().expect("assembles")
        };
        m.load_block(layout::HOST_RETURN, host_return)?;

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
            opts,
            default_quantum_us: cfg.default_quantum_us,
            console: Vec::new(),
            exited: TidSet::new(),
            recovery: RecoveryGauges::default(),
            recovery_log: Vec::new(),
            trace: crate::trace::TraceSet::new(cfg.trace_records),
            layout: cfg.layout,
            switch_plans: SwitchPlans::default(),
            thread_bindings: ThreadBindings {
                switch: Bindings::from_iter([
                    ("save", 0),
                    ("usp_slot", 0),
                    ("ssp_slot", 0),
                    ("vt", 0),
                    ("quantum", 0),
                    (
                        "timer_qreg",
                        dev_reg_addr(dev.timer, timer_regs::REG_QUANTUM_US),
                    ),
                    ("timer_ack", dev_reg_addr(dev.timer, timer_regs::REG_ACK)),
                    ("tid", 0),
                    ("next", 0),
                ]),
                fdtable: Bindings::from_iter([("fdtable", 0)]),
                error: Bindings::from_iter([("err_pc_slot", 0), ("handler", user_exit_stub)]),
            },
            ebadf,
            next_tid: 0,
            waiters: FoldMap::default(),
            alarm_pending: false,
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
            let t = &k.threads[&it];
            let (sw_in, vt) = (k.switch_entries(t).sw_in, t.vt());
            let slot = k.m.cpu_mut(cpu);
            slot.pc = sw_in;
            slot.vbr = vt;
            // Starting the idle kicked its (empty-looking) CPU; the
            // parked idle needs no boot-time reschedule.
            k.m.irq.clear_on(cpu, irq_levels::IPI);
        }
        // The CPUs ticked in lockstep through boot even though CPU 0 did
        // all the work; align the clocks so cross-CPU timestamps compare.
        k.m.catch_up_cpu_clocks();
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

        // The block the fill will pop, read first: the switch code binds
        // its addresses. Nothing is taken before the fill but the four
        // code blocks, recorded as they are taken (`Some`); a failure
        // anywhere gives them back here and leaves the block listed.
        let mut code: [Option<Synthesized>; 4] = Default::default();
        let filled = self.next_thread_block().and_then(|tte| {
            self.take_thread_code(tid, tte, &mut code)?;
            let [Some(sw), Some(read), Some(write), Some(error)] = &code else {
                unreachable!("every code block is taken")
            };
            let entries = self.switch_plans.entries(sw);
            // The image — TTE, fd table, stack pointers, the frame sw_in's
            // rte drops into `entry`, the vector table — is written by
            // running the fill (the paper's ~100 µs for ~1 KB), every cycle
            // counted; it pops `tte` off the free list first.
            let image = templates::thread_init::ThreadImage {
                tid,
                entry,
                user_sp,
                sr: initial_sr,
                sw_out: entries.sw_out,
                ipi_in: entries.ipi_in,
                dispatch_read: read.base,
                dispatch_write: write.base,
                error: error.base,
            };
            let next = self.m.mem.peek(tte, Size::L);
            self.call_routine(layout::THREAD_INIT, &image.regs())?;
            debug_assert_eq!(
                self.m.mem.peek(layout::THREAD_FREE, Size::L),
                next,
                "the fill popped a block other than {tte:#x}"
            );
            Ok(tte)
        });
        let tte = match filled {
            Ok(tte) => tte,
            Err(e) => {
                for s in code.iter().flatten() {
                    self.creator.destroy(&mut self.m, s);
                }
                return Err(e);
            }
        };
        let [sw, trap_read, trap_write, trap_error] = code.map(|s| s.expect("taken"));

        // Homed where it was created: the active CPU is never out of
        // service, since a quarantine hands the active role on.
        let home = self.m.active_cpu();
        let thread = Thread {
            tte,
            sw,
            trap_read,
            trap_write,
            trap_error,
            adopted: Vec::new(),
            state: ThreadState::Stopped,
            map,
            fds: Vec::new(),
            cpu: home,
            fault_mark: 0,
            quarantined: false,
        };
        self.threads.insert(tid, thread);
        Ok(tid)
    }

    /// The block the next thread creation fills: the free list's head,
    /// after growing the list by one block from the fast-fit heap if it is
    /// empty — the one allocation a create charges.
    fn next_thread_block(&mut self) -> Result<u32, KernelError> {
        let head = self.m.mem.peek(layout::THREAD_FREE, Size::L);
        if head != 0 {
            return Ok(head);
        }
        let block = self.heap.alloc(layout::THREAD_BLOCK_LEN)?;
        self.charge_alloc();
        self.push_thread_block(block)?;
        Ok(block)
    }

    /// Run the resident push of `block` onto the thread blocks' free list.
    fn push_thread_block(&mut self, block: u32) -> Result<(), KernelError> {
        let mut regs = templates::RoutineRegs::default();
        regs.a[0] = block;
        self.call_routine(layout::THREAD_FINI, &regs)
    }

    /// The thread blocks on the free list, head first.
    #[must_use]
    pub fn listed_thread_blocks(&self) -> Vec<u32> {
        let mut blocks = Vec::new();
        let mut at = self.m.mem.peek(layout::THREAD_FREE, Size::L);
        while at != 0 {
            blocks.push(at);
            at = self.m.mem.peek(at, Size::L);
        }
        blocks
    }

    /// Give every listed thread block back to the fast-fit heap, emptying
    /// the list; whether there was any. Only a heap allocation that failed
    /// calls this ([`Kernel::heap_retry`]): the list never shrinks on its
    /// own.
    fn reclaim_thread_blocks(&mut self) -> bool {
        let blocks = self.listed_thread_blocks();
        for &block in &blocks {
            self.heap.free(block, layout::THREAD_BLOCK_LEN);
        }
        self.m.mem.poke(layout::THREAD_FREE, Size::L, 0);
        !blocks.is_empty()
    }

    /// Run `alloc` against the kernel heap; if it fails while thread
    /// blocks are listed, give them back to the heap and run it once more.
    /// A failing `alloc` must leave the heap as it found it.
    pub(crate) fn heap_retry<T, E>(
        &mut self,
        mut alloc: impl FnMut(&mut Kernel) -> Result<T, E>,
    ) -> Result<T, E> {
        alloc(self).or_else(|e| {
            if self.reclaim_thread_blocks() {
                alloc(self)
            } else {
                Err(e)
            }
        })
    }

    /// `size` bytes of kernel heap, through [`Kernel::heap_retry`].
    pub(crate) fn heap_alloc(&mut self, size: u32) -> Result<u32, OutOfMemory> {
        self.heap_retry(|k| k.heap.alloc(size))
    }

    /// The fallible half of thread creation: the four private code blocks
    /// (switch, `trap #1`/`#2` dispatchers, error handler) for the thread
    /// block at `tte`, into `code`.
    fn take_thread_code(
        &mut self,
        tid: Tid,
        tte: u32,
        code: &mut [Option<Synthesized>; 4],
    ) -> Result<(), KernelError> {
        // Factorization + optimization: the per-thread switch code, then
        // the trap dispatchers and the error handler.
        let quantum = self.default_quantum_us;
        code[0] = Some(self.synth_switch(tid, tte, quantum, false)?);
        let kept = &mut self.thread_bindings;
        kept.fdtable.bind("fdtable", tte + off::FD_TABLE);
        kept.error.bind("err_pc_slot", tte + off::ERR_PC);
        let kept = &self.thread_bindings;
        for (slot, (name, b)) in code[1..].iter_mut().zip([
            ("dispatch_trap1", &kept.fdtable),
            ("dispatch_trap2", &kept.fdtable),
            ("trap_error", &kept.error),
        ]) {
            *slot = Some(self.creator.synthesize(&mut self.m, name, b, self.opts)?);
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

    /// Synthesize (or resynthesize) the context-switch code of the thread
    /// whose block is at `tte`, and learn its plan's marks if they are new.
    fn synth_switch(
        &mut self,
        tid: Tid,
        tte: u32,
        quantum: u32,
        fp: bool,
    ) -> Result<Synthesized, KernelError> {
        let b = &mut self.thread_bindings.switch;
        for (name, value) in [
            ("save", tte + off::REGS),
            ("usp_slot", tte + off::USP),
            ("ssp_slot", tte + off::SSP),
            ("vt", tte + layout::TTE_LEN),
            ("quantum", quantum),
            ("tid", tid),
        ] {
            b.bind(name, value);
        }
        let name = SWITCH_TEMPLATES[usize::from(fp)];
        let sw = if fp {
            let b = b.clone().with("fp_save", tte + off::FP);
            self.creator.synthesize(&mut self.m, name, &b, self.opts)?
        } else {
            let b = &self.thread_bindings.switch;
            self.creator.synthesize(&mut self.m, name, b, self.opts)?
        };
        self.switch_plans.learn(&sw);
        debug_assert!(
            matches!(
                self.m
                    .code
                    .locate(self.switch_plans.entries(&sw).chain)
                    .and_then(|l| self.m.code.instr(l)),
                Some(Instr::Jmp(Operand::Abs(_)))
            ),
            "the `chain` mark names the switch's `jmp (abs).l`"
        );
        Ok(sw)
    }

    /// The entries and chain `jmp` of `t`'s switch code: its base plus
    /// its plan's mark offsets.
    #[must_use]
    pub fn switch_entries(&self, t: &Thread) -> SwitchEntries {
        self.switch_plans.entries(&t.sw)
    }

    /// Install a handler address into a thread's vector table (used by
    /// the UNIX emulator and device servers).
    pub fn set_vector(&mut self, tid: Tid, vector: u32, handler: u32) -> Result<(), KernelError> {
        let vt = self
            .threads
            .get(&tid)
            .ok_or(KernelError::NoThread(tid))?
            .vt();
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
    /// Fails for unknown (or destroyed) and quarantined threads.
    pub fn start(&mut self, tid: Tid) -> Result<(), KernelError> {
        self.ensure_safe_point();
        let t = self.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
        if t.quarantined {
            return Err(KernelError::Invalid("starting a quarantined thread"));
        }
        let home = t.cpu;
        if self.cpus[home].ready.contains(tid) {
            return Ok(());
        }
        // Charged first: the kick arms the quantum timer relative to the
        // clock the caller sees when `start` returns.
        let c = 2 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
        self.enqueue(home, tid)
    }

    /// Stop a thread: remove its TTE from the ready queue. A running
    /// thread leaves through its own switch code, on its own CPU, before
    /// this returns.
    ///
    /// # Errors
    ///
    /// Fails for unknown threads or the idle thread.
    pub fn stop(&mut self, tid: Tid) -> Result<(), KernelError> {
        self.on_owner(tid, |k| k.stop_here(tid).map(|()| k.ensure_safe_point()))
    }

    /// [`Kernel::stop`] on the CPU where `tid` is current, if anywhere. A
    /// thread current here leaves through its own switch code, as a block
    /// does, and the `jmp` `dequeue` aimed at the head carries the CPU on.
    /// A `THREAD_STOP` of the caller itself is this alone: its kernel call
    /// returns before that code runs.
    fn stop_here(&mut self, tid: Tid) -> Result<(), KernelError> {
        if self.is_idle(tid) {
            return Err(KernelError::Invalid("stopping the idle thread"));
        }
        if !self.threads.contains_key(&tid) {
            return Err(KernelError::NoThread(tid));
        }
        self.dequeue(tid)?;
        let c = charges::code_patch(&self.m.cost);
        self.m.charge(c);
        if self.current_tid() == Some(tid) {
            self.switch_out(tid);
        }
        Ok(())
    }

    /// The currently executing thread, identified by the installed VBR.
    #[must_use]
    pub fn current_tid(&self) -> Option<Tid> {
        self.tid_at(self.m.cpu.vbr)
    }

    /// The thread currently executing on CPU `cpu` (active or parked),
    /// identified by that CPU's installed VBR.
    #[must_use]
    pub fn current_tid_on(&self, cpu: usize) -> Option<Tid> {
        self.tid_at(self.m.cpu_ref(cpu).vbr)
    }

    /// The thread whose vector table is at `vbr`: the tid in the TTE below
    /// it, if that live thread owns the block (a listed block's does not).
    #[must_use]
    pub fn tid_at(&self, vbr: u32) -> Option<Tid> {
        let tte = vbr.checked_sub(layout::TTE_LEN)?;
        let heap = self.layout.heap_base..self.layout.heap_base + self.layout.heap_len;
        let tid = heap
            .contains(&tte)
            .then(|| self.m.mem.peek(tte + off::TID, Size::L))?;
        (self.threads.get(&tid)?.tte == tte).then_some(tid)
    }

    /// Whether `t`'s switch block is made from the FP switch template.
    #[must_use]
    pub fn uses_fp(&self, t: &Thread) -> bool {
        let block = self.m.code.block(t.sw.base);
        block.is_some_and(|b| &*b.name == SWITCH_TEMPLATES[1])
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

    /// Whether the active CPU's PC is in a block made from a switch
    /// template — the window where CPU contents and the VBR identity are
    /// transitional, so host-side surgery would corrupt thread state.
    /// Code memory names the block as the next fetch will; no index of
    /// switch blocks is kept beside it.
    fn in_switch_code(&self) -> bool {
        self.m
            .block_at_pc()
            .is_some_and(|b| SWITCH_TEMPLATES.contains(&&*b.name))
    }

    /// Step the machine out of any context-switch window so host-side
    /// operations (stop, signal, step, destroy) see consistent state.
    /// Kernel calls encountered on the way are serviced.
    pub fn ensure_safe_point(&mut self) {
        self.step_while(|k, _| k.in_switch_code());
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

    /// Point the machine at the active CPU's next ready thread's
    /// switch-in (a thread destroyed while current leaves no code to
    /// `jmp` from).
    fn enter_next(&mut self) {
        let cpu = self.m.active_cpu();
        if let Some(head) = self.cpus[cpu].ready.head() {
            self.enter(head);
        }
    }

    /// Point the machine at `tid`'s switch-in (it must have a valid frame
    /// and saved state). The VBR names `tid` from here on, not only once
    /// the switch-in has loaded it, so chain surgery before the CPU next
    /// runs knows whose `jmp` it will leave through.
    fn enter(&mut self, tid: Tid) {
        crate::trace!(self, tid, crate::trace::Kind::CtxSwitch, 1, 0);
        let t = &self.threads[&tid];
        let entries = self.switch_entries(t);
        let need_map = t.map != self.m.mem.map;
        self.m.cpu.pc = if need_map {
            entries.sw_in_mmu
        } else {
            entries.sw_in
        };
        self.m.cpu.vbr = t.vt();
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
        self.on_owner(tid, |k| k.destroy_here(tid))
    }

    /// [`Kernel::destroy`] on the CPU where `tid` is current, if anywhere.
    /// A thread destroyed while current is not parked — its code is about
    /// to go — and the CPU is pointed at its chain's head instead.
    fn destroy_here(&mut self, tid: Tid) -> Result<(), KernelError> {
        // Attribute pending machine events while the VBR mapping still
        // exists; the thread's ring itself outlives it (post-mortems
        // drain it after the reap).
        self.pump_trace();
        let was_current = self.current_tid() == Some(tid);
        self.dequeue(tid)?;
        // Close fds in fd order, each taken off the list as it goes: the
        // rest stay listed, so a slot or ring one of them names outlives
        // the fds before it.
        loop {
            let t = self.threads.get_mut(&tid);
            let fds = &mut t.ok_or(KernelError::NoThread(tid))?.fds;
            if fds.is_empty() {
                break;
            }
            let f = fds.remove(0);
            self.release_fd(tid, f);
        }
        let t = self.threads.remove(&tid).expect("listed above");
        let own = [&t.sw, &t.trap_read, &t.trap_write, &t.trap_error];
        for s in own.into_iter().chain(&t.adopted) {
            self.creator.destroy(&mut self.m, s);
        }
        // The block goes back on the free list, by guest code: the next
        // create pops it.
        self.push_thread_block(t.tte)?;
        // What the machine keeps by the thread's addresses goes with it:
        // the next thread to be handed this `vt` starts with no fault
        // history.
        self.m.meter.error_faults.remove(&t.vt());
        self.trace.forget(tid);
        self.exited.insert(tid);
        if was_current {
            self.enter_next();
        }
        Ok(())
    }

    /// `step`: make a stopped thread execute one instruction (Table 3:
    /// the debugger primitive), on the active CPU and through the switch
    /// code, as any run of the thread goes: the CPU's current thread is
    /// parked, the stopped one switched in (its address map and FP
    /// registers with it), its instruction executed, the thread parked
    /// again, and the first one switched back in — whose quantum
    /// restarts, as after any switch.
    ///
    /// # Errors
    ///
    /// The thread must exist and be stopped, and the active CPU must be
    /// in service.
    pub fn step_thread(&mut self, tid: Tid) -> Result<(), KernelError> {
        self.ensure_safe_point();
        let t = self.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
        if !matches!(t.state, ThreadState::Stopped) {
            return Err(KernelError::Invalid("step requires a stopped thread"));
        }
        let Some(cur) = self.current_tid() else {
            return Err(KernelError::Invalid("the active CPU is out of service"));
        };
        if !self.park(cur) {
            return Err(KernelError::Invalid("could not park the active thread"));
        }
        self.enter(tid);
        self.ensure_safe_point();
        // Interrupts masked, so the single step executes the thread's
        // instruction rather than accepting a pending interrupt; the
        // thread's real mask goes back into what is saved.
        let mask = self.m.cpu.sr & 0x0700;
        self.m.cpu.sr |= 0x0700;
        let _ = self.m.step();
        self.m.cpu.sr = (self.m.cpu.sr & !0x0700) | mask;
        self.park(tid);
        self.enter(cur);
        self.ensure_safe_point();
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
    /// point, outside any context-switch code — the load balancer, the
    /// watchdogs and the trace pump run. An idle CPU sleeps in `stop` no
    /// further than its slice's end, so the balancer reaches it within a
    /// slice of work showing up. A uniprocessor is the same loop with
    /// nobody to rotate to or steal from.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        // The watched thread may have exited host-side between runs (an
        // embedder servicing its exit call). Surface that before anything
        // executes, or the embedder would be handed a clock past the
        // exit.
        if let Some(w) = self.watched_exit() {
            return RunExit::Breakpoint(w);
        }
        // A CPU that halts (idle with nothing ever due) stays parked
        // until an IPI or device interrupt shows up for it.
        let mut halted = [false; MAX_CPUS];
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
        // Deadlines are taken after the catch-up, so every CPU gets its
        // whole budget from the clock it resumes at; from the stale
        // clocks, a CPU the catch-up raised would lose part of it.
        let mut deadlines = [0u64; MAX_CPUS];
        for (i, d) in deadlines.iter_mut().enumerate().take(self.cpus.len()) {
            *d = self.m.cpu_cycles(i).saturating_add(max_cycles);
        }
        loop {
            // Balance before picking a CPU, so a CPU running two fewer
            // threads than the busiest takes one before its next slice —
            // a starved CPU before it idles one away.
            self.rebalance();
            let mut fallbacks = 0;
            for i in self.healthy_cpus() {
                if !halted[i] {
                    continue;
                }
                if self.m.irq.any_pending_on(i) {
                    halted[i] = false;
                } else if !self.cpu_starved(i) {
                    // Timer-fallback rescheduling: the IPI that should
                    // have woken this CPU was lost or is still in
                    // flight, but its chain holds runnable work. Revive
                    // it — a dropped IPI costs one rotation of latency,
                    // never a hang; a delayed one is an event on the
                    // CPU's timeline, which its `stop` sleeps to.
                    halted[i] = false;
                    fallbacks += 1;
                }
            }
            self.recovery.ipi_fallbacks += fallbacks;
            let Some(i) = self
                .healthy_cpus()
                .filter(|&i| !halted[i] && self.m.cpu_cycles(i) < deadlines[i])
                .min_by_key(|&i| (self.m.cpu_cycles(i), i))
            else {
                return if self.healthy_cpus().all(|i| halted[i]) {
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
            if !self.check_dispatch(i, parked_pc) {
                continue;
            }
            let slice_end = self
                .m
                .meter
                .cycles
                .saturating_add(WATCHDOG_SLICE)
                .min(deadlines[i]);
            let before = self.m.meter.cycles;
            let instr_before = self.m.meter.instr_count;
            let halted_before = self.m.halted_cycles(i);
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
                        // timeline: end its slice where a sleeping CPU's
                        // ends, at the boundary, and leave it out of the
                        // rotation until an interrupt or work revives it.
                        halted[i] = true;
                        last_halt = Some((i, self.m.meter.cycles));
                        self.m.sleep_until(slice_end);
                        break;
                    }
                    RunExit::Error(e) => {
                        if let Err(exit) = self.recover_machine_error(e) {
                            return exit;
                        }
                        // A CPU its own fault quarantined ends its slice
                        // (a healthy CPU is active now).
                        if self.cpus[i].quarantined {
                            break;
                        }
                    }
                    other => return other,
                }
            }
            // Park this CPU only at a safe point: host-side surgery
            // from another CPU's slice must not observe it mid-switch.
            self.ensure_safe_point();
            // Idle is what the machine counted asleep in `stop`; the rest
            // of the slice was busy, whichever thread spent it.
            let delta = self.m.cpu_cycles(i).saturating_sub(before);
            let idle = self.m.halted_cycles(i) - halted_before;
            self.cpus[i].idle_cycles += idle;
            self.cpus[i].busy_cycles += delta - idle;
            // A slice is silent when the clock advanced a whole slice on
            // dispatch, or advanced at all without one instruction
            // executing, an honest halt, or the CPU sleeping in `stop` —
            // an idle CPU with its quantum armed sleeps whole slices.
            let silent = jump >= WATCHDOG_SLICE
                || (delta > 0
                    && self.m.meter.instr_count == instr_before
                    && !halted[i]
                    && !self.m.cpu.stopped);
            self.heartbeat(i, silent);
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

    // --- Lazy FP -------------------------------------------------------------

    /// Resynthesize the current thread's switch code onto the FP variant
    /// (Section 4.2: invoked from the coprocessor-unavailable trap).
    fn fp_resynthesize(&mut self) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        let t = &self.threads[&tid];
        if self.uses_fp(t) {
            self.m.cpu.fpu_enabled = true; // already resynthesized
            return;
        }
        let (tte, vt, old_sw) = (t.tte, t.vt(), t.sw.clone());
        // The quantum's one record is the old code: read it before it goes.
        let quantum = self
            .quantum_us(tid)
            .expect("switch code stores its quantum");
        // The chain's links name the old code's entries and `jmp`: leave
        // the chain before that code goes, rejoin once the new code is in.
        let cpu = self.home_cpu(tid);
        let in_chain = self.cpus[cpu].ready.contains(tid);
        if in_chain {
            let _ = self.dequeue(tid);
        }
        self.creator.destroy(&mut self.m, &old_sw);
        let sw = match self.synth_switch(tid, tte, quantum, true) {
            Ok(sw) => sw,
            Err(_) => {
                // Code space is exhausted: the thread asked for FP it
                // cannot have. Reap it instead of taking the kernel down
                // — its old switch code is already destroyed, so it
                // cannot be resumed either.
                let _ = self.reap(tid, "FP resynthesis failed");
                return;
            }
        };
        let entries = self.switch_plans.entries(&sw);
        self.threads.get_mut(&tid).expect("exists").sw = sw;
        // Re-aim what the thread fill aimed at the old code: the quantum
        // vector at `sw_out` (Figure 3's "the interrupt is vectored to
        // thread-0's context-switch-out procedure") and, on a
        // multiprocessor, the IPI vector at `ipi_in`.
        let irq = |level: u8| vt + 4 * (24 + u32::from(level));
        self.m
            .mem
            .poke(irq(irq_levels::QUANTUM), Size::L, entries.sw_out);
        if self.m.num_cpus() > 1 {
            self.m
                .mem
                .poke(irq(irq_levels::IPI), Size::L, entries.ipi_in);
        }
        if in_chain {
            let _ = self.enqueue(cpu, tid);
        }
        self.m.cpu.fpu_enabled = true;
    }

    // --- Misc host services ---------------------------------------------------

    /// Run the kernel-resident routine at `addr` to its return, on the
    /// active CPU, starting it with `regs`: every instruction executes and
    /// is counted on that CPU's clock. It runs in supervisor state with
    /// every interrupt masked, on the stack below
    /// [`layout::ROUTINE_STACK`] — never the interrupted `a7`, which may be
    /// 0 (boot) or sit just above a fabricated frame (a parked signal) —
    /// and returns to [`layout::HOST_RETURN`]'s `halt`. The CPU is then
    /// put back as it was (registers, SR, stack pointers, PC, `stop`), so
    /// a kernel call or a host API may call a routine at any point; an
    /// interrupt that fell due meanwhile is accepted after, by whatever
    /// runs next.
    ///
    /// # Errors
    ///
    /// A machine error the routine ran into (a bug: resident routines
    /// touch only kernel memory).
    pub fn call_routine(
        &mut self,
        addr: u32,
        regs: &templates::RoutineRegs,
    ) -> Result<(), KernelError> {
        let saved = self.m.cpu.clone();
        let sp = layout::ROUTINE_STACK - 4;
        self.m.mem.poke(sp, Size::L, layout::HOST_RETURN);
        let cpu = &mut self.m.cpu;
        cpu.d = regs.d;
        cpu.a[..7].copy_from_slice(&regs.a);
        cpu.a[7] = sp;
        cpu.sr = quamachine::cpu::sr_bits::S | 0x0700;
        cpu.stopped = false;
        cpu.pc = addr;
        let exit = self.m.run(u64::MAX);
        self.m.cpu = saved;
        match exit {
            RunExit::Halted => Ok(()),
            RunExit::Error(e) => Err(e.into()),
            _ => Err(KernelError::Invalid("a resident routine did not return")),
        }
    }

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

    fn charge_alloc(&mut self) {
        let steps = self.heap.last_steps;
        let c = charges::alloc_op(&self.m.cost, steps);
        self.m.charge(c);
    }
}
