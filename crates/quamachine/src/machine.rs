//! The machine: CPU + memory + code + devices + measurement, and the
//! fetch/execute loop's public interface.

use std::collections::HashSet;

use crate::code::{CodeBlock, CodeMem, SlabLoc};
use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::devices::{DevCtx, Device, DEV_BASE, DEV_WINDOW};
use crate::error::{Exception, MachineError};
use crate::event::EventQueue;
use crate::fault::{CpuDispatchFault, FaultPlan, IpiFault};
use crate::irq::IrqController;
use crate::mem::{AddressMap, Memory};
use crate::trace::Meter;

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Physical memory size in bytes (the real machine had 2.5 MB).
    pub mem_size: u32,
    /// The cycle-cost model (clock + wait states).
    pub cost: CostModel,
    /// Capacity of the execution-trace ring buffer.
    pub trace_capacity: usize,
    /// Number of CPUs. All CPUs share the flat physical address space
    /// and the device complement; each has its own registers, virtual
    /// clock, installed address map, and interrupt lines.
    pub cpus: usize,
}

impl MachineConfig {
    /// SUN 3/160 emulation mode: 16 MHz + 1 wait state, 2.5 MB.
    #[must_use]
    pub fn sun3_emulation() -> MachineConfig {
        MachineConfig {
            mem_size: 2_621_440,
            cost: CostModel::sun3_emulation(),
            trace_capacity: 4096,
            cpus: 1,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::sun3_emulation()
    }
}

/// Why a run loop returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// A `halt` pseudo-instruction executed (PC is past it).
    Halted,
    /// A `kcall #n` executed (PC is past it); the embedder services it,
    /// charges cycles, and resumes.
    KCall(u16),
    /// The cycle budget given to [`Machine::run`] was exhausted.
    CycleLimit,
    /// Execution reached a breakpoint (PC is *at* the breakpoint).
    Breakpoint(u32),
    /// A fatal simulation error.
    Error(MachineError),
}

/// A parked CPU context: the registers, virtual clock, and installed
/// address map of a CPU that is not currently the machine's active one.
///
/// The multiprocessor Quamachine is simulated one CPU at a time: the
/// `Machine` fields `cpu`, `meter.cycles`, and `mem.map` always belong to
/// the *active* CPU, and [`Machine::switch_cpu`] swaps them against a
/// slot. Embedders interleave CPUs at whatever granularity they choose
/// (the kernel rotates in watchdog-slice quanta, always resuming the CPU
/// whose clock is furthest behind).
#[derive(Debug, Clone)]
pub struct CpuSlot {
    /// The parked register file.
    pub cpu: Cpu,
    /// The parked virtual clock (this CPU's elapsed cycles).
    pub cycles: u64,
    /// The parked user address map (each CPU has its own MMU state).
    pub map: AddressMap,
    /// Cycles this CPU's clock has advanced asleep; unlike the fields
    /// above, live in the active CPU's slot too.
    pub halted: u64,
}

/// The wild address a sick CPU's dispatch corrupts the PC to: outside
/// every code block, so the first fetch on the corrupted context raises
/// `BadCodeAddress` (same region the wild-jump soak tests use).
pub const SICK_WILD_PC: u32 = 0x00F0_0000;

/// The level a spurious IPI asserts (the reschedule IPI line).
const SPURIOUS_IPI_LEVEL: u8 = 1;

/// An IPI held in flight by the fault plan: it lands on `cpu` when that
/// CPU's clock reaches `due`.
#[derive(Debug, Clone, Copy)]
struct DelayedIpi {
    cpu: usize,
    level: u8,
    due: u64,
}

/// Where the instruction at `pc` lives, remembered by the step that
/// computed `pc` as its fall-through or taken-branch target. It answers
/// `code.locate(pc)` for that one address while the slot still holds the
/// block of generation `gen`; whoever else moves `cpu.pc` just fails the
/// comparison.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchMemo {
    pub(crate) gen: u64,
    pub(crate) pc: u32,
    pub(crate) at: SlabLoc,
}

/// The simulated machine.
pub struct Machine {
    /// CPU registers.
    pub cpu: Cpu,
    /// Physical memory.
    pub mem: Memory,
    /// Code memory (instruction blocks at addresses).
    pub code: CodeMem,
    /// Interrupt controller.
    pub irq: IrqController,
    /// Device event queue.
    pub events: EventQueue,
    /// Attached devices, indexed by attach order.
    pub devices: Vec<Box<dyn Device>>,
    /// Counters and trace.
    pub meter: Meter,
    /// Hooked execution events: exception entry/exit and VBR installs
    /// for the embedder to attribute to threads.
    pub hooks: crate::trace::HookLog,
    /// The cost model.
    pub cost: CostModel,
    /// Breakpoint addresses (kernel-monitor debugging).
    pub breakpoints: HashSet<u32>,
    /// The fault-injection plan ([`FaultPlan::none`] unless seeded).
    pub fault: FaultPlan,
    /// Parked contexts of the other CPUs (`slots[active]`'s context is
    /// stale while that CPU is active; its halted count is not).
    slots: Vec<CpuSlot>,
    /// Index of the CPU whose context currently occupies `cpu`,
    /// `meter.cycles`, and `mem.map`.
    active: usize,
    /// IPIs the fault plan delayed in flight; delivered by the event
    /// pump once the target CPU's clock catches up.
    delayed_ipis: Vec<DelayedIpi>,
    /// The next sequential fetch, if the last step could name it.
    pub(crate) next_fetch: Option<FetchMemo>,
    /// Set by everything an instruction can do that may change what the
    /// step head answers next: taking an exception, writing `sr`, touching
    /// a device register. `run` clears it and ends its quiet stretch on it.
    pub(crate) disturbed: bool,
}

impl Machine {
    /// Build a machine from a configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        let ncpus = config.cpus.max(1);
        let mut irq = IrqController::new();
        irq.set_cpus(ncpus);
        Machine {
            cpu: Cpu::new(),
            mem: Memory::new(config.mem_size),
            code: CodeMem::new(),
            irq,
            events: EventQueue::new(),
            devices: Vec::new(),
            meter: Meter::new(config.trace_capacity),
            hooks: crate::trace::HookLog::default(),
            cost: config.cost,
            breakpoints: HashSet::new(),
            fault: FaultPlan::none(),
            slots: (0..ncpus)
                .map(|_| CpuSlot {
                    cpu: Cpu::new(),
                    cycles: 0,
                    map: AddressMap::default(),
                    halted: 0,
                })
                .collect(),
            active: 0,
            delayed_ipis: Vec::new(),
            next_fetch: None,
            disturbed: false,
        }
    }

    /// Number of CPUs.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.slots.len()
    }

    /// Index of the active CPU (the one `cpu`/`meter.cycles`/`mem.map`
    /// belong to).
    #[must_use]
    pub fn active_cpu(&self) -> usize {
        self.active
    }

    /// CPU `i`'s virtual clock, whether it is active or parked.
    #[must_use]
    pub fn cpu_cycles(&self, i: usize) -> u64 {
        if i == self.active {
            self.meter.cycles
        } else {
            self.slots[i].cycles
        }
    }

    /// The cycles CPU `i`'s clock has advanced asleep ([`Machine::sleep_until`]).
    #[must_use]
    pub fn halted_cycles(&self, i: usize) -> u64 {
        self.slots[i].halted
    }

    /// Sleep until the clock reads `wake` (never backwards), counting the
    /// cycles slept: out of line, once per sleep of the step head's `stop`
    /// or an embedder's halted CPU.
    #[cold]
    #[inline(never)]
    pub fn sleep_until(&mut self, wake: u64) {
        let wake = self.meter.cycles.max(wake);
        self.slots[self.active].halted += wake - self.meter.cycles;
        self.meter.cycles = wake;
    }

    /// The block the active CPU's next instruction is fetched from, found
    /// as that fetch finds it (its memo, else `CodeMem`'s line or search,
    /// which the line then keeps): asking adds no search to the fetch's.
    #[must_use]
    pub fn block_at_pc(&self) -> Option<&CodeBlock> {
        let pc = self.cpu.pc;
        let at = match self.next_fetch {
            Some(m) if m.pc == pc && self.code.live(m.at, m.gen).is_some() => m.at,
            _ => self.code.locate_slab(pc)?,
        };
        Some(&self.code.resident(at.slot).block)
    }

    /// CPU `i`'s register file, whether active or parked.
    #[must_use]
    pub fn cpu_ref(&self, i: usize) -> &Cpu {
        if i == self.active {
            &self.cpu
        } else {
            &self.slots[i].cpu
        }
    }

    /// CPU `i`'s register file, mutably. Host-side surgery on parked
    /// CPUs (boot parking, debugger pokes) goes through here.
    pub fn cpu_mut(&mut self, i: usize) -> &mut Cpu {
        if i == self.active {
            &mut self.cpu
        } else {
            &mut self.slots[i].cpu
        }
    }

    /// Align every CPU's virtual clock to the most advanced one. The
    /// embedder calls this when the CPUs conceptually ticked in lockstep
    /// while only one was simulated — e.g. at the end of boot, where CPU
    /// 0 does all the work but the others' clocks ran too.
    pub fn sync_cpu_clocks(&mut self) {
        let max = (0..self.num_cpus())
            .map(|i| self.cpu_cycles(i))
            .max()
            .unwrap_or(0);
        for slot in &mut self.slots {
            slot.cycles = max;
        }
        self.meter.cycles = max;
    }

    /// Raise every *parked* CPU's clock to at least the active CPU's.
    /// This is the catch-up for host-side work charged to the active CPU
    /// between runs (thread creation, synthesis, emulator services): the
    /// parked CPUs conceptually ticked along. Unlike
    /// [`Machine::sync_cpu_clocks`] it never moves the active clock
    /// forward, so a parked CPU that merely overshot its last run slice
    /// (slice granularity, not conceptual time) cannot inflate the
    /// active CPU's — the embedder's measuring — clock.
    pub fn catch_up_cpu_clocks(&mut self) {
        let now = self.meter.cycles;
        let a = self.active;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if i != a && slot.cycles < now {
                slot.cycles = now;
            }
        }
    }

    /// Make CPU `i` the active one: park the current context (registers,
    /// clock, address map) into its slot and load CPU `i`'s. A no-op when
    /// `i` is already active.
    ///
    /// Dispatching onto a CPU is also the fault plan's CPU seam: a
    /// *stall* advances the loaded clock without executing anything, and
    /// a *sick* CPU gets its PC corrupted to a wild address, so the next
    /// run on it faults before its first instruction. A uniprocessor
    /// machine never dispatches (`i == active` always), so neither class
    /// can ever be consulted there.
    pub fn switch_cpu(&mut self, i: usize) {
        assert!(i < self.slots.len(), "no such CPU: {i}");
        if i == self.active {
            return;
        }
        let a = self.active;
        self.slots[a].cpu = std::mem::take(&mut self.cpu);
        self.slots[a].cycles = self.meter.cycles;
        self.slots[a].map = std::mem::take(&mut self.mem.map);
        let slot = self.slots[i].clone();
        self.cpu = slot.cpu;
        self.meter.cycles = slot.cycles;
        self.mem.map = slot.map;
        self.active = i;
        if self.fault.is_active() {
            match self.fault.cpu_dispatch(self.meter.cycles, i) {
                Some(CpuDispatchFault::Stall(n)) => self.meter.cycles += n,
                Some(CpuDispatchFault::Sick) => self.cpu.pc = SICK_WILD_PC,
                None => {}
            }
        }
    }

    /// Send an inter-processor interrupt at `level` to `cpu` through the
    /// fault plan: delivered, lost, or held in flight and delivered when
    /// the target's clock reaches the delayed due time.
    pub fn send_ipi(&mut self, cpu: usize, level: u8) {
        self.irq.ipis_sent += 1;
        if self.fault.is_active() {
            match self.fault.ipi_send(self.meter.cycles, cpu) {
                Some(IpiFault::Lost) => return,
                Some(IpiFault::Delayed(d)) => {
                    let due = self.cpu_cycles(cpu).saturating_add(d);
                    self.delayed_ipis.push(DelayedIpi { cpu, level, due });
                    return;
                }
                None => {}
            }
        }
        self.irq.raise_on(cpu, level);
    }

    /// Whether a fault-delayed IPI is still in flight toward `cpu`.
    #[must_use]
    pub fn delayed_ipi_pending(&self, cpu: usize) -> bool {
        self.delayed_ipis.iter().any(|d| d.cpu == cpu)
    }

    /// Attach a device; returns its index (which determines its register
    /// window at [`DEV_BASE`]` + 256 × index`).
    pub fn attach_device(&mut self, mut dev: Box<dyn Device>) -> usize {
        let index = self.devices.len();
        {
            let mut ctx = DevCtx {
                irq: &mut self.irq,
                events: &mut self.events,
                fault: &mut self.fault,
                now: self.meter.cycles,
                dev_index: index,
                clock_hz: self.cost.clock_hz,
                cpu: self.active,
            };
            dev.attach(&mut ctx);
        }
        self.devices.push(dev);
        index
    }

    /// Get device-specific state by downcasting (embedder-side access).
    pub fn device_mut<T: 'static>(&mut self, index: usize) -> Option<&mut T> {
        self.devices.get_mut(index)?.as_any().downcast_mut::<T>()
    }

    /// Run a closure against a device *with* machine context, so host code
    /// can inject input, raise interrupts, and schedule device events
    /// (e.g. start a typing script on the tty).
    pub fn with_dev_ctx<T: 'static, R>(
        &mut self,
        index: usize,
        f: impl FnOnce(&mut T, &mut DevCtx) -> R,
    ) -> Option<R> {
        let Machine {
            devices,
            irq,
            events,
            meter,
            cost,
            fault,
            active,
            ..
        } = self;
        let dev = devices.get_mut(index)?.as_any().downcast_mut::<T>()?;
        let mut ctx = DevCtx {
            irq,
            events,
            fault,
            now: meter.cycles,
            dev_index: index,
            clock_hz: cost.clock_hz,
            cpu: *active,
        };
        Some(f(dev, &mut ctx))
    }

    /// Load a code block at `base`; returns the entry address.
    ///
    /// # Errors
    ///
    /// Fails on overlap with an existing block.
    pub fn load_block(&mut self, base: u32, block: CodeBlock) -> Result<u32, MachineError> {
        self.code.load(base, block)
    }

    /// Charge extra cycles (used by `kcall` handlers to bill modelled
    /// work).
    pub fn charge(&mut self, cycles: u64) {
        self.meter.cycles += cycles;
    }

    /// Current virtual time in microseconds (the interval timer).
    #[must_use]
    pub fn now_us(&self) -> f64 {
        self.cost.cycles_to_us(self.meter.cycles)
    }

    /// Route a data read, to memory or a device window.
    #[inline(always)]
    pub(crate) fn bus_read(&mut self, addr: u32, size: crate::isa::Size) -> Result<u32, Exception> {
        if addr >= DEV_BASE {
            self.dev_access(addr, None)
        } else {
            self.mem.read(addr, size, self.cpu.supervisor())
        }
    }

    /// Route a data write, to memory or a device window.
    #[inline(always)]
    pub(crate) fn bus_write(
        &mut self,
        addr: u32,
        size: crate::isa::Size,
        val: u32,
    ) -> Result<(), Exception> {
        if addr >= DEV_BASE {
            self.dev_access(addr, Some(val)).map(drop)
        } else {
            self.mem.write(addr, size, val, self.cpu.supervisor())
        }
    }

    /// A device-register access: write `val`, or read when there is none.
    /// The only [`DevCtx`] the guest can reach, hence the only way an
    /// instruction raises an IRQ or schedules an event.
    #[cold]
    #[inline(never)]
    fn dev_access(&mut self, addr: u32, val: Option<u32>) -> Result<u32, Exception> {
        if !self.cpu.supervisor() {
            return Err(Exception::BusError);
        }
        let dev = ((addr - DEV_BASE) / DEV_WINDOW) as usize;
        let off = (addr - DEV_BASE) % DEV_WINDOW;
        if dev >= self.devices.len() {
            return Err(Exception::BusError);
        }
        self.mem.ref_count += 1;
        self.disturbed = true;
        let Machine {
            devices,
            irq,
            events,
            meter,
            cost,
            fault,
            active,
            ..
        } = self;
        let mut ctx = DevCtx {
            irq,
            events,
            fault,
            now: meter.cycles,
            dev_index: dev,
            clock_hz: cost.clock_hz,
            cpu: *active,
        };
        Ok(match val {
            Some(v) => {
                devices[dev].write_reg(off, v, &mut ctx);
                0
            }
            None => devices[dev].read_reg(off, &mut ctx),
        })
    }

    /// Host-side device register write: bypasses the privilege check and
    /// charges no guest cycles (for kernel embedders orchestrating
    /// devices from outside the simulation).
    pub fn host_reg_write(&mut self, addr: u32, val: u32) {
        let was = self.cpu.sr;
        self.cpu.sr |= crate::cpu::sr_bits::S;
        let r = self.bus_write(addr, crate::isa::Size::L, val);
        self.cpu.sr = was;
        debug_assert!(r.is_ok(), "host device write to {addr:#x} failed");
    }

    /// Host-side device register read (see [`Machine::host_reg_write`]).
    pub fn host_reg_read(&mut self, addr: u32) -> u32 {
        let was = self.cpu.sr;
        self.cpu.sr |= crate::cpu::sr_bits::S;
        let r = self.bus_read(addr, crate::isa::Size::L);
        self.cpu.sr = was;
        r.unwrap_or(0)
    }

    /// Whether [`Machine::process_events`] has anything to do right now:
    /// a delayed IPI in flight, a fault plan to consult, or an event due
    /// on the active CPU. The per-step guard around it.
    #[inline]
    pub(crate) fn events_due(&self) -> bool {
        !self.delayed_ipis.is_empty()
            || self.fault.is_active()
            || self
                .events
                .next_due_for(self.active)
                .is_some_and(|due| due <= self.meter.cycles)
    }

    /// Deliver all device events due on the active CPU at its current
    /// cycle, plus any fault-delayed IPIs whose due time this CPU's
    /// clock has reached.
    pub fn process_events(&mut self) {
        if !self.delayed_ipis.is_empty() {
            let (active, now) = (self.active, self.meter.cycles);
            let mut landed = 0u8;
            self.delayed_ipis.retain(|d| {
                if d.cpu == active && d.due <= now {
                    landed |= 1 << (d.level - 1);
                    false
                } else {
                    true
                }
            });
            for level in 1..=7u8 {
                if landed & (1 << (level - 1)) != 0 {
                    self.irq.raise_on(active, level);
                }
            }
        }
        if self.fault.is_active() {
            if let Some(level) = self.fault.spurious_irq(self.meter.cycles) {
                self.irq.raise_on(self.active, level);
            }
            // The IPI seams exist only on multiprocessor machines, so a
            // uniprocessor pump never consults this class (and a zero
            // rate never advances the PRNG either way).
            if self.num_cpus() > 1 && self.fault.spurious_ipi(self.meter.cycles, self.active) {
                self.irq.raise_on(self.active, SPURIOUS_IPI_LEVEL);
            }
        }
        while let Some(ev) = self.events.pop_due_on(self.meter.cycles, self.active) {
            let Machine {
                devices,
                irq,
                events,
                meter,
                cost,
                fault,
                active,
                ..
            } = self;
            let mut ctx = DevCtx {
                irq,
                events,
                fault,
                now: meter.cycles,
                dev_index: ev.dev,
                clock_hz: cost.clock_hz,
                cpu: *active,
            };
            devices[ev.dev].tick(ev.what, &mut ctx);
        }
    }
}
