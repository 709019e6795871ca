//! The event path's one owner: whose ring an event lands in, and when.
//!
//! Three sources record what happened without knowing whose event it is:
//! the machine's hook log (traps, interrupt accepts, `rte`s, VBR writes),
//! the fault plan's record list, and the creator's `cache_events`. This
//! module is the only code that reads any of them, and it answers the one
//! question they all leave open — which thread, at which cycle:
//!
//! - **machine hooks** — [`Kernel::pump_trace`] attributes each through
//!   the VBR it was accepted under, the same identity
//!   [`Kernel::current_tid`] uses;
//! - **SMP-class faults** — to the target CPU's idle thread, at the
//!   fault's own cycle;
//! - **cache transitions** — to the thread the code is for, at the cycle
//!   the creator returned. [`Kernel::synthesize_cached_for`] and
//!   [`Kernel::release_code_for`] call the creator and stamp its events
//!   as one unit, so no caller drains anything and
//!   `creator.cache_events` is empty whenever a `Kernel` method returns.
//!
//! `open`, `close`, thread destruction, the stream endpoints and the
//! fused binds of the `chan` submodule are calls to the pair. None of this
//! charges a guest cycle.

use quamachine::fault::FaultRecord;
use quamachine::trace::MachEvent;
use synthesis_codegen::creator::{CacheEvent, SynthError, Synthesized};
use synthesis_codegen::template::Bindings;

use super::Kernel;
use crate::thread::Tid;
use crate::trace::Kind;

impl Kernel {
    /// The thread to charge an event to: the current thread, or the
    /// active CPU's idle thread when the machine is between identities.
    pub(crate) fn trace_tid(&self) -> Tid {
        self.tid_under(self.m.cpu.vbr, self.m.active_cpu())
    }

    /// The thread whose vector table is `vbr`, or `cpu`'s idle thread
    /// when no live thread owns it.
    fn tid_under(&self, vbr: u32, cpu: usize) -> Tid {
        self.vbr_to_tid
            .get(&vbr)
            .copied()
            .unwrap_or(self.cpus[cpu].idle_tid)
    }

    /// Specialize `template` through the creator's cache on behalf of
    /// `tid`, whose ring gets the resulting hit or miss at this cycle.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize_cached_for(
        &mut self,
        tid: Tid,
        template: &str,
        bindings: &Bindings,
    ) -> Result<Synthesized, SynthError> {
        let s = self
            .creator
            .synthesize_cached(&mut self.m, template, bindings, self.opts);
        self.drain_cache_events(tid);
        s
    }

    /// Destroy `s` (for cached code: drop one reference) on behalf of
    /// `tid`, whose ring gets the release — and any eviction the budget
    /// trim made along with it — at this cycle.
    pub fn release_code_for(&mut self, tid: Tid, s: &Synthesized) {
        self.creator.destroy(&mut self.m, s);
        self.drain_cache_events(tid);
    }

    /// Move the creator's pending cache events into `tid`'s ring.
    fn drain_cache_events(&mut self, tid: Tid) {
        if self.creator.cache_events.is_empty() {
            return;
        }
        let (cpu, cycle) = (self.m.active_cpu() as u16, self.m.meter.cycles);
        for ev in self.creator.cache_events.drain(..) {
            let (kind, a, b) = match ev {
                // `b` carries the cross-CPU flag: always 0 on a
                // uniprocessor, so single-CPU traces are unchanged.
                CacheEvent::Hit { base, cross, .. } => (Kind::CacheHit, base, u32::from(cross)),
                CacheEvent::Miss { base, .. } => (Kind::CacheMiss, base, 0),
                CacheEvent::Release { base, evicted } => (Kind::Destroy, base, u32::from(evicted)),
            };
            self.trace.push(tid, cpu, cycle, kind, a, b);
        }
    }

    /// Drain the machine's hook log into the per-thread trace rings.
    ///
    /// Trap/`rte` pairs are matched through a per-thread frame stack so a
    /// syscall's exit record carries its enter→exit cycle count; the
    /// stack is per thread because the hardware frames live on the
    /// thread's own kernel stack, so the pairing survives context
    /// switches. Frames no trap pushed (a blocking call's switch-out
    /// frame, the host's resume frames) make an `rte` occasionally pop a
    /// trap frame early, so `SyscallExit` can land at a resume rather than
    /// the true return — a documented approximation, bounded by the
    /// frame-stack depth cap.
    pub fn pump_trace(&mut self) {
        self.pump_fault_trace();
        self.trace.dropped = self.m.hooks.dropped;
        if self.m.hooks.is_empty() {
            return;
        }
        while let Some(ev) = self.m.hooks.pop() {
            match ev {
                // Guest-side dispatch: sw_in installing the incoming
                // thread's vector table IS the context switch.
                MachEvent::VbrWrite { vbr, cycle, cpu } => {
                    if let Some(&tid) = self.vbr_to_tid.get(&vbr) {
                        self.trace
                            .push(tid, cpu as u16, cycle, Kind::CtxSwitch, 0, 0);
                    }
                }
                MachEvent::Trap {
                    vector,
                    vbr,
                    cycle,
                    cpu,
                } => {
                    let tid = self.tid_under(vbr, cpu);
                    let v = u32::from(vector);
                    self.trace
                        .push(tid, cpu as u16, cycle, Kind::SyscallEnter, v, 0);
                    self.trace.push_frame(tid, Some((vector, cycle)));
                }
                MachEvent::IrqAccept {
                    level,
                    vbr,
                    cycle,
                    cpu,
                } => {
                    let tid = self.tid_under(vbr, cpu);
                    let l = u32::from(level);
                    self.trace.push(tid, cpu as u16, cycle, Kind::Irq, l, 0);
                    self.trace.push_frame(tid, None);
                }
                MachEvent::Rte { vbr, cycle, cpu } => {
                    let tid = self.tid_under(vbr, cpu);
                    if let Some(Some((vector, t0))) = self.trace.pop_frame(tid) {
                        let dt = u32::try_from(cycle.saturating_sub(t0)).unwrap_or(u32::MAX);
                        let v = u32::from(vector);
                        self.trace
                            .push(tid, cpu as u16, cycle, Kind::SyscallExit, v, dt);
                    }
                }
            }
        }
    }

    /// Translate the fault plan's new SMP-class records into kernel
    /// trace events, attributed to the target CPU's idle thread — the
    /// fault hit the CPU domain, not whichever thread happened to run.
    /// `IpiDelayed` shares [`Kind::IpiLost`] with `b` = the delay (0
    /// means lost outright). Device-class fault records stay out of the
    /// kernel trace, as before.
    fn pump_fault_trace(&mut self) {
        let recs = self.m.fault.trace();
        let start = self.fault_cursor.min(recs.len());
        self.fault_cursor = recs.len();
        for r in &recs[start..] {
            let (cpu, at, kind, b) = match *r {
                FaultRecord::IpiLost { at, cpu } => (cpu, at, Kind::IpiLost, 0),
                FaultRecord::IpiDelayed { at, cpu, delay } => (cpu, at, Kind::IpiLost, delay),
                FaultRecord::CpuStall { at, cpu, cycles } => (cpu, at, Kind::CpuStall, cycles),
                _ => continue,
            };
            if let Some(c) = self.cpus.get(cpu) {
                self.trace.push(
                    c.idle_tid,
                    cpu as u16,
                    at,
                    kind,
                    cpu as u32,
                    u32::try_from(b).unwrap_or(u32::MAX),
                );
            }
        }
    }
}
