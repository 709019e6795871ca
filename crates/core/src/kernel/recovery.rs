//! Recovery's one owner: reaping, thread quarantine and CPU quarantine.
//!
//! The invariant, checked by `tests/common::assert_chains_consistent`:
//!
//! - **a quarantined thread** is `Stopped` — on no chain and no wait list
//!   — and [`Kernel::start`] refuses it for good. The flag is the
//!   thread's own ([`Thread::quarantined`](crate::thread::Thread)), as is
//!   the watchdog's fault baseline, so both end with the thread;
//! - **a quarantined CPU** is named by nothing: its context names no
//!   thread (`vbr == 0`), its chain holds at most its idle thread, no
//!   other thread calls it home, no device interrupt is routed to it and
//!   the run loop never dispatches it. Everyone who needs "the CPUs in
//!   service" asks [`Kernel::healthy_cpus`];
//! - **every recovery action leaves the same three marks** — a
//!   `recovery_log` line, a gauge tick and a trace record — because
//!   [`Kernel::record_recovery`] is the only code that writes any of
//!   them; and a CPU's fault budget is spent in one place,
//!   [`Kernel::charge_cpu_fault`], whichever way the fault surfaced.

use quamachine::error::MachineError;
use quamachine::machine::{RunExit, SICK_WILD_PC};
use synthesis_blocks::gauge::Gauge;

use super::{irq_levels, Kernel, KernelError};
use crate::thread::Tid;
use crate::trace::{Kind, REC_QUARANTINE, REC_REAP};

/// Gauges counting recovery events ([Section 2.3's gauges][Gauge] feeding
/// the monitor's recovery report).
#[derive(Debug, Default)]
pub struct RecoveryGauges {
    /// Threads killed by run-loop recovery after a fatal guest fault.
    pub reaped: Gauge,
    /// Threads quarantined by the fault-storm watchdog.
    pub quarantined: Gauge,
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
pub(super) const WATCHDOG_SLICE: u64 = 100_000;
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

/// What became of a CPU after one more fault was charged to it.
enum CpuFault {
    /// Still inside its budget: it stays in service.
    Absorbed,
    /// Over budget and quarantined.
    Quarantined,
    /// Over budget, but it is the last healthy CPU and stays in service.
    LastCpu,
}

impl Kernel {
    /// The CPUs in service — not quarantined — lowest first.
    pub(super) fn healthy_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cpus.len()).filter(|&i| !self.cpus[i].quarantined)
    }

    /// The marks every recovery action leaves: the log line, the gauge
    /// tick, and the trace record `(kind, a, b)` in `tid`'s ring.
    fn record_recovery(
        &mut self,
        tid: Tid,
        what: String,
        gauge: fn(&RecoveryGauges) -> &Gauge,
        (kind, a, b): (Kind, u32, u32),
    ) {
        self.recovery_log.push((tid, what));
        gauge(&self.recovery).tick();
        crate::trace!(self, tid, kind, a, b);
    }

    /// Kill `tid` for something it did to itself: logged, counted, traced
    /// after whatever the machine recorded up to the fault, destroyed.
    pub(super) fn reap(&mut self, tid: Tid, why: &str) -> Result<(), KernelError> {
        self.pump_trace();
        self.record_recovery(
            tid,
            format!("reaped: {why}"),
            |g| &g.reaped,
            (Kind::Recovery, REC_REAP, 0),
        );
        self.destroy(tid)
    }

    /// Try to recover from a fatal machine error by reaping the thread
    /// that caused it: a double fault (the thread corrupted its own
    /// vector table or stack) or a wild jump out of code space is the
    /// thread's doing, so the kernel destroys it, resplices the ready
    /// chain, and keeps running. Errors the kernel cannot pin on the
    /// current thread — or that hit the idle thread, whose state only the
    /// kernel writes — are returned as fatal.
    pub(super) fn recover_machine_error(&mut self, e: MachineError) -> Result<(), RunExit> {
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
            // its idle context, and keep the other CPUs running. On the
            // last healthy CPU the quarantine is refused and the error
            // stays fatal, as on a uniprocessor.
            let cpu = self.m.active_cpu();
            return match self.charge_cpu_fault(cpu, format!("dispatch fault: {e}")) {
                CpuFault::Absorbed => {
                    self.enter(self.cpus[cpu].idle_tid);
                    Ok(())
                }
                CpuFault::Quarantined => Ok(()),
                CpuFault::LastCpu => Err(RunExit::Error(e)),
            };
        }
        match self.current_tid() {
            Some(tid) if !self.is_idle(tid) && self.reap(tid, &e.to_string()).is_ok() => Ok(()),
            _ => Err(RunExit::Error(e)),
        }
    }

    /// Compare each thread's error-fault count against its last-sweep
    /// baseline; a thread that burned through more than
    /// [`WATCHDOG_FAULT_LIMIT`] faults in one sweep is stuck re-faulting
    /// (its handler retries without fixing the cause) and gets
    /// quarantined.
    pub(super) fn watchdog_sweep(&mut self) {
        let mut storming = Vec::new();
        for (vbr, &n) in &self.m.meter.error_faults {
            let Some(tid) = self.tid_at(*vbr) else {
                continue;
            };
            let t = self.threads.get_mut(&tid).expect("tid_at: live");
            let delta = n.saturating_sub(std::mem::replace(&mut t.fault_mark, n));
            if delta > WATCHDOG_FAULT_LIMIT && !t.quarantined {
                storming.push((tid, delta));
            }
        }
        storming.sort_unstable();
        for (tid, delta) in storming {
            if !self.is_idle(tid) {
                self.quarantine(tid, &format!("{delta} faults in one sweep"));
            }
        }
    }

    /// Quarantine `tid`: stopped now, refused by [`Kernel::start`]
    /// forever, and skipped by the fine-grain scheduler's adaptation.
    /// This is the watchdog's action made available to supervisors that
    /// learn of a misbehaving thread through some other channel.
    /// Quarantining an unknown or already-quarantined thread is a no-op.
    pub fn quarantine(&mut self, tid: Tid, reason: &str) {
        match self.threads.get_mut(&tid) {
            Some(t) if !t.quarantined => t.quarantined = true,
            _ => return,
        }
        self.record_recovery(
            tid,
            format!("quarantined: {reason}"),
            |g| &g.quarantined,
            (Kind::Recovery, REC_QUARANTINE, 0),
        );
        // A storming thread is runnable by definition; if stop fails the
        // thread is already off the ready chain and the quarantine flag
        // alone keeps it from coming back.
        let _ = self.stop(tid);
    }

    /// Whether the watchdog has quarantined `tid`.
    #[must_use]
    pub fn is_quarantined(&self, tid: Tid) -> bool {
        self.threads.get(&tid).is_some_and(|t| t.quarantined)
    }

    // --- CPU quarantine -----------------------------------------------------

    /// Whether the cross-CPU watchdog has quarantined CPU `cpu`.
    #[must_use]
    pub fn is_cpu_quarantined(&self, cpu: usize) -> bool {
        self.cpus.get(cpu).is_some_and(|c| c.quarantined)
    }

    /// Charge one CPU-domain fault — a context the dispatch corrupted,
    /// however it was noticed — to `cpu`'s budget, and quarantine the CPU
    /// once the budget is spent.
    fn charge_cpu_fault(&mut self, cpu: usize, what: String) -> CpuFault {
        self.cpus[cpu].fault_events += 1;
        self.recovery_log
            .push((self.cpus[cpu].idle_tid, format!("cpu {cpu} {what}")));
        if self.cpus[cpu].fault_events <= CPU_FAULT_LIMIT {
            CpuFault::Absorbed
        } else if self.quarantine_cpu(cpu, "fault budget exceeded") {
            CpuFault::Quarantined
        } else {
            CpuFault::LastCpu
        }
    }

    /// Dispatch-time context check, with `cpu` just switched to: a sick
    /// CPU corrupts the context it loads. Every CPU parks at a safe
    /// point, so the parked PC was good — a loaded PC outside any code
    /// block is the CPU's corruption, not the thread's. Repair the loaded
    /// copy from the parked value and charge the CPU's own fault budget;
    /// the resident thread keeps its state and never sees the fault. A
    /// CPU already out of service — dispatched by its own quarantine, to
    /// park its thread — is repaired but not charged again. Returns
    /// whether the CPU is still in service.
    pub(super) fn check_dispatch(&mut self, cpu: usize, parked_pc: u32) -> bool {
        let wild = self.m.cpu.pc;
        if wild == parked_pc || self.m.code.locate(wild).is_some() {
            return true;
        }
        self.m.cpu.pc = parked_pc;
        if self.cpus[cpu].quarantined {
            return false;
        }
        let fault = self.charge_cpu_fault(cpu, format!("dispatch corruption: wild pc {wild:#x}"));
        !matches!(fault, CpuFault::Quarantined)
    }

    /// Cross-CPU heartbeat: a slice in which `cpu`'s clock advanced
    /// without one instruction executing (and without an honest halt) is
    /// a CPU losing time, not spending it; [`CPU_SILENT_LIMIT`] of them in
    /// a row and it has stopped heartbeating.
    pub(super) fn heartbeat(&mut self, cpu: usize, silent: bool) {
        let c = &mut self.cpus[cpu];
        if c.quarantined {
            return;
        }
        c.silent_slices = if silent { c.silent_slices + 1 } else { 0 };
        if c.silent_slices >= CPU_SILENT_LIMIT {
            self.quarantine_cpu(cpu, "stopped heartbeating");
        }
    }

    /// Park whatever is current on `cpu`, on `cpu`, through its own
    /// switch code, and leave the CPU's context naming no thread. A
    /// context the dispatch fault already corrupted (its PC sitting at
    /// the wild-jump sentinel) is *not* saved — the thread's TTE keeps
    /// its last good switch-out state, which is what a healthy CPU will
    /// resume from.
    fn park_cpu_context(&mut self, cpu: usize) {
        // Naming no thread, and never fetching: the parked thread's chain
        // `jmp` is not taken.
        let out_of_service = |c: &mut quamachine::cpu::Cpu| (c.vbr, c.pc) = (0, 0);
        let cur = self.current_tid_on(cpu);
        match cur.filter(|&t| !self.is_idle(t) && self.m.cpu_ref(cpu).pc != SICK_WILD_PC) {
            Some(tid) => self.on_owner(tid, |k| {
                k.park(tid);
                out_of_service(&mut k.m.cpu);
            }),
            None => out_of_service(self.m.cpu_mut(cpu)),
        }
    }

    /// Quarantine CPU `cpu`: evacuate its ready chain onto the healthy
    /// CPUs, re-home every thread that called it home, move its timeline
    /// (device events and IPIs in flight, each keeping its remaining
    /// delay) and its pending device levels onto a healthy CPU, and stop
    /// dispatching it. If `cpu` is the active CPU, that healthy CPU
    /// becomes the active one, so the host's next device call lands
    /// where it will be serviced. Probation re-admits it after a
    /// widening number of watchdog sweeps until `CPU_MAX_STRIKES`
    /// strikes put it out for good. Returns `false` — and does nothing —
    /// for an unknown or already-quarantined CPU, or when `cpu` is the
    /// last healthy CPU (the kernel never quarantines itself out of
    /// existence).
    pub fn quarantine_cpu(&mut self, cpu: usize, reason: &str) -> bool {
        if cpu >= self.cpus.len() || self.cpus[cpu].quarantined {
            return false;
        }
        let healthy: Vec<usize> = self.healthy_cpus().filter(|&i| i != cpu).collect();
        let Some(&target) = healthy.first() else {
            return false;
        };
        // Out of service first: the park's own dispatch onto `cpu` must
        // not charge its fault budget again.
        self.cpus[cpu].quarantined = true;
        self.park_cpu_context(cpu);

        // Evacuate the ready chain: each runnable thread migrates onto a
        // healthy CPU's chain, as a stolen one does. Quarantined
        // *threads* are on no chain to begin with.
        let idle = self.cpus[cpu].idle_tid;
        let nodes = self.cpus[cpu].ready.nodes();
        let evacuees = nodes.into_iter().filter(|&t| t != idle);
        let mut moved = 0u32;
        for (tid, &to) in evacuees.zip(healthy.iter().cycle()) {
            if self.migrate(tid, to).is_ok() {
                moved += 1;
                self.recovery.threads_evacuated.tick();
            }
        }
        // Blocked and stopped threads that called this CPU home wake
        // onto healthy chains instead.
        let rehome = self
            .threads
            .iter_mut()
            .filter(|(&tid, t)| t.cpu == cpu && tid != idle);
        for ((_, t), &to) in rehome.zip(healthy.iter().cycle()) {
            t.cpu = to;
        }
        // A device interrupt lands where its event or access was, so
        // nothing owed to a device may stay on a CPU that will not run
        // again: its events and in-flight IPIs, and its asserted device
        // lines (its quantum and IPI lines are its own and stay).
        let from_now = self.m.cpu_cycles(cpu);
        let to_now = self.m.cpu_cycles(target);
        self.m.events.migrate_cpu(cpu, target, from_now, to_now);
        for level in [irq_levels::ALARM, irq_levels::TTY, irq_levels::AUDIO] {
            if self.m.irq.is_pending_on(cpu, level) {
                self.m.irq.clear_on(cpu, level);
                self.m.irq.raise_on(target, level);
            }
        }
        if self.m.active_cpu() == cpu {
            let parked_pc = self.m.cpu_ref(target).pc;
            self.m.switch_cpu(target);
            self.check_dispatch(target, parked_pc);
        }

        let c = &mut self.cpus[cpu];
        c.strikes += 1;
        c.probation_at = (c.strikes <= CPU_MAX_STRIKES)
            .then(|| self.sweep_count + (CPU_PROBATION_SWEEPS << (c.strikes - 1).min(16)));
        self.record_recovery(
            idle,
            format!("cpu {cpu} quarantined: {reason} ({moved} threads evacuated)"),
            |g| &g.cpus_quarantined,
            (Kind::CpuQuarantine, cpu as u32, moved),
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
        let clock = self.healthy_cpus().map(|i| self.m.cpu_cycles(i)).max();
        let c = &mut self.cpus[cpu];
        c.quarantined = false;
        c.fault_events = 0;
        c.silent_slices = 0;
        c.probation_at = None;
        let (idle, strikes) = (c.idle_tid, c.strikes);
        self.m.switch_cpu(cpu);
        if let Some(cl) = clock {
            self.m.meter.cycles = self.m.meter.cycles.max(cl);
        }
        self.enter(idle);
        self.record_recovery(
            idle,
            format!("cpu {cpu} resumed from probation"),
            |g| &g.cpus_resumed,
            (Kind::CpuResume, cpu as u32, strikes),
        );
    }

    /// Advance the probation clock one sweep and re-admit any quarantined
    /// CPU whose wait is up. Returns the CPUs resumed this sweep.
    pub(super) fn cpu_probation_tick(&mut self) -> Vec<usize> {
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
}
