//! The ready queue's one owner: membership changes, blocking and waking.
//!
//! Each CPU's ready queue is an executable data structure — every
//! thread's switch-out ends in a `jmp` to the next thread's switch-in
//! (Figure 3), so putting a thread on the queue or taking it off *is* one
//! or two `jmp` patches. [`JumpChain`](synthesis_codegen::execds::JumpChain)
//! knows which links a change disturbs and writes each once; this module
//! knows everything else a membership change means, and is the only code
//! that calls the chain's mutators:
//!
//! - **the nodes' code** — [`SwitchCode`] answers the chain's one
//!   question from the threads' switch blocks: a link is the `jmp` at the
//!   predecessor's `chain` mark, aimed at the successor's `sw_in` or
//!   `sw_in_mmu` (same address map or not). Both are read from the one
//!   record of the switch code, so no chain node can name a stale `jmp`;
//! - **where the thread goes** — next after the CPU's current thread
//!   (Section 4.4's unblocking rule), or after the head when the current
//!   thread is not itself a member;
//! - **the idle thread** — a member exactly when no real thread is, so it
//!   never taxes a runnable thread with an idle quantum, and the chain is
//!   never empty;
//! - **the off-chain current** — a thread still executing on the CPU
//!   after leaving the chain exits through its own `jmp`, which is kept
//!   aimed at the head;
//! - **the bookkeeping** — `ThreadState`, the thread's home CPU, the
//!   wait lists with the wait flags the synthesized producers test, and
//!   the kick that gets an idling CPU to notice the arrival.
//!
//! [`Kernel::enqueue`] and [`Kernel::dequeue`] do all of that as one
//! unit. `start`, `stop`, `destroy`, blocking, waking, work stealing, CPU
//! evacuation and FP resynthesis are calls to the pair; a whole-chain
//! event is a per-thread dequeue and enqueue.
//!
//! **Blocking and yielding switch in guest code.** A kernel call that
//! blocks (`WAIT_*`), yields, or stops its own thread does only the
//! bookkeeping above on the host; the thread then leaves the way a
//! quantum expiry makes it leave, through its own switch code
//! ([`Kernel::switch_out`]): the machine pushes an exception frame with
//! interrupts masked and enters the thread's `sw_save`, which stores the
//! registers, USP and SSP into its TTE and takes its chain `jmp`. Nothing is parked until that code has
//! run, which is safe because of where the window sits. From the `kcall`
//! to the incoming thread's `move to VBR`, the VBR still names the leaving
//! thread and the PC is inside switch code, so any host surgery first
//! goes through `ensure_safe_point`, which runs the switch to its end.
//! Interrupts are masked for the whole window, and the only kernel call
//! in it is `sw_in_mmu`'s, which wakes nobody. Other CPUs run only at
//! slice boundaries, where every CPU is outside switch code, so no wake
//! from another CPU can race the save.
//!
//! **A thread's `sw_save` is the only writer of its parked context**, so
//! only the switch template knows the save area, frame and FP slot
//! layout. Host `stop` and `signal` of a running thread, `step_thread`
//! and CPU quarantine run it through [`Kernel::park`]; a thread current on
//! another CPU is reached through [`Kernel::on_owner`], which runs the
//! work and the switch it starts there, to a safe point, and comes back.
//! So **no save is ever owed**: a thread is either current on a CPU at a
//! safe point or parked with its save run, and `destroy` (which frees the
//! switch code), `signal` and `step` (which read the TTE) and a steal
//! never ask whether some CPU still has to save it.

use std::collections::BTreeMap;

use quamachine::devices::{dev_reg_addr, timer as timer_regs};
use quamachine::isa::Size;
use synthesis_codegen::execds::NodeCode;

use super::{irq_levels, Kernel, KernelError, SwitchPlans};
use crate::thread::{Thread, ThreadState, Tid, WaitObject};

/// The ready chains' view of the live threads' switch code.
struct SwitchCode<'a> {
    threads: &'a BTreeMap<Tid, Thread>,
    plans: &'a SwitchPlans,
}

impl NodeCode for SwitchCode<'_> {
    /// `from`'s chain `jmp`, aimed at `to`'s `sw_in` when the address map
    /// is unchanged and at its `sw_in_mmu` when the MMU must be switched
    /// (Figure 3's two entry points).
    fn link(&self, from: Tid, to: Tid) -> (u32, u32) {
        let (a, b) = (&self.threads[&from], &self.threads[&to]);
        let into = self.plans.entries(&b.sw);
        let target = if a.map == b.map {
            into.sw_in
        } else {
            into.sw_in_mmu
        };
        (self.plans.entries(&a.sw).chain, target)
    }
}

impl Kernel {
    /// Make `tid` runnable on `cpu`: off its wait list, onto the chain
    /// next after the current thread, `Ready`, homed on `cpu`, and the
    /// CPU kicked if it is idling. The idle thread makes room first. The
    /// caller guarantees `tid` is live and on no chain.
    pub(super) fn enqueue(&mut self, cpu: usize, tid: Tid) -> Result<(), KernelError> {
        self.leave_wait_list(tid);
        let idle = self.cpus[cpu].idle_tid;
        if self.cpus[cpu].ready.contains(idle) {
            self.unlink(cpu, idle)?;
        }
        self.link(cpu, tid)?;
        self.aim_current_at_head(cpu)?;
        self.kick(cpu);
        Ok(())
    }

    /// Make `tid` neither runnable nor waiting: off its wait list, off
    /// its CPU's chain (the idle thread steps in if that empties it),
    /// `Stopped`. Dequeuing a thread that is neither only marks it
    /// `Stopped`.
    pub(super) fn dequeue(&mut self, tid: Tid) -> Result<(), KernelError> {
        self.leave_wait_list(tid);
        let cpu = self.home_cpu(tid);
        if self.cpus[cpu].ready.contains(tid) {
            self.unlink(cpu, tid)?;
            if self.cpus[cpu].ready.is_empty() {
                self.link(cpu, self.cpus[cpu].idle_tid)?;
            }
            self.aim_current_at_head(cpu)?;
        } else if let Some(t) = self.threads.get_mut(&tid) {
            t.state = ThreadState::Stopped;
        }
        Ok(())
    }

    /// Splice `tid` into `cpu`'s chain after the CPU's current thread
    /// (after the head if that is not a member).
    fn link(&mut self, cpu: usize, tid: Tid) -> Result<(), KernelError> {
        let after = self.current_tid_on(cpu);
        let code = SwitchCode {
            threads: &self.threads,
            plans: &self.switch_plans,
        };
        self.cpus[cpu]
            .ready
            .insert_next(&mut self.m, after, tid, &code)?;
        let t = self.threads.get_mut(&tid).expect("linked thread exists");
        t.state = ThreadState::Ready;
        t.cpu = cpu;
        Ok(())
    }

    /// Splice `tid` out of `cpu`'s chain.
    fn unlink(&mut self, cpu: usize, tid: Tid) -> Result<(), KernelError> {
        let code = SwitchCode {
            threads: &self.threads,
            plans: &self.switch_plans,
        };
        self.cpus[cpu].ready.remove(&mut self.m, tid, &code)?;
        self.threads
            .get_mut(&tid)
            .expect("unlinked thread exists")
            .state = ThreadState::Stopped;
        Ok(())
    }

    /// A thread `cpu` is executing right now but that is not a chain
    /// node (a parked-off idle, a blocked current, a victim whose ready
    /// entry was just stolen) still exits through its own jmp. Keep that
    /// jmp aimed at the chain's head, or the CPU would follow a stale
    /// pointer into a thread that now belongs to another CPU.
    fn aim_current_at_head(&mut self, cpu: usize) -> Result<(), KernelError> {
        let Some(cur) = self.current_tid_on(cpu) else {
            return Ok(());
        };
        if !self.threads.contains_key(&cur) || self.cpus[cpu].ready.contains(cur) {
            return Ok(());
        }
        let code = SwitchCode {
            threads: &self.threads,
            plans: &self.switch_plans,
        };
        self.cpus[cpu].ready.aim_at_head(&mut self.m, cur, &code)?;
        Ok(())
    }

    /// Kick whichever CPU `cpu` is, if it is idling: the active CPU gets
    /// its running quantum cut short, so the newly runnable thread gets
    /// the CPU immediately instead of waiting out idle's quantum
    /// (Section 4.4's "minimize response time to events"); a remote CPU
    /// gets an IPI, which vectors to the idle's switch-out and rotates it
    /// onto the new arrival.
    pub(super) fn kick(&mut self, cpu: usize) {
        if self.cpus[cpu].quarantined {
            return;
        }
        let cur = self.current_tid_on(cpu);
        if cur.is_some_and(|t| !self.is_idle(t)) {
            return;
        }
        if cpu == self.m.active_cpu() {
            let qreg = dev_reg_addr(self.dev.timer, timer_regs::REG_QUANTUM_US);
            self.m.host_reg_write(qreg, 1);
        } else {
            // Through the machine's IPI seam, where the fault plan may
            // lose or delay the interrupt; the run loop's timer-fallback
            // rescheduling turns either into latency, never a hang.
            self.m.send_ipi(cpu, irq_levels::IPI);
        }
    }

    // --- Blocking / waking -------------------------------------------------

    /// Block the current thread on `wait` and switch away: the queue
    /// bookkeeping here, the switch in the thread's own code.
    pub(super) fn block_current(&mut self, wait: WaitObject) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        if self.is_idle(tid) {
            return; // the idle thread never blocks
        }
        let _ = self.dequeue(tid);
        self.threads.get_mut(&tid).expect("current exists").state = ThreadState::Blocked(wait);
        self.waiters.entry(wait).or_default().push(tid);
        self.set_wait_flag(wait, true);
        self.switch_out(tid);
    }

    /// Leave the current thread `tid` from inside its kernel call: a frame
    /// (SR, the PC after the `kcall`) on its supervisor stack, then its
    /// `sw_save`, which saves what the thread uses and takes its chain
    /// `jmp` — to its successor while it is on the chain, to the head once
    /// `dequeue` has taken it off.
    pub(super) fn switch_out(&mut self, tid: Tid) {
        debug_assert_eq!(
            self.home_cpu(tid),
            self.m.active_cpu(),
            "a running thread's jmp is on its own CPU's chain"
        );
        self.enter_save(tid);
    }

    /// Park `tid`, the thread current on the active CPU: its switch-out
    /// run up to the chain `jmp` and no further, so the caller decides
    /// where the CPU goes next (`step` parks a thread homed elsewhere).
    /// Every cycle is counted: the frame and four instructions (five with
    /// `sw_fp`).
    pub(super) fn park(&mut self, tid: Tid) -> bool {
        let chain = self.switch_entries(&self.threads[&tid]).chain;
        let parked = self.enter_save(tid);
        if parked {
            self.step_while(|_, pc| pc != chain);
        }
        parked
    }

    /// Push the masked frame and enter `tid`'s `sw_save`. A stack that
    /// cannot take the frame is the thread's double fault: `false`, and
    /// recovery has dealt with it.
    fn enter_save(&mut self, tid: Tid) -> bool {
        let entry = self.switch_entries(&self.threads[&tid]).sw_save;
        match self.m.exception_to(entry) {
            Ok(()) => true,
            Err(e) => {
                let _ = self.recover_machine_error(e);
                false
            }
        }
    }

    /// Run `f` on the CPU where `tid` is current, and come back: every
    /// host API on a possibly running thread goes through here. That CPU
    /// is dispatched as the run loop dispatches it (`check_dispatch`),
    /// `f` runs there, the CPU is stepped to a safe point, and the
    /// caller's CPU is active again with the PC it left with — never
    /// charged, since the caller may be inside a kernel call. When `tid`
    /// is current on the active CPU, or nowhere, `f` just runs.
    pub(super) fn on_owner<R>(&mut self, tid: Tid, f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.ensure_safe_point();
        let home = self.m.active_cpu();
        let away = (0..self.cpus.len()).find(|&c| c != home && self.current_tid_on(c) == Some(tid));
        let Some(owner) = away else {
            return f(self);
        };
        let parked_pc = self.m.cpu_ref(owner).pc;
        self.m.switch_cpu(owner);
        self.check_dispatch(owner, parked_pc);
        let r = f(self);
        self.ensure_safe_point();
        let pc = self.m.cpu_ref(home).pc;
        self.m.switch_cpu(home);
        self.m.cpu.pc = pc;
        r
    }

    /// Wake every thread blocked on `wait` (front of the ready queue:
    /// "giving it immediate access to the CPU"). The emptied list stays
    /// in the map with its capacity, so the next block on `wait` does not
    /// allocate.
    pub(super) fn wake(&mut self, wait: WaitObject) {
        let Some(list) = self.waiters.get_mut(&wait).filter(|l| !l.is_empty()) else {
            return;
        };
        let mut tids = std::mem::take(list);
        self.set_wait_flag(wait, false);
        for &tid in &tids {
            let blocked_here = self
                .threads
                .get(&tid)
                .is_some_and(|t| t.state == ThreadState::Blocked(wait));
            if blocked_here {
                let _ = self.enqueue(self.home_cpu(tid), tid);
            }
        }
        debug_assert!(self.waiters[&wait].is_empty(), "a wake blocked a thread");
        tids.clear();
        self.waiters.insert(wait, tids);
    }

    /// Take `tid` off the wait list its `Blocked` state names, lowering
    /// the wait flag when that empties the list.
    fn leave_wait_list(&mut self, tid: Tid) {
        let Some(&ThreadState::Blocked(wait)) = self.threads.get(&tid).map(|t| &t.state) else {
            return;
        };
        let Some(list) = self.waiters.get_mut(&wait) else {
            return;
        };
        let before = list.len();
        list.retain(|&t| t != tid);
        if before > 0 && list.is_empty() {
            self.set_wait_flag(wait, false);
        }
    }

    /// Drop pipe `pid`'s two wait lists, once its ring is freed and its
    /// ids can name no waiter again. Lists with a thread still on them
    /// stay: that thread is `Blocked` on the pipe and must stay listed.
    pub(super) fn forget_pipe_waits(&mut self, pid: u32) {
        for wait in [WaitObject::PipeData(pid), WaitObject::PipeSpace(pid)] {
            if self.waiters.get(&wait).is_some_and(Vec::is_empty) {
                self.waiters.remove(&wait);
            }
        }
    }

    /// Raise or lower the waiter flag the synthesized producers test
    /// before bothering the kernel with a wake (alarms have none: their
    /// wakes come from the interrupt handler unconditionally).
    fn set_wait_flag(&mut self, wait: WaitObject, up: bool) {
        let slot = match wait {
            WaitObject::TtyInput => Some(self.tty_srv.waiters_slot),
            WaitObject::PipeData(p) => self.pipes.get(p as usize).map(|p| p.r_wait_slot),
            WaitObject::PipeSpace(p) => self.pipes.get(p as usize).map(|p| p.w_wait_slot),
            WaitObject::Alarm => None,
        };
        if let Some(slot) = slot {
            self.m.mem.poke(slot, Size::L, u32::from(up));
        }
    }

    /// The wait lists: each object with threads blocked on it, and those
    /// threads in blocking order. Every entry is a live thread whose
    /// state is `Blocked` on that object; an object nobody waits on is
    /// not listed.
    pub fn wait_lists(&self) -> impl Iterator<Item = (WaitObject, &[Tid])> {
        self.waiters
            .iter()
            .filter(|(_, l)| !l.is_empty())
            .map(|(&w, l)| (w, l.as_slice()))
    }
}
