//! Kernel-call dispatch: what each `kcall` selector and each general
//! call (`trap #0`) number does.
//!
//! Synthesized code reaches the host through `kcall` hypercalls; the run
//! loop hands every one to [`Kernel::handle_kcall`]. The invariant:
//! **a selector's meaning is written once, here** — the arms only decode
//! registers and call the module that owns the work (`ready` to block
//! and wake, `chan` for fds, the lifecycle calls in the parent), so the
//! guest ABI of `crate::syscall` has one reader. A selector the kernel
//! does not own is answered `false`, which is how an embedder extends the
//! kernel. Signal delivery lives here too: it is the one kernel call that
//! rewrites the caller's own return path.

use quamachine::devices::{dev_reg_addr, timer as timer_regs};
use quamachine::isa::Size;

use super::{Kernel, KernelError};
use crate::syscall::{errno, general, kcalls};
use crate::thread::tte::off;
use crate::thread::{SavedRegs, Tid, WaitObject};
use crate::trace::{Kind, QCLASS_PIPE, QCLASS_TTY};
use crate::{charges, layout};

/// Bytes of the context a delivered signal saves on its thread's kernel
/// stack: `d0`–`d7`/`a0`–`a6` and the USP, in the TTE's save-area order.
const SIGNAL_CONTEXT_LEN: u32 = 16 * 4;
/// Bytes one delivery writes: the context under the handler's frame.
const SIGNAL_DELIVERY_LEN: u32 = SIGNAL_CONTEXT_LEN + 6;
/// Bytes a delivery leaves free above the kernel stack's base, for what
/// the handler's own exceptions push there: its `SIG_RETURN` trap frame,
/// a frame per interrupt level (7 × 6) under it, and the register saves
/// of the kernel paths those enter (a full `movem` is 60) with room to
/// spare. A delivery that would cut into it is refused: a thread that is
/// signalled faster than it runs cannot grow its stack into its vector
/// table.
const SIGNAL_MARGIN: u32 = 0x100;

impl Kernel {
    /// What a `WAIT_*`/`WAKE_*` selector is about: the wait object (a
    /// pipe's id rides in `d2`), and the trace record a wake of it
    /// leaves — a put for arriving data, a get for space opening up, in
    /// the object's queue class with the pipe id as argument.
    fn wait_selector(&self, sel: u16) -> (WaitObject, Kind, u32, u32) {
        let pid = self.m.cpu.d[2];
        match sel {
            kcalls::WAIT_TTY | kcalls::WAKE_TTY => {
                (WaitObject::TtyInput, Kind::QueuePut, QCLASS_TTY, 0)
            }
            kcalls::WAIT_PIPE_DATA | kcalls::WAKE_PIPE_DATA => {
                (WaitObject::PipeData(pid), Kind::QueuePut, QCLASS_PIPE, pid)
            }
            _ => (WaitObject::PipeSpace(pid), Kind::QueueGet, QCLASS_PIPE, pid),
        }
    }

    /// Service one kernel call; `false` means the selector is not ours.
    pub(super) fn handle_kcall(&mut self, sel: u16) -> bool {
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
            }
            kcalls::FP_RESYNTH => {
                self.fp_resynthesize();
            }
            kcalls::ALARM => {
                self.alarm_pending = false;
                self.wake(WaitObject::Alarm);
            }
            // The last A/D slot handler asks for the next queue element.
            // No server advances or consumes the element yet, so the
            // kernel only acknowledges the call.
            kcalls::AD_ADVANCE => {}
            kcalls::WAIT_TTY | kcalls::WAIT_PIPE_DATA | kcalls::WAIT_PIPE_SPACE => {
                // Re-check under the "lock" (host atomicity) to avoid a
                // lost wakeup between the guest's test and the kcall.
                let (wait, ..) = self.wait_selector(sel);
                let must_wait = match wait {
                    WaitObject::TtyInput => self.tty_srv.available(&self.m) == 0,
                    WaitObject::PipeData(p) => {
                        self.live_pipe(p).is_some_and(|p| p.available(&self.m) == 0)
                    }
                    WaitObject::PipeSpace(p) => self.pipe_write_must_wait(p),
                    WaitObject::Alarm => unreachable!("no WAIT_* names it"),
                };
                if must_wait {
                    self.block_current(wait);
                }
            }
            kcalls::WAKE_TTY | kcalls::WAKE_PIPE_DATA | kcalls::WAKE_PIPE_SPACE => {
                let (wait, kind, class, arg) = self.wait_selector(sel);
                crate::trace!(self, self.trace_tid(), kind, class, arg);
                self.wake(wait);
            }
            _ => return false,
        }
        true
    }

    /// `WAIT_PIPE_SPACE` from a writer of `d1` bytes to pipe `pid`: it
    /// waits until the whole write fits, since a write up to the ring size
    /// is atomic. A write larger than the ring could never fit, so its
    /// count is cut to the ring size first and the writer's retry
    /// completes as a short write.
    fn pipe_write_must_wait(&mut self, pid: u32) -> bool {
        let Some(p) = self.live_pipe(pid) else {
            return false;
        };
        let (size, space) = (p.size, p.space(&self.m));
        let count = self.m.cpu.d[1].min(size);
        self.m.cpu.d[1] = count;
        space < count
    }

    /// The general kernel call (trap #0).
    fn general_call(&mut self, call: u32) {
        let d1 = self.m.cpu.d[1];
        let d2 = self.m.cpu.d[2];
        let a0 = self.m.cpu.a[0];
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
            general::THREAD_STOP if self.current_tid() == Some(d1) => status(self.stop_here(d1)),
            general::THREAD_STOP => status(self.stop(d1)),
            general::THREAD_DESTROY => status(self.destroy(d1)),
            general::SIGNAL => status(self.signal_from_kcall(d1)),
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
            general::SIG_RETURN => match self.sig_return() {
                Ok(()) => return, // d0 is the interrupted context's
                Err(e) => status(Err(e)),
            },
            general::PIPE => self
                .pipe()
                .map_or_else(neg, |(rfd, wfd)| i64::from((rfd << 8) | wfd)),
            // A one-shot alarm `d1` µs from now (Table 5: set alarm); 0
            // cancels the one set, and `WAIT_ALARM` then waits for none.
            general::SET_ALARM => {
                self.alarm_pending = d1 != 0;
                let addr = dev_reg_addr(self.dev.alarm, timer_regs::REG_ALARM_US);
                self.m.host_reg_write(addr, d1);
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
        // A call that blocked, yielded or stopped its caller has not saved
        // it yet — its switch code runs after this returns — so the result
        // is in what the thread resumes with. A call about a thread current
        // on another CPU came back to this one before returning here.
        self.m.cpu.d[0] = result as u32;
    }

    /// Give the CPU to the next thread in this CPU's chain after us — the
    /// one our own chain `jmp` names — or, with no other ready thread,
    /// return at once.
    fn yield_current(&mut self) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        let cpu = self.home_cpu(tid);
        let next = self.cpus[cpu].ready.next_of_id(tid);
        if next.is_some_and(|n| n != tid) {
            self.switch_out(tid);
        }
    }

    // --- Signals ------------------------------------------------------------

    /// Send a signal: the target will run its signal handler the next
    /// time it is activated (Section 4.3) — a running target on its own
    /// CPU before this returns. Host API: callable between [`Kernel::run`]
    /// slices.
    ///
    /// # Errors
    ///
    /// The target must exist and have a handler installed.
    pub fn signal(&mut self, target: Tid, _sig: u32) -> Result<(), KernelError> {
        self.on_owner(target, |k| k.signal_here(target))
    }

    /// [`Kernel::signal`] on the CPU where `target` is current, if
    /// anywhere. A running target is parked by its own switch code,
    /// handed the context and frame a parked thread gets, and resumed
    /// through its switch-in, so the handler runs first.
    fn signal_here(&mut self, target: Tid) -> Result<(), KernelError> {
        if self.current_tid() != Some(target) {
            return self.signal_parked(target);
        }
        if !self.park(target) {
            return Err(KernelError::Invalid("the target could not be parked"));
        }
        let delivered = self.signal_parked(target);
        self.enter(target);
        self.ensure_safe_point();
        delivered
    }

    /// Deliver a signal to `target` by writing, beneath `top` on its
    /// kernel stack, the context `(regs, usp)` and a frame that enters its
    /// handler in user mode. The `rte` that takes the frame runs the
    /// handler; its `SIG_RETURN` pops the context and the `rte` takes the
    /// frame beneath. Returns the new top of the stack, for the caller to
    /// make the target's supervisor stack pointer.
    ///
    /// Nothing is written when `target` has no handler installed, or when
    /// the write would leave less than [`SIGNAL_MARGIN`] of the stack.
    fn push_signal(
        &mut self,
        target: Tid,
        top: u32,
        (regs, usp): SavedRegs,
    ) -> Result<u32, KernelError> {
        let t = self
            .threads
            .get(&target)
            .ok_or(KernelError::NoThread(target))?;
        let handler = self.m.mem.peek(t.tte + off::SIG_HANDLER, Size::L);
        if handler == 0 {
            return Err(KernelError::Invalid("no signal handler installed"));
        }
        let room =
            t.kstack() + SIGNAL_MARGIN + SIGNAL_DELIVERY_LEN..=t.kstack() + layout::KSTACK_LEN;
        if !room.contains(&top) {
            return Err(KernelError::Invalid(
                "no room for a signal on the kernel stack",
            ));
        }
        let sp = top - SIGNAL_DELIVERY_LEN;
        self.m.mem.poke(sp, Size::W, 0); // user mode
        self.m.mem.poke(sp + 2, Size::L, handler);
        for (i, &v) in regs.iter().chain([&usp]).enumerate() {
            self.m.mem.poke(sp + 6 + 4 * i as u32, Size::L, v);
        }
        let c = 3 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
        Ok(sp)
    }

    /// The `SIGNAL` call: to another thread as [`Kernel::signal`]
    /// delivers, on whichever CPU it is current; to the calling thread
    /// beneath its own trap frame, so the handler runs when the call
    /// returns and the caller resumes with the call's result, 0.
    fn signal_from_kcall(&mut self, target: Tid) -> Result<(), KernelError> {
        if self.current_tid() != Some(target) {
            return self.signal(target, 0);
        }
        let mut regs = [0u32; 15]; // d0: the call's result
        regs[1..8].copy_from_slice(&self.m.cpu.d[1..]);
        regs[8..].copy_from_slice(&self.m.cpu.a[..7]);
        let sp = self.push_signal(target, self.m.cpu.a[7], (regs, self.m.cpu.usp()))?;
        self.m.cpu.a[7] = sp;
        Ok(())
    }

    /// Deliver to a thread whose state lives in its TTE: the context is
    /// its save area, and the stack is the one its switch-in resumes.
    fn signal_parked(&mut self, target: Tid) -> Result<(), KernelError> {
        let t = self
            .threads
            .get(&target)
            .ok_or(KernelError::NoThread(target))?;
        let (tte, saved) = (t.tte, t.parked_regs(&self.m.mem));
        let ssp = self.m.mem.peek(tte + off::SSP, Size::L);
        let sp = self.push_signal(target, ssp, saved)?;
        self.m.mem.poke(tte + off::SSP, Size::L, sp);
        Ok(())
    }

    /// The `SIG_RETURN` call: drop this call's own frame and pop the
    /// context beneath it, so the `rte` takes the frame the handler
    /// interrupted. A thread with no handler active has no context to
    /// pop, and is refused.
    fn sig_return(&mut self) -> Result<(), KernelError> {
        let Some(tid) = self.current_tid() else {
            return Ok(());
        };
        // This call's frame, the context, then the interrupted frame.
        let at = self.m.cpu.a[7] + 6;
        let top = self.threads[&tid].kstack() + layout::KSTACK_LEN;
        if at + SIGNAL_CONTEXT_LEN + 6 > top {
            return Err(KernelError::Invalid("no signal handler is active"));
        }
        let saved: [u32; 16] = std::array::from_fn(|i| self.m.mem.peek(at + 4 * i as u32, Size::L));
        self.m.cpu.d.copy_from_slice(&saved[..8]);
        self.m.cpu.a[..7].copy_from_slice(&saved[8..15]);
        self.m.cpu.set_usp(saved[15]);
        self.m.cpu.a[7] = at + SIGNAL_CONTEXT_LEN;
        Ok(())
    }
}
