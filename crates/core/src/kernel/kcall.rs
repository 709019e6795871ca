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
use crate::charges;
use crate::syscall::{errno, general, kcalls};
use crate::thread::tte::off;
use crate::thread::{Tid, WaitObject};
use crate::trace::{Kind, QCLASS_PIPE, QCLASS_TTY};

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
                    WaitObject::PipeData(p) => self
                        .pipes
                        .get(p as usize)
                        .is_some_and(|p| p.available(&self.m) == 0),
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
        let Some(p) = self.pipes.get(pid as usize) else {
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
            general::SIG_RETURN => {
                self.sig_return();
                return; // d0 intentionally preserved from the saved registers
            }
            general::PIPE => self
                .pipe()
                .map_or_else(neg, |(rfd, wfd)| i64::from((rfd << 8) | wfd)),
            // A one-shot alarm `d1` µs from now (Table 5: set alarm).
            general::SET_ALARM => {
                self.alarm_pending = true;
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
    /// handed the frame a parked thread gets, and resumed through its
    /// switch-in, so the fabricated frame unwinds first.
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

    /// `target`'s TTE and installed signal handler.
    fn signal_handler_of(&self, target: Tid) -> Result<(u32, u32), KernelError> {
        let t = self
            .threads
            .get(&target)
            .ok_or(KernelError::NoThread(target))?;
        let handler = self.m.mem.peek(t.tte + off::SIG_HANDLER, Size::L);
        if handler == 0 {
            return Err(KernelError::Invalid("no signal handler installed"));
        }
        Ok((t.tte, handler))
    }

    /// Remember what `target`'s handler interrupts, for `SIG_RETURN`.
    fn finish_delivery(&mut self, target: Tid, saved: crate::thread::SavedRegs) {
        self.threads
            .get_mut(&target)
            .expect("signalled thread exists")
            .sig_saved = Some(saved);
        let c = 3 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
    }

    /// The `SIGNAL` call: to another thread as [`Kernel::signal`]
    /// delivers, on whichever CPU it is current; to the calling thread
    /// from inside its own kernel call.
    fn signal_from_kcall(&mut self, target: Tid) -> Result<(), KernelError> {
        if self.current_tid() != Some(target) {
            return self.signal(target, 0);
        }
        let (tte, handler) = self.signal_handler_of(target)?;
        // Running target: rewrite the active trap frame (we are in a
        // kernel call from it). Park the old PC and swap in the handler.
        let sp = self.m.cpu.a[7];
        let old_pc = self.m.mem.peek(sp + 2, Size::L);
        self.m.mem.poke(tte + off::SIG_PC, Size::L, old_pc);
        self.m.mem.poke(sp + 2, Size::L, handler);
        let mut regs = [0u32; 15];
        regs[..8].copy_from_slice(&self.m.cpu.d);
        regs[8..].copy_from_slice(&self.m.cpu.a[..7]);
        self.finish_delivery(target, (regs, self.m.cpu.usp()));
        Ok(())
    }

    /// Deliver to a thread whose state lives in its TTE: push a
    /// fabricated frame so its next `rte` runs the handler; `SIG_RETURN`
    /// then falls back to the real frame.
    fn signal_parked(&mut self, target: Tid) -> Result<(), KernelError> {
        let (tte, handler) = self.signal_handler_of(target)?;
        let ssp = self.m.mem.peek(tte + off::SSP, Size::L);
        let fake = ssp - 6;
        self.m.mem.poke(fake, Size::W, 0); // user mode
        self.m.mem.poke(fake + 2, Size::L, handler);
        self.m.mem.poke(tte + off::SSP, Size::L, fake);
        let saved = self.threads[&target].parked_regs(&self.m.mem);
        self.finish_delivery(target, saved);
        Ok(())
    }

    /// The `SIG_RETURN` call: give the current thread back the registers
    /// its handler interrupted and unwind the handler's frame.
    fn sig_return(&mut self) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        let t = self.threads.get_mut(&tid).expect("current exists");
        let tte = t.tte;
        if let Some((regs, usp)) = t.sig_saved.take() {
            self.m.cpu.d.copy_from_slice(&regs[..8]);
            self.m.cpu.a[..7].copy_from_slice(&regs[8..]);
            self.m.cpu.set_usp(usp);
        }
        // Drop the handler's trap frame; the original frame (or the
        // parked PC) sits right above it.
        let sp = self.m.cpu.a[7];
        let parked = self.m.mem.peek(tte + off::SIG_PC, Size::L);
        if parked != 0 {
            // Signal was delivered to a running thread: reuse this
            // frame, restoring the parked PC.
            self.m.mem.poke(sp + 2, Size::L, parked);
            self.m.mem.poke(tte + off::SIG_PC, Size::L, 0);
        } else {
            // Parked-thread delivery: discard this frame.
            self.m.cpu.a[7] = sp + 6;
        }
    }
}
