//! The fetch/execute loop.
//!
//! Executes instructions structurally, charging cycles per the
//! [`CostModel`](crate::cost::CostModel), counting instructions and memory
//! references, accepting interrupts between instructions, and vectoring
//! exceptions through the table at the VBR — so per-thread vector tables,
//! procedure chaining (return-address rewriting), and synthesized handlers
//! all behave as on the real machine.

use crate::code::{InstrFacts, SlabLoc};
use crate::cost::{BRANCH_TAKEN_EXTRA, EXCEPTION_BASE, EXCEPTION_REFS, IACK_BASE};
use crate::devices::DEV_BASE;
use crate::error::{Exception, MachineError};
use crate::isa::{BranchTarget, Instr, Operand, ShiftKind, Size};
use crate::machine::{FetchMemo, Machine, RunExit};
use crate::trace::TraceRecord;
use std::ops::ControlFlow;

/// A non-fatal or fatal execution fault.
enum Fault {
    /// A guest-visible exception: vector through the guest's handlers.
    Exc(Exception),
    /// A simulation bug: abort the run.
    Fatal(MachineError),
}

impl From<Exception> for Fault {
    fn from(e: Exception) -> Fault {
        Fault::Exc(e)
    }
}

impl From<MachineError> for Fault {
    fn from(e: MachineError) -> Fault {
        Fault::Fatal(e)
    }
}

/// A resolved operand location.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Data register.
    D(usize),
    /// Address register.
    A(usize),
    /// Memory at an absolute address.
    M(u32),
}

impl Machine {
    /// Execute instructions until `max_cycles` more cycles have elapsed, a
    /// `halt`/`kcall` executes, a breakpoint is hit, or a fatal error
    /// occurs.
    ///
    /// The loop is `step`'s two halves with the first hoisted: after one
    /// [`head`](Machine::head) the instructions of a *quiet stretch* run
    /// back to back, until the clock reaches the next point the head could
    /// answer differently or an instruction disturbs the machine. A CPU in
    /// `stop` sleeps to its next event or to the end of the budget,
    /// whichever comes first, and is still stopped when a budget that ran
    /// out first returns [`RunExit::CycleLimit`]: the clock never passes
    /// the budget while nothing executes, so whoever called `run` can hand
    /// the sleeping CPU work that shows up in the meantime.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let limit = self.meter.cycles.saturating_add(max_cycles);
        let mut first = true;
        loop {
            if !first && !self.breakpoints.is_empty() && self.breakpoints.contains(&self.cpu.pc) {
                return RunExit::Breakpoint(self.cpu.pc);
            }
            first = false;
            match self.head(limit) {
                Ok(ControlFlow::Continue(())) => {
                    let horizon = self.quiet_horizon(limit);
                    self.disturbed = false;
                    loop {
                        match self.fetch_exec() {
                            Ok(None) => {}
                            Ok(Some(exit)) => return exit,
                            Err(e) => return RunExit::Error(e),
                        }
                        if self.meter.cycles >= horizon || self.disturbed {
                            break;
                        }
                        debug_assert!(
                            self.head_is_quiet(),
                            "quiet stretch: the head would act at pc={:#x}",
                            self.cpu.pc
                        );
                    }
                }
                Ok(ControlFlow::Break(None)) => {}
                Ok(ControlFlow::Break(Some(exit))) => return exit,
                Err(e) => return RunExit::Error(e),
            }
            if self.meter.cycles >= limit {
                return RunExit::CycleLimit;
            }
        }
    }

    /// Execute one instruction (or service one interrupt / idle tick).
    /// A stopped CPU sleeps to its next event: [`step_until`] with no
    /// limit.
    ///
    /// Returns `Ok(Some(_))` when control should return to the embedder.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on fatal simulation problems (bad PC,
    /// unfilled hole, double fault).
    ///
    /// [`step_until`]: Machine::step_until
    pub fn step(&mut self) -> Result<Option<RunExit>, MachineError> {
        self.step_until(u64::MAX)
    }

    /// One step whose sleep, if the CPU is stopped, ends at the clock
    /// `limit` should the next event fall later — the step [`run`] is a
    /// loop of for a budget ending at `limit`.
    ///
    /// # Errors
    ///
    /// As [`step`](Machine::step).
    ///
    /// [`run`]: Machine::run
    pub fn step_until(&mut self, limit: u64) -> Result<Option<RunExit>, MachineError> {
        match self.head(limit)? {
            ControlFlow::Continue(()) => self.fetch_exec(),
            ControlFlow::Break(exit) => Ok(exit),
        }
    }

    /// What comes before every instruction: deliver due events, accept an
    /// interrupt, sleep while stopped (no later than the clock `limit`).
    /// `Break` means the step is spent (or the run is over) without
    /// fetching.
    fn head(&mut self, limit: u64) -> Result<ControlFlow<Option<RunExit>>, MachineError> {
        if self.events_due() {
            self.process_events();
        }

        // Interrupt acceptance between instructions (the active CPU's
        // own pending lines).
        let active = self.active_cpu();
        if let Some(level) = self.irq.acceptable_on(active, self.cpu.int_mask()) {
            self.irq.accept_on(active, level);
            self.cpu.stopped = false;
            self.meter.cycles += IACK_BASE;
            self.take_exception(Exception::Interrupt(level), self.cpu.pc)?;
            return Ok(ControlFlow::Break(None));
        }

        // STOP state: sleep until the next device event on this CPU's
        // timeline can raise an IRQ, or until `limit` if that comes first.
        if self.cpu.stopped {
            return Ok(ControlFlow::Break(match self.events.next_due_for(active) {
                Some(next) => {
                    self.sleep_until(next.min(limit));
                    None
                }
                // Stopped forever: nothing will ever wake us.
                None => Some(RunExit::Halted),
            }));
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Whether [`head`](Machine::head) would fall straight through.
    fn head_is_quiet(&self) -> bool {
        !self.events_due()
            && !self.cpu.stopped
            && self
                .irq
                .acceptable_on(self.active_cpu(), self.cpu.int_mask())
                .is_none()
    }

    /// The clock below which a quiet head stays quiet, provided no
    /// instruction sets `disturbed`: the next event due on this CPU, capped
    /// by `limit`. Zero — a stretch of one instruction — while the head has
    /// work on every step (a fault plan to consult, a delayed IPI to time)
    /// or `run` has breakpoints to probe.
    fn quiet_horizon(&self, limit: u64) -> u64 {
        if self.events_due() || !self.breakpoints.is_empty() {
            return 0;
        }
        let next = self.events.next_due_for(self.active_cpu());
        next.map_or(limit, |due| due.min(limit))
    }

    /// Fetch and execute the instruction at `pc`, vectoring any exception
    /// it raises: the second half of a step.
    #[inline(always)]
    fn fetch_exec(&mut self) -> Result<Option<RunExit>, MachineError> {
        // Fetch. Where `pc` lives is remembered from the step that set it
        // (sequential flow and in-block branches) while that block stays
        // loaded; any other way `pc` moved, or an unload of the block,
        // misses and asks `CodeMem`, which answers from its line table or
        // searches. The instruction and its facts are read from the block
        // every time, so a patch is seen by the very next step.
        let pc = self.cpu.pc;
        let (at, r) = match self.next_fetch {
            Some(m) if m.pc == pc => match self.code.live(m.at, m.gen) {
                Some(r) => (m.at, r),
                None => self.code.fetch_slow(pc)?,
            },
            _ => self.code.fetch_slow(pc)?,
        };
        let index = at.index as usize;
        let (instr, facts) = (r.block.instrs[index], r.facts[index]);
        // Every step cross-checks the memo or line and the load-time facts
        // against the searched, recomputed answer wherever debug
        // assertions are on.
        debug_assert_eq!(self.code.search(pc), Some(at), "a stale fetch memo or line");
        debug_assert_eq!(facts, InstrFacts::of(&instr));
        if facts.hole {
            return Err(MachineError::UnfilledHole(pc));
        }

        // Default fallthrough: the next instruction in the block (or the
        // first byte past the block, which faults on the next step if
        // actually reached). The end sentinel is an address, not an
        // instruction of this block, so nothing is remembered for it.
        let next_pc = r.base + r.block.offsets[index + 1];
        self.next_fetch = (index + 1 < r.block.instrs.len()).then_some(FetchMemo {
            gen: r.gen,
            pc: next_pc,
            at: SlabLoc {
                slot: at.slot,
                index: at.index + 1,
            },
        });

        self.meter.instr_count += 1;
        if self.meter.tracing {
            self.meter.record(TraceRecord {
                pc,
                instr,
                cycle: self.meter.cycles,
            });
        }
        self.meter.cycles += u64::from(facts.base) + u64::from(facts.refs) * self.cost.bus_cycles();
        self.cpu.pc = next_pc;

        #[cfg(debug_assertions)]
        let entry = (self.cpu.d, self.cpu.a, self.cpu.sr);

        match self.exec_instr(&instr, at.slot) {
            Ok(exit) => {
                #[cfg(debug_assertions)]
                if exit.is_none() {
                    self.assert_writes_declared(&instr, entry);
                }
                Ok(exit)
            }
            Err(Fault::Fatal(e)) => Err(e),
            Err(Fault::Exc(e)) => {
                // Faults re-point at the faulting instruction so handlers
                // can fix the cause and retry (the lazy-FP resynthesis
                // depends on this); traps resume after.
                let push_pc = match e {
                    Exception::Trap(_) => next_pc,
                    _ => pc,
                };
                // Attribute error-class faults to the running thread (by
                // its VBR) so embedders can spot a thread stuck
                // re-faulting. Traps, interrupts, and lazy-FP are normal
                // control flow and not counted.
                if matches!(
                    e,
                    Exception::BusError
                        | Exception::AddressError
                        | Exception::IllegalInstruction
                        | Exception::PrivilegeViolation
                ) {
                    *self.meter.error_faults.entry(self.cpu.vbr).or_insert(0) += 1;
                }
                self.take_exception(e, push_pc)?;
                Ok(None)
            }
        }
    }

    /// Wherever debug assertions are on, every instruction that retires
    /// without an exception is a trial of the write side of
    /// [`Instr::effects`]: nothing it does not list may differ from `entry`.
    /// A failure here means the table is wrong for `instr`.
    #[cfg(debug_assertions)]
    fn assert_writes_declared(&self, instr: &Instr, (d, a, sr): ([u32; 8], [u32; 8], u16)) {
        let fx = instr.effects();
        let changed = |was: [u32; 8], now: [u32; 8]| {
            (0..8).fold(0u16, |m, i| m | u16::from(was[i] != now[i]) << i)
        };
        let regs = changed(d, self.cpu.d) | changed(a, self.cpu.a) << 8;
        debug_assert!(
            regs & !fx.writes.0 == 0,
            "`{instr}` changed registers {regs:#06x}; its effects() writes {:#06x}",
            fx.writes.0
        );
        debug_assert!(
            fx.writes_flags || (self.cpu.sr ^ sr) & crate::cpu::sr_bits::CCR == 0,
            "`{instr}` changed the flags; its effects() says it leaves them alone"
        );
    }

    /// Vector an exception: push PC and SR on the supervisor stack, switch
    /// to supervisor mode, read the handler from the vector table, jump.
    ///
    /// # Errors
    ///
    /// A fault during exception processing (unreadable or null vector) is
    /// a double fault, which is fatal.
    pub fn take_exception(&mut self, e: Exception, push_pc: u32) -> Result<(), MachineError> {
        // Entry rewrites `sr` (S, and the mask for an interrupt).
        self.disturbed = true;
        // Exception-entry hook: traps are the syscall boundary and
        // interrupt acceptance is the I/O boundary, both stamped with the
        // VBR (= running thread) before any vectoring happens. Charges no
        // guest cycles.
        match e {
            Exception::Trap(n) => {
                let cpu = self.active_cpu();
                self.hooks.push(crate::trace::MachEvent::Trap {
                    vector: n,
                    vbr: self.cpu.vbr,
                    cycle: self.meter.cycles,
                    cpu,
                });
            }
            Exception::Interrupt(level) => {
                let cpu = self.active_cpu();
                self.hooks.push(crate::trace::MachEvent::IrqAccept {
                    level,
                    vbr: self.cpu.vbr,
                    cycle: self.meter.cycles,
                    cpu,
                });
            }
            _ => {}
        }
        let mask = match e {
            Exception::Interrupt(level) => Some(level),
            _ => None,
        };
        self.push_frame(mask, push_pc)
            .map_err(|e2| MachineError::DoubleFault(e, e2))?;

        let vec_addr = self.cpu.vbr.wrapping_add(4 * e.vector());
        let handler = match self.mem.read(vec_addr, Size::L, true) {
            Ok(h) => h,
            Err(e2) => return Err(MachineError::DoubleFault(e, e2)),
        };
        if handler == 0 {
            return Err(MachineError::DoubleFault(e, Exception::BusError));
        }
        self.cpu.pc = handler;
        Ok(())
    }

    /// Enter `handler` the way an exception enters its handler, with every
    /// interrupt masked: the frame (the current SR, and the current PC to
    /// resume at) on the supervisor stack, in supervisor state from either
    /// mode, at the cost of exception processing — everything
    /// [`take_exception`](Machine::take_exception) does but the vector read
    /// and the entry hooks. The mask is the one an IPI's `ipi_in` raises,
    /// for the same reason: nothing may nest into a context being saved.
    /// Like an accepted interrupt, it ends a `stop`: the frame resumes
    /// after it.
    ///
    /// # Errors
    ///
    /// A stack that cannot take the frame is a bus error during exception
    /// processing, a double fault.
    pub fn exception_to(&mut self, handler: u32) -> Result<(), MachineError> {
        self.disturbed = true;
        self.cpu.stopped = false;
        let pc = self.cpu.pc;
        self.push_frame(Some(7), pc)
            .map_err(|e| MachineError::DoubleFault(e, e))?;
        self.cpu.pc = handler;
        Ok(())
    }

    /// The half of exception entry every entry shares: count and charge
    /// it, enter supervisor state (with interrupt mask `mask`, when
    /// given), and push the frame — PC at SP+2, SR at SP (68000 layout) —
    /// on the supervisor stack. A frame that does not fit is a bus error.
    fn push_frame(&mut self, mask: Option<u8>, push_pc: u32) -> Result<(), Exception> {
        self.meter.exception_count += 1;
        self.meter.cycles += EXCEPTION_BASE + EXCEPTION_REFS * self.cost.bus_cycles();

        let old_sr = self.cpu.sr;
        if !self.cpu.supervisor() {
            self.cpu.write_sr(old_sr | crate::cpu::sr_bits::S);
        }
        if let Some(level) = mask {
            self.cpu.set_int_mask(level);
        }

        let sp = self.cpu.a[7].wrapping_sub(6);
        self.cpu.a[7] = sp;
        let w1 = self.mem.write(sp.wrapping_add(2), Size::L, push_pc, true);
        let w2 = self.mem.write(sp, Size::W, u32::from(old_sr), true);
        if w1.is_err() || w2.is_err() {
            return Err(Exception::BusError);
        }
        Ok(())
    }

    // --- Operand plumbing -------------------------------------------------

    /// Compute the effective address of a memory operand, applying
    /// post-increment / pre-decrement side effects exactly once. The one
    /// out-of-line call a memory operand makes: inlined, this `match`
    /// lands in every arm of `exec_instr` that takes an operand.
    #[inline(never)]
    fn ea_addr(&mut self, op: &Operand, size: Size) -> u32 {
        // Byte operations on A7 move it by 2 to keep the stack even.
        let step = |n: u8, size: Size| -> u32 {
            if n == 7 && size == Size::B {
                2
            } else {
                size.bytes()
            }
        };
        match *op {
            Operand::Ind(n) => self.cpu.a[n as usize],
            Operand::PostInc(n) => {
                let v = self.cpu.a[n as usize];
                self.cpu.a[n as usize] = v.wrapping_add(step(n, size));
                v
            }
            Operand::PreDec(n) => {
                let v = self.cpu.a[n as usize].wrapping_sub(step(n, size));
                self.cpu.a[n as usize] = v;
                v
            }
            Operand::Disp(d, n) => self.cpu.a[n as usize].wrapping_add(d as i32 as u32),
            Operand::Idx(d, n, ix) => {
                let base = self.cpu.a[n as usize];
                let idx = if ix.addr {
                    self.cpu.a[ix.reg as usize]
                } else {
                    self.cpu.d[ix.reg as usize]
                };
                base.wrapping_add(d as i32 as u32)
                    .wrapping_add(idx.wrapping_mul(u32::from(ix.scale)))
            }
            Operand::Abs(a) => a,
            Operand::Dr(_) | Operand::Ar(_) | Operand::Imm(_) => {
                unreachable!("ea_addr on a non-memory operand")
            }
            Operand::ImmHole(_) | Operand::AbsHole(_) => {
                unreachable!("holes are rejected before execution")
            }
        }
    }

    /// Resolve an operand to a place (applying address side effects once).
    #[inline(always)]
    fn resolve(&mut self, op: &Operand, size: Size) -> Place {
        match *op {
            Operand::Dr(n) => Place::D(n as usize),
            Operand::Ar(n) => Place::A(n as usize),
            _ => Place::M(self.ea_addr(op, size)),
        }
    }

    /// Load from a place.
    #[inline(always)]
    fn load(&mut self, p: Place, size: Size) -> Result<u32, Fault> {
        match p {
            Place::D(n) => Ok(self.cpu.d[n] & size.mask()),
            Place::A(n) => Ok(self.cpu.a[n] & size.mask()),
            Place::M(addr) => Ok(self.bus_read(addr, size)?),
        }
    }

    /// Store to a place. Register stores merge into the low bits (68000
    /// semantics), except address registers, which always receive a full
    /// sign-extended 32-bit value.
    #[inline(always)]
    fn store(&mut self, p: Place, size: Size, v: u32) -> Result<(), Fault> {
        match p {
            Place::D(n) => {
                let old = self.cpu.d[n];
                self.cpu.d[n] = (old & !size.mask()) | (v & size.mask());
            }
            Place::A(n) => {
                self.cpu.a[n] = size.sext(v);
            }
            Place::M(addr) => self.bus_write(addr, size, v)?,
        }
        Ok(())
    }

    /// Read a source operand (immediates included).
    #[inline(always)]
    fn read_src(&mut self, op: &Operand, size: Size) -> Result<u32, Fault> {
        match *op {
            Operand::Imm(v) => Ok(v & size.mask()),
            _ => {
                let p = self.resolve(op, size);
                self.load(p, size)
            }
        }
    }

    /// Push a long onto the active stack.
    fn push_l(&mut self, v: u32) -> Result<(), Fault> {
        let sp = self.cpu.a[7].wrapping_sub(4);
        self.cpu.a[7] = sp;
        self.bus_write(sp, Size::L, v)?;
        Ok(())
    }

    /// Pop a long from the active stack.
    fn pop_l(&mut self) -> Result<u32, Fault> {
        let sp = self.cpu.a[7];
        let v = self.bus_read(sp, Size::L)?;
        self.cpu.a[7] = sp.wrapping_add(4);
        Ok(v)
    }

    /// Resolve a control-flow target effective address (no memory read:
    /// `jmp (a0)` jumps to the address *in* `a0`).
    #[inline(always)]
    fn control_target(&mut self, op: &Operand) -> u32 {
        match *op {
            Operand::Ar(n) => self.cpu.a[n as usize],
            _ => self.ea_addr(op, Size::L),
        }
    }

    /// Branch within the block in `slot`.
    fn branch_to(&mut self, slot: u32, t: BranchTarget) -> Result<(), Fault> {
        match t {
            BranchTarget::Idx(i) => {
                let r = self.code.resident(slot);
                let off = r
                    .block
                    .offsets
                    .get(i as usize)
                    .ok_or(MachineError::BadCodeAddress(r.base))?;
                let addr = r.base + off;
                // As in `step`: the end sentinel is an address, not an
                // instruction, so nothing is remembered for it. (Sharing
                // this with `step` through a helper measured 3-5 % slower
                // on `compute`.)
                self.next_fetch = ((i as usize) < r.block.instrs.len()).then_some(FetchMemo {
                    gen: r.gen,
                    pc: addr,
                    at: SlabLoc { slot, index: i },
                });
                self.cpu.pc = addr;
                self.meter.cycles += BRANCH_TAKEN_EXTRA;
                Ok(())
            }
            BranchTarget::Label(_) => Err(MachineError::UnresolvedLabel(self.cpu.pc).into()),
        }
    }

    /// An instruction writes the whole `sr`. The mask feeds the step head
    /// (and `stop`, the other thing it watches, comes with an `sr` write),
    /// so this ends `run`'s quiet stretch.
    #[inline(always)]
    fn write_sr(&mut self, v: u16) {
        self.cpu.write_sr(v);
        self.disturbed = true;
    }

    /// Require supervisor mode.
    #[inline(always)]
    fn privileged(&self) -> Result<(), Fault> {
        if self.cpu.supervisor() {
            Ok(())
        } else {
            Err(Exception::PrivilegeViolation.into())
        }
    }

    // --- Flag arithmetic ---------------------------------------------------

    #[inline(always)]
    fn flags_move(&mut self, size: Size, v: u32) {
        let v = v & size.mask();
        self.cpu
            .set_nzvc(v & size.sign_bit() != 0, v == 0, false, false);
    }

    #[inline(always)]
    fn add_flags(&mut self, size: Size, a: u32, b: u32) -> u32 {
        let (a, b) = (a & size.mask(), b & size.mask());
        let r = a.wrapping_add(b) & size.mask();
        let c = (u64::from(a) + u64::from(b)) > u64::from(size.mask());
        let sb = size.sign_bit();
        let v = ((a ^ r) & (b ^ r) & sb) != 0;
        self.cpu.set_nzvc_x(r & sb != 0, r == 0, v, c);
        r
    }

    #[inline(always)]
    fn sub_flags(&mut self, size: Size, dst: u32, src: u32, set_x: bool) -> u32 {
        let (dst, src) = (dst & size.mask(), src & size.mask());
        let r = dst.wrapping_sub(src) & size.mask();
        let c = src > dst;
        let sb = size.sign_bit();
        let v = ((dst ^ src) & (dst ^ r) & sb) != 0;
        if set_x {
            self.cpu.set_nzvc_x(r & sb != 0, r == 0, v, c);
        } else {
            self.cpu.set_nzvc(r & sb != 0, r == 0, v, c);
        }
        r
    }

    #[inline(always)]
    fn flags_logic(&mut self, size: Size, r: u32) {
        self.cpu
            .set_nzvc(r & size.sign_bit() != 0, r & size.mask() == 0, false, false);
    }

    // --- The instruction dispatch -------------------------------------------

    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec_instr(&mut self, i: &Instr, slot: u32) -> Result<Option<RunExit>, Fault> {
        use Instr::*;
        match *i {
            Move(size, ref s, ref d) => {
                let v = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                self.store(p, size, v)?;
                // MOVEA (address destination) does not affect flags.
                if !matches!(p, Place::A(_)) {
                    self.flags_move(size, v);
                }
            }
            Movem {
                to_mem,
                regs,
                ref ea,
            } => {
                self.exec_movem(to_mem, regs, ea)?;
            }
            Lea(ref ea, n) => {
                let addr = self.ea_addr(ea, Size::L);
                self.cpu.a[n as usize] = addr;
            }
            Add(size, ref s, ref d) => {
                let sv = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                let dv = self.load(p, size)?;
                if let Place::A(n) = p {
                    // ADDA: full-width, no flags.
                    self.cpu.a[n] = self.cpu.a[n].wrapping_add(size.sext(sv));
                } else {
                    let r = self.add_flags(size, dv, sv);
                    self.store(p, size, r)?;
                }
            }
            Sub(size, ref s, ref d) => {
                let sv = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                let dv = self.load(p, size)?;
                if let Place::A(n) = p {
                    self.cpu.a[n] = self.cpu.a[n].wrapping_sub(size.sext(sv));
                } else {
                    let r = self.sub_flags(size, dv, sv, true);
                    self.store(p, size, r)?;
                }
            }
            Cmp(size, ref s, ref d) => {
                let sv = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                let dv = self.load(p, size)?;
                self.sub_flags(size, dv, sv, false);
            }
            Tst(size, ref ea) => {
                let v = self.read_src(ea, size)?;
                self.flags_move(size, v);
            }
            And(size, ref s, ref d) => {
                let sv = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                let dv = self.load(p, size)?;
                let r = dv & sv;
                self.store(p, size, r)?;
                self.flags_logic(size, r);
            }
            Eor(size, ref s, ref d) => {
                let sv = self.read_src(s, size)?;
                let p = self.resolve(d, size);
                let dv = self.load(p, size)?;
                let r = dv ^ sv;
                self.store(p, size, r)?;
                self.flags_logic(size, r);
            }
            Shift(kind, size, ref cnt, ref d) => {
                let c = self.read_src(cnt, Size::L)? % 64;
                let p = self.resolve(d, size);
                let v = self.load(p, size)?;
                let r = self.exec_shift(kind, size, v, c);
                self.store(p, size, r)?;
            }
            Bcc(cond, t) => {
                let taken = cond.eval(
                    self.cpu.flag_n(),
                    self.cpu.flag_z(),
                    self.cpu.flag_v(),
                    self.cpu.flag_c(),
                );
                if taken {
                    self.branch_to(slot, t)?;
                }
            }
            Dbf(n, t) => {
                let w = self.cpu.d[n as usize] & 0xFFFF;
                let nw = w.wrapping_sub(1) & 0xFFFF;
                self.cpu.d[n as usize] = (self.cpu.d[n as usize] & !0xFFFF) | nw;
                if nw != 0xFFFF {
                    self.branch_to(slot, t)?;
                }
            }
            Jmp(ref ea) => {
                self.cpu.pc = self.control_target(ea);
            }
            Jsr(ref ea) => {
                let target = self.control_target(ea);
                let ret = self.cpu.pc;
                self.push_l(ret)?;
                self.cpu.pc = target;
            }
            Rts => {
                self.cpu.pc = self.pop_l()?;
            }
            Rte => {
                self.privileged()?;
                let sp = self.cpu.a[7];
                let sr = self.bus_read(sp, Size::W)?;
                let pc = self.bus_read(sp.wrapping_add(2), Size::L)?;
                self.cpu.a[7] = sp.wrapping_add(6);
                self.write_sr(sr as u16);
                self.cpu.pc = pc;
                {
                    let cpu = self.active_cpu();
                    self.hooks.push(crate::trace::MachEvent::Rte {
                        vbr: self.cpu.vbr,
                        cycle: self.meter.cycles,
                        cpu,
                    });
                }
            }
            Trap(n) => {
                return Err(Exception::Trap(n).into());
            }
            Cas {
                size,
                dc,
                du,
                ref ea,
            } => {
                let p = self.resolve(ea, size);
                let mv = self.load(p, size)?;
                let cv = self.cpu.d[dc as usize] & size.mask();
                self.sub_flags(size, mv, cv, false);
                if mv == cv {
                    let uv = self.cpu.d[du as usize];
                    self.store(p, size, uv)?;
                } else {
                    let old = self.cpu.d[dc as usize];
                    self.cpu.d[dc as usize] = (old & !size.mask()) | mv;
                }
            }
            Tas(ref ea) => {
                let p = self.resolve(ea, Size::B);
                let v = self.load(p, Size::B)?;
                self.cpu.set_nzvc(v & 0x80 != 0, v == 0, false, false);
                self.store(p, Size::B, v | 0x80)?;
            }
            Link(n, disp) => {
                let an = self.cpu.a[n as usize];
                self.push_l(an)?;
                self.cpu.a[n as usize] = self.cpu.a[7];
                self.cpu.a[7] = self.cpu.a[7].wrapping_add(disp as i32 as u32);
            }
            Unlk(n) => {
                self.cpu.a[7] = self.cpu.a[n as usize];
                let v = self.pop_l()?;
                self.cpu.a[n as usize] = v;
            }
            MoveSr { to_sr, ref ea } => {
                if to_sr {
                    self.privileged()?;
                    let v = self.read_src(ea, Size::W)?;
                    self.write_sr(v as u16);
                } else {
                    let sr = u32::from(self.cpu.sr);
                    let p = self.resolve(ea, Size::W);
                    self.store(p, Size::W, sr)?;
                }
            }
            MoveUsp { to_usp, areg } => {
                self.privileged()?;
                if to_usp {
                    let v = self.cpu.a[areg as usize];
                    self.cpu.set_usp(v);
                } else {
                    self.cpu.a[areg as usize] = self.cpu.usp();
                }
            }
            MoveVbr { to_vbr, ref ea } => {
                self.privileged()?;
                if to_vbr {
                    let v = self.read_src(ea, Size::L)?;
                    self.cpu.vbr = v;
                    // A new thread is on the CPU: it has the FPU only if
                    // its switch-in restores an FP context (`fmovem`), so
                    // one that never used FP takes its lazy-FP trap.
                    self.cpu.fpu_enabled = false;
                    {
                        let cpu = self.active_cpu();
                        self.hooks.push(crate::trace::MachEvent::VbrWrite {
                            vbr: v,
                            cycle: self.meter.cycles,
                            cpu,
                        });
                    }
                } else {
                    let vbr = self.cpu.vbr;
                    let p = self.resolve(ea, Size::L);
                    self.store(p, Size::L, vbr)?;
                }
            }
            Stop(sr) => {
                self.privileged()?;
                self.write_sr(sr);
                self.cpu.stopped = true;
            }
            Nop => {}
            FMove { to_mem, fp, ref ea } => {
                self.check_fpu()?;
                let addr = self.ea_addr(ea, Size::L);
                if to_mem {
                    let bits = self.cpu.fp[fp as usize].to_bits();
                    self.bus_write(addr, Size::L, (bits >> 32) as u32)?;
                    self.bus_write(addr.wrapping_add(4), Size::L, bits as u32)?;
                } else {
                    let hi = self.bus_read(addr, Size::L)?;
                    let lo = self.bus_read(addr.wrapping_add(4), Size::L)?;
                    self.cpu.fp[fp as usize] =
                        f64::from_bits((u64::from(hi) << 32) | u64::from(lo));
                }
            }
            FMovem {
                to_mem,
                regs,
                ref ea,
            } => {
                // The switch code's own save and restore of the FP file:
                // allowed in supervisor state whatever the FPU state, and a
                // restore hands the FPU to the context it loaded.
                if !self.cpu.supervisor() {
                    self.check_fpu()?;
                }
                let mut addr = self.ea_addr(ea, Size::L);
                for r in regs.iter() {
                    if to_mem {
                        let bits = self.cpu.fp[r as usize].to_bits();
                        self.bus_write(addr, Size::L, (bits >> 32) as u32)?;
                        self.bus_write(addr.wrapping_add(4), Size::L, bits as u32)?;
                    } else {
                        let hi = self.bus_read(addr, Size::L)?;
                        let lo = self.bus_read(addr.wrapping_add(4), Size::L)?;
                        self.cpu.fp[r as usize] =
                            f64::from_bits((u64::from(hi) << 32) | u64::from(lo));
                    }
                    addr = addr.wrapping_add(8);
                }
                self.cpu.fpu_enabled |= !to_mem;
            }
            Halt => return Ok(Some(RunExit::Halted)),
            KCall(n) => return Ok(Some(RunExit::KCall(n))),
        }
        Ok(None)
    }

    fn check_fpu(&self) -> Result<(), Fault> {
        if self.cpu.fpu_enabled {
            Ok(())
        } else {
            Err(Exception::FpUnavailable.into())
        }
    }

    fn exec_movem(
        &mut self,
        to_mem: bool,
        regs: crate::isa::RegList,
        ea: &Operand,
    ) -> Result<(), Fault> {
        match (*ea, to_mem) {
            (Operand::PreDec(n), true) => {
                // Store descending: highest register at the highest address.
                let mut addr = self.cpu.a[n as usize];
                for (is_a, r) in regs.iter().rev() {
                    addr = addr.wrapping_sub(4);
                    let v = if is_a {
                        self.cpu.a[r as usize]
                    } else {
                        self.cpu.d[r as usize]
                    };
                    self.bus_write(addr, Size::L, v)?;
                }
                self.cpu.a[n as usize] = addr;
            }
            (Operand::PostInc(n), false) => {
                let mut addr = self.cpu.a[n as usize];
                for (is_a, r) in regs.iter() {
                    let v = self.bus_read(addr, Size::L)?;
                    if is_a {
                        self.cpu.a[r as usize] = v;
                    } else {
                        self.cpu.d[r as usize] = v;
                    }
                    addr = addr.wrapping_add(4);
                }
                self.cpu.a[n as usize] = addr;
            }
            (Operand::PostInc(_) | Operand::PreDec(_), _) => {
                // movem (an)+ store / -(an) load are not encodable.
                return Err(Exception::IllegalInstruction.into());
            }
            _ => {
                let mut addr = self.ea_addr(ea, Size::L);
                // One check for the whole span when it is all memory and
                // every long of it would pass; else long by long, so a
                // fault leaves the longs before it transferred.
                let len = 4 * regs.count();
                if addr.checked_add(len).is_some_and(|end| end <= DEV_BASE)
                    && self.mem.span_ok(addr, len, to_mem, self.cpu.supervisor())
                {
                    let cpu = &mut self.cpu;
                    let span = self.mem.longs_mut(addr, len);
                    if to_mem {
                        // All sixteen registers as they would be stored,
                        // then each run of consecutive ones in one copy.
                        let mut image = [0u8; 64];
                        for (i, r) in cpu.d.iter().chain(&cpu.a).enumerate() {
                            image[4 * i..4 * i + 4].copy_from_slice(&r.to_be_bytes());
                        }
                        let (mut bits, mut at) = (u32::from(regs.0), 0);
                        while bits != 0 {
                            let lo = bits.trailing_zeros() as usize;
                            let n = (!(bits >> lo)).trailing_zeros() as usize;
                            span[at..at + 4 * n].copy_from_slice(&image[4 * lo..4 * (lo + n)]);
                            at += 4 * n;
                            bits &= !(((1 << n) - 1) << lo);
                        }
                    } else {
                        let mut bits = regs.0;
                        for long in span.chunks_exact(4) {
                            let i = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let v = u32::from_be_bytes([long[0], long[1], long[2], long[3]]);
                            if i < 8 {
                                cpu.d[i] = v;
                            } else {
                                cpu.a[i - 8] = v;
                            }
                        }
                    }
                    return Ok(());
                }
                for (is_a, r) in regs.iter() {
                    if to_mem {
                        let v = if is_a {
                            self.cpu.a[r as usize]
                        } else {
                            self.cpu.d[r as usize]
                        };
                        self.bus_write(addr, Size::L, v)?;
                    } else {
                        let v = self.bus_read(addr, Size::L)?;
                        if is_a {
                            self.cpu.a[r as usize] = v;
                        } else {
                            self.cpu.d[r as usize] = v;
                        }
                    }
                    addr = addr.wrapping_add(4);
                }
            }
        }
        Ok(())
    }

    fn exec_shift(&mut self, kind: ShiftKind, size: Size, v: u32, c: u32) -> u32 {
        let bits = size.bytes() * 8;
        let v = v & size.mask();
        if c == 0 {
            // Count 0: N/Z from value, V=C=0, X unaffected.
            self.cpu
                .set_nzvc(v & size.sign_bit() != 0, v == 0, false, false);
            return v;
        }
        let (r, carry) = match kind {
            ShiftKind::Lsl => {
                if c > bits {
                    (0, false)
                } else {
                    let r = (u64::from(v) << c) as u32 & size.mask();
                    let carry = c <= bits && (u64::from(v) >> (bits - c.min(bits))) & 1 != 0;
                    (r, carry)
                }
            }
            ShiftKind::Lsr => {
                if c > bits {
                    (0, false)
                } else {
                    let r = if c == bits { 0 } else { (v >> c) & size.mask() };
                    let carry = (v >> (c - 1)) & 1 != 0;
                    (r, carry)
                }
            }
            ShiftKind::Rol => {
                let c = c % bits;
                let r = if c == 0 {
                    v
                } else {
                    ((v << c) | (v >> (bits - c))) & size.mask()
                };
                (r, r & 1 != 0)
            }
            ShiftKind::Ror => {
                let c = c % bits;
                let r = if c == 0 {
                    v
                } else {
                    ((v >> c) | (v << (bits - c))) & size.mask()
                };
                (r, r & size.sign_bit() != 0)
            }
        };
        let n = r & size.sign_bit() != 0;
        let z = r == 0;
        match kind {
            ShiftKind::Rol | ShiftKind::Ror => self.cpu.set_nzvc(n, z, false, carry),
            _ => self.cpu.set_nzvc_x(n, z, false, carry),
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::code::CodeBlock;
    use crate::isa::{Instr, Operand, RegList, Size};
    use crate::machine::{Machine, MachineConfig};

    /// `movem.l d0-d7/a0-a6,-(a7)` then `movem.l (a7)+,d0-d7/a0-a6` against
    /// a hand-written memory image: `d0` at the lowest address, `a6` at the
    /// highest, `a7` written once per instruction.
    #[test]
    fn movem_predecrement_store_and_postincrement_load_order() {
        const TOP: u32 = 0x2000;
        let regs = RegList::ALL_BUT_SP;
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let save = Instr::Movem {
            to_mem: true,
            regs,
            ea: Operand::PreDec(7),
        };
        let load = Instr::Movem {
            to_mem: false,
            regs,
            ea: Operand::PostInc(7),
        };
        m.load_block(0x1000, CodeBlock::new("movem", vec![save, load]))
            .unwrap();
        m.cpu.pc = 0x1000;
        m.cpu.a[7] = TOP;
        for n in 0..8 {
            m.cpu.d[n] = 0xD0 + n as u32;
        }
        for n in 0..7 {
            m.cpu.a[n] = 0xA0 + n as u32;
        }

        assert_eq!(m.step(), Ok(None));
        assert_eq!(m.cpu.a[7], TOP - 60);
        let image: Vec<u32> = (0..15)
            .map(|i| m.mem.peek(TOP - 60 + 4 * i, Size::L))
            .collect();
        let hand_written = [
            0xD0, 0xD1, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, // d0..d7, lowest first
            0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, // a0..a6, highest last
        ];
        assert_eq!(image, hand_written);
        assert_eq!(m.mem.peek(TOP - 64, Size::L), 0, "nothing below d0");

        // The load walks the same image upwards.
        for (i, v) in (0x100..0x10F).enumerate() {
            m.mem.poke(TOP - 60 + 4 * i as u32, Size::L, v);
        }
        assert_eq!(m.step(), Ok(None));
        assert_eq!(m.cpu.a[7], TOP);
        assert_eq!(
            m.cpu.d,
            [0x100, 0x101, 0x102, 0x103, 0x104, 0x105, 0x106, 0x107]
        );
        assert_eq!(
            m.cpu.a[..7],
            [0x108, 0x109, 0x10A, 0x10B, 0x10C, 0x10D, 0x10E]
        );
    }
}
