//! The UNIX emulator over the Synthesis kernel.
//!
//! "In the simplest case, the emulator translates the UNIX kernel call
//! into an equivalent Synthesis kernel call. Otherwise, multiple Synthesis
//! primitives are combined to emulate a UNIX call" (Section 6.1). "The
//! UNIX emulator used for performance measurement is implemented with
//! traps" (Section 4.3).
//!
//! The per-thread dispatcher is synthesized: the hot `read`/`write` calls
//! cost three extra instructions — a compare, two register moves, and a
//! jump straight into the thread's synthesized fd dispatch. That is
//! Table 2's "emulation trap overhead: 2 µs". Everything else drops into
//! the host through a `kcall` and maps onto the same kernel services the
//! native interface uses.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Control, Instr, Operand, Operand::*, Size, Size::*};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use synthesis_codegen::rewrite;
use synthesis_codegen::template::{Bindings, Template};
use synthesis_core::kernel::{Kernel, KernelError};
use synthesis_core::syscall::errno;
use synthesis_core::thread::Tid;

use crate::abi;

/// The synthesized UNIX dispatcher template.
///
/// Holes: `dispatch_read`, `dispatch_write` — the thread's trap-1/2
/// handlers. Argument shuffle: UNIX passes `(d1=fd, a0=buf, d2=count)`;
/// Synthesis wants `(d0=fd, a0=buf, d1=count)`.
#[must_use]
pub fn unix_dispatch_template() -> Template {
    let mut a = Asm::new("unix_dispatch");
    let dr = a.abs_hole("dispatch_read");
    let dw = a.abs_hole("dispatch_write");
    let not_read = a.label();
    let not_write = a.label();
    a.cmp(L, Imm(abi::SYS_READ), Dr(0));
    a.bcc(Cond::Ne, not_read);
    a.move_(L, Dr(1), Dr(0));
    a.move_(L, Dr(2), Dr(1));
    a.jmp(dr);
    a.bind(not_read);
    a.cmp(L, Imm(abi::SYS_WRITE), Dr(0));
    a.bcc(Cond::Ne, not_write);
    a.move_(L, Dr(1), Dr(0));
    a.move_(L, Dr(2), Dr(1));
    a.jmp(dw);
    a.bind(not_write);
    a.kcall(abi::KCALL_UNIX);
    a.rte();
    Template::from_asm(a).expect("assembles")
}

/// Trap-elision state: the static thunks rewritten call sites enter.
/// Which site is bound to which wrapper is the kernel's business (see
/// [`Kernel::bind_site`]); these are only the UNIX-ABI ends it patches
/// sites back and forth between.
struct Fusion {
    /// `[kcall KCALL_UNIX; rts]` — the slow calls, minus the trap.
    unix_thunk: u32,
    /// `[move #sysno,d0; kcall KCALL_RW_BIND; rts]`, one per direction —
    /// first execution of a `read`/`write` site lands here, and so does
    /// the first after the kernel re-armed it; the kernel binds the fused
    /// wrapper. The thunk re-materializes `d0` itself because elision
    /// deletes the caller's `move #sysno,d0` (the bound wrapper never
    /// reads it).
    bind_r: u32,
    /// See [`Fusion::bind_r`].
    bind_w: u32,
    /// `[move #sysno,d0; trap #3; rts]`, one per direction — the layered
    /// fallback for unfusable fds.
    shim_r: u32,
    /// See [`Fusion::shim_r`].
    shim_w: u32,
}

/// The UNIX emulator: wraps a booted Synthesis kernel.
pub struct UnixEmulator {
    /// The underlying Synthesis kernel.
    pub k: Kernel,
    fusion: Option<Fusion>,
}

/// The syscall number a fall-through execution of `instrs[trap_at]`
/// carries in `d0`: the nearest preceding `move.l #n,d0`, when every
/// instruction between the two falls through ([`Control::Fall`]), does not
/// list `d0` among the registers it writes, and is not a branch target —
/// so the only way to the trap is through the `move`, with `d0` intact.
/// Returns the number and the index of the `move` that loads it.
fn sysno_before(instrs: &[Instr], targets: &[bool], trap_at: usize) -> Option<(u32, usize)> {
    if targets[trap_at] {
        return None; // jumpers may arrive with a different d0
    }
    let mut j = trap_at;
    while j > 0 {
        j -= 1;
        if let Instr::Move(Size::L, Operand::Imm(n), Operand::Dr(0)) = instrs[j] {
            return Some((n, j)); // found — even if `j` is itself a target
        }
        let fx = instrs[j].effects();
        if fx.control != Control::Fall || fx.writes.has_d(0) || targets[j] {
            return None;
        }
    }
    None
}

/// Rewrite every statically-resolvable `trap #3` in a user program into
/// a `jsr` through a thunk: `read`/`write` sites get the *bind* thunk
/// (first call synthesizes and splices in the fd's fused wrapper), all
/// other calls the plain `kcall` thunk. Traps whose syscall number
/// cannot be proven from the instruction stream are left alone — the
/// layered path remains correct for them.
///
/// Index-based branch targets survive because the instruction *count*
/// is preserved (`trap` is 2 bytes, `jsr abs.l` 6 — byte offsets are
/// recomputed when the block is built). Returns the number of sites
/// rewritten.
///
/// `read`/`write` sites additionally have their `move #sysno,d0`
/// nop'd out: once bound, the fused wrapper keys on `d1`/`d2` only, and
/// every path that still needs the number (bind thunk, layered shim,
/// the wrapper's foreign-fd fallback) re-materializes `d0` itself. The
/// nop is legal because the backward scan already proved straight-line
/// flow from the move to the trap with no intervening entry point or
/// write to `d0`, and no instruction in between lists `d0` among the
/// registers it reads: the value the `move` loaded has no consumer.
fn elide_traps(instrs: &mut [Instr], unix_thunk: u32, bind_r: u32, bind_w: u32) -> u32 {
    let targets = rewrite::branch_target_flags(instrs);
    let mut rewritten = 0;
    for i in 0..instrs.len() {
        if !matches!(instrs[i], Instr::Trap(abi::UNIX_TRAP)) {
            continue;
        }
        let Some((sysno, mv)) = sysno_before(instrs, &targets, i) else {
            continue;
        };
        let thunk = match sysno {
            abi::SYS_READ => bind_r,
            abi::SYS_WRITE => bind_w,
            _ => unix_thunk,
        };
        let d0_read = |x: &Instr| x.effects().reads.has_d(0);
        if thunk != unix_thunk && !instrs[mv + 1..i].iter().any(d0_read) {
            instrs[mv] = Instr::Nop;
        }
        instrs[i] = Instr::Jsr(Operand::Abs(thunk));
        rewritten += 1;
    }
    rewritten
}

/// Encoded size of `jsr abs.l` — the bind handler subtracts this from
/// the pushed return address to locate the call site.
const JSR_ABS_BYTES: u32 = 6;

impl UnixEmulator {
    /// Wrap a kernel (installs the dispatcher template).
    #[must_use]
    pub fn new(k: Kernel) -> UnixEmulator {
        let mut e = UnixEmulator { k, fusion: None };
        e.k.creator.lib.add(unix_dispatch_template());
        e
    }

    /// Install the trap-elision thunks (idempotent).
    fn install_fusion(&mut self) -> Result<(), KernelError> {
        if self.fusion.is_some() {
            return Ok(());
        }
        let mut stub = |name: &str, body: &dyn Fn(&mut Asm)| -> Result<u32, KernelError> {
            let mut a = Asm::new(name);
            body(&mut a);
            let t = Template::from_asm(a).expect("assembles");
            Ok(self
                .k
                .creator
                .synthesize_template(&mut self.k.m, &t, &Bindings::new(), self.k.opts)?
                .base)
        };
        let unix_thunk = stub("unix_jsr_thunk", &|a| {
            a.kcall(abi::KCALL_UNIX);
            a.rts();
        })?;
        // The bind thunks and layered shims carry the syscall number
        // themselves: elision nop'd the caller's `move #sysno,d0`.
        let bind_r = stub("rw_bind_thunk_r", &|a| {
            a.move_i(Size::L, abi::SYS_READ, Operand::Dr(0));
            a.kcall(abi::KCALL_RW_BIND);
            a.rts();
        })?;
        let bind_w = stub("rw_bind_thunk_w", &|a| {
            a.move_i(Size::L, abi::SYS_WRITE, Operand::Dr(0));
            a.kcall(abi::KCALL_RW_BIND);
            a.rts();
        })?;
        let shim_r = stub("unix_trap_shim_r", &|a| {
            a.move_i(Size::L, abi::SYS_READ, Operand::Dr(0));
            a.trap(abi::UNIX_TRAP);
            a.rts();
        })?;
        let shim_w = stub("unix_trap_shim_w", &|a| {
            a.move_i(Size::L, abi::SYS_WRITE, Operand::Dr(0));
            a.trap(abi::UNIX_TRAP);
            a.rts();
        })?;
        self.fusion = Some(Fusion {
            unix_thunk,
            bind_r,
            bind_w,
            shim_r,
            shim_w,
        });
        Ok(())
    }

    /// Load `program` and start it as a UNIX thread running under `map`.
    ///
    /// A caller the kernel reports [`fusable`](Kernel::fusable) — its
    /// map covers the kernel's flat space, which is what makes the trap
    /// redundant — has its statically-resolvable syscall traps rewritten
    /// into `jsr`-thunk calls before loading (the fused wrappers bind in
    /// lazily, per call site, at first execution). Any other caller
    /// keeps its traps and the layered path behind them.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn spawn(&mut self, program: Asm, map: AddressMap) -> Result<Tid, KernelError> {
        use crate::programs::{addrs, path_blob};
        let mut block = program.assemble().expect("program assembles");
        if self.k.fusable(&map) {
            self.install_fusion()?;
            let f = self.fusion.as_ref().expect("just installed");
            let mut instrs = block.instrs;
            elide_traps(&mut instrs, f.unix_thunk, f.bind_r, f.bind_w);
            block = quamachine::code::CodeBlock::new(block.name, instrs);
        }
        let entry = self.k.load_user_program(block)?;
        self.k.m.mem.poke_bytes(addrs::PATHS, &path_blob());
        let tid = self.k.create_thread(entry, addrs::USTACK, map)?;
        self.install(tid)?;
        self.k.start(tid)?;
        Ok(tid)
    }

    /// Install the UNIX personality on a thread: synthesize its
    /// dispatcher, point `trap #3` at it, and hand it to the thread,
    /// which frees it when it dies.
    ///
    /// # Errors
    ///
    /// Fails on synthesis or unknown-thread errors.
    pub fn install(&mut self, tid: Tid) -> Result<(), KernelError> {
        let t = self.k.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
        let (dr, dw) = (t.trap_read.base, t.trap_write.base);
        let code = self.k.creator.synthesize(
            &mut self.k.m,
            "unix_dispatch",
            Bindings::new()
                .bind("dispatch_read", dr)
                .bind("dispatch_write", dw),
            self.k.opts,
        )?;
        self.k
            .set_vector(tid, 32 + u32::from(abi::UNIX_TRAP), code.base)?;
        self.k.adopt_code(tid, code)
    }

    /// Run the emulated system, servicing the emulator's kernel calls.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let deadline = self.k.m.meter.cycles.saturating_add(max_cycles);
        loop {
            let now = self.k.m.meter.cycles;
            if now >= deadline {
                return RunExit::CycleLimit;
            }
            match self.k.run(deadline - now) {
                RunExit::KCall(sel) if sel == abi::KCALL_UNIX => self.unix_call(),
                RunExit::KCall(sel) if sel == abi::KCALL_RW_BIND => self.rw_bind(),
                other => return other,
            }
        }
    }

    /// Run until thread `tid` exits; returns whether it did.
    pub fn run_until_exit(&mut self, tid: Tid, max_cycles: u64) -> bool {
        let deadline = self.k.m.meter.cycles.saturating_add(max_cycles);
        let prev_watch = self.k.watch_exit.replace(tid);
        while !self.k.exited.contains(&tid) && self.k.m.meter.cycles < deadline {
            match self.run(deadline - self.k.m.meter.cycles) {
                RunExit::KCall(_) | RunExit::CycleLimit => break,
                RunExit::Halted => break,
                RunExit::Breakpoint(_) => {} // watched exit or debugger stop
                RunExit::Error(e) => panic!("machine error under emulation: {e}"),
            }
        }
        self.k.watch_exit = prev_watch;
        self.k.exited.contains(&tid)
    }

    /// Service the fused-path bind `kcall`: a rewritten `read`/`write`
    /// site is executing the bind thunk — for the first time, or for the
    /// first time since the kernel re-armed it. The return address its
    /// `jsr` pushed locates the site; the kernel binds it to the fd's
    /// fused wrapper, or to the layered trap shim when the fd cannot be
    /// served fused, and says where this call continues (the thunk's
    /// return frame is still on the stack either way).
    fn rw_bind(&mut self) {
        let write = self.k.m.cpu.d[0] == abi::SYS_WRITE;
        let fd = self.k.m.cpu.d[1];
        let ret = self.k.m.mem.peek(self.k.m.cpu.a[7], Size::L);
        let site = ret.wrapping_sub(JSR_ABS_BYTES);
        let f = self.fusion.as_ref().expect("bind kcall ⇒ elided caller");
        let (rearm, layered) = if write {
            (f.bind_w, f.shim_w)
        } else {
            (f.bind_r, f.shim_r)
        };
        self.k.m.cpu.pc = match self.k.current_tid() {
            Some(tid) => self.k.bind_site(tid, fd, write, site, rearm, layered),
            None => layered,
        };
    }

    /// Service one non-hot UNIX call (the `kcall` slow path).
    fn unix_call(&mut self) {
        let sysno = self.k.m.cpu.d[0];
        let d1 = self.k.m.cpu.d[1];
        let a0 = self.k.m.cpu.a[0];
        let result: i64 = match sysno {
            abi::SYS_EXIT => {
                if let Some(tid) = self.k.current_tid() {
                    let _ = self.k.destroy(tid);
                }
                0
            }
            abi::SYS_OPEN => match self.k.read_user_string(a0) {
                Ok(path) => match self.k.open(&path) {
                    Ok(fd) => i64::from(fd),
                    Err(e) => -i64::from(e),
                },
                Err(e) => -i64::from(e),
            },
            abi::SYS_CREAT => {
                let path = match self.k.read_user_string(a0) {
                    Ok(p) => p,
                    Err(e) => {
                        self.k.m.cpu.d[0] = (-i64::from(e)) as u32;
                        return;
                    }
                };
                if self.k.fs.lookup(&path).0.is_none() {
                    let _ = self
                        .k
                        .fs
                        .create(&mut self.k.m, &mut self.k.heap, &path, 65536);
                }
                match self.k.open(&path) {
                    Ok(fd) => i64::from(fd),
                    Err(e) => -i64::from(e),
                }
            }
            abi::SYS_CLOSE => match self.k.close(d1) {
                Ok(()) => 0,
                Err(e) => -i64::from(e),
            },
            // Whence is always 0 (absolute) in the benchmarks.
            abi::SYS_LSEEK => self.k.seek(d1, self.k.m.cpu.d[2]),
            abi::SYS_GETPID => i64::from(self.k.current_tid().unwrap_or(0)),
            abi::SYS_PIPE => match self.k.pipe() {
                Ok((rfd, wfd)) => i64::from((rfd << 8) | wfd),
                Err(e) => -i64::from(e),
            },
            _ => -i64::from(errno::EINVAL),
        };
        self.k.m.cpu.d[0] = result as u32;
    }
}

/// Convenience: boot a Synthesis kernel, load a UNIX program as a thread
/// sharing the kernel's flat address space (a single process, as the
/// Table 1 binaries are), install the emulator, and return everything
/// ready to run.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn boot_with_program(
    cfg: synthesis_core::kernel::KernelConfig,
    program: Asm,
) -> Result<(UnixEmulator, Tid), KernelError> {
    let mut emu = UnixEmulator::new(Kernel::boot(cfg)?);
    let flat = AddressMap::single(1, 0, emu.k.m.mem.size());
    let tid = emu.spawn(program, flat)?;
    Ok((emu, tid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{BranchTarget, IndexSpec, RegList};

    /// `move.l #SYS_WRITE,d0 ; between… ; trap #3 ; bne @target ; rts`
    /// through [`elide_traps`]: whether the trap became the bind thunk's
    /// `jsr`, and whether the `move` became a `nop`.
    fn elide(between: &[Instr], target: usize) -> (bool, bool) {
        let mut instrs = vec![Instr::Move(L, Imm(abi::SYS_WRITE), Dr(0))];
        instrs.extend_from_slice(between);
        let trap_at = instrs.len();
        instrs.extend([
            Instr::Trap(abi::UNIX_TRAP),
            Instr::Bcc(Cond::Ne, BranchTarget::Idx(target as u32)),
            Instr::Rts,
        ]);
        let rewritten = elide_traps(&mut instrs, 0x9000, 0x9100, 0x9200);
        assert_eq!(
            instrs[trap_at] == Instr::Jsr(Abs(0x9200)),
            rewritten == 1,
            "{between:?}"
        );
        (rewritten == 1, instrs[0] == Instr::Nop)
    }

    #[test]
    fn a_trap_is_elided_only_when_the_table_shows_d0_intact_and_unread() {
        let args = [
            Instr::Move(L, Imm(1), Dr(1)),
            Instr::Lea(Abs(0x4000), 0),
            Instr::Move(L, Imm(4), Dr(2)),
        ];
        let (kept, elided, elided_move_kept) = ((false, false), (true, true), (true, false));
        // The branch after the trap aims at the `rts` unless a row says otherwise.
        let rows = vec![
            (args.to_vec(), None, elided),
            // d0 writers.
            (
                vec![Instr::Movem {
                    to_mem: false,
                    regs: RegList(0b11),
                    ea: Ind(0),
                }],
                None,
                kept,
            ),
            (
                vec![Instr::MoveSr {
                    to_sr: false,
                    ea: Dr(0),
                }],
                None,
                kept,
            ),
            (vec![Instr::Tas(Dr(0))], None, kept),
            (
                vec![Instr::Cas {
                    size: L,
                    dc: 0,
                    du: 1,
                    ea: Ind(0),
                }],
                None,
                kept,
            ),
            // d0 readers: the trap goes, the `move` stays.
            (
                vec![Instr::Move(L, Idx(0, 0, IndexSpec::d(0, 1)), Dr(1))],
                None,
                elided_move_kept,
            ),
            (
                vec![Instr::Movem {
                    to_mem: true,
                    regs: RegList::d(0),
                    ea: PreDec(7),
                }],
                None,
                elided_move_kept,
            ),
            (vec![Instr::Cmp(L, Imm(4), Dr(0))], None, elided_move_kept),
            // Other ways in, and ways out.
            (args.to_vec(), Some(2), kept), // a target between the two
            (args.to_vec(), Some(4), kept), // the trap is a target
            (args.to_vec(), Some(0), elided), // the `move` is: every way in loads d0
            (vec![Instr::Bcc(Cond::Eq, BranchTarget::Idx(0))], None, kept),
            (vec![Instr::Dbf(1, BranchTarget::Idx(0))], None, kept),
            (vec![Instr::Jsr(Abs(0x5000))], None, kept),
        ];
        for (between, target, want) in rows {
            let target = target.unwrap_or(between.len() + 3);
            assert_eq!(elide(&between, target), want, "{between:?} @{target}");
        }
    }

    #[test]
    fn other_syscalls_keep_their_number_for_the_kcall_thunk() {
        let mut instrs = vec![
            Instr::Move(L, Imm(abi::SYS_GETPID), Dr(0)),
            Instr::Trap(abi::UNIX_TRAP),
            Instr::Rts,
        ];
        assert_eq!(elide_traps(&mut instrs, 0x9000, 0x9100, 0x9200), 1);
        assert_eq!(instrs[0], Instr::Move(L, Imm(abi::SYS_GETPID), Dr(0)));
        assert_eq!(instrs[1], Instr::Jsr(Abs(0x9000)));
    }
}
