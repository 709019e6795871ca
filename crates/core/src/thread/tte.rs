//! The Thread Table Entry (paper Figure 3).
//!
//! "The thread state is completely described by its TTE, containing: the
//! register save area; the vector table ...; the address map tables; and
//! the context-switch-in and context-switch-out procedures" (Section
//! 4.1). The TTE proper is the first 1 KB of the thread's block ("about
//! 100 µs are needed to fill approximately 1 KBytes in the TTE", Section
//! 6.3); the vector table (the VBR, `TTE_LEN` on) and the kernel stack
//! follow it in the block, and it names its thread ([`off::TID`]).
//!
//! Code Isolation applies: "each thread updates its own TTE exclusively.
//! Therefore, we can synthesize short code to manipulate the TTE without
//! synchronization" (Section 3.1).

use quamachine::isa::Size;
use quamachine::mem::{AddressMap, Memory};
use synthesis_codegen::creator::Synthesized;

use crate::channel::ChannelClass;
use crate::layout;

/// Thread identifier.
pub type Tid = u32;

/// TTE field offsets (bytes from the TTE base).
pub mod off {
    /// `d0`–`d7`/`a0`–`a6` register save area (15 longs).
    pub const REGS: u32 = 0x00;
    /// Saved user stack pointer.
    pub const USP: u32 = 0x3C;
    /// Saved supervisor stack pointer.
    pub const SSP: u32 = 0x40;
    /// The thread's id: what `Kernel::tid_at` reads behind a VBR.
    pub const TID: u32 = 0x44;
    /// Floating-point save area (`fp0`–`fp7`, 8 doubles).
    pub const FP: u32 = 0x48;
    /// The fd table: 16 entries × (read entry, write entry) longs, ending
    /// at [`GAUGE`]; what an open fd's entries serve is its
    /// [`OpenFd`](super::OpenFd). The quantum has no slot: it lives as an
    /// immediate in the thread's `sw_in` code, its one record
    /// (`Kernel::quantum_us` reads it; DESIGN.md §14, "One owner per
    /// thread fact").
    pub const FD_TABLE: u32 = 0x88;
    /// The thread's I/O gauge: synthesized I/O code increments it; the
    /// fine-grain scheduler reads it (Section 4.4).
    pub const GAUGE: u32 = 0x108;
    /// The thread's signal-handler address.
    pub const SIG_HANDLER: u32 = 0x10C;
    /// Parking slot for the faulting PC used by the error-trap handler.
    pub const ERR_PC: u32 = 0x110;
    /// Scratch area for synthesized per-thread code.
    pub const SCRATCH: u32 = 0x120;
}

/// Number of fd slots per thread.
pub const FD_MAX: u32 = 16;

/// Thread lifecycle state (host-side bookkeeping; the authoritative
/// machine state lives in the TTE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadState {
    /// In the ready chain (possibly the one running).
    Ready,
    /// Removed from the chain by `stop` (debugger) or not yet started.
    Stopped,
    /// Removed from the chain, waiting on an event.
    Blocked(WaitObject),
}

/// What a blocked thread waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitObject {
    /// Raw tty input.
    TtyInput,
    /// Data in pipe `n`.
    PipeData(u32),
    /// Space in pipe `n`.
    PipeSpace(u32),
    /// An alarm tick.
    Alarm,
}

/// An open fd: what the guest fd table cannot hold. The table's slot pair
/// at [`off::FD_TABLE`] names the entry points the trap dispatchers jump
/// through (the shared `EBADF` routine for an fd that is not open); the
/// host keeps the channel behind them, for open fds only.
#[derive(Debug)]
pub struct OpenFd {
    /// The fd number, below [`FD_MAX`].
    pub fd: u32,
    /// The object class (and its teardown state).
    pub class: ChannelClass,
    /// The synthesized endpoint code (shared via the specialization
    /// cache; destroying drops references).
    pub code: Vec<Synthesized>,
    /// The call sites patched to enter this fd's fused wrappers
    /// directly. Written only by the kernel's `chan` module, whose
    /// teardown re-arms the sites and releases the wrappers.
    pub bound: Vec<Bound>,
}

/// One call site bound to a fused wrapper of an fd: an absolute `jsr` in
/// the caller's image, patched to enter `wrapper`.
#[derive(Debug)]
pub struct Bound {
    /// Address of the patched `jsr`.
    pub site: u32,
    /// What the `jsr` targets when not bound: the caller's bind thunk,
    /// which leads back to `Kernel::bind_site`.
    pub rearm: u32,
    /// The cache reference pinning the wrapper.
    pub wrapper: Synthesized,
    /// The site has been re-armed ahead of the fd's teardown (its pipe
    /// stopped being solo); only the reference is still held.
    pub retired: bool,
}

/// Host-side thread bookkeeping: what the TTE and code memory do not
/// hold (DESIGN.md §14, "One owner per thread fact").
#[derive(Debug)]
pub struct Thread {
    /// TTE base address in kernel memory: the start of the thread's
    /// block, which holds its vector table ([`Thread::vt`]) and kernel
    /// stack ([`Thread::kstack`]) too.
    pub tte: u32,
    /// The synthesized context-switch code. Its entries and chain `jmp`
    /// are its base plus its plan's mark offsets
    /// (`Kernel::switch_entries`).
    pub sw: Synthesized,
    /// The `trap #1` (read) dispatcher through the fd table.
    pub trap_read: Synthesized,
    /// The `trap #2` (write) dispatcher through the fd table.
    pub trap_write: Synthesized,
    /// The error-trap handler.
    pub trap_error: Synthesized,
    /// Private code an embedder synthesized for this thread and handed
    /// over with `Kernel::adopt_code`; freed with the thread.
    pub adopted: Vec<Synthesized>,
    /// Lifecycle state.
    pub state: ThreadState,
    /// The thread's quaspace (installed by `sw_in_mmu`).
    pub map: AddressMap,
    /// The open fds, in fd order; empty (unallocated) until the first
    /// open.
    pub fds: Vec<OpenFd>,
    /// Home CPU: the CPU whose ready chain holds this thread when
    /// runnable. Work stealing rewrites it; a uniprocessor kernel leaves
    /// it 0.
    pub cpu: usize,
    /// The machine's error-fault count for this thread at the watchdog's
    /// last sweep.
    pub fault_mark: u64,
    /// Quarantined by the watchdog (or a supervisor): `Stopped`, and
    /// refused by `Kernel::start` for good.
    pub quarantined: bool,
}

/// `d0`–`d7`/`a0`–`a6` in save-area order, and the user stack pointer.
pub type SavedRegs = ([u32; 15], u32);

impl Thread {
    /// Vector-table address (loaded into the VBR when running).
    #[must_use]
    pub fn vt(&self) -> u32 {
        self.tte + layout::TTE_LEN
    }

    /// Kernel stack base (the stack grows down from `kstack() +
    /// KSTACK_LEN`).
    #[must_use]
    pub fn kstack(&self) -> u32 {
        self.vt() + layout::VECTOR_TABLE_LEN
    }

    /// The registers and USP of the parked context, as the thread's own
    /// `sw_save` left them (read for signal delivery).
    #[must_use]
    pub fn parked_regs(&self, mem: &Memory) -> SavedRegs {
        let regs = std::array::from_fn(|i| mem.peek(self.tte + off::REGS + 4 * i as u32, Size::L));
        (regs, mem.peek(self.tte + off::USP, Size::L))
    }

    /// Address of fd slot `fd`'s read entry.
    #[must_use]
    pub fn fd_read_slot(&self, fd: u32) -> u32 {
        self.tte + off::FD_TABLE + fd * 8
    }

    /// Address of fd slot `fd`'s write entry.
    #[must_use]
    pub fn fd_write_slot(&self, fd: u32) -> u32 {
        self.tte + off::FD_TABLE + fd * 8 + 4
    }

    /// Open fd `fd`, if it is open.
    #[must_use]
    pub fn fd(&self, fd: u32) -> Option<&OpenFd> {
        self.fds.iter().find(|f| f.fd == fd)
    }

    /// The lowest fd number below [`FD_MAX`] that is not open: `fds` is
    /// in fd order, so it is the length of its prefix numbered 0, 1, ...
    #[must_use]
    pub fn free_fd(&self) -> Option<u32> {
        let n = (0..).zip(&self.fds).take_while(|&(n, f)| f.fd == n).count() as u32;
        (n < FD_MAX).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // layout invariants
    fn tte_fields_fit_in_one_kb() {
        assert!(off::SCRATCH < crate::layout::TTE_LEN);
        assert!(off::FD_TABLE + FD_MAX * 8 <= off::GAUGE);
    }

    #[test]
    fn fd_slot_addresses() {
        let none = || synthesis_codegen::creator::Synthesized {
            base: 0,
            size: 0,
            entries: std::sync::Arc::default(),
            instrs_in: 0,
            instrs_out: 0,
            synth_cycles: 0,
        };
        let t = Thread {
            tte: 0x4000,
            sw: none(),
            trap_read: none(),
            trap_write: none(),
            trap_error: none(),
            adopted: Vec::new(),
            state: ThreadState::Stopped,
            map: AddressMap::default(),
            fds: Vec::new(),
            cpu: 0,
            fault_mark: 0,
            quarantined: false,
        };
        assert_eq!(t.fd_read_slot(0), 0x4000 + off::FD_TABLE);
        assert_eq!(t.fd_write_slot(2), 0x4000 + off::FD_TABLE + 20);
    }
}
