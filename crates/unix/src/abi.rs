//! The UNIX system-call ABI of the benchmark binaries.
//!
//! Calls are `trap #3` with the call number in `d0`; arguments in `d1`,
//! `d2`, and `a0`; the result (or a negative errno) returns in `d0`.
//! The call numbers follow the SUNOS 3.5 table for the calls the
//! benchmarks use; any other number returns `-EINVAL` on both kernels.
//! The trap and the `read`/`write` numbers are the kernel's own
//! (`synthesis_core::syscall`), which its fused wrappers re-trap with.

/// The trap used for UNIX system calls.
pub use synthesis_core::syscall::traps::UNIX as UNIX_TRAP;
/// `read(fd = d1, buf = a0, count = d2)` and `write(fd = d1, buf = a0,
/// count = d2)`.
pub use synthesis_core::syscall::unix::{SYS_READ, SYS_WRITE};

/// `exit(status = d1)`.
pub const SYS_EXIT: u32 = 1;
/// `open(path = a0, flags = d1)`.
pub const SYS_OPEN: u32 = 5;
/// `close(fd = d1)`.
pub const SYS_CLOSE: u32 = 6;
/// `creat(path = a0, mode = d1)`.
pub const SYS_CREAT: u32 = 8;
/// `lseek(fd = d1, offset = d2, whence = 0)`.
pub const SYS_LSEEK: u32 = 19;
/// `pipe()` → `(rfd << 8) | wfd` (simplified return convention).
pub const SYS_PIPE: u32 = 42;

/// The `kcall` selector the Synthesis-side emulator uses for calls that
/// are not pure register translations.
pub const KCALL_UNIX: u16 = 0x40;

/// The `kcall` selector of the fused-path *bind* thunk: a rewritten
/// `read`/`write` call site lands here on its first execution; the
/// emulator synthesizes the fd's fused wrapper and patches the site's
/// `jsr` to enter it directly from then on (see `emu::UnixEmulator`).
pub const KCALL_RW_BIND: u16 = 0x41;
