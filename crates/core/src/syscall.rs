//! Kernel-call selectors and the user-visible system-call surface.
//!
//! System calls are `trap` instructions (Section 4.1: "When a Synthesis
//! thread makes a kernel call, we say that the thread is executing in the
//! kernel mode"). The hot calls — `read` and `write` — vector through
//! per-thread dispatchers straight into synthesized code (traps `#1` and
//! `#2`). Everything else goes through the general call: `trap #0` with a
//! selector in `d0`.

/// Trap numbers.
pub mod traps {
    /// General kernel call (selector in `d0`).
    pub const GENERAL: u8 = 0;
    /// `read(fd = d0, buf = a0, count = d1) -> d0`.
    pub const READ: u8 = 1;
    /// `write(fd = d0, buf = a0, count = d1) -> d0`.
    pub const WRITE: u8 = 2;
    /// The UNIX emulator's call (the `synthesis-unix` crate): the call
    /// number in `d0`, one of [`super::unix`]'s for `read`/`write`.
    pub const UNIX: u8 = 3;
}

/// The UNIX call numbers the kernel's own code names: the fused wrappers'
/// foreign-fd fallback re-traps through [`traps::UNIX`] with one of them
/// in `d0` (the `synthesis-unix` crate's ABI takes them from here).
pub mod unix {
    /// `read(fd = d1, buf = a0, count = d2)`.
    pub const SYS_READ: u32 = 3;
    /// `write(fd = d1, buf = a0, count = d2)`.
    pub const SYS_WRITE: u32 = 4;
}

/// Selectors for the general kernel call (`trap #0`, selector in `d0`).
pub mod general {
    /// Terminate the calling thread.
    pub const EXIT: u32 = 1;
    /// `d1` = entry address, `d2` = initial user SP; returns the new tid.
    pub const THREAD_CREATE: u32 = 2;
    /// Start thread `d1`.
    pub const THREAD_START: u32 = 3;
    /// Stop thread `d1`.
    pub const THREAD_STOP: u32 = 4;
    /// Destroy thread `d1`.
    pub const THREAD_DESTROY: u32 = 5;
    /// Send a signal to thread `d1`: it runs its handler the next time
    /// it is activated. There is one signal; no code reads a number from
    /// `d2`.
    pub const SIGNAL: u32 = 6;
    /// Open: `a0` = path address (NUL-terminated in the caller's space);
    /// returns an fd or a negative error.
    pub const OPEN: u32 = 7;
    /// Close fd `d1`.
    pub const CLOSE: u32 = 8;
    /// Yield the CPU.
    pub const YIELD: u32 = 9;
    /// Returns the calling thread's id.
    pub const GETTID: u32 = 10;
    /// Install signal handler `d1` for the calling thread.
    pub const SET_SIG_HANDLER: u32 = 11;
    /// Return from a signal handler: the thread resumes the context the
    /// signal interrupted. `-EINVAL` when no handler is active.
    pub const SIG_RETURN: u32 = 12;
    /// Create a pipe; returns `(read_fd << 8) | write_fd`.
    pub const PIPE: u32 = 13;
    /// Set a one-shot alarm `d1` µs from now; `d1 = 0` cancels the alarm
    /// set.
    pub const SET_ALARM: u32 = 14;
    /// Block until the next alarm fires.
    pub const WAIT_ALARM: u32 = 15;
    /// Write the low byte of `d1` to the host console (debug).
    pub const PUTC: u32 = 16;
    /// Seek fd `d1` to absolute offset `d2`; returns the offset.
    pub const SEEK: u32 = 17;
}

/// Errors returned (negated) in `d0`.
pub mod errno {
    /// Bad file descriptor.
    pub const EBADF: i32 = 9;
    /// Try again (`pipe_attach` while the pipe's fused holder is parked
    /// on the fast path of one of its wrappers).
    pub const EAGAIN: i32 = 11;
    /// No such file.
    pub const ENOENT: i32 = 2;
    /// Out of some resource.
    pub const ENOMEM: i32 = 12;
    /// Invalid argument.
    pub const EINVAL: i32 = 22;
    /// Too many open files.
    pub const EMFILE: i32 = 24;
    /// Path name too long (no NUL within the kernel's path limit).
    pub const ENAMETOOLONG: i32 = 63;
}

/// `kcall` selectors used by synthesized code, each declared once here
/// (the template modules and `io::tty` name them; `kernel/kcall.rs`
/// dispatches on them).
pub mod kcalls {
    /// General kernel call (selector in `d0`).
    pub const GENERAL: u16 = 0x00;
    /// Install the address map of the thread id in `d0`.
    pub const SET_MAP: u16 = 0x10;
    /// Lazy-FP resynthesis.
    pub const FP_RESYNTH: u16 = 0x11;
    /// Alarm fired.
    pub const ALARM: u16 = 0x12;
    /// Advance the A/D buffered queue to its next element.
    pub const AD_ADVANCE: u16 = 0x13;
    /// Block: tty input needed.
    pub const WAIT_TTY: u16 = 0x20;
    /// Block: pipe (`d2`) space needed.
    pub const WAIT_PIPE_SPACE: u16 = 0x21;
    /// Block: pipe (`d2`) data needed.
    pub const WAIT_PIPE_DATA: u16 = 0x22;
    /// Wake tty-input waiters.
    pub const WAKE_TTY: u16 = 0x23;
    /// Wake pipe-data waiters (pipe id in `d2`).
    pub const WAKE_PIPE_DATA: u16 = 0x24;
    /// Wake pipe-space waiters (pipe id in `d2`).
    pub const WAKE_PIPE_SPACE: u16 = 0x25;
}
