//! # synthesis-core — the Synthesis kernel
//!
//! The kernel of *Threads and Input/Output in the Synthesis Kernel*
//! (Massalin & Pu, SOSP 1989), reproduced over the simulated
//! [`quamachine`]:
//!
//! - [`thread`] — Synthesis threads: the Thread Table Entry (TTE) with its
//!   register save area, per-thread vector table, address map, and
//!   context-switch-in/out procedures (Figure 3); thread operations
//!   (`create`, `destroy`, `start`, `stop`, `step`, `signal`, Table 3);
//!   the **executable ready queue** whose `jmp`-chained switch code *is*
//!   the dispatcher; and the lazy floating-point context switch (11 µs
//!   without FP, 21 µs with, Table 4);
//! - [`sched`] — fine-grain scheduling: per-thread CPU quanta adapted to
//!   observed I/O rates via gauges (Section 4.4);
//! - [`interrupt`] — synthesized interrupt handlers and Procedure
//!   Chaining (Table 5);
//! - [`io`] — streams, device servers, pipes, and the cooked-tty filter
//!   pipeline (Section 5);
//! - [`fs`] — the memory-resident file system with backwards-hashed
//!   string names, whose `open` synthesizes the `read`/`write` code
//!   (Tables 1–2);
//! - [`alloc`] — the fast-fit kernel memory allocator (Section 6.3
//!   mentions "a fast-fit heap with randomized traversal added");
//! - [`monitor`] — the kernel monitor's measurement interface (Section
//!   6.3's instruction-counting methodology);
//! - [`trace`] — kernel-wide event tracing: per-thread ring buffers of
//!   fixed-size binary records, the [`trace!`] recording hook, and the
//!   [`TraceQuery`](trace::TraceQuery) assertion API;
//! - [`kernel`] — the [`Kernel`](kernel::Kernel) tying it all together:
//!   boot, thread lifecycle, kernel-call dispatch, and the one run loop
//!   (any CPU count); its `ready` submodule owns the executable ready
//!   queues — every chain membership change is its `enqueue`/`dequeue`,
//!   and it alone decides what a chain `jmp` targets.

#![warn(missing_docs)]

pub mod alloc;
pub mod channel;
pub mod charges;
pub mod fs;
pub mod interrupt;
pub mod io;
pub mod kernel;
pub mod layout;
pub mod monitor;
pub mod sched;
pub mod syscall;
pub mod templates;
pub mod thread;
pub mod trace;

pub use kernel::{Kernel, KernelConfig};
