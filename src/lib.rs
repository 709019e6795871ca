//! # synthesis — a reproduction of the Synthesis kernel
//!
//! This facade crate re-exports the whole reproduction of *Threads and
//! Input/Output in the Synthesis Kernel* (Massalin & Pu, SOSP 1989):
//!
//! - [`machine`] (crate `quamachine`) — the simulated 68020-flavoured
//!   Quamachine with its cycle-cost model, devices, and measurement
//!   facilities;
//! - [`codegen`] (crate `synthesis-codegen`) — kernel code synthesis:
//!   templates with holes, Factoring Invariants, Collapsing Layers,
//!   executable data structures, and the peephole optimizer;
//! - [`blocks`] (crate `synthesis-blocks`) — the kernel building blocks as
//!   real Rust concurrency primitives: lock-free SP-SC / MP-SC / SP-MC /
//!   MP-MC queues, a buffered queue, a steal pool, and a gauge;
//! - [`kernel`] (crate `synthesis-core`) — the Synthesis kernel: threads,
//!   the executable ready queue, synthesized context switches and I/O,
//!   fine-grain scheduling, streams, device servers, and the file system;
//! - [`unix`] (crate `synthesis-unix`) — the UNIX emulator and the
//!   SUNOS-like baseline kernel used for the paper's Table 1 comparison.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use quamachine as machine;
pub use synthesis_blocks as blocks;
pub use synthesis_codegen as codegen;
pub use synthesis_core as kernel;
pub use synthesis_unix as unix;
