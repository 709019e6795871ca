//! # synthesis-blocks — the Synthesis kernel building blocks, in Rust
//!
//! "Most quajects are implemented by combining a small number of building
//! blocks. Some of the building blocks are well known, such as monitors,
//! queues, and schedulers. The others are simple but somewhat unusual:
//! switches, pumps and gauges" (Massalin & Pu, SOSP 1989, Section 2.3).
//!
//! The kernel runs its own guest forms of these: synthesized queues, the
//! per-thread vector table as its switch, and TTE gauges; monitors and
//! pumps have no implementation here, because no table measures them.
//! This crate keeps the host-Rust queues that the benchmark's probes and the
//! schedule-exploration suite drive — the layer of the reproduction that
//! demonstrates the paper's **optimistic synchronization** claims with
//! actual parallelism (the in-simulator layer demonstrates the cycle
//! counts):
//!
//! - [`spsc`] — the single-producer single-consumer queue of **Figure 1**:
//!   head written only by the producer, tail only by the consumer (Code
//!   Isolation), no locks at all;
//! - [`mpsc`] — the multiple-producer optimistic queue of **Figure 2**:
//!   producers "stake a claim" to queue space with a single
//!   compare-and-swap and publish each element through a valid-flag
//!   array, including the atomic *multi-item* insert;
//! - [`spmc`], [`mpmc`] — the remaining two multiplicities, using
//!   per-slot sequence counters (the lap-safe generalization of the
//!   valid-flag array); [`steal`] — an MP-MC pool with offer/steal
//!   counters;
//! - [`buffered`] — the buffered queue of Section 5.4 that amortizes
//!   queue overhead by a blocking factor (how the A/D server survives
//!   44,100 interrupts per second);
//! - [`sync`] — the atomics the queues compile against: `std`'s, or with
//!   `--features sim` the instrumented shims of `sim`, the deterministic
//!   schedule explorer.

#![warn(missing_docs)]

pub mod buffered;
pub mod mpmc;
pub mod mpsc;
#[cfg(feature = "sim")]
pub mod sim;
pub mod spmc;
pub mod spsc;
pub mod steal;
pub mod sync;

/// Result of a non-blocking queue insert: the queue was full and the item
/// is handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Result of a non-blocking multi-item insert: the whole batch is refused
/// if it does not fit (the paper's multi-insert is all-or-nothing).
#[derive(Debug, PartialEq, Eq)]
pub struct BatchFull<T>(pub Vec<T>);
