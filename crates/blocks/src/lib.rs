//! # synthesis-blocks — the Synthesis kernel building blocks, in Rust
//!
//! "Most quajects are implemented by combining a small number of building
//! blocks. Some of the building blocks are well known, such as monitors,
//! queues, and schedulers. The others are simple but somewhat unusual:
//! switches, pumps and gauges" (Massalin & Pu, SOSP 1989, Section 2.3).
//!
//! This crate implements those building blocks as *real Rust concurrency
//! primitives*, runnable on modern multicore hardware — the layer of the
//! reproduction that demonstrates the paper's **optimistic
//! synchronization** claims with actual parallelism (the in-simulator
//! layer demonstrates the cycle counts):
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
//!   valid-flag array);
//! - [`dedicated`] — "dedicated queues use the knowledge that only one
//!   producer (or consumer) is using the queue and omit the
//!   synchronization code" (Section 2.3);
//! - [`blocking`] — the *synchronous* queue flavour (blocks at full /
//!   empty); [`signal`] — the *asynchronous* flavour (signals at those
//!   conditions);
//! - [`buffered`] — the buffered queue of Section 5.4 that amortizes
//!   queue overhead by a blocking factor (how the A/D server survives
//!   44,100 interrupts per second);
//! - [`monitor`], [`switch`], [`pump`], [`gauge`] — the remaining blocks.

#![warn(missing_docs)]

pub mod blocking;
pub mod buffered;
pub mod dedicated;
pub mod gauge;
pub mod monitor;
pub mod mpmc;
pub mod mpsc;
pub mod pump;
pub mod signal;
#[cfg(feature = "sim")]
pub mod sim;
pub mod spmc;
pub mod spsc;
pub mod steal;
pub mod switch;
pub mod sync;

/// Result of a non-blocking queue insert: the queue was full and the item
/// is handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Result of a non-blocking multi-item insert: the whole batch is refused
/// if it does not fit (the paper's multi-insert is all-or-nothing).
#[derive(Debug, PartialEq, Eq)]
pub struct BatchFull<T>(pub Vec<T>);

/// The peer side of a queue is gone (its thread died or closed the
/// queue); the item is handed back so nothing is lost silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected<T>(pub T);
