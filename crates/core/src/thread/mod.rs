//! Synthesis threads (paper Section 4).

pub mod tte;

pub use tte::{Bound, FdObject, SavedRegs, Thread, ThreadState, Tid, WaitObject};
