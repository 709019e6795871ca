//! The synchronization layer the queues compile against.
//!
//! In a normal build this module is a zero-cost re-export of
//! `std::sync::atomic` and `std::cell::UnsafeCell`. With
//! `--features sim` the same names resolve to the instrumented shims in
//! `crate::sim::shim`, which hand control to the deterministic
//! schedule-exploration executor at every atomic operation. The queue
//! modules import *only* from here, so their algorithmic code is
//! byte-for-byte identical under both backends — exactly the property a
//! model checker needs: the code being explored is the code that ships.

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "sim"))]
pub use std::cell::UnsafeCell;
#[cfg(not(feature = "sim"))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

#[cfg(feature = "sim")]
pub use crate::sim::shim::{
    SimAtomicBool as AtomicBool, SimAtomicU32 as AtomicU32, SimAtomicU64 as AtomicU64,
    SimAtomicUsize as AtomicUsize, SimCell as UnsafeCell,
};
