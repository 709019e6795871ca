//! The work-stealing pool: a CPU with surplus work offers it here, and a
//! starved CPU steals whatever is oldest. The pool is a thin veneer over
//! the optimistic multi-producer multi-consumer queue of [`crate::mpmc`]
//! — the Synthesis claim is precisely that the lock-free queues designed
//! for single-CPU interrupt concurrency carry over to multiprocessor
//! concurrency unchanged, so the transfer medium *is* that queue, plus
//! two counters. (The kernel balances its per-CPU ready queues, TTE `jmp`
//! chains, by migrating threads directly; the benchmark's probes and the
//! schedule explorer drive this pool.)
//!
//! Like the other blocks, the pool compiles against [`crate::sync`], so
//! under `--features sim` every atomic step becomes a preemption point
//! and steal/offer races can be exhaustively explored.

use std::sync::Arc;

use crate::mpmc;
use crate::sync::{AtomicU64, Ordering};

/// A shared pool of stealable work items.
///
/// Cloning yields another handle to the same pool (all counters shared).
pub struct WorkPool<T> {
    q: mpmc::Handle<T>,
    offered: Arc<AtomicU64>,
    stolen: Arc<AtomicU64>,
}

impl<T> Clone for WorkPool<T> {
    fn clone(&self) -> Self {
        WorkPool {
            q: self.q.clone(),
            offered: Arc::clone(&self.offered),
            stolen: Arc::clone(&self.stolen),
        }
    }
}

impl<T> WorkPool<T> {
    /// A pool holding up to `capacity` items (rounded up to 2 — the
    /// underlying queue needs at least one slot of slack).
    #[must_use]
    pub fn new(capacity: usize) -> WorkPool<T> {
        WorkPool {
            q: mpmc::channel(capacity.max(2)),
            offered: Arc::new(AtomicU64::new(0)),
            stolen: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Offer an item for stealing. Returns the item back if the pool is
    /// full (the offering CPU just keeps the work).
    ///
    /// # Errors
    ///
    /// `Err(item)` when the pool is at capacity.
    pub fn offer(&self, item: T) -> Result<(), T> {
        match self.q.put(item) {
            Ok(()) => {
                self.offered.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(full) => Err(full.0),
        }
    }

    /// Steal the oldest offered item, if any.
    pub fn steal(&self) -> Option<T> {
        let item = self.q.get()?;
        self.stolen.fetch_add(1, Ordering::Relaxed);
        Some(item)
    }

    /// Items offered over the pool's lifetime.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Items stolen over the pool's lifetime.
    #[must_use]
    pub fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Approximate number of items currently in the pool.
    #[must_use]
    pub fn len_hint(&self) -> usize {
        self.q.len_hint()
    }
}

#[cfg(all(test, not(feature = "sim")))]
mod tests {
    use super::*;

    #[test]
    fn offer_then_steal_fifo() {
        let p = WorkPool::new(4);
        p.offer(1u32).unwrap();
        p.offer(2).unwrap();
        assert_eq!(p.steal(), Some(1));
        assert_eq!(p.steal(), Some(2));
        assert_eq!(p.steal(), None);
        assert_eq!(p.offered(), 2);
        assert_eq!(p.stolen(), 2);
    }

    #[test]
    fn full_pool_returns_item() {
        let p = WorkPool::new(2);
        p.offer(1u32).unwrap();
        p.offer(2).unwrap();
        let r = p.offer(3);
        assert_eq!(r, Err(3));
        assert_eq!(p.offered(), 2);
    }

    #[test]
    fn clones_share_state() {
        let p = WorkPool::new(4);
        let q = p.clone();
        p.offer(7u32).unwrap();
        assert_eq!(q.steal(), Some(7));
        assert_eq!(p.stolen(), 1);
    }

    #[test]
    fn concurrent_offer_steal_loses_nothing() {
        let p = WorkPool::new(64);
        let n = 4;
        let per = 500;
        let mut handles = Vec::new();
        for t in 0..n {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let mut item = t * per + i;
                    loop {
                        match p.offer(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut got = Vec::new();
        while got.len() < (n * per) as usize {
            if let Some(v) = p.steal() {
                got.push(v);
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        let want: Vec<u32> = (0..n * per).collect();
        assert_eq!(got, want);
    }
}
