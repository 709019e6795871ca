//! The SP-MC optimistic queue: one producer, multiple consumers.
//!
//! Consumers "stake a claim" to the next occupied slot with a
//! compare-and-swap on the tail — the mirror image of Figure 2's producer
//! side. Slot validity uses a per-slot *sequence counter*, the lap-safe
//! generalization of the paper's flag array (the flag is the sequence's
//! low bit): a slot stamped `c + 1` holds the item for counter `c`; a slot
//! stamped `c + cap` is free for the producer's next lap.

use std::mem::MaybeUninit;
use std::sync::Arc;

use crossbeam::utils::CachePadded;

use crate::sync::{AtomicU64, Ordering, UnsafeCell};
use crate::{BatchFull, Full};

struct Slot<T> {
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<T>>,
}

struct Shared<T> {
    buf: Box<[Slot<T>]>,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    retries: CachePadded<AtomicU64>,
}

// SAFETY: Slot ownership is transferred through the seq protocol
// (Release on stamp, Acquire on observe), exactly one party may touch a
// slot's value between stamps.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: See above.
unsafe impl<T: Send> Sync for Shared<T> {}

/// The single producer handle.
pub struct Producer<T> {
    q: Arc<Shared<T>>,
    head: u64,
}

/// A consumer handle; clone it for each consuming thread.
pub struct Consumer<T> {
    q: Arc<Shared<T>>,
}

impl<T> Clone for Consumer<T> {
    fn clone(&self) -> Self {
        Consumer { q: self.q.clone() }
    }
}

// SAFETY: Protocol-mediated access as above.
unsafe impl<T: Send> Send for Producer<T> {}
// SAFETY: Protocol-mediated access as above.
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create an SP-MC queue with `capacity` slots.
///
/// `capacity` must be at least 2 (see the sequence-stamp collision note
/// on [`crate::mpmc::channel`]).
#[must_use]
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 2, "spmc requires capacity >= 2");
    let buf: Box<[Slot<T>]> = (0..capacity as u64)
        .map(|i| Slot {
            // Slot i is free for counter i on lap 0.
            seq: AtomicU64::new(i),
            val: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let q = Arc::new(Shared {
        buf,
        head: CachePadded::new(AtomicU64::new(0)),
        tail: CachePadded::new(AtomicU64::new(0)),
        retries: CachePadded::new(AtomicU64::new(0)),
    });
    (
        Producer {
            q: q.clone(),
            head: 0,
        },
        Consumer { q },
    )
}

impl<T> Producer<T> {
    /// Insert an item.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when the next slot has not been drained yet.
    pub fn put(&mut self, data: T) -> Result<(), Full<T>> {
        let cap = self.q.buf.len() as u64;
        let h = self.head;
        let slot = &self.q.buf[(h % cap) as usize];
        // The slot is free for us when its stamp equals our counter.
        if slot.seq.load(Ordering::Acquire) != h {
            return Err(Full(data));
        }
        // SAFETY: A stamp of exactly `h` means the lap-(h/cap - 1)
        // consumer finished with this slot and nobody else will touch it
        // until we stamp `h + 1`.
        unsafe {
            (*slot.val.get()).write(data);
        }
        slot.seq.store(h + 1, Ordering::Release);
        self.head = h + 1;
        self.q.head.store(h + 1, Ordering::Release);
        Ok(())
    }

    /// Insert a whole batch, all-or-nothing (the paper's multi-item
    /// insert).
    ///
    /// Every slot the batch needs is checked *before* anything is
    /// written. Checking only the last slot would be unsound here:
    /// consumers stake claims in counter order but may finish (and free
    /// their slots) out of order, so a later slot can be free while an
    /// earlier one is still being read. Once all checks pass the slots
    /// cannot be un-freed (only this producer advances a free slot's
    /// stamp), so the fill needs no rollback; items publish in order via
    /// their per-slot stamps, Figure 2's valid flags.
    ///
    /// # Errors
    ///
    /// Returns [`BatchFull`] handing the batch back untouched when the
    /// batch does not fit.
    pub fn put_many(&mut self, data: Vec<T>) -> Result<(), BatchFull<T>> {
        let n = data.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let cap = self.q.buf.len() as u64;
        if n > cap {
            return Err(BatchFull(data));
        }
        let h = self.head;
        for j in 0..n {
            let slot = &self.q.buf[((h + j) % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != h + j {
                return Err(BatchFull(data));
            }
        }
        for (j, item) in data.into_iter().enumerate() {
            let c = h + j as u64;
            let slot = &self.q.buf[(c % cap) as usize];
            // SAFETY: The stamp equalled `c` above and only the (single)
            // producer can advance a free slot's stamp, so the slot is
            // exclusively ours until we stamp `c + 1`.
            unsafe {
                (*slot.val.get()).write(item);
            }
            slot.seq.store(c + 1, Ordering::Release);
        }
        self.head = h + n;
        self.q.head.store(h + n, Ordering::Release);
        Ok(())
    }

    /// The queue's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.q.buf.len()
    }
}

impl<T> Consumer<T> {
    /// Take an item, or `None` when the queue is empty.
    pub fn get(&self) -> Option<T> {
        let cap = self.q.buf.len() as u64;
        loop {
            let t = self.q.tail.load(Ordering::Relaxed);
            let slot = &self.q.buf[(t % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != t + 1 {
                // Not yet filled for this counter: empty (or another
                // consumer already took it and we will retry with the
                // advanced tail).
                if seq == t || seq < t + 1 {
                    return None;
                }
                // seq > t + 1: stale tail; reload.
                std::hint::spin_loop();
                continue;
            }
            // Stake a claim to counter t.
            match self
                .q
                .tail
                .compare_exchange_weak(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    // SAFETY: Winning the CAS gives exclusive ownership of
                    // the slot's value; the seq Acquire saw the producer's
                    // Release.
                    let data = unsafe { (*slot.val.get()).assume_init_read() };
                    // Free the slot for the producer's next lap.
                    slot.seq.store(t + cap, Ordering::Release);
                    return Some(data);
                }
                Err(_) => {
                    self.q.retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// CAS retries across all consumers.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.q.retries.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let cap = self.buf.len() as u64;
        let mut t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        while t < h {
            let slot = &self.buf[(t % cap) as usize];
            if slot.seq.load(Ordering::Relaxed) == t + 1 {
                // SAFETY: Unconsumed filled slot; sole owner now.
                unsafe {
                    (*slot.val.get()).assume_init_drop();
                }
            }
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn fifo_single_consumer() {
        let (mut p, c) = channel(4);
        p.put(1).unwrap();
        p.put(2).unwrap();
        assert_eq!(c.get(), Some(1));
        assert_eq!(c.get(), Some(2));
        assert_eq!(c.get(), None);
    }

    #[test]
    fn full_when_lap_catches_up() {
        let (mut p, c) = channel(2);
        p.put(1).unwrap();
        p.put(2).unwrap();
        assert_eq!(p.put(3), Err(Full(3)));
        assert_eq!(c.get(), Some(1));
        p.put(3).unwrap();
    }

    #[test]
    fn multiple_consumers_partition_items() {
        const N: u64 = 10_000;
        let (mut p, c) = channel(64);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            let seen = seen.clone();
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    match c.get() {
                        Some(v) if v == u64::MAX => break,
                        Some(v) => local.push(v),
                        None => std::thread::yield_now(),
                    }
                }
                let mut s = seen.lock().unwrap();
                for v in local {
                    assert!(s.insert(v), "duplicate {v}");
                }
            }));
        }
        for i in 0..N {
            while p.put(i).is_err() {
                std::thread::yield_now();
            }
        }
        // Poison pills.
        for _ in 0..4 {
            while p.put(u64::MAX).is_err() {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), N as usize);
    }
}
