//! The MP-MC optimistic queue: multiple producers *and* consumers.
//!
//! Both sides stake claims with compare-and-swap; per-slot sequence
//! counters (the lap-safe form of Figure 2's flag array) arbitrate slot
//! ownership. This is the fully general optimistic queue of Section 3.2:
//! "Optimistic queues accept queue insert and queue delete operations from
//! multiple producers and multiple consumers."

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

// SAFETY: Slot value access is serialized by the seq protocol: a producer
// owns the slot between winning the head CAS and stamping seq = c + 1; a
// consumer owns it between winning the tail CAS (enabled by seq == c + 1)
// and stamping seq = c + cap.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: See above.
unsafe impl<T: Send> Sync for Shared<T> {}

/// A cloneable handle serving both put and get.
pub struct Handle<T> {
    q: Arc<Shared<T>>,
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Handle { q: self.q.clone() }
    }
}

// SAFETY: All shared access is protocol-mediated.
unsafe impl<T: Send> Send for Handle<T> {}
// SAFETY: See above.
unsafe impl<T: Send> Sync for Handle<T> {}

/// Create an MP-MC queue with `capacity` slots.
///
/// `capacity` must be at least 2: with a single slot the sequence stamp
/// for "slot holds counter c" (`c + 1`) would collide with "slot free for
/// counter c + 1" (`c + cap = c + 1`), so occupancy would be ambiguous.
#[must_use]
pub fn channel<T>(capacity: usize) -> Handle<T> {
    assert!(capacity >= 2, "mpmc requires capacity >= 2");
    let buf: Box<[Slot<T>]> = (0..capacity as u64)
        .map(|i| Slot {
            seq: AtomicU64::new(i),
            val: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    Handle {
        q: Arc::new(Shared {
            buf,
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            retries: CachePadded::new(AtomicU64::new(0)),
        }),
    }
}

impl<T> Handle<T> {
    /// Insert an item.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when no slot is free.
    pub fn put(&self, data: T) -> Result<(), Full<T>> {
        let cap = self.q.buf.len() as u64;
        loop {
            let h = self.q.head.load(Ordering::Relaxed);
            let slot = &self.q.buf[(h % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == h {
                // Free for this counter: claim it.
                match self.q.head.compare_exchange_weak(
                    h,
                    h + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: Winning the claim on counter h gives us
                        // the slot until we stamp it filled.
                        unsafe {
                            (*slot.val.get()).write(data);
                        }
                        slot.seq.store(h + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(_) => {
                        self.q.retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            }
            if seq < h {
                // The slot still holds last lap's item: full.
                return Err(Full(data));
            }
            // seq > h: our head read is stale; retry.
            std::hint::spin_loop();
        }
    }

    /// Insert a whole batch, all-or-nothing (the paper's multi-item
    /// insert): stake a claim to `n` slots with a *single*
    /// compare-and-swap on the head — Figure 2's multi-item claim.
    ///
    /// Every slot in the claim range is checked free *before* the CAS.
    /// Checking cannot go stale between the check and a successful CAS:
    /// a free slot's stamp advances only when the producer owning its
    /// counter fills it, and counters `h..h+n` can only be owned by
    /// winning the head CAS from `h` — which is us. Consumers finishing
    /// out of order is why each slot must be checked individually (a
    /// later slot can be free while an earlier one is still being read).
    ///
    /// # Errors
    ///
    /// Returns [`BatchFull`] handing the batch back untouched when the
    /// batch does not fit.
    pub fn put_many(&self, data: Vec<T>) -> Result<(), BatchFull<T>> {
        let n = data.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let cap = self.q.buf.len() as u64;
        if n > cap {
            return Err(BatchFull(data));
        }
        loop {
            let h = self.q.head.load(Ordering::Relaxed);
            let mut stale = false;
            let mut full = false;
            for j in 0..n {
                let seq = self.q.buf[((h + j) % cap) as usize]
                    .seq
                    .load(Ordering::Acquire);
                if seq < h + j {
                    full = true; // last lap's item still in the slot
                    break;
                }
                if seq > h + j {
                    stale = true; // our head read is behind; retry
                    break;
                }
            }
            if full {
                return Err(BatchFull(data));
            }
            if stale {
                std::hint::spin_loop();
                continue;
            }
            match self
                .q
                .head
                .compare_exchange_weak(h, h + n, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    for (j, item) in data.into_iter().enumerate() {
                        let c = h + j as u64;
                        let slot = &self.q.buf[(c % cap) as usize];
                        // SAFETY: Winning the claim on counters h..h+n
                        // gives us each slot until we stamp it filled.
                        unsafe {
                            (*slot.val.get()).write(item);
                        }
                        slot.seq.store(c + 1, Ordering::Release);
                    }
                    return Ok(());
                }
                Err(_) => {
                    self.q.retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Take an item, or `None` when the queue is empty.
    pub fn get(&self) -> Option<T> {
        let cap = self.q.buf.len() as u64;
        loop {
            let t = self.q.tail.load(Ordering::Relaxed);
            let slot = &self.q.buf[(t % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == t + 1 {
                match self.q.tail.compare_exchange_weak(
                    t,
                    t + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: Winning the tail claim for a slot
                        // stamped filled gives exclusive read ownership.
                        let data = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(t + cap, Ordering::Release);
                        return Some(data);
                    }
                    Err(_) => {
                        self.q.retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            }
            if seq <= t {
                return None; // not yet filled: empty
            }
            // seq > t + 1: stale tail; retry.
            std::hint::spin_loop();
        }
    }

    /// CAS retries across all parties.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.q.retries.load(Ordering::Relaxed)
    }

    /// The queue's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.q.buf.len()
    }

    /// Approximate occupancy, never exceeding [`Self::capacity`].
    ///
    /// Tail is read first: reading head first lets concurrent put/get
    /// pairs advance both counters in between, so `head - old_tail`
    /// could exceed the capacity. Even with this order the difference
    /// can overshoot (tail may lag arbitrarily behind the later head
    /// read under wraparound), so the result is clamped — occupancy can
    /// never truly exceed the slot count.
    #[must_use]
    pub fn len_hint(&self) -> usize {
        let t = self.q.tail.load(Ordering::Acquire);
        let h = self.q.head.load(Ordering::Relaxed);
        (h.saturating_sub(t) as usize).min(self.q.buf.len())
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
                // SAFETY: Filled, unconsumed; sole owner now.
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
    fn fifo_single_threaded() {
        let q = channel(4);
        q.put(1).unwrap();
        q.put(2).unwrap();
        assert_eq!(q.get(), Some(1));
        q.put(3).unwrap();
        q.put(4).unwrap();
        q.put(5).unwrap();
        assert_eq!(q.put(6), Err(Full(6)));
        assert_eq!(q.get(), Some(2));
        assert_eq!(q.get(), Some(3));
        assert_eq!(q.get(), Some(4));
        assert_eq!(q.get(), Some(5));
        assert_eq!(q.get(), None);
    }

    #[test]
    fn many_to_many_stress() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER: u64 = 5_000;
        let q = channel(256);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut handles = Vec::new();
        for t in 0..PRODUCERS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    let mut v = t * PER + i;
                    loop {
                        match q.put(v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..CONSUMERS {
            let q = q.clone();
            let seen = seen.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while done.load(Ordering::Relaxed) < PRODUCERS * PER {
                    if let Some(v) = q.get() {
                        local.push(v);
                        done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
                let mut s = seen.lock().unwrap();
                for v in local {
                    assert!(s.insert(v), "duplicate {v}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), (PRODUCERS * PER) as usize);
        assert_eq!(q.get(), None);
    }

    #[test]
    fn drop_with_items_in_flight() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = channel(8);
            q.put(D).unwrap();
            q.put(D).unwrap();
            drop(q.get());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
