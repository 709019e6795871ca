//! The SP-SC queue of paper Figure 1.
//!
//! "When the queue buffer is neither full nor empty, the consumer and the
//! producer operate on different parts of the buffer. Therefore,
//! synchronization is necessary only when the buffer becomes empty or
//! full" (Section 3.2). Correctness comes from Code Isolation: "Of the two
//! variables being written, `Q_head` is updated only by the producer and
//! `Q_tail` only by the consumer", and from publishing order: "we update
//! `Q_head` at the last instruction during `Q_put`, \[so\] the consumer will
//! not detect an item until the producer has finished."
//!
//! Faithful details: one slot is sacrificed to distinguish full from empty
//! (`next(head) == tail` means full), exactly like Figure 1.

use crate::sync::{AtomicUsize, Ordering, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::Arc;

use crossbeam::utils::CachePadded;

use crate::{BatchFull, Full};

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the producer will write. Written ONLY by the producer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read. Written ONLY by the consumer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: `Shared` hands out element access such that the producer touches
// only slots in [head, tail) (mod cap) and the consumer only [tail, head);
// the head/tail publication protocol (Release store after the slot write,
// Acquire load before the slot read) transfers ownership of each slot.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: See above; the only shared mutation is through the protocol.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    #[inline]
    fn next(&self, i: usize) -> usize {
        // Figure 1's next(): wrap at Q_size.
        let n = i + 1;
        if n == self.buf.len() {
            0
        } else {
            n
        }
    }
}

/// The producer handle (`Q_put`).
pub struct Producer<T> {
    q: Arc<Shared<T>>,
    /// Cached copy of head (only we write it, so no reload needed).
    head: usize,
    /// Last-seen tail, refreshed only when the queue looks full.
    tail_cache: usize,
}

/// The consumer handle (`Q_get`).
pub struct Consumer<T> {
    q: Arc<Shared<T>>,
    tail: usize,
    head_cache: usize,
}

// SAFETY: Producer owns the producer side exclusively; moving it between
// threads is fine for T: Send. It is !Sync by containing no Sync surface
// that matters — but be explicit:
unsafe impl<T: Send> Send for Producer<T> {}
// SAFETY: As above for the consumer side.
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create an SP-SC queue holding up to `capacity` items.
///
/// Internally allocates `capacity + 1` slots: Figure 1 distinguishes full
/// from empty by sacrificing one slot.
#[must_use]
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "capacity must be at least 1");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..=capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let q = Arc::new(Shared {
        buf,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            q: q.clone(),
            head: 0,
            tail_cache: 0,
        },
        Consumer {
            q,
            tail: 0,
            head_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// `Q_put`: insert an item, or hand it back if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when `next(head) == tail`.
    pub fn put(&mut self, data: T) -> Result<(), Full<T>> {
        let h = self.head;
        let nh = self.q.next(h);
        if nh == self.tail_cache {
            // Looks full: refresh the cached tail with an Acquire load
            // (synchronizes with the consumer's Release store).
            self.tail_cache = self.q.tail.load(Ordering::Acquire);
            if nh == self.tail_cache {
                return Err(Full(data));
            }
        }
        // SAFETY: Slot `h` is owned by the producer: the consumer only
        // reads slots in [tail, head), and h == head is outside that
        // range until the Release store below publishes it.
        unsafe {
            (*self.q.buf[h].get()).write(data);
        }
        // "We update Q_head at the last instruction during Q_put."
        self.q.head.store(nh, Ordering::Release);
        self.head = nh;
        Ok(())
    }

    /// Insert a whole batch, all-or-nothing (the paper's multi-item
    /// insert). Because Figure 1 publishes with the head store alone, one
    /// Release store at the end makes the entire batch visible atomically:
    /// the consumer can never observe a prefix of it.
    ///
    /// # Errors
    ///
    /// Returns [`BatchFull`] handing the batch back untouched when fewer
    /// than `data.len()` slots are free.
    pub fn put_many(&mut self, data: Vec<T>) -> Result<(), BatchFull<T>> {
        let n = data.len();
        if n == 0 {
            return Ok(());
        }
        let size = self.q.buf.len();
        // Free slots from the producer's view; one slot is sacrificed.
        let free = |tail: usize, head: usize| (tail + size - 1 - head) % size;
        if free(self.tail_cache, self.head) < n {
            self.tail_cache = self.q.tail.load(Ordering::Acquire);
            if free(self.tail_cache, self.head) < n {
                return Err(BatchFull(data));
            }
        }
        let mut h = self.head;
        for item in data {
            // SAFETY: `free >= n` slots starting at head belong to the
            // producer; none is visible to the consumer until the single
            // head store below.
            unsafe {
                (*self.q.buf[h].get()).write(item);
            }
            h = self.q.next(h);
        }
        self.q.head.store(h, Ordering::Release);
        self.head = h;
        Ok(())
    }

    /// The queue's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.q.buf.len() - 1
    }
}

impl<T> Consumer<T> {
    /// `Q_get`: take an item, or `None` when the queue is empty.
    pub fn get(&mut self) -> Option<T> {
        let t = self.tail;
        if t == self.head_cache {
            self.head_cache = self.q.head.load(Ordering::Acquire);
            if t == self.head_cache {
                return None;
            }
        }
        // SAFETY: head != tail, so slot `t` holds an initialized item
        // published by the producer's Release store of head, which our
        // Acquire load observed.
        let data = unsafe { (*self.q.buf[t].get()).assume_init_read() };
        self.q.tail.store(self.q.next(t), Ordering::Release);
        self.tail = self.q.next(t);
        Some(data)
    }

    /// Approximate number of items queued.
    #[must_use]
    pub fn len_hint(&self) -> usize {
        let h = self.q.head.load(Ordering::Relaxed);
        let t = self.tail;
        let cap = self.q.buf.len();
        (h + cap - t) % cap
    }

    /// The queue's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.q.buf.len() - 1
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drain un-consumed items so their destructors run.
        let mut t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        while t != h {
            // SAFETY: Both handles are gone (we are dropping the only
            // remaining owner), so [tail, head) holds initialized items.
            unsafe {
                (*self.buf[t].get()).assume_init_drop();
            }
            t = self.next(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (mut p, mut c) = channel(8);
        for i in 0..5 {
            p.put(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.get(), Some(i));
        }
        assert_eq!(c.get(), None);
    }

    #[test]
    fn full_detection_at_capacity() {
        let (mut p, mut c) = channel(3);
        p.put(1).unwrap();
        p.put(2).unwrap();
        p.put(3).unwrap();
        assert_eq!(p.put(4), Err(Full(4)));
        assert_eq!(c.get(), Some(1));
        p.put(4).unwrap();
        assert_eq!(p.put(5), Err(Full(5)));
    }

    #[test]
    fn interleaved_wraparound() {
        let (mut p, mut c) = channel(4);
        for round in 0..100 {
            p.put(round * 2).unwrap();
            p.put(round * 2 + 1).unwrap();
            assert_eq!(c.get(), Some(round * 2));
            assert_eq!(c.get(), Some(round * 2 + 1));
        }
        assert_eq!(c.get(), None);
    }

    #[test]
    fn capacity_reporting() {
        let (p, c) = channel::<u8>(7);
        assert_eq!(p.capacity(), 7);
        assert_eq!(c.capacity(), 7);
    }

    #[test]
    fn drop_runs_destructors() {
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
            let (mut p, mut c) = channel(8);
            p.put(D).unwrap();
            p.put(D).unwrap();
            p.put(D).unwrap();
            drop(c.get()); // one consumed
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn two_thread_stress() {
        const N: u64 = 20_000;
        let (mut p, mut c) = channel(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.put(v) {
                        Ok(()) => break,
                        Err(Full(back)) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = c.get() {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.get(), None);
    }
}
