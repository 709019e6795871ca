//! Buffered queues: amortize queue overhead by a blocking factor.
//!
//! "Buffered queues use kernel code synthesis to generate several
//! specialized queue insert operations (a couple of instructions); each
//! moves a chunk of data into a different area of the same queue element.
//! This way, the overhead of a queue insert is amortized by the blocking
//! factor. For example, the A/D device server handles 44,100 (single
//! word) interrupts per second by packing eight 32-bit words per queue
//! element" (Section 5.4).
//!
//! The Rust analogue of the "several specialized insert operations" is the
//! monomorphized, inlineable `put` on a `[T; N]` chunk: the common case
//! writes one array slot and bumps an index — a couple of instructions —
//! and only every `N`-th call touches the underlying queue.

use crate::spsc;
use crate::Full;

/// The producer side: packs items into chunks of `N`.
pub struct BufferedProducer<T, const N: usize> {
    inner: spsc::Producer<[T; N]>,
    /// The chunk being filled.
    fill: [Option<T>; N],
    fill_len: usize,
    /// Queue-element inserts actually performed (vs items accepted).
    pub chunk_puts: u64,
    /// Items accepted.
    pub items: u64,
}

/// The consumer side: unpacks chunks.
pub struct BufferedConsumer<T, const N: usize> {
    inner: spsc::Consumer<[T; N]>,
    drain: Vec<T>,
}

/// Create a buffered SP-SC queue of `chunks` queue elements, each packing
/// `N` items (the blocking factor).
#[must_use]
pub fn channel<T: Send, const N: usize>(
    chunks: usize,
) -> (BufferedProducer<T, N>, BufferedConsumer<T, N>) {
    assert!(N >= 1);
    let (p, c) = spsc::channel(chunks);
    (
        BufferedProducer {
            inner: p,
            fill: std::array::from_fn(|_| None),
            fill_len: 0,
            chunk_puts: 0,
            items: 0,
        },
        BufferedConsumer {
            inner: c,
            drain: Vec::new(),
        },
    )
}

impl<T: Send, const N: usize> BufferedProducer<T, N> {
    /// Insert one item. The fast path fills one slot of the current
    /// chunk; every `N`-th call pushes the chunk into the queue.
    ///
    /// `Ok` means the item was accepted, not that it is visible: when
    /// the `N`-th item completes a chunk and the queue is full, the
    /// chunk stays staged until the next `put` or [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when a complete chunk is staged and the
    /// underlying queue has no room for it (the item is handed back).
    pub fn put(&mut self, data: T) -> Result<(), Full<T>> {
        // A complete chunk still staged from a previous full-queue
        // attempt must go out before `data` can be accepted.
        if !self.flush() {
            return Err(Full(data));
        }
        self.fill[self.fill_len] = Some(data);
        self.fill_len += 1;
        self.items += 1;
        // Hand a completed chunk off eagerly; if the queue is full it
        // stays staged.
        self.flush();
        Ok(())
    }

    /// Push the staged chunk if it is complete. Returns `true` when no
    /// complete chunk remains staged (there was none, or it went out)
    /// and `false` when the queue had no room for it.
    ///
    /// A producer that stops calling [`put`](Self::put) must call this
    /// until it returns `true`, or its last chunk may never reach the
    /// consumer.
    pub fn flush(&mut self) -> bool {
        if self.fill_len < N {
            return true;
        }
        let chunk: [T; N] =
            std::array::from_fn(|i| self.fill[i].take().expect("chunk slot filled"));
        match self.inner.put(chunk) {
            Ok(()) => {
                self.fill_len = 0;
                self.chunk_puts += 1;
                true
            }
            Err(Full(chunk)) => {
                // Re-stage the chunk; fill_len stays N.
                for (i, item) in chunk.into_iter().enumerate() {
                    self.fill[i] = Some(item);
                }
                false
            }
        }
    }

    /// Flush a partial chunk by padding is impossible for general `T`;
    /// instead, expose how many items are staged so callers can decide.
    #[must_use]
    pub fn staged(&self) -> usize {
        self.fill_len % N
    }

    /// The amortization actually achieved: items per queue-element insert.
    #[must_use]
    pub fn amortization(&self) -> f64 {
        if self.chunk_puts == 0 {
            0.0
        } else {
            self.items as f64 / self.chunk_puts as f64
        }
    }
}

impl<T: Send, const N: usize> BufferedConsumer<T, N> {
    /// Take one item (unpacking a chunk when needed).
    pub fn get(&mut self) -> Option<T> {
        if self.drain.is_empty() {
            let chunk = self.inner.get()?;
            self.drain = chunk.into_iter().rev().collect();
        }
        self.drain.pop()
    }

    /// Take a whole chunk at once (the efficient bulk path).
    pub fn get_chunk(&mut self) -> Option<[T; N]> {
        if self.drain.is_empty() {
            self.inner.get()
        } else {
            None // partial drain in progress; finish with get()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_by_blocking_factor() {
        let (mut p, mut c) = channel::<u32, 8>(16);
        for i in 0..64 {
            p.put(i).unwrap();
        }
        assert_eq!(p.chunk_puts, 8, "64 items / factor 8");
        assert!((p.amortization() - 8.0).abs() < 1e-9);
        for i in 0..64 {
            assert_eq!(c.get(), Some(i));
        }
        assert_eq!(c.get(), None);
    }

    #[test]
    fn partial_chunk_not_visible_until_full() {
        let (mut p, mut c) = channel::<u32, 4>(4);
        p.put(1).unwrap();
        p.put(2).unwrap();
        p.put(3).unwrap();
        assert_eq!(c.get(), None, "3 staged items < blocking factor");
        assert_eq!(p.staged(), 3);
        p.put(4).unwrap();
        assert_eq!(c.get(), Some(1));
    }

    #[test]
    fn chunk_api_yields_whole_chunks() {
        let (mut p, mut c) = channel::<u32, 4>(4);
        for i in 0..8 {
            p.put(i).unwrap();
        }
        assert_eq!(c.get_chunk(), Some([0, 1, 2, 3]));
        assert_eq!(c.get(), Some(4));
        assert_eq!(c.get_chunk(), None, "partial drain in progress");
        assert_eq!(c.get(), Some(5));
        assert_eq!(c.get(), Some(6));
        assert_eq!(c.get(), Some(7));
    }

    #[test]
    fn completed_chunk_stays_staged_until_flushed() {
        let (mut p, mut c) = channel::<u32, 4>(1);
        for i in 0..4 {
            p.put(i).unwrap();
        }
        assert_eq!(p.chunk_puts, 1, "the queue's one element is taken");
        // The second chunk completes against a full queue: every item is
        // accepted, none is visible, and the chunk waits.
        for i in 4..8 {
            p.put(i).unwrap();
        }
        assert_eq!(p.chunk_puts, 1);
        assert!(!p.flush(), "still no room");
        assert!(p.put(8).is_err(), "nowhere to stage a ninth item");
        assert_eq!(c.get_chunk(), Some([0, 1, 2, 3]));
        assert!(p.flush());
        assert_eq!(p.chunk_puts, 2);
        assert_eq!(c.get_chunk(), Some([4, 5, 6, 7]));
        assert!(p.flush(), "nothing staged is not a failure");
    }

    #[test]
    fn ad_server_rate_smoke() {
        // One simulated second of 44.1 kHz samples through a factor-8
        // buffered queue, drained concurrently.
        let (mut p, mut c) = channel::<u32, 8>(64);
        let t = std::thread::spawn(move || {
            let mut got = 0u32;
            while got < 44_100 {
                if c.get().is_some() {
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            got
        });
        for i in 0..44_104u32 {
            // 44_104 = next multiple of 8, so the last chunk completes.
            while p.put(i).is_err() {
                std::thread::yield_now();
            }
        }
        // The last `put` may have found the queue full and left its
        // chunk staged; the consumer waits on an item inside it.
        while !p.flush() {
            std::thread::yield_now();
        }
        assert_eq!(t.join().unwrap(), 44_100);
        assert_eq!(p.chunk_puts, 44_104 / 8);
    }
}
