//! The fast-fit kernel heap.
//!
//! "In Synthesis, the memory allocation routine is an executable data
//! structure implementing a fast-fit heap [6] with randomized traversal
//! added" (Section 6.3; [6] is Stephenson's *Fast Fits*). Stephenson's
//! allocator keeps free blocks in a Cartesian tree ordered by address and
//! searchable by size; ours is the same shape: a treap keyed by address
//! with a max-free-size augmentation, so an allocation descends only into
//! subtrees that can satisfy it. The *randomized traversal* appears as a
//! random choice among qualifying subtrees, which spreads allocations
//! across the arena and avoids the pathological clustering of strict
//! first-fit.
//!
//! The tree is host-side state; each operation reports how many nodes it
//! examined, which the kernel charges ([`crate::charges::alloc_op`]) where
//! it still calls the heap on a measured path: a thread creation that
//! finds the thread blocks' free list empty. A thread's block otherwise
//! never comes back here: destruction pushes it on that list, in guest
//! code (`templates::thread_init`), and only a heap allocation that fails
//! returns the listed blocks to the tree.
//!
//! Each operation's host work is O(depth): an allocation unlinks only the
//! node it emptied, and a free that merges with a neighbour reuses that
//! neighbour's box, so only a free that merges with nothing allocates.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Allocation failure: not enough contiguous free space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u32,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel heap exhausted allocating {} bytes",
            self.requested
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Allocation granularity.
pub const ALIGN: u32 = 8;

struct Node {
    addr: u32,
    len: u32,
    prio: u64,
    max_len: u32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(addr: u32, len: u32, prio: u64) -> Box<Node> {
        Box::new(Node {
            addr,
            len,
            prio,
            max_len: len,
            left: None,
            right: None,
        })
    }

    fn update(&mut self) {
        let mut m = self.len;
        if let Some(l) = &self.left {
            m = m.max(l.max_len);
        }
        if let Some(r) = &self.right {
            m = m.max(r.max_len);
        }
        self.max_len = m;
    }
}

fn max_len(n: &Option<Box<Node>>) -> u32 {
    n.as_ref().map_or(0, |n| n.max_len)
}

/// The fast-fit heap over `[base, base + len)`.
pub struct FastFit {
    root: Option<Box<Node>>,
    base: u32,
    len: u32,
    rng: SmallRng,
    /// Bytes currently allocated.
    pub in_use: u32,
    /// High-water mark of allocated bytes.
    pub high_water: u32,
    /// Nodes examined by the last operation (for cycle charging).
    pub last_steps: u32,
    /// Total operations performed.
    pub ops: u64,
}

impl FastFit {
    /// A heap managing `[base, base + len)` with a deterministic seed.
    #[must_use]
    pub fn new(base: u32, len: u32) -> FastFit {
        let mut rng = SmallRng::seed_from_u64(0x5717_4E51_5EED);
        let prio = rng.random();
        FastFit {
            root: Some(Node::new(base, len, prio)),
            base,
            len,
            rng,
            in_use: 0,
            high_water: 0,
            last_steps: 0,
            ops: 0,
        }
    }

    /// The managed region.
    #[must_use]
    pub fn region(&self) -> (u32, u32) {
        (self.base, self.len)
    }

    /// Total free bytes.
    #[must_use]
    pub fn free_bytes(&self) -> u32 {
        self.len - self.in_use
    }

    /// The largest single free block.
    #[must_use]
    pub fn largest_free(&self) -> u32 {
        max_len(&self.root)
    }

    /// Allocate `size` bytes (rounded up to [`ALIGN`]); returns the
    /// address.
    ///
    /// # Errors
    ///
    /// Fails when no free block is large enough.
    pub fn alloc(&mut self, size: u32) -> Result<u32, OutOfMemory> {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        self.ops += 1;
        self.last_steps = 0;
        if max_len(&self.root) < size {
            return Err(OutOfMemory { requested: size });
        }
        // Randomized descent: among {left, here, right} that can satisfy
        // the request, pick one at random.
        let mut steps = 0u32;
        let (addr, emptied) = {
            let root = self.root.as_deref_mut().expect("checked above");
            Self::take_fit(root, size, &mut self.rng, &mut steps)
        };
        // take_fit shrinks a node in place; the node it shrank to zero
        // (now keyed `addr + size`) is removed.
        if emptied {
            self.remove_at(addr + size);
        }
        self.last_steps = steps;
        self.in_use += size;
        self.high_water = self.high_water.max(self.in_use);
        Ok(addr)
    }

    /// Descend to a node with `len >= size`, carve `size` bytes off its
    /// front, and return the carved address and whether the node was left
    /// empty. The node keeps its tail (len may become 0).
    fn take_fit(n: &mut Node, size: u32, rng: &mut SmallRng, steps: &mut u32) -> (u32, bool) {
        *steps += 1;
        let here = n.len >= size;
        let left = max_len(&n.left) >= size;
        let right = max_len(&n.right) >= size;
        // Collect qualifying directions and pick one at random — the
        // "randomized traversal".
        let mut choices: [u8; 3] = [0; 3];
        let mut nc = 0;
        if left {
            choices[nc] = 0;
            nc += 1;
        }
        if here {
            choices[nc] = 1;
            nc += 1;
        }
        if right {
            choices[nc] = 2;
            nc += 1;
        }
        debug_assert!(nc > 0, "caller guaranteed a fit exists");
        let pick = choices[rng.random_range(0..nc)];
        let taken = match pick {
            0 => Self::take_fit(n.left.as_deref_mut().expect("left fits"), size, rng, steps),
            2 => Self::take_fit(
                n.right.as_deref_mut().expect("right fits"),
                size,
                rng,
                steps,
            ),
            _ => {
                let addr = n.addr;
                n.addr += size;
                n.len -= size;
                (addr, n.len == 0)
            }
        };
        n.update();
        taken
    }

    /// Free `[addr, addr + size)` (size rounded as in `alloc`).
    ///
    /// Coalesces with adjacent free blocks.
    pub fn free(&mut self, addr: u32, size: u32) {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        self.ops += 1;
        self.in_use = self.in_use.saturating_sub(size);
        // Coalescing: absorb a predecessor that ends at addr and a
        // successor that starts at addr+size, then insert the merged
        // block in the box of a neighbour it absorbed, if any.
        let mut lo = addr;
        let mut hi = addr + size;
        let mut reused = None;
        if let Some((a, l)) = find_pred_end(self.root.as_deref(), lo) {
            debug_assert_eq!(a + l, addr);
            lo = a;
            reused = self.remove_at(a);
        }
        if let Some((a, l)) = find_addr(self.root.as_deref(), hi) {
            hi = a + l;
            let succ = self.remove_at(a);
            reused = reused.or(succ);
        }
        let prio = self.rng.random();
        let node = match reused {
            Some(mut n) => {
                *n = Node {
                    addr: lo,
                    len: hi - lo,
                    prio,
                    max_len: hi - lo,
                    left: None,
                    right: None,
                };
                n
            }
            None => Node::new(lo, hi - lo, prio),
        };
        let root = self.root.take();
        self.root = insert(root, node);
    }

    /// Unlink the node keyed `addr`, returning its box (`None` if no node
    /// has that key).
    fn remove_at(&mut self, addr: u32) -> Option<Box<Node>> {
        fn rec(n: &mut Option<Box<Node>>, addr: u32) -> Option<Box<Node>> {
            let node = n.as_mut()?;
            let removed = match addr.cmp(&node.addr) {
                std::cmp::Ordering::Less => rec(&mut node.left, addr),
                std::cmp::Ordering::Greater => rec(&mut node.right, addr),
                std::cmp::Ordering::Equal => {
                    let mut hit = n.take().expect("matched");
                    *n = merge(hit.left.take(), hit.right.take());
                    return Some(hit);
                }
            };
            node.update();
            removed
        }
        rec(&mut self.root, addr)
    }

    /// Number of free blocks (fragmentation indicator).
    #[must_use]
    pub fn fragments(&self) -> usize {
        fn count(n: Option<&Node>) -> usize {
            n.map_or(0, |n| {
                1 + count(n.left.as_deref()) + count(n.right.as_deref())
            })
        }
        count(self.root.as_deref())
    }
}

/// Treap merge (all keys in `a` < all keys in `b`).
fn merge(a: Option<Box<Node>>, b: Option<Box<Node>>) -> Option<Box<Node>> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut a), Some(mut b)) => {
            if a.prio >= b.prio {
                a.right = merge(a.right.take(), Some(b));
                a.update();
                Some(a)
            } else {
                b.left = merge(Some(a), b.left.take());
                b.update();
                Some(b)
            }
        }
    }
}

/// Treap insert by address key.
fn insert(root: Option<Box<Node>>, node: Box<Node>) -> Option<Box<Node>> {
    match root {
        None => Some(node),
        Some(mut r) => {
            if node.prio > r.prio {
                let (l, rr) = split(Some(r), node.addr);
                let mut node = node;
                node.left = l;
                node.right = rr;
                node.update();
                Some(node)
            } else {
                if node.addr < r.addr {
                    r.left = insert(r.left.take(), node);
                } else {
                    r.right = insert(r.right.take(), node);
                }
                r.update();
                Some(r)
            }
        }
    }
}

/// Split by address key: (< key, >= key).
fn split(root: Option<Box<Node>>, key: u32) -> (Option<Box<Node>>, Option<Box<Node>>) {
    match root {
        None => (None, None),
        Some(mut r) => {
            if r.addr < key {
                let (l, rr) = split(r.right.take(), key);
                r.right = l;
                r.update();
                (Some(r), rr)
            } else {
                let (l, rr) = split(r.left.take(), key);
                r.left = rr;
                r.update();
                (l, Some(r))
            }
        }
    }
}

/// Find the block whose end equals `addr` (necessarily the free block
/// with the largest start address below `addr`, since blocks are
/// disjoint).
fn find_pred_end(n: Option<&Node>, addr: u32) -> Option<(u32, u32)> {
    let n = n?;
    if n.addr >= addr {
        return find_pred_end(n.left.as_deref(), addr);
    }
    // n is a candidate; a closer predecessor may sit in the right subtree.
    if let Some(hit) = find_pred_end(n.right.as_deref(), addr) {
        return Some(hit);
    }
    if n.addr + n.len == addr {
        Some((n.addr, n.len))
    } else {
        None
    }
}

/// Find the block starting exactly at `addr`.
fn find_addr(n: Option<&Node>, addr: u32) -> Option<(u32, u32)> {
    let n = n?;
    match addr.cmp(&n.addr) {
        std::cmp::Ordering::Less => find_addr(n.left.as_deref(), addr),
        std::cmp::Ordering::Greater => find_addr(n.right.as_deref(), addr),
        std::cmp::Ordering::Equal => Some((n.addr, n.len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_exhaust() {
        let mut h = FastFit::new(0x1000, 0x100);
        let a = h.alloc(0x80).unwrap();
        let b = h.alloc(0x80).unwrap();
        assert_ne!(a, b);
        assert!((0x1000..0x1100).contains(&a));
        assert!((0x1000..0x1100).contains(&b));
        assert!(h.alloc(8).is_err());
        assert_eq!(h.free_bytes(), 0);
    }

    #[test]
    fn free_and_coalesce_restores_arena() {
        let mut h = FastFit::new(0, 0x1000);
        let mut blocks = Vec::new();
        for _ in 0..16 {
            blocks.push(h.alloc(0x100).unwrap());
        }
        assert!(h.alloc(8).is_err());
        for a in blocks {
            h.free(a, 0x100);
        }
        assert_eq!(h.free_bytes(), 0x1000);
        assert_eq!(h.fragments(), 1, "full coalescing back to one block");
        assert_eq!(h.largest_free(), 0x1000);
    }

    #[test]
    fn no_overlap_under_mixed_traffic() {
        let mut h = FastFit::new(0, 0x4000);
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(42);
        for i in 0..2000 {
            if live.is_empty() || (i % 3 != 0) {
                let size = rng.random_range(8..200u32);
                if let Ok(a) = h.alloc(size) {
                    let size = size.div_ceil(ALIGN) * ALIGN;
                    for &(b, bl) in &live {
                        assert!(a + size <= b || b + bl <= a, "overlap");
                    }
                    live.push((a, size));
                }
            } else {
                let idx = rng.random_range(0..live.len());
                let (a, l) = live.swap_remove(idx);
                h.free(a, l);
            }
        }
        let total: u32 = live.iter().map(|&(_, l)| l).sum();
        assert_eq!(h.in_use, total);
    }

    #[test]
    fn steps_reported() {
        let mut h = FastFit::new(0, 0x10000);
        // Fragment the arena a little.
        let a = h.alloc(0x100).unwrap();
        let _b = h.alloc(0x100).unwrap();
        h.free(a, 0x100);
        h.alloc(0x80).unwrap();
        assert!(h.last_steps >= 1);
        assert!(h.ops >= 4);
    }

    #[test]
    fn randomized_traversal_spreads_allocations() {
        // With randomized traversal, allocating after building fragments
        // should not always pick the lowest address.
        let mut h = FastFit::new(0, 0x10000);
        let mut blocks = Vec::new();
        for _ in 0..32 {
            blocks.push(h.alloc(0x200).unwrap());
        }
        // Free every other block: 16 disjoint holes.
        for (i, &a) in blocks.iter().enumerate() {
            if i % 2 == 0 {
                h.free(a, 0x200);
            }
        }
        let picks: Vec<u32> = (0..8).map(|_| h.alloc(0x100).unwrap()).collect();
        let all_ascending = picks.windows(2).all(|w| w[1] > w[0]);
        assert!(
            !all_ascending,
            "randomized traversal should not behave like strict first-fit: {picks:?}"
        );
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut h = FastFit::new(0, 0x1000);
        let a = h.alloc(0x800).unwrap();
        h.free(a, 0x800);
        h.alloc(0x100).unwrap();
        assert_eq!(h.high_water, 0x800);
    }
}
