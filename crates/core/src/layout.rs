//! The kernel quaspace memory layout.
//!
//! Synthesis has a single physical address space partitioned into
//! quaspaces (Section 2.1). The kernel occupies the low region; user
//! quaspaces are carved from the high region. The 2.5 MB total matches
//! the real Quamachine's memory (Section 6.1).

/// Total physical memory (2.5 MB, like the Quamachine).
pub const MEM_SIZE: u32 = 2_621_440;

/// Boot/default vector table (also thread 0's until it gets its own).
pub const BOOT_VECTORS: u32 = 0x0000_0000;

/// Kernel static region: what the kernel places at fixed addresses — the
/// resident routines below, their constant pool and stack, and the head
/// of the thread blocks' free list; everything else is heap-allocated.
pub const KERNEL_DATA_BASE: u32 = 0x0000_0400;
/// Size of the kernel static-data region.
pub const KERNEL_DATA_LEN: u32 = 0x0003_FC00; // up to 0x40000

/// The kernel-resident bulk copy `(a0)+ → (a1)+` (see
/// [`crate::templates::copy`]): loaded once by `Kernel::boot` at the
/// bottom of the kernel static-data region, called by every write path.
pub const COPY_WRITE: u32 = KERNEL_DATA_BASE;
/// The kernel-resident bulk copy `(a1)+ → (a0)+`, called by every read
/// path; 256 bytes above [`COPY_WRITE`].
pub const COPY_READ: u32 = KERNEL_DATA_BASE + 0x100;
/// The kernel-resident fill of a new thread's TTE, kernel-stack frame and
/// vector table (see [`crate::templates::thread_init`]): loaded once by
/// `Kernel::boot`, run by every thread creation.
pub const THREAD_INIT: u32 = KERNEL_DATA_BASE + 0x200;
/// A one-instruction `halt`: the return address `Kernel::call_routine`
/// hands a resident routine, so its `rts` gives the machine back to the
/// host.
pub const HOST_RETURN: u32 = KERNEL_DATA_BASE + 0x300;
/// The kernel-resident push of a thread block onto the free list at
/// [`THREAD_FREE`] (see [`crate::templates::thread_init::fini`]): run by
/// every thread destruction, and by a creation that finds the list empty.
pub const THREAD_FINI: u32 = KERNEL_DATA_BASE + 0x380;
/// The constant pool of [`THREAD_INIT`]: the shared vectors, zeros and
/// `EBADF` entries its bursts load (at most 64 longs).
pub const THREAD_INIT_POOL: u32 = KERNEL_DATA_BASE + 0x400;
/// Top of the stack a routine runs on when the host calls it (it grows
/// down from here; `Kernel::call_routine` uses one long of it).
pub const ROUTINE_STACK: u32 = KERNEL_DATA_BASE + 0x600;
/// The head of the free list of thread blocks: one long, 0 when the list
/// is empty; a listed block's first long links to the next.
/// [`THREAD_INIT`] pops it, [`THREAD_FINI`] pushes it.
pub const THREAD_FREE: u32 = ROUTINE_STACK;

/// Kernel dynamic data: thread blocks, queues, file buffers (managed by
/// the fast-fit allocator).
pub const KERNEL_HEAP_BASE: u32 = 0x0004_0000;
/// Size of the kernel heap.
pub const KERNEL_HEAP_LEN: u32 = 0x000C_0000; // 768 KB, up to 0x100000

/// Synthesized-code buffer (managed by the quaject creator).
pub const CODE_BASE: u32 = 0x0010_0000;
/// Size of the code buffer.
pub const CODE_LEN: u32 = 0x0008_0000; // 512 KB, up to 0x180000

/// User quaspace area.
pub const USER_BASE: u32 = 0x0018_0000;
/// Size of the user area.
pub const USER_LEN: u32 = MEM_SIZE - USER_BASE;

/// Bytes reserved for each per-thread kernel stack.
pub const KSTACK_LEN: u32 = 0x800;

/// Bytes in a thread's vector table (48 vectors × 4, rounded up).
pub const VECTOR_TABLE_LEN: u32 = 0x100;

/// Bytes in a TTE. "About 100 [µs] are needed to fill approximately
/// 1 KBytes in the TTE" (Section 6.3): the TTE is 1 KB.
pub const TTE_LEN: u32 = 0x400;

/// Bytes in a thread block, the one piece of kernel heap a thread owns:
/// its TTE, then its vector table at `+TTE_LEN`, then its kernel stack at
/// `+TTE_LEN + VECTOR_TABLE_LEN` (3,328 bytes).
pub const THREAD_BLOCK_LEN: u32 = TTE_LEN + VECTOR_TABLE_LEN + KSTACK_LEN;

/// A configurable quaspace partition.
///
/// The constants above describe the real Quamachine's 2.5 MB; the
/// capacity harness needs room for tens of thousands of TTEs, kernel
/// stacks, and synthesized code blocks, so the kernel boots against a
/// `MemLayout` instead of the raw constants. [`MemLayout::default`]
/// reproduces the constants exactly — every existing benchmark and test
/// is byte-identical under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Total physical memory.
    pub mem_size: u32,
    /// Kernel heap (fast-fit) base.
    pub heap_base: u32,
    /// Kernel heap length.
    pub heap_len: u32,
    /// Synthesized-code buffer base.
    pub code_base: u32,
    /// Synthesized-code buffer length.
    pub code_len: u32,
    /// User quaspace base.
    pub user_base: u32,
    /// User quaspace length.
    pub user_len: u32,
}

impl Default for MemLayout {
    fn default() -> Self {
        MemLayout {
            mem_size: MEM_SIZE,
            heap_base: KERNEL_HEAP_BASE,
            heap_len: KERNEL_HEAP_LEN,
            code_base: CODE_BASE,
            code_len: CODE_LEN,
            user_base: USER_BASE,
            user_len: USER_LEN,
        }
    }
}

impl MemLayout {
    /// Per-thread kernel heap footprint: the thread block (a multiple of
    /// the allocator's granularity) plus slack for fd offset slots and
    /// queue headers.
    pub const PER_THREAD_HEAP: u32 = THREAD_BLOCK_LEN + 0x100;

    /// Per-thread synthesized-code budget: the switch quaject plus the
    /// three small per-thread handlers (dispatchers, error handler),
    /// sized generously from measured block sizes.
    pub const PER_THREAD_CODE: u32 = 0x600;

    /// A layout scaled to hold `threads` concurrent threads (plus the
    /// boot-time servers and a channel working set). The kernel-data
    /// region and region order are unchanged; the heap, code buffer, and
    /// user area grow and shift upward as needed.
    #[must_use]
    pub fn for_threads(threads: u32) -> MemLayout {
        let heap_len = round_up_1m(KERNEL_HEAP_LEN + threads * Self::PER_THREAD_HEAP);
        let code_len = round_up_1m(CODE_LEN + threads * Self::PER_THREAD_CODE);
        let code_base = KERNEL_HEAP_BASE + heap_len;
        let user_base = code_base + code_len;
        let user_len = USER_LEN.max(0x10_0000);
        MemLayout {
            mem_size: user_base + user_len,
            heap_base: KERNEL_HEAP_BASE,
            heap_len,
            code_base,
            code_len,
            user_base,
            user_len,
        }
    }
}

fn round_up_1m(n: u32) -> u32 {
    n.div_ceil(0x10_0000) * 0x10_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the point IS the constants
    fn regions_are_disjoint_and_ordered() {
        assert!(BOOT_VECTORS < KERNEL_DATA_BASE);
        assert!(KERNEL_DATA_BASE <= COPY_WRITE && COPY_WRITE < COPY_READ);
        assert!(COPY_READ < THREAD_INIT && THREAD_INIT < HOST_RETURN);
        assert!(HOST_RETURN < THREAD_FINI && THREAD_FINI < THREAD_INIT_POOL);
        assert!(THREAD_INIT_POOL + 0x100 < ROUTINE_STACK);
        assert!(ROUTINE_STACK <= THREAD_FREE && THREAD_FREE + 4 <= KERNEL_HEAP_BASE);
        assert_eq!(THREAD_BLOCK_LEN, 3_328);
        assert_eq!(KERNEL_DATA_BASE + KERNEL_DATA_LEN, KERNEL_HEAP_BASE);
        assert_eq!(KERNEL_HEAP_BASE + KERNEL_HEAP_LEN, CODE_BASE);
        assert_eq!(CODE_BASE + CODE_LEN, USER_BASE);
        assert!(USER_BASE + USER_LEN <= MEM_SIZE);
        assert!(USER_LEN >= 0x10_0000, "at least 1 MB of user space");
    }

    #[test]
    fn default_layout_matches_constants() {
        let l = MemLayout::default();
        assert_eq!(l.mem_size, MEM_SIZE);
        assert_eq!(l.heap_base, KERNEL_HEAP_BASE);
        assert_eq!(l.heap_len, KERNEL_HEAP_LEN);
        assert_eq!(l.code_base, CODE_BASE);
        assert_eq!(l.code_len, CODE_LEN);
        assert_eq!(l.user_base, USER_BASE);
        assert_eq!(l.user_len, USER_LEN);
    }

    #[test]
    fn scaled_layout_is_disjoint_and_holds_the_threads() {
        for threads in [100, 1_000, 12_000] {
            let l = MemLayout::for_threads(threads);
            assert_eq!(l.heap_base, KERNEL_HEAP_BASE);
            assert_eq!(l.heap_base + l.heap_len, l.code_base);
            assert_eq!(l.code_base + l.code_len, l.user_base);
            assert!(l.user_base + l.user_len <= l.mem_size);
            assert!(l.heap_len >= threads * MemLayout::PER_THREAD_HEAP);
            assert!(l.code_len >= threads * MemLayout::PER_THREAD_CODE);
        }
    }
}
