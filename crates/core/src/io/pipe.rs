//! Kernel pipe objects.
//!
//! A pipe is an SP-SC byte ring in kernel memory; `open`-time synthesis
//! folds its addresses into the endpoints' `read`/`write` code
//! ([`crate::templates::pipe`]). The descriptor slots live in simulated
//! memory because the synthesized code manipulates them directly.

use quamachine::isa::Size;
use quamachine::machine::Machine;

use crate::alloc::fastfit::OutOfMemory;
use crate::alloc::FastFit;
use crate::thread::Tid;

/// Default pipe capacity in bytes (a power of two; comfortably above the
/// 4 KB chunks of Table 1's program 4).
pub const DEFAULT_PIPE_SIZE: u32 = 8192;

/// A kernel pipe.
#[derive(Debug)]
pub struct Pipe {
    /// Pipe id (index in the kernel's pipe table).
    pub pid: u32,
    /// Address of the free-running head counter (writer-owned).
    pub head_slot: u32,
    /// Address of the free-running tail counter (reader-owned).
    pub tail_slot: u32,
    /// Ring buffer base.
    pub buf: u32,
    /// Ring size (power of two).
    pub size: u32,
    /// Reader-waiting flag slot (checked by the synthesized writer).
    pub r_wait_slot: u32,
    /// Writer-waiting flag slot (checked by the synthesized reader).
    pub w_wait_slot: u32,
    /// Open read-end fds (the kernel frees the ring when both end
    /// counts reach zero).
    pub readers: u32,
    /// Open write-end fds.
    pub writers: u32,
    /// The last thread to bind a call site to one of this pipe's fused
    /// wrappers — the only one that can hold live ones, since they bind
    /// only while it owns every open end. Set by the kernel's `chan`
    /// module; `pipe_attach` retires the sites through it and clears it.
    pub fused_by: Option<Tid>,
}

impl Pipe {
    /// Allocate a pipe's kernel memory.
    ///
    /// # Errors
    ///
    /// Fails when the kernel heap is exhausted, with nothing taken.
    pub fn allocate(
        m: &mut Machine,
        heap: &mut FastFit,
        pid: u32,
        size: u32,
    ) -> Result<Pipe, OutOfMemory> {
        assert!(size.is_power_of_two(), "pipe size must be a power of two");
        let slots = heap.alloc(16)?;
        let buf = heap.alloc(size).inspect_err(|_| heap.free(slots, 16))?;
        for off in (0..16).step_by(4) {
            m.mem.poke(slots + off, Size::L, 0);
        }
        Ok(Pipe {
            pid,
            head_slot: slots,
            tail_slot: slots + 4,
            r_wait_slot: slots + 8,
            w_wait_slot: slots + 12,
            buf,
            size,
            readers: 0,
            writers: 0,
            fused_by: None,
        })
    }

    /// Free the pipe's kernel memory.
    pub fn release(&self, heap: &mut FastFit) {
        heap.free(self.head_slot, 16);
        heap.free(self.buf, self.size);
    }

    /// Bytes currently buffered.
    #[must_use]
    pub fn available(&self, m: &Machine) -> u32 {
        let h = m.mem.peek(self.head_slot, Size::L);
        let t = m.mem.peek(self.tail_slot, Size::L);
        h.wrapping_sub(t)
    }

    /// Free space in bytes.
    #[must_use]
    pub fn space(&self, m: &Machine) -> u32 {
        self.size - self.available(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::machine::MachineConfig;

    #[test]
    fn allocate_and_inspect() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut heap = FastFit::new(
            crate::layout::KERNEL_HEAP_BASE,
            crate::layout::KERNEL_HEAP_LEN,
        );
        let p = Pipe::allocate(&mut m, &mut heap, 0, 4096).unwrap();
        assert_eq!(p.available(&m), 0);
        assert_eq!(p.space(&m), 4096);
        // Simulate the synthesized writer bumping head.
        m.mem.poke(p.head_slot, Size::L, 100);
        assert_eq!(p.available(&m), 100);
        assert_eq!(p.space(&m), 3996);
        p.release(&mut heap);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut heap = FastFit::new(
            crate::layout::KERNEL_HEAP_BASE,
            crate::layout::KERNEL_HEAP_LEN,
        );
        let _ = Pipe::allocate(&mut m, &mut heap, 0, 1000);
    }
}
