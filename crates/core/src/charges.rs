//! Cycle charges for host-assisted kernel work.
//!
//! The measured hot paths (context switch, interrupt handlers, synthesized
//! `read`/`write`, queue operations) execute as real simulated code and
//! are cycle-counted by the machine. A `kcall` hypercall is free: a kernel
//! call costs its trap entry, its `rte` and whatever guest code runs
//! around it. Cold bookkeeping the host still does in place of guest code
//! (patching the ready chain, an allocator walk, a name lookup) is charged
//! by the three formulas here — **derived from the memory traffic and work
//! the operation would perform**, not back-fitted to the paper's numbers.
//! EXPERIMENTS.md reports where the results land.
//!
//! A thread's context is never saved or restored by formula: that is
//! always its own synthesized `sw_save` and `sw_in`, run and counted. Nor
//! is a new thread's image filled by one, or its memory taken or given
//! back: the resident `thread_init` pops its thread block off the guest
//! free list and fills it, and `thread_fini` pushes a dead thread's block
//! back ([`crate::templates::thread_init`]), run and counted too.
//! [`alloc_op`] is left on one path: a create that finds that list empty
//! grows it by one block from the host's fast-fit heap
//! ([`crate::alloc::fastfit`]), once per high-water thread.
//!
//! All formulas are in CPU cycles at the machine's configured bus cost.

use quamachine::cost::CostModel;

/// Cycles to patch one `jmp` target in code memory (read the instruction
/// word, write the new operand, plus sequencing).
#[must_use]
pub fn code_patch(cost: &CostModel) -> u64 {
    8 + 2 * cost.bus_cycles()
}

/// Cycles for one allocator operation that examined `steps` nodes (each
/// step reads a node header and a child pointer): charged for the
/// fast-fit allocation that grows the thread blocks' free list.
#[must_use]
pub fn alloc_op(cost: &CostModel, steps: u32) -> u64 {
    16 + u64::from(steps) * (4 + 2 * cost.bus_cycles())
}

/// Cycles to hash and compare a backwards-stored string of `len` bytes
/// once (the open() name lookup inner loop: load byte, rotate-add, test,
/// branch ≈ 4 instructions per character).
#[must_use]
pub fn name_scan(cost: &CostModel, len: u32) -> u64 {
    8 + u64::from(len) * (8 + cost.bus_cycles())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_is_cheap() {
        let cost = CostModel::sun3_emulation();
        let us = cost.cycles_to_us(code_patch(&cost));
        assert!(us < 2.0, "one patch = {us:.2} µs");
    }
}
