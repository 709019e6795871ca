//! Static path-cost computation: the paper's Section 6.3 methodology.
//!
//! "Using this trace, we can calculate the exact kernel call times by
//! counting the memory references and each instruction execution time."
//! For straight-line handlers we can do the counting directly on the
//! installed code.

use quamachine::cost::{instr_cost, CostModel, EXCEPTION_BASE, EXCEPTION_REFS, IACK_BASE};
use quamachine::isa::Instr;
use quamachine::machine::Machine;

/// Sum the static cost of an installed block's instructions, skipping
/// any in `skip` (instruction indices), in µs.
#[must_use]
pub fn block_us(m: &Machine, base: u32, skip: &[usize]) -> f64 {
    let cost = m.cost;
    let block = m.code.block(base).expect("block installed");
    let mut cycles = 0u64;
    for (i, ins) in block.instrs.iter().enumerate() {
        if skip.contains(&i) {
            continue;
        }
        let (b, r) = instr_cost(ins);
        cycles += b + r * cost.bus_cycles();
    }
    cost.cycles_to_us(cycles)
}

/// The cost of interrupt acceptance (acknowledge + exception processing),
/// in µs.
#[must_use]
pub fn irq_entry_us(cost: &CostModel) -> f64 {
    cost.cycles_to_us(IACK_BASE + EXCEPTION_BASE + EXCEPTION_REFS * cost.bus_cycles())
}

/// Indices of `kcall`-related instructions in a block (the wake-check
/// branches that do not execute on the fast path).
#[must_use]
pub fn kcall_indices(m: &Machine, base: u32) -> Vec<usize> {
    let block = m.code.block(base).expect("block installed");
    block
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::KCall(_)))
        .map(|(i, _)| i)
        .collect()
}
