//! The cycle-cost model.
//!
//! The paper obtained its microsecond tables by counting "the memory
//! references and each instruction execution time" on an execution trace
//! (Section 6.3). This module assigns each instruction a cost of
//!
//! ```text
//! cycles = base(instruction) + memory_references × bus_cycles
//! bus_cycles = 3 + wait_states
//! ```
//!
//! where `base` approximates the 68020's internal execution time (decode,
//! ALU, sequencing; instruction fetch is assumed to come from the on-chip
//! cache and is folded into `base`), and each *operand* memory reference
//! costs one bus cycle group — 3 clocks on the 68020 bus, plus any
//! configured wait states. The 68020 has a 32-bit bus, so a long access is
//! a single reference.
//!
//! The model is deliberately simple (no cache misses, no head/tail overlap,
//! no dynamic bus sizing) but it is *documented and frozen*: every number
//! falls wherever its path length puts it. With the SUN 3/160 emulation
//! configuration (16 MHz, 1 wait state) the paper's `MOVEM`-based context
//! switch is ≈ 180 cycles ≈ 11 µs; Table 4's counted full switch is a few
//! µs over, because ours also acknowledges the timer, saves and restores
//! the USP, and reprograms the quantum.

use crate::isa::{Instr, Operand};

/// Bus cycles per memory reference at zero wait states (68020: 3 clocks).
pub const BUS_CYCLES_0WS: u64 = 3;

/// The cost model: clock rate plus per-reference wait states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// CPU clock in Hz (the Quamachine ran 1–50 MHz).
    pub clock_hz: u64,
    /// Extra clocks added to every memory reference.
    pub wait_states: u64,
}

impl CostModel {
    /// Full-speed Quamachine: 50 MHz, no wait states.
    ///
    /// "Normally we run the Quamachine at 50 MHz" (paper Section 6.1).
    #[must_use]
    pub fn quamachine_full_speed() -> CostModel {
        CostModel {
            clock_hz: 50_000_000,
            wait_states: 0,
        }
    }

    /// SUN 3/160 emulation: 16 MHz with one wait state (paper Section 6.1).
    #[must_use]
    pub fn sun3_emulation() -> CostModel {
        CostModel {
            clock_hz: 16_000_000,
            wait_states: 1,
        }
    }

    /// Clocks charged per memory reference.
    #[must_use]
    pub fn bus_cycles(&self) -> u64 {
        BUS_CYCLES_0WS + self.wait_states
    }

    /// Convert a cycle count to microseconds (as a float, for reporting).
    #[must_use]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * 1_000_000.0 / self.clock_hz as f64
    }

    /// Convert microseconds to cycles, rounding to nearest.
    #[must_use]
    pub fn us_to_cycles(&self, us: f64) -> u64 {
        (us * self.clock_hz as f64 / 1_000_000.0).round() as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sun3_emulation()
    }
}

/// Memory references made when *evaluating* an operand's effective address
/// (not the final data access itself): zero for everything we model —
/// displacement and index arithmetic happen internally.
#[must_use]
fn ea_calc_refs(_op: &Operand) -> u64 {
    0
}

/// Memory references made by reading a source operand's data.
#[must_use]
pub fn read_refs(op: &Operand) -> u64 {
    if op.is_memory() {
        1 + ea_calc_refs(op)
    } else {
        0
    }
}

/// Memory references made by writing a destination operand's data.
#[must_use]
pub fn write_refs(op: &Operand) -> u64 {
    if op.is_memory() {
        1 + ea_calc_refs(op)
    } else {
        0
    }
}

/// Static cost of an instruction: `(base_cycles, memory_references)`.
///
/// This is the only static charge: the fetch charges it once for every
/// instruction. A read-modify-write destination (e.g. `ADD` to memory)
/// counts one read and one write reference, both included here. The
/// executor adds only what the table cannot know:
///
/// - `Bcc`/`Dbf`: [`BRANCH_TAKEN_EXTRA`] when the branch is taken;
/// - exception processing (trap, interrupt, fault):
///   [`EXCEPTION_BASE`], [`EXCEPTION_REFS`];
/// - interrupt acknowledge: [`IACK_BASE`].
#[must_use]
pub fn instr_cost(i: &Instr) -> (u64, u64) {
    use Instr::*;
    match i {
        Move(_, s, d) => (2, read_refs(s) + write_refs(d)),
        Movem { regs, .. } => (8, u64::from(regs.count())),
        Lea(_, _) => (2, 0),
        Add(_, s, d) | Sub(_, s, d) | And(_, s, d) | Eor(_, s, d) => {
            let rmw = if d.is_memory() { 1 } else { 0 };
            (2, read_refs(s) + read_refs(d) + rmw)
        }
        Cmp(_, s, d) => (2, read_refs(s) + read_refs(d)),
        Tst(_, ea) => (2, read_refs(ea)),
        Shift(_, _, c, d) => {
            let rmw = if d.is_memory() { 2 } else { 0 };
            (4, read_refs(c) + rmw)
        }
        Bcc(_, _) => (4, 0),
        Dbf(_, _) => (4, 0),
        // A jump's effective address IS the target; nothing is read.
        Jmp(_) => (4, 0),
        Jsr(_) => (4, 1),
        Rts => (8, 1),
        Rte => (10, 2),    // Pop SR and PC.
        Trap(_) => (0, 0), // Charged as exception processing by the executor.
        Cas { .. } => (12, 2),
        Tas(_) => (10, 2),
        Link(_, _) => (4, 1),
        Unlk(_) => (4, 1),
        MoveSr { ea, .. } => (4, read_refs(ea).max(write_refs(ea)).min(1)),
        MoveUsp { .. } => (4, 0),
        MoveVbr { ea, .. } => (8, read_refs(ea)),
        Stop(_) => (8, 0),
        Nop => (2, 0),
        // 68881 coprocessor-interface costs. An 8-byte double is two
        // long references. The FMOVEM rate is calibrated so a full
        // 8-register save costs ≈ 6–7 µs at 16 MHz + 1 ws ("the
        // hundred-plus bytes of information takes about 10 microseconds
        // to save", paper Section 4.2).
        FMove { .. } => (30, 2),
        FMovem { regs, .. } => (8 + 2 * u64::from(regs.count()), 2 * u64::from(regs.count())),
        Halt => (0, 0),
        // A hypercall is free: its embedder charges only host work that
        // it has not yet turned into guest code.
        KCall(_) => (0, 0),
    }
}

/// Extra cycles when a conditional branch is taken.
pub const BRANCH_TAKEN_EXTRA: u64 = 2;

/// Base cycles of exception processing (trap, interrupt, fault): internal
/// sequencing before the handler's first instruction.
pub const EXCEPTION_BASE: u64 = 20;

/// Memory references of exception processing: push SR and PC (the 68020
/// pushes a format word too; folded into the PC push), read the vector.
pub const EXCEPTION_REFS: u64 = 3;

/// Cost of one interrupt-acknowledge sequence before exception processing.
pub const IACK_BASE: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand::*, RegList, Size};

    #[test]
    fn sun3_bus_is_four_cycles() {
        let m = CostModel::sun3_emulation();
        assert_eq!(m.bus_cycles(), 4);
        assert_eq!(CostModel::quamachine_full_speed().bus_cycles(), 3);
    }

    #[test]
    fn us_conversion_roundtrips() {
        let m = CostModel::sun3_emulation();
        assert_eq!(m.us_to_cycles(1.0), 16);
        let us = m.cycles_to_us(176);
        assert!((us - 11.0).abs() < 0.01, "176 cycles at 16 MHz = {us} µs");
    }

    #[test]
    fn register_move_is_cheap() {
        let (base, refs) = instr_cost(&Instr::Move(Size::L, Dr(0), Dr(1)));
        assert_eq!((base, refs), (2, 0));
    }

    #[test]
    fn memory_to_memory_move_counts_two_refs() {
        let (_, refs) = instr_cost(&Instr::Move(Size::L, Abs(0x10), Abs(0x20)));
        assert_eq!(refs, 2);
    }

    #[test]
    fn rmw_add_counts_two_data_refs() {
        let (_, refs) = instr_cost(&Instr::Add(Size::L, Imm(1), Abs(0x10)));
        assert_eq!(refs, 2, "read + write of the destination");
    }

    #[test]
    fn movem_refs_scale_with_register_count() {
        let (_, refs) = instr_cost(&Instr::Movem {
            to_mem: true,
            regs: RegList::ALL_BUT_SP,
            ea: Abs(0x100),
        });
        assert_eq!(refs, 15);
    }
}
