//! Machine errors and CPU exceptions.

use std::fmt;

/// A CPU exception, identified by its 68000-family vector number.
///
/// Exceptions vector through the table pointed to by the VBR; in Synthesis
/// every thread has its own vector table, so the same exception can run
/// different (synthesized) handlers in different threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exception {
    /// Vector 2 — access to unmapped memory or a protection violation.
    BusError,
    /// Vector 3 — misaligned access (only raised when strict alignment is
    /// enabled in the machine config).
    AddressError,
    /// Vector 4 — illegal instruction (e.g. executing an unfilled hole).
    IllegalInstruction,
    /// Vector 8 — privileged instruction in user mode.
    PrivilegeViolation,
    /// Vector 11 — F-line/coprocessor unavailable: a floating-point
    /// instruction executed while the FPU is disabled. The Synthesis
    /// kernel uses this trap to lazily resynthesize a thread's context
    /// switch to include the FP registers (paper Section 4.2).
    FpUnavailable,
    /// Vectors 25–31 — autovectored hardware interrupt at a level 1–7.
    Interrupt(u8),
    /// Vectors 32–47 — `TRAP #n`.
    Trap(u8),
}

impl Exception {
    /// The exception's vector number.
    #[must_use]
    pub fn vector(self) -> u32 {
        match self {
            Exception::BusError => 2,
            Exception::AddressError => 3,
            Exception::IllegalInstruction => 4,
            Exception::PrivilegeViolation => 8,
            Exception::FpUnavailable => 11,
            Exception::Interrupt(level) => 24 + u32::from(level),
            Exception::Trap(n) => 32 + u32::from(n),
        }
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::BusError => write!(f, "bus error"),
            Exception::AddressError => write!(f, "address error"),
            Exception::IllegalInstruction => write!(f, "illegal instruction"),
            Exception::PrivilegeViolation => write!(f, "privilege violation"),
            Exception::FpUnavailable => write!(f, "coprocessor unavailable"),
            Exception::Interrupt(l) => write!(f, "interrupt level {l}"),
            Exception::Trap(n) => write!(f, "trap #{n}"),
        }
    }
}

/// A fatal simulation error.
///
/// These indicate a bug in the embedding program (bad code addresses,
/// unfilled holes, a double fault with no usable vector table), not a
/// recoverable guest-visible condition — guest-visible faults become
/// [`Exception`]s and vector through the guest's handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The PC does not point into any registered code block.
    BadCodeAddress(u32),
    /// An instruction containing an unfilled hole was executed.
    UnfilledHole(u32),
    /// An unresolved branch label was executed.
    UnresolvedLabel(u32),
    /// A code block overlaps an existing block or data region.
    CodeOverlap(u32),
    /// An exception occurred while processing an exception and the vector
    /// table itself is unusable (double fault).
    DoubleFault(Exception, Exception),
    /// A patch request addressed an instruction that does not exist.
    BadPatch(u32),
    /// The machine exceeded its configured memory when loading.
    OutOfMemory(u32),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::BadCodeAddress(a) => write!(f, "pc {a:#x} is not in any code block"),
            MachineError::UnfilledHole(a) => write!(f, "unfilled hole executed at {a:#x}"),
            MachineError::UnresolvedLabel(a) => write!(f, "unresolved label executed at {a:#x}"),
            MachineError::CodeOverlap(a) => write!(f, "code block overlaps at {a:#x}"),
            MachineError::DoubleFault(e1, e2) => write!(f, "double fault: {e1} then {e2}"),
            MachineError::BadPatch(a) => write!(f, "no instruction to patch at {a:#x}"),
            MachineError::OutOfMemory(a) => write!(f, "address {a:#x} beyond configured memory"),
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_numbers_match_68000_assignments() {
        assert_eq!(Exception::BusError.vector(), 2);
        assert_eq!(Exception::FpUnavailable.vector(), 11);
        assert_eq!(Exception::Interrupt(1).vector(), 25);
        assert_eq!(Exception::Interrupt(7).vector(), 31);
        assert_eq!(Exception::Trap(0).vector(), 32);
        assert_eq!(Exception::Trap(15).vector(), 47);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Exception::Trap(3).to_string(), "trap #3");
        let e = MachineError::BadCodeAddress(0x123);
        assert!(e.to_string().contains("0x123"));
    }
}
