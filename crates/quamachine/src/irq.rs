//! The interrupt controller: seven autovectored levels, per CPU.
//!
//! Each CPU of the multiprocessor Quamachine has its own set of pending
//! lines, and every operation names the CPU it acts on. Where an
//! interrupt lands is decided by the CPU its source is tagged with: a
//! device raises and clears on the CPU whose access or event it serves
//! ([`DevCtx::cpu`](crate::devices::DevCtx::cpu)), and an
//! inter-processor interrupt on its target.

/// Pending-interrupt state for the seven 68000 interrupt levels.
///
/// Devices assert a level; the CPU takes the highest pending level that
/// exceeds its interrupt mask (level 7 is non-maskable). Levels are
/// level-triggered here: a device keeps its level asserted until serviced,
/// and the acceptance clears the pending bit (modelling the interrupt
/// acknowledge cycle).
#[derive(Debug, Clone)]
pub struct IrqController {
    /// Per-CPU pending masks: bit i-1 of `pending[c]` = level i pending
    /// on CPU c.
    pending: Vec<u8>,
    /// Total interrupts accepted, per level (index 0 unused), summed
    /// across CPUs.
    pub accepted: [u64; 8],
    /// Inter-processor interrupts sent (any level, any target).
    pub ipis_sent: u64,
}

impl IrqController {
    /// A controller for `cpus` CPUs (at least one) with nothing pending.
    #[must_use]
    pub fn new(cpus: usize) -> IrqController {
        IrqController {
            pending: vec![0; cpus.max(1)],
            accepted: [0; 8],
            ipis_sent: 0,
        }
    }

    /// Assert an interrupt at `level` (1–7) on CPU `cpu`.
    pub fn raise_on(&mut self, cpu: usize, level: u8) {
        debug_assert!((1..=7).contains(&level));
        self.pending[cpu] |= 1 << (level - 1);
    }

    /// Deassert an interrupt at `level` on CPU `cpu` without servicing it.
    pub fn clear_on(&mut self, cpu: usize, level: u8) {
        debug_assert!((1..=7).contains(&level));
        self.pending[cpu] &= !(1 << (level - 1));
    }

    /// Whether `level` is pending on CPU `cpu`.
    #[must_use]
    pub fn is_pending_on(&self, cpu: usize, level: u8) -> bool {
        self.pending[cpu] & (1 << (level - 1)) != 0
    }

    /// Whether any level is pending on CPU `cpu`.
    #[must_use]
    pub fn any_pending_on(&self, cpu: usize) -> bool {
        self.pending[cpu] != 0
    }

    /// The level CPU `cpu` should accept given its current mask, if any:
    /// its highest pending level, when that exceeds the mask or is the
    /// non-maskable 7 (nothing pending reads as level 0, never accepted).
    #[must_use]
    pub fn acceptable_on(&self, cpu: usize, mask: u8) -> Option<u8> {
        let h = 8 - self.pending[cpu].leading_zeros() as u8;
        (h > mask || h == 7).then_some(h)
    }

    /// Record acceptance of `level` on CPU `cpu` and clear it.
    pub fn accept_on(&mut self, cpu: usize, level: u8) {
        self.accepted[level as usize] += 1;
        self.clear_on(cpu, level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_pending_wins() {
        let mut c = IrqController::new(1);
        assert_eq!(c.acceptable_on(0, 0), None);
        c.raise_on(0, 2);
        c.raise_on(0, 5);
        assert_eq!(c.acceptable_on(0, 0), Some(5));
        c.clear_on(0, 5);
        assert_eq!(c.acceptable_on(0, 0), Some(2));
        assert!(c.is_pending_on(0, 2) && !c.is_pending_on(0, 5));
    }

    #[test]
    fn masking() {
        let mut c = IrqController::new(1);
        c.raise_on(0, 3);
        assert_eq!(c.acceptable_on(0, 3), None, "level must exceed the mask");
        assert_eq!(c.acceptable_on(0, 2), Some(3));
        // Level 7 is non-maskable.
        c.raise_on(0, 7);
        assert_eq!(c.acceptable_on(0, 7), Some(7));
    }

    #[test]
    fn accept_clears_and_counts() {
        let mut c = IrqController::new(1);
        c.raise_on(0, 4);
        c.accept_on(0, 4);
        assert!(!c.any_pending_on(0));
        assert_eq!(c.accepted[4], 1);
    }

    #[test]
    fn per_cpu_lines_are_independent() {
        let mut c = IrqController::new(3);
        c.raise_on(1, 4);
        assert!(!c.any_pending_on(0));
        assert!(c.any_pending_on(1));
        assert_eq!(c.acceptable_on(1, 0), Some(4));
        assert_eq!(c.acceptable_on(2, 0), None);
        // A clear acts on its own CPU's line only.
        c.raise_on(0, 4);
        c.clear_on(0, 4);
        assert!(c.is_pending_on(1, 4));
        c.accept_on(1, 4);
        assert!(!c.any_pending_on(1));
        assert_eq!(c.accepted[4], 1);
    }
}
