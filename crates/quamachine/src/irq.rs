//! The interrupt controller: seven autovectored levels, per CPU.
//!
//! Each CPU of the multiprocessor Quamachine has its own set of pending
//! lines; device interrupts route to CPU 0 (the boot CPU) by default,
//! while per-CPU sources (the quantum timer's per-CPU channels) and
//! inter-processor interrupts target an explicit CPU.

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
    /// The CPU external device interrupts route to. The boot CPU unless
    /// the embedder reroutes — e.g. when quarantining CPU 0.
    route: usize,
}

impl Default for IrqController {
    fn default() -> Self {
        IrqController::new()
    }
}

impl IrqController {
    /// Create a single-CPU controller with nothing pending.
    #[must_use]
    pub fn new() -> IrqController {
        IrqController {
            pending: vec![0],
            accepted: [0; 8],
            ipis_sent: 0,
            route: 0,
        }
    }

    /// Grow the controller to `n` CPUs' worth of pending lines.
    pub fn set_cpus(&mut self, n: usize) {
        self.pending.resize(n.max(1), 0);
    }

    /// Number of CPUs this controller serves.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.pending.len()
    }

    /// Assert an interrupt at `level` (1–7) on the device-route CPU
    /// (the boot CPU unless rerouted). Device completion interrupts go
    /// here, like a machine whose interrupt fabric points all external
    /// sources at one CPU.
    pub fn raise(&mut self, level: u8) {
        self.raise_on(self.route, level);
    }

    /// The CPU external device interrupts currently route to.
    #[must_use]
    pub fn route(&self) -> usize {
        self.route
    }

    /// Point external device interrupts at `to`, and move any pending
    /// device-completion levels (2–5) off the old route CPU so an
    /// already-asserted line is serviced by the new one.
    pub fn reroute_devices(&mut self, to: usize) {
        let to = to.min(self.pending.len().saturating_sub(1));
        let from = self.route;
        self.route = to;
        if from != to && from < self.pending.len() {
            let device_bits = 0b0001_1110; // levels 2..=5
            let moved = self.pending[from] & device_bits;
            self.pending[from] &= !device_bits;
            self.pending[to] |= moved;
        }
    }

    /// Assert an interrupt at `level` (1–7) on a specific CPU.
    pub fn raise_on(&mut self, cpu: usize, level: u8) {
        debug_assert!((1..=7).contains(&level));
        debug_assert!(cpu < self.pending.len());
        self.pending[cpu] |= 1 << (level - 1);
    }

    /// Send an inter-processor interrupt: assert `level` on `cpu` and
    /// count the send. Semantically identical to [`raise_on`]; the
    /// separate entry point exists so embedders can meter IPI traffic.
    ///
    /// [`raise_on`]: IrqController::raise_on
    pub fn send_ipi(&mut self, cpu: usize, level: u8) {
        self.ipis_sent += 1;
        self.raise_on(cpu, level);
    }

    /// Deassert an interrupt at `level` on the boot CPU without
    /// servicing it.
    pub fn clear(&mut self, level: u8) {
        self.clear_on(0, level);
    }

    /// Deassert an interrupt at `level` on a specific CPU.
    pub fn clear_on(&mut self, cpu: usize, level: u8) {
        debug_assert!((1..=7).contains(&level));
        self.pending[cpu] &= !(1 << (level - 1));
    }

    /// Whether any level is pending on the boot CPU.
    #[must_use]
    pub fn any_pending(&self) -> bool {
        self.any_pending_on(0)
    }

    /// Whether any level is pending on a specific CPU.
    #[must_use]
    pub fn any_pending_on(&self, cpu: usize) -> bool {
        self.pending[cpu] != 0
    }

    /// The highest level pending on the boot CPU, if any.
    #[must_use]
    pub fn highest_pending(&self) -> Option<u8> {
        self.highest_pending_on(0)
    }

    /// The highest level pending on a specific CPU, if any.
    #[must_use]
    pub fn highest_pending_on(&self, cpu: usize) -> Option<u8> {
        if self.pending[cpu] == 0 {
            None
        } else {
            Some(8 - self.pending[cpu].leading_zeros() as u8)
        }
    }

    /// The level the boot CPU should accept given its current mask.
    #[must_use]
    pub fn acceptable(&self, mask: u8) -> Option<u8> {
        self.acceptable_on(0, mask)
    }

    /// The level CPU `cpu` should accept given its current mask, if any.
    /// Level 7 is non-maskable (accepted even at mask 7).
    #[must_use]
    pub fn acceptable_on(&self, cpu: usize, mask: u8) -> Option<u8> {
        let h = self.highest_pending_on(cpu)?;
        if h > mask || h == 7 {
            Some(h)
        } else {
            None
        }
    }

    /// Record acceptance of `level` on the boot CPU and clear it.
    pub fn accept(&mut self, level: u8) {
        self.accept_on(0, level);
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
        let mut c = IrqController::new();
        assert_eq!(c.highest_pending(), None);
        c.raise(2);
        c.raise(5);
        assert_eq!(c.highest_pending(), Some(5));
        c.clear(5);
        assert_eq!(c.highest_pending(), Some(2));
    }

    #[test]
    fn masking() {
        let mut c = IrqController::new();
        c.raise(3);
        assert_eq!(c.acceptable(3), None, "level must exceed the mask");
        assert_eq!(c.acceptable(2), Some(3));
        // Level 7 is non-maskable.
        c.raise(7);
        assert_eq!(c.acceptable(7), Some(7));
    }

    #[test]
    fn accept_clears_and_counts() {
        let mut c = IrqController::new();
        c.raise(4);
        c.accept(4);
        assert!(!c.any_pending());
        assert_eq!(c.accepted[4], 1);
    }

    #[test]
    fn per_cpu_lines_are_independent() {
        let mut c = IrqController::new();
        c.set_cpus(3);
        c.raise_on(1, 4);
        assert!(!c.any_pending_on(0));
        assert!(c.any_pending_on(1));
        assert_eq!(c.acceptable_on(1, 0), Some(4));
        assert_eq!(c.acceptable_on(2, 0), None);
        c.accept_on(1, 4);
        assert!(!c.any_pending_on(1));
        assert_eq!(c.accepted[4], 1);
    }

    #[test]
    fn reroute_moves_pending_device_levels() {
        let mut c = IrqController::new();
        c.set_cpus(2);
        c.raise(5); // an A/D sample, pending on the route CPU (0)
        c.raise_on(0, 1); // an IPI already pending on CPU 0 stays put
        c.raise_on(0, 6); // so does CPU 0's own quantum tick
        c.reroute_devices(1);
        assert_eq!(c.route(), 1);
        assert_eq!(c.highest_pending_on(1), Some(5), "A/D line moved");
        assert!(c.any_pending_on(0), "IPI and quantum stay on CPU 0");
        assert_eq!(c.acceptable_on(0, 0), Some(6));
        // New raises land on the new route CPU.
        c.raise(4);
        assert!(c.pending[1] & 0b1000 != 0);
    }

    #[test]
    fn ipi_counts_and_raises() {
        let mut c = IrqController::new();
        c.set_cpus(2);
        c.send_ipi(1, 1);
        assert_eq!(c.ipis_sent, 1);
        assert_eq!(c.highest_pending_on(1), Some(1));
        // ACK-style clear on the target CPU only.
        c.clear_on(1, 1);
        assert!(!c.any_pending_on(1));
    }
}
