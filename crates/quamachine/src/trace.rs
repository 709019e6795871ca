//! Measurement facilities: counters and the execution trace.
//!
//! The Quamachine "is designed and instrumented to aid systems research.
//! Measurement facilities include an instruction counter, a memory
//! reference counter, hardware program tracing, and a microsecond-
//! resolution interval timer" (paper Section 6.1). The paper's Tables 2–5
//! were computed from these (Section 6.3).

use std::collections::HashMap;

use crate::isa::Instr;

/// One trace record: an executed instruction.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: u32,
    /// The instruction executed.
    pub instr: Instr,
    /// Cycle count *before* executing it.
    pub cycle: u64,
}

/// The machine's counters and optional program trace.
#[derive(Debug)]
pub struct Meter {
    /// Instructions executed.
    pub instr_count: u64,
    /// CPU cycles elapsed (virtual time).
    pub cycles: u64,
    /// Exceptions taken (traps, interrupts, faults).
    pub exception_count: u64,
    /// Error-class faults (bus/address error, illegal instruction,
    /// privilege violation) keyed by the VBR installed when they hit — the VBR identifies the running thread, so embedders can
    /// attribute fault storms to the thread causing them.
    pub error_faults: HashMap<u32, u64>,
    /// Ring buffer of recent instructions, when tracing is on.
    ring: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    /// Whether tracing is enabled.
    pub tracing: bool,
}

impl Meter {
    /// Create a meter with a trace capacity of `cap` records (tracing
    /// starts disabled).
    #[must_use]
    pub fn new(cap: usize) -> Meter {
        Meter {
            instr_count: 0,
            cycles: 0,
            exception_count: 0,
            error_faults: HashMap::new(),
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            tracing: false,
        }
    }

    /// Record an executed instruction in the trace ring.
    pub fn record(&mut self, rec: TraceRecord) {
        if !self.tracing || self.cap == 0 {
            return;
        }
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// The trace contents, oldest first.
    #[must_use]
    pub fn trace(&self) -> Vec<TraceRecord> {
        let mut v = Vec::with_capacity(self.ring.len());
        v.extend_from_slice(&self.ring[self.head..]);
        v.extend_from_slice(&self.ring[..self.head]);
        v
    }

    /// Clear the trace ring.
    pub fn clear_trace(&mut self) {
        self.ring.clear();
        self.head = 0;
    }

    /// Take a snapshot of the counters, for interval measurements.
    #[must_use]
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            instr_count: self.instr_count,
            cycles: self.cycles,
            exception_count: self.exception_count,
        }
    }
}

/// An execution event hooked out of the executor: exception entry,
/// exception return, and VBR installs, stamped with the cycle count and
/// the VBR in effect. The VBR identifies the running
/// thread (each Synthesis thread has its own vector table), so an
/// embedder can attribute every event to a thread without the executor
/// knowing anything about threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachEvent {
    /// An interrupt was accepted at `level`.
    IrqAccept {
        /// Interrupt level (1–7).
        level: u8,
        /// VBR installed when the interrupt hit.
        vbr: u32,
        /// Cycle count at acceptance.
        cycle: u64,
        /// The CPU that accepted it.
        cpu: usize,
    },
    /// A `trap #vector` instruction vectored through the table.
    Trap {
        /// Trap vector number (the `#n` operand).
        vector: u8,
        /// VBR installed when the trap executed.
        vbr: u32,
        /// Cycle count at the trap.
        cycle: u64,
        /// The CPU that executed it.
        cpu: usize,
    },
    /// An `rte` unwound an exception frame.
    Rte {
        /// VBR installed when the `rte` executed.
        vbr: u32,
        /// Cycle count after the frame was popped.
        cycle: u64,
        /// The CPU that executed it.
        cpu: usize,
    },
    /// The VBR was written (the context-switch-in marker: `sw_in`
    /// installs the incoming thread's vector table this way).
    VbrWrite {
        /// The new VBR value.
        vbr: u32,
        /// Cycle count at the write.
        cycle: u64,
        /// The CPU that wrote it.
        cpu: usize,
    },
}

/// Upper bound on buffered hook events between drains.
pub const HOOK_LOG_CAP: usize = 1 << 16;

/// A bounded log of [`MachEvent`]s, drained by the embedder. When the
/// embedder falls behind, the oldest events are dropped (and counted in
/// [`HookLog::dropped`]) — newest records win, like the instruction
/// trace ring above.
#[derive(Debug, Default)]
pub struct HookLog {
    buf: std::collections::VecDeque<MachEvent>,
    /// Events dropped because the log filled up before a drain.
    pub dropped: u64,
}

impl HookLog {
    /// Append an event, dropping the oldest if the log is full.
    pub fn push(&mut self, ev: MachEvent) {
        if self.buf.len() == HOOK_LOG_CAP {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Take the oldest buffered event. Draining one at a time keeps the
    /// log's capacity and allocates nothing.
    pub fn pop(&mut self) -> Option<MachEvent> {
        self.buf.pop_front()
    }

    /// Buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Instructions executed at snapshot time.
    pub instr_count: u64,
    /// Cycles elapsed at snapshot time.
    pub cycles: u64,
    /// Exceptions taken at snapshot time.
    pub exception_count: u64,
}

impl MeterSnapshot {
    /// The interval between this snapshot and a later one.
    #[must_use]
    pub fn delta(&self, later: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            instr_count: later.instr_count - self.instr_count,
            cycles: later.cycles - self.cycles,
            exception_count: later.exception_count - self.exception_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord {
            pc,
            instr: Instr::Nop,
            cycle: 0,
        }
    }

    #[test]
    fn trace_disabled_records_nothing() {
        let mut m = Meter::new(4);
        m.record(rec(1));
        assert!(m.trace().is_empty());
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let mut m = Meter::new(3);
        m.tracing = true;
        for pc in 1..=5 {
            m.record(rec(pc));
        }
        let pcs: Vec<u32> = m.trace().iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![3, 4, 5]);
    }

    #[test]
    fn snapshot_delta() {
        let mut m = Meter::new(0);
        m.instr_count = 10;
        m.cycles = 100;
        let s1 = m.snapshot();
        m.instr_count = 15;
        m.cycles = 180;
        m.exception_count = 2;
        let d = s1.delta(&m.snapshot());
        assert_eq!(d.instr_count, 5);
        assert_eq!(d.cycles, 80);
        assert_eq!(d.exception_count, 2);
    }

    #[test]
    fn clear_trace_resets() {
        let mut m = Meter::new(2);
        m.tracing = true;
        m.record(rec(1));
        m.clear_trace();
        assert!(m.trace().is_empty());
        m.record(rec(2));
        assert_eq!(m.trace().len(), 1);
    }
}
