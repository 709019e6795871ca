//! The cycle-driven event queue that gives devices a sense of time.
//!
//! Devices schedule callbacks at absolute cycle counts ("raise my IRQ when
//! the alarm expires", "next A/D sample in `clock/44100` cycles"). The
//! machine pops due events between instructions.
//!
//! On a multiprocessor Quamachine each CPU has its own virtual clock, so
//! every event is tagged with the CPU whose timeline its `when` belongs
//! to: the CPU that was active when the event was scheduled. Each CPU
//! pops only its own events. A single-CPU machine tags everything CPU 0,
//! which degenerates to the old behavior exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled event: fire `what` on device `dev` at cycle `when` of CPU
/// `cpu`'s clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Absolute cycle count at which the event fires.
    pub when: u64,
    /// Index of the device in the machine's device table.
    pub dev: usize,
    /// Device-private event tag.
    pub what: u32,
    /// The CPU whose clock `when` is measured against (and which will
    /// deliver the event).
    pub cpu: usize,
    /// Monotonic sequence number to make ordering deterministic for
    /// simultaneous events (FIFO among equals).
    seq: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.when, self.seq).cmp(&(other.when, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-CPU min-heaps of events keyed by cycle count.
#[derive(Debug, Default)]
pub struct EventQueue {
    heaps: Vec<BinaryHeap<Reverse<Event>>>,
    next_seq: u64,
}

impl EventQueue {
    /// Create an empty queue.
    #[must_use]
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    fn heap_mut(&mut self, cpu: usize) -> &mut BinaryHeap<Reverse<Event>> {
        if self.heaps.len() <= cpu {
            self.heaps.resize_with(cpu + 1, BinaryHeap::new);
        }
        &mut self.heaps[cpu]
    }

    /// Schedule `what` for device `dev` at absolute cycle `when` on CPU
    /// 0's timeline.
    pub fn schedule(&mut self, when: u64, dev: usize, what: u32) {
        self.schedule_on(when, dev, what, 0);
    }

    /// Schedule `what` for device `dev` at absolute cycle `when` of CPU
    /// `cpu`'s clock.
    pub fn schedule_on(&mut self, when: u64, dev: usize, what: u32, cpu: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap_mut(cpu).push(Reverse(Event {
            when,
            dev,
            what,
            cpu,
            seq,
        }));
    }

    /// Pop the next CPU-0 event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<Event> {
        self.pop_due_on(now, 0)
    }

    /// Pop the next event for CPU `cpu` if it is due at or before `now`
    /// on that CPU's clock.
    pub fn pop_due_on(&mut self, now: u64, cpu: usize) -> Option<Event> {
        let heap = self.heaps.get_mut(cpu)?;
        if heap.peek().is_some_and(|Reverse(e)| e.when <= now) {
            heap.pop().map(|Reverse(e)| e)
        } else {
            None
        }
    }

    /// The cycle of the earliest event scheduled for CPU `cpu`, if any.
    #[must_use]
    pub fn next_due_for(&self, cpu: usize) -> Option<u64> {
        self.heaps.get(cpu)?.peek().map(|Reverse(e)| e.when)
    }

    /// Number of scheduled events across all CPUs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heaps.iter().all(BinaryHeap::is_empty)
    }

    /// Move every event scheduled on CPU `from`'s timeline onto CPU
    /// `to`'s, preserving each event's *remaining* delay: an event due at
    /// `when` on a clock reading `from_now` becomes due at `to_now +
    /// (when - from_now)` (already-due events fire immediately). Used
    /// when a CPU is quarantined and another must service its devices.
    /// Returns how many events moved.
    pub fn migrate_cpu(&mut self, from: usize, to: usize, from_now: u64, to_now: u64) -> usize {
        if from == to || self.heaps.len() <= from {
            return 0;
        }
        let moved: Vec<Event> = std::mem::take(&mut self.heaps[from])
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        let n = moved.len();
        for e in moved {
            let when = to_now + e.when.saturating_sub(from_now);
            self.heap_mut(to).push(Reverse(Event {
                when,
                dev: e.dev,
                what: e.what,
                cpu: to,
                seq: e.seq,
            }));
        }
        n
    }

    /// Whether CPU `cpu` has any events scheduled.
    #[must_use]
    pub fn has_events_for(&self, cpu: usize) -> bool {
        self.heaps.get(cpu).is_some_and(|h| !h.is_empty())
    }

    /// Remove all events for a device (used when resetting a device).
    pub fn cancel_device(&mut self, dev: usize) {
        for heap in &mut self.heaps {
            let keep: Vec<_> = heap.drain().filter(|Reverse(e)| e.dev != dev).collect();
            *heap = keep.into_iter().collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 0, 3);
        q.schedule(10, 1, 1);
        q.schedule(20, 2, 2);
        assert_eq!(q.pop_due(100).unwrap().what, 1);
        assert_eq!(q.pop_due(100).unwrap().what, 2);
        assert_eq!(q.pop_due(100).unwrap().what, 3);
        assert!(q.pop_due(100).is_none());
    }

    #[test]
    fn not_due_yet() {
        let mut q = EventQueue::new();
        q.schedule(50, 0, 1);
        assert!(q.pop_due(49).is_none());
        assert_eq!(q.next_due_for(0), Some(50));
        assert!(q.pop_due(50).is_some());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        q.schedule(10, 0, 1);
        q.schedule(10, 0, 2);
        q.schedule(10, 0, 3);
        assert_eq!(q.pop_due(10).unwrap().what, 1);
        assert_eq!(q.pop_due(10).unwrap().what, 2);
        assert_eq!(q.pop_due(10).unwrap().what, 3);
    }

    #[test]
    fn cancel_device_removes_only_that_device() {
        let mut q = EventQueue::new();
        q.schedule(10, 0, 1);
        q.schedule(20, 1, 2);
        q.schedule(30, 0, 3);
        q.cancel_device(0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(100).unwrap().what, 2);
    }

    #[test]
    fn events_stay_on_their_cpu() {
        let mut q = EventQueue::new();
        q.schedule_on(10, 0, 1, 0);
        q.schedule_on(10, 0, 2, 1);
        // CPU 1 sees only its own event, even when due.
        assert_eq!(q.pop_due_on(100, 1).unwrap().what, 2);
        assert!(q.pop_due_on(100, 1).is_none());
        assert_eq!(q.next_due_for(0), Some(10));
        assert_eq!(q.next_due_for(1), None);
        assert_eq!(q.pop_due_on(100, 0).unwrap().what, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn migrate_preserves_remaining_delay() {
        let mut q = EventQueue::new();
        // On CPU 1's clock (reading 100): one event 50 cycles out, one
        // already overdue.
        q.schedule_on(150, 3, 7, 1);
        q.schedule_on(90, 3, 8, 1);
        let n = q.migrate_cpu(1, 0, 100, 1000);
        assert_eq!(n, 2);
        assert!(!q.has_events_for(1));
        // Overdue fires immediately on the new clock; the other keeps
        // its 50-cycle remainder.
        let first = q.pop_due_on(1000, 0).unwrap();
        assert_eq!((first.what, first.when, first.cpu), (8, 1000, 0));
        assert!(q.pop_due_on(1049, 0).is_none());
        assert_eq!(q.pop_due_on(1050, 0).unwrap().what, 7);
    }

    #[test]
    fn cancel_device_spans_cpus() {
        let mut q = EventQueue::new();
        q.schedule_on(10, 0, 1, 0);
        q.schedule_on(10, 0, 2, 1);
        q.schedule_on(10, 1, 3, 1);
        q.cancel_device(0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due_on(100, 1).unwrap().what, 3);
    }
}
