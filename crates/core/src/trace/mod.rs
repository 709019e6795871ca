//! Kernel-wide event tracing: lock-free per-thread ring buffers of
//! fixed-size binary records.
//!
//! The paper's kernel monitor "records in memory the instructions
//! executed by the current thread" (Section 6.3); this module applies
//! the same idea one level up, to kernel *events*: context switches,
//! syscall entry/exit, interrupts, queue put/get, specialization-cache
//! hit/miss, and fault-recovery actions. Code-Isolation style, each
//! thread's events go only into that thread's ring — the simulated
//! threads are time-multiplexed on the host, so the single writer per
//! ring holds by construction and no locking is ever needed.
//!
//! Recording is always compiled in — like the Quamachine's own
//! measurement hardware, there is no second kernel without it — and
//! [`TraceSet::enabled`] is the one switch. Tracing never charges *guest*
//! cycles and no kernel decision reads it: a [`TraceSet`] records and
//! counts nothing the kernel keeps elsewhere (the scheduler's I/O rate is
//! the TTE gauge, a CPU's steals are `KCpu::steals`). That is what keeps
//! every guest-time measurement, and every quantum, identical with the
//! switch on and off.
//!
//! Rings are owned by the kernel and keyed by thread id, **not** stored
//! in the `Thread`: a reaped thread's ring stays drainable after the
//! thread is destroyed, which is exactly when a post-mortem wants it,
//! and goes once a drain has emptied it.

pub mod query;
pub mod record;
pub mod ring;

pub use query::TraceQuery;
pub use record::{
    Kind, TraceRecord, QCLASS_PIPE, QCLASS_TTY, RECORD_BYTES, REC_QUARANTINE, REC_REAP,
};
pub use ring::Ring;

use std::collections::{BTreeMap, BTreeSet};

use crate::thread::Tid;

/// Default per-thread ring capacity in records (24 KB per thread).
pub const DEFAULT_RING_RECORDS: usize = 1024;

/// An open exception frame, tracked per thread so `rte` events can be
/// matched back to the trap that opened them: `Some((vector, cycle))`
/// for a trap frame, `None` for an interrupt frame.
type Frame = Option<(u8, u64)>;

/// Bound on tracked frames per thread (drift from host-fabricated
/// frames stays bounded).
const FRAME_DEPTH: usize = 64;

/// The kernel's trace rings, one per thread.
#[derive(Debug)]
pub struct TraceSet {
    rings: BTreeMap<Tid, Ring>,
    /// Destroyed threads whose rings still hold records for a drain.
    dead: BTreeSet<Tid>,
    frames: BTreeMap<Tid, Vec<Frame>>,
    cap: usize,
    /// The one tracing switch: when false, [`TraceSet::push`] drops
    /// everything and no exception frames are tracked. Lets one binary
    /// compare traced and untraced runs of the same workload.
    pub enabled: bool,
    /// Machine hook events dropped before the kernel drained them
    /// (mirrors the hook log's counter at the last pump).
    pub dropped: u64,
}

impl TraceSet {
    /// A trace set whose rings hold `cap` records each.
    #[must_use]
    pub fn new(cap: usize) -> TraceSet {
        TraceSet {
            rings: BTreeMap::new(),
            dead: BTreeSet::new(),
            frames: BTreeMap::new(),
            cap,
            enabled: true,
            dropped: 0,
        }
    }

    /// Record one event against `tid` at `cycle`, on `cpu` (stamped into
    /// the record's `flags`; always 0 on a uniprocessor).
    pub fn push(&mut self, tid: Tid, cpu: u16, cycle: u64, kind: Kind, a: u32, b: u32) {
        if !self.enabled {
            return;
        }
        let cap = self.cap;
        self.rings
            .entry(tid)
            .or_insert_with(|| Ring::new(cap))
            .push(TraceRecord {
                cycle,
                tid,
                kind,
                flags: cpu,
                a,
                b,
            });
    }

    /// Track an opened exception frame for `tid` (trap: `Some((vector,
    /// cycle))`; interrupt: `None`).
    pub(crate) fn push_frame(&mut self, tid: Tid, frame: Frame) {
        if !self.enabled {
            return;
        }
        let stack = self.frames.entry(tid).or_default();
        if stack.len() < FRAME_DEPTH {
            stack.push(frame);
        }
    }

    /// Pop `tid`'s most recent exception frame, if any.
    pub(crate) fn pop_frame(&mut self, tid: Tid) -> Option<Frame> {
        if !self.enabled {
            return None;
        }
        self.frames.get_mut(&tid).and_then(Vec::pop)
    }

    /// Forget the destroyed thread `tid`: its open exception frames (no
    /// `rte` of its will ever match them) go now, its ring once a drain
    /// has emptied it.
    pub(crate) fn forget(&mut self, tid: Tid) {
        self.frames.remove(&tid);
        if self.rings.get(&tid).is_some_and(|r| !r.is_empty()) {
            self.dead.insert(tid);
        } else {
            self.rings.remove(&tid);
        }
    }

    /// Threads with a tracked exception-frame stack: live threads that
    /// took a trap or interrupt while tracing was enabled.
    pub fn frame_tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.frames.keys().copied()
    }

    /// Threads that have a ring (including destroyed threads whose ring
    /// no drain has emptied yet).
    #[must_use]
    pub fn tids(&self) -> Vec<Tid> {
        self.rings.keys().copied().collect()
    }

    /// Copy `tid`'s ring, oldest record first.
    #[must_use]
    pub fn snapshot(&self, tid: Tid) -> Vec<TraceRecord> {
        self.rings.get(&tid).map(Ring::snapshot).unwrap_or_default()
    }

    /// The last `n` records of `tid`'s ring, oldest of those first.
    #[must_use]
    pub fn last(&self, tid: Tid, n: usize) -> Vec<TraceRecord> {
        let mut v = self.snapshot(tid);
        if v.len() > n {
            v.drain(..v.len() - n);
        }
        v
    }

    /// Take `tid`'s ring contents, oldest first; a destroyed thread's
    /// ring goes with them.
    pub fn drain(&mut self, tid: Tid) -> Vec<TraceRecord> {
        let recs = self.rings.get_mut(&tid).map(Ring::drain);
        if self.dead.remove(&tid) {
            self.rings.remove(&tid);
        }
        recs.unwrap_or_default()
    }

    /// Copy every ring, merged by cycle (ties keep thread order).
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<TraceRecord> {
        let mut v: Vec<TraceRecord> = self.rings.values().flat_map(Ring::snapshot).collect();
        v.sort_by_key(|r| r.cycle);
        v
    }

    /// Take every ring's contents, merged by cycle; destroyed threads'
    /// rings go with them.
    pub fn drain_all(&mut self) -> Vec<TraceRecord> {
        let mut v: Vec<TraceRecord> = self.rings.values_mut().flat_map(Ring::drain).collect();
        for tid in std::mem::take(&mut self.dead) {
            self.rings.remove(&tid);
        }
        v.sort_by_key(|r| r.cycle);
        v
    }

    /// Total records currently held across all rings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings.values().map(Ring::len).sum()
    }

    /// Whether every ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.values().all(Ring::is_empty)
    }

    /// Drop all records and frames.
    pub fn clear(&mut self) {
        self.rings.clear();
        self.dead.clear();
        self.frames.clear();
    }
}

/// Record one trace event: `trace!(kernel, tid, kind, a, b)`, stamped
/// with the kernel's cycle count and active CPU.
#[macro_export]
macro_rules! trace {
    ($k:expr, $tid:expr, $kind:expr, $a:expr, $b:expr) => {{
        let (cpu, cycle) = ($k.m.active_cpu() as u16, $k.m.meter.cycles);
        $k.trace.push($tid, cpu, cycle, $kind, $a, $b);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(ts: &mut TraceSet, tid: Tid, n: u64) {
        for i in 0..n {
            ts.push(tid, 0, i, Kind::CtxSwitch, 0, 0);
        }
    }

    #[test]
    fn rings_wrap_keeping_newest() {
        let mut ts = TraceSet::new(4);
        push_n(&mut ts, 1, 10);
        let recs = ts.snapshot(1);
        assert_eq!(recs.len(), 4);
        let cycles: Vec<u64> = recs.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_set_records_nothing() {
        let mut ts = TraceSet::new(4);
        ts.enabled = false;
        push_n(&mut ts, 1, 3);
        assert!(ts.is_empty());
    }

    #[test]
    fn frame_stacks_die_with_their_thread_and_rings_do_not() {
        let mut ts = TraceSet::new(4);
        ts.push(1, 0, 10, Kind::SyscallEnter, 3, 0);
        ts.push_frame(1, Some((3, 10)));
        ts.push_frame(2, None);
        assert_eq!(ts.frame_tids().collect::<Vec<_>>(), vec![1, 2]);
        ts.forget(1);
        assert_eq!(ts.frame_tids().collect::<Vec<_>>(), vec![2]);
        assert_eq!(ts.pop_frame(1), None, "a dead thread's rte matches nothing");
        assert_eq!(ts.snapshot(1).len(), 1, "the ring outlives the thread");
        assert_eq!(ts.drain(1).len(), 1, "a post-mortem drain sees it all");
        assert!(ts.tids().is_empty(), "the emptied ring goes");
        ts.push(3, 0, 11, Kind::CtxSwitch, 0, 0);
        ts.forget(3);
        ts.forget(4);
        assert_eq!(ts.tids(), vec![3], "a thread without records gets no ring");
        assert_eq!(ts.drain_all().len(), 1);
        assert!(ts.tids().is_empty());

        // Disabled, frames are neither tracked nor matched.
        ts.enabled = false;
        ts.push_frame(3, None);
        assert_eq!(ts.pop_frame(2), None);
        assert_eq!(ts.frame_tids().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn drain_all_merges_by_cycle() {
        let mut ts = TraceSet::new(8);
        ts.push(1, 0, 5, Kind::CtxSwitch, 0, 0);
        ts.push(2, 0, 3, Kind::CtxSwitch, 0, 0);
        ts.push(1, 0, 9, Kind::CtxSwitch, 0, 0);
        let all = ts.drain_all();
        let cycles: Vec<u64> = all.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 5, 9]);
        assert!(ts.is_empty());
    }
}
