//! Balancing between CPUs: how loaded each CPU is, and the one way a
//! thread changes chains.
//!
//! Each CPU's ready queue stays the uniprocessor's executable chain;
//! only *balancing* crosses CPUs, and it runs between slices with every
//! CPU parked at a safe point, so it is host-side chain surgery. The
//! balance is work-conserving: a CPU's *load* is the real (non-idle)
//! threads on its chain, read off the chain in O(1), and any CPU steals
//! one ready thread from the most loaded CPU whenever that one runs at
//! least two more than it does — a starved CPU is just load 0. Two
//! apart is the smallest gap a move narrows without reversing it, so
//! equal work settles at loads one apart at most and never ping-pongs.
//! The invariant: **a thread changes CPUs only through
//! [`Kernel::migrate`]** — a `dequeue` from its home chain and an
//! `enqueue` on the new one, back to back — so a `Ready` thread is on
//! exactly one chain at every instant anything can look, and there is no
//! in-transit state to account for. Work stealing and
//! [`Kernel::quarantine_cpu`]'s evacuation are both calls to it.

use std::cmp::Reverse;

use super::{Kernel, KernelError};
use crate::thread::Tid;
use crate::trace::Kind;

impl Kernel {
    /// Move the runnable thread `tid` from its home chain onto `to`'s.
    pub(super) fn migrate(&mut self, tid: Tid, to: usize) -> Result<(), KernelError> {
        self.dequeue(tid)?;
        self.enqueue(to, tid)
    }

    /// Let each healthy CPU, in order, steal one ready thread from the
    /// most loaded healthy CPU (the lowest-numbered on a tie) when that
    /// CPU's load is at least two above its own.
    pub(super) fn rebalance(&mut self) {
        if self.cpus.len() == 1 {
            return;
        }
        for thief in 0..self.cpus.len() {
            if self.cpus[thief].quarantined {
                continue;
            }
            let victim = self
                .healthy_cpus()
                .max_by_key(|&v| (self.load(v), Reverse(v)))
                .expect("the thief is healthy");
            if self.load(victim) < self.load(thief) + 2 {
                continue;
            }
            let tid = self.stealable(victim);
            if self.migrate(tid, thief).is_err() {
                continue;
            }
            self.cpus[victim].offloads += 1;
            self.cpus[thief].steals += 1;
            crate::trace!(self, tid, Kind::Steal, thief as u32, 0);
        }
    }

    /// The real threads on `cpu`'s chain. The idle thread is a member
    /// exactly when no real thread is, so the load is the chain's length
    /// or nothing.
    fn load(&self, cpu: usize) -> usize {
        let ready = &self.cpus[cpu].ready;
        if ready.contains(self.cpus[cpu].idle_tid) {
            0
        } else {
            ready.len()
        }
    }

    /// The first thread of `cpu`'s chain that is not current on it. The
    /// caller guarantees a load of at least two, so there is one.
    fn stealable(&self, cpu: usize) -> Tid {
        let ready = &self.cpus[cpu].ready;
        let head = ready.head().expect("a loaded chain has a head");
        if Some(head) == self.current_tid_on(cpu) {
            ready.next_of_id(head).expect("the head is a member")
        } else {
            head
        }
    }

    /// Whether CPU `cpu` has nothing real to run: no non-idle thread in
    /// its chain and no real thread current on it.
    pub(super) fn cpu_starved(&self, cpu: usize) -> bool {
        let cur_idle = self.current_tid_on(cpu).is_none_or(|t| self.is_idle(t));
        self.load(cpu) == 0 && cur_idle
    }
}
