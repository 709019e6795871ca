//! Balancing between CPUs: who is starved, who has surplus, and the one
//! way a thread changes chains.
//!
//! Each CPU's ready queue stays the uniprocessor's executable chain;
//! only *balancing* crosses CPUs, and it runs between slices with every
//! CPU parked at a safe point, so it is host-side chain surgery. The
//! invariant: **a thread changes CPUs only through
//! [`Kernel::migrate`]** — a `dequeue` from its home chain and an
//! `enqueue` on the new one, back to back — so a `Ready` thread is on
//! exactly one chain at every instant anything can look, and there is no
//! in-transit state to account for. Work stealing and
//! [`Kernel::quarantine_cpu`]'s evacuation are both calls to it.

use super::{Kernel, KernelError};
use crate::thread::Tid;
use crate::trace::Kind;

impl Kernel {
    /// Move the runnable thread `tid` from its home chain onto `to`'s.
    pub(super) fn migrate(&mut self, tid: Tid, to: usize) -> Result<(), KernelError> {
        self.dequeue(tid)?;
        self.enqueue(to, tid)
    }

    /// Let each starved CPU steal one ready thread from the CPU with the
    /// most to spare.
    pub(super) fn rebalance(&mut self) {
        if self.cpus.len() == 1 {
            return;
        }
        let healthy: Vec<usize> = self.healthy_cpus().collect();
        for &thief in &healthy {
            if !self.cpu_starved(thief) {
                continue;
            }
            // The most loaded victim, the lowest-numbered on a tie.
            let victims = healthy.iter().filter(|&&v| v != thief);
            let best = victims
                .map(|&v| (v, self.surplus_tids(v)))
                .filter(|(_, surplus)| !surplus.is_empty())
                .reduce(|best, v| if v.1.len() > best.1.len() { v } else { best });
            let Some((victim, surplus)) = best else {
                continue;
            };
            let tid = surplus[0];
            if self.migrate(tid, thief).is_err() {
                continue;
            }
            self.cpus[victim].offloads += 1;
            self.cpus[thief].steals += 1;
            crate::trace!(self, tid, Kind::Steal, thief as u32, 0);
        }
    }

    /// Whether CPU `cpu` has nothing real to run: no non-idle thread in
    /// its chain and no real thread current on it.
    pub(super) fn cpu_starved(&self, cpu: usize) -> bool {
        let idle = self.cpus[cpu].idle_tid;
        let len = self.cpus[cpu].ready.len();
        let chain_empty = len == 0 || (len == 1 && self.cpus[cpu].ready.contains(idle));
        let cur_idle = self.current_tid_on(cpu).is_none_or(|t| self.is_idle(t));
        chain_empty && cur_idle
    }

    /// Non-current, non-idle threads in `cpu`'s chain — the ones another
    /// CPU could run right now.
    fn surplus_tids(&self, cpu: usize) -> Vec<Tid> {
        let cur = self.current_tid_on(cpu);
        let nodes = self.cpus[cpu].ready.nodes();
        let ids = nodes.iter().map(|n| n.id);
        ids.filter(|&id| Some(id) != cur && !self.is_idle(id))
            .collect()
    }
}
