//! Fine-grain scheduling (paper Section 4.4 and reference \[3\]).
//!
//! "Instead of priorities, Synthesis uses fine-grain scheduling, which
//! assigns larger or smaller quanta to threads based on a 'need to
//! execute' criterion. ... a thread's 'need to execute' is determined by
//! the rate at which I/O data flows into and out of its quaspace."
//!
//! The rate is read from the thread's **gauge** (Section 2.3), the
//! counter its own synthesized code keeps: every synthesized `read`/
//! `write` body and every fused wrapper bumps the TTE's gauge slot each
//! time a call completes, trapped or bound. Each adaptation pass takes a thread's gauge
//! delta since the last pass as its share of the window's I/O traffic
//! and sets its quantum proportionally — patching the quantum immediate
//! inside the thread's `sw_in` code in place (an executable data
//! structure being retuned at run time). That immediate is the quantum's
//! one record: [`Kernel::quantum_us`] reads it back.
//!
//! The gauge is the only meter. The event trace
//! ([`crate::trace`](mod@crate::trace)) is host-side observability: the
//! policy never reads it, so turning tracing off cannot move a quantum.

use std::collections::BTreeMap;

use quamachine::devices::{dev_reg_addr, timer};
use quamachine::isa::{Instr, Operand, Size};

use crate::kernel::{Kernel, KernelError};
use crate::thread::tte::off;
use crate::thread::Tid;

/// Quantum bounds in µs ("a typical quantum is on the order of a few
/// hundred microseconds").
pub const QUANTUM_MIN_US: u32 = 100;
/// Upper quantum bound.
pub const QUANTUM_MAX_US: u32 = 800;

/// The adaptive policy state.
#[derive(Debug, Default)]
pub struct FineGrain {
    /// Adaptation passes run.
    pub passes: u64,
    /// Quanta actually changed (code patches performed).
    pub adjustments: u64,
    /// Each sampled thread's gauge at the last pass.
    last_gauge: BTreeMap<Tid, u64>,
}

impl FineGrain {
    /// A fresh policy.
    #[must_use]
    pub fn new() -> FineGrain {
        FineGrain::default()
    }

    /// One adaptation pass: sample every thread's gauge delta since the
    /// last pass and retune quanta by each thread's share of the total.
    pub fn adapt(&mut self, k: &mut Kernel) {
        self.passes += 1;
        let mut samples: Vec<(Tid, u64, u64)> = Vec::new();
        for (&tid, t) in &k.threads {
            // The idle thread has no traffic to adapt to, and quarantined
            // threads will never run again — retuning their switch code
            // would be a wasted patch (and a confusing one for whoever
            // inspects the quarantined TTE later).
            if k.is_idle(tid) || k.is_quarantined(tid) {
                continue;
            }
            let g = u64::from(k.m.mem.peek(t.tte + off::GAUGE, Size::L));
            let last = self.last_gauge.get(&tid).copied().unwrap_or(0);
            samples.push((tid, g, g.saturating_sub(last)));
        }
        // Only the threads sampled now are kept: a thread gone since has
        // no next pass (tids are never reused).
        self.last_gauge = samples.iter().map(|&(tid, g, _)| (tid, g)).collect();
        let total: u64 = samples.iter().map(|&(_, _, d)| d).sum();
        for (tid, _, delta) in samples {
            let share = if total > 0 {
                delta as f64 / total as f64
            } else {
                0.0
            };
            // "The faster the I/O rate the faster a thread needs to run":
            // quantum scales with the thread's share of recent traffic.
            let q =
                QUANTUM_MIN_US + ((QUANTUM_MAX_US - QUANTUM_MIN_US) as f64 * share).round() as u32;
            let q = q.clamp(QUANTUM_MIN_US, QUANTUM_MAX_US);
            if k.quantum_us(tid) != Some(q) {
                self.adjustments += 1;
            }
            let _ = set_quantum(k, tid, q);
        }
    }
}

/// Where `tid`'s switch code stores its quantum — the
/// `move.l #q,(timer_qreg)` in `sw_in` — and the `q` it stores: the
/// quantum's one record.
fn quantum_store(k: &Kernel, tid: Tid) -> Result<(u32, u32), KernelError> {
    let t = k.threads.get(&tid).ok_or(KernelError::NoThread(tid))?;
    let qreg = dev_reg_addr(k.dev.timer, timer::REG_QUANTUM_US);
    let block = k.m.code.block(t.sw.base).expect("switch code installed");
    let store = |(i, ins): (usize, &Instr)| match *ins {
        Instr::Move(Size::L, Operand::Imm(q), Operand::Abs(r)) if r == qreg => Some((i, q)),
        _ => None,
    };
    let found = block.instrs.iter().enumerate().find_map(store);
    let (idx, q) = found.ok_or(KernelError::Invalid("switch code stores no quantum"))?;
    Ok((k.m.code.addr_of(t.sw.base, idx).expect("in range"), q))
}

impl Kernel {
    /// Thread `tid`'s CPU quantum in µs, read from its switch code.
    #[must_use]
    pub fn quantum_us(&self, tid: Tid) -> Option<u32> {
        quantum_store(self, tid).ok().map(|(_, q)| q)
    }
}

/// Set a thread's CPU quantum by patching the immediate inside its
/// `sw_in` code (same-size in-place patch).
///
/// The requested value is clamped to
/// [`QUANTUM_MIN_US`]`..=`[`QUANTUM_MAX_US`]: a zero quantum would make
/// the thread unschedulable and an enormous one would starve everyone
/// else, neither of which a caller can meaningfully want.
///
/// # Errors
///
/// Fails for unknown threads, and with [`KernelError::Invalid`] —
/// nothing changed — when the switch code holds no quantum store.
pub fn set_quantum(k: &mut Kernel, tid: Tid, quantum_us: u32) -> Result<(), KernelError> {
    let quantum_us = quantum_us.clamp(QUANTUM_MIN_US, QUANTUM_MAX_US);
    let (addr, _) = quantum_store(k, tid)?;
    let qreg = dev_reg_addr(k.dev.timer, timer::REG_QUANTUM_US);
    k.m.code.patch(
        addr,
        Instr::Move(Size::L, Operand::Imm(quantum_us), Operand::Abs(qreg)),
    )?;
    let c = crate::charges::code_patch(&k.m.cost);
    k.m.charge(c);
    Ok(())
}
