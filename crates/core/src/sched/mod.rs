//! Fine-grain scheduling (paper Section 4.4 and reference [3]).
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
//! structure being retuned at run time).
//!
//! The gauge is the only meter. The event trace
//! ([`crate::trace`]) is host-side observability: the policy never reads
//! it, so turning tracing off cannot move a quantum.

use quamachine::isa::{Instr, Operand, Size};

use crate::kernel::Kernel;
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
            samples.push((tid, g, g.saturating_sub(t.last_gauge)));
        }
        let total: u64 = samples.iter().map(|&(_, _, d)| d).sum();
        for (tid, g, delta) in samples {
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
            let old = k.threads.get(&tid).map_or(q, |t| t.quantum_us);
            if old != q {
                self.adjustments += 1;
            }
            let _ = set_quantum(k, tid, q);
            if let Some(t) = k.threads.get_mut(&tid) {
                t.last_gauge = g;
            }
        }
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
/// Fails for unknown threads.
pub fn set_quantum(
    k: &mut Kernel,
    tid: Tid,
    quantum_us: u32,
) -> Result<(), crate::kernel::KernelError> {
    let quantum_us = quantum_us.clamp(QUANTUM_MIN_US, QUANTUM_MAX_US);
    let t = k
        .threads
        .get(&tid)
        .ok_or(crate::kernel::KernelError::NoThread(tid))?;
    let base = t.sw.base;
    let qreg =
        quamachine::devices::dev_reg_addr(k.dev.timer, quamachine::devices::timer::REG_QUANTUM_US);
    // Find the `move.l #quantum,(timer_qreg)` instruction in the switch
    // code and patch its immediate.
    let block = k.m.code.block(base).expect("switch code installed");
    let idx = block.instrs.iter().position(
        |i| matches!(i, Instr::Move(Size::L, Operand::Imm(_), Operand::Abs(r)) if *r == qreg),
    );
    if let Some(idx) = idx {
        let addr = k.m.code.addr_of(base, idx).expect("in range");
        k.m.code.patch(
            addr,
            Instr::Move(Size::L, Operand::Imm(quantum_us), Operand::Abs(qreg)),
        )?;
        let c = crate::charges::code_patch(&k.m.cost);
        k.m.charge(c);
    }
    if let Some(t) = k.threads.get_mut(&tid) {
        t.quantum_us = quantum_us;
    }
    Ok(())
}
