//! The interval timer: a microsecond clock, a one-shot alarm, and the
//! periodic quantum timer that drives preemptive scheduling.
//!
//! The Quamachine had "a microsecond-resolution interval timer" (Section
//! 6.1). The Synthesis dispatcher runs off this device: when a thread's
//! time quantum expires, "the interrupt is vectored to thread-0's
//! context-switch-out procedure" (Section 4.2). Table 5 times `set alarm`
//! (9 µs) and the alarm interrupt (7 µs).
//!
//! Registers:
//!
//! | offset | meaning |
//! |---|---|
//! | `0x00` `NOW_US` | current time in µs (32-bit, wraps) |
//! | `0x04` `ALARM_US` | write: one-shot alarm this many µs from now (0 cancels) |
//! | `0x08` `QUANTUM_US` | write: periodic interrupt every this many µs (0 stops) |
//! | `0x0C` `ACK` | write: acknowledge (clear) the timer interrupt |

use std::any::Any;

use super::{DevCtx, Device};

/// `NOW_US` register offset.
pub const REG_NOW_US: u32 = 0x00;
/// `ALARM_US` register offset.
pub const REG_ALARM_US: u32 = 0x04;
/// `QUANTUM_US` register offset.
pub const REG_QUANTUM_US: u32 = 0x08;
/// `ACK` register offset.
pub const REG_ACK: u32 = 0x0C;

const EV_ALARM: u32 = 1;
const EV_QUANTUM: u32 = 2;

/// The timer device.
///
/// The quantum channel is *per CPU*: the registers sit at fixed
/// addresses, but each CPU that touches them talks to its own countdown
/// (like a local APIC timer), so the synthesized context-switch code —
/// which has the register addresses burned in — works unchanged on
/// whichever CPU a thread happens to run on. The quantum interrupt fires
/// on the CPU that armed it; the ACK clears the acking CPU's line.
pub struct Timer {
    irq_level: u8,
    /// Per-CPU quantum periods (index = CPU; grown on first touch).
    quantum_us: Vec<u32>,
    /// Generation counters so stale scheduled events are ignored after a
    /// cancel/re-arm. The quantum generations are per CPU, like the
    /// channel itself.
    alarm_gen: u32,
    quantum_gen: Vec<u32>,
    /// Quantum interrupts delivered (all CPUs).
    pub quantum_fires: u64,
}

impl Timer {
    /// A timer interrupting at `irq_level`.
    #[must_use]
    pub fn new(irq_level: u8) -> Timer {
        Timer {
            irq_level,
            quantum_us: vec![0],
            alarm_gen: 0,
            quantum_gen: vec![0],
            quantum_fires: 0,
        }
    }

    /// The configured interrupt level.
    #[must_use]
    pub fn irq_level(&self) -> u8 {
        self.irq_level
    }

    fn us_to_cycles(us: u32, ctx: &DevCtx) -> u64 {
        (u64::from(us) * ctx.clock_hz / 1_000_000).max(1)
    }

    /// The accessing CPU's quantum lane, grown on demand.
    fn lane(&mut self, cpu: usize) -> usize {
        if self.quantum_us.len() <= cpu {
            self.quantum_us.resize(cpu + 1, 0);
            self.quantum_gen.resize(cpu + 1, 0);
        }
        cpu
    }
}

impl Device for Timer {
    fn name(&self) -> &'static str {
        "timer"
    }

    fn read_reg(&mut self, off: u32, ctx: &mut DevCtx) -> u32 {
        match off {
            REG_NOW_US => (ctx.now * 1_000_000 / ctx.clock_hz) as u32,
            REG_QUANTUM_US => {
                let lane = self.lane(ctx.cpu);
                self.quantum_us[lane]
            }
            _ => 0,
        }
    }

    fn write_reg(&mut self, off: u32, val: u32, ctx: &mut DevCtx) {
        match off {
            REG_ALARM_US => {
                self.alarm_gen = self.alarm_gen.wrapping_add(1);
                if val > 0 {
                    let delta = Timer::us_to_cycles(val, ctx);
                    let delta = ctx.fault.timer_period(ctx.now, delta);
                    // Tag the event with the generation so a cancel or
                    // re-arm invalidates it.
                    ctx.schedule_in(delta, EV_ALARM | (self.alarm_gen << 8));
                }
            }
            REG_QUANTUM_US => {
                let lane = self.lane(ctx.cpu);
                self.quantum_gen[lane] = self.quantum_gen[lane].wrapping_add(1);
                self.quantum_us[lane] = val;
                if val > 0 {
                    let delta = Timer::us_to_cycles(val, ctx);
                    let delta = ctx.fault.timer_period(ctx.now, delta);
                    ctx.schedule_in(delta, EV_QUANTUM | (self.quantum_gen[lane] << 8));
                }
            }
            REG_ACK => ctx.irq.clear_on(ctx.cpu, self.irq_level),
            _ => {}
        }
    }

    fn tick(&mut self, what: u32, ctx: &mut DevCtx) {
        let kind = what & 0xFF;
        let gen = what >> 8;
        match kind {
            EV_ALARM if gen == self.alarm_gen => {
                ctx.irq.raise_on(ctx.cpu, self.irq_level);
            }
            // Quantum events are scheduled on the arming CPU's timeline
            // and therefore tick with `ctx.cpu` = that CPU, so the lane
            // needs no encoding in `what`.
            EV_QUANTUM => {
                let lane = self.lane(ctx.cpu);
                if gen != self.quantum_gen[lane] {
                    return;
                }
                self.quantum_fires += 1;
                // Periodic and therefore self-healing: a lost raise is
                // made up for by the next period's, so this raise is
                // fault-eligible.
                ctx.raise_irq(self.irq_level);
                if self.quantum_us[lane] > 0 {
                    let delta = Timer::us_to_cycles(self.quantum_us[lane], ctx);
                    let delta = ctx.fault.timer_period(ctx.now, delta);
                    ctx.schedule_in(delta, EV_QUANTUM | (self.quantum_gen[lane] << 8));
                }
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
