//! Memory-mapped devices.
//!
//! The part of the Quamachine's I/O complement (paper Section 6.1) that
//! the paper's measurements drive: tty, two-channel 16-bit analog I/O (the
//! 44.1 kHz A/D of Section 5.4), a compact-disc-player-style sample source
//! folded into the audio device, an interval timer with microsecond
//! resolution, and `/dev/null`. The paper's machine had more devices; no
//! table measures them, so none is modelled.
//!
//! Each device occupies a 256-byte register window starting at
//! [`DEV_BASE`] + 256 × its index. Device registers are supervisor-only.

use std::any::Any;

use crate::event::EventQueue;
use crate::fault::FaultPlan;
use crate::irq::IrqController;

pub mod audio;
pub mod null;
pub mod timer;
pub mod tty;

/// Base address of the device register space.
pub const DEV_BASE: u32 = 0xFF00_0000;

/// Size of each device's register window.
pub const DEV_WINDOW: u32 = 0x100;

/// The register address of register `reg` of device `dev_index`.
#[must_use]
pub fn dev_reg_addr(dev_index: usize, reg: u32) -> u32 {
    DEV_BASE + dev_index as u32 * DEV_WINDOW + reg
}

/// Machine facilities a device may use while handling an access or event.
pub struct DevCtx<'a> {
    /// The interrupt controller (to raise/clear levels).
    pub irq: &'a mut IrqController,
    /// The event queue (to schedule future work, keyed by absolute cycle).
    pub events: &'a mut EventQueue,
    /// The machine's fault plan (devices consult it at injection points).
    pub fault: &'a mut FaultPlan,
    /// Current cycle count.
    pub now: u64,
    /// This device's index (needed to schedule events for itself).
    pub dev_index: usize,
    /// CPU clock, for converting real-time rates to cycles.
    pub clock_hz: u64,
    /// The CPU whose access (or event) this context serves — `now` is
    /// that CPU's clock, events scheduled here fire on its timeline, and
    /// the device raises and clears its level on this CPU's lines. A
    /// host call through
    /// [`Machine::with_dev_ctx`](crate::machine::Machine::with_dev_ctx)
    /// serves the active CPU.
    pub cpu: usize,
}

impl DevCtx<'_> {
    /// Schedule an event for this device `delta` cycles from now, on the
    /// accessing CPU's timeline.
    pub fn schedule_in(&mut self, delta: u64, what: u32) {
        self.events
            .schedule_on(self.now + delta, self.dev_index, what, self.cpu);
    }

    /// Cycles per event at a given real-time rate (events per second).
    #[must_use]
    pub fn cycles_per_event(&self, rate_hz: u64) -> u64 {
        (self.clock_hz / rate_hz).max(1)
    }

    /// Raise an interrupt through the fault plan: the raise may be lost.
    ///
    /// Only *self-healing* sources should route through this (e.g. the
    /// periodic quantum timer, which re-raises every period); one-shot
    /// completion interrupts use `ctx.irq.raise_on(ctx.cpu, level)`
    /// directly so a lost edge cannot wedge a waiter forever.
    pub fn raise_irq(&mut self, level: u8) {
        if self.fault.lose_irq(self.now, level) {
            return;
        }
        self.irq.raise_on(self.cpu, level);
    }
}

/// A memory-mapped device.
pub trait Device {
    /// Short device name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Called once when the device is attached, with its index assigned.
    fn attach(&mut self, _ctx: &mut DevCtx) {}

    /// Read a register at byte offset `off` within the window.
    fn read_reg(&mut self, off: u32, ctx: &mut DevCtx) -> u32;

    /// Write a register.
    fn write_reg(&mut self, off: u32, val: u32, ctx: &mut DevCtx);

    /// A previously scheduled event fired.
    fn tick(&mut self, _what: u32, _ctx: &mut DevCtx) {}

    /// Downcast support so the embedder can reach device-specific state
    /// (inject tty input, feed A/D samples, drain output...).
    fn as_any(&mut self) -> &mut dyn Any;
}
