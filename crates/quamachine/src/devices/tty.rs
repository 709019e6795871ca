//! The tty device: a character terminal with receive interrupts.
//!
//! The raw tty device server of the paper's Section 5.1 sits on top of
//! this device; its synthesized interrupt handler "simply picks up the
//! character" (Table 5: 16 µs).
//!
//! Registers (long accesses):
//!
//! | offset | read | write |
//! |---|---|---|
//! | `0x00` `DATA` | pop next input char (0 if none) | append char to output |
//! | `0x04` `STATUS` | bit 0: rx ready, bit 1: tx ready (always) | — |
//! | `0x08` `CTRL` | — | bit 0: enable rx interrupt |

use std::any::Any;
use std::collections::VecDeque;

use crate::fault::TtyRx;

use super::{DevCtx, Device};

/// `DATA` register offset.
pub const REG_DATA: u32 = 0x00;
/// `STATUS` register offset.
pub const REG_STATUS: u32 = 0x04;
/// `CTRL` register offset.
pub const REG_CTRL: u32 = 0x08;

/// Status bit: a received character is available.
pub const STATUS_RX_READY: u32 = 1;
/// Status bit: the transmitter can accept a character (always set).
pub const STATUS_TX_READY: u32 = 2;

/// Control bit: raise an interrupt when a character arrives.
pub const CTRL_RX_IRQ: u32 = 1;

const EV_ARRIVAL: u32 = 1;

/// The tty device.
pub struct Tty {
    irq_level: u8,
    input: VecDeque<u8>,
    /// Characters queued for future paced arrival (host "typing").
    staged: VecDeque<u8>,
    arrival_interval: u64,
    /// Everything the guest wrote (host-visible screen).
    pub output: Vec<u8>,
    irq_enabled: bool,
    /// Ground truth: every byte that actually entered the input FIFO,
    /// post-fault (drops excluded, duplicates doubled). Receivers that
    /// lose nothing read exactly this sequence.
    pub delivered: Vec<u8>,
}

impl Tty {
    /// A tty interrupting at `irq_level`.
    #[must_use]
    pub fn new(irq_level: u8) -> Tty {
        Tty {
            irq_level,
            input: VecDeque::new(),
            staged: VecDeque::new(),
            arrival_interval: 0,
            output: Vec::new(),
            irq_enabled: false,
            delivered: Vec::new(),
        }
    }

    /// The configured interrupt level.
    #[must_use]
    pub fn irq_level(&self) -> u8 {
        self.irq_level
    }

    /// Receive one byte through the fault plan; returns how many copies
    /// entered the FIFO (0 = dropped, 2 = duplicated).
    fn receive(&mut self, c: u8, ctx: &mut DevCtx) -> usize {
        let copies = match ctx.fault.tty_rx(ctx.now, c) {
            TtyRx::Drop => 0,
            TtyRx::Deliver => 1,
            TtyRx::Duplicate => 2,
        };
        for _ in 0..copies {
            self.input.push_back(c);
            self.delivered.push(c);
        }
        copies
    }

    /// Host: make characters available immediately, raising the interrupt
    /// for the first one if enabled (use via
    /// [`Machine::with_dev_ctx`](crate::machine::Machine::with_dev_ctx)).
    pub fn inject(&mut self, bytes: &[u8], ctx: &mut DevCtx) {
        let was_empty = self.input.is_empty();
        let mut arrived = 0;
        for &c in bytes {
            arrived += self.receive(c, ctx);
        }
        if was_empty && arrived > 0 && self.irq_enabled {
            ctx.irq.raise_on(ctx.cpu, self.irq_level);
        }
    }

    /// Host: type characters at `rate_cps` characters per second; each
    /// arrival raises the interrupt if enabled.
    pub fn type_at(&mut self, bytes: &[u8], rate_cps: u64, ctx: &mut DevCtx) {
        self.staged.extend(bytes.iter().copied());
        self.arrival_interval = ctx.cycles_per_event(rate_cps);
        ctx.schedule_in(self.arrival_interval, EV_ARRIVAL);
    }

    /// Host: take everything written to the screen so far.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// Whether input is pending.
    #[must_use]
    pub fn rx_ready(&self) -> bool {
        !self.input.is_empty()
    }
}

impl Device for Tty {
    fn name(&self) -> &'static str {
        "tty"
    }

    fn read_reg(&mut self, off: u32, ctx: &mut DevCtx) -> u32 {
        match off {
            REG_DATA => {
                let c = self.input.pop_front().map_or(0, u32::from);
                if self.input.is_empty() {
                    ctx.irq.clear_on(ctx.cpu, self.irq_level);
                } else if self.irq_enabled {
                    // More input: keep the level asserted.
                    ctx.irq.raise_on(ctx.cpu, self.irq_level);
                }
                c
            }
            REG_STATUS => {
                let mut s = STATUS_TX_READY;
                if self.rx_ready() {
                    s |= STATUS_RX_READY;
                }
                s
            }
            _ => 0,
        }
    }

    fn write_reg(&mut self, off: u32, val: u32, ctx: &mut DevCtx) {
        match off {
            REG_DATA => self.output.push(val as u8),
            REG_CTRL => {
                self.irq_enabled = val & CTRL_RX_IRQ != 0;
                if self.irq_enabled && self.rx_ready() {
                    ctx.irq.raise_on(ctx.cpu, self.irq_level);
                }
                if !self.irq_enabled {
                    ctx.irq.clear_on(ctx.cpu, self.irq_level);
                }
            }
            _ => {}
        }
    }

    fn tick(&mut self, what: u32, ctx: &mut DevCtx) {
        if what == EV_ARRIVAL {
            if let Some(c) = self.staged.pop_front() {
                if self.receive(c, ctx) > 0 && self.irq_enabled {
                    ctx.irq.raise_on(ctx.cpu, self.irq_level);
                }
            }
            if !self.staged.is_empty() {
                ctx.schedule_in(self.arrival_interval, EV_ARRIVAL);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
