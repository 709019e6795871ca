//! The two-channel 16-bit analog I/O device.
//!
//! The paper's A/D converter generates a (single-word) interrupt 44,100
//! times per second; the Synthesis kernel's synthesized handler services
//! one in 3 µs by packing eight 32-bit words per buffered-queue element
//! (Sections 5.4, 6.1, Table 5).
//!
//! Each sample interrupt presents one 32-bit word: the two 16-bit channels
//! packed together. Samples are produced by a deterministic synthetic
//! source (a triangle wave plus an LFSR dither) so experiments are
//! reproducible without real audio hardware.
//!
//! Registers:
//!
//! | offset | meaning |
//! |---|---|
//! | `0x00` `DATA` | current A/D sample (reading acknowledges the IRQ) |
//! | `0x04` `CTRL` | bit 0: run A/D sampling; bit 1: enable interrupt |
//! | `0x08` `DAC` | write: emit one D/A output word |
//! | `0x0C` `RATE` | sample rate in Hz (default 44100) |

use std::any::Any;

use super::{DevCtx, Device};

/// `DATA` register offset.
pub const REG_DATA: u32 = 0x00;
/// `CTRL` register offset.
pub const REG_CTRL: u32 = 0x04;
/// `DAC` register offset.
pub const REG_DAC: u32 = 0x08;
/// `RATE` register offset.
pub const REG_RATE: u32 = 0x0C;

/// Control bit: sampling running.
pub const CTRL_RUN: u32 = 1;
/// Control bit: interrupts enabled.
pub const CTRL_IRQ: u32 = 2;

/// Default sample rate (compact-disc rate, as in the paper).
pub const DEFAULT_RATE_HZ: u32 = 44_100;

const EV_SAMPLE: u32 = 1;

/// The audio device.
pub struct Audio {
    irq_level: u8,
    running: bool,
    irq_enabled: bool,
    rate_hz: u32,
    sample_index: u32,
    lfsr: u32,
    current: u32,
    /// Samples generated since start.
    pub samples_generated: u64,
    /// Samples the guest failed to read before the next one arrived.
    pub overruns: u64,
    unread: bool,
    /// D/A output words written by the guest (host-visible).
    pub dac_output: Vec<u32>,
}

impl Audio {
    /// An audio device interrupting at `irq_level`.
    #[must_use]
    pub fn new(irq_level: u8) -> Audio {
        Audio {
            irq_level,
            running: false,
            irq_enabled: false,
            rate_hz: DEFAULT_RATE_HZ,
            sample_index: 0,
            lfsr: 0xACE1,
            current: 0,
            samples_generated: 0,
            overruns: 0,
            unread: false,
            dac_output: Vec::new(),
        }
    }

    /// The configured interrupt level.
    #[must_use]
    pub fn irq_level(&self) -> u8 {
        self.irq_level
    }

    /// The deterministic synthetic sample for index `i`: a 1 kHz-ish
    /// triangle on channel A, LFSR dither on channel B.
    fn synth_sample(&mut self) -> u32 {
        let i = self.sample_index;
        self.sample_index = self.sample_index.wrapping_add(1);
        // Triangle wave with period 64 samples.
        let phase = i % 64;
        let tri = if phase < 32 {
            phase * 2048
        } else {
            (63 - phase) * 2048
        };
        // 16-bit Galois LFSR for channel B.
        let bit = self.lfsr & 1;
        self.lfsr >>= 1;
        if bit != 0 {
            self.lfsr ^= 0xB400;
        }
        ((tri & 0xFFFF) << 16) | (self.lfsr & 0xFFFF)
    }
}

impl Device for Audio {
    fn name(&self) -> &'static str {
        "audio"
    }

    fn read_reg(&mut self, off: u32, ctx: &mut DevCtx) -> u32 {
        match off {
            REG_DATA => {
                self.unread = false;
                ctx.irq.clear_on(ctx.cpu, self.irq_level);
                self.current
            }
            REG_CTRL => {
                let mut v = 0;
                if self.running {
                    v |= CTRL_RUN;
                }
                if self.irq_enabled {
                    v |= CTRL_IRQ;
                }
                v
            }
            REG_RATE => self.rate_hz,
            _ => 0,
        }
    }

    fn write_reg(&mut self, off: u32, val: u32, ctx: &mut DevCtx) {
        match off {
            REG_CTRL => {
                let was_running = self.running;
                self.running = val & CTRL_RUN != 0;
                self.irq_enabled = val & CTRL_IRQ != 0;
                if self.running && !was_running {
                    let interval = ctx.cycles_per_event(u64::from(self.rate_hz));
                    ctx.schedule_in(interval, EV_SAMPLE);
                }
                if !self.irq_enabled {
                    ctx.irq.clear_on(ctx.cpu, self.irq_level);
                }
            }
            REG_DAC => self.dac_output.push(val),
            REG_RATE if val > 0 => self.rate_hz = val,
            _ => {}
        }
    }

    fn tick(&mut self, what: u32, ctx: &mut DevCtx) {
        if what != EV_SAMPLE || !self.running {
            return;
        }
        if self.unread {
            self.overruns += 1;
        }
        self.current = self.synth_sample();
        self.unread = true;
        self.samples_generated += 1;
        if self.irq_enabled {
            ctx.irq.raise_on(ctx.cpu, self.irq_level);
        }
        let interval = ctx.cycles_per_event(u64::from(self.rate_hz));
        ctx.schedule_in(interval, EV_SAMPLE);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
