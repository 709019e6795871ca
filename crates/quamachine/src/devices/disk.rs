//! The raw disk device: sector-addressed DMA with a seek/rotation model.
//!
//! The paper's machine had a 390 MB hard disk behind a raw disk device
//! server, fronted by the disk scheduler and the buffer cache (Section
//! 5.1). This device does DMA transfers after a modelled latency:
//!
//! ```text
//! latency = SEEK_BASE_US + |Δtrack| × SEEK_PER_TRACK_US
//!         + AVG_ROTATION_US + sectors × TRANSFER_PER_SECTOR_US
//! ```
//!
//! Registers:
//!
//! | offset | meaning |
//! |---|---|
//! | `0x00` `SECTOR` | first sector of the transfer |
//! | `0x04` `ADDR` | DMA memory address |
//! | `0x08` `COUNT` | sectors to transfer |
//! | `0x0C` `CMD` | 1 = read, 2 = write (starts the operation) |
//! | `0x10` `STATUS` | bit 0: busy, bit 1: done, bit 2: error (read clears done+error) |
//! | `0x14` `ERROR` | code of the last error (sticks until the next command) |
//! | `0x18` `EXTRA_DELAY` | extra µs added to the *next* command (driver backoff) |
//!
//! Failures come from the machine's [`FaultPlan`](crate::fault::FaultPlan):
//! a command may complete with `STATUS_ERR` instead of transferring
//! (transient), or touch a sector the plan poisoned permanently (sticky).
//! The completion interrupt is raised either way; the driver reads
//! `STATUS`/`ERROR` to tell success from failure, retries transient errors
//! after programming `EXTRA_DELAY`, and gives up on bad sectors.

use std::any::Any;

use crate::fault::DiskFault;

use super::{DevCtx, Device};

/// Bytes per sector.
pub const SECTOR_SIZE: u32 = 512;
/// Sectors per track (for the seek model).
pub const SECTORS_PER_TRACK: u32 = 32;

/// `SECTOR` register offset.
pub const REG_SECTOR: u32 = 0x00;
/// `ADDR` register offset.
pub const REG_ADDR: u32 = 0x04;
/// `COUNT` register offset.
pub const REG_COUNT: u32 = 0x08;
/// `CMD` register offset.
pub const REG_CMD: u32 = 0x0C;
/// `STATUS` register offset.
pub const REG_STATUS: u32 = 0x10;
/// `ERROR` register offset.
pub const REG_ERROR: u32 = 0x14;
/// `EXTRA_DELAY` register offset (µs added to the next command).
pub const REG_EXTRA_DELAY: u32 = 0x18;

/// Command: read sectors into memory.
pub const CMD_READ: u32 = 1;
/// Command: write memory to sectors.
pub const CMD_WRITE: u32 = 2;

/// Status bit: an operation is in flight.
pub const STATUS_BUSY: u32 = 1;
/// Status bit: the last operation completed (cleared by reading STATUS).
pub const STATUS_DONE: u32 = 2;
/// Status bit: the last operation failed (cleared by reading STATUS).
pub const STATUS_ERR: u32 = 4;

/// `ERROR` code: no error.
pub const ERR_NONE: u32 = 0;
/// `ERROR` code: transient failure; a retry may succeed.
pub const ERR_TRANSIENT: u32 = 1;
/// `ERROR` code: a sector in the range is permanently bad.
pub const ERR_BAD_SECTOR: u32 = 2;
/// `ERROR` code: the request ran past the end of the disk.
pub const ERR_BAD_REQUEST: u32 = 3;

/// Fixed seek overhead in microseconds.
pub const SEEK_BASE_US: u64 = 1_000;
/// Additional seek time per track moved.
pub const SEEK_PER_TRACK_US: u64 = 30;
/// Average rotational delay (half a revolution at 3600 rpm).
pub const AVG_ROTATION_US: u64 = 8_333;
/// Transfer time per sector.
pub const TRANSFER_PER_SECTOR_US: u64 = 170;

const EV_COMPLETE: u32 = 1;

/// The disk device.
pub struct Disk {
    irq_level: u8,
    data: Vec<u8>,
    head_track: u32,
    sector: u32,
    addr: u32,
    count: u32,
    busy: bool,
    done: bool,
    err: bool,
    error_code: u32,
    pending_cmd: u32,
    /// Error code the in-flight command will complete with (0 = success).
    pending_err: u32,
    /// One-shot extra latency (µs) for the next command (driver backoff).
    extra_delay_us: u32,
    /// Completed operations (host-side statistics).
    pub ops_completed: u64,
    /// Operations that completed with `STATUS_ERR`.
    pub ops_failed: u64,
    /// Total modelled latency across operations, in cycles.
    pub busy_cycles: u64,
}

impl Disk {
    /// A disk of `sectors` sectors interrupting at `irq_level`.
    #[must_use]
    pub fn new(irq_level: u8, sectors: u32) -> Disk {
        Disk {
            irq_level,
            data: vec![0; (sectors * SECTOR_SIZE) as usize],
            head_track: 0,
            sector: 0,
            addr: 0,
            count: 0,
            busy: false,
            done: false,
            err: false,
            error_code: ERR_NONE,
            pending_cmd: 0,
            pending_err: ERR_NONE,
            extra_delay_us: 0,
            ops_completed: 0,
            ops_failed: 0,
            busy_cycles: 0,
        }
    }

    /// The configured interrupt level.
    #[must_use]
    pub fn irq_level(&self) -> u8 {
        self.irq_level
    }

    /// Number of sectors.
    #[must_use]
    pub fn sectors(&self) -> u32 {
        self.data.len() as u32 / SECTOR_SIZE
    }

    /// Host: write bytes directly to the platter (image loading).
    pub fn load_image(&mut self, sector: u32, bytes: &[u8]) {
        let off = (sector * SECTOR_SIZE) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn latency_us(&self, target_sector: u32, count: u32) -> u64 {
        let target_track = target_sector / SECTORS_PER_TRACK;
        let delta = target_track.abs_diff(self.head_track);
        SEEK_BASE_US
            + u64::from(delta) * SEEK_PER_TRACK_US
            + AVG_ROTATION_US
            + u64::from(count) * TRANSFER_PER_SECTOR_US
    }
}

impl Device for Disk {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn read_reg(&mut self, off: u32, ctx: &mut DevCtx) -> u32 {
        match off {
            REG_STATUS => {
                let mut s = 0;
                if self.busy {
                    s |= STATUS_BUSY;
                }
                if self.err {
                    s |= STATUS_ERR;
                    self.err = false;
                }
                if self.done {
                    s |= STATUS_DONE;
                    self.done = false;
                    ctx.irq.clear(self.irq_level);
                }
                s
            }
            REG_ERROR => self.error_code,
            REG_SECTOR => self.sector,
            REG_ADDR => self.addr,
            REG_COUNT => self.count,
            _ => 0,
        }
    }

    fn write_reg(&mut self, off: u32, val: u32, ctx: &mut DevCtx) {
        match off {
            REG_SECTOR => self.sector = val,
            REG_ADDR => self.addr = val,
            REG_COUNT => self.count = val,
            REG_EXTRA_DELAY => self.extra_delay_us = val,
            REG_CMD if !self.busy && (val == CMD_READ || val == CMD_WRITE) => {
                let end = u64::from(self.sector) + u64::from(self.count);
                if end > u64::from(self.sectors()) {
                    // Bad request: complete immediately with an error.
                    self.done = true;
                    self.err = true;
                    self.error_code = ERR_BAD_REQUEST;
                    ctx.irq.raise(self.irq_level);
                    return;
                }
                self.busy = true;
                self.pending_cmd = val;
                self.error_code = ERR_NONE;
                self.pending_err =
                    match ctx
                        .fault
                        .disk_command(ctx.now, self.sector, self.count, val == CMD_WRITE)
                    {
                        None => ERR_NONE,
                        Some(DiskFault::Transient) => ERR_TRANSIENT,
                        Some(DiskFault::BadSector(_)) => ERR_BAD_SECTOR,
                    };
                let us = self.latency_us(self.sector, self.count)
                    + u64::from(std::mem::take(&mut self.extra_delay_us));
                let cycles = us * ctx.clock_hz / 1_000_000;
                self.busy_cycles += cycles;
                ctx.schedule_in(cycles.max(1), EV_COMPLETE);
            }
            _ => {}
        }
    }

    fn tick(&mut self, what: u32, ctx: &mut DevCtx) {
        if what != EV_COMPLETE {
            return;
        }
        if self.pending_err != ERR_NONE {
            // Failed transfer: no DMA in either direction; the head still
            // moved, and the completion interrupt still fires so the
            // driver can observe STATUS_ERR and decide to retry.
            self.error_code = std::mem::replace(&mut self.pending_err, ERR_NONE);
            self.err = true;
            self.head_track = (self.sector + self.count) / SECTORS_PER_TRACK;
            self.busy = false;
            self.done = true;
            self.ops_failed += 1;
            ctx.irq.raise(self.irq_level);
            return;
        }
        let bytes = (self.count * SECTOR_SIZE) as usize;
        let off = (self.sector * SECTOR_SIZE) as usize;
        match self.pending_cmd {
            CMD_READ => {
                let chunk = self.data[off..off + bytes].to_vec();
                ctx.mem.poke_bytes(self.addr, &chunk);
            }
            CMD_WRITE => {
                let chunk = ctx.mem.peek_bytes(self.addr, bytes as u32);
                self.data[off..off + bytes].copy_from_slice(&chunk);
            }
            _ => {}
        }
        self.head_track = (self.sector + self.count) / SECTORS_PER_TRACK;
        self.busy = false;
        self.done = true;
        self.ops_completed += 1;
        ctx.irq.raise(self.irq_level);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
