//! Fixed-size binary trace records.
//!
//! Every kernel event is one 24-byte record — small enough that a
//! per-thread ring of a thousand records costs 24 KB, fixed-size so a
//! ring is plain storage with no allocation on the record path, and
//! binary (little-endian via [`TraceRecord::to_bytes`]) so rings can be
//! shipped out of a dump verbatim.

use crate::thread::Tid;

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum Kind {
    /// The thread was dispatched: its vector table was installed by
    /// `sw_in` (`a` = 0) or the kernel entered it host-side (`a` = 1).
    CtxSwitch = 1,
    /// Syscall entry: a `trap` vectored through the thread's table
    /// (`a` = trap vector).
    SyscallEnter = 2,
    /// Syscall exit: the matching `rte` (`a` = trap vector, `b` =
    /// enter→exit cycles, saturated to 32 bits).
    SyscallExit = 3,
    /// An interrupt was accepted while the thread was running
    /// (`a` = level).
    Irq = 4,
    /// Something entered a kernel queue (`a` = queue class `QCLASS_*`,
    /// `b` = detail: pipe id, sector, ...).
    QueuePut = 5,
    /// Something left a kernel queue (`a`/`b` as for [`Kind::QueuePut`]).
    QueueGet = 6,
    /// Channel synthesis hit the specialization cache (`a` = code base).
    CacheHit = 7,
    /// Channel synthesis missed the cache and ran the full pipeline
    /// (`a` = code base).
    CacheMiss = 8,
    /// A cached endpoint reference was destroyed (`a` = code base,
    /// `b` = 1 when the last reference evicted the code).
    Destroy = 9,
    /// Fault-recovery action (`a` = `REC_*` sub-code).
    Recovery = 10,
    /// Work stealing moved the thread to another CPU's ready chain
    /// (`a` = the stealing CPU). Only emitted on multiprocessor runs.
    Steal = 11,
    /// A reschedule IPI went missing (`a` = target CPU, `b` = 0) or was
    /// delayed in flight (`b` = delay in target-CPU cycles). Attributed
    /// to the target CPU's idle thread. Only emitted on multiprocessor
    /// runs with an active fault plan.
    IpiLost = 12,
    /// A CPU's clock jumped on dispatch without executing anything
    /// (`a` = the CPU, `b` = cycles lost, saturated to 32 bits).
    CpuStall = 13,
    /// The cross-CPU watchdog quarantined a CPU (`a` = the CPU, `b` =
    /// threads evacuated off its ready chain).
    CpuQuarantine = 14,
    /// A quarantined CPU was re-admitted after probation (`a` = the CPU,
    /// `b` = its strike count).
    CpuResume = 15,
}

impl Kind {
    /// Decode a kind from its wire value.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<Kind> {
        match v {
            1 => Some(Kind::CtxSwitch),
            2 => Some(Kind::SyscallEnter),
            3 => Some(Kind::SyscallExit),
            4 => Some(Kind::Irq),
            5 => Some(Kind::QueuePut),
            6 => Some(Kind::QueueGet),
            7 => Some(Kind::CacheHit),
            8 => Some(Kind::CacheMiss),
            9 => Some(Kind::Destroy),
            10 => Some(Kind::Recovery),
            11 => Some(Kind::Steal),
            12 => Some(Kind::IpiLost),
            13 => Some(Kind::CpuStall),
            14 => Some(Kind::CpuQuarantine),
            15 => Some(Kind::CpuResume),
            _ => None,
        }
    }
}

/// Queue class for [`Kind::QueuePut`]/[`Kind::QueueGet`]: a kernel pipe
/// ring. (Class 1 is retired; recorded traces keep these numbers.)
pub const QCLASS_PIPE: u32 = 2;
/// Queue class: the tty input queue.
pub const QCLASS_TTY: u32 = 3;

/// Recovery sub-code ([`TraceRecord::a`] on [`Kind::Recovery`]): a
/// thread was reaped after a guest-attributable machine error.
pub const REC_REAP: u32 = 1;
/// Recovery sub-code: a thread was quarantined.
pub const REC_QUARANTINE: u32 = 2;

/// Serialized record size in bytes.
pub const RECORD_BYTES: usize = 24;

/// One fixed-size binary trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct TraceRecord {
    /// Machine cycle count when the event was recorded (virtual time).
    pub cycle: u64,
    /// The thread the event belongs to.
    pub tid: Tid,
    /// Event kind.
    pub kind: Kind,
    /// The CPU the event was recorded on. Uniprocessor kernels always
    /// write 0 here — the field was formerly reserved-zero, so the
    /// single-CPU record bytes are unchanged.
    pub flags: u16,
    /// First kind-specific operand (see [`Kind`]).
    pub a: u32,
    /// Second kind-specific operand.
    pub b: u32,
}

impl TraceRecord {
    /// Serialize to the 24-byte little-endian wire format.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.cycle.to_le_bytes());
        out[8..12].copy_from_slice(&self.tid.to_le_bytes());
        out[12..14].copy_from_slice(&(self.kind as u16).to_le_bytes());
        out[14..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..20].copy_from_slice(&self.a.to_le_bytes());
        out[20..24].copy_from_slice(&self.b.to_le_bytes());
        out
    }

    /// Deserialize from the wire format; `None` on an unknown kind.
    #[must_use]
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> Option<TraceRecord> {
        let kind = Kind::from_u16(u16::from_le_bytes([b[12], b[13]]))?;
        Some(TraceRecord {
            cycle: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            tid: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            kind,
            flags: u16::from_le_bytes([b[14], b[15]]),
            a: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            b: u32::from_le_bytes(b[20..24].try_into().unwrap()),
        })
    }
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>12}] tid {:>2} {:<12} a={:#x} b={:#x}",
            self.cycle,
            self.tid,
            format!("{:?}", self.kind),
            self.a,
            self.b
        )
    }
}
