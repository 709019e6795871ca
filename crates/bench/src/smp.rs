//! SMP scaling: the mixed workload across 1, 2, and 4 CPUs.
//!
//! Where Tables 1–5 time single calls on one CPU, this driver asks the
//! multiprocessor question: boot the same kernel with more CPUs, run the
//! same mixed workload (CPU-bound counters plus `/dev/null` writers),
//! and measure each class's throughput plus the per-CPU scheduler
//! traffic — how many threads each CPU stole from another's chain or
//! had stolen from its own, and how its slice cycles split between real
//! threads and the idle thread. A spinner iteration and a `write` call
//! are unlike operations, so each class has its own count and its own
//! speedup against the same class on one CPU; no figure sums the two.
//! One CPU is the uniprocessor kernel byte for byte; the scaling points
//! only add CPUs.
//!
//! A second probe, [`cache_smp`], times the specialization cache across
//! CPUs: a cold open on CPU 0, a warm same-CPU open, and a warm open
//! from CPU 1 that promotes the cached code to the shared read-mostly
//! tier.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::monitor;
use synthesis_core::syscall::{general, traps};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;
/// Per-thread op counters live here, one longword per worker.
const UCTRS: u32 = layout::USER_BASE + 0x3_0000;

/// Counter-spinning workers in the mixed workload.
pub const SPINNERS: usize = 6;
/// `/dev/null`-writing workers in the mixed workload.
pub const WRITERS: usize = 2;
/// Virtual cycles each scaling point runs for.
pub const RUN_CYCLES: u64 = 2_000_000;

/// One CPU's scheduler figures after a scaling run.
#[derive(Debug, Clone)]
pub struct CpuFigures {
    /// The CPU.
    pub cpu: usize,
    /// Threads this CPU stole from another CPU's chain.
    pub steals: u64,
    /// Threads other CPUs stole from this CPU's chain.
    pub offloads: u64,
    /// Slice cycles spent executing (`KCpu::busy_cycles`).
    pub busy_cycles: u64,
    /// Slice cycles spent asleep in `stop` (`KCpu::idle_cycles`).
    pub idle_cycles: u64,
}

/// One class of workers' progress at a scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ClassOps {
    /// Operations the class completed, summed over its workers.
    pub ops: u64,
    /// Throughput: `ops` per virtual millisecond.
    pub per_ms: f64,
}

impl ClassOps {
    /// Throughput against the same class at `base` (the 1-CPU point).
    #[must_use]
    pub fn speedup(&self, base: &ClassOps) -> f64 {
        if base.per_ms > 0.0 {
            self.per_ms / base.per_ms
        } else {
            0.0
        }
    }
}

/// One point of the scaling table.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// CPUs in this kernel.
    pub cpus: usize,
    /// Virtual milliseconds the run covered.
    pub elapsed_ms: f64,
    /// The counter spinners: loop iterations.
    pub spins: ClassOps,
    /// The `/dev/null` writers: `write` calls.
    pub writes: ClassOps,
    /// Per-CPU scheduler figures.
    pub per_cpu: Vec<CpuFigures>,
}

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

/// A worker spinning on a memory counter: every loop iteration bumps
/// its own longword at `UCTRS + 8*i`.
fn counter_spinner(k: &mut Kernel, i: usize) -> u32 {
    let mut a = Asm::new("smp_cnt");
    let ctr = UCTRS + 8 * u32::try_from(i).unwrap();
    let top = a.here();
    a.add(L, Imm(1), Dr(0));
    a.move_(L, Dr(0), Abs(ctr));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(
        entry,
        USTACK + 0x1000 * u32::try_from(i).unwrap(),
        user_map(),
    )
    .unwrap()
}

/// A worker writing 8-byte records to `/dev/null`, bumping its counter
/// once per write.
fn null_writer(k: &mut Kernel, i: usize) -> u32 {
    let mut a = Asm::new("smp_io");
    let ctr = UCTRS + 8 * u32::try_from(i).unwrap();
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::WRITE);
    a.add(L, Imm(1), Dr(6));
    a.move_(L, Dr(6), Abs(ctr));
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.create_thread(
        entry,
        USTACK + 0x1000 * u32::try_from(i).unwrap(),
        user_map(),
    )
    .unwrap()
}

/// An `n`-CPU kernel with the mixed workload's threads started, not yet
/// run.
#[must_use]
pub fn mixed_workload(n: usize) -> Kernel {
    let mut k = Kernel::boot(KernelConfig {
        cpus: n,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");

    let mut tids = Vec::new();
    for i in 0..SPINNERS {
        tids.push(counter_spinner(&mut k, i));
    }
    for i in 0..WRITERS {
        tids.push(null_writer(&mut k, SPINNERS + i));
    }
    for &tid in &tids {
        k.start(tid).unwrap();
    }
    k
}

/// Run the mixed workload on an `n`-CPU kernel for [`RUN_CYCLES`].
#[must_use]
pub fn run_point(n: usize) -> ScalingPoint {
    let mut k = mixed_workload(n);
    let start = (0..n).map(|i| k.m.cpu_cycles(i)).max().unwrap_or(0);
    k.run(RUN_CYCLES);
    let end = (0..n).map(|i| k.m.cpu_cycles(i)).max().unwrap_or(0);
    let elapsed_ms = k.m.cost.cycles_to_us(end.saturating_sub(start)) / 1_000.0;

    let class = |workers: std::ops::Range<usize>| {
        let ops: u64 = workers
            .map(|i| u64::from(k.m.mem.peek(UCTRS + 8 * u32::try_from(i).unwrap(), L)))
            .sum();
        let per_ms = if elapsed_ms > 0.0 {
            ops as f64 / elapsed_ms
        } else {
            0.0
        };
        ClassOps { ops, per_ms }
    };
    let per_cpu = (0..n)
        .map(|i| CpuFigures {
            cpu: i,
            steals: k.cpus[i].steals,
            offloads: k.cpus[i].offloads,
            busy_cycles: k.cpus[i].busy_cycles,
            idle_cycles: k.cpus[i].idle_cycles,
        })
        .collect();
    ScalingPoint {
        cpus: n,
        elapsed_ms,
        spins: class(0..SPINNERS),
        writes: class(SPINNERS..SPINNERS + WRITERS),
        per_cpu,
    }
}

/// The scaling points to run for a `--cpus n` request: powers of two up
/// to `n`, plus `n` itself (so `--cpus 4` measures 1, 2, and 4).
#[must_use]
pub fn points_for(n: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..).map(|i| 1usize << i).take_while(|&p| p <= n).collect();
    if pts.last() != Some(&n) {
        pts.push(n);
    }
    pts
}

/// Run the whole scaling table.
#[must_use]
pub fn scaling(n: usize) -> Vec<ScalingPoint> {
    points_for(n).into_iter().map(run_point).collect()
}

/// Run the mixed workload under the seeded chaos fault plan and return
/// the kernel so the caller can snapshot
/// [`monitor::recovery_report`](synthesis_core::monitor::recovery_report).
/// A uniprocessor kernel gets the classic soak plan; a multiprocessor
/// one adds the SMP fault domain (lost/delayed/spurious IPIs, dispatch
/// stalls).
#[must_use]
pub fn chaos_run(cpus: usize, seed: u64) -> Kernel {
    use quamachine::fault::{FaultConfig, FaultPlan};
    let mut k = Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("kernel boots");
    let cfg = if cpus > 1 {
        FaultConfig::soak_smp(cpus)
    } else {
        FaultConfig::soak()
    };
    k.m.fault = FaultPlan::seeded(seed, cfg);
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let mut tids = Vec::new();
    for i in 0..SPINNERS {
        tids.push(counter_spinner(&mut k, i));
    }
    for i in 0..WRITERS {
        tids.push(null_writer(&mut k, SPINNERS + i));
    }
    for &tid in &tids {
        k.start(tid).unwrap();
    }
    k.run(RUN_CYCLES);
    k
}

/// Cross-CPU specialization-cache figures.
#[derive(Debug, Clone)]
pub struct CacheSmp {
    /// First open of the file: full synthesis pipeline (µs).
    pub cold_open_us: f64,
    /// Second open, same CPU: cache hit, pure linking (µs).
    pub warm_local_us: f64,
    /// Third open, from CPU 1: cache hit across CPUs (µs).
    pub warm_cross_us: f64,
    /// Cache hits taken on the inserting CPU.
    pub hits_local: u64,
    /// Cache hits taken from another CPU.
    pub hits_cross: u64,
    /// Bytes of cached code handed across CPUs.
    pub bytes_shared_cross: u64,
    /// Bytes in the shared read-mostly tier (entries seen by >1 CPU).
    pub shared_tier_bytes: u64,
}

/// Time a cold open, a warm same-CPU open, and a warm cross-CPU open on
/// a two-CPU kernel; report the cache's tier accounting.
#[must_use]
pub fn cache_smp() -> CacheSmp {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 2,
        ..crate::measurement_config()
    })
    .expect("kernel boots");
    let mut a = Asm::new("parked");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k
        .load_user_program(a.assemble().expect("assembles"))
        .unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/smp", 65536)
        .expect("file fits");

    let (_, cold) = monitor::measure(&mut k, |k| k.open_for(tid, "/tmp/smp").expect("cold open"));
    let (_, warm) = monitor::measure(&mut k, |k| k.open_for(tid, "/tmp/smp").expect("warm open"));
    k.m.switch_cpu(1);
    let (_, cross) = monitor::measure(&mut k, |k| {
        k.open_for(tid, "/tmp/smp").expect("cross-CPU open")
    });
    k.m.switch_cpu(0);

    let stats = &k.creator.stats;
    CacheSmp {
        cold_open_us: cold.us,
        warm_local_us: warm.us,
        warm_cross_us: cross.us,
        hits_local: stats.cache_hits_local,
        hits_cross: stats.cache_hits_cross,
        bytes_shared_cross: stats.bytes_shared_cross,
        shared_tier_bytes: k.creator.cache.shared_tier_bytes(),
    }
}

/// Render the scaling table as text: per class, its operations, their
/// rate and the speedup against the first (1-CPU) point.
#[must_use]
pub fn render(points: &[ScalingPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== SMP scaling: mixed workload ({SPINNERS} counters + {WRITERS} writers, {RUN_CYCLES} cycles) ==="
    );
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>10} {:>8} {:>8} {:>9} {:>8}   per-CPU (steals/offloads, busy%)",
        "cpus", "spins", "spins/ms", "speedup", "writes", "writes/ms", "speedup"
    );
    let Some(base) = points.first() else {
        return out;
    };
    for p in points {
        let per_cpu: Vec<String> = p
            .per_cpu
            .iter()
            .map(|c| {
                let total = c.busy_cycles + c.idle_cycles;
                let busy = if total > 0 {
                    100.0 * c.busy_cycles as f64 / total as f64
                } else {
                    0.0
                };
                format!("cpu{} {}/{} {busy:.0}%", c.cpu, c.steals, c.offloads)
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>10.1} {:>7.2}x {:>8} {:>9.1} {:>7.2}x   {}",
            p.cpus,
            p.spins.ops,
            p.spins.per_ms,
            p.spins.speedup(&base.spins),
            p.writes.ops,
            p.writes.per_ms,
            p.writes.speedup(&base.writes),
            per_cpu.join("  ")
        );
    }
    out
}
