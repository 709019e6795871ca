//! `smp_mix`: 4 guest CPUs, 6 counter spinners + 2 `/dev/null` writers,
//! each with a fixed iteration count, run until all exit.
//!
//! Every thread starts on CPU 0's ready chain, so the other CPUs get
//! their work by stealing: the `run_smp` rotation, steal and offload,
//! and the per-CPU chains are all on the path. The simulation runs in
//! one host thread, so it is deterministic.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};

use crate::harness::{config, emit_native_exit, run_until_all_exit, Ctx, EndState, Rep, Watch};

pub const CPUS: usize = 4;
pub const SPINNERS: usize = 6;
pub const WRITERS: usize = 2;
/// Timed iterations of each spinner, before the per-seed jitter.
pub const BASE_SPIN_ITERS: u64 = 400_000;
/// Timed iterations of each writer: a write costs about eight spins.
pub const BASE_WRITE_ITERS: u64 = 48_000;
/// Warm-up iterations per timed iteration.
pub const WARM_DIV: u64 = 8;

const WORKERS: usize = SPINNERS + WRITERS;
const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;
/// Per-worker progress counters, one longword per worker.
const UCTRS: u32 = layout::USER_BASE + 0x3_0000;
/// Per-worker iteration counts, read by each thread when it starts.
const UCNTS: u32 = layout::USER_BASE + 0x3_0100;

/// Timed iterations of each worker for this seed. The balance of the
/// mix is chaotic at the 1 % level (one thread stolen a quantum earlier or
/// later moves the tail), so the seed only nudges it: up to 255 extra
/// iterations for the first spinner.
pub fn timed_iters(seed: u64) -> Vec<u64> {
    let extra = crate::stats::SplitMix64(seed ^ 0x30).below(256);
    (0..WORKERS)
        .map(|i| match i {
            0 => BASE_SPIN_ITERS + extra,
            i if i < SPINNERS => BASE_SPIN_ITERS,
            _ => BASE_WRITE_ITERS,
        })
        .collect()
}

/// Trace rings that hold a whole timed section: the run is not sliced
/// (see [`run_until_all_exit`]), so a traced repetition cannot drain them
/// on the way. Rings only allocate when tracing is on.
fn mix_config(cpus: usize) -> KernelConfig {
    KernelConfig {
        trace_records: 1 << 17,
        ..config(cpus)
    }
}

/// Worker `i`: bump the counter at `UCTRS + 4i`, `UCNTS[i]` times; the
/// writers also write 8 bytes to `/dev/null` per iteration.
fn worker(i: usize) -> Asm {
    let (ctr, cnt) = (UCTRS + 4 * i as u32, UCNTS + 4 * i as u32);
    let writer = i >= SPINNERS;
    let mut a = Asm::new(if writer { "smp_io" } else { "smp_cnt" });
    if writer {
        a.move_i(L, general::OPEN, Dr(0));
        a.lea(Abs(UPATH), 0);
        a.trap(traps::GENERAL);
        a.move_(L, Dr(0), Dr(5));
    }
    a.move_(L, Abs(cnt), Dr(7));
    a.move_i(L, 0, Dr(6));
    let top = a.here();
    if writer {
        a.move_(L, Dr(5), Dr(0));
        a.lea(Abs(UBUF), 0);
        a.move_i(L, 8, Dr(1));
        a.trap(traps::WRITE);
    }
    a.add(L, Imm(1), Dr(6));
    a.move_(L, Dr(6), Abs(ctr));
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    emit_native_exit(&mut a);
    a
}

/// One repetition on `cpus` CPUs (4 for the workload; 1 for the
/// speedup reference).
pub fn rep_on(ctx: &mut Ctx, cpus: usize) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let timed = timed_iters(ctx.seed);
    let warm: Vec<u64> = timed.iter().map(|n| n.div_ceil(WARM_DIV)).collect();

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("assemble");
    let mut blocks = Vec::new();
    for i in 0..WORKERS {
        blocks.push(worker(i).assemble().map_err(|e| format!("{e:?}"))?);
    }
    ctx.tr.end(s);
    let s = ctx.tr.begin("boot");
    let mut k = Kernel::boot(mix_config(cpus)).map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("load");
    let mut entries = Vec::new();
    for b in blocks {
        entries.push(k.load_user_program(b).map_err(|e| e.to_string())?);
    }
    ctx.tr.end(s);
    let s = ctx.tr.begin("populate");
    // Both batches exit before the oracle runs: the heap level to return
    // to is the one before either was created.
    let heap_before = k.heap.in_use;
    k.m.mem.poke_bytes(UPATH, b"/dev/null\0");
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    // Two batches of threads over the same code: the warm-up batch and
    // the timed batch.
    let mut batches: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for (b, batch) in batches.iter_mut().enumerate() {
        for (i, &entry) in entries.iter().enumerate() {
            let sp = USTACK + 0x1000 * (b * WORKERS + i) as u32;
            batch.push(
                k.create_thread(entry, sp, map.clone())
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    for (i, n) in warm.iter().enumerate() {
        k.m.mem.poke(UCNTS + 4 * i as u32, L, *n as u32);
    }
    for &tid in &batches[0] {
        k.start(tid).map_err(|e| e.to_string())?;
    }
    run_until_all_exit(&mut k, &batches[0], None)?;
    ctx.tr.end(s);
    for (i, n) in timed.iter().enumerate() {
        k.m.mem.poke(UCNTS + 4 * i as u32, L, *n as u32);
        k.m.mem.poke(UCTRS + 4 * i as u32, L, 0);
    }
    rep.trace.reset(&mut k);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = timed.iter().sum();
    let sched_before = EndState::read(&k, heap_before);
    let traced = ctx.traced();
    let before = rep.start_timed(&k);
    let s_timed = ctx.tr.begin("timed");
    for &tid in &batches[1] {
        let s = ctx.tr.begin_op("start");
        k.start(tid).map_err(|e| e.to_string())?;
        ctx.tr.end(s);
    }
    let s = ctx.tr.begin("run");
    run_until_all_exit(
        &mut k,
        &batches[1],
        Some(Watch {
            rep: &mut rep,
            traced,
        }),
    )?;
    ctx.tr.end(s);
    ctx.tr.end(s_timed);
    rep.finish_timed(&k, &before, heap_before);
    // Scheduler traffic of the timed section only.
    rep.end.steals -= sched_before.steals;
    rep.end.offloads -= sched_before.offloads;
    rep.end.busy_cycles -= sched_before.busy_cycles;
    rep.end.idle_cycles -= sched_before.idle_cycles;

    // Oracle: every worker's counter equals its fixed count.
    for (i, n) in timed.iter().enumerate() {
        let got = u64::from(k.m.mem.peek(UCTRS + 4 * i as u32, L));
        if got != *n {
            rep.fail(
                n.abs_diff(got),
                format!("smp_mix: worker {i} counted {got}, expected {n}"),
            );
        }
    }
    Ok(rep)
}

pub fn rep(ctx: &mut Ctx) -> Result<Rep, String> {
    rep_on(ctx, CPUS)
}
