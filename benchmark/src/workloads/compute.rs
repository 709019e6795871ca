//! `compute`: `programs::compute(1024, N)`, the Table 1 calibration.
//!
//! User-mode only: the interpreter does nearly all the work and the
//! kernel only ticks. It is the control workload — a kernel or codegen
//! change predicts no movement in `guest_us_per_op` here.

use std::time::Instant;

use quamachine::isa::Size::L;
use synthesis_unix::emu::{boot_with_program, UnixEmulator};
use synthesis_unix::programs::{self, addrs};
use synthesis_unix::sunos::Sunos;

use crate::harness::{config, Ctx, Rep, Watch, SLICE};
use crate::stats::jitter;

/// Entries in the chaotic-sequence array.
pub const LEN: u32 = 1024;
/// Timed outer iterations before the per-seed jitter.
pub const BASE_ITERS: u64 = 540;
/// Warm-up outer iterations per timed iteration.
pub const WARM_DIV: u64 = 8;
/// Outer iterations of the SUNOS-like reference run (per-op time does
/// not depend on the count).
pub const SUNOS_ITERS: u64 = 24;
/// Table 1 row 1: parity with SUNOS.
pub const PAPER_SPEEDUP: f64 = 1.0;

/// One op is one `q[i]` update.
pub fn ops(iters: u64) -> u64 {
    iters * u64::from(LEN - 2)
}

pub fn timed_iters(seed: u64) -> u64 {
    jitter(seed, 0x10, BASE_ITERS)
}

/// The recurrence of `programs::compute`, independently, in Rust: the
/// array after `iters` outer iterations, starting zeroed and never
/// cleared in between. Its last entry is the program's checksum.
pub fn oracle(len: u32, iters: u64) -> Vec<u32> {
    let mask = len - 1;
    let mut q = vec![0u32; len as usize];
    q[0] = 1;
    q[1] = 1;
    for _ in 0..iters {
        for i in 2..len {
            let a = q[(i - 1) as usize];
            let b = q[(i - 2) as usize];
            let x = q[(i.wrapping_sub(a) & mask) as usize];
            let y = q[(i.wrapping_sub(b) & mask) as usize];
            q[i as usize] = x.wrapping_add(y) & 0x00FF_FFFF;
        }
    }
    q
}

/// Whether the guest's array (and so its checksum) is the oracle's.
fn array_matches(m: &quamachine::machine::Machine, len: u32, iters: u64) -> bool {
    let want = oracle(len, iters);
    let checksum = m.mem.peek(addrs::RESULT, L);
    checksum == want[(len - 1) as usize]
        && (0..len).all(|i| m.mem.peek(addrs::QARRAY + 4 * i, L) == want[i as usize])
}

fn run_thread_out(
    emu: &mut UnixEmulator,
    tid: u32,
    mut watch: Option<Watch>,
) -> Result<(), String> {
    for _ in 0..(1u64 << 40) / SLICE {
        let done = emu.run_until_exit(tid, SLICE);
        if let Some(w) = watch.as_mut() {
            w.slice_done(&mut emu.k);
        }
        if done {
            return Ok(());
        }
    }
    Err(format!("thread {tid} never exited"))
}

pub fn rep(ctx: &mut Ctx) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let iters = timed_iters(ctx.seed);
    let warm = iters.div_ceil(WARM_DIV);

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("assemble");
    let block = programs::compute(LEN, iters as u32)
        .assemble()
        .map_err(|e| format!("assemble: {e:?}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("boot");
    let (mut emu, warm_tid) = boot_with_program(config(1), programs::compute(LEN, warm as u32))
        .map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut emu.k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("load");
    let entry = emu
        .k
        .load_user_program(block)
        .map_err(|e| format!("load: {e}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("populate");
    let heap_unpopulated = emu.k.heap.in_use;
    // The timed thread shares the booted program's quaspace.
    let map = emu.k.threads[&warm_tid].map.clone();
    let tid = emu
        .k
        .create_thread(entry, addrs::USTACK, map)
        .map_err(|e| format!("create: {e}"))?;
    emu.install(tid).map_err(|e| format!("install: {e}"))?;
    let timed_thread_bytes = emu.k.heap.in_use - heap_unpopulated;
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    run_thread_out(&mut emu, warm_tid, None)?;
    ctx.tr.end(s);
    // The timed thread exits inside the timed section: the heap must
    // return to its level now, less what that thread holds.
    let heap_before = emu.k.heap.in_use - timed_thread_bytes;
    rep.trace.reset(&mut emu.k);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = ops(iters);
    let traced = ctx.traced();
    let before = rep.start_timed(&emu.k);
    let s_timed = ctx.tr.begin("timed");
    let s = ctx.tr.begin_op("start");
    emu.k.start(tid).map_err(|e| format!("start: {e}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("run");
    run_thread_out(
        &mut emu,
        tid,
        Some(Watch {
            rep: &mut rep,
            traced,
        }),
    )?;
    ctx.tr.end(s);
    ctx.tr.end(s_timed);
    rep.finish_timed(&emu.k, &before, heap_before);

    if !array_matches(&emu.k.m, LEN, warm + iters) {
        let got = emu.k.m.mem.peek(addrs::RESULT, L);
        rep.fail(
            rep.ops,
            format!("compute: checksum {got:#x} or the array behind it is not the oracle's"),
        );
    }
    Ok(rep)
}

/// `programs::compute(LEN, iters)` on the SUNOS-like baseline: guest µs
/// per op, checksum checked.
pub fn sunos_reference(iters: u64) -> Result<f64, String> {
    let mut s = Sunos::boot();
    let entry = s.load_program(programs::compute(LEN, iters as u32));
    let c0 = s.m.meter.cycles;
    let exit = s.run_program(entry, 1 << 40);
    if exit != quamachine::machine::RunExit::Halted {
        return Err(format!("baseline compute did not exit: {exit:?}"));
    }
    if !array_matches(&s.m, LEN, iters) {
        return Err("baseline compute: checksum mismatch".to_string());
    }
    Ok(s.m.cost.cycles_to_us(s.m.meter.cycles - c0) / ops(iters) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_is_the_guest_programs_recurrence() {
        // A small instance on the baseline machine: no kernel needed.
        let (len, iters) = (16, 5);
        let mut s = Sunos::boot();
        let entry = s.load_program(programs::compute(len, iters as u32));
        assert_eq!(
            s.run_program(entry, 1 << 30),
            quamachine::machine::RunExit::Halted
        );
        assert!(array_matches(&s.m, len, iters));
        // The sequence is chaotic, not a ramp or a constant.
        let distinct: std::collections::BTreeSet<u32> = oracle(LEN, 2).into_iter().collect();
        assert!(distinct.len() > 100, "{} distinct values", distinct.len());
    }
}
