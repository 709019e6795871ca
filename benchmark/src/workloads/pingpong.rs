//! `pipe_pingpong`: two threads and two pipes on one CPU, native
//! `trap #1`/`trap #2`.
//!
//! Both pipes have two readers and two writers attached, so neither is
//! solo: the layered path is taken, and every read blocks and is woken
//! by the peer's write. One op is one 1-byte round trip: two writes, two
//! reads, at least two context switches.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::Kernel;
use synthesis_core::layout;
use synthesis_core::syscall::traps;

use crate::harness::{config, emit_native_exit, payload, run_to_mark, Ctx, Rep, Watch, MARK};
use crate::stats::jitter;

/// Timed round trips before the per-seed jitter.
pub const BASE_TRIPS: u64 = 50_000;
/// Warm-up round trips per timed round trip.
pub const WARM_DIV: u64 = 8;

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const SRC: u32 = layout::USER_BASE + 0x2_0000;
const DST_A: u32 = layout::USER_BASE + 0x2_0100;
const DST_B: u32 = layout::USER_BASE + 0x2_0200;
const TOTAL_A: u32 = layout::USER_BASE + 0x2_9000;
const TOTAL_B: u32 = layout::USER_BASE + 0x2_9004;
const COUNT: u32 = layout::USER_BASE + 0x2_9008;
const DONE: u32 = layout::USER_BASE + 0x2_900C;

pub fn timed_trips(seed: u64) -> u64 {
    jitter(seed, 0x20, BASE_TRIPS)
}

fn emit_io(a: &mut Asm, trap: u8, fd: u32, buf: u32, total: u32) {
    a.move_i(L, fd, Dr(0));
    a.lea(Abs(buf), 0);
    a.move_i(L, 1, Dr(1));
    a.trap(trap);
    a.add(L, Dr(0), Abs(total));
}

/// The initiator: passes of `COUNT` round trips, a mark after each,
/// until the host sets `DONE`. Fds: 1 = pipe 0 write, 2 = pipe 1 read.
fn initiator() -> Asm {
    let mut a = Asm::new("pingpong_a");
    let pass = a.here();
    a.move_(L, Abs(COUNT), Dr(7));
    let top = a.here();
    emit_io(&mut a, traps::WRITE, 1, SRC, TOTAL_A);
    emit_io(&mut a, traps::READ, 2, DST_A, TOTAL_A);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.kcall(MARK);
    a.tst(L, Abs(DONE));
    a.bcc(Cond::Eq, pass);
    emit_native_exit(&mut a);
    a
}

/// The echo: `trips` times read pipe 0, write the byte back on pipe 1.
/// Fds: 0 = pipe 0 read, 3 = pipe 1 write.
fn echo(trips: u64) -> Asm {
    let mut a = Asm::new("pingpong_b");
    a.move_i(L, trips as u32, Dr(7));
    let top = a.here();
    emit_io(&mut a, traps::READ, 0, DST_B, TOTAL_B);
    emit_io(&mut a, traps::WRITE, 3, DST_B, TOTAL_B);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    emit_native_exit(&mut a);
    a
}

pub fn rep(ctx: &mut Ctx) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let trips = timed_trips(ctx.seed);
    let warm = trips.div_ceil(WARM_DIV);
    let byte = payload(ctx.seed, 1)[0];

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("assemble");
    let prog_a = initiator().assemble().map_err(|e| format!("{e:?}"))?;
    // One trip more than the warm-up and the timed pass, so the echo is
    // still alive (and its TTE still allocated) when the timed pass ends.
    let prog_b = echo(warm + trips + 1)
        .assemble()
        .map_err(|e| format!("{e:?}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("boot");
    let mut k = Kernel::boot(config(1)).map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("load");
    let ea = k.load_user_program(prog_a).map_err(|e| e.to_string())?;
    let eb = k.load_user_program(prog_b).map_err(|e| e.to_string())?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("populate");
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let ta = k
        .create_thread(ea, USTACK, map.clone())
        .map_err(|e| e.to_string())?;
    let tb = k
        .create_thread(eb, USTACK + 0x1000, map)
        .map_err(|e| e.to_string())?;
    // Pipe 0 carries a → b, pipe 1 carries b → a; both threads hold both
    // ends of both, which is what makes the pipes non-solo.
    let fds = [
        k.pipe_for(ta),
        k.pipe_attach(tb, 0),
        k.pipe_for(tb),
        k.pipe_attach(ta, 1),
    ];
    if fds != [Ok((0, 1)), Ok((0, 1)), Ok((2, 3)), Ok((2, 3))] {
        return Err(format!("unexpected pipe fds: {fds:?}"));
    }
    k.m.mem.poke(SRC, B, u32::from(byte));
    k.m.mem.poke(COUNT, L, warm as u32);
    k.start(ta).map_err(|e| e.to_string())?;
    k.start(tb).map_err(|e| e.to_string())?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    run_to_mark(&mut k, None)?;
    ctx.tr.end(s);
    k.m.mem.poke(COUNT, L, trips as u32);
    rep.trace.reset(&mut k);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = trips;
    let heap_before = k.heap.in_use;
    let traced = ctx.traced();
    let before = rep.start_timed(&k);
    let s_timed = ctx.tr.begin("timed");
    let s = ctx.tr.begin("run");
    run_to_mark(
        &mut k,
        Some(Watch {
            rep: &mut rep,
            traced,
        }),
    )?;
    ctx.tr.end(s);
    ctx.tr.end(s_timed);
    rep.finish_timed(&k, &before, heap_before);

    // Oracle: both threads exit, both moved two bytes per round trip,
    // and the byte that came back is the one that was sent.
    k.m.mem.poke(COUNT, L, 1);
    run_to_mark(&mut k, None)?;
    k.m.mem.poke(DONE, L, 1);
    let exited = k.run_until_exit(ta, 100_000_000) && k.run_until_exit(tb, 100_000_000);
    if !exited {
        rep.fail(rep.ops, "pipe_pingpong: a thread did not exit".to_string());
    }
    let want = 2 * (warm + trips + 1);
    for (who, at) in [("initiator", TOTAL_A), ("echo", TOTAL_B)] {
        let got = u64::from(k.m.mem.peek(at, L));
        if got != want {
            rep.fail(
                want.saturating_sub(got).div_ceil(2).max(1),
                format!("pipe_pingpong: {who} moved {got} bytes, expected {want}"),
            );
        }
    }
    if k.m.mem.peek(DST_A, B) != u32::from(byte) {
        rep.fail(rep.ops, "pipe_pingpong: wrong byte came back".to_string());
    }
    Ok(rep)
}
