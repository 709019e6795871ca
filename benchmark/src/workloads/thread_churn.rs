//! `thread_churn`: host-driven create → start → (a `run` slice every
//! 16th op) → signal → stop → destroy, against 1000 resident running
//! threads on one CPU. One op is one lifecycle.
//!
//! Covers the Table 3 paths: TTE and context-switch synthesis,
//! `jmp`-chain patching, the fast-fit heap.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout::MemLayout;
use synthesis_core::monitor;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;

use crate::harness::{config, Ctx, Rep};
use crate::stats::jitter;

/// Threads that stay in the ready chain for the whole repetition.
pub const RESIDENT: usize = 1000;
/// Timed lifecycles before the per-seed jitter.
pub const BASE_OPS: u64 = 48_000;
/// Warm-up lifecycles per timed lifecycle.
pub const WARM_DIV: u64 = 8;
/// Every this many ops the resident threads get to run.
pub const RUN_EVERY: u64 = 16;
/// Guest cycles per such slice.
pub const RUN_CYCLES: u64 = 4_000;
/// Ops per slice of the timed section's clock (about 2.5 ms).
const SLICE_OPS: u64 = 128;

pub fn timed_ops(seed: u64) -> u64 {
    jitter(seed, 0x60, BASE_OPS)
}

/// The quaspace partition that holds the resident population: the
/// default 2.5 MB layout has room for about 200 TTEs.
fn churn_config() -> KernelConfig {
    KernelConfig {
        layout: MemLayout::for_threads(RESIDENT as u32 + 64),
        ..config(1)
    }
}

/// Load the signal handler (bump a counter, return) and the spinner every
/// thread runs; returns `(spinner entry, handler entry)`.
fn load_programs(k: &mut Kernel, spin_ctr: u32, sig_ctr: u32) -> Result<(u32, u32), String> {
    let mut h = Asm::new("churn_sighandler");
    h.add(L, Imm(1), Abs(sig_ctr));
    h.move_i(L, general::SIG_RETURN, Dr(0));
    h.trap(traps::GENERAL);
    let dead = h.here();
    h.bcc(Cond::T, dead);
    let mut a = Asm::new("churn_spinner");
    let top = a.here();
    a.add(L, Imm(1), Abs(spin_ctr));
    a.bcc(Cond::T, top);
    let handler = k
        .load_user_program(h.assemble().map_err(|e| format!("{e:?}"))?)
        .map_err(|e| e.to_string())?;
    let entry = k
        .load_user_program(a.assemble().map_err(|e| format!("{e:?}"))?)
        .map_err(|e| e.to_string())?;
    Ok((entry, handler))
}

struct Churn {
    entry: u32,
    handler: u32,
    ustack: u32,
    map: AddressMap,
}

impl Churn {
    /// One lifecycle. `Err` carries the step that failed.
    fn lifecycle(
        &self,
        k: &mut Kernel,
        ctx: &mut Ctx,
        rep: &mut Rep,
        i: u64,
    ) -> Result<(), &'static str> {
        let full = ctx.traced();
        macro_rules! step {
            ($name:literal, $guest:literal, $call:expr) => {{
                if full {
                    let s = ctx.tr.begin_op($name);
                    let (r, m) = monitor::measure(k, $call);
                    let host_ns = ctx.tr.end(s);
                    rep.sample($guest, m.us);
                    if $name == "create_thread" {
                        rep.sample("create_thread_host_us", host_ns as f64 / 1e3);
                    }
                    r.map_err(|_| $name)?
                } else {
                    $call(k).map_err(|_| $name)?
                }
            }};
        }
        let tid = step!(
            "create_thread",
            "create_thread_guest_us",
            |k: &mut Kernel| k.create_thread(self.entry, self.ustack, self.map.clone())
        );
        // The handler address only has to be installed for delivery to
        // succeed (as `crates/bench` does for Table 3).
        let slot = k.threads[&tid].tte + off::SIG_HANDLER;
        k.m.mem.poke(slot, L, self.handler);
        step!("start", "start_guest_us", |k: &mut Kernel| k.start(tid));
        if i % RUN_EVERY == RUN_EVERY - 1 {
            let s = ctx.tr.begin_op("run");
            let wall = Instant::now();
            k.run(RUN_CYCLES);
            rep.run_host_s += wall.elapsed().as_secs_f64();
            ctx.tr.end(s);
            if full {
                rep.trace.drain(k);
                // Rings outlive their threads; drop those of the dead.
                k.trace.clear();
            }
        }
        step!("signal", "signal_guest_us", |k: &mut Kernel| k
            .signal(tid, 1));
        step!("stop", "stop_guest_us", |k: &mut Kernel| k.stop(tid));
        step!("destroy", "destroy_guest_us", |k: &mut Kernel| k
            .destroy(tid));
        Ok(())
    }
}

pub fn rep(ctx: &mut Ctx) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let n = timed_ops(ctx.seed);
    let warm = n.div_ceil(WARM_DIV);

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("boot");
    let mut k = Kernel::boot(churn_config()).map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("load");
    let ub = k.layout.user_base;
    let (entry, handler) = load_programs(&mut k, ub + 0x108, ub + 0x110)?;
    ctx.tr.end(s);
    let churn = Churn {
        entry,
        handler,
        ustack: ub + 0x1_0000,
        map: AddressMap::single(1, ub, k.layout.user_len),
    };
    let s = ctx.tr.begin("populate");
    for _ in 0..RESIDENT {
        let tid = k
            .create_thread(entry, churn.ustack, churn.map.clone())
            .map_err(|e| format!("resident create: {e}"))?;
        k.start(tid).map_err(|e| format!("resident start: {e}"))?;
    }
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    let mut scratch = Rep::default();
    for i in 0..warm {
        churn
            .lifecycle(&mut k, ctx, &mut scratch, i)
            .map_err(|step| format!("warm-up {step} failed"))?;
    }
    ctx.tr.end(s);
    rep.trace.reset(&mut k);
    let threads_before = k.threads.len();
    let (heap_base, code_base) = (k.heap.in_use, k.creator.codebuf.in_use);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = n;
    let mut failures: Vec<&'static str> = Vec::new();
    let before = rep.start_timed(&k);
    let s_timed = ctx.tr.begin("timed");
    for i in 0..n {
        if let Err(step) = churn.lifecycle(&mut k, ctx, &mut rep, i) {
            failures.push(step);
        }
        if i % SLICE_OPS == SLICE_OPS - 1 {
            rep.clock.tick();
        }
    }
    ctx.tr.end(s_timed);
    rep.finish_timed(&k, &before, heap_base);

    // Oracle: every call succeeded, the thread count is back, and the
    // heap and the code buffer are at their pre-churn levels.
    if !failures.is_empty() {
        rep.fail(
            failures.len() as u64,
            format!(
                "thread_churn: {} lifecycles failed, first at {}",
                failures.len(),
                failures[0]
            ),
        );
    }
    let (heap_now, code_now) = (k.heap.in_use, k.creator.codebuf.in_use);
    if k.threads.len() != threads_before || heap_now != heap_base || code_now != code_base {
        rep.fail(
            rep.ops,
            format!(
                "thread_churn: threads {threads_before} -> {}, heap {heap_base} -> {heap_now}, \
                 code {code_base} -> {code_now}",
                k.threads.len()
            ),
        );
    }
    Ok(rep)
}
