//! Per-layer probes that do not depend on the workload: each layer timed
//! from outside through its public functions. They run in the traced
//! invocation only.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use quamachine::machine::{Machine, MachineConfig, RunExit};
use synthesis_blocks::{mpmc, mpsc, spmc, spsc, steal::WorkPool};
use synthesis_codegen::{collapse, factor, peephole, verify};
use synthesis_core::channel::ChannelSpec;
use synthesis_core::kernel::Kernel;
use synthesis_core::thread::tte::off;
use synthesis_unix::abi;
use synthesis_unix::emu::boot_with_program;
use synthesis_unix::programs::{self, addrs};

use crate::harness::{config, emit_unix_exit, run_to_mark, MARK};
use crate::stats::median;

pub type Metrics = BTreeMap<&'static str, f64>;

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

// --- quamachine: a bare `Machine` with no kernel -------------------------

const BARE_LOOPS: u32 = 40_000;

fn bare_program(kind: &str) -> Asm {
    let mut a = Asm::new(format!("bare_{kind}"));
    a.move_i(L, BARE_LOOPS, Dr(7));
    a.move_i(L, 3, Dr(1));
    let top = a.here();
    match kind {
        "alu" => {
            for _ in 0..4 {
                a.add(L, Dr(1), Dr(0));
                a.eor(L, Dr(0), Dr(2));
                a.shift(ShiftKind::Lsl, L, Imm(1), Dr(2));
                a.sub(L, Imm(1), Dr(3));
            }
        }
        "mem" => {
            for i in 0..8u32 {
                a.move_(L, Abs(0x2000 + 8 * i), Dr(0));
                a.move_(L, Dr(0), Abs(0x3000 + 8 * i));
            }
        }
        _ => {
            for _ in 0..16 {
                let next = a.label();
                a.bcc(Cond::T, next);
                a.bind(next);
            }
        }
    }
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.halt();
    a
}

/// Host ns per interpreted instruction on a kernel-less machine.
fn bare_step_ns(kind: &str) -> Result<f64, String> {
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let block = bare_program(kind)
            .assemble()
            .map_err(|e| format!("{e:?}"))?;
        m.cpu.pc = m.load_block(0x1000, block).map_err(|e| e.to_string())?;
        m.cpu.a[7] = 0x8000;
        let mut exit = RunExit::CycleLimit;
        let ns = time_ns(|| exit = m.run(1 << 40));
        if exit != RunExit::Halted {
            return Err(format!("bare {kind} loop did not halt: {exit:?}"));
        }
        runs.push(ns / m.meter.instr_count as f64);
    }
    Ok(median(&runs))
}

pub fn bare_machine(out: &mut Metrics) -> Result<(), String> {
    out.insert("quamachine.bare_step_ns_alu", bare_step_ns("alu")?);
    out.insert("quamachine.bare_step_ns_mem", bare_step_ns("mem")?);
    out.insert("quamachine.bare_step_ns_branch", bare_step_ns("branch")?);
    Ok(())
}

// --- codegen: the synthesis stages on the kernel's file templates --------

const STAGE_ROUNDS: usize = 200;

pub fn codegen_stages(out: &mut Metrics) -> Result<(), String> {
    let mut k = Kernel::boot(config(1)).map_err(|e| e.to_string())?;
    let fid =
        k.fs.create(&mut k.m, &mut k.heap, "/tmp/probe", 4096)
            .map_err(|e| format!("{e:?}"))?;
    let file = k.fs.file(fid).ok_or("probe file missing")?;
    // Any kernel address serves as the offset slot and the gauge: the
    // probe's code is installed and destroyed, never run.
    let slot = k.heap.alloc(4).map_err(|e| format!("{e:?}"))?;
    let spec = |gauge: u32| ChannelSpec::file(file, slot, gauge);
    let ends = |gauge: u32| {
        let s = spec(gauge);
        [s.read.expect("files read"), s.write.expect("files write")]
    };

    let (mut t_factor, mut t_collapse, mut t_peep, mut t_verify) = (0.0, 0.0, 0.0, 0.0);
    let lib = &k.creator.lib;
    for end in ends(slot + off::GAUGE) {
        let t = lib.get(end.template).ok_or("file template missing")?;
        let fused_name = format!("fused_{}", end.template);
        let fused = lib.get(&fused_name).ok_or("fused file template missing")?;
        let factored = factor::factor(t, &end.bindings).map_err(|e| format!("{e:?}"))?;
        t_factor += time_ns(|| {
            for _ in 0..STAGE_ROUNDS {
                black_box(factor::factor(black_box(t), &end.bindings).is_ok());
            }
        });
        t_collapse += time_ns(|| {
            for _ in 0..STAGE_ROUNDS {
                black_box(collapse::collapse(black_box(fused), lib).is_ok());
            }
        });
        t_peep += time_ns(|| {
            for _ in 0..STAGE_ROUNDS {
                let mut marks = factored.marks.clone();
                black_box(peephole::optimize(factored.instrs.clone(), &mut marks));
            }
        });
        t_verify += time_ns(|| {
            for _ in 0..STAGE_ROUNDS {
                black_box(verify::verify(black_box(&factored)).is_ok());
            }
        });
    }
    let per_call_us = |ns: f64| ns / (2 * STAGE_ROUNDS) as f64 / 1e3;
    out.insert("codegen.factor_host_us", per_call_us(t_factor));
    out.insert("codegen.collapse_host_us", per_call_us(t_collapse));
    out.insert("codegen.peephole_host_us", per_call_us(t_peep));
    out.insert("codegen.verify_host_us", per_call_us(t_verify));

    // synthesize_cached: a fresh gauge binding is a new key (miss), the
    // same key again is a hit; each reference is destroyed again.
    let (mut t_miss, mut t_hit, mut t_destroy) = (0.0, 0.0, 0.0);
    let opts = k.opts;
    for round in 0..STAGE_ROUNDS as u32 {
        for end in ends(slot + 0x100 + 4 * round) {
            let mut refs = Vec::new();
            for t in [&mut t_miss, &mut t_hit] {
                let mut got = None;
                *t += time_ns(|| {
                    got = k
                        .creator
                        .synthesize_cached(&mut k.m, end.template, &end.bindings, opts)
                        .ok();
                });
                refs.push(got.ok_or("probe synthesis failed")?);
            }
            for s in &refs {
                t_destroy += time_ns(|| k.creator.destroy(&mut k.m, s));
            }
        }
    }
    let stats = k.creator.stats;
    if stats.cache_hits < 2 * STAGE_ROUNDS as u64 || stats.cache_misses < 2 * STAGE_ROUNDS as u64 {
        return Err("codegen probe: the cache did not hit and miss as laid out".to_string());
    }
    out.insert("codegen.synthesize_miss_host_us", per_call_us(t_miss));
    out.insert("codegen.synthesize_hit_host_us", per_call_us(t_hit));
    out.insert("codegen.destroy_host_us", per_call_us(t_destroy) / 2.0);
    Ok(())
}

// --- blocks: single-threaded, uncontended put+get pairs ------------------

const BLOCK_PAIRS: u64 = 400_000;

fn pair_ns(mut pair: impl FnMut(u64) -> bool) -> Result<f64, String> {
    let mut ok = true;
    let ns = time_ns(|| {
        for i in 0..BLOCK_PAIRS {
            ok &= pair(black_box(i));
        }
    });
    if !ok {
        return Err("blocks probe: a queue lost or reordered an item".to_string());
    }
    Ok(ns / BLOCK_PAIRS as f64)
}

pub fn blocks(out: &mut Metrics) -> Result<(), String> {
    let (mut p, mut c) = spsc::channel::<u64>(64);
    out.insert(
        "blocks.spsc_put_get_ns",
        pair_ns(|i| p.put(i).is_ok() && c.get() == Some(i))?,
    );
    let (p, mut c) = mpsc::channel::<u64>(64);
    out.insert(
        "blocks.mpsc_put_get_ns",
        pair_ns(|i| p.put(i).is_ok() && c.get() == Some(i))?,
    );
    let (mut p, c) = spmc::channel::<u64>(64);
    out.insert(
        "blocks.spmc_put_get_ns",
        pair_ns(|i| p.put(i).is_ok() && c.get() == Some(i))?,
    );
    let h = mpmc::channel::<u64>(64);
    out.insert(
        "blocks.mpmc_put_get_ns",
        pair_ns(|i| h.put(i).is_ok() && h.get() == Some(i))?,
    );
    out.insert("blocks.mpmc_retries", h.retries() as f64);
    let pool = WorkPool::<u64>::new(64);
    out.insert(
        "blocks.pool_offer_steal_ns",
        pair_ns(|i| pool.offer(i).is_ok() && pool.steal() == Some(i))?,
    );
    Ok(())
}

// --- core and unix: boot -------------------------------------------------

pub fn boots(out: &mut Metrics) -> Result<(), String> {
    let mut core = Vec::new();
    let mut unix = Vec::new();
    for _ in 0..5 {
        let mut ok = true;
        core.push(time_ns(|| ok &= Kernel::boot(config(1)).is_ok()) / 1e6);
        unix.push(
            time_ns(|| ok &= boot_with_program(config(1), programs::open_close(0, 1)).is_ok())
                / 1e6,
        );
        if !ok {
            return Err("boot probe: the kernel did not boot".to_string());
        }
    }
    out.insert("core.boot_host_ms", median(&core));
    out.insert("unix.boot_with_program_host_ms", median(&unix));
    Ok(())
}

// --- unix: Table 1 rows 6 and 7 as guest programs -------------------------

const OC_COUNT: u32 = addrs::RESULT + 0x10;
const OC_DONE: u32 = addrs::RESULT + 4;
const OC_WARM: u32 = 8;
const OC_TIMED: u32 = 256;

/// `open(path)`/`close` passes with a mark after each, so one-shot
/// set-up stays out of the measured loop.
fn open_close_program(path_off: u32) -> Asm {
    let mut a = Asm::new("probe_open_close");
    let pass = a.here();
    a.move_(L, Abs(OC_COUNT), Dr(7));
    let top = a.here();
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS + path_off), 0);
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(1));
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Abs(addrs::RESULT));
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.kcall(MARK);
    a.tst(L, Abs(OC_DONE));
    a.bcc(Cond::Eq, pass);
    emit_unix_exit(&mut a);
    a
}

fn open_close_guest_us(path_off: u32) -> Result<f64, String> {
    let (mut emu, tid) =
        boot_with_program(config(1), open_close_program(path_off)).map_err(|e| e.to_string())?;
    emu.k.trace.enabled = false;
    emu.k.m.mem.poke(OC_COUNT, L, OC_WARM);
    run_to_mark(&mut emu, None)?;
    emu.k.m.mem.poke(OC_COUNT, L, OC_TIMED);
    let c0 = emu.k.m.meter.cycles;
    run_to_mark(&mut emu, None)?;
    let us = emu.k.m.cost.cycles_to_us(emu.k.m.meter.cycles - c0);
    emu.k.m.mem.poke(OC_DONE, L, 1);
    // Every close returned 0.
    if !emu.run_until_exit(tid, 100_000_000) || emu.k.m.mem.peek(addrs::RESULT, L) != 0 {
        return Err("open/close probe: a close failed or the program hung".to_string());
    }
    Ok(us / f64::from(OC_TIMED))
}

pub fn table1_open_close(out: &mut Metrics) -> Result<(), String> {
    out.insert("unix.open_close_null_guest_us", open_close_guest_us(0)?);
    out.insert("unix.open_close_tty_guest_us", open_close_guest_us(0x10)?);
    Ok(())
}
