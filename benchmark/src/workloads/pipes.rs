//! `pipe_small` and `pipe_bulk`: one thread writing then reading its own
//! pipe (and a cached file) through the UNIX trap ABI.
//!
//! The program is the runner's own, in the shape of `pipe_xfer` in
//! `crates/unix/tests/fused_equivalence.rs`: reads land in a separate
//! buffer and every `read`/`write` return is summed, so the oracle can
//! check bytes moved and the seeded payload. Loop counts come from
//! guest memory and a [`MARK`] ends each section, so one program serves
//! the warm-up pass, the timed pass, and the SUNOS-like reference run.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use synthesis_unix::abi;
use synthesis_unix::emu::{boot_with_program, UnixEmulator};
use synthesis_unix::programs::addrs;
use synthesis_unix::sunos::Sunos;

use crate::harness::{
    config, emit_unix_exit, payload, run_to_mark, Counters, Ctx, Rep, Section, Watch, MARK,
};
use crate::stats::jitter;

/// Source buffer (the seeded payload).
pub const SRC: u32 = addrs::BUF;
/// Destination buffer, disjoint from the source.
pub const DST: u32 = addrs::BUF + 0x4000;
/// Sum of every `read`/`write` return.
pub const TOTAL: u32 = addrs::RESULT;
/// Set by the host when the program should exit after its next pass.
pub const DONE: u32 = addrs::RESULT + 4;
/// Per-section loop counts, one longword each, poked before each pass.
pub const COUNTS: u32 = addrs::RESULT + 0x10;

/// One loop of the program.
#[derive(Debug, Clone, Copy)]
pub struct Part {
    pub name: &'static str,
    /// Bytes per `write` and per `read`.
    pub chunk: u32,
    /// `false`: a solo pipe. `true`: `/tmp/bench`, with an `lseek(0)`
    /// before the write and before the read-back.
    pub file: bool,
    /// Timed iterations before the per-seed jitter.
    pub base_iters: u64,
    /// Timed iterations of the SUNOS-like reference run, which is some
    /// twenty times slower per op.
    pub sunos_iters: u64,
    /// Table 1's speedup over SUNOS for this row.
    pub paper_speedup: f64,
}

/// `pipe_small`: Table 1 row 2.
pub const SMALL: [Part; 1] = [Part {
    name: "pipe_1b",
    chunk: 1,
    file: false,
    base_iters: 220_000,
    sunos_iters: 3_000,
    paper_speedup: 56.0,
}];

/// `pipe_bulk`: Table 1 rows 3, 4 and 5. One op is 1 KB written and
/// read back, so a 4 KB pair counts as four.
pub const BULK: [Part; 3] = [
    Part {
        name: "pipe_1k",
        chunk: 1024,
        file: false,
        base_iters: 5_200,
        sunos_iters: 120,
        paper_speedup: 4.7,
    },
    Part {
        name: "pipe_4k",
        chunk: 4096,
        file: false,
        base_iters: 1_300,
        sunos_iters: 30,
        paper_speedup: 6.0,
    },
    Part {
        name: "file_1k",
        chunk: 1024,
        file: true,
        base_iters: 5_200,
        sunos_iters: 120,
        paper_speedup: 9.0,
    },
];

/// Warm-up iterations per timed iteration (1/8: above the 5 % floor, and
/// enough host work that `setup_s` repeats).
pub const WARM_DIV: u64 = 8;

/// Ops per loop iteration: 1 KB written and read back is one op.
pub fn ops_per_iter(p: &Part) -> u64 {
    u64::from(p.chunk.div_ceil(1024))
}

fn emit_rw(a: &mut Asm, sysno: u32, p: &Part, buf: u32) {
    if p.file {
        a.move_i(L, abi::SYS_LSEEK, Dr(0));
        a.move_(L, Dr(6), Dr(1));
        a.move_i(L, 0, Dr(2));
        a.trap(abi::UNIX_TRAP);
    }
    a.move_i(L, sysno, Dr(0));
    if p.file {
        a.move_(L, Dr(6), Dr(1));
    } else {
        // d5 = (rfd << 8) | wfd
        a.move_(L, Dr(5), Dr(1));
        if sysno == abi::SYS_WRITE {
            a.and(L, Imm(0xFF), Dr(1));
        } else {
            a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
        }
    }
    a.lea(Abs(buf), 0);
    a.move_i(L, p.chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Abs(TOTAL));
}

/// The transfer program: `pipe()`, `open("/tmp/bench")` if a part needs
/// it, then passes over the parts until the host sets [`DONE`].
pub fn program(name: &'static str, parts: &[Part]) -> Asm {
    let mut a = Asm::new(name);
    a.move_i(L, abi::SYS_PIPE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5));
    if parts.iter().any(|p| p.file) {
        a.move_i(L, abi::SYS_OPEN, Dr(0));
        a.lea(Abs(addrs::PATHS + 0x20), 0);
        a.move_i(L, 2, Dr(1)); // O_RDWR
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), Dr(6));
    }
    let pass = a.here();
    for (i, p) in parts.iter().enumerate() {
        a.move_(L, Abs(COUNTS + 4 * i as u32), Dr(7));
        let top = a.here();
        emit_rw(&mut a, abi::SYS_WRITE, p, SRC);
        emit_rw(&mut a, abi::SYS_READ, p, DST);
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
        a.kcall(MARK);
    }
    a.tst(L, Abs(DONE));
    a.bcc(Cond::Eq, pass);
    emit_unix_exit(&mut a);
    a
}

/// Timed iterations of each part for this seed.
pub fn timed_iters(seed: u64, parts: &[Part]) -> Vec<u64> {
    parts
        .iter()
        .enumerate()
        .map(|(i, p)| jitter(seed, 0x50 + i as u64, p.base_iters))
        .collect()
}

/// After a section: the destination must hold the payload. Clears it
/// for the next section.
fn check_and_clear(m: &mut quamachine::machine::Machine, data: &[u8], p: &Part) -> bool {
    let n = p.chunk as usize;
    let ok = m.mem.peek_bytes(DST, p.chunk) == data[..n];
    m.mem.poke_bytes(DST, &vec![0u8; n]);
    ok
}

fn create_bench_file(emu: &mut UnixEmulator) -> Result<(), String> {
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", 65536)
        .map_err(|e| format!("creating /tmp/bench: {e:?}"))?;
    emu.k.fs.write_contents(&mut emu.k.m, fid, &[0x5A; 4096]);
    Ok(())
}

/// One repetition of `pipe_small` or `pipe_bulk` on the Synthesis kernel.
pub fn rep(ctx: &mut Ctx, name: &'static str, parts: &[Part]) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let timed = timed_iters(ctx.seed, parts);
    let warm: Vec<u64> = timed.iter().map(|n| n.div_ceil(WARM_DIV)).collect();
    let data = payload(ctx.seed, 4096);

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("assemble");
    program(name, parts)
        .assemble()
        .map_err(|e| format!("assemble: {e:?}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("boot");
    let (mut emu, tid) =
        boot_with_program(config(1), program(name, parts)).map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut emu.k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("populate");
    emu.k.m.mem.poke_bytes(SRC, &data);
    if parts.iter().any(|p| p.file) {
        create_bench_file(&mut emu)?;
    }
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    for (i, n) in warm.iter().enumerate() {
        emu.k.m.mem.poke(COUNTS + 4 * i as u32, L, *n as u32);
    }
    let mut payload_ok = true;
    for p in parts {
        run_to_mark(&mut emu, None)?;
        payload_ok &= check_and_clear(&mut emu.k.m, &data, p);
    }
    ctx.tr.end(s);
    for (i, n) in timed.iter().enumerate() {
        emu.k.m.mem.poke(COUNTS + 4 * i as u32, L, *n as u32);
    }
    rep.trace.reset(&mut emu.k);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = parts
        .iter()
        .zip(&timed)
        .map(|(p, n)| ops_per_iter(p) * n)
        .sum();
    let heap_before = emu.k.heap.in_use;
    let traced = ctx.traced();
    let before = rep.start_timed(&emu.k);
    let s_timed = ctx.tr.begin("timed");
    let mut mark = before;
    for (p, n) in parts.iter().zip(&timed) {
        let s = ctx.tr.begin("run");
        run_to_mark(
            &mut emu,
            Some(Watch {
                rep: &mut rep,
                traced,
            }),
        )?;
        ctx.tr.end(s);
        let now = Counters::read(&emu.k);
        rep.sections.push(Section {
            name: p.name,
            ops: ops_per_iter(p) * n,
            guest_us: emu.k.m.cost.cycles_to_us(now.since(&mark).cycles),
        });
        mark = now;
        payload_ok &= check_and_clear(&mut emu.k.m, &data, p);
    }
    ctx.tr.end(s_timed);
    rep.finish_timed(&emu.k, &before, heap_before);

    // Oracle: the program exits, every call moved its full count, and
    // the destination held the seeded payload after every section.
    // The program tests DONE right after its last mark.
    emu.k.m.mem.poke(DONE, L, 1);
    if !emu.run_until_exit(tid, 100_000_000) {
        rep.fail(rep.ops, format!("{name}: the program did not exit"));
    }
    let expect: u64 = parts
        .iter()
        .zip(warm.iter().zip(&timed))
        .map(|(p, (w, n))| 2 * u64::from(p.chunk) * (w + n))
        .sum();
    let got = u64::from(emu.k.m.mem.peek(TOTAL, L));
    if got != expect {
        let short = expect.saturating_sub(got).div_ceil(2048).max(1);
        rep.fail(
            short,
            format!("{name}: moved {got} bytes, expected {expect}"),
        );
    }
    if !payload_ok {
        rep.fail(
            rep.ops,
            format!("{name}: destination differs from the payload"),
        );
    }
    Ok(rep)
}

/// The same program on the SUNOS-like baseline, with `sunos_iters` timed
/// iterations per part. Returns guest µs per part.
pub fn sunos_reference(seed: u64, name: &'static str, parts: &[Part]) -> Result<Vec<f64>, String> {
    let mut s = Sunos::boot();
    let entry = s.load_program(program(name, parts));
    s.m.mem
        .poke_bytes(addrs::PATHS, &synthesis_unix::programs::path_blob());
    s.write_bench_file(&[0x5A; 4096]);
    let data = payload(seed, 4096);
    s.m.mem.poke_bytes(SRC, &data);
    let mut out = Vec::new();
    for pass in 0..2 {
        for (i, p) in parts.iter().enumerate() {
            let n = if pass == 0 {
                p.sunos_iters.div_ceil(WARM_DIV)
            } else {
                p.sunos_iters
            };
            s.m.mem.poke(COUNTS + 4 * i as u32, L, n as u32);
        }
        for (i, p) in parts.iter().enumerate() {
            let c0 = s.m.meter.cycles;
            let exit = if pass == 0 && i == 0 {
                s.run_program(entry, 1 << 40)
            } else {
                s.run(1 << 40)
            };
            if exit != quamachine::machine::RunExit::KCall(MARK) {
                return Err(format!("baseline stopped before its mark: {exit:?}"));
            }
            if !check_and_clear(&mut s.m, &data, p) {
                return Err(format!("baseline {}: payload mismatch", p.name));
            }
            if pass == 1 {
                out.push(s.m.cost.cycles_to_us(s.m.meter.cycles - c0));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_program_moves_the_payload_on_the_baseline_kernel() {
        // Both passes, every part, payload checked after each section.
        let us = sunos_reference(7, "pipe_bulk", &BULK).unwrap();
        assert_eq!(us.len(), BULK.len());
        assert!(us.iter().all(|t| *t > 0.0));
        // A 4 KB pair costs more than a 1 KB pair.
        assert!(us[1] / BULK[1].sunos_iters as f64 > us[0] / BULK[0].sunos_iters as f64);
    }

    #[test]
    fn ops_count_kilobytes() {
        assert_eq!(ops_per_iter(&SMALL[0]), 1);
        assert_eq!(ops_per_iter(&BULK[1]), 4);
    }
}
