//! Table 1 — the same UNIX binaries on the baseline and on Synthesis.
//!
//! Each figure is a steady state, as the paper timed long-running loops:
//! a program runs `n` and `2n` iterations on both kernels, and the
//! difference is what `n` iterations cost without the run's one-shot
//! work — the first open's synthesis, a fused wrapper's first bind, the
//! exit.

use quamachine::asm::Asm;
use quamachine::machine::RunExit;
use synthesis_core::thread::Tid;
use synthesis_unix::emu::{boot_with_program, UnixEmulator};
use synthesis_unix::programs::{self, addrs};
use synthesis_unix::sunos::Sunos;

use crate::Row;

/// Run a program loaded on the baseline kernel to its exit; returns
/// elapsed virtual µs.
fn run_sunos((mut s, entry): (Sunos, u32)) -> f64 {
    let t0 = s.m.now_us();
    let exit = s.run_program(entry, 60_000_000_000);
    assert_eq!(exit, RunExit::Halted, "baseline program must exit");
    s.m.now_us() - t0
}

/// Run a program loaded under the Synthesis UNIX emulator to its exit;
/// returns elapsed µs.
fn run_synthesis((mut emu, tid): (UnixEmulator, Tid)) -> f64 {
    let t0 = emu.k.m.now_us();
    assert!(
        emu.run_until_exit(tid, 60_000_000_000),
        "emulated program must exit"
    );
    emu.k.m.now_us() - t0
}

fn make_bench_file(emu: &mut UnixEmulator) {
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", 65536)
        .expect("file fits");
    emu.k
        .fs
        .write_contents(&mut emu.k.m, fid, &vec![0x5Au8; 4096]);
}

/// One of the seven Table 1 programs.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// The row label.
    pub name: &'static str,
    /// The paper's speedup (SUN time / Synthesis time).
    pub paper: f64,
    /// The program at a given iteration count.
    build: fn(u32) -> Asm,
    /// Whether it reads the 4 KB bench file.
    bench_file: bool,
    /// The iteration count its figure is taken at.
    pub n: u32,
}

impl Program {
    /// The baseline kernel with this program at `n` iterations loaded, not
    /// yet run; the program's entry.
    #[must_use]
    pub fn on_sunos(&self, n: u32) -> (Sunos, u32) {
        let mut s = Sunos::boot();
        let entry = s.load_program((self.build)(n));
        s.m.mem.poke_bytes(addrs::PATHS, &programs::path_blob());
        if self.bench_file {
            s.write_bench_file(&vec![0x5Au8; 4096]);
        }
        (s, entry)
    }

    /// The Synthesis UNIX emulator with this program at `n` iterations
    /// loaded, not yet run; the program's thread.
    #[must_use]
    pub fn on_synthesis(&self, n: u32) -> (UnixEmulator, Tid) {
        let (mut emu, tid) = boot_with_program(crate::measurement_config(), (self.build)(n))
            .expect("emulator boots");
        if self.bench_file {
            make_bench_file(&mut emu);
        }
        (emu, tid)
    }

    /// Guest µs per iteration at steady state, on the baseline and on
    /// Synthesis: the difference between runs of `2n` and `n` iterations,
    /// over `n`.
    #[must_use]
    pub fn per_iteration_us(&self, n: u32) -> (f64, f64) {
        let n_f = f64::from(n);
        let sun = run_sunos(self.on_sunos(2 * n)) - run_sunos(self.on_sunos(n));
        let syn = run_synthesis(self.on_synthesis(2 * n)) - run_synthesis(self.on_synthesis(n));
        (sun / n_f, syn / n_f)
    }

    /// The steady-state speedup at `n` iterations.
    #[must_use]
    pub fn speedup(&self, n: u32) -> f64 {
        let (sun, syn) = self.per_iteration_us(n);
        sun / syn
    }
}

/// A row of [`programs`]: label, paper speedup, program, bench file, `n`.
type Spec = (&'static str, f64, fn(u32) -> Asm, bool, u32);

/// The seven programs, each at an iteration count that runs it well past
/// its one-shot costs. The paper's speedups are derived from its seconds
/// columns.
#[must_use]
pub fn programs() -> [Program; 7] {
    #[rustfmt::skip]
    let rows: [Spec; 7] = [
        // 20.9 vs ~21 s: parity.
        ("1  compute (calibration)", 1.0, |n| programs::compute(1024, n), false, 2),
        ("2  r/w pipe, 1 byte", 56.0, |n| programs::pipe_rw(1, n), false, 1000),
        // ~15.3 vs ~3.3 s.
        ("3  r/w pipe, 1 KB", 4.7, |n| programs::pipe_rw(1024, n), false, 40),
        // 38.2 vs ~6.5 s.
        ("4  r/w pipe, 4 KB", 6.0, |n| programs::pipe_rw(4096, n), false, 10),
        ("5  r/w file, 1 KB", 9.0, programs::file_rw, true, 20),
        // "20 to 40 times".
        ("6  open /dev/null + close", 28.0, |n| programs::open_close(0, n), false, 20),
        ("7  open /dev/tty + close", 28.0, |n| programs::open_close(0x10, n), false, 20),
    ];
    rows.map(|(name, paper, build, bench_file, n)| Program {
        name,
        paper,
        build,
        bench_file,
        n,
    })
}

/// Regenerate Table 1.
#[must_use]
pub fn run() -> Vec<Row> {
    let row = |p: Program| {
        Row::new(
            p.name.to_owned() + " [speedup]",
            Some(p.paper),
            p.speedup(p.n),
            "x",
        )
    };
    programs().map(row).into()
}
