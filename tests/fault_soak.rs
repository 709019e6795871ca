//! Fault-injection soak: the kernel's recovery machinery under seeded
//! randomized device faults, across many distinct seeds.
//!
//! Each scenario boots a fresh kernel, installs a [`FaultPlan`] seeded
//! from the loop index, runs a real pipeline (tty or pipe), and checks
//! the recovery invariants:
//!
//! - successful reads carry intact data — faults may slow a transfer or
//!   kill it, but never silently corrupt or reorder it;
//! - guest-attributable machine errors (wild jumps, double faults) reap
//!   the offending thread instead of killing the kernel, and fault
//!   storms get the thread quarantined by the watchdog;
//! - the same seed reproduces byte-for-byte the same fault trace.

use synthesis::kernel::kernel::{irq_levels, Kernel, KernelConfig, KernelError};
use synthesis::kernel::layout;
use synthesis::kernel::syscall::{general, traps};
use synthesis::machine::asm::Asm;
use synthesis::machine::devices::tty::Tty;
use synthesis::machine::devices::{dev_reg_addr, tty};
use synthesis::machine::fault::{FaultConfig, FaultPlan, FaultRecord};
use synthesis::machine::isa::Size;
use synthesis::machine::isa::{Operand::*, Size::*};
use synthesis::machine::machine::RunExit;
use synthesis::machine::mem::AddressMap;
use synthesis::unix::emu::{boot_with_program, UnixEmulator};
use synthesis::unix::programs::{addrs, pipe_xfer};

/// Distinct seeds each pipeline soaks under.
const SEEDS: u64 = 32;

mod common;
use common::soak_seeds;

/// One seeded case of this suite: delegates to the shared soak plumbing
/// in `tests/common`, which prints the exact `SOAK_SEED=<seed>` replay
/// command (plus a trace-ring post-mortem) on failure.
fn soak_case<T>(test: &str, seed: u64, f: impl FnOnce(&mut Option<Kernel>) -> T) -> T {
    common::soak_case("fault_soak", test, seed, f)
}

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UBUF2: u32 = layout::USER_BASE + 0x3_0000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

fn emit_exit(a: &mut Asm) {
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).expect("kernel boots")
}

// ----------------------------------------------------------------- tty --

/// One tty soak run: a guest reads from `/dev/tty-raw` while 24 bytes
/// are typed through a plan that drops and duplicates characters.
/// Returns the fault trace.
fn tty_scenario(slot: &mut Option<Kernel>, seed: u64) -> Vec<FaultRecord> {
    let k = slot.insert(boot());
    k.m.fault = FaultPlan::seeded(
        seed,
        FaultConfig {
            tty_drop_permille: 60,
            tty_dup_permille: 60,
            timer_jitter_permille: 200,
            timer_jitter_magnitude_permille: 250,
            ..FaultConfig::none()
        },
    );
    let mut a = Asm::new("ttysoak");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0);
    a.trap(traps::GENERAL);
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF + 0x10));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/dev/tty-raw\0");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();

    let tty_idx = k.dev.tty;
    k.m.with_dev_ctx::<Tty, _>(tty_idx, |t, ctx| {
        t.type_at(b"the quick brown fox jump", 2000, ctx);
    })
    .unwrap();
    let ctrl = dev_reg_addr(tty_idx, tty::REG_CTRL);
    k.m.host_reg_write(ctrl, tty::CTRL_RX_IRQ);

    assert!(
        k.run_until_exit(tid, 500_000_000),
        "seed {seed}: the reader finishes despite dropped/duplicated input"
    );
    let got = k.m.mem.peek(UBUF + 0x10, Size::L) as usize;
    assert!((1..=8).contains(&got), "seed {seed}: short read of {got}");
    // Ground truth: the device records exactly what entered the FIFO
    // post-fault. A correct receive path reads a prefix of that, in
    // order — no loss, no reordering beyond the injected faults.
    let delivered = k.m.device_mut::<Tty>(tty_idx).unwrap().delivered.clone();
    assert!(delivered.len() >= got, "seed {seed}: read beyond delivery");
    assert_eq!(
        k.m.mem.peek_bytes(UBUF, got as u32),
        delivered[..got],
        "seed {seed}: guest bytes must match the post-fault stream"
    );
    k.m.fault.trace().to_vec()
}

#[test]
fn tty_pipeline_soaks_across_seeds() {
    let mut total_faults = 0usize;
    for seed in soak_seeds(SEEDS) {
        let trace = soak_case("tty_pipeline_soaks_across_seeds", seed, |slot| {
            let trace = tty_scenario(slot, seed);
            let replay = tty_scenario(slot, seed);
            assert!(
                trace == replay,
                "seed {seed}: fault trace must be reproducible \
                 ({} vs {} fault records)",
                trace.len(),
                replay.len()
            );
            trace
        });
        total_faults += trace.len();
    }
    assert!(total_faults > 0, "drop/dup rates must inject faults");
}

// ---------------------------------------------------------------- pipe --

/// One pipe soak run: writer → reader through a kernel pipe while the
/// interrupt fabric misbehaves (lost quantum raises, spurious device
/// interrupts, jittered timer periods).
fn pipe_scenario(slot: &mut Option<Kernel>, seed: u64) {
    let k = slot.insert(boot());
    k.m.fault = FaultPlan::seeded(seed, irq_chaos());
    pipe_run(k, seed);
}

/// The interrupt-fabric fault mix of the uniprocessor pipe soaks.
fn irq_chaos() -> FaultConfig {
    FaultConfig {
        irq_lost_permille: 150,
        irq_spurious_permille: 4,
        irq_spurious_levels: 0b0011_0100, // unassigned (2), tty (4), audio (5)
        timer_jitter_permille: 300,
        timer_jitter_magnitude_permille: 250,
        ..FaultConfig::none()
    }
}

/// The pipe workload body, shared by the uniprocessor and SMP chaos
/// soaks: build a reader and a writer, wire a kernel pipe between them,
/// run to the reader's exit, and check the payload arrived intact.
fn pipe_run(k: &mut Kernel, seed: u64) {
    pipe_run_sliced(k, seed, PIPE_RUN_CYCLES);
}

/// Cycle budget for the reader of [`pipe_run`] to exit in.
const PIPE_RUN_CYCLES: u64 = 500_000_000;

/// [`pipe_run`], `slice` cycles at a time, with the whole-state checkers
/// between slices — so they see the kernel after every quarantine and
/// resume, not only at the end.
fn pipe_run_sliced(k: &mut Kernel, seed: u64, slice: u64) {
    let mut reader = Asm::new("reader");
    reader.move_i(L, 0, Dr(0)); // rfd = fd 0 in the reader thread
    reader.lea(Abs(UBUF + 0x100), 0);
    reader.move_i(L, 8, Dr(1));
    reader.trap(traps::READ);
    reader.move_(L, Dr(0), Abs(UBUF2));
    emit_exit(&mut reader);

    let mut writer = Asm::new("writer");
    writer.move_i(L, 20_000, Dr(3)); // let the reader block first
    let spin = writer.here();
    writer.dbf(3, spin);
    writer.move_i(L, 1, Dr(0)); // wfd = fd 1 in the writer thread
    writer.lea(Abs(UBUF), 0);
    writer.move_i(L, 8, Dr(1));
    writer.trap(traps::WRITE);
    emit_exit(&mut writer);

    let re = k.load_user_program(reader.assemble().unwrap()).unwrap();
    let we = k.load_user_program(writer.assemble().unwrap()).unwrap();
    let rt = k.create_thread(re, USTACK, user_map()).unwrap();
    let wt = k.create_thread(we, USTACK + 0x1000, user_map()).unwrap();
    k.pipe_for(rt).unwrap();
    k.pipe_attach(wt, 0).unwrap();
    k.m.mem.poke_bytes(UBUF, b"pipesoak");
    k.start(rt).unwrap();
    k.start(wt).unwrap();
    let mut slices = PIPE_RUN_CYCLES / slice;
    while !k.run_until_exit(rt, slice) {
        slices -= 1;
        assert!(
            slices > 0,
            "seed {seed}: the reader finishes under interrupt chaos"
        );
        common::assert_chains_consistent(k);
        common::assert_code_consistent(k);
    }
    common::assert_chains_consistent(k);
    common::assert_code_consistent(k);
    assert_eq!(k.m.mem.peek(UBUF2, Size::L), 8, "seed {seed}");
    assert_eq!(
        k.m.mem.peek_bytes(UBUF + 0x100, 8),
        b"pipesoak",
        "seed {seed}: pipe data survives lost/spurious interrupts"
    );
}

#[test]
fn pipe_pipeline_soaks_across_seeds() {
    for seed in soak_seeds(SEEDS) {
        soak_case("pipe_pipeline_soaks_across_seeds", seed, |slot| {
            pipe_scenario(slot, seed);
        });
    }
}

// ----------------------------------------------------------------- smp --

fn boot_smp(cpus: usize) -> Kernel {
    Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("kernel boots")
}

/// One SMP chaos run: the pipe workload on a multiprocessor kernel under
/// the full SMP fault domain — lost/delayed/spurious reschedule IPIs and
/// transient dispatch stalls on top of the classic device soak. Returns
/// the fault trace.
fn smp_chaos_scenario(slot: &mut Option<Kernel>, seed: u64, cpus: usize) -> Vec<FaultRecord> {
    let k = slot.insert(boot_smp(cpus));
    k.m.fault = FaultPlan::seeded(seed, FaultConfig::soak_smp(cpus));
    pipe_run_sliced(k, seed, 100_000);
    k.m.fault.trace().to_vec()
}

/// The chaos soak: 32 seeds at 2 and at 4 CPUs, each run twice. Zero
/// hangs (the reader's exit is awaited under a cycle bound), byte-correct
/// pipe data, and a deterministic fault-trace replay per seed.
#[test]
fn smp_chaos_soaks_across_seeds() {
    for &cpus in &[2usize, 4] {
        let mut total_faults = 0usize;
        for seed in soak_seeds(SEEDS) {
            let trace = soak_case("smp_chaos_soaks_across_seeds", seed, |slot| {
                let trace = smp_chaos_scenario(slot, seed, cpus);
                let replay = smp_chaos_scenario(slot, seed, cpus);
                assert!(
                    trace == replay,
                    "seed {seed} at {cpus} CPUs: fault trace must be reproducible \
                     ({} vs {} fault records)",
                    trace.len(),
                    replay.len()
                );
                trace
            });
            total_faults += trace.len();
        }
        assert!(
            total_faults > 0,
            "the {cpus}-CPU chaos soak must inject faults"
        );
    }
}

/// The SMP fault classes are structurally unreachable on one CPU: the
/// dispatch seam never fires (`switch_cpu` to self is a no-op), no IPI
/// is ever remote, and the MP event-pump consult is gated on the CPU
/// count. Cranking every SMP rate to 50% therefore leaves a
/// uniprocessor run's fault trace byte-identical to the classic soak
/// plan's — which is what keeps pre-SMP seeds reproducible.
#[test]
fn uniprocessor_fault_trace_immune_to_smp_rates() {
    for seed in soak_seeds(8) {
        let classic = soak_case(
            "uniprocessor_fault_trace_immune_to_smp_rates",
            seed,
            |slot| {
                let k = slot.insert(boot_smp(1));
                k.m.fault = FaultPlan::seeded(seed, FaultConfig::soak());
                pipe_run(k, seed);
                k.m.fault.trace().to_vec()
            },
        );
        let cranked = soak_case(
            "uniprocessor_fault_trace_immune_to_smp_rates",
            seed,
            |slot| {
                let k = slot.insert(boot_smp(1));
                k.m.fault = FaultPlan::seeded(
                    seed,
                    FaultConfig {
                        ipi_lost_permille: 500,
                        ipi_delay_permille: 500,
                        ipi_delay_max_cycles: 50_000,
                        ipi_spurious_permille: 500,
                        cpu_stall_permille: 500,
                        cpu_stall_max_cycles: 100_000,
                        cpu_sick_permille: 500,
                        ..FaultConfig::soak()
                    },
                );
                pipe_run(k, seed);
                k.m.fault.trace().to_vec()
            },
        );
        assert_eq!(
            classic, cranked,
            "seed {seed}: SMP rates must not perturb a uniprocessor trace"
        );
    }
}

/// A sticky-sick CPU at 4 CPUs: every dispatch onto CPU 2 corrupts the
/// loaded context. The kernel repairs the context from the parked state,
/// charges CPU 2's fault budget, quarantines it, evacuates its ready
/// chain, and the whole workload completes on the remaining three CPUs.
#[test]
fn sick_cpu_is_quarantined_and_workload_completes() {
    let mut k = boot_smp(4);
    k.m.fault.sicken_cpu(2);

    const WORKERS: usize = 6;
    let mut tids = Vec::new();
    for i in 0..WORKERS {
        // A worker long enough (~7M cycles of nested countdown) to be
        // resident through several watchdog slices, then a token store
        // proving it finished with its state intact.
        let mut w = Asm::new("sickwork");
        w.move_i(L, 20, Dr(4));
        let outer = w.here();
        w.move_i(L, 60_000, Dr(3));
        let inner = w.here();
        w.dbf(3, inner);
        w.dbf(4, outer);
        let iu = u32::try_from(i).unwrap();
        w.move_i(L, 0xD00D + iu, Abs(UBUF2 + 4 * iu));
        emit_exit(&mut w);
        let entry = k.load_user_program(w.assemble().unwrap()).unwrap();
        let tid = k
            .create_thread(entry, USTACK + 0x1000 * (iu + 1), user_map())
            .unwrap();
        // Home workers round-robin across all four CPUs, sick one
        // included.
        k.threads.get_mut(&tid).unwrap().cpu = i % 4;
        tids.push(tid);
    }
    for &t in &tids {
        k.start(t).unwrap();
    }
    for _ in 0..400 {
        k.run(500_000);
        common::assert_chains_consistent(&k);
        common::assert_code_consistent(&k);
        if tids.iter().all(|t| k.exited.contains(t)) {
            break;
        }
    }
    assert!(
        tids.iter().all(|t| k.exited.contains(t)),
        "every worker completes on the healthy CPUs"
    );
    for i in 0..WORKERS {
        let iu = u32::try_from(i).unwrap();
        assert_eq!(
            k.m.mem.peek(UBUF2 + 4 * iu, Size::L),
            0xD00D + iu,
            "worker {i} finished with its state intact"
        );
    }
    assert!(k.is_cpu_quarantined(2), "the sick CPU ends up quarantined");
    assert!(k.recovery.cpus_quarantined.read() >= 1);
    assert!(
        k.recovery.threads_evacuated.read() >= 1,
        "threads resident on the sick CPU's chain were evacuated"
    );
    let rep = synthesis::kernel::monitor::recovery_report(&k);
    assert!(rep.cpus[2].quarantined);
    assert!(rep.cpus[2].fault_events > 0, "faults charged to the CPU");
    assert!(
        !rep.cpus[0].quarantined && !rep.cpus[1].quarantined && !rep.cpus[3].quarantined,
        "healthy CPUs stay in service"
    );
}

/// Regression: a thread the watchdog quarantined must never be migrated
/// onto another CPU's chain — not by stealing, and not by the CPU
/// evacuation path when its home CPU is quarantined out from under it.
#[test]
fn quarantined_thread_is_not_evacuated_onto_healthy_cpus() {
    let mut k = boot_smp(2);
    let mut a = Asm::new("qspin");
    let top = a.here();
    a.bcc(synthesis::machine::isa::Cond::T, top);
    let block = k.load_user_program(a.assemble().unwrap()).unwrap();
    let victim = k.create_thread(block, USTACK, user_map()).unwrap();
    let innocent = k.create_thread(block, USTACK + 0x1000, user_map()).unwrap();
    k.threads.get_mut(&victim).unwrap().cpu = 1;
    k.threads.get_mut(&innocent).unwrap().cpu = 1;
    k.start(victim).unwrap();
    k.start(innocent).unwrap();

    k.quarantine(victim, "test: supervisor flagged it");
    assert!(k.is_quarantined(victim));
    common::assert_chains_consistent(&k);
    assert!(
        k.quarantine_cpu(1, "test: evacuation drill"),
        "CPU 1 can be quarantined while CPU 0 is healthy"
    );
    common::assert_chains_consistent(&k);

    // The innocent spinner moved to CPU 0; the quarantined one is on no
    // chain at all and stays that way.
    assert!(
        k.cpus[0].ready.contains(innocent),
        "the innocent thread was evacuated onto the healthy CPU"
    );
    assert!(
        !k.cpus[0].ready.contains(victim),
        "the quarantined thread must not ride the evacuation"
    );
    assert!(!k.cpus[1].ready.contains(victim));
    assert!(k.recovery.threads_evacuated.read() >= 1);
    // And it never comes back through the scheduler either.
    assert!(matches!(k.start(victim), Err(KernelError::Invalid(_))));
    k.run(2_000_000);
    assert!(!k.cpus[0].ready.contains(victim));
    assert!(k.is_quarantined(victim));
}

// --------------------------------------------------------------- fused --
//
// Run-time code rewriting under faults: `programs::pipe_xfer` booted
// through `boot_with_program` runs with its syscall traps elided, its
// `read`/`write` sites bound to fused per-(tid, fd) wrappers on first
// call and re-armed at `close`. These scenarios drive that bind/unbind
// machinery through the same fault domains as the layered soaks above.

/// One fused transfer: `rounds` pipes, each carrying `iters` chunks.
#[derive(Clone, Copy)]
struct Xfer {
    chunk: u32,
    iters: u32,
    rounds: u32,
}

impl Xfer {
    /// Shape per seed: the 1-byte fast path, an odd size that wraps the
    /// ring unevenly, and two copy-loop sizes, each iterated long enough
    /// to span a few hundred quanta.
    fn for_seed(seed: u64, rounds: u32) -> Xfer {
        let (chunk, iters) = [(1, 2000), (7, 2000), (64, 400), (1024, 60)][(seed % 4) as usize];
        Xfer {
            chunk,
            iters,
            rounds,
        }
    }
}

/// Boot the fused transfer on `cpus` CPUs under `faults`, with the
/// source buffer seeded.
fn fused_boot(
    x: Xfer,
    seed: u64,
    cpus: usize,
    faults: FaultConfig,
) -> (UnixEmulator, u32, Vec<u8>) {
    let cfg = KernelConfig {
        cpus,
        ..KernelConfig::default()
    };
    let (mut emu, tid) =
        boot_with_program(cfg, pipe_xfer(x.chunk, x.iters, x.rounds)).expect("boots");
    emu.k.m.fault = FaultPlan::seeded(seed, faults);
    let data: Vec<u8> = (0..x.chunk)
        .map(|i| ((u64::from(i) * 31 + seed * 7 + 3) % 251) as u8)
        .collect();
    emu.k.m.mem.poke_bytes(addrs::BUF, &data);
    (emu, tid, data)
}

/// The transfer ran to its exit with every byte counted and intact, and
/// the rewritten program is left consistent: every `jsr` in it targets
/// loaded code (a site still aimed at an evicted wrapper would be a
/// wild jump on the next call), and no cache reference outlived the
/// thread.
fn fused_check(emu: &UnixEmulator, x: Xfer, seed: u64, data: &[u8]) {
    use synthesis::machine::isa::Instr;
    assert_eq!(
        emu.k.m.mem.peek(addrs::RESULT, Size::L),
        2 * x.chunk * x.iters * x.rounds,
        "seed {seed}: every read and write moved its full chunk"
    );
    assert_eq!(
        emu.k.m.mem.peek_bytes(addrs::XFER_DST, x.chunk),
        data,
        "seed {seed}: fused pipe data survives the faults"
    );
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF, x.chunk), data);
    let program = emu
        .k
        .m
        .code
        .iter()
        .map(|(_, b)| b)
        .find(|b| &*b.name == "pipe_xfer")
        .expect("the program stays loaded");
    let mut sites = 0;
    for i in &program.instrs {
        if let Instr::Jsr(Abs(target)) = i {
            sites += 1;
            assert!(
                emu.k.m.code.locate(*target).is_some(),
                "seed {seed}: call site targets unloaded code at {target:#x}"
            );
        }
    }
    assert!(
        sites >= 5,
        "the program's traps were elided ({sites} sites)"
    );
    assert_eq!(
        emu.k.creator.cache.resident_bytes(),
        emu.k.creator.cache.warm_bytes(),
        "seed {seed}: a fused wrapper reference outlived its thread"
    );
}

/// One fused chaos run; returns the fault trace.
fn fused_chaos_scenario(seed: u64, cpus: usize) -> Vec<FaultRecord> {
    let faults = if cpus == 1 {
        irq_chaos()
    } else {
        FaultConfig::soak_smp(cpus)
    };
    let x = Xfer::for_seed(seed, 1);
    let (mut emu, tid, data) = fused_boot(x, seed, cpus, faults);
    // In slices, so the whole-state checker sees the kernel between the
    // binds, unbinds and recoveries rather than only after the last.
    let mut slices = 0;
    while !emu.run_until_exit(tid, 100_000) {
        slices += 1;
        assert!(
            slices < 20_000,
            "seed {seed} at {cpus} CPUs: the fused transfer finishes under chaos"
        );
        common::assert_chains_consistent(&emu.k);
        common::assert_code_consistent(&emu.k);
    }
    common::assert_chains_consistent(&emu.k);
    common::assert_code_consistent(&emu.k);
    fused_check(&emu, x, seed, &data);
    emu.k.m.fault.trace().to_vec()
}

/// The fused program under the interrupt-fault mix at 1 CPU and the full
/// SMP fault domain at 2 and 4: completion, byte-correct data, and a
/// deterministic fault-trace replay per seed.
#[test]
fn fused_pipe_soaks_across_seeds_and_cpus() {
    for cpus in [1usize, 2, 4] {
        let mut total_faults = 0usize;
        for seed in soak_seeds(SEEDS) {
            total_faults += soak_case("fused_pipe_soaks_across_seeds_and_cpus", seed, |_| {
                let trace = fused_chaos_scenario(seed, cpus);
                let replay = fused_chaos_scenario(seed, cpus);
                assert!(
                    trace == replay,
                    "seed {seed} at {cpus} CPUs: fault trace must be reproducible \
                     ({} vs {} fault records)",
                    trace.len(),
                    replay.len()
                );
                trace.len()
            });
        }
        assert!(total_faults > 0, "the {cpus}-CPU fused soak injects faults");
    }
}

/// Eviction racing bound sites: flush the cache and squeeze its budget
/// to almost nothing while the program sits between calls with its
/// sites bound, then let it continue through further unbind/rebind
/// rounds. Bound wrappers are pinned by their sites' references, so
/// nothing in use is evicted; everything released afterwards is trimmed
/// at once and resynthesized on the next bind.
#[test]
fn cache_eviction_under_bound_sites_keeps_fused_io_correct() {
    for seed in soak_seeds(4) {
        soak_case(
            "cache_eviction_under_bound_sites_keeps_fused_io_correct",
            seed,
            |_| {
                let x = Xfer::for_seed(seed, 3);
                let (mut emu, tid, data) = fused_boot(x, seed, 1, FaultConfig::none());
                let mut squeezes = 0;
                while !emu.k.exited.contains(&tid) {
                    assert!(
                        squeezes < 100_000,
                        "seed {seed}: the transfer never finished"
                    );
                    emu.run(50_000);
                    let live =
                        emu.k.creator.cache.resident_bytes() - emu.k.creator.cache.warm_bytes();
                    emu.k.creator.flush_cache(&mut emu.k.m);
                    emu.k.creator.set_cache_budget(&mut emu.k.m, 16);
                    assert_eq!(
                        emu.k.creator.cache.resident_bytes(),
                        live,
                        "seed {seed}: eviction took exactly the unreferenced blocks"
                    );
                    squeezes += 1;
                }
                assert!(squeezes > 3, "the squeeze landed mid-transfer");
                fused_check(&emu, x, seed, &data);
            },
        );
    }
}

/// CPU quarantine under a fused caller: the CPU running the program
/// turns sick mid-transfer at 4 CPUs. The kernel quarantines it and
/// evacuates the thread — wherever it was parked, inside a fused
/// wrapper or between calls — and the transfer finishes on the
/// survivors with its data intact.
#[test]
fn sick_cpu_under_a_fused_program_finishes_on_the_survivors() {
    // Long enough for the sick CPU to spend its whole fault budget.
    let x = Xfer {
        chunk: 64,
        iters: 8000,
        rounds: 1,
    };
    let (mut emu, tid, data) = fused_boot(x, 0, 4, FaultConfig::none());
    // A spinner on every other CPU keeps the rotation dispatching all
    // four — a CPU is only ever sick at dispatch. Their user-window map
    // gets its own id: the evacuated program must arrive through
    // `sw_in_mmu` and get its flat map back.
    let window = AddressMap::single(2, layout::USER_BASE, layout::USER_LEN);
    let home = emu.k.threads[&tid].cpu;
    let mut spin = Asm::new("bystander");
    let top = spin.here();
    spin.bcc(synthesis::machine::isa::Cond::T, top);
    let entry = emu.k.load_user_program(spin.assemble().unwrap()).unwrap();
    for cpu in (0..4).filter(|&c| c != home) {
        let t = emu.k.create_thread(entry, USTACK, window.clone()).unwrap();
        emu.k.threads.get_mut(&t).unwrap().cpu = cpu;
        emu.k.start(t).unwrap();
    }
    emu.run(200_000);
    assert!(!emu.k.exited.contains(&tid), "sickened mid-transfer");
    assert_eq!(emu.k.threads[&tid].cpu, home, "nothing to steal it for");
    emu.k.m.fault.sicken_cpu(home);
    let mut slices = 0;
    while !emu.run_until_exit(tid, 1_000_000) {
        slices += 1;
        assert!(
            slices < 2_000,
            "the fused transfer finishes on the healthy CPUs"
        );
        common::assert_chains_consistent(&emu.k);
        common::assert_code_consistent(&emu.k);
    }
    common::assert_chains_consistent(&emu.k);
    fused_check(&emu, x, 0, &data);
    assert!(
        emu.k.is_cpu_quarantined(home),
        "the sick CPU ends up quarantined"
    );
    assert!(emu.k.recovery.threads_evacuated.read() >= 1);
}

// ------------------------------------------------------------ recovery --

/// A guest thread that jumps through a corrupted trap vector dies alone:
/// the kernel reaps it and every other thread keeps running.
#[test]
fn wild_jump_is_reaped_not_fatal() {
    for seed in soak_seeds(8) {
        soak_case("wild_jump_is_reaped_not_fatal", seed, |slot| {
            wild_jump_scenario(slot, seed);
        });
    }
}

fn wild_jump_scenario(slot: &mut Option<Kernel>, seed: u64) {
    {
        let k = slot.insert(boot());
        k.m.fault = FaultPlan::seeded(seed, FaultConfig::soak());

        let mut v = Asm::new("victim");
        v.trap(traps::UNIX); // vector corrupted below
        let victim_entry = k.load_user_program(v.assemble().unwrap()).unwrap();
        let victim = k.create_thread(victim_entry, USTACK, user_map()).unwrap();
        // The thread has scribbled a wild address over its own trap
        // vector: taking the trap lands the PC outside any code block.
        k.set_vector(victim, 32 + u32::from(traps::UNIX), 0x00F0_0000)
            .unwrap();

        let mut g = Asm::new("good");
        g.move_i(L, 0xA11_C1EA, Abs(UBUF2 + 0x40));
        emit_exit(&mut g);
        let good_entry = k.load_user_program(g.assemble().unwrap()).unwrap();
        let good = k
            .create_thread(good_entry, USTACK + 0x1000, user_map())
            .unwrap();

        k.start(victim).unwrap();
        k.start(good).unwrap();
        assert!(
            k.run_until_exit(good, 500_000_000),
            "seed {seed}: the innocent thread outlives the reaping"
        );
        assert_eq!(k.m.mem.peek(UBUF2 + 0x40, Size::L), 0xA11_C1EA);
        // Keep the kernel running until the victim's trap lands and the
        // reaper does its job.
        assert_eq!(k.run(5_000_000), RunExit::CycleLimit);
        assert!(k.recovery.reaped.read() >= 1, "seed {seed}: reap counted");
        assert!(
            k.recovery_log
                .iter()
                .any(|(t, why)| *t == victim && why.starts_with("reaped")),
            "seed {seed}: the reap is attributed to the faulting thread"
        );
        assert!(
            !k.threads.contains_key(&victim),
            "seed {seed}: the reaped thread is fully torn down"
        );
    }
}

/// Start a thread stuck re-faulting through its own (sabotaged) error
/// handler.
fn start_storm(k: &mut Kernel) -> u32 {
    let mut a = Asm::new("storm");
    a.move_(L, Abs(0x10), Dr(0)); // bus error, forever
    a.rte(); // "handler": return straight into the fault
    let block = a.assemble().unwrap();
    let stub = block.offsets[1];
    let entry = k.load_user_program(block).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    // Sabotage the bus-error vector so the fault never reaches the
    // default exit handler: fault -> rte -> fault, stack-neutral.
    k.set_vector(tid, 2, entry + stub).unwrap();
    k.start(tid).unwrap();
    tid
}

/// A storming thread is quarantined by the watchdog instead of
/// monopolizing the CPU.
#[test]
fn fault_storm_thread_is_quarantined() {
    let mut k = boot();
    let tid = start_storm(&mut k);

    assert_eq!(k.run(5_000_000), RunExit::CycleLimit);
    assert!(k.is_quarantined(tid), "the storm thread is quarantined");
    assert_eq!(k.recovery.quarantined.read(), 1);
    assert!(
        k.recovery_log.iter().any(|(t, _)| *t == tid),
        "the quarantine is logged against the thread"
    );
    assert!(
        matches!(k.start(tid), Err(KernelError::Invalid(_))),
        "a quarantined thread cannot be restarted"
    );
    // The kernel itself is fine: idle keeps accumulating virtual time.
    let t0 = k.m.now_us();
    assert_eq!(k.run(200_000), RunExit::CycleLimit);
    assert!(k.m.now_us() > t0, "the kernel survived the storm");
}

/// Regression: a thread's fault history ends with it. The machine counts
/// error faults per vector-table address and the heap hands a destroyed
/// thread's vector table to the next thread created, which used to be
/// quarantined at its first sweep for the faults of its predecessor.
#[test]
fn a_recycled_vector_table_inherits_no_fault_count() {
    let mut k = boot();
    let storm = start_storm(&mut k);
    assert_eq!(k.run(5_000_000), RunExit::CycleLimit);
    assert!(k.is_quarantined(storm));
    let vt = k.threads[&storm].vt();
    k.destroy(storm).unwrap();

    let mut a = Asm::new("innocent");
    let top = a.here();
    a.bcc(synthesis::machine::isa::Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert_eq!(
        k.threads[&tid].vt(),
        vt,
        "premise: the vector table is reused"
    );
    assert_eq!(k.run(1_000_000), RunExit::CycleLimit);
    assert!(!k.is_quarantined(tid), "{:?}", k.recovery_log);
    assert_eq!(k.recovery_log.len(), 1, "{:?}", k.recovery_log);
    common::assert_chains_consistent(&k);
}

// ------------------------------------------------------ one timeline --

/// The cycles at which CPU `cpu` accepted an interrupt at `level`, from
/// the kernel's trace.
fn accepts(k: &mut Kernel, cpu: usize, level: u8) -> Vec<u64> {
    let q = synthesis::kernel::trace::TraceQuery::snapshot(k);
    q.kind(synthesis::kernel::trace::Kind::Irq)
        .records()
        .iter()
        .filter(|r| usize::from(r.flags) == cpu && r.a == u32::from(level))
        .map(|r| r.cycle)
        .collect()
}

/// A CPU's quarantine moves the IPIs in flight to it with the rest of its
/// timeline: one still in flight lands on the CPU that took its work,
/// after the delay it had left.
#[test]
fn a_delayed_ipi_to_a_quarantined_cpu_lands_on_the_target_after_its_remaining_delay() {
    let mut k = boot_smp(2);
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(synthesis::machine::isa::Cond::T, top);
    let block = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(block, USTACK, user_map()).unwrap();
    // Both CPUs settle into their idle loops; the spinner is homed on the
    // one not active, so starting it sends that CPU an IPI.
    k.run(200_000);
    let home = 1 - k.m.active_cpu();
    let target = 1 - home;
    k.threads.get_mut(&tid).unwrap().cpu = home;
    k.m.fault = FaultPlan::seeded(
        1,
        FaultConfig {
            ipi_delay_permille: 1000,
            ipi_delay_max_cycles: 20_000,
            ..FaultConfig::none()
        },
    );
    let sent_at = k.m.cpu_cycles(home);
    k.start(tid).unwrap();
    let due = match k.m.fault.trace() {
        [FaultRecord::IpiDelayed { cpu, delay, .. }] if *cpu == home => sent_at + delay,
        other => panic!("expected one IPI delayed to cpu {home}, got {other:?}"),
    };
    let left = due - k.m.cpu_cycles(home);

    assert!(k.quarantine_cpu(home, "test: an IPI in flight"));
    let lands = k.m.cpu_cycles(target) + left;
    common::assert_chains_consistent(&k);
    k.run(100_000);
    assert_eq!(accepts(&mut k, home, irq_levels::IPI), []);
    let at = accepts(&mut k, target, irq_levels::IPI);
    assert_eq!(at.len(), 1, "the IPI landed once, on the target");
    assert!(
        (lands..lands + 16).contains(&at[0]),
        "accepted at {}, {left} cycles after the quarantine at {}",
        at[0],
        lands - left
    );
    assert_eq!(k.current_tid_on(target), Some(tid), "the spinner moved");
}

/// A quarantine leaves a healthy CPU active, so the tty's arrival
/// events, raises and clears all land on a CPU that runs: with the
/// active CPU 0 quarantined, bytes typed right after reach the raw
/// reader exactly, one interrupt each, while CPU 0 is still out.
#[test]
fn a_quarantined_boot_cpu_leaves_the_raw_tty_exact() {
    const TYPED: &[u8] = b"quarantine";
    let mut k = boot_smp(2);
    assert_eq!(k.m.active_cpu(), 0);
    assert!(k.quarantine_cpu(0, "test: tty on the survivor"));

    let mut a = Asm::new("ttyexact");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UBUF2), 0);
    a.trap(traps::GENERAL);
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 64, Dr(1));
    a.trap(traps::READ);
    a.move_(L, Dr(0), Abs(UBUF + 0x100));
    emit_exit(&mut a);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    k.m.mem.poke_bytes(UBUF2, b"/dev/tty-raw\0");
    let reader = k.create_thread(entry, USTACK, user_map()).unwrap();

    let tty_idx = k.dev.tty;
    k.m.with_dev_ctx::<Tty, _>(tty_idx, |t, ctx| t.type_at(TYPED, 2000, ctx))
        .unwrap();
    k.m.host_reg_write(dev_reg_addr(tty_idx, tty::REG_CTRL), tty::CTRL_RX_IRQ);
    // Every byte arrives (8,000 cycles apart) before the reader asks, so
    // one read takes all; CPU 0's probation is 32 sweeps away.
    k.run(1_000_000);
    common::assert_chains_consistent(&k);
    k.start(reader).unwrap();
    assert!(k.run_until_exit(reader, 1_000_000), "the reader finishes");
    assert!(k.is_cpu_quarantined(0), "all of it on CPU 1");

    let got = k.m.mem.peek(UBUF + 0x100, Size::L);
    assert_eq!(got as usize, TYPED.len(), "one byte per typed byte");
    assert_eq!(k.m.mem.peek_bytes(UBUF, got), TYPED);
    let tty_irqs = k.m.irq.accepted[usize::from(irq_levels::TTY)];
    assert_eq!(tty_irqs, TYPED.len() as u64, "one interrupt per byte");
    common::assert_chains_consistent(&k);
}
