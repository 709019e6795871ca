//! Capacity soak: 10k+ threads and channels, O(1) dispatch by trace,
//! SpecCache eviction under pressure.
//!
//! Where Tables 1–5 time single calls and the SMP driver scales CPUs,
//! this driver scales *population*: boot a kernel whose quaspace
//! partition ([`MemLayout::for_threads`]) holds tens of thousands of
//! TTEs, drive mixed open/close + signal traffic through it, and read
//! three claims off the meters:
//!
//! 1. **O(1) dispatch.** The ready queue is the executable `jmp` chain
//!    (Figure 3), so the quantum-interrupt→next-dispatch path must cost
//!    the same cycles at 10,000 ready threads as at 100. The PR-5 trace
//!    layer timestamps both edges (`Irq` at the quantum level, then
//!    `CtxSwitch` from the next thread's `sw_in`), so the claim is a
//!    measured distribution, not a hope.
//! 2. **Eviction under pressure.** With a warm-entry byte budget, the
//!    specialization cache retains released code and re-links it on the
//!    next identical open; the hit-rate-vs-resident-bytes curve shows
//!    what each budget buys.
//! 3. **No churn leaks.** 10k× thread synthesize/destroy cycles return
//!    the fast-fit heap and the code buffer to their starting bytes.

use std::collections::HashMap;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::layout::MemLayout;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;
use synthesis_core::thread::Tid;
use synthesis_core::trace::{Kind, TraceQuery};

/// Concurrent threads at full scale (the BENCH_8 acceptance floor).
pub const FULL_THREADS: usize = 10_000;
/// Open/close churn cycles per eviction-curve point at full scale.
pub const FULL_CHURN_PER_POINT: usize = 3_000;
/// Thread synthesize/destroy cycles at full scale.
pub const FULL_LIFECYCLE: usize = 10_000;
/// The dispatch baseline population.
pub const BASELINE_THREADS: usize = 100;
/// Eviction budgets swept by the hit-rate curve (bytes of warm code).
pub const BUDGETS: [u32; 5] = [0, 2_048, 8_192, 32_768, 131_072];
/// Virtual cycles the run phase covers per scale point.
pub const RUN_CYCLES: u64 = 2_000_000;

/// Full-scale counts in release builds; ~20× smaller under
/// `debug_assertions` so `cargo test` stays quick. The `tables` binary
/// is built in release, so BENCH_8 always reports full scale.
#[must_use]
pub fn default_threads() -> usize {
    if cfg!(debug_assertions) {
        500
    } else {
        FULL_THREADS
    }
}

/// Churn cycles per curve point, debug-scaled like
/// [`default_threads`].
#[must_use]
pub fn default_churn_per_point() -> usize {
    if cfg!(debug_assertions) {
        300
    } else {
        FULL_CHURN_PER_POINT
    }
}

/// Thread lifecycle cycles, debug-scaled like [`default_threads`].
#[must_use]
pub fn default_lifecycle() -> usize {
    if cfg!(debug_assertions) {
        500
    } else {
        FULL_LIFECYCLE
    }
}

/// Boot a kernel scaled to hold `threads` threads, with `cpus` CPUs.
/// Trace rings are kept small (64 records/thread) so 10k rings stay
/// cheap.
#[must_use]
pub fn boot_capacity(threads: usize, cpus: usize) -> Kernel {
    let layout = MemLayout::for_threads(u32::try_from(threads).unwrap_or(u32::MAX) + 64);
    Kernel::boot(KernelConfig {
        cpus,
        layout,
        trace_records: 64,
        ..KernelConfig::default()
    })
    .expect("capacity kernel boots")
}

/// The single-region user address map for a capacity kernel.
#[must_use]
pub fn user_map(k: &Kernel) -> AddressMap {
    AddressMap::single(1, k.layout.user_base, k.layout.user_len)
}

/// Load the shared spinner program: install the signal handler whose
/// entry is parked at `handler_slot`, then spin bumping `spin_ctr`.
/// Every thread runs this same code — entry, map, and quantum are
/// identical, so dispatch cost has no per-thread excuse to vary.
pub fn load_spinner(k: &mut Kernel, handler_slot: u32, spin_ctr: u32, sig_ctr: u32) -> u32 {
    let mut hb = Asm::new("cap_sighandler");
    hb.add(L, Imm(1), Abs(sig_ctr));
    hb.move_i(L, general::SIG_RETURN, Dr(0));
    hb.trap(traps::GENERAL);
    let dead = hb.here();
    hb.bcc(Cond::T, dead);
    let handler = k
        .load_user_program(hb.assemble().expect("assembles"))
        .expect("handler fits");
    k.m.mem.poke(handler_slot, L, handler);

    let mut a = Asm::new("cap_spinner");
    a.move_i(L, general::SET_SIG_HANDLER, Dr(0));
    a.move_(L, Abs(handler_slot), Dr(1));
    a.trap(traps::GENERAL);
    let top = a.here();
    a.add(L, Imm(1), Abs(spin_ctr));
    a.bcc(Cond::T, top);
    k.load_user_program(a.assemble().expect("assembles"))
        .expect("spinner fits")
}

/// Latency percentiles in virtual µs.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
}

/// Percentiles of an unsorted sample set.
#[must_use]
pub fn percentiles(mut samples: Vec<f64>) -> Percentiles {
    if samples.is_empty() {
        return Percentiles {
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max: 0.0,
        };
    }
    samples.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let i = ((samples.len() - 1) as f64 * p).round() as usize;
        samples[i.min(samples.len() - 1)]
    };
    Percentiles {
        p50: at(0.50),
        p90: at(0.90),
        p99: at(0.99),
        max: *samples.last().expect("non-empty"),
    }
}

/// The quantum-interrupt→dispatch cycle distribution at one population.
#[derive(Debug, Clone)]
pub struct DispatchPoint {
    /// CPUs in the kernel.
    pub cpus: usize,
    /// Ready threads when measured.
    pub threads: usize,
    /// Measured `Irq(quantum)`→`CtxSwitch` deltas (virtual cycles).
    pub samples: usize,
    /// Median delta.
    pub median_cycles: u64,
    /// Worst delta.
    pub max_cycles: u64,
}

/// `Irq(quantum)`→next guest `CtxSwitch` cycle deltas from a drained
/// trace, paired per recording CPU (each CPU has its own clock and its
/// own chain; a neighbour's records falling in between are not this
/// CPU's dispatch). Guest dispatches only (`CtxSwitch` with `a == 0`):
/// host-side `enter` calls are kernel surgery, not the executable chain.
#[must_use]
pub fn dispatch_deltas(q: &TraceQuery) -> Vec<u64> {
    let mut recs: Vec<_> = q.records().to_vec();
    recs.sort_by_key(|r| r.cycle);
    let mut pending: HashMap<u16, u64> = HashMap::new();
    let mut out = Vec::new();
    for r in &recs {
        match r.kind {
            Kind::Irq if r.a == u32::from(irq_levels::QUANTUM) => {
                pending.insert(r.flags, r.cycle);
            }
            Kind::CtxSwitch if r.a == 0 => {
                if let Some(c0) = pending.remove(&r.flags) {
                    out.push(r.cycle.saturating_sub(c0));
                }
            }
            _ => {}
        }
    }
    out
}

/// Median of a sample set (0 when empty).
#[must_use]
pub fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// One population's worth of scale figures.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// CPUs in the kernel.
    pub cpus: usize,
    /// Threads created and started.
    pub threads: usize,
    /// Channels (fds) left open across the run — one per thread.
    pub channels_open: usize,
    /// create+start latency percentiles (virtual µs).
    pub spawn: Percentiles,
    /// Spinner loop iterations summed over all threads.
    pub spin_ops: u64,
    /// Virtual milliseconds the run phase covered.
    pub elapsed_ms: f64,
    /// `spin_ops / elapsed_ms`.
    pub ops_per_ms: f64,
    /// Signals sent from the host between slices.
    pub signals_sent: u64,
    /// Signal-handler executions observed in guest memory.
    pub signals_delivered: u64,
    /// Dispatch distribution measured *at this population*.
    pub dispatch: DispatchPoint,
    /// Fast-fit bytes in use after spawn (TTEs, stacks, vector tables).
    pub heap_in_use: u32,
    /// Code-buffer bytes in use after spawn.
    pub code_in_use: u32,
}

/// Boot at `threads` scale, spawn the population, open a channel per
/// thread, run with signal traffic, and measure dispatch by trace.
#[must_use]
pub fn scale_point(threads: usize, cpus: usize) -> ScalePoint {
    let mut k = boot_capacity(threads, cpus);
    let ub = k.layout.user_base;
    let (handler_slot, spin_ctr, sig_ctr) = (ub + 0x100, ub + 0x108, ub + 0x110);
    let ustack = ub + 0x1_0000;
    let entry = load_spinner(&mut k, handler_slot, spin_ctr, sig_ctr);
    let map = user_map(&k);

    // Spawn phase: one create+start per thread, timed in virtual µs.
    // Homes round-robin over the CPUs so every chain carries its share.
    // The signal handler is installed host-side at spawn (the spinner's
    // own SET_SIG_HANDLER trap would only run once the thread is first
    // dispatched — at 10k threads most never are within the window).
    let handler = k.m.mem.peek(handler_slot, L);
    let mut tids = Vec::with_capacity(threads);
    let mut lat = Vec::with_capacity(threads);
    for i in 0..threads {
        let c0 = k.m.meter.cycles;
        let tid = k.create_thread(entry, ustack, map.clone()).expect("fits");
        k.threads.get_mut(&tid).expect("exists").cpu = i % cpus;
        k.start(tid).expect("starts");
        lat.push(k.m.cost.cycles_to_us(k.m.meter.cycles.saturating_sub(c0)));
        let tte = k.threads[&tid].tte;
        k.m.mem.poke(tte + off::SIG_HANDLER, L, handler);
        tids.push(tid);
    }

    // One open channel per thread, held across the run.
    let mut channels = 0usize;
    for &tid in &tids {
        if k.open_for(tid, "/dev/null").is_ok() {
            channels += 1;
        }
    }

    let heap_in_use = k.heap.in_use;
    let code_in_use = k.creator.codebuf.in_use;

    // Run phase with signal traffic: between slices, signal the threads
    // about to be dispatched (the chain nodes after each CPU's current
    // one, 16 per slice in all), so delivery lands within a few quanta
    // even at 10k threads.
    let start = (0..cpus).map(|i| k.m.cpu_cycles(i)).max().unwrap_or(0);
    let slices = 8u64;
    let mut signals_sent = 0u64;
    for _ in 0..slices {
        k.run(RUN_CYCLES / slices);
        for c in 0..cpus {
            let mut cursor = k.current_tid_on(c);
            for _ in 0..16 / cpus {
                let Some(cur) = cursor else { break };
                let Some(next) = k.cpus[c].ready.next_of_id(cur) else {
                    break;
                };
                let installed = k
                    .threads
                    .get(&next)
                    .is_some_and(|t| k.m.mem.peek(t.tte + off::SIG_HANDLER, L) != 0);
                if installed && k.signal(next, 1).is_ok() {
                    signals_sent += 1;
                }
                cursor = Some(next);
            }
        }
    }
    let end = (0..cpus).map(|i| k.m.cpu_cycles(i)).max().unwrap_or(0);
    let elapsed_ms = k.m.cost.cycles_to_us(end.saturating_sub(start)) / 1_000.0;

    let spin_ops = u64::from(k.m.mem.peek(spin_ctr, L));
    let signals_delivered = u64::from(k.m.mem.peek(sig_ctr, L));
    let deltas = dispatch_deltas(&TraceQuery::drain(&mut k));
    let dispatch = DispatchPoint {
        cpus,
        threads,
        samples: deltas.len(),
        median_cycles: median(deltas.clone()),
        max_cycles: deltas.iter().copied().max().unwrap_or(0),
    };
    ScalePoint {
        cpus,
        threads,
        channels_open: channels,
        spawn: percentiles(lat),
        spin_ops,
        elapsed_ms,
        ops_per_ms: if elapsed_ms > 0.0 {
            spin_ops as f64 / elapsed_ms
        } else {
            0.0
        },
        signals_sent,
        signals_delivered,
        dispatch,
        heap_in_use,
        code_in_use,
    }
}

/// The 100-thread dispatch baseline the O(1) assertion compares against.
#[must_use]
pub fn dispatch_baseline(cpus: usize) -> DispatchPoint {
    scale_point(BASELINE_THREADS, cpus).dispatch
}

/// One point of the hit-rate-vs-resident-bytes curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Warm-entry byte budget.
    pub budget: u32,
    /// Open/close cycles driven.
    pub cycles: usize,
    /// Cache hits during the churn.
    pub hits: u64,
    /// Cache misses during the churn.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Cache-resident code bytes at the end (live + warm).
    pub resident_bytes: u64,
    /// Warm (refcount-zero, retained) bytes at the end.
    pub warm_bytes: u64,
}

/// Drive `cycles` open/close cycles under `budget` and report the hit
/// accounting. The working set is `tids × paths` distinct channel keys
/// (per-thread gauge slots specialize the code per thread), several
/// times larger than the small budgets: the eviction policy has to
/// choose.
#[must_use]
pub fn churn_point(cycles: usize, budget: u32) -> CurvePoint {
    let mut k = boot_capacity(64, 1);
    k.creator.set_cache_budget(&mut k.m, budget);
    let ub = k.layout.user_base;
    let entry = load_spinner(&mut k, ub + 0x100, ub + 0x108, ub + 0x110);
    let map = user_map(&k);
    let ustack = ub + 0x1_0000;
    let tids: Vec<Tid> = (0..24)
        .map(|_| k.create_thread(entry, ustack, map.clone()).expect("fits"))
        .collect();
    for f in 0..6 {
        k.fs.create(&mut k.m, &mut k.heap, &format!("/tmp/cap{f}"), 4096)
            .expect("file fits");
    }
    let paths: Vec<String> = ["/dev/null".to_string(), "/dev/tty".to_string()]
        .into_iter()
        .chain((0..6).map(|f| format!("/tmp/cap{f}")))
        .collect();

    let (h0, m0) = (k.creator.stats.cache_hits, k.creator.stats.cache_misses);
    // Skewed traffic: 3 of 4 opens hit a hot set of 8 (tid, path) keys,
    // the rest sweep the full tids × paths cross product cyclically
    // (decoupled indices so the sweep is not gcd-locked). Small budgets
    // can capture the hot set; only large ones hold the cold tail.
    let mut cold = 0usize;
    for i in 0..cycles {
        let (tid, path) = if i % 4 != 0 {
            (tids[i % 8], &paths[i % 2])
        } else {
            cold += 1;
            (
                tids[cold % tids.len()],
                &paths[(cold / tids.len()) % paths.len()],
            )
        };
        if let Ok(fd) = k.open_for(tid, path) {
            let _ = k.close_for(tid, fd);
        }
    }
    let hits = k.creator.stats.cache_hits - h0;
    let misses = k.creator.stats.cache_misses - m0;
    CurvePoint {
        budget,
        cycles,
        hits,
        misses,
        hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        resident_bytes: k.creator.cache.resident_bytes(),
        warm_bytes: k.creator.cache.warm_bytes(),
    }
}

/// The full eviction curve across [`BUDGETS`].
#[must_use]
pub fn churn_curve(cycles_per_point: usize) -> Vec<CurvePoint> {
    BUDGETS
        .iter()
        .map(|&b| churn_point(cycles_per_point, b))
        .collect()
}

/// Byte accounting across thread synthesize/destroy churn.
#[derive(Debug, Clone)]
pub struct LifecycleStats {
    /// create/destroy cycles driven.
    pub cycles: usize,
    /// Fast-fit bytes in use before the churn.
    pub heap_before: u32,
    /// Fast-fit bytes in use after the churn (must equal `heap_before`).
    pub heap_after: u32,
    /// Code-buffer bytes in use before the churn.
    pub code_before: u32,
    /// Code-buffer bytes in use after (must equal `code_before`).
    pub code_after: u32,
    /// Fast-fit high-water mark after the churn.
    pub heap_high_water: u32,
    /// Free-list fragments at the end.
    pub heap_fragments: usize,
    /// Largest free block at the end.
    pub heap_largest_free: u32,
}

/// 10k× synthesize/destroy a thread (4 quajects and a thread block off
/// and back onto the free list per cycle) and account every byte back.
#[must_use]
pub fn lifecycle_churn(cycles: usize) -> LifecycleStats {
    let mut k = boot_capacity(64, 1);
    let ub = k.layout.user_base;
    let entry = load_spinner(&mut k, ub + 0x100, ub + 0x108, ub + 0x110);
    let map = user_map(&k);
    let ustack = ub + 0x1_0000;
    // One throwaway cycle so lazily-allocated kernel state settles (and
    // the thread block it grew stays listed).
    let tid = k.create_thread(entry, ustack, map.clone()).expect("fits");
    k.destroy(tid).expect("destroys");
    let (heap_before, code_before) = (k.heap.in_use, k.creator.codebuf.in_use);
    for _ in 0..cycles {
        let tid = k.create_thread(entry, ustack, map.clone()).expect("fits");
        k.destroy(tid).expect("destroys");
    }
    LifecycleStats {
        cycles,
        heap_before,
        heap_after: k.heap.in_use,
        code_before,
        code_after: k.creator.codebuf.in_use,
        heap_high_water: k.heap.high_water,
        heap_fragments: k.heap.fragments(),
        heap_largest_free: k.heap.largest_free(),
    }
}

/// The whole BENCH_8 report.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Scale points: the full population on 1 CPU and on 4 CPUs.
    pub scale: Vec<ScalePoint>,
    /// Dispatch baselines at [`BASELINE_THREADS`] for the same CPUs.
    pub baselines: Vec<DispatchPoint>,
    /// The eviction curve.
    pub curve: Vec<CurvePoint>,
    /// Thread lifecycle byte accounting.
    pub lifecycle: LifecycleStats,
    /// Total open/close cycles across the curve.
    pub open_close_cycles: usize,
}

/// Run the full capacity soak at `threads` scale.
#[must_use]
pub fn run_capacity(threads: usize, churn_per_point: usize, lifecycle: usize) -> CapacityReport {
    let scale: Vec<ScalePoint> = [1usize, 4]
        .iter()
        .map(|&c| scale_point(threads, c))
        .collect();
    let baselines: Vec<DispatchPoint> = [1usize, 4].iter().map(|&c| dispatch_baseline(c)).collect();
    let curve = churn_curve(churn_per_point);
    let open_close_cycles = curve.iter().map(|p| p.cycles).sum();
    CapacityReport {
        scale,
        baselines,
        curve,
        lifecycle: lifecycle_churn(lifecycle),
        open_close_cycles,
    }
}

/// Render the report as text.
#[must_use]
pub fn render(r: &CapacityReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "\n=== Capacity soak (BENCH_8) ===");
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "cpus",
        "threads",
        "channels",
        "spawn p50",
        "spawn p99",
        "ops/ms",
        "disp med",
        "sig sent",
        "sig rcvd"
    );
    for p in &r.scale {
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>9} {:>9.1}µ {:>9.1}µ {:>10.1} {:>9}cy {:>8} {:>8}",
            p.cpus,
            p.threads,
            p.channels_open,
            p.spawn.p50,
            p.spawn.p99,
            p.ops_per_ms,
            p.dispatch.median_cycles,
            p.signals_sent,
            p.signals_delivered
        );
    }
    let _ = writeln!(out, "\nO(1) dispatch: median cycles at baseline vs full");
    for (b, p) in r.baselines.iter().zip(&r.scale) {
        let _ = writeln!(
            out,
            "  {} cpu(s): {} threads -> {} cy ({} samples); {} threads -> {} cy ({} samples)",
            b.cpus,
            b.threads,
            b.median_cycles,
            b.samples,
            p.threads,
            p.dispatch.median_cycles,
            p.dispatch.samples
        );
    }
    let _ = writeln!(
        out,
        "\nSpecCache eviction: hit rate vs resident bytes ({} open/close cycles)",
        r.open_close_cycles
    );
    let _ = writeln!(
        out,
        "  {:>10} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "budget", "hits", "misses", "hit rate", "resident", "warm"
    );
    for c in &r.curve {
        let _ = writeln!(
            out,
            "  {:>10} {:>8} {:>8} {:>8.1}% {:>10} {:>10}",
            c.budget,
            c.hits,
            c.misses,
            100.0 * c.hit_rate,
            c.resident_bytes,
            c.warm_bytes
        );
    }
    let l = &r.lifecycle;
    let _ = writeln!(
        out,
        "\nLifecycle churn: {} cycles, heap {} -> {} bytes, code {} -> {} bytes, \
         high water {}, {} fragments, largest free {}",
        l.cycles,
        l.heap_before,
        l.heap_after,
        l.code_before,
        l.code_after,
        l.heap_high_water,
        l.heap_fragments,
        l.heap_largest_free
    );
    out
}
