//! Scale soak: the capacity claims as pass/fail assertions.
//!
//! The BENCH_8 driver (`synthesis-bench::capacity`) measures; this
//! suite *gates*. Three claims become tests:
//!
//! - **O(1) dispatch.** The ready queue is the executable `jmp` chain
//!   (Figure 3), so the quantum-interrupt→next-dispatch path must cost
//!   the same at a large population as at 100 threads — on one CPU and
//!   on four. The bound is a small constant number of cycles, not a
//!   ratio: a ratio would let an O(log n) regression hide inside a
//!   generous multiplier.
//! - **Quarantine at scale.** Quarantining a CPU whose chain carries
//!   the whole population must evacuate every TTE onto healthy chains
//!   without losing or duplicating a single one, and the trace record
//!   must account for exactly that many moves.
//! - Both replay under `SOAK_SEED` via the shared soak plumbing in
//!   `tests/common`, which prints the exact replay command on failure.
//!
//! Populations are debug-scaled (500 threads under `cfg(debug_assertions)`,
//! 10,000 in release) so `cargo test` stays quick while the release CI
//! soak runs full scale.

mod common;

use synthesis::kernel::thread::ThreadState;
use synthesis::kernel::trace::{Kind, TraceQuery};
use synthesis_bench::capacity;

/// Cycles of slack the scaled dispatch median may sit above (or below)
/// the 100-thread baseline. The path is deterministic virtual cycles,
/// so any super-constant lookup shows up as a population-dependent
/// median; a couple of memory references of slack absorbs alignment
/// noise without hiding a real O(n) or O(log n) term.
const DISPATCH_SLACK_CYCLES: u64 = 24;

fn assert_dispatch_o1(cpus: usize) {
    let base = capacity::dispatch_baseline(cpus);
    let full = capacity::scale_point(capacity::default_threads(), cpus).dispatch;
    assert!(
        base.samples >= 32 && full.samples >= 32,
        "need a real sample population: {} baseline / {} full",
        base.samples,
        full.samples
    );
    let diff = full.median_cycles.abs_diff(base.median_cycles);
    assert!(
        diff <= DISPATCH_SLACK_CYCLES,
        "dispatch is not O(1) on {cpus} cpu(s): median {} cycles at {} threads \
         vs {} cycles at {} threads (|diff| {} > {} cycle bound)",
        full.median_cycles,
        full.threads,
        base.median_cycles,
        base.threads,
        diff,
        DISPATCH_SLACK_CYCLES
    );
}

/// Dispatch cost at the full population equals the 100-thread baseline
/// within a constant bound, uniprocessor.
#[test]
fn dispatch_is_o1_at_scale_uniprocessor() {
    assert_dispatch_o1(1);
}

/// The same bound on a 4-CPU kernel: per-CPU chains keep dispatch O(1)
/// even though the population is spread and stolen across CPUs.
#[test]
fn dispatch_is_o1_at_scale_smp() {
    assert_dispatch_o1(4);
}

/// Quarantining a CPU that carries the whole population evacuates the
/// full chain — every TTE lands on a healthy chain exactly once, none
/// lost, none duplicated, every link rewritten for its new neighbours
/// (`common::assert_chains_consistent`) — and the `CpuQuarantine` trace
/// record counts exactly the evacuated threads.
#[test]
fn quarantine_at_scale_loses_no_thread() {
    let threads = capacity::default_threads();
    for seed in common::soak_seeds(2) {
        common::soak_case(
            "scale_soak",
            "quarantine_at_scale_loses_no_thread",
            seed,
            |slot| {
                let k = slot.insert(capacity::boot_capacity(threads, 4));
                let ub = k.layout.user_base;
                let entry = capacity::load_spinner(k, ub + 0x100, ub + 0x108, ub + 0x110);
                let map = capacity::user_map(k);
                // Home the whole population on the victim CPU so the
                // quarantine has the maximal chain to evacuate.
                let victim = 1 + usize::try_from(seed).unwrap_or(0) % 3;
                let mut tids = Vec::with_capacity(threads);
                for _ in 0..threads {
                    let tid = k
                        .create_thread(entry, ub + 0x1_0000, map.clone())
                        .expect("fits");
                    k.threads.get_mut(&tid).expect("exists").cpu = victim;
                    k.start(tid).expect("starts");
                    tids.push(tid);
                }
                // Let the seed vary how much scheduling history precedes the
                // quarantine (work stealing may already have spread some
                // threads off the victim — the census must survive that too).
                k.run(50_000 * (seed % 4));
                common::assert_chains_consistent(k);
                let on_victim = k.cpus[victim]
                    .ready
                    .nodes()
                    .iter()
                    .filter(|&&n| n != k.cpus[victim].idle_tid)
                    .count();
                let evacuated_before = k.recovery.threads_evacuated;

                assert!(
                    k.quarantine_cpu(victim, "scale soak drill"),
                    "quarantine runs"
                );

                // The trace record accounts for exactly the victim's load.
                let q = TraceQuery::snapshot(k);
                let recs = q.kind(Kind::CpuQuarantine);
                let recs = recs.records();
                assert_eq!(recs.len(), 1, "exactly one quarantine record");
                assert_eq!(recs[0].a, u32::try_from(victim).unwrap(), "victim cpu");
                assert_eq!(
                    recs[0].b,
                    u32::try_from(on_victim).unwrap(),
                    "trace counts every evacuated TTE"
                );
                assert_eq!(
                    k.recovery.threads_evacuated - evacuated_before,
                    u64::try_from(on_victim).unwrap(),
                    "recovery gauge matches the chain load"
                );

                // Not a single TTE lost or duplicated: every thread is
                // still runnable, so the checker holds each to exactly
                // one healthy chain (or the steal pool) and the victim's
                // chain to nothing but its idle thread.
                assert!(
                    tids.iter()
                        .all(|t| k.threads[t].state == ThreadState::Ready),
                    "evacuation left a thread not runnable"
                );
                common::assert_chains_consistent(k);

                // And the evacuated population still runs: the spinner
                // counter keeps advancing on the healthy CPUs.
                let spin0 = u64::from(k.m.mem.peek(ub + 0x108, quamachine::isa::Size::L));
                k.run(200_000);
                let spin1 = u64::from(k.m.mem.peek(ub + 0x108, quamachine::isa::Size::L));
                assert!(spin1 > spin0, "population still executes after evacuation");
            },
        );
    }
}
