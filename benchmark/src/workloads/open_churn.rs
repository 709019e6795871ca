//! `open_churn`: a host-driven `open_for`/`close_for` mix over
//! 128 threads × 10 paths = 1280 channel keys, about twice what the
//! specialization cache's warm budget holds.
//!
//! The order is seeded: three of four opens hit a hot set of 8 keys, the
//! rest sweep the cold key space. `codegen` does most of the host work —
//! synthesis on a miss, relink on a hit, eviction under the budget.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::Kernel;
use synthesis_core::layout;
use synthesis_core::monitor;

use crate::harness::{config, Ctx, Rep};
use crate::stats::{jitter, SplitMix64};

pub const THREADS: usize = 128;
pub const FILES: usize = 8;
/// `/dev/null`, `/dev/tty` and the files.
pub const PATHS: usize = FILES + 2;
pub const HOT_KEYS: usize = 8;
/// Timed open+close pairs before the per-seed jitter.
pub const BASE_OPS: u64 = 144_000;
/// Warm-up ops per timed op.
pub const WARM_DIV: u64 = 8;
/// Ops per slice of the timed section's clock (about 2 ms).
const SLICE_OPS: u64 = 256;

pub fn timed_ops(seed: u64) -> u64 {
    jitter(seed, 0x40, BASE_OPS)
}

/// The seeded key order: `(thread index, path index)` per op.
///
/// The seed picks which threads own the hot keys, the order threads are
/// visited in, and where the cold opens fall. It does not pick how many
/// opens are cold (exactly one in four) nor which paths are hot (one of
/// each of the first eight, taken in turn), and the cold sweep takes the
/// paths in turn: threads are interchangeable, paths are not, so guest
/// time per op stays within its bound across seeds.
pub fn key_order(seed: u64, n: u64) -> Vec<(u16, u8)> {
    let mut r = SplitMix64(seed ^ 0x4F50_454E);
    let mut threads: Vec<u16> = (0..THREADS as u16).collect();
    for i in (1..threads.len()).rev() {
        threads.swap(i, r.below(i as u64 + 1) as usize);
    }
    let hot: Vec<(u16, u8)> = (0..HOT_KEYS).map(|p| (threads[p], p as u8)).collect();
    // Cold opens sit at seeded positions, one in each group of four.
    let (mut cold, mut next_hot) = (0usize, 0usize);
    let mut order = Vec::with_capacity(n as usize);
    for group in 0..n.div_ceil(4) {
        let cold_at = r.below(4);
        for slot in 0..4.min(n - 4 * group) {
            order.push(if slot == cold_at {
                // Thread-major: every ten cold opens cover all ten paths,
                // so any stretch of the sweep has the same path mix.
                let key = (threads[(cold / PATHS) % THREADS], (cold % PATHS) as u8);
                cold += 1;
                key
            } else {
                next_hot += 1;
                hot[next_hot % HOT_KEYS]
            });
        }
    }
    order
}

fn parked_program() -> Asm {
    let mut a = Asm::new("churn_parked");
    let top = a.here();
    a.add(L, Imm(1), Dr(0));
    a.bcc(Cond::T, top);
    a
}

pub fn rep(ctx: &mut Ctx) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let n = timed_ops(ctx.seed);
    let warm = n.div_ceil(WARM_DIV);

    let setup = Instant::now();
    let s_setup = ctx.tr.begin("setup");
    let s = ctx.tr.begin("assemble");
    let block = parked_program().assemble().map_err(|e| format!("{e:?}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("boot");
    let mut k = Kernel::boot(config(1)).map_err(|e| format!("boot: {e}"))?;
    ctx.arm(&mut k);
    ctx.tr.end(s);
    let s = ctx.tr.begin("load");
    let entry = k.load_user_program(block).map_err(|e| e.to_string())?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("populate");
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    // The threads only own fd tables; they are never started.
    let mut tids = Vec::with_capacity(THREADS);
    for _ in 0..THREADS {
        tids.push(
            k.create_thread(entry, layout::USER_BASE + 0x1_0000, map.clone())
                .map_err(|e| format!("create: {e}"))?,
        );
    }
    let mut paths = vec!["/dev/null".to_string(), "/dev/tty".to_string()];
    for f in 0..FILES {
        let path = format!("/tmp/oc{f}");
        k.fs.create(&mut k.m, &mut k.heap, &path, 4096)
            .map_err(|e| format!("creating {path}: {e:?}"))?;
        paths.push(path);
    }
    let order = key_order(ctx.seed, warm + n);
    let threads_before = k.threads.len();
    let (heap_base, code_base) = (k.heap.in_use, k.creator.codebuf.in_use);
    ctx.tr.end(s);
    let s = ctx.tr.begin("warmup");
    for &(t, p) in &order[..warm as usize] {
        let fd = k
            .open_for(tids[t as usize], &paths[p as usize])
            .map_err(|e| format!("warm-up open: errno {e}"))?;
        k.close_for(tids[t as usize], fd)
            .map_err(|e| format!("warm-up close: errno {e}"))?;
    }
    ctx.tr.end(s);
    rep.trace.reset(&mut k);
    ctx.tr.end(s_setup);
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.ops = n;
    let heap_before = k.heap.in_use;
    let full = ctx.traced();
    let mut failed_ops = 0u64;
    let before = rep.start_timed(&k);
    let s_timed = ctx.tr.begin("timed");
    for (i, &(t, p)) in order[warm as usize..].iter().enumerate() {
        let (tid, path) = (tids[t as usize], &paths[p as usize]);
        if full {
            // One sample per op: guest µs off the meter, host µs off the span.
            let s = ctx.tr.begin_op("open_for");
            let (fd, m) = monitor::measure(&mut k, |k| k.open_for(tid, path));
            let host_ns = ctx.tr.end(s);
            rep.sample("open_guest_us", m.us);
            rep.sample("open_host_us", host_ns as f64 / 1e3);
            let s = ctx.tr.begin_op("close_for");
            let (closed, m) = monitor::measure(&mut k, |k| fd.and_then(|fd| k.close_for(tid, fd)));
            ctx.tr.end(s);
            rep.sample("close_guest_us", m.us);
            failed_ops += u64::from(closed.is_err());
        } else {
            let closed = k.open_for(tid, path).and_then(|fd| k.close_for(tid, fd));
            failed_ops += u64::from(closed.is_err());
        }
        if i as u64 % SLICE_OPS == SLICE_OPS - 1 {
            if full {
                // Keep the 128 trace rings from wrapping.
                rep.trace.drain(&mut k);
            }
            rep.clock.tick();
        }
    }
    ctx.tr.end(s_timed);
    rep.finish_timed(&k, &before, heap_before);
    if full {
        rep.trace.drain(&mut k);
    }

    // Oracle: every open and close succeeded, no thread appeared or
    // vanished, and with the warm cache flushed the heap and the code
    // buffer are back at their pre-churn levels.
    if failed_ops > 0 {
        rep.fail(
            failed_ops,
            format!("open_churn: {failed_ops} open/close pairs failed"),
        );
    }
    k.creator.flush_cache(&mut k.m);
    let (heap_now, code_now) = (k.heap.in_use, k.creator.codebuf.in_use);
    if k.threads.len() != threads_before || heap_now != heap_base || code_now != code_base {
        rep.fail(
            rep.ops,
            format!(
                "open_churn: threads {threads_before} -> {}, heap {heap_base} -> {heap_now}, \
                 code {code_base} -> {code_now}",
                k.threads.len()
            ),
        );
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn one_open_in_four_is_cold_and_a_lap_visits_every_key() {
        let n = 4 * (THREADS * PATHS) as u64;
        let order = key_order(11, n);
        assert_eq!(order.len() as u64, n);
        let hot: BTreeSet<(u16, u8)> = {
            // The eight most frequent keys.
            let mut count = std::collections::BTreeMap::new();
            for k in &order {
                *count.entry(*k).or_insert(0u32) += 1;
            }
            let mut by: Vec<_> = count.into_iter().collect();
            by.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
            by.into_iter().take(HOT_KEYS).map(|(k, _)| k).collect()
        };
        // One path each, the first eight.
        let paths: BTreeSet<u8> = hot.iter().map(|k| k.1).collect();
        assert_eq!(paths, (0..HOT_KEYS as u8).collect());
        // Every group of four holds exactly three hot opens, and the cold
        // ones of this one lap are all different keys: the whole key space.
        let mut cold: BTreeSet<(u16, u8)> = BTreeSet::new();
        for group in order.chunks(4) {
            let hot_here = group.iter().filter(|k| hot.contains(k)).count();
            assert!(hot_here >= 3, "{group:?}");
            cold.extend(group.iter().filter(|k| !hot.contains(k)).copied());
        }
        assert_eq!(cold.len() + HOT_KEYS, THREADS * PATHS);
    }

    #[test]
    fn the_seed_decides_the_order() {
        assert_eq!(key_order(3, 1000), key_order(3, 1000));
        assert_ne!(key_order(3, 1000), key_order(4, 1000));
    }
}
