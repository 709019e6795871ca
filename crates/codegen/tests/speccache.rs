//! Specialization-cache behavior: hit/miss semantics, refcounted
//! eviction, and the property that a cached block is byte-identical to a
//! fresh synthesis of the same `(template, bindings, options)`.

use proptest::prelude::*;

use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::L};
use quamachine::machine::{Machine, MachineConfig};
use synthesis_codegen::creator::{QuajectCreator, SynthesisOptions, CACHE_HIT_CYCLES};
use synthesis_codegen::template::{Bindings, Template};

fn machine() -> Machine {
    Machine::new(MachineConfig::sun3_emulation())
}

fn creator() -> QuajectCreator {
    let mut c = QuajectCreator::new(0x10_0000, 0x1_0000);
    c.lib.add(io_template());
    c
}

/// A small I/O-style template: two address holes and an immediate.
fn io_template() -> Template {
    let mut a = Asm::new("chan");
    let slot = a.abs_hole("slot");
    let gauge = a.abs_hole("gauge");
    let step = a.imm_hole("step");
    a.move_(L, slot, Dr(0));
    a.add(L, step, Dr(0));
    a.move_(L, Dr(0), slot);
    a.add(L, Imm(1), gauge);
    a.rts();
    Template::from_asm(a).unwrap()
}

fn bindings(slot: u32, gauge: u32, step: u32) -> Bindings {
    Bindings::new()
        .with("slot", slot)
        .with("gauge", gauge)
        .with("step", step)
}

#[test]
fn same_bindings_hit_different_bindings_miss() {
    let mut m = machine();
    let mut c = creator();
    let opts = SynthesisOptions::full();
    let a = c
        .synthesize_cached(&mut m, "chan", &bindings(0x8000, 0x9000, 4), opts)
        .unwrap();
    assert_eq!((c.stats.cache_hits, c.stats.cache_misses), (0, 1));

    // Identical invariants: the same installed block, at link cost.
    let cycles_before = m.meter.cycles;
    let b = c
        .synthesize_cached(&mut m, "chan", &bindings(0x8000, 0x9000, 4), opts)
        .unwrap();
    assert_eq!(b.base, a.base);
    assert_eq!(b.synth_cycles, CACHE_HIT_CYCLES);
    assert_eq!(m.meter.cycles - cycles_before, CACHE_HIT_CYCLES);
    assert_eq!((c.stats.cache_hits, c.stats.cache_misses), (1, 1));
    assert_eq!(c.stats.bytes_shared, u64::from(a.size));

    // A different gauge binding is a different specialization.
    let d = c
        .synthesize_cached(&mut m, "chan", &bindings(0x8000, 0x9100, 4), opts)
        .unwrap();
    assert_ne!(d.base, a.base);
    assert!(d.synth_cycles > CACHE_HIT_CYCLES);
    assert_eq!((c.stats.cache_hits, c.stats.cache_misses), (1, 2));
}

#[test]
fn options_are_part_of_the_key() {
    let mut m = machine();
    let mut c = creator();
    let b = bindings(0x8000, 0x9000, 4);
    let full = c
        .synthesize_cached(&mut m, "chan", &b, SynthesisOptions::full())
        .unwrap();
    let none = c
        .synthesize_cached(&mut m, "chan", &b, SynthesisOptions::none())
        .unwrap();
    assert_ne!(full.base, none.base);
    assert_eq!(c.stats.cache_misses, 2);
}

#[test]
fn eviction_at_zero_refcount() {
    let mut m = machine();
    let mut c = creator();
    let opts = SynthesisOptions::full();
    let b = bindings(0x8000, 0x9000, 4);
    let first = c.synthesize_cached(&mut m, "chan", &b, opts).unwrap();
    let one_copy = c.codebuf.in_use;
    let second = c.synthesize_cached(&mut m, "chan", &b, opts).unwrap();
    assert_eq!(c.cache.refs(first.base), Some(2));
    assert_eq!(c.codebuf.in_use, one_copy, "a hit installs nothing new");

    // Dropping one reference keeps the code installed.
    c.destroy(&mut m, &second);
    assert_eq!(c.cache.refs(first.base), Some(1));
    assert!(m.code.locate(first.base).is_some());
    assert_eq!(c.codebuf.in_use, one_copy);

    // The last reference evicts, unloads, and frees the extent.
    c.destroy(&mut m, &first);
    assert_eq!(c.cache.refs(first.base), None);
    assert!(m.code.locate(first.base).is_none());
    assert_eq!(c.codebuf.in_use, 0);
    assert!(c.cache.is_empty());

    // The next request is a cold miss that reuses the space.
    let third = c.synthesize_cached(&mut m, "chan", &b, opts).unwrap();
    assert_eq!(third.base, first.base);
    assert_eq!(c.stats.cache_misses, 2);
}

#[test]
fn uncached_synthesize_is_untouched_by_the_cache() {
    let mut m = machine();
    let mut c = creator();
    let opts = SynthesisOptions::full();
    let b = bindings(0x8000, 0x9000, 4);
    let s1 = c.synthesize(&mut m, "chan", &b, opts).unwrap();
    let s2 = c.synthesize(&mut m, "chan", &b, opts).unwrap();
    assert_ne!(s1.base, s2.base, "plain synthesize never shares");
    assert_eq!(c.stats.cache_hits + c.stats.cache_misses, 0);
    c.destroy(&mut m, &s1);
    c.destroy(&mut m, &s2);
    assert_eq!(c.codebuf.in_use, 0);
}

proptest! {
    /// A block served from the cache is byte-identical to what a fresh
    /// creator synthesizes from the same template, bindings, and options.
    #[test]
    fn cached_equals_fresh_synthesis(
        slot in (0x4000u32..0xC000).prop_map(|v| v & !3),
        gauge in (0x4000u32..0xC000).prop_map(|v| v & !3),
        step in 0u32..1024,
        collapse in any::<bool>(),
        fold in any::<bool>(),
        peephole in any::<bool>(),
    ) {
        let opts = SynthesisOptions { collapse, fold, peephole };
        let b = bindings(slot, gauge, step);

        // Warm a cache, then take a hit from it.
        let mut m1 = machine();
        let mut c1 = creator();
        let cold = c1.synthesize_cached(&mut m1, "chan", &b, opts).unwrap();
        let hit = c1.synthesize_cached(&mut m1, "chan", &b, opts).unwrap();
        prop_assert_eq!(hit.base, cold.base);

        // Fresh synthesis in an independent machine and creator.
        let mut m2 = machine();
        let mut c2 = creator();
        let fresh = c2.synthesize(&mut m2, "chan", &b, opts).unwrap();

        let hit_block = m1.code.block(hit.base).unwrap();
        let fresh_block = m2.code.block(fresh.base).unwrap();
        prop_assert_eq!(&hit_block.instrs, &fresh_block.instrs);
        prop_assert_eq!(hit.size, fresh.size);
        prop_assert_eq!(hit.instrs_out, fresh.instrs_out);
    }
}

proptest! {
    /// Eviction churn soundness: after an arbitrary sequence of cached
    /// acquires and releases under a small warm-byte budget, (a) the
    /// warm set never exceeds the budget, (b) a block re-synthesized
    /// after the churn is byte-identical to what a fresh creator
    /// produces, and (c) on teardown every byte is accounted back —
    /// warm, resident, and code-buffer all balance to zero.
    #[test]
    fn eviction_churn_is_sound_and_balances(
        budget in 0u32..4096,
        ops in proptest::collection::vec((0usize..6, any::<bool>()), 1..120),
    ) {
        let mut m = machine();
        let mut c = creator();
        c.set_cache_budget(&mut m, budget);
        let opts = SynthesisOptions::full();
        // Six distinct specializations; slots spaced so each key is a
        // distinct binding vector (and so a distinct cache key).
        let keys: Vec<Bindings> = (0..6u32)
            .map(|i| bindings(0x8000 + 0x40 * i, 0x9000 + 0x40 * i, 4 + i))
            .collect();

        let mut live: Vec<synthesis_codegen::creator::Synthesized> = Vec::new();
        for &(key, acquire) in &ops {
            if acquire || live.is_empty() {
                live.push(c.synthesize_cached(&mut m, "chan", &keys[key], opts).unwrap());
            } else {
                let s = live.swap_remove(key % live.len());
                c.destroy(&mut m, &s);
            }
            prop_assert!(
                c.cache.warm_bytes() <= u64::from(budget),
                "warm set exceeds budget: {} > {}", c.cache.warm_bytes(), budget
            );
        }

        // (b) churn never corrupts what the cache serves: re-acquire
        // each key and compare bytes against an untouched creator.
        let mut m2 = machine();
        let mut c2 = creator();
        for key in &keys {
            let got = c.synthesize_cached(&mut m, "chan", key, opts).unwrap();
            let fresh = c2.synthesize(&mut m2, "chan", key, opts).unwrap();
            let got_block = m.code.block(got.base).unwrap();
            let fresh_block = m2.code.block(fresh.base).unwrap();
            prop_assert_eq!(&got_block.instrs, &fresh_block.instrs);
            prop_assert_eq!(got.size, fresh.size);
            live.push(got);
        }

        // (c) teardown balances to zero.
        for s in live.drain(..) {
            c.destroy(&mut m, &s);
        }
        c.flush_cache(&mut m);
        prop_assert_eq!(c.cache.warm_bytes(), 0);
        prop_assert_eq!(c.cache.resident_bytes(), 0);
        prop_assert!(c.cache.is_empty());
        prop_assert_eq!(c.codebuf.in_use, 0);
    }
}
