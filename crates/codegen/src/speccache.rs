//! The specialization cache: shared synthesized code blocks.
//!
//! The paper shares specialized code whenever the invariants match:
//! "Sharing occurs when the translation tables point to the same code"
//! (Section 3.1), and the Section 6.4 size accounting depends on it —
//! kernel size grows with the number of *distinct* specializations, not
//! the number of references. This module keys installed [`Synthesized`]
//! blocks on `(template name, bindings, SynthesisOptions)` and reference
//! counts them: a second `synthesize` with identical invariants returns
//! the already-installed block (charging only link cost), and `destroy`
//! frees the code-buffer extent only when the last reference drops.
//!
//! # Eviction under pressure
//!
//! The [`byte budget`](SpecCache::set_budget) keeps *warm* entries
//! (refcount zero) resident up to that many bytes, so a re-open with the
//! same invariants is a cache hit instead of a full resynthesis (a zero
//! budget retains nothing: every last release trims the entry it just
//! made warm). When the warm set overflows
//! the budget, the cache trims it with a cost-aware LRU: among the
//! oldest warm entries it evicts the one cheapest to resynthesize first
//! (`synth_cycles`), so expensive specializations survive pressure the
//! longest. Referenced entries are never trimmed — the budget governs
//! only refcount-zero residue.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::creator::{SynthesisOptions, Synthesized};
use crate::hash::FoldMap;
use crate::template::{Bindings, Template};

/// The cache key: one distinct specialization.
///
/// The key is exact (every binding's value, not a lossy hash), so two
/// different specializations can never collide into one cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecKey {
    /// The template, by its shared name.
    pub template: Arc<str>,
    /// The values bound to the template's own holes, in declaration
    /// order (`None` = unbound) — the specialization's invariants, with
    /// no name cloned.
    holes: Vec<Option<u32>>,
    /// The bindings naming no hole of the template (a collapsed
    /// callee's, usually none), sorted by name.
    pub bindings: Vec<(Cow<'static, str>, u32)>,
    /// The synthesis options in effect (different options produce
    /// different code from the same template and bindings).
    pub opts: SynthesisOptions,
}

impl SpecKey {
    /// The key for template `t` specialized with `bindings` under `opts`.
    /// Two keys are equal exactly when their requests bind the same names
    /// to the same values under the same options, in whatever order they
    /// were bound; building one copies a name only for a binding that
    /// names no hole of `t` and was not a literal.
    #[must_use]
    pub fn of(t: &Template, bindings: &Bindings, opts: SynthesisOptions) -> SpecKey {
        let holes: Vec<Option<u32>> = t.holes.iter().map(|h| bindings.get(h)).collect();
        let mut rest = Vec::new();
        if holes.iter().flatten().count() != bindings.len() {
            rest = bindings.sorted_pairs();
            rest.retain(|(name, _)| !t.holes.iter().any(|h| h == name));
        }
        SpecKey {
            template: Arc::clone(&t.name),
            holes,
            bindings: rest,
            opts,
        }
    }
}

/// One cached specialization.
#[derive(Debug)]
struct SpecEntry {
    code: Synthesized,
    refs: u32,
    /// The CPU whose request synthesized the block (the entry's home
    /// tier). On a uniprocessor this is always 0.
    first_cpu: usize,
    /// Bitmask of CPUs that have acquired the block. An entry referenced
    /// from one CPU only is local-tier; one referenced from several CPUs
    /// has been promoted to the shared read-mostly tier.
    cpus_seen: u32,
    /// LRU stamp of the release that made this entry warm; meaningful
    /// only while `refs == 0` (the entry is then indexed in the warm
    /// list under this stamp).
    stamp: u64,
}

/// What a [`SpecCache::release`] did.
#[derive(Debug)]
pub enum Release {
    /// The block was never cached (private code: context switches,
    /// dispatchers, interrupt handlers).
    NotCached,
    /// Other references remain; the block stays installed.
    Shared,
    /// The last reference dropped but the entry stays warm under the
    /// eviction budget; the caller must unload each *trimmed* block the
    /// retention pushed over the budget (possibly including the released
    /// one itself, when it alone exceeds the budget).
    Retained {
        /// Warm entries the budget trim evicted as a consequence.
        trimmed: Vec<Synthesized>,
    },
}

/// How many of the oldest warm entries the trim considers per eviction —
/// the "cost-aware" window: within it, the cheapest-to-resynthesize
/// block goes first.
const TRIM_WINDOW: usize = 8;

/// The reference-counted specialization cache.
#[derive(Debug, Default)]
pub struct SpecCache {
    entries: FoldMap<SpecKey, SpecEntry>,
    /// Reverse index: installed base address → key (for `release`, which
    /// only has the `Synthesized` in hand).
    by_base: FoldMap<u32, SpecKey>,
    /// Byte budget for warm (refcount-zero) entries.
    budget: u32,
    /// Bytes currently held by warm entries.
    warm_bytes: u64,
    /// LRU order over warm entries: release stamp → (installed base,
    /// `synth_cycles`) — everything the trim window reads.
    warm: BTreeMap<u64, (u32, u64)>,
    /// Monotonic release stamp source.
    tick: u64,
}

impl SpecCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> SpecCache {
        SpecCache::default()
    }

    /// Look up `key` from CPU `cpu`; on a hit, take a reference and
    /// return the shared block plus whether the hit crossed CPUs (the
    /// requester is not the CPU that synthesized the block). A hit on a
    /// warm (refcount-zero) entry revives it out of the trim list.
    pub fn acquire_on(&mut self, key: &SpecKey, cpu: usize) -> Option<(Synthesized, bool)> {
        let e = self.entries.get_mut(key)?;
        if e.refs == 0 {
            self.warm.remove(&e.stamp);
            self.warm_bytes -= u64::from(e.code.size);
            e.stamp = 0;
        }
        e.refs += 1;
        e.cpus_seen |= 1u32 << (cpu % 32);
        Some((e.code.clone(), cpu != e.first_cpu))
    }

    /// Insert a freshly synthesized block with one reference, homed on
    /// the CPU whose request synthesized it.
    pub fn insert_on(&mut self, key: SpecKey, code: Synthesized, cpu: usize) {
        self.by_base.insert(code.base, key.clone());
        self.entries.insert(
            key,
            SpecEntry {
                code,
                refs: 1,
                first_cpu: cpu,
                cpus_seen: 1u32 << (cpu % 32),
                stamp: 0,
            },
        );
    }

    /// Drop a reference to the block at `base`.
    pub fn release(&mut self, base: u32) -> Release {
        let Some(key) = self.by_base.get(&base) else {
            return Release::NotCached;
        };
        let e = self.entries.get_mut(key).expect("index consistent");
        e.refs -= 1;
        if e.refs > 0 {
            return Release::Shared;
        }
        // Keep the entry warm under the budget; trim the oldest/cheapest
        // warm entries past it.
        self.tick += 1;
        let stamp = self.tick;
        e.stamp = stamp;
        let size = e.code.size;
        self.warm.insert(stamp, (base, e.code.synth_cycles));
        self.warm_bytes += u64::from(size);
        Release::Retained {
            trimmed: self.trim_to_budget(),
        }
    }

    /// Evict warm entries until `warm_bytes <= budget`, cost-aware LRU:
    /// among the [`TRIM_WINDOW`] oldest warm entries, the one cheapest to
    /// resynthesize goes first (ties fall to the oldest). Only the victim
    /// is looked up. Returns the evicted blocks for the caller to unload.
    fn trim_to_budget(&mut self) -> Vec<Synthesized> {
        let mut out = Vec::new();
        while self.warm_bytes > u64::from(self.budget) {
            let victim = self
                .warm
                .iter()
                .take(TRIM_WINDOW)
                .min_by_key(|&(&stamp, &(_, cycles))| (cycles, stamp))
                .map(|(&stamp, &(base, _))| (stamp, base));
            let Some((stamp, base)) = victim else {
                break;
            };
            self.warm.remove(&stamp);
            let key = self.by_base.remove(&base).expect("warm entry indexed");
            let e = self.entries.remove(&key).expect("warm entry present");
            self.warm_bytes -= u64::from(e.code.size);
            out.push(e.code);
        }
        out
    }

    /// Set the warm-entry byte budget. Shrinking it trims immediately;
    /// the caller must unload the returned blocks.
    pub fn set_budget(&mut self, bytes: u32) -> Vec<Synthesized> {
        self.budget = bytes;
        self.trim_to_budget()
    }

    /// The warm-entry byte budget.
    #[must_use]
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Bytes currently held by warm (refcount-zero) entries.
    #[must_use]
    pub fn warm_bytes(&self) -> u64 {
        self.warm_bytes
    }

    /// The warm (refcount-zero) blocks, oldest release first.
    pub fn warm_blocks(&self) -> impl Iterator<Item = &Synthesized> + '_ {
        self.warm
            .values()
            .map(|(base, _)| &self.entries[&self.by_base[base]].code)
    }

    /// Evict every warm entry regardless of budget; the caller must
    /// unload the returned blocks. Referenced entries stay.
    pub fn flush(&mut self) -> Vec<Synthesized> {
        let mut out = Vec::new();
        let stamps: Vec<u64> = self.warm.keys().copied().collect();
        for stamp in stamps {
            let (base, _) = self.warm.remove(&stamp).expect("listed");
            let key = self.by_base.remove(&base).expect("warm entry indexed");
            let e = self.entries.remove(&key).expect("warm entry present");
            self.warm_bytes -= u64::from(e.code.size);
            out.push(e.code);
        }
        debug_assert_eq!(self.warm_bytes, 0);
        out
    }

    /// Reference count of the block at `base`, if cached.
    #[must_use]
    pub fn refs(&self, base: u32) -> Option<u32> {
        let key = self.by_base.get(&base)?;
        Some(self.entries[key].refs)
    }

    /// Number of distinct cached specializations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of installed code the cache is sharing: Σ `(refs − 1) ×
    /// size`. This is exactly the code a cache-less kernel would have
    /// duplicated (the paper's Section 6.4 accounting).
    #[must_use]
    pub fn shared_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|e| u64::from(e.refs.saturating_sub(1)) * u64::from(e.code.size))
            .sum()
    }

    /// Bytes of installed code held by the cache (one copy per distinct
    /// specialization).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.entries.values().map(|e| u64::from(e.code.size)).sum()
    }

    /// Bytes of resident code currently referenced more than once (one
    /// installed copy serving several references).
    #[must_use]
    pub fn multi_ref_bytes(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.refs > 1)
            .map(|e| u64::from(e.code.size))
            .sum()
    }

    /// Bytes of resident code in the shared read-mostly tier: entries
    /// that have been acquired from more than one CPU. On a uniprocessor
    /// this is always 0 — every entry stays in CPU 0's local tier.
    #[must_use]
    pub fn shared_tier_bytes(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.cpus_seen.count_ones() > 1)
            .map(|e| u64::from(e.code.size))
            .sum()
    }

    /// Bytes of resident code in `cpu`'s local tier: entries synthesized
    /// by that CPU and never acquired from any other.
    #[must_use]
    pub fn local_tier_bytes(&self, cpu: usize) -> u64 {
        self.entries
            .values()
            .filter(|e| e.first_cpu == cpu && e.cpus_seen.count_ones() <= 1)
            .map(|e| u64::from(e.code.size))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::Size::L;

    fn synth(base: u32, size: u32, synth_cycles: u64) -> Synthesized {
        Synthesized {
            base,
            size,
            entries: Arc::default(),
            instrs_in: 1,
            instrs_out: 1,
            synth_cycles,
        }
    }

    /// A template with two holes, `a` and `b`.
    fn two_holes() -> Template {
        let mut asm = Asm::new("t");
        let (a, b) = (asm.imm_hole("a"), asm.abs_hole("b"));
        asm.move_(L, a, b);
        asm.rts();
        Template::from_asm(asm).unwrap()
    }

    fn key(v: u32) -> SpecKey {
        SpecKey::of(
            &two_holes(),
            &Bindings::new().with("a", v).with("b", 0x100),
            SynthesisOptions::full(),
        )
    }

    #[test]
    fn acquire_release_lifecycle() {
        let mut c = SpecCache::new();
        assert!(c.acquire_on(&key(1), 0).is_none());
        c.insert_on(key(1), synth(0x100, 8, 0), 0);
        let (hit, _) = c.acquire_on(&key(1), 0).expect("hit");
        assert_eq!(hit.base, 0x100);
        assert_eq!(c.refs(0x100), Some(2));
        assert_eq!(c.shared_bytes(), 8);
        assert!(matches!(c.release(0x100), Release::Shared));
        assert_eq!(c.shared_bytes(), 0);
        // A fresh cache has a zero budget: the last release trims the
        // entry it just made warm.
        match c.release(0x100) {
            Release::Retained { trimmed } => {
                assert_eq!(trimmed.len(), 1);
                assert_eq!((trimmed[0].base, trimmed[0].size), (0x100, 8));
            }
            other => panic!("expected a trimmed retention, got {other:?}"),
        }
        assert!(c.is_empty());
        assert!(matches!(c.release(0x100), Release::NotCached));
    }

    #[test]
    fn cross_cpu_hits_promote_to_the_shared_tier() {
        let mut c = SpecCache::new();
        c.insert_on(key(1), synth(0x100, 8, 0), 0);
        c.insert_on(key(2), synth(0x200, 16, 0), 1);
        // All entries start in their home CPU's local tier.
        assert_eq!(c.shared_tier_bytes(), 0);
        assert_eq!(c.local_tier_bytes(0), 8);
        assert_eq!(c.local_tier_bytes(1), 16);
        // A same-CPU hit is not cross and changes no tier.
        let (_, cross) = c.acquire_on(&key(1), 0).expect("hit");
        assert!(!cross);
        assert_eq!(c.shared_tier_bytes(), 0);
        // A hit from another CPU is cross and promotes the entry.
        let (_, cross) = c.acquire_on(&key(1), 1).expect("hit");
        assert!(cross);
        assert_eq!(c.shared_tier_bytes(), 8);
        assert_eq!(c.local_tier_bytes(0), 0);
        assert_eq!(c.local_tier_bytes(1), 16);
    }

    #[test]
    fn distinct_bindings_are_distinct_entries() {
        let mut c = SpecCache::new();
        c.insert_on(key(1), synth(0x100, 8, 0), 0);
        c.insert_on(key(2), synth(0x200, 8, 0), 0);
        assert_eq!(c.len(), 2);
        assert!(c.acquire_on(&key(3), 0).is_none());
        // An unbound hole is a value of its own.
        let unbound = SpecKey::of(
            &two_holes(),
            &Bindings::new().with("a", 1),
            SynthesisOptions::full(),
        );
        assert!(c.acquire_on(&unbound, 0).is_none());
    }

    #[test]
    fn key_is_binding_order_independent() {
        // `c` names no hole of the template: it is kept by name.
        let a = SpecKey::of(
            &two_holes(),
            &Bindings::new().with("a", 1).with("b", 2).with("c", 3),
            SynthesisOptions::full(),
        );
        let b = SpecKey::of(
            &two_holes(),
            &Bindings::new().with("c", 3).with("b", 2).with("a", 1),
            SynthesisOptions::full(),
        );
        assert_eq!(a, b);
        let without_c = SpecKey::of(
            &two_holes(),
            &Bindings::new().with("a", 1).with("b", 2),
            SynthesisOptions::full(),
        );
        assert_ne!(a, without_c, "the extra binding is part of the key");
    }

    #[test]
    fn options_are_part_of_the_key() {
        let b = Bindings::new().with("a", 1).with("b", 2);
        let full = SpecKey::of(&two_holes(), &b, SynthesisOptions::full());
        let none = SpecKey::of(&two_holes(), &b, SynthesisOptions::none());
        assert_ne!(full, none);
    }

    #[test]
    fn the_trim_takes_the_cheapest_of_the_oldest_window() {
        // Released oldest first; the first eight are the window. Two of
        // them tie at the cheapest, and the ninth and tenth are cheaper
        // still.
        let cycles = [50, 30, 40, 30, 60, 70, 80, 90, 10, 5];
        let mut c = SpecCache::new();
        assert!(c.set_budget(u32::MAX).is_empty());
        for (i, &cy) in (0u32..).zip(&cycles) {
            c.insert_on(key(i), synth(0x100 * (i + 1), 8, cy), 0);
        }
        for i in 0..10 {
            assert!(matches!(
                c.release(0x100 * (i + 1)),
                Release::Retained { trimmed } if trimmed.is_empty()
            ));
        }
        let bases = |v: Vec<Synthesized>| v.iter().map(|s| s.base).collect::<Vec<_>>();
        // One block over: the older of the two 30s, not the 10 or the 5.
        assert_eq!(bases(c.set_budget(8 * 9)), [0x200]);
        // The window slides one entry per eviction: the 10, then the 5,
        // then the other 30.
        assert_eq!(bases(c.set_budget(8 * 8)), [0x900]);
        assert_eq!(bases(c.set_budget(8 * 7)), [0xA00]);
        assert_eq!(bases(c.set_budget(8 * 6)), [0x400]);
        assert_eq!(c.warm_bytes(), 8 * 6);
    }
}
