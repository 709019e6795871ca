//! The quaject creator: allocate → factorize → optimize → install.
//!
//! "Quajects such as threads are created by the quaject creator, which
//! contains three stages: allocation, factorization, and optimization"
//! (paper Section 2.3). Synthesis itself costs CPU time; the creator
//! charges a modelled cycle cost to the machine, calibrated so that the
//! code-synthesis share of `open(/dev/null)` lands near the paper's 40% of
//! 49 µs (Section 6.3).
//!
//! Factorize and optimize run once per template, holes in place, into a
//! [`Plan`]; a request whose bindings agree with a kept plan's read log
//! only fills holes (see [`crate::plan`]). The modelled cycle cost is the
//! same either way: the guest pays for synthesis, the host skips the
//! repeat.

use std::sync::Arc;

use quamachine::code::CodeBlock;
use quamachine::machine::Machine;

use crate::codebuf::{CodeBuf, CodeBufFull};
use crate::collapse::CollapseError;
use crate::factor::FactorError;
use crate::plan::Plan;
use crate::speccache::{Release, SpecCache, SpecKey};
use crate::template::{Bindings, Slot, Template, TemplateLib};
use crate::verify::{self, VerifyReport};

/// Base cycles charged per synthesis (pipeline setup).
pub const SYNTH_BASE_CYCLES: u64 = 40;
/// Cycles charged per template instruction processed.
pub const SYNTH_CYCLES_PER_INSTR: u64 = 24;
/// Cycles charged for a specialization-cache hit: taking a reference and
/// handing out the already-installed block is one table lookup plus the
/// link bookkeeping — link cost, not synthesis cost.
pub const CACHE_HIT_CYCLES: u64 = 24;

/// Which synthesis stages run. The kernel always uses
/// [`full`](SynthesisOptions::full); [`none`](SynthesisOptions::none) is
/// the differential reference tests compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthesisOptions {
    /// Collapsing Layers: inline `call:` sites. When off, `call:` holes
    /// are filled from the bindings like any other hole — with the
    /// callees' installed addresses, for layered composition through
    /// real `jsr`s.
    pub collapse: bool,
    /// Factoring Invariants folding (constant propagation, branch
    /// resolution, dead-path pruning). Hole substitution always happens —
    /// code with holes cannot run.
    pub fold: bool,
    /// The peephole optimizer.
    pub peephole: bool,
}

impl SynthesisOptions {
    /// Everything on — the Synthesis kernel's normal mode.
    #[must_use]
    pub fn full() -> SynthesisOptions {
        SynthesisOptions {
            collapse: true,
            fold: true,
            peephole: true,
        }
    }

    /// Everything off — a "traditional kernel": layered calls, no
    /// specialization beyond parameter substitution.
    #[must_use]
    pub fn none() -> SynthesisOptions {
        SynthesisOptions {
            collapse: false,
            fold: false,
            peephole: false,
        }
    }
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions::full()
    }
}

/// Synthesis pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// Template not found in the library.
    UnknownTemplate(String),
    /// Collapsing failed.
    Collapse(CollapseError),
    /// Factoring failed (missing binding).
    Factor(FactorError),
    /// The result failed verification (named and disassembled).
    Verify(VerifyReport),
    /// No code space left.
    CodeBuf(CodeBufFull),
    /// Installing at the allocated address failed (overlap).
    Install(quamachine::error::MachineError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::UnknownTemplate(n) => write!(f, "unknown template {n:?}"),
            SynthError::Collapse(e) => write!(f, "collapse: {e}"),
            SynthError::Factor(e) => write!(f, "factor: {e}"),
            SynthError::Verify(e) => write!(f, "verify: {e}"),
            SynthError::CodeBuf(e) => write!(f, "code buffer: {e}"),
            SynthError::Install(e) => write!(f, "install: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// A successfully synthesized, installed code object.
///
/// It owns only what varies per instantiation — where it sits and what
/// it was charged; its entry table is the [`Plan`]'s, shared. Cloning one
/// (a cache hit) or dropping one only adjusts a reference count.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// Base (and first-entry) address.
    pub base: u32,
    /// Encoded size in bytes.
    pub size: u32,
    /// Entry points as `(mark, byte offset from base)`, sorted by mark;
    /// read through [`Synthesized::entry`].
    pub entries: Arc<[(String, u32)]>,
    /// Template instructions before optimization.
    pub instrs_in: usize,
    /// Instructions actually installed.
    pub instrs_out: usize,
    /// Modelled synthesis cost charged to the machine.
    pub synth_cycles: u64,
}

impl Synthesized {
    /// The address of entry `mark`, or the base if the mark is `""`.
    #[must_use]
    pub fn entry(&self, mark: &str) -> Option<u32> {
        if mark.is_empty() {
            return Some(self.base);
        }
        let i = self
            .entries
            .binary_search_by(|(m, _)| m.as_str().cmp(mark))
            .ok()?;
        Some(self.base + self.entries[i].1)
    }
}

/// Aggregate creator statistics (the Section 6.4 size accounting).
#[derive(Debug, Default, Clone, Copy)]
pub struct CreatorStats {
    /// Quajects synthesized.
    pub synthesized: u64,
    /// Quajects destroyed.
    pub destroyed: u64,
    /// Total synthesis cycles charged.
    pub cycles: u64,
    /// Total bytes of code installed.
    pub bytes_installed: u64,
    /// Total instructions eliminated by optimization.
    pub instrs_eliminated: u64,
    /// Specialization-cache hits (references handed out without
    /// synthesizing).
    pub cache_hits: u64,
    /// Specialization-cache misses (cacheable requests that synthesized
    /// fresh code).
    pub cache_misses: u64,
    /// Total bytes of synthesis avoided by cache hits (Σ size of every
    /// block handed out from the cache).
    pub bytes_shared: u64,
    /// Cache hits served to the CPU that synthesized the block
    /// (same-CPU, local-tier traffic). `cache_hits_local +
    /// cache_hits_cross == cache_hits`.
    pub cache_hits_local: u64,
    /// Cache hits served across CPUs: the requester was not the CPU
    /// whose request synthesized the block. Always 0 on a uniprocessor.
    pub cache_hits_cross: u64,
    /// The subset of `bytes_shared` handed out across CPUs.
    pub bytes_shared_cross: u64,
    /// Times the pipeline ran: no kept [`Plan`] agreed with the request's
    /// bindings (or the template is not in the library).
    pub plans_compiled: u64,
    /// Syntheses that only filled the holes of a kept plan.
    pub plan_hits: u64,
}

impl CreatorStats {
    /// Cache hit rate over cacheable requests, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One specialization-cache transition: the creator does not know which
/// thread asked, so it logs the raw event and the kernel drains
/// [`QuajectCreator::cache_events`] right after each call, attributing
/// the events to the requesting thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A cached block was handed out ([`QuajectCreator::synthesize_cached`]).
    Hit {
        /// Base address of the shared block.
        base: u32,
        /// Block size in bytes.
        bytes: u32,
        /// Whether the hit crossed CPUs (requester ≠ synthesizing CPU).
        cross: bool,
    },
    /// A cacheable request synthesized fresh code.
    Miss {
        /// Base address of the new block.
        base: u32,
        /// Block size in bytes.
        bytes: u32,
    },
    /// A cached reference was destroyed.
    Release {
        /// Base address of the referenced block.
        base: u32,
        /// Whether this was the last reference (the code was unloaded).
        evicted: bool,
    },
}

/// Upper bound on buffered cache events between drains (a safety cap for
/// embedders that never drain; the kernel drains after every call).
const CACHE_EVENT_CAP: usize = 8192;

/// Fill `plan`'s holes, verify, allocate, load, and charge the modelled
/// synthesis cost.
fn install(
    codebuf: &mut CodeBuf,
    stats: &mut CreatorStats,
    table: &mut Vec<u32>,
    m: &mut Machine,
    plan: &Plan,
    value_of: &impl Fn(&str) -> Option<u32>,
) -> Result<Synthesized, SynthError> {
    plan.verified().map_err(|e| SynthError::Verify(e.clone()))?;
    plan.table_into(value_of, table)
        .map_err(SynthError::Factor)?;
    let instrs = plan.instantiate(table);
    // The plan's verdict is every instance's; debug builds check this one.
    debug_assert_eq!(
        verify::verify_reported(&plan.name, &instrs, plan.marks()),
        Ok(()),
        "an instance of a verified plan fails verification"
    );

    let offsets = plan.offsets();
    let instrs_in = plan.instrs_in;
    let instrs_out = instrs.len();
    let size = offsets[instrs_out];
    let base = codebuf.alloc(size).map_err(SynthError::CodeBuf)?;
    let block = CodeBlock {
        name: Arc::clone(&plan.name),
        instrs,
        offsets: Arc::clone(offsets),
        facts: Some(plan.facts().clone()),
    };
    m.load_block(base, block).map_err(SynthError::Install)?;

    // Charge the modelled synthesis cost.
    let processed = instrs_in.max(instrs_out) as u64;
    let synth_cycles = SYNTH_BASE_CYCLES + SYNTH_CYCLES_PER_INSTR * processed;
    m.charge(synth_cycles);

    stats.synthesized += 1;
    stats.cycles += synth_cycles;
    stats.bytes_installed += u64::from(size);
    stats.instrs_eliminated += instrs_in.saturating_sub(instrs_out) as u64;

    Ok(Synthesized {
        base,
        size,
        entries: Arc::clone(plan.entries()),
        instrs_in,
        instrs_out,
        synth_cycles,
    })
}

/// The read-log argument, checked: a kept plan the request agrees with
/// must instantiate to exactly what the pipeline makes of that request
/// from scratch. A failure means a pass learned a binding some other way
/// than [`Resolver::read`](crate::plan::Resolver::read).
#[cfg(debug_assertions)]
fn assert_plan_is_the_pipeline(
    kept: &Plan,
    t: &Template,
    lib: &TemplateLib,
    value_of: &impl Fn(&str) -> Option<u32>,
) {
    // An unbound hole is install's error to report.
    let (Ok(table), Ok(fresh)) = (
        kept.table(value_of),
        Plan::compile(t, lib, kept.opts, value_of),
    ) else {
        return;
    };
    debug_assert_eq!(
        kept.instantiate(&table),
        fresh.instantiate(&table),
        "{}: kept plan (log {:?}) differs from the pipeline",
        kept.name,
        kept.logged().collect::<Vec<_>>()
    );
    debug_assert!(
        kept.marks().eq(fresh.marks()),
        "{}: marks differ",
        kept.name
    );
    debug_assert_eq!(
        kept.offsets(),
        fresh.offsets(),
        "{}: sizes differ",
        kept.name
    );
}

/// The quaject creator.
pub struct QuajectCreator {
    /// The template library, with the plans compiled from each template.
    pub lib: TemplateLib,
    /// Code-space allocator.
    pub codebuf: CodeBuf,
    /// The specialization cache ([`synthesize_cached`]
    /// (QuajectCreator::synthesize_cached) entries).
    pub cache: SpecCache,
    /// Statistics.
    pub stats: CreatorStats,
    /// Undrained cache transitions.
    pub cache_events: Vec<CacheEvent>,
    /// The hole values of the block being installed, kept between
    /// installs for its allocation.
    table: Vec<u32>,
}

impl QuajectCreator {
    /// A creator managing code space `[base, base + len)`.
    #[must_use]
    pub fn new(base: u32, len: u32) -> QuajectCreator {
        QuajectCreator {
            lib: TemplateLib::new(),
            codebuf: CodeBuf::new(base, len),
            cache: SpecCache::new(),
            stats: CreatorStats::default(),
            cache_events: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Log a cache transition.
    fn cache_event(&mut self, ev: CacheEvent) {
        if self.cache_events.len() < CACHE_EVENT_CAP {
            self.cache_events.push(ev);
        }
    }

    /// Specialize `template_name` for `bindings` and install the result:
    /// fill the holes of a kept [`Plan`] whose read log the bindings
    /// agree with, or run the pipeline to compile (and keep) one.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize(
        &mut self,
        m: &mut Machine,
        template_name: &str,
        bindings: &Bindings,
        opts: SynthesisOptions,
    ) -> Result<Synthesized, SynthError> {
        let slot = self.slot(template_name)?;
        self.synthesize_at(m, slot, bindings, opts)
    }

    /// The library slot of `template_name`.
    fn slot(&self, template_name: &str) -> Result<Slot, SynthError> {
        self.lib
            .slot(template_name)
            .ok_or_else(|| SynthError::UnknownTemplate(template_name.to_string()))
    }

    /// [`synthesize`](QuajectCreator::synthesize) with the template
    /// already looked up.
    fn synthesize_at(
        &mut self,
        m: &mut Machine,
        slot: Slot,
        bindings: &Bindings,
        opts: SynthesisOptions,
    ) -> Result<Synthesized, SynthError> {
        let value_of = |name: &str| bindings.get(name);
        let kept = self
            .lib
            .plans_at(slot)
            .iter()
            .find(|p| p.opts == opts && p.agrees(&value_of));
        let plan = match kept {
            Some(plan) => {
                self.stats.plan_hits += 1;
                #[cfg(debug_assertions)]
                assert_plan_is_the_pipeline(plan, self.lib.template(slot), &self.lib, &value_of);
                plan
            }
            None => {
                let plan = Plan::compile(self.lib.template(slot), &self.lib, opts, &value_of)?;
                self.stats.plans_compiled += 1;
                self.lib.remember(slot, plan)
            }
        };
        install(
            &mut self.codebuf,
            &mut self.stats,
            &mut self.table,
            m,
            plan,
            &value_of,
        )
    }

    /// Synthesize a template object directly (not via the library): the
    /// pipeline runs and its plan is used once.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize_template(
        &mut self,
        m: &mut Machine,
        t: &Template,
        bindings: &Bindings,
        opts: SynthesisOptions,
    ) -> Result<Synthesized, SynthError> {
        let value_of = |name: &str| bindings.get(name);
        let plan = Plan::compile(t, &self.lib, opts, &value_of)?;
        self.stats.plans_compiled += 1;
        install(
            &mut self.codebuf,
            &mut self.stats,
            &mut self.table,
            m,
            &plan,
            &value_of,
        )
    }

    /// Synthesize through the specialization cache: if a block with the
    /// same `(template, bindings, opts)` is already installed, take a
    /// reference to it and charge only link cost ([`CACHE_HIT_CYCLES`]);
    /// otherwise run the full pipeline and cache the result with one
    /// reference.
    ///
    /// Only code that is never patched after installation may be shared
    /// this way (I/O channel endpoints qualify; context-switch code and
    /// executable data structures, whose installed instructions are
    /// rewritten in place, must use [`synthesize`]
    /// (QuajectCreator::synthesize)).
    ///
    /// The returned block's `synth_cycles` reflects what *this* request
    /// was charged, so a hit reports [`CACHE_HIT_CYCLES`].
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize_cached(
        &mut self,
        m: &mut Machine,
        template_name: &str,
        bindings: &Bindings,
        opts: SynthesisOptions,
    ) -> Result<Synthesized, SynthError> {
        let slot = self.slot(template_name)?;
        let key = SpecKey::of(self.lib.template(slot), bindings, opts);
        let cpu = m.active_cpu();
        if let Some((mut s, cross)) = self.cache.acquire_on(&key, cpu) {
            m.charge(CACHE_HIT_CYCLES);
            s.synth_cycles = CACHE_HIT_CYCLES;
            self.stats.cache_hits += 1;
            self.stats.cycles += CACHE_HIT_CYCLES;
            self.stats.bytes_shared += u64::from(s.size);
            if cross {
                self.stats.cache_hits_cross += 1;
                self.stats.bytes_shared_cross += u64::from(s.size);
            } else {
                self.stats.cache_hits_local += 1;
            }
            self.cache_event(CacheEvent::Hit {
                base: s.base,
                bytes: s.size,
                cross,
            });
            return Ok(s);
        }
        let s = self.synthesize_at(m, slot, bindings, opts)?;
        self.stats.cache_misses += 1;
        self.cache.insert_on(key, s.clone(), cpu);
        self.cache_event(CacheEvent::Miss {
            base: s.base,
            bytes: s.size,
        });
        Ok(s)
    }

    /// Unload and free a synthesized object (e.g. at `close` or thread
    /// destruction).
    ///
    /// Cache-aware: a block handed out by [`synthesize_cached`]
    /// (QuajectCreator::synthesize_cached) only drops a reference; the
    /// code stays installed until the last reference is destroyed.
    pub fn destroy(&mut self, m: &mut Machine, s: &Synthesized) {
        match self.cache.release(s.base) {
            Release::Shared => self.cache_event(CacheEvent::Release {
                base: s.base,
                evicted: false,
            }),
            Release::NotCached => self.unload(m, s),
            Release::Retained { trimmed } => {
                // The released entry stays warm (a later identical open
                // will hit) unless the budget trim pushed it straight
                // out again, possibly along with other warm blocks —
                // unload those. One event per block either way.
                if trimmed.iter().all(|t| t.base != s.base) {
                    self.cache_event(CacheEvent::Release {
                        base: s.base,
                        evicted: false,
                    });
                }
                for t in trimmed {
                    self.cache_event(CacheEvent::Release {
                        base: t.base,
                        evicted: true,
                    });
                    self.unload(m, &t);
                }
            }
        }
    }

    /// Set the specialization cache's warm-entry byte budget, unloading
    /// whatever an immediate trim evicts (see [`SpecCache::set_budget`]).
    pub fn set_cache_budget(&mut self, m: &mut Machine, bytes: u32) {
        for t in self.cache.set_budget(bytes) {
            self.cache_event(CacheEvent::Release {
                base: t.base,
                evicted: true,
            });
            self.unload(m, &t);
        }
    }

    /// Evict and unload every warm (refcount-zero) cache entry.
    pub fn flush_cache(&mut self, m: &mut Machine) {
        for t in self.cache.flush() {
            self.cache_event(CacheEvent::Release {
                base: t.base,
                evicted: true,
            });
            self.unload(m, &t);
        }
    }

    fn unload(&mut self, m: &mut Machine, s: &Synthesized) {
        if m.code.unload(s.base).is_some() {
            self.codebuf.free(s.base, s.size);
            self.stats.destroyed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Cond, Instr, Operand::*, Size::L};
    use quamachine::machine::{MachineConfig, RunExit};

    fn creator() -> QuajectCreator {
        QuajectCreator::new(0x10_0000, 0x1_0000)
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::sun3_emulation())
    }

    /// A template with a constant-foldable mode check.
    fn mode_template() -> Template {
        let mut a = Asm::new("modal");
        let mode = a.imm_hole("mode");
        let slow = a.label();
        a.move_(L, mode, Dr(1));
        a.tst(L, Dr(1));
        a.bcc(Cond::Ne, slow);
        a.move_i(L, 111, Dr(0));
        a.halt();
        a.bind(slow);
        a.move_i(L, 222, Dr(0));
        a.halt();
        Template::from_asm(a).unwrap()
    }

    #[test]
    fn synthesize_installs_runnable_code() {
        let mut m = machine();
        let mut c = creator();
        c.lib.add(mode_template());
        let s = c
            .synthesize(
                &mut m,
                "modal",
                &Bindings::new().with("mode", 0),
                SynthesisOptions::full(),
            )
            .unwrap();
        assert!(s.instrs_out < s.instrs_in, "folding shrank the code");
        m.cpu.pc = s.base;
        m.cpu.a[7] = 0x8000;
        assert_eq!(m.run(10_000), RunExit::Halted);
        assert_eq!(m.cpu.d[0], 111);
    }

    #[test]
    fn unoptimized_synthesis_still_correct() {
        let mut m = machine();
        let mut c = creator();
        c.lib.add(mode_template());
        let s = c
            .synthesize(
                &mut m,
                "modal",
                &Bindings::new().with("mode", 0),
                SynthesisOptions::none(),
            )
            .unwrap();
        assert_eq!(s.instrs_out, s.instrs_in, "no folding");
        m.cpu.pc = s.base;
        m.cpu.a[7] = 0x8000;
        assert_eq!(m.run(10_000), RunExit::Halted);
        assert_eq!(m.cpu.d[0], 111);
    }

    #[test]
    fn synthesis_charges_cycles() {
        let mut m = machine();
        let mut c = creator();
        c.lib.add(mode_template());
        let before = m.meter.cycles;
        let s = c
            .synthesize(
                &mut m,
                "modal",
                &Bindings::new().with("mode", 1),
                SynthesisOptions::full(),
            )
            .unwrap();
        assert_eq!(m.meter.cycles - before, s.synth_cycles);
        assert!(s.synth_cycles > 0);
    }

    #[test]
    fn destroy_frees_code_space() {
        let mut m = machine();
        let mut c = creator();
        c.lib.add(mode_template());
        let s = c
            .synthesize(
                &mut m,
                "modal",
                &Bindings::new().with("mode", 0),
                SynthesisOptions::full(),
            )
            .unwrap();
        let used = c.codebuf.in_use;
        assert!(used > 0);
        c.destroy(&mut m, &s);
        assert_eq!(c.codebuf.in_use, 0);
        assert!(m.code.locate(s.base).is_none());
        // The space is reusable.
        let s2 = c
            .synthesize(
                &mut m,
                "modal",
                &Bindings::new().with("mode", 0),
                SynthesisOptions::full(),
            )
            .unwrap();
        assert_eq!(s2.base, s.base);
    }

    /// Install `leaf` (`d0 += 7`) on its own, then synthesize `outer`:
    /// `d0 = 1` and `calls` calls to the leaf through one `call:leaf`
    /// hole, which the bindings fill with the leaf's installed address.
    fn leaf_chain(m: &mut Machine, c: &mut QuajectCreator, calls: usize, collapse: bool) -> u32 {
        let mut leaf = Asm::new("leaf");
        leaf.add(L, Imm(7), Dr(0));
        leaf.rts();
        c.lib.add(Template::from_asm(leaf).unwrap());
        let s_leaf = c
            .synthesize(m, "leaf", &Bindings::new(), SynthesisOptions::full())
            .unwrap();
        let mut outer = Asm::new("outer");
        let call = outer.abs_hole(Template::call_hole_name("leaf"));
        outer.move_i(L, 1, Dr(0));
        for _ in 0..calls {
            outer.jsr(call);
        }
        outer.halt();
        c.lib.add(Template::from_asm(outer).unwrap());
        let opts = SynthesisOptions {
            collapse,
            ..SynthesisOptions::full()
        };
        let b = Bindings::new().with(Template::call_hole_name("leaf"), s_leaf.base);
        c.synthesize(m, "outer", &b, opts).unwrap().base
    }

    /// Run the code at `base` to its `halt`; returns the cycles it took.
    fn run_to_halt(m: &mut Machine, base: u32) -> u64 {
        m.cpu.pc = base;
        m.cpu.a[7] = 0x8000;
        let before = m.meter.cycles;
        assert_eq!(m.run(10_000), RunExit::Halted);
        m.meter.cycles - before
    }

    #[test]
    fn layered_linkage_binds_call_holes() {
        // Synthesized WITHOUT collapsing: the call hole is bound to the
        // leaf's address and a real jsr remains.
        let mut m = machine();
        let mut c = creator();
        let base = leaf_chain(&mut m, &mut c, 1, false);
        let has_jsr = m
            .code
            .block(base)
            .unwrap()
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Jsr(_)));
        assert!(has_jsr, "layered mode keeps the call");
        run_to_halt(&mut m, base);
        assert_eq!(m.cpu.d[0], 8);
    }

    #[test]
    fn collapsed_beats_layered_in_cycles() {
        // The measurable claim behind Collapsing Layers: the collapsed
        // composition of a 4-call chain executes in fewer cycles.
        let run_with = |collapse: bool| -> u64 {
            let mut m = machine();
            let mut c = creator();
            let base = leaf_chain(&mut m, &mut c, 4, collapse);
            let cycles = run_to_halt(&mut m, base);
            assert_eq!(m.cpu.d[0], 1 + 4 * 7, "collapse {collapse}");
            cycles
        };
        let collapsed = run_with(true);
        let layered = run_with(false);
        assert!(
            collapsed < layered,
            "collapsed {collapsed} cycles must beat layered {layered}"
        );
    }

    #[test]
    fn missing_template_error() {
        let mut m = machine();
        let mut c = creator();
        assert!(matches!(
            c.synthesize(&mut m, "nope", &Bindings::new(), SynthesisOptions::full()),
            Err(SynthError::UnknownTemplate(_))
        ));
    }
}
