//! Code memory: instruction blocks registered at simulated addresses.
//!
//! Synthesized code lives at real addresses in the machine's address space
//! so that vector tables, `jmp`-chained executable data structures, and
//! return addresses all work exactly as on hardware. Instructions are kept
//! structurally (not encoded to bits), each occupying its realistic encoded
//! size; the PC walks byte offsets within a block.
//!
//! Blocks support in-place *patching* — the mechanism behind executable
//! data structures: the ready queue patches the `jmp` at the end of each
//! thread's context-switch-out code when threads enter or leave the queue
//! (paper Figure 3).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::cost::instr_cost;
use crate::error::MachineError;
use crate::isa::{encode, Instr, Operand};

/// An assembled block of code, positioned at a base address.
///
/// Only `instrs` belongs to the block: the name, the offsets and the facts
/// never change when a hole is filled or a target patched (a patch keeps
/// every size and, but for a hole it fills, every cost), so blocks
/// instantiated from one synthesis plan share the plan's copies.
#[derive(Debug, Clone)]
pub struct CodeBlock {
    /// Name, for the monitor and disassembly listings.
    pub name: Arc<str>,
    /// Instructions.
    pub instrs: Vec<Instr>,
    /// Byte offset of each instruction, plus the total size at the end.
    pub offsets: Arc<[u32]>,
    /// The facts of `instrs`, when the builder has them already; loading a
    /// block without them computes them.
    pub facts: Option<BlockFacts>,
}

/// The [`InstrFacts`] of every instruction of a stream, computed once and
/// shared by every block instantiated from it.
#[derive(Debug, Clone)]
pub struct BlockFacts(Arc<[InstrFacts]>);

impl BlockFacts {
    /// The facts of `instrs` once every hole in it is filled: what each
    /// instance of a synthesis plan has, since filling a hole changes
    /// neither an instruction's cost nor its size.
    #[must_use]
    pub fn filled(instrs: &[Instr]) -> BlockFacts {
        BlockFacts(
            instrs
                .iter()
                .map(|i| InstrFacts {
                    hole: false,
                    ..InstrFacts::of(i)
                })
                .collect(),
        )
    }
}

impl CodeBlock {
    /// Build a block from instructions, computing offsets.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, instrs: Vec<Instr>) -> CodeBlock {
        let offsets = encode::offsets(&instrs).into();
        CodeBlock {
            name: name.into(),
            instrs,
            offsets,
            facts: None,
        }
    }

    /// Total encoded size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u32 {
        *self
            .offsets
            .last()
            .expect("offsets always has a final entry")
    }

    /// The instruction index whose offset is exactly `off`, if any.
    #[must_use]
    pub fn index_at(&self, off: u32) -> Option<usize> {
        // Offsets are strictly increasing; binary search.
        self.offsets[..self.instrs.len()].binary_search(&off).ok()
    }
}

/// A position in code memory: which block and which instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeLoc {
    /// Base address of the containing block.
    pub block_base: u32,
    /// Instruction index within the block.
    pub index: usize,
}

/// What the executor needs to know about an instruction before running
/// it, and which changes only when the instruction itself does: its static
/// cost and whether it still has a hole. Computed when [`CodeMem`] takes
/// ownership of a block (unless the block brings its [`BlockFacts`]) and
/// refreshed by the patch methods, so a step reads three bytes instead of
/// re-deriving them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InstrFacts {
    /// `instr_cost(i).0`: base cycles.
    pub(crate) base: u8,
    /// `instr_cost(i).1`: memory references.
    pub(crate) refs: u8,
    /// `i.has_hole()`.
    pub(crate) hole: bool,
}

impl InstrFacts {
    pub(crate) fn of(i: &Instr) -> InstrFacts {
        let (base, refs) = instr_cost(i);
        InstrFacts {
            base: u8::try_from(base).expect("instr_cost base fits a byte"),
            refs: u8::try_from(refs).expect("instr_cost refs fit a byte"),
            hole: i.has_hole(),
        }
    }
}

/// A loaded block: the block, where it sits, the load that put it in its
/// slot, and one [`InstrFacts`] per instruction.
#[derive(Debug)]
pub(crate) struct Resident {
    pub(crate) base: u32,
    /// Unique to this load: a [`SlabLoc`] remembered with it is good while
    /// the slot still holds this generation.
    pub(crate) gen: u64,
    pub(crate) block: CodeBlock,
    /// Shared with the plan the block was made from until a patch changes
    /// one (filling a hole).
    pub(crate) facts: Arc<[InstrFacts]>,
}

impl Resident {
    /// Replace instruction `i` and its facts together: the one place a
    /// resident instruction changes.
    fn set(&mut self, i: usize, new: Instr) {
        self.block.instrs[i] = new;
        let facts = InstrFacts::of(&new);
        if self.facts[i] != facts {
            Arc::make_mut(&mut self.facts)[i] = facts;
        }
    }
}

/// A position in the slab: which slot and which instruction. Valid only
/// while the slot holds the [`Resident::gen`] it was obtained under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabLoc {
    pub(crate) slot: u32,
    pub(crate) index: u32,
}

/// Lines in [`CodeMem`]'s table of recent answers.
const LINES: usize = 512;

/// One remembered answer: `addr` resolved to `at` in the block of
/// generation `gen`.
#[derive(Debug, Clone, Copy)]
struct Line {
    gen: u64,
    addr: u32,
    at: SlabLoc,
}

/// A direct-mapped table of recent [`CodeMem::locate_slab`] answers,
/// indexed by `((addr >> 1) ^ (addr >> 10)) % LINES`: instructions start
/// on even addresses, and folding in the bits above the first KB keeps
/// the same instruction of blocks 1, 2 or 4 KB apart (two threads'
/// copies of one template, say) on different lines. A line is good only
/// while the block it names is still loaded: blocks never overlap, so no
/// other block can cover an address while that one does, and a patch
/// never moves an instruction boundary. Only the `unload` of that very
/// block can change the answer, and a load into its slot gets a new
/// generation.
struct Lines(Box<[Cell<Line>]>);

impl Lines {
    fn line(&self, addr: u32) -> &Cell<Line> {
        &self.0[((addr >> 1) ^ (addr >> 10)) as usize % LINES]
    }
}

impl Default for Lines {
    fn default() -> Lines {
        // No generation is ever `u64::MAX`, so an unused line never answers.
        let empty = Line {
            gen: u64::MAX,
            addr: 0,
            at: SlabLoc { slot: 0, index: 0 },
        };
        Lines(vec![Cell::new(empty); LINES].into_boxed_slice())
    }
}

impl fmt::Debug for Lines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lines({LINES})")
    }
}

/// The registry of code blocks.
///
/// Blocks live in a slab; the `BTreeMap` only maps a base address to its
/// slot, so a holder of a [`SlabLoc`] reaches the block without searching.
#[derive(Debug, Default)]
pub struct CodeMem {
    index: BTreeMap<u32, u32>,
    slab: Vec<Option<Resident>>,
    free_slots: Vec<u32>,
    /// The generation the next `load` gives its block.
    next_gen: u64,
    /// Recent answers of `locate_slab`, each valid while its block is.
    lines: Lines,
    /// How many `locate_slab` calls no line could answer.
    searches: Cell<u64>,
    /// Total bytes ever loaded (for the Section 6.4 size accounting).
    pub bytes_loaded: u64,
    /// Total bytes freed.
    pub bytes_freed: u64,
}

impl CodeMem {
    /// Create an empty code memory.
    #[must_use]
    pub fn new() -> CodeMem {
        CodeMem::default()
    }

    /// Register a block at `base`. Returns the entry address (= `base`).
    ///
    /// # Errors
    ///
    /// Fails if the block would overlap an existing block.
    pub fn load(&mut self, base: u32, mut block: CodeBlock) -> Result<u32, MachineError> {
        let size = block.size_bytes();
        // Loaded blocks never overlap one another, so the only one that can
        // reach into `base..base + size` is the one with the greatest base
        // inside or below that range: it must end at or before `base`.
        let last = u64::from(base) + u64::from(size.max(1)) - 1;
        let last = u32::try_from(last).unwrap_or(u32::MAX);
        if let Some((&pb, &ps)) = self.index.range(..=last).next_back() {
            let prev = &self.resident(ps).block;
            if u64::from(pb) + u64::from(prev.size_bytes()) > u64::from(base) {
                return Err(MachineError::CodeOverlap(pb.max(base)));
            }
        }
        self.bytes_loaded += u64::from(size);
        let gen = self.next_gen;
        self.next_gen += 1;
        let facts = match block.facts.take() {
            Some(BlockFacts(facts)) => {
                debug_assert!(
                    block
                        .instrs
                        .iter()
                        .map(InstrFacts::of)
                        .eq(facts.iter().copied()),
                    "{}: the facts it brought are not its instructions'",
                    block.name
                );
                facts
            }
            None => block.instrs.iter().map(InstrFacts::of).collect(),
        };
        let resident = Some(Resident {
            base,
            gen,
            facts,
            block,
        });
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.slab[slot as usize] = resident;
            slot
        } else {
            self.slab.push(resident);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 code blocks")
        };
        self.index.insert(base, slot);
        Ok(base)
    }

    /// Remove the block based at `base`, returning it.
    pub fn unload(&mut self, base: u32) -> Option<CodeBlock> {
        let slot = self.index.remove(&base)?;
        let r = self.slab[slot as usize]
            .take()
            .expect("an indexed slot is occupied");
        self.free_slots.push(slot);
        self.bytes_freed += u64::from(r.block.size_bytes());
        Some(r.block)
    }

    /// The block at `at`, if its slot still holds generation `gen` — the
    /// test every remembered [`SlabLoc`] passes before it is used.
    #[inline]
    pub(crate) fn live(&self, at: SlabLoc, gen: u64) -> Option<&Resident> {
        match self.slab.get(at.slot as usize) {
            Some(Some(r)) if r.gen == gen => Some(r),
            _ => None,
        }
    }

    /// The block in `slot`.
    pub(crate) fn resident(&self, slot: u32) -> &Resident {
        self.slab[slot as usize]
            .as_ref()
            .expect("slot holds a loaded block")
    }

    /// The fetch of `pc` that no memo answered: [`CodeMem::locate_slab`],
    /// and the block it names.
    pub(crate) fn fetch_slow(&self, pc: u32) -> Result<(SlabLoc, &Resident), MachineError> {
        let at = self
            .locate_slab(pc)
            .ok_or(MachineError::BadCodeAddress(pc))?;
        Ok((at, self.resident(at.slot)))
    }

    /// Resolve an address to a slab position: the remembered answer if
    /// its line holds one for this address and its block is still
    /// loaded, else the search
    /// (whose answer the line then keeps). The executor's fetch memo asks
    /// this only for a `pc` it could not name itself.
    pub(crate) fn locate_slab(&self, addr: u32) -> Option<SlabLoc> {
        let line = self.lines.line(addr);
        let l = line.get();
        if l.addr == addr && self.live(l.at, l.gen).is_some() {
            return Some(l.at);
        }
        self.searches.set(self.searches.get() + 1);
        let at = self.search(addr)?;
        line.set(Line {
            gen: self.resident(at.slot).gen,
            addr,
            at,
        });
        Some(at)
    }

    /// How many times resolving an address (a fetch the memo could not
    /// name, a patch, a host `locate`) found no line to answer it and
    /// searched.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.searches.get()
    }

    /// Resolve an address to a slab position by searching, remembering
    /// nothing: the oracle the remembered answers are checked against.
    pub(crate) fn search(&self, addr: u32) -> Option<SlabLoc> {
        let (base, &slot) = self.index.range(..=addr).next_back()?;
        let block = &self.resident(slot).block;
        let off = addr - base;
        if off >= block.size_bytes() {
            return None;
        }
        let index = block.index_at(off)? as u32;
        Some(SlabLoc { slot, index })
    }

    /// The block and instruction a patch at `addr` rewrites.
    fn patch_site(&mut self, addr: u32) -> Result<(&mut Resident, usize), MachineError> {
        let at = self.locate_slab(addr).ok_or(MachineError::BadPatch(addr))?;
        debug_assert_eq!(Some(at), self.search(addr), "a stale line at {addr:#x}");
        let r = self.slab[at.slot as usize]
            .as_mut()
            .expect("slot holds a loaded block");
        Ok((r, at.index as usize))
    }

    /// Bytes of code currently resident.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.bytes_loaded - self.bytes_freed
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Resolve an address to a code location.
    #[must_use]
    pub fn locate(&self, addr: u32) -> Option<CodeLoc> {
        let at = self.locate_slab(addr)?;
        Some(CodeLoc {
            block_base: self.resident(at.slot).base,
            index: at.index as usize,
        })
    }

    /// The instruction at a location.
    #[must_use]
    pub fn instr(&self, loc: CodeLoc) -> Option<&Instr> {
        self.block(loc.block_base)?.instrs.get(loc.index)
    }

    /// The block based at `base`.
    #[must_use]
    pub fn block(&self, base: u32) -> Option<&CodeBlock> {
        self.index.get(&base).map(|&s| &self.resident(s).block)
    }

    /// The address of instruction `index` within the block at `base`.
    #[must_use]
    pub fn addr_of(&self, base: u32, index: usize) -> Option<u32> {
        let b = self.block(base)?;
        b.offsets.get(index).map(|o| base + o)
    }

    /// Iterate over `(base, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &CodeBlock)> {
        self.index
            .iter()
            .map(|(b, &s)| (*b, &self.resident(s).block))
    }

    /// Patch the instruction at `addr` in place.
    ///
    /// The replacement must have the same encoded size (otherwise every
    /// later address in the block would shift); this is exactly the
    /// constraint real self-modifying code has.
    ///
    /// # Errors
    ///
    /// Fails if no instruction starts at `addr` or the size would change.
    pub fn patch(&mut self, addr: u32, new: Instr) -> Result<(), MachineError> {
        let (r, i) = self.patch_site(addr)?;
        let old_size = encode::size_bytes(&r.block.instrs[i]);
        let new_size = encode::size_bytes(&new);
        if old_size != new_size {
            return Err(MachineError::BadPatch(addr));
        }
        r.set(i, new);
        Ok(())
    }

    /// Patch the target of the `jmp` instruction at `addr` — the primitive
    /// operation on executable data structures.
    ///
    /// # Errors
    ///
    /// Fails if the instruction at `addr` is not `jmp (abs).l`.
    pub fn patch_jmp_target(&mut self, addr: u32, target: u32) -> Result<(), MachineError> {
        let (r, i) = self.patch_site(addr)?;
        match r.block.instrs[i] {
            Instr::Jmp(Operand::Abs(_) | Operand::AbsHole(_)) => {
                r.set(i, Instr::Jmp(Operand::Abs(target)));
                Ok(())
            }
            _ => Err(MachineError::BadPatch(addr)),
        }
    }

    /// Retarget an absolute `jsr` in place (same encoded size, so no
    /// other instruction moves). This is the inline-cache patch point of
    /// the fused syscall path: a call site bound to one specialized body
    /// can be rebound to another, or back to its slow-path thunk.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is not a loaded instruction or not an absolute
    /// `jsr`.
    pub fn patch_jsr_target(&mut self, addr: u32, target: u32) -> Result<(), MachineError> {
        let (r, i) = self.patch_site(addr)?;
        match r.block.instrs[i] {
            Instr::Jsr(Operand::Abs(_) | Operand::AbsHole(_)) => {
                r.set(i, Instr::Jsr(Operand::Abs(target)));
                Ok(())
            }
            _ => Err(MachineError::BadPatch(addr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand::*, Size};

    fn block3() -> CodeBlock {
        CodeBlock::new(
            "t",
            vec![
                Instr::Nop,                          // 2 bytes @0
                Instr::Move(Size::L, Imm(1), Dr(0)), // 6 bytes @2
                Instr::Jmp(Abs(0x100)),              // 6 bytes @8
            ],
        )
    }

    #[test]
    fn load_and_locate() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap();
        let l = cm.locate(0x1000).unwrap();
        assert_eq!(l.index, 0);
        let l = cm.locate(0x1002).unwrap();
        assert_eq!(l.index, 1);
        let l = cm.locate(0x1008).unwrap();
        assert_eq!(l.index, 2);
        // Mid-instruction addresses do not resolve.
        assert!(cm.locate(0x1003).is_none());
        // Past the end.
        assert!(cm.locate(0x100E).is_none());
    }

    #[test]
    fn overlap_detection() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap(); // occupies 0x1000..0x100E
        assert!(cm.load(0x100C, block3()).is_err());
        assert!(cm.load(0x0FF8, block3()).is_err());
        assert!(cm.load(0x100E, block3()).is_ok());
    }

    #[test]
    fn unload_frees_space() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap();
        assert_eq!(cm.resident_bytes(), 14);
        cm.unload(0x1000).unwrap();
        assert_eq!(cm.resident_bytes(), 0);
        assert!(cm.locate(0x1000).is_none());
        assert!(cm.load(0x1000, block3()).is_ok());
    }

    #[test]
    fn slots_are_reused_and_iteration_stays_in_address_order() {
        let mut cm = CodeMem::new();
        for base in [0x3000, 0x1000, 0x2000] {
            cm.load(base, block3()).unwrap();
        }
        let gen = cm.next_gen;
        cm.unload(0x1000).unwrap();
        cm.load(0x4000, block3()).unwrap();
        assert_eq!(cm.next_gen, gen + 1);
        assert_eq!(cm.slab.len(), 3, "the freed slot was taken");
        let bases: Vec<u32> = cm.iter().map(|(b, _)| b).collect();
        assert_eq!(bases, [0x2000, 0x3000, 0x4000]);
        assert_eq!(cm.block_count(), 3);
        assert!(cm.block(0x1000).is_none());
        assert_eq!(cm.locate(0x4002).map(|l| l.block_base), Some(0x4000));
    }

    #[test]
    fn facts_follow_every_patch() {
        let mut cm = CodeMem::new();
        cm.load(
            0x1000,
            CodeBlock::new(
                "holes",
                vec![
                    Instr::Jmp(AbsHole(0)),
                    Instr::Jsr(AbsHole(1)),
                    Instr::Move(Size::L, ImmHole(2), Dr(0)),
                ],
            ),
        )
        .unwrap();
        let facts = |cm: &CodeMem| {
            cm.resident(cm.locate_slab(0x1000).unwrap().slot)
                .facts
                .to_vec()
        };
        assert!(facts(&cm).iter().all(|f| f.hole));
        cm.patch_jmp_target(0x1000, 0x2000).unwrap();
        cm.patch_jsr_target(0x1006, 0x2000).unwrap();
        cm.patch(0x100C, Instr::Move(Size::L, Dr(1), Abs(0x40)))
            .unwrap();
        let want: Vec<InstrFacts> = cm
            .block(0x1000)
            .unwrap()
            .instrs
            .iter()
            .map(InstrFacts::of)
            .collect();
        assert_eq!(facts(&cm), want);
        assert!(want.iter().all(|f| !f.hole));
        assert_eq!((want[2].base, want[2].refs), (2, 1));
    }

    #[test]
    fn patch_jmp() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap();
        cm.patch_jmp_target(0x1008, 0x2222).unwrap();
        let loc = cm.locate(0x1008).unwrap();
        assert_eq!(cm.instr(loc), Some(&Instr::Jmp(Abs(0x2222))));
        // Patching a non-jmp fails.
        assert!(cm.patch_jmp_target(0x1000, 0).is_err());
    }

    #[test]
    fn patch_jsr() {
        let mut cm = CodeMem::new();
        cm.load(
            0x1000,
            CodeBlock::new(
                "site",
                vec![
                    Instr::Jsr(Abs(0x100)), // 6 bytes @0
                    Instr::Rts,             // 2 bytes @6
                ],
            ),
        )
        .unwrap();
        cm.patch_jsr_target(0x1000, 0x3333).unwrap();
        let loc = cm.locate(0x1000).unwrap();
        assert_eq!(cm.instr(loc), Some(&Instr::Jsr(Abs(0x3333))));
        // Re-patching (inline-cache rebind) also works.
        cm.patch_jsr_target(0x1000, 0x4444).unwrap();
        let loc = cm.locate(0x1000).unwrap();
        assert_eq!(cm.instr(loc), Some(&Instr::Jsr(Abs(0x4444))));
        // Patching a non-jsr fails.
        assert!(cm.patch_jsr_target(0x1006, 0).is_err());
    }

    #[test]
    fn patch_rejects_size_change() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap();
        // Nop (2 bytes) -> move.l #imm (6 bytes) must fail.
        assert!(cm
            .patch(0x1000, Instr::Move(Size::L, Imm(1), Dr(1)))
            .is_err());
        // Same-size replacement succeeds.
        assert!(cm.patch(0x1000, Instr::Rts).is_ok());
    }

    #[test]
    fn addr_of_matches_offsets() {
        let mut cm = CodeMem::new();
        cm.load(0x1000, block3()).unwrap();
        assert_eq!(cm.addr_of(0x1000, 0), Some(0x1000));
        assert_eq!(cm.addr_of(0x1000, 2), Some(0x1008));
    }
}
