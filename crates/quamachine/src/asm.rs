//! The assembler DSL: build code blocks with labels, marks, and holes.
//!
//! Templates for kernel code synthesis are written with this builder. A
//! *label* is an intra-block branch target; a *mark* is a named entry point
//! (e.g. the `sw_in` / `sw_in_mmu` double entry of Figure 3); a *hole* is a
//! named operand slot that Factoring Invariants fills at synthesis time.

use std::collections::HashMap;

use crate::code::CodeBlock;
use crate::isa::{BranchTarget, Cond, FpRegList, HoleId, Instr, Operand, RegList, ShiftKind, Size};

/// An intra-block branch label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was used in a branch but never bound.
    UnboundLabel(u32),
    /// A label was bound twice.
    Rebound(u32),
    /// A mark name was used twice.
    DuplicateMark(String),
    /// A hole name was used twice.
    DuplicateHole(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{l} used but never bound"),
            AsmError::Rebound(l) => write!(f, "label L{l} bound twice"),
            AsmError::DuplicateMark(m) => write!(f, "duplicate mark {m:?}"),
            AsmError::DuplicateHole(h) => write!(f, "duplicate hole {h:?}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// The result of assembling: the code block plus template metadata.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// The positioned-independent code block (branches are index-based).
    pub block: CodeBlock,
    /// Hole names in id order.
    pub holes: Vec<String>,
    /// Named entry points: mark name → instruction index.
    pub marks: HashMap<String, usize>,
}

/// The assembler.
#[derive(Debug, Clone)]
pub struct Asm {
    name: String,
    instrs: Vec<Instr>,
    labels: Vec<Option<usize>>,
    holes: Vec<String>,
    marks: HashMap<String, usize>,
}

impl Asm {
    /// Start assembling a block called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            holes: Vec::new(),
            marks: HashMap::new(),
        }
    }

    /// Declare a label (bind it later with [`Asm::bind`]).
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Bind `label` to the next instruction emitted.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0 as usize].is_none(),
            "label L{} bound twice",
            label.0
        );
        self.labels[label.0 as usize] = Some(self.instrs.len());
    }

    /// Declare and immediately bind a label here.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Record a named entry point at the next instruction emitted.
    pub fn mark(&mut self, name: impl Into<String>) {
        let name = name.into();
        assert!(!self.marks.contains_key(&name), "duplicate mark {name:?}");
        self.marks.insert(name, self.instrs.len());
    }

    /// Declare a named hole; returns an operand-ready id.
    pub fn hole(&mut self, name: impl Into<String>) -> HoleId {
        let name = name.into();
        assert!(!self.holes.contains(&name), "duplicate hole {name:?}");
        self.holes.push(name);
        (self.holes.len() - 1) as HoleId
    }

    /// An immediate-hole operand for a fresh hole named `name`.
    pub fn imm_hole(&mut self, name: impl Into<String>) -> Operand {
        Operand::ImmHole(self.hole(name))
    }

    /// An absolute-address-hole operand for a fresh hole named `name`.
    pub fn abs_hole(&mut self, name: impl Into<String>) -> Operand {
        Operand::AbsHole(self.hole(name))
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    // --- Convenience emitters -------------------------------------------

    /// `move.size src,dst`.
    pub fn move_(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::Move(size, src, dst));
    }

    /// `move.size #imm,dst`.
    pub fn move_i(&mut self, size: Size, imm: u32, dst: Operand) {
        self.emit(Instr::Move(size, Operand::Imm(imm), dst));
    }

    /// `movem.l regs,ea` (save).
    pub fn movem_save(&mut self, regs: RegList, ea: Operand) {
        self.emit(Instr::Movem {
            to_mem: true,
            regs,
            ea,
        });
    }

    /// `movem.l ea,regs` (restore).
    pub fn movem_load(&mut self, ea: Operand, regs: RegList) {
        self.emit(Instr::Movem {
            to_mem: false,
            regs,
            ea,
        });
    }

    /// `lea ea,an`.
    pub fn lea(&mut self, ea: Operand, an: u8) {
        self.emit(Instr::Lea(ea, an));
    }

    /// `add.size src,dst`.
    pub fn add(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::Add(size, src, dst));
    }

    /// `sub.size src,dst`.
    pub fn sub(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::Sub(size, src, dst));
    }

    /// `cmp.size src,dst`.
    pub fn cmp(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::Cmp(size, src, dst));
    }

    /// `tst.size ea`.
    pub fn tst(&mut self, size: Size, ea: Operand) {
        self.emit(Instr::Tst(size, ea));
    }

    /// `and.size src,dst`.
    pub fn and(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::And(size, src, dst));
    }

    /// `eor.size src,dst`.
    pub fn eor(&mut self, size: Size, src: Operand, dst: Operand) {
        self.emit(Instr::Eor(size, src, dst));
    }

    /// Shift/rotate.
    pub fn shift(&mut self, kind: ShiftKind, size: Size, count: Operand, dst: Operand) {
        self.emit(Instr::Shift(kind, size, count, dst));
    }

    /// Conditional branch to a label.
    pub fn bcc(&mut self, cond: Cond, target: Label) {
        self.emit(Instr::Bcc(cond, BranchTarget::Label(target.0)));
    }

    /// Unconditional branch to a label.
    pub fn bra(&mut self, target: Label) {
        self.bcc(Cond::T, target);
    }

    /// `dbf dn,label`.
    pub fn dbf(&mut self, dn: u8, target: Label) {
        self.emit(Instr::Dbf(dn, BranchTarget::Label(target.0)));
    }

    /// `jmp ea`.
    pub fn jmp(&mut self, ea: Operand) {
        self.emit(Instr::Jmp(ea));
    }

    /// `jsr ea`.
    pub fn jsr(&mut self, ea: Operand) {
        self.emit(Instr::Jsr(ea));
    }

    /// `rts`.
    pub fn rts(&mut self) {
        self.emit(Instr::Rts);
    }

    /// `rte`.
    pub fn rte(&mut self) {
        self.emit(Instr::Rte);
    }

    /// `trap #n`.
    pub fn trap(&mut self, n: u8) {
        self.emit(Instr::Trap(n));
    }

    /// `cas.size dc,du,ea`.
    pub fn cas(&mut self, size: Size, dc: u8, du: u8, ea: Operand) {
        self.emit(Instr::Cas { size, dc, du, ea });
    }

    /// `tas ea`.
    pub fn tas(&mut self, ea: Operand) {
        self.emit(Instr::Tas(ea));
    }

    /// `link an,#disp`.
    pub fn link(&mut self, an: u8, disp: i16) {
        self.emit(Instr::Link(an, disp));
    }

    /// `unlk an`.
    pub fn unlk(&mut self, an: u8) {
        self.emit(Instr::Unlk(an));
    }

    /// `move ea,sr` (privileged).
    pub fn move_to_sr(&mut self, ea: Operand) {
        self.emit(Instr::MoveSr { to_sr: true, ea });
    }

    /// `movec ea,vbr` (privileged).
    pub fn move_to_vbr(&mut self, ea: Operand) {
        self.emit(Instr::MoveVbr { to_vbr: true, ea });
    }

    /// `fmove.d ea,fpn` (load).
    pub fn fmove_load(&mut self, ea: Operand, fp: u8) {
        self.emit(Instr::FMove {
            to_mem: false,
            fp,
            ea,
        });
    }

    /// `fmove.d fpn,ea` (store).
    pub fn fmove_store(&mut self, fp: u8, ea: Operand) {
        self.emit(Instr::FMove {
            to_mem: true,
            fp,
            ea,
        });
    }

    /// `fmovem regs,ea` (save).
    pub fn fmovem_save(&mut self, regs: FpRegList, ea: Operand) {
        self.emit(Instr::FMovem {
            to_mem: true,
            regs,
            ea,
        });
    }

    /// `fmovem ea,regs` (restore).
    pub fn fmovem_load(&mut self, ea: Operand, regs: FpRegList) {
        self.emit(Instr::FMovem {
            to_mem: false,
            regs,
            ea,
        });
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    /// `halt` (simulation pseudo-instruction).
    pub fn halt(&mut self) {
        self.emit(Instr::Halt);
    }

    /// `kcall #n` (host-service pseudo-instruction).
    pub fn kcall(&mut self, n: u16) {
        self.emit(Instr::KCall(n));
    }

    /// `stop #sr` (privileged).
    pub fn stop(&mut self, sr: u16) {
        self.emit(Instr::Stop(sr));
    }

    // --- Finishing -------------------------------------------------------

    /// Resolve labels and produce the code block.
    ///
    /// # Errors
    ///
    /// Fails if any branch uses an unbound label.
    pub fn assemble(self) -> Result<CodeBlock, AsmError> {
        Ok(self.assemble_full()?.block)
    }

    /// Resolve labels and produce the block plus template metadata
    /// (hole names and marks).
    ///
    /// # Errors
    ///
    /// Fails if any branch uses an unbound label.
    pub fn assemble_full(self) -> Result<Assembled, AsmError> {
        let Asm {
            name,
            mut instrs,
            labels,
            holes,
            marks,
        } = self;
        for i in &mut instrs {
            if let Some(BranchTarget::Label(l)) = i.branch_target() {
                let idx = labels
                    .get(l as usize)
                    .copied()
                    .flatten()
                    .ok_or(AsmError::UnboundLabel(l))?;
                i.set_branch_target(BranchTarget::Idx(idx as u32));
            }
        }
        Ok(Assembled {
            block: CodeBlock::new(name, instrs),
            holes,
            marks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new("t");
        let fwd = a.label();
        let top = a.here();
        a.add(Size::L, Imm(1), Dr(0));
        a.bcc(Cond::Eq, fwd);
        a.bra(top);
        a.bind(fwd);
        a.rts();
        let b = a.assemble().unwrap();
        assert_eq!(b.instrs[1], Instr::Bcc(Cond::Eq, BranchTarget::Idx(3)));
        assert_eq!(b.instrs[2], Instr::Bcc(Cond::T, BranchTarget::Idx(0)));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new("t");
        let l = a.label();
        a.bcc(Cond::Ne, l);
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnboundLabel(0));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut a = Asm::new("t");
        let l = a.here();
        a.nop();
        a.bind(l);
    }

    #[test]
    fn holes_and_marks_are_collected() {
        let mut a = Asm::new("t");
        a.mark("entry_a");
        let h = a.imm_hole("bufsize");
        a.move_(Size::L, h, Dr(0));
        a.mark("entry_b");
        a.rts();
        let asm = a.assemble_full().unwrap();
        assert_eq!(asm.holes, vec!["bufsize".to_string()]);
        assert_eq!(asm.marks["entry_a"], 0);
        assert_eq!(asm.marks["entry_b"], 1);
    }

    #[test]
    #[should_panic(expected = "duplicate hole")]
    fn duplicate_hole_panics() {
        let mut a = Asm::new("t");
        a.hole("x");
        a.hole("x");
    }
}
