//! Template well-formedness checks.
//!
//! Run before installing synthesized code: a malformed block would fault
//! at run time in ways that are much harder to diagnose.

use quamachine::isa::{BranchTarget, Instr};

use crate::template::Template;

/// Verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A branch target index is outside the block.
    BranchOutOfRange { instr: usize, target: u32 },
    /// A branch still uses an unresolved label.
    UnresolvedLabel { instr: usize },
    /// The block can fall through past its last instruction.
    FallsOffEnd,
    /// An operand references a hole id not in the hole table.
    BadHoleId { instr: usize, hole: u16 },
    /// A mark points outside the block.
    MarkOutOfRange { mark: String, index: usize },
    /// The block is empty.
    Empty,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BranchOutOfRange { instr, target } => {
                write!(
                    f,
                    "instruction {instr}: branch target @{target} out of range"
                )
            }
            VerifyError::UnresolvedLabel { instr } => {
                write!(f, "instruction {instr}: unresolved label")
            }
            VerifyError::FallsOffEnd => write!(f, "control can fall off the end of the block"),
            VerifyError::BadHoleId { instr, hole } => {
                write!(f, "instruction {instr}: hole id {hole} not in hole table")
            }
            VerifyError::MarkOutOfRange { mark, index } => {
                write!(f, "mark {mark:?} points at {index}, outside the block")
            }
            VerifyError::Empty => write!(f, "empty template"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl VerifyError {
    /// The instruction index the failure anchors to, if it has one.
    #[must_use]
    pub fn instr_index(&self) -> Option<usize> {
        match self {
            VerifyError::BranchOutOfRange { instr, .. }
            | VerifyError::UnresolvedLabel { instr }
            | VerifyError::BadHoleId { instr, .. } => Some(*instr),
            VerifyError::MarkOutOfRange { index, .. } => Some(*index),
            VerifyError::FallsOffEnd | VerifyError::Empty => None,
        }
    }
}

/// A verification failure with enough context to debug it: the
/// offending template's name and a disassembly of the instruction
/// window around the failure (bare indices made PR-7's wild-PC hunts
/// needlessly painful).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Name of the template that failed.
    pub template: String,
    /// The underlying structural error.
    pub error: VerifyError,
    /// Disassembly snippet around the failing instruction, one
    /// instruction per line, the offender marked with `->`.
    pub window: String,
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "template {:?}: {}", self.template, self.error)?;
        if !self.window.is_empty() {
            write!(f, "\n{}", self.window)?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyReport {}

/// Disassemble the window of up to `2 × RADIUS + 1` instructions around
/// `at` (the whole block when `at` is `None`, capped at the tail).
fn disasm_window(name: &str, instrs: &[Instr], at: Option<usize>) -> String {
    const RADIUS: usize = 3;
    let (lo, hi, mark) = match at {
        Some(i) => (
            i.saturating_sub(RADIUS),
            (i + RADIUS + 1).min(instrs.len()),
            Some(i),
        ),
        // FallsOffEnd-style failures anchor to the tail.
        None => (instrs.len().saturating_sub(RADIUS + 1), instrs.len(), None),
    };
    let mut out = String::new();
    for (i, instr) in instrs.iter().enumerate().take(hi).skip(lo) {
        let arrow = if mark == Some(i) { "->" } else { "  " };
        out.push_str(&format!("{arrow} {name}+{i:<3} {instr}\n"));
    }
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

/// Verify a stream about to be installed as `name` — no hole may be left
/// — annotating any failure with the name and a disassembly of the
/// failing window.
///
/// # Errors
///
/// Returns the first problem found, as a [`VerifyReport`].
pub fn verify_reported<'a>(
    name: &str,
    instrs: &[Instr],
    marks: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(), VerifyReport> {
    verify_plan(name, instrs, 0, marks)
}

/// [`verify_reported`] on a compiled plan's stream, its holes still in
/// place (each must be one of the `holes` a request fills). Filling a
/// hole rewrites only that operand — no branch target, mark or final
/// instruction — so every instance passes or fails exactly as its plan
/// does, and a plan is verified once, when it is compiled.
///
/// # Errors
///
/// Returns the first problem found, as a [`VerifyReport`].
pub(crate) fn verify_plan<'a>(
    name: &str,
    instrs: &[Instr],
    holes: usize,
    marks: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(), VerifyReport> {
    verify_parts(instrs, holes, marks).map_err(|error| VerifyReport {
        template: name.to_string(),
        window: disasm_window(name, instrs, error.instr_index()),
        error,
    })
}

/// Verify a template.
///
/// # Errors
///
/// Returns the first problem found.
pub fn verify(t: &Template) -> Result<(), VerifyError> {
    let marks = t.marks.iter().map(|(mark, &idx)| (mark.as_str(), idx));
    verify_parts(&t.instrs, t.holes.len(), marks)
}

/// [`verify`] on a stream, the size of its hole table and its marks.
fn verify_parts<'a>(
    instrs: &[Instr],
    holes: usize,
    marks: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(), VerifyError> {
    if instrs.is_empty() {
        return Err(VerifyError::Empty);
    }
    for (i, instr) in instrs.iter().enumerate() {
        match instr.branch_target() {
            Some(BranchTarget::Label(_)) => return Err(VerifyError::UnresolvedLabel { instr: i }),
            Some(BranchTarget::Idx(x)) if x as usize >= instrs.len() => {
                return Err(VerifyError::BranchOutOfRange {
                    instr: i,
                    target: x,
                })
            }
            _ => {}
        }
        for op in instr.operands() {
            if let Some(h) = op.hole() {
                if usize::from(h) >= holes {
                    return Err(VerifyError::BadHoleId { instr: i, hole: h });
                }
            }
        }
    }
    for (mark, idx) in marks {
        if idx >= instrs.len() {
            return Err(VerifyError::MarkOutOfRange {
                mark: mark.to_string(),
                index: idx,
            });
        }
    }
    // The final instruction must not fall through (jmp/rts/rte/halt/bra/
    // stop all qualify). A trailing dbf/bcc falls through by design, so
    // only the *last* instruction is checked.
    let last = instrs.last().expect("non-empty");
    if !last.is_terminator() {
        return Err(VerifyError::FallsOffEnd);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Cond, Operand::*, Size::L};

    #[test]
    fn good_template_verifies() {
        let mut a = Asm::new("t");
        let end = a.label();
        a.tst(L, Dr(0));
        a.bcc(Cond::Eq, end);
        a.move_i(L, 1, Dr(1));
        a.bind(end);
        a.rts();
        let t = Template::from_asm(a).unwrap();
        assert_eq!(verify(&t), Ok(()));
    }

    #[test]
    fn fallthrough_end_rejected() {
        let mut a = Asm::new("t");
        a.move_i(L, 1, Dr(1));
        let t = Template::from_asm(a).unwrap();
        assert_eq!(verify(&t), Err(VerifyError::FallsOffEnd));
    }

    #[test]
    fn empty_rejected() {
        let a = Asm::new("t");
        let t = Template::from_asm(a).unwrap();
        assert_eq!(verify(&t), Err(VerifyError::Empty));
    }

    #[test]
    fn out_of_range_branch_rejected() {
        use quamachine::isa::{BranchTarget, Instr};
        let t = Template {
            name: "t".into(),
            instrs: vec![Instr::Bcc(Cond::Eq, BranchTarget::Idx(9)), Instr::Rts],
            holes: vec![],
            marks: std::collections::HashMap::new(),
        };
        assert!(matches!(
            verify(&t),
            Err(VerifyError::BranchOutOfRange {
                instr: 0,
                target: 9
            })
        ));
    }

    #[test]
    fn bad_hole_id_rejected() {
        use quamachine::isa::Instr;
        let t = Template {
            name: "t".into(),
            instrs: vec![Instr::Move(L, ImmHole(3), Dr(0)), Instr::Rts],
            holes: vec!["only_one".into()],
            marks: std::collections::HashMap::new(),
        };
        assert!(matches!(
            verify(&t),
            Err(VerifyError::BadHoleId { hole: 3, .. })
        ));
    }

    #[test]
    fn report_names_template_and_disassembles_window() {
        use quamachine::isa::{BranchTarget, Instr};
        let t = Template {
            name: "pipe_write".into(),
            instrs: vec![
                Instr::Move(L, Imm(1), Dr(0)),
                Instr::Bcc(Cond::Eq, BranchTarget::Idx(9)),
                Instr::Rts,
            ],
            holes: vec![],
            marks: std::collections::HashMap::new(),
        };
        let r = verify_reported(&t.name, &t.instrs, std::iter::empty()).unwrap_err();
        assert_eq!(r.template, "pipe_write");
        assert!(matches!(r.error, VerifyError::BranchOutOfRange { .. }));
        // The snippet marks the offending branch and shows neighbours.
        assert!(r.window.contains("-> pipe_write+1"), "{}", r.window);
        assert!(r.window.contains("   pipe_write+0"), "{}", r.window);
        let msg = r.to_string();
        assert!(msg.contains("pipe_write") && msg.contains("out of range"));
    }

    #[test]
    fn report_anchors_fallthrough_at_the_tail() {
        let mut a = Asm::new("drain");
        a.move_i(L, 1, Dr(1));
        a.move_i(L, 2, Dr(2));
        let t = Template::from_asm(a).unwrap();
        let r = verify_reported(&t.name, &t.instrs, std::iter::empty()).unwrap_err();
        assert_eq!(r.error, VerifyError::FallsOffEnd);
        assert!(r.window.contains("drain+1"), "{}", r.window);
    }
}
