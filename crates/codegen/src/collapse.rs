//! Collapsing Layers: inline calls between layered templates.
//!
//! "The Collapsing Layers method eliminates unnecessary procedure calls and
//! context switches, both vertically for layered modules and horizontally
//! for pipelined threads" (paper Section 2.2). A template calls another via
//! the `jsr (<hole "call:NAME">)` convention (see
//! [`Template::call_hole_name`]); this pass splices the callee's body into
//! the caller, deleting the `jsr`/`rts` pair.
//!
//! The *same* call site can instead be left layered: Factoring Invariants
//! then binds the `call:` hole to the callee's installed address and the
//! composition runs through a real procedure call. That gives the ablation
//! benchmark its two arms.

use std::collections::HashMap;

use quamachine::isa::{BranchTarget, Cond, Instr, Operand};

use crate::rewrite;
use crate::template::{Template, TemplateLib};

/// Collapsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollapseError {
    /// A `call:` hole names a template that is not in the library.
    UnknownCallee(String),
    /// Inlining recursion exceeded the depth limit (cyclic templates).
    TooDeep(String),
}

impl std::fmt::Display for CollapseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollapseError::UnknownCallee(n) => write!(f, "unknown callee template {n:?}"),
            CollapseError::TooDeep(n) => write!(f, "template call cycle through {n:?}"),
        }
    }
}

impl std::error::Error for CollapseError {}

/// Inline one call site: replace instruction `site` (a `jsr`) in `caller`
/// with the body of `callee`.
///
/// The callee's trailing `rts` is dropped; interior `rts` instructions
/// become branches past the spliced body. Callee holes are renamed
/// `"<callee>.<hole>"` to keep them distinct in the merged hole table, and
/// callee marks are dropped (entry points of an inlined body are
/// meaningless).
fn inline_site(caller: &Template, site: usize, callee: &Template) -> Template {
    let mut out_instrs: Vec<Instr> = Vec::with_capacity(caller.instrs.len() + callee.instrs.len());
    let mut holes = caller.holes.clone();

    // Map callee hole ids to merged ids.
    let mut callee_hole_map: Vec<u16> = Vec::with_capacity(callee.holes.len());
    for h in &callee.holes {
        let merged = format!("{}.{}", callee.name, h);
        let id = holes.iter().position(|x| *x == merged).unwrap_or_else(|| {
            holes.push(merged);
            holes.len() - 1
        });
        callee_hole_map.push(id as u16);
    }

    let remap_callee_op = |op: Operand| -> Operand {
        match op {
            Operand::ImmHole(h) => Operand::ImmHole(callee_hole_map[h as usize]),
            Operand::AbsHole(h) => Operand::AbsHole(callee_hole_map[h as usize]),
            other => other,
        }
    };

    // Caller prefix (indices unchanged).
    out_instrs.extend_from_slice(&caller.instrs[..site]);

    // Spliced callee body starts at `site`; callee index j maps to
    // site + j. Its "return point" is site + callee.len() (start of the
    // caller suffix), except that a trailing rts is simply dropped.
    let splice_base = site as u32;
    let after_splice = site as u32 + callee.instrs.len() as u32;
    for (j, ins) in callee.instrs.iter().enumerate() {
        let mut ins = *ins;
        // Remap intra-callee branches.
        if let Some(BranchTarget::Idx(t)) = ins.branch_target() {
            ins.set_branch_target(BranchTarget::Idx(splice_base + t));
        }
        // Remap holes.
        ins = rewrite::map_operands(ins, &remap_callee_op);
        // Returns become exits from the spliced body.
        if matches!(ins, Instr::Rts) {
            if j + 1 == callee.instrs.len() {
                // Trailing rts: fall through into the caller suffix. Emit
                // a nop placeholder so indices stay aligned (the peephole
                // and factoring passes delete it).
                ins = Instr::Nop;
            } else {
                ins = Instr::Bcc(Cond::T, BranchTarget::Idx(after_splice));
            }
        }
        out_instrs.push(ins);
    }

    // Caller suffix: indices shift by callee.len() - 1 (the jsr itself is
    // replaced by the body).
    let shift = callee.instrs.len() as i64 - 1;
    for ins in &caller.instrs[site + 1..] {
        let mut ins = *ins;
        if let Some(BranchTarget::Idx(t)) = ins.branch_target() {
            let nt = if t as usize > site {
                (i64::from(t) + shift) as u32
            } else {
                t
            };
            ins.set_branch_target(BranchTarget::Idx(nt));
        }
        out_instrs.push(ins);
    }

    // Caller prefix branches that jumped past the site also shift.
    for ins in out_instrs.iter_mut().take(site) {
        if let Some(BranchTarget::Idx(t)) = ins.branch_target() {
            if t as usize > site {
                ins.set_branch_target(BranchTarget::Idx((i64::from(t) + shift) as u32));
            }
        }
    }

    // Caller marks shift if they pointed past the site.
    let marks: HashMap<String, usize> = caller
        .marks
        .iter()
        .map(|(k, &v)| {
            let nv = if v > site {
                (v as i64 + shift) as usize
            } else {
                v
            };
            (k.clone(), nv)
        })
        .collect();

    Template {
        name: caller.name.clone(),
        instrs: out_instrs,
        holes,
        marks,
    }
}

/// Collapse every `call:` site in `t`, recursively, against `lib`.
///
/// # Errors
///
/// Fails on unknown callees or call cycles.
pub fn collapse(t: &Template, lib: &TemplateLib) -> Result<Template, CollapseError> {
    collapse_depth(t, lib, 0)
}

fn collapse_depth(
    t: &Template,
    lib: &TemplateLib,
    depth: usize,
) -> Result<Template, CollapseError> {
    if depth > 16 {
        return Err(CollapseError::TooDeep(t.name.to_string()));
    }
    let mut cur = t.clone();
    loop {
        let sites = cur.call_sites();
        let Some((site, callee_name)) = sites.first().cloned() else {
            return Ok(cur);
        };
        let callee = lib
            .get(&callee_name)
            .ok_or(CollapseError::UnknownCallee(callee_name))?;
        // Collapse the callee's own calls first (vertical layering).
        let callee = collapse_depth(callee, lib, depth + 1)?;
        cur = inline_site(&cur, site, &callee);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Operand::*, Size::L};

    fn leaf() -> Template {
        let mut a = Asm::new("leaf");
        a.add(L, Imm(7), Dr(0));
        a.rts();
        Template::from_asm(a).unwrap()
    }

    #[test]
    fn single_call_inlines() {
        let mut lib = TemplateLib::new();
        lib.add(leaf());
        let mut a = Asm::new("outer");
        a.move_i(L, 1, Dr(0));
        let c = a.abs_hole(Template::call_hole_name("leaf"));
        a.jsr(c);
        a.move_(L, Dr(0), Dr(1));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = collapse(&t, &lib).unwrap();
        assert!(out.call_sites().is_empty());
        assert!(out.instrs.contains(&Instr::Add(L, Imm(7), Dr(0))));
        assert!(!out.instrs.iter().any(|i| matches!(i, Instr::Jsr(_))));
    }

    #[test]
    fn nested_layers_collapse_vertically() {
        // outer -> mid -> leaf: both boundaries disappear.
        let mut lib = TemplateLib::new();
        lib.add(leaf());
        let mut m = Asm::new("mid");
        let c = m.abs_hole(Template::call_hole_name("leaf"));
        m.jsr(c);
        m.add(L, Imm(100), Dr(0));
        m.rts();
        lib.add(Template::from_asm(m).unwrap());

        let mut o = Asm::new("outer");
        let c = o.abs_hole(Template::call_hole_name("mid"));
        o.jsr(c);
        o.rts();
        let t = Template::from_asm(o).unwrap();
        let out = collapse(&t, &lib).unwrap();
        assert!(out.call_sites().is_empty());
        assert!(out.instrs.contains(&Instr::Add(L, Imm(7), Dr(0))));
        assert!(out.instrs.contains(&Instr::Add(L, Imm(100), Dr(0))));
        assert!(!out.instrs.iter().any(|i| matches!(i, Instr::Jsr(_))));
    }

    #[test]
    fn caller_branches_around_site_are_shifted() {
        let mut lib = TemplateLib::new();
        lib.add(leaf());
        let mut a = Asm::new("outer");
        let end = a.label();
        a.tst(L, Dr(2));
        a.bcc(quamachine::isa::Cond::Eq, end); // jumps past the call
        let c = a.abs_hole(Template::call_hole_name("leaf"));
        a.jsr(c);
        a.bind(end);
        a.move_i(L, 5, Dr(1));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = collapse(&t, &lib).unwrap();
        // Find the branch and check it targets the move #5.
        let Some(Instr::Bcc(_, BranchTarget::Idx(t_idx))) = out
            .instrs
            .iter()
            .find(|i| matches!(i, Instr::Bcc(quamachine::isa::Cond::Eq, _)))
        else {
            panic!("branch missing");
        };
        assert_eq!(out.instrs[*t_idx as usize], Instr::Move(L, Imm(5), Dr(1)));
    }

    #[test]
    fn callee_holes_are_namespaced() {
        let mut lib = TemplateLib::new();
        let mut l = Asm::new("leaf");
        let h = l.imm_hole("k");
        l.move_(L, h, Dr(0));
        l.rts();
        lib.add(Template::from_asm(l).unwrap());

        let mut a = Asm::new("outer");
        let c = a.abs_hole(Template::call_hole_name("leaf"));
        a.jsr(c);
        a.rts();
        let t = Template::from_asm(a).unwrap();
        let out = collapse(&t, &lib).unwrap();
        assert!(out.holes.iter().any(|h| h == "leaf.k"));
        assert_eq!(out.unfilled_holes(), vec!["leaf.k"]);
    }

    #[test]
    fn cycle_detection() {
        let mut lib = TemplateLib::new();
        let mut a = Asm::new("a");
        let c = a.abs_hole(Template::call_hole_name("b"));
        a.jsr(c);
        a.rts();
        lib.add(Template::from_asm(a).unwrap());
        let mut b = Asm::new("b");
        let c = b.abs_hole(Template::call_hole_name("a"));
        b.jsr(c);
        b.rts();
        lib.add(Template::from_asm(b).unwrap());
        let t = lib.get("a").unwrap().clone();
        assert!(matches!(collapse(&t, &lib), Err(CollapseError::TooDeep(_))));
    }
}
