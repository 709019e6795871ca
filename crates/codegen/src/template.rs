//! Code templates and hole bindings.
//!
//! A template is a parameterized code fragment written once (in the kernel
//! source) and specialized many times at run time. The paper's kernel kept
//! "1000 lines for the templates used in code synthesis (e.g., queues,
//! threads, files)" (Section 6.4).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use quamachine::asm::{Asm, AsmError};
use quamachine::isa::{encode, HoleId, Instr, Operand};

use crate::hash::FoldMap;
use crate::plan::Plan;

/// A named, parameterized code fragment.
#[derive(Debug, Clone)]
pub struct Template {
    /// Template name (diagnostics, and the key in a [`TemplateLib`]),
    /// shared with every plan, key and block made from the template.
    pub name: Arc<str>,
    /// The instructions, with intra-block branches resolved to indices.
    pub instrs: Vec<Instr>,
    /// Hole names, indexed by [`HoleId`].
    pub holes: Vec<String>,
    /// Named entry points: name → instruction index.
    pub marks: HashMap<String, usize>,
}

impl Template {
    /// Build a template from an assembler.
    ///
    /// # Errors
    ///
    /// Fails if the assembly has unbound labels.
    pub fn from_asm(asm: Asm) -> Result<Template, AsmError> {
        let assembled = asm.assemble_full()?;
        Ok(Template {
            name: assembled.block.name.clone(),
            instrs: assembled.block.instrs,
            holes: assembled.holes,
            marks: assembled.marks,
        })
    }

    /// The hole id for `name`, if declared.
    #[must_use]
    pub fn hole_id(&self, name: &str) -> Option<HoleId> {
        self.holes
            .iter()
            .position(|h| h == name)
            .map(|i| i as HoleId)
    }

    /// Names of holes that are still unfilled in the instruction stream.
    #[must_use]
    pub fn unfilled_holes(&self) -> Vec<&str> {
        let mut seen = vec![false; self.holes.len()];
        for i in &self.instrs {
            for op in i.operands() {
                if let Some(h) = op.hole() {
                    if let Some(s) = seen.get_mut(h as usize) {
                        *s = true;
                    }
                }
            }
        }
        self.holes
            .iter()
            .enumerate()
            .filter(|(i, _)| seen[*i])
            .map(|(_, n)| n.as_str())
            .collect()
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u32 {
        encode::block_bytes(&self.instrs)
    }

    /// Call sites produced by [`call`](Template::call_hole_name)-style
    /// holes: `(instruction index, callee template name)` for every
    /// `jsr (<hole "call:NAME">)` in the template.
    #[must_use]
    pub fn call_sites(&self) -> Vec<(usize, String)> {
        let mut v = Vec::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            if let Instr::Jsr(Operand::AbsHole(h)) = instr {
                if let Some(name) = self.holes.get(*h as usize) {
                    if let Some(callee) = name.strip_prefix("call:") {
                        v.push((i, callee.to_string()));
                    }
                }
            }
        }
        v
    }

    /// A copy of this template with every `rte` replaced by `rts`,
    /// named `"<name>~rts"`.
    ///
    /// Kernel bodies end in `rte` because they are entered through a
    /// trap. When the same body is fused into a caller's address space
    /// — spliced behind a guard and entered by `jsr` — there is no
    /// exception frame to unwind, so the returns become plain `rts`.
    /// `rte` and `rts` encode to the same 2 bytes, so index-based
    /// branch targets and marks survive unchanged.
    #[must_use]
    pub fn returning_variant(&self) -> Template {
        let mut t = self.clone();
        t.name = format!("{}~rts", self.name).into();
        for i in &mut t.instrs {
            if matches!(i, Instr::Rte) {
                *i = Instr::Rts;
            }
        }
        t
    }

    /// The conventional hole name for a call site on template `callee`.
    ///
    /// Emit the call as `asm.jsr(asm.abs_hole(Template::call_hole_name("x")))`.
    /// Collapsing Layers inlines such sites; alternatively Factoring
    /// Invariants can bind the hole to the callee's installed address,
    /// producing the *layered* (procedure-call) composition the paper's
    /// optimization is measured against.
    #[must_use]
    pub fn call_hole_name(callee: &str) -> String {
        format!("call:{callee}")
    }
}

/// Values for a template's holes, by name.
///
/// A template has a handful of holes, so the pairs sit in a vector and a
/// lookup compares names: cheaper to build and to search than a hash
/// table at this size. A name written as a literal is borrowed, not
/// copied, so binding one allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    pairs: Vec<(Cow<'static, str>, u32)>,
}

impl Bindings {
    /// No bindings.
    #[must_use]
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Bind `name` to `value` (replacing any previous binding).
    pub fn bind(&mut self, name: impl Into<Cow<'static, str>>, value: u32) -> &mut Self {
        let name = name.into();
        match self.pairs.iter_mut().find(|(n, _)| *n == name) {
            Some(pair) => pair.1 = value,
            None => self.pairs.push((name, value)),
        }
        self
    }

    /// Builder-style bind.
    #[must_use]
    pub fn with(mut self, name: impl Into<Cow<'static, str>>, value: u32) -> Self {
        self.bind(name, value);
        self
    }

    /// Look up a binding.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u32> {
        self.pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The bindings as `(name, value)` pairs sorted by name — the
    /// canonical form used by the specialization cache key.
    #[must_use]
    pub fn sorted_pairs(&self) -> Vec<(Cow<'static, str>, u32)> {
        let mut v = self.pairs.clone();
        v.sort();
        v
    }
}

/// Bind each pair in turn; the vector is sized once from the iterator.
impl<N: Into<Cow<'static, str>>> FromIterator<(N, u32)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (N, u32)>>(pairs: I) -> Bindings {
        let pairs = pairs.into_iter();
        let mut b = Bindings {
            pairs: Vec::with_capacity(pairs.size_hint().0),
        };
        for (name, value) in pairs {
            b.bind(name, value);
        }
        b
    }
}

/// Most plans kept per template, across all
/// [`SynthesisOptions`](crate::creator::SynthesisOptions). Two cover the kernel's templates
/// (a decision hole is rare, and those there are take a handful of
/// values); the cap bounds what a decision hole with unbounded values
/// can hold on to.
pub const PLAN_CAP: usize = 8;

/// A template and what has been compiled from it.
#[derive(Debug)]
struct Entry {
    template: Template,
    /// Oldest first; at most [`PLAN_CAP`].
    plans: Vec<Plan>,
}

/// Where a template sits in its [`TemplateLib`]: found by one name
/// lookup, then good for the template and its plans without another.
/// Stable for the life of the library (replacing a template keeps its
/// slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(usize);

/// A library of templates, keyed by name (used by Collapsing Layers to
/// find callees), each with its compiled [`Plan`]s.
#[derive(Debug, Default)]
pub struct TemplateLib {
    slots: FoldMap<Arc<str>, Slot>,
    entries: Vec<Entry>,
}

impl TemplateLib {
    /// An empty library.
    #[must_use]
    pub fn new() -> TemplateLib {
        TemplateLib::default()
    }

    /// Add a template (replacing any previous one of the same name).
    /// Drops every plan in the library: any of them may have inlined the
    /// template this one replaces.
    pub fn add(&mut self, t: Template) {
        for e in &mut self.entries {
            e.plans.clear();
        }
        let entry = Entry {
            template: t,
            plans: Vec::new(),
        };
        match self.slots.get(&entry.template.name) {
            Some(&Slot(i)) => self.entries[i] = entry,
            None => {
                let slot = Slot(self.entries.len());
                self.slots.insert(entry.template.name.clone(), slot);
                self.entries.push(entry);
            }
        }
    }

    /// The slot of template `name`: the one hash lookup a synthesis
    /// makes.
    #[must_use]
    pub(crate) fn slot(&self, name: &str) -> Option<Slot> {
        self.slots.get(name).copied()
    }

    /// The template in `slot`.
    #[must_use]
    pub(crate) fn template(&self, slot: Slot) -> &Template {
        &self.entries[slot.0].template
    }

    /// Look up a template.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Template> {
        self.slot(name).map(|s| self.template(s))
    }

    /// Every template, in no particular order.
    pub fn templates(&self) -> impl Iterator<Item = &Template> + '_ {
        self.entries.iter().map(|e| &e.template)
    }

    /// The plans compiled from template `name`, oldest first.
    #[must_use]
    pub fn plans(&self, name: &str) -> &[Plan] {
        self.slot(name).map_or(&[], |s| self.plans_at(s))
    }

    /// The plans compiled from the template in `slot`, oldest first.
    #[must_use]
    pub(crate) fn plans_at(&self, slot: Slot) -> &[Plan] {
        &self.entries[slot.0].plans
    }

    /// Every template that has plans, with them, sorted by name.
    #[must_use]
    pub fn planned(&self) -> Vec<(&str, &[Plan])> {
        let mut v: Vec<(&str, &[Plan])> = self
            .entries
            .iter()
            .filter(|e| !e.plans.is_empty())
            .map(|e| (&*e.template.name, e.plans.as_slice()))
            .collect();
        v.sort_by_key(|&(name, _)| name);
        v
    }

    /// Keep `plan` beside the template in `slot`, pushing out the oldest
    /// plan past [`PLAN_CAP`].
    pub(crate) fn remember(&mut self, slot: Slot, plan: Plan) -> &Plan {
        let plans = &mut self.entries[slot.0].plans;
        if plans.len() == PLAN_CAP {
            plans.remove(0);
        }
        plans.push(plan);
        plans.last().expect("just pushed")
    }

    /// Number of templates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{Operand::*, Size::L};

    #[test]
    fn from_asm_collects_metadata() {
        let mut a = Asm::new("t");
        a.mark("start");
        let h = a.imm_hole("x");
        a.move_(L, h, Dr(0));
        a.rts();
        let t = Template::from_asm(a).unwrap();
        assert_eq!(&*t.name, "t");
        assert_eq!(t.holes, vec!["x"]);
        assert_eq!(t.marks["start"], 0);
        assert_eq!(t.hole_id("x"), Some(0));
        assert_eq!(t.hole_id("y"), None);
        assert_eq!(t.unfilled_holes(), vec!["x"]);
    }

    #[test]
    fn returning_variant_swaps_rte_for_rts() {
        use quamachine::isa::{BranchTarget, Cond, Instr};
        let t = Template {
            name: "body".into(),
            instrs: vec![
                Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
                Instr::Rte,
                Instr::Rte,
            ],
            holes: vec!["h".into()],
            marks: std::collections::HashMap::from([("mid".into(), 1)]),
        };
        let v = t.returning_variant();
        assert_eq!(&*v.name, "body~rts");
        assert_eq!(v.instrs[1], Instr::Rts);
        assert_eq!(v.instrs[2], Instr::Rts);
        assert_eq!(v.instrs[0], t.instrs[0], "branches untouched");
        assert_eq!(v.marks["mid"], 1);
        assert_eq!(v.holes, t.holes);
        assert_eq!(v.size_bytes(), t.size_bytes(), "same encoded size");
    }

    #[test]
    fn call_sites_found_by_convention() {
        let mut a = Asm::new("outer");
        let c = a.abs_hole(Template::call_hole_name("inner"));
        a.jsr(c);
        a.rts();
        let t = Template::from_asm(a).unwrap();
        assert_eq!(t.call_sites(), vec![(0, "inner".to_string())]);
    }

    #[test]
    fn bindings_builder() {
        let b = Bindings::new().with("a", 1).with("b", 2);
        assert_eq!(b.get("a"), Some(1));
        assert_eq!(b.get("b"), Some(2));
        assert_eq!(b.get("c"), None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn library_lookup() {
        let mut lib = TemplateLib::new();
        let mut a = Asm::new("q_put");
        a.rts();
        lib.add(Template::from_asm(a).unwrap());
        assert!(lib.get("q_put").is_some());
        assert!(lib.get("nope").is_none());
        assert_eq!(lib.len(), 1);
    }
}
