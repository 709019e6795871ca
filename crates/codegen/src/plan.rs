//! Plans: a template compiled once, its unread holes still in place.
//!
//! Collapse, fold and peephole are deterministic and can learn the value
//! bound to a hole only by asking a [`Resolver`], which writes down every
//! `(hole, value)` it hands out. So what they produce for one set of
//! bindings is what they would produce for *any* bindings that agree on
//! that read log — and for most templates the log is empty, because a
//! hole's value is only carried into the output, never computed with. A
//! [`Plan`] is that output (holes carried, marks, sizes) beside the log
//! that justifies reusing it; [`Plan::instantiate`] fills the holes.
//!
//! What a plan computes once is shared, not copied, by everything made
//! from it: an installed block's name and offsets and a [`Synthesized`]'s
//! entry table are the plan's own `Arc`s (DESIGN.md §10).
//!
//! Plans live beside their template in the [`TemplateLib`], which drops
//! all of them whenever a template is added (any plan may have inlined
//! it), and are chosen in
//! [`QuajectCreator::synthesize`](crate::creator::QuajectCreator::synthesize).
//!
//! [`Synthesized`]: crate::creator::Synthesized

use std::sync::Arc;

use quamachine::code::BlockFacts;
use quamachine::isa::{encode, HoleId, Instr, Operand};

use crate::collapse;
use crate::creator::{SynthError, SynthesisOptions};
use crate::factor::{self, FactorError};
use crate::peephole;
use crate::rewrite;
use crate::template::{Template, TemplateLib};
use crate::verify::{self, VerifyReport};

/// The only way a pass learns what a hole is bound to.
#[derive(Debug)]
pub struct Resolver<'a> {
    /// Values by [`HoleId`].
    values: &'a [u32],
    log: Vec<(HoleId, u32)>,
}

impl<'a> Resolver<'a> {
    /// A resolver over `values`, indexed by [`HoleId`].
    #[must_use]
    pub fn new(values: &'a [u32]) -> Resolver<'a> {
        Resolver {
            values,
            log: Vec::new(),
        }
    }

    /// The resolver for a stream with no holes left: never asked.
    #[must_use]
    pub fn none() -> Resolver<'static> {
        Resolver::new(&[])
    }

    /// The value bound to hole `h`, logged.
    ///
    /// # Panics
    ///
    /// If `h` is not in the table the resolver was built over — a pass
    /// met a hole in a stream its caller declared hole-free.
    pub fn read(&mut self, h: HoleId) -> u32 {
        let v = self.values[usize::from(h)];
        if !self.log.iter().any(|&(seen, _)| seen == h) {
            self.log.push((h, v));
        }
        v
    }

    /// Every `(hole, value)` handed out, in first-read order.
    #[must_use]
    pub fn into_log(self) -> Vec<(HoleId, u32)> {
        self.log
    }
}

/// Fill `table` with the value of each hole in `used`, at its
/// [`HoleId`]'s index (0 at the others); the first one `value_of` lacks
/// is the error.
fn resolve(
    holes: &[String],
    used: &[HoleId],
    value_of: &impl Fn(&str) -> Option<u32>,
    table: &mut Vec<u32>,
) -> Result<(), FactorError> {
    table.clear();
    table.resize(holes.len(), 0);
    for &h in used {
        let name = &holes[usize::from(h)];
        table[usize::from(h)] =
            value_of(name).ok_or_else(|| FactorError::MissingBinding(name.clone()))?;
    }
    Ok(())
}

/// One compiled form of a template under one [`SynthesisOptions`]: valid
/// for every request whose bindings agree with its read log.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The template's name.
    pub name: Arc<str>,
    /// The stages that produced it.
    pub opts: SynthesisOptions,
    /// Template instructions before optimization.
    pub instrs_in: usize,
    /// Hole names of the (collapsed) template, by [`HoleId`].
    holes: Vec<String>,
    /// The holes the (collapsed) template uses, in first-use order. A
    /// request must bind every one, also those the fold pruned away.
    used: Vec<HoleId>,
    /// The optimized stream, carried holes still in place.
    instrs: Vec<Instr>,
    /// The indices of the instructions in `instrs` that carry a hole.
    holed: Vec<usize>,
    /// Byte offset of each instruction, plus the total size.
    offsets: Arc<[u32]>,
    /// Each instruction's cost, as every instance has it.
    facts: BlockFacts,
    /// Entry points: name → instruction index, sorted by name.
    marks: Vec<(String, usize)>,
    /// The same entry points as byte offsets, sorted by name.
    entries: Arc<[(String, u32)]>,
    /// Every `(hole, value)` a pass computed with.
    log: Vec<(HoleId, u32)>,
    /// The verdict of [`verify::verify_plan`] on the stream: every
    /// instance's.
    verified: Result<(), VerifyReport>,
}

impl Plan {
    /// Run the pipeline — collapse, fold, peephole, as `opts` selects —
    /// on `t` with its holes in place, reading values from `value_of`
    /// (hole name → binding) only through a [`Resolver`].
    ///
    /// # Errors
    ///
    /// Collapse failures, and [`FactorError::MissingBinding`] for the
    /// first hole the collapsed template uses that `value_of` lacks.
    pub fn compile(
        t: &Template,
        lib: &TemplateLib,
        opts: SynthesisOptions,
        value_of: &impl Fn(&str) -> Option<u32>,
    ) -> Result<Plan, SynthError> {
        let collapsed;
        let work = if opts.collapse && !t.call_sites().is_empty() {
            collapsed = collapse::collapse(t, lib).map_err(SynthError::Collapse)?;
            &collapsed
        } else {
            t
        };
        let mut used = Vec::new();
        for op in work.instrs.iter().flat_map(Instr::operands) {
            if let Some(h) = op.hole() {
                if !used.contains(&h) {
                    used.push(h);
                }
            }
        }
        let mut table = Vec::new();
        resolve(&work.holes, &used, value_of, &mut table).map_err(SynthError::Factor)?;
        let mut r = Resolver::new(&table);
        let mut marks = work.marks.clone();
        let mut instrs = work.instrs.clone();
        if opts.fold {
            instrs = factor::fold(instrs, &mut marks, &mut r);
        }
        if opts.peephole {
            instrs = peephole::optimize_holed(instrs, &mut r);
        }
        let mut marks: Vec<(String, usize)> = marks.into_iter().collect();
        marks.sort();
        let offsets: Arc<[u32]> = encode::offsets(&instrs).into();
        // A mark past the end has no offset; verify reports it at install.
        let entries = marks
            .iter()
            .filter_map(|(mark, idx)| Some((mark.clone(), *offsets.get(*idx)?)))
            .collect();
        let facts = BlockFacts::filled(&instrs);
        let holed = (0..instrs.len())
            .filter(|&i| instrs[i].has_hole())
            .collect();
        let verified = verify::verify_plan(
            &t.name,
            &instrs,
            work.holes.len(),
            marks.iter().map(|(mark, idx)| (mark.as_str(), *idx)),
        );
        Ok(Plan {
            name: t.name.clone(),
            opts,
            instrs_in: t.instrs.len(),
            holes: work.holes.clone(),
            used,
            offsets,
            facts,
            instrs,
            holed,
            marks,
            entries,
            log: r.into_log(),
            verified,
        })
    }

    /// Whether the stream passes verification, as every instance of it
    /// does: filling a hole changes no branch, mark or final instruction.
    ///
    /// # Errors
    ///
    /// The report of the first problem.
    pub fn verified(&self) -> Result<(), &VerifyReport> {
        self.verified.as_ref().copied()
    }

    /// Whether `value_of` binds every logged hole to the logged value —
    /// the condition under which this plan is the pipeline's answer.
    pub fn agrees(&self, value_of: &impl Fn(&str) -> Option<u32>) -> bool {
        self.log
            .iter()
            .all(|&(h, v)| value_of(&self.holes[usize::from(h)]) == Some(v))
    }

    /// Resolve each used hole's name once: values by [`HoleId`] (0 for
    /// holes the template never uses).
    ///
    /// # Errors
    ///
    /// [`FactorError::MissingBinding`] naming the first unbound hole in
    /// instruction order.
    pub fn table(&self, value_of: &impl Fn(&str) -> Option<u32>) -> Result<Vec<u32>, FactorError> {
        let mut table = Vec::new();
        self.table_into(value_of, &mut table)?;
        Ok(table)
    }

    /// [`Plan::table`] into `table`, reusing its allocation.
    ///
    /// # Errors
    ///
    /// As [`Plan::table`].
    pub(crate) fn table_into(
        &self,
        value_of: &impl Fn(&str) -> Option<u32>,
        table: &mut Vec<u32>,
    ) -> Result<(), FactorError> {
        resolve(&self.holes, &self.used, value_of, table)
    }

    /// The plan's instructions with every carried hole filled from
    /// `table` (as [`Plan::table`] builds it): a copy of the stream with
    /// only the holed instructions rewritten.
    #[must_use]
    pub fn instantiate(&self, table: &[u32]) -> Vec<Instr> {
        let mut out = self.instrs.clone();
        for &i in &self.holed {
            out[i] = rewrite::map_operands(out[i], |op| match op {
                Operand::ImmHole(h) => Operand::Imm(table[usize::from(h)]),
                Operand::AbsHole(h) => Operand::Abs(table[usize::from(h)]),
                other => other,
            });
        }
        out
    }

    /// Byte offset of each instruction, plus the total size at the end.
    #[must_use]
    pub fn offsets(&self) -> &Arc<[u32]> {
        &self.offsets
    }

    /// Each instruction's cost facts, shared by every instance.
    #[must_use]
    pub(crate) fn facts(&self) -> &BlockFacts {
        &self.facts
    }

    /// Entry points as `(name, byte offset)`, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &Arc<[(String, u32)]> {
        &self.entries
    }

    /// Entry points as `(name, instruction index)`, sorted by name.
    pub fn marks(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.marks.iter().map(|(name, idx)| (name.as_str(), *idx))
    }

    /// The read log as `(hole name, value)`: the decisions this plan is
    /// specific to, in the order the passes first asked.
    pub fn logged(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.log
            .iter()
            .map(|&(h, v)| (self.holes[usize::from(h)].as_str(), v))
    }
}
