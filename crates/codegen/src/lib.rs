//! # synthesis-codegen — kernel code synthesis
//!
//! The run-time code generator at the heart of the Synthesis kernel
//! (Massalin & Pu, SOSP 1989). "Frequently executed Synthesis kernel calls
//! are 'compiled' and optimized at run-time using ideas similar to currying
//! and constant folding" (Section 1). Three methods are implemented
//! (Section 2.2):
//!
//! - **Factoring Invariants** ([`factor`]) — substitute run-time constants
//!   into a code template's *holes*, then propagate constants, resolve
//!   branches, and delete unreachable code — like constant folding applied
//!   at kernel-call creation time;
//! - **Collapsing Layers** ([`collapse`]) — inline one template's call to
//!   another, eliminating the procedure-call boundary between layered
//!   modules (with it off, the same call site's hole is bound to the
//!   callee's address and runs layered, the baseline tests measure the
//!   optimization against);
//! - **Executable Data Structures** ([`execds`]) — data structures that
//!   carry their own traversal code, patched in place as the structure
//!   changes (the ready queue's context-switch chain, Figure 3).
//!
//! Synthesized code is finished by a specialized [`peephole`] optimizer and
//! installed by the [`creator`] (quaject creator: allocate → factorize →
//! optimize); the [`interfacer`] holds the quaject interfacer's combination
//! rules (which connector joins a producer and a consumer), per the paper's
//! Section 2.3. The creator runs the stages once per template
//! with the holes still in place and keeps the result as a [`plan`];
//! each later request fills the holes.
//!
//! # Example: factoring invariants
//!
//! ```
//! use quamachine::asm::Asm;
//! use quamachine::isa::{Operand::*, Size::L, Cond};
//! use synthesis_codegen::template::{Bindings, Template};
//! use synthesis_codegen::factor;
//!
//! // A generic "read" with a run-time-constant buffer address and a
//! // debug flag that is almost always zero.
//! let mut a = Asm::new("read");
//! let flag = a.imm_hole("debug");
//! let buf = a.abs_hole("buffer");
//! let skip = a.label();
//! a.move_(L, flag, Dr(1));
//! a.tst(L, Dr(1));
//! a.bcc(Cond::Eq, skip);
//! a.move_i(L, 0xDEB, Dr(7)); // debug path
//! a.bind(skip);
//! a.move_(L, buf, Dr(0));
//! a.rts();
//! let t = Template::from_asm(a).unwrap();
//!
//! // Bind debug=0: the test and the debug path fold away entirely.
//! let mut b = Bindings::new();
//! b.bind("debug", 0);
//! b.bind("buffer", 0x2000);
//! let out = factor::factor(&t, &b).unwrap();
//! assert!(out.instrs.len() < t.instrs.len());
//! ```

pub mod codebuf;
pub mod collapse;
pub mod creator;
pub mod equiv;
pub mod execds;
pub mod factor;
pub mod hash;
pub mod interfacer;
pub mod peephole;
pub mod plan;
pub mod rewrite;
pub mod speccache;
pub mod template;
pub mod verify;

pub use creator::{QuajectCreator, SynthesisOptions, Synthesized};
pub use speccache::{SpecCache, SpecKey};
pub use template::{Bindings, Template, TemplateLib};
