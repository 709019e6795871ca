//! The 68020-flavoured instruction set of the simulated Quamachine.
//!
//! Instructions are kept as a structured enum rather than encoded bit
//! patterns; [`encode::size_bytes`] assigns each instruction a realistic
//! 68020 encoded size so that code addresses, block sizes, and the kernel
//! size accounting of the paper's Section 6.4 are meaningful.

pub mod cond;
pub mod disasm;
pub mod effects;
pub mod encode;
pub mod instr;
pub mod operand;
pub mod reg;

pub use cond::Cond;
pub use effects::{Control, Effects};
pub use instr::{BranchTarget, Instr, Operands, ShiftKind, Size};
pub use operand::{HoleId, IndexSpec, Operand};
pub use reg::{FpRegList, RegList, CTRL_VBR};
