//! # Quamachine
//!
//! A simulated, 68020-flavoured machine modelled on the experimental
//! *Quamachine* that the Synthesis kernel ran on (Massalin & Pu, SOSP 1989,
//! Section 6.1).
//!
//! The real Quamachine was a Motorola 68020 system designed for systems
//! research: it had an instruction counter, a memory-reference counter,
//! hardware program tracing, a microsecond-resolution interval timer, and a
//! CPU clock adjustable from 1 MHz to 50 MHz. By setting the clock to 16 MHz
//! and adding one memory wait state it closely emulated a SUN 3/160.
//!
//! This crate reproduces that substrate in software:
//!
//! - [`isa`] — a 68020-flavoured instruction set (including `CAS`, `MOVEM`,
//!   and the MC68881 moves a context switch needs) with realistic encoded
//!   sizes, holding only forms a measured run executes;
//! - [`Asm`] — an assembler DSL with labels and *holes* (the unit
//!   of run-time code synthesis);
//! - [`CostModel`] — a documented per-instruction cycle
//!   model with configurable clock speed and memory wait states;
//! - [`Machine`] — the fetch/execute loop with vectored
//!   interrupts and traps through a relocatable vector table (`VBR`), user
//!   and supervisor modes, and quaspace memory protection windows;
//! - [`devices`] — memory-mapped devices: tty, a 44.1 kHz
//!   analog-to-digital converter, an interval timer/alarm, and
//!   `/dev/null`;
//! - [`trace`] — the measurement facilities: instruction and
//!   memory-reference counters, cycle-exact virtual time, and a program
//!   trace ring buffer (the paper's "kernel monitor execution trace").
//!
//! The paper's Tables 2–5 were produced by *counting instructions and memory
//! references on an execution trace* (Section 6.3); the executor here counts
//! both, so measurements taken on this machine reproduce the paper's own
//! methodology.
//!
//! # Example
//!
//! ```
//! use quamachine::asm::Asm;
//! use quamachine::isa::{Operand::*, Size::L};
//! use quamachine::machine::{Machine, MachineConfig, RunExit};
//!
//! let mut asm = Asm::new("sum");
//! asm.move_i(L, 0, Dr(0));
//! asm.add(L, Imm(21), Dr(0));
//! asm.add(L, Imm(21), Dr(0));
//! asm.halt();
//!
//! let mut m = Machine::new(MachineConfig::sun3_emulation());
//! let entry = m.load_block(0x1000, asm.assemble().unwrap()).unwrap();
//! m.cpu.pc = entry;
//! assert_eq!(m.run(10_000), RunExit::Halted);
//! assert_eq!(m.cpu.d[0], 42);
//! ```

pub mod asm;
pub mod code;
pub mod cost;
pub mod cpu;
pub mod devices;
pub mod error;
pub mod event;
mod exec;
pub mod fault;
pub mod irq;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod trace;

pub use asm::Asm;
pub use cost::CostModel;
pub use error::{Exception, MachineError};
pub use fault::{FaultConfig, FaultPlan};
pub use machine::{Machine, MachineConfig, RunExit};
