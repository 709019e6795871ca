//! The specialized peephole optimizer.
//!
//! "The optimization stage then improves the final code with specialized
//! peephole optimizations" (paper Section 2.3). Two rules run after
//! Factoring Invariants and Collapsing Layers — the two that rewrite code
//! the kernel installs (EXPERIMENTS.md, "Optimizer traffic"):
//!
//! - `cmp #0,ea` → `tst ea` (one extension word shorter). Proved by
//!   running both: `cmp_zero_and_tst_agree_exhaustively` covers every
//!   size, every destination the rule accepts, every byte value and the
//!   word and long sign and zero boundaries, from all 32 entry values of
//!   X/N/Z/V/C, and compares the whole status register, every register
//!   and the operand's memory;
//! - a branch whose target is a `bra` goes straight to that `bra`'s
//!   target (up to eight hops). A `bra` changes nothing but the pc, so
//!   arriving at it and arriving where it leads are the same state.
//!
//! Neither rule moves, adds or deletes an instruction, so marks and
//! branch indices stay valid as they are. Both also run on a stream whose
//! holes are still in place: the one number they look at, `cmp`'s `#0`,
//! is read through the [`Resolver`] (which logs it).

use std::collections::HashMap;

use quamachine::isa::{BranchTarget, Cond, Instr, Operand};

use crate::plan::Resolver;

/// `cmp #0,ea` → `tst ea`, for the destinations the exhaustive test runs.
/// A hole is read only once the shape has matched.
fn pass_cmp0_to_tst(instrs: &mut [Instr], r: &mut Resolver<'_>) {
    use Operand::*;
    for ins in instrs.iter_mut() {
        let Instr::Cmp(
            size,
            src,
            dst @ (Dr(_) | Ind(_) | PostInc(_) | PreDec(_) | Disp(..) | Idx(..) | Abs(_)
            | AbsHole(_)),
        ) = *ins
        else {
            continue;
        };
        let zero = match src {
            Imm(v) => v == 0,
            ImmHole(h) => r.read(h) == 0,
            _ => false,
        };
        if zero {
            *ins = Instr::Tst(size, dst);
        }
    }
}

/// Thread `bra` chains: a branch whose target is an unconditional branch
/// goes straight to the final target.
fn pass_branch_threading(instrs: &mut [Instr]) -> bool {
    let mut changed = false;
    for i in 0..instrs.len() {
        let Some(BranchTarget::Idx(first)) = instrs[i].branch_target() else {
            continue;
        };
        let mut t = first;
        for _ in 0..8 {
            match instrs.get(t as usize) {
                Some(&Instr::Bcc(Cond::T, BranchTarget::Idx(next))) if next != t => t = next,
                _ => break,
            }
        }
        if t != first {
            instrs[i].set_branch_target(BranchTarget::Idx(t));
            changed = true;
        }
    }
    changed
}

/// Run both rules on a hole-free stream. `marks` needs no remapping (see
/// the module docs); the parameter stays for callers written against the
/// stages' common shape, such as the benchmark's codegen probe.
#[must_use]
pub fn optimize(instrs: Vec<Instr>, _marks: &mut HashMap<String, usize>) -> Vec<Instr> {
    optimize_holed(instrs, &mut Resolver::none())
}

/// [`optimize`] on a stream that may still contain holes (see the module
/// docs).
#[must_use]
pub fn optimize_holed(mut instrs: Vec<Instr>, r: &mut Resolver<'_>) -> Vec<Instr> {
    pass_cmp0_to_tst(&mut instrs, r);
    for _ in 0..8 {
        if !pass_branch_threading(&mut instrs) {
            break;
        }
    }
    instrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::Operand::*;
    use quamachine::isa::Size::L;

    fn opt(instrs: Vec<Instr>) -> Vec<Instr> {
        let mut marks = HashMap::new();
        optimize(instrs, &mut marks)
    }

    #[test]
    fn cmp_zero_becomes_tst() {
        let out = opt(vec![
            Instr::Cmp(L, Imm(0), Dr(1)),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)),
            Instr::Rts,
        ]);
        assert_eq!(out[0], Instr::Tst(L, Dr(1)));
    }

    /// The proof of `cmp #0,ea` → `tst ea`, by running both on one
    /// machine: every size; every destination the rule accepts, the
    /// memory ones all resolving to `MEM`; every byte value, alone and
    /// under a filler the byte size must not read, plus the word and long
    /// sign and zero boundaries; all 32 entry values of X/N/Z/V/C. The
    /// status register is compared whole, with every register, the
    /// instruction the pc lands on and the bytes around `MEM`. Only the
    /// cycle count may differ.
    #[test]
    fn cmp_zero_and_tst_agree_exhaustively() {
        use quamachine::code::CodeBlock;
        use quamachine::cpu::sr_bits::{CCR, S};
        use quamachine::cpu::Cpu;
        use quamachine::isa::{IndexSpec, Size};
        use quamachine::machine::{Machine, MachineConfig};

        const CODE: u32 = 0x10_0000;
        const MEM: u32 = 0x2000;
        // `Idx` adds d6 × 2 = 12 to a5 + 4.
        let dsts = [
            Dr(1),
            Ind(2),
            PostInc(2),
            PreDec(3),
            Disp(-8, 4),
            Idx(4, 5, IndexSpec::d(6, 2)),
            Abs(MEM),
        ];
        let mut values: Vec<u32> = (0..=0xFF).flat_map(|b| [b, 0xA5A5_A500 | b]).collect();
        values.extend([
            0x7FFF,
            0x8000,
            0xFFFF,
            0x1_0000,
            0x7FFF_FFFF,
            0x8000_0000,
            0xFFFF_FFFF,
        ]);

        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let run = |m: &mut Machine, ins: Instr, base: u32, v: u32, ccr: u16| {
            let (Instr::Tst(size, _) | Instr::Cmp(size, ..)) = ins else {
                unreachable!()
            };
            m.cpu = Cpu::new();
            m.cpu.sr = S | (7 << 8) | ccr;
            m.cpu.d = [0x10, v, 0x12, 0x13, 0x14, 0x15, 6, 0x17];
            m.cpu.a = [
                0x100,
                0x200,
                MEM,
                MEM + size.bytes(),
                MEM + 8,
                MEM - 16,
                0x600,
                0x1F00,
            ];
            m.mem.poke_bytes(MEM - 8, &[0x5A; 16]);
            m.mem.poke(MEM, size, v);
            m.cpu.pc = base;
            assert!(matches!(m.step(), Ok(None)), "{ins}");
            assert_eq!(m.cpu.pc, m.code.addr_of(base, 1).unwrap(), "{ins}");
            (m.cpu.d, m.cpu.a, m.cpu.sr, m.mem.peek_bytes(MEM - 8, 16))
        };
        let mut base = CODE;
        for size in [Size::B, Size::W, Size::L] {
            for dst in dsts {
                let (cmp, tst) = (Instr::Cmp(size, Imm(0), dst), Instr::Tst(size, dst));
                assert_eq!(opt(vec![cmp, Instr::Rts])[0], tst, "the rule accepts {dst}");
                let (at_cmp, at_tst) = (base, base + 0x100);
                base += 0x200;
                m.load_block(at_cmp, CodeBlock::new("cmp", vec![cmp, Instr::Halt]))
                    .unwrap();
                m.load_block(at_tst, CodeBlock::new("tst", vec![tst, Instr::Halt]))
                    .unwrap();
                for &v in &values {
                    for ccr in 0..=CCR {
                        let want = run(&mut m, cmp, at_cmp, v, ccr);
                        let got = run(&mut m, tst, at_tst, v, ccr);
                        assert_eq!(got, want, "{cmp} vs {tst}: value {v:#x}, ccr {ccr:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn branch_chains_threaded() {
        let out = opt(vec![
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(2)), // 0 -> 2
            Instr::Rts,                                 // 1
            Instr::Bcc(Cond::T, BranchTarget::Idx(4)),  // 2 -> 4
            Instr::Rts,                                 // 3
            Instr::Halt,                                // 4
        ]);
        // The conditional now goes straight to the halt.
        let Instr::Bcc(Cond::Eq, BranchTarget::Idx(t)) = out[0] else {
            panic!("expected threaded bcc, got {:?}", out[0]);
        };
        assert_eq!(out[t as usize], Instr::Halt);
    }
}
