//! The differential oracle, used by tests.
//!
//! [`crate::verify`] checks structural well-formedness; this module
//! compares *behavior*: a candidate sequence passes only if it is
//! indistinguishable from its reference when both run on the
//! cycle-modelled interpreter from the same randomized register and
//! memory states. It is not a stage of the synthesis pipeline — agreeing
//! on N random states is evidence, not proof, so nothing is installed on
//! its say-so. Tests use it to check what the pipeline's rewrites
//! (collapse, factor, peephole) did to real templates:
//! `crates/core/tests/fused_oracle.rs` for every fused `read`/`write`
//! wrapper.
//!
//! # What is compared
//!
//! Both sequences are loaded into otherwise-identical scratch machines,
//! seeded with the same pseudo-random register file and memory image,
//! and run to completion (`halt`, `rts` into a sentinel, a `kcall`, a
//! trap or fault, an execution error, or the step budget). The runs must
//! then agree on:
//!
//! - all data and address registers (`a7` included — stack discipline);
//! - the condition codes `N`/`Z`/`V`/`C` (`X` is excluded: no
//!   implemented instruction observes it except a store-SR, and no
//!   rewrite touches code that feeds a store-SR);
//! - every byte of memory;
//! - the exit reason, including the `kcall` selector and the vector of
//!   a trap or fault — a fused block that blocks in the kernel must block
//!   through the *same* kcall with the same visible state, and one that
//!   faults on a wild pointer must raise the same fault.
//!
//! Trials are seeded and replayable: a mismatch reports the trial seed
//! so the exact failing state can be reproduced.

use quamachine::code::CodeBlock;
use quamachine::isa::{Instr, Operand, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};

/// Where the sequence under test is loaded. Chosen above the data
/// memory so random address-register values can never alias code.
const CODE_BASE: u32 = 0x0040_0000;
/// A one-instruction `halt` block: the return target of a terminating
/// `rts`.
const SENTINEL: u32 = 0x0050_0000;
/// Per-vector exception landing pads (`VEC_LAND + 8 * vector`, each a
/// `halt`). Separate pads make the vector part of the exit contract, and
/// let the harness recognize an exception exit so it can normalize the
/// pushed return PC (a code offset — reference and candidate encode to
/// different lengths, so the frame's PC field legitimately differs).
const VEC_LAND: u32 = 0x0050_0100;
/// The fault vectors a sequence can raise without a `trap` instruction
/// (bus and address error, illegal instruction, privilege violation,
/// coprocessor unavailable): random trial states send copies through
/// wild pointers, so these always get a pad.
const FAULT_VECTORS: [u32; 5] = [2, 3, 4, 8, 11];
/// Data window randomized each trial (address registers are seeded to
/// point into it).
const DATA_BASE: u32 = 0x0001_0000;
const DATA_LEN: u32 = 0x8000;
/// Initial stack pointer (the long below holds the sentinel return
/// address).
const STACK_TOP: u32 = 0x0000_F000;

/// Configuration of one differential check.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Independent randomized trials.
    pub trials: u32,
    /// Base seed; trial `t` derives its state from `seed ^ t`.
    pub seed: u64,
    /// Per-trial cycle budget. Runs that exhaust it are compared on the
    /// state reached (identical states at the same budget are accepted:
    /// the runs are observationally equal so far).
    pub cycles: u64,
    /// Register preset *sets*, rotated across the odd trials (trial
    /// `2k+1` applies set `k % len`; even trials stay fully random).
    /// Each entry `(true, n, v)` sets `d[n] = v`, `(false, n, v)` sets
    /// `a[n] = v`. Callers use these to steer trials down *every*
    /// guarded path of a specialized block — e.g. one set seeding
    /// `d1 = fd, d2 = 1` for a fused wrapper's fast path and another
    /// `d1 = fd, d2 = 5` for its general body, so neither path escapes
    /// the trials the way a random `d1` (which practically never equals
    /// the fd) would let it.
    pub preset_sets: Vec<Vec<(bool, u8, u32)>>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            trials: 6,
            seed: 0x5337_11AD_BEEF_CAFE,
            cycles: 20_000,
            preset_sets: Vec::new(),
        }
    }
}

/// A differential mismatch: the candidate is observably different from
/// the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffMismatch {
    /// Trial index that diverged.
    pub trial: u32,
    /// The trial's derived seed (replays the exact initial state).
    pub seed: u64,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

impl std::fmt::Display for DiffMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential mismatch (trial {}, seed {:#x}): {}",
            self.trial, self.seed, self.detail
        )
    }
}

/// splitmix64 — the standard small seedable generator; good enough to
/// scatter register files and replayable from a single `u64`.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// What one run ended as, reduced to comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ExitToken {
    Halted,
    /// Exited through exception vector `n` — a fused wrapper's fallback
    /// path must raise the *same* trap as its reference, and a faulting
    /// copy the same fault.
    Exception(u32),
    KCall(u16),
    CycleLimit,
    Error(String),
}

fn token(exit: &RunExit) -> ExitToken {
    match exit {
        RunExit::Halted => ExitToken::Halted,
        RunExit::KCall(n) => ExitToken::KCall(*n),
        RunExit::CycleLimit => ExitToken::CycleLimit,
        RunExit::Breakpoint(_) => ExitToken::Halted,
        RunExit::Error(e) => ExitToken::Error(format!("{e:?}")),
    }
}

/// Collect the absolute and immediate constants a sequence mentions
/// that fall inside data memory — these get randomized contents so
/// loads through them see varied state. [`diff_check`] seeds both runs
/// from the *union* of the reference's and candidate's constants, so
/// the initial state is identical no matter which sequence runs.
fn interesting_addrs(instrs: &[Instr], mem_size: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for i in instrs {
        for op in i.operands() {
            if let Operand::Abs(a) | Operand::Imm(a) = op {
                let a = a & !3;
                if (0x100..mem_size.saturating_sub(16)).contains(&a) {
                    out.push(a);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Run `instrs` from a seeded state; returns the machine and exit.
/// `addrs` is the union of both sequences' interesting constants, so
/// the reference and candidate runs start byte-identical.
fn run_one(
    instrs: &[Instr],
    addrs: &[u32],
    cfg: &DiffConfig,
    trial_seed: u64,
    trial: u32,
) -> (Machine, ExitToken) {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut rng = Rng(trial_seed);

    // Seed the data window and the constants the code mentions.
    let fill: Vec<u8> = (0..DATA_LEN)
        .map(|_| (rng.next_u32() & 0xFF) as u8)
        .collect();
    m.mem.poke_bytes(DATA_BASE, &fill);
    for &a in addrs {
        let v = rng.next_u32();
        m.mem.poke(a, Size::L, v);
        m.mem.poke(a + 4, Size::L, rng.next_u32());
    }

    // Register file: data registers full-range, address registers
    // aligned into the data window.
    for i in 0..8 {
        m.cpu.d[i] = rng.next_u32();
    }
    for i in 0..7 {
        m.cpu.a[i] = (DATA_BASE + rng.next_u32() % (DATA_LEN - 0x100)) & !3;
    }
    m.cpu.a[7] = STACK_TOP;
    m.cpu.sr = 0x2000 | (rng.next_u32() as u16 & 0x1F);
    if trial % 2 == 1 && !cfg.preset_sets.is_empty() {
        let set = &cfg.preset_sets[(trial as usize / 2) % cfg.preset_sets.len()];
        for &(is_d, n, v) in set {
            if is_d {
                m.cpu.d[n as usize] = v;
            } else {
                m.cpu.a[n as usize] = v;
            }
        }
    }

    // Sentinel halt block (the rts return target), plus a per-vector
    // halt pad for every fault and every trap the sequence can raise.
    m.mem.poke(STACK_TOP, Size::L, SENTINEL);
    m.load_block(
        SENTINEL,
        CodeBlock::new("equiv-sentinel", vec![Instr::Halt]),
    )
    .expect("sentinel loads");
    let mut vectors: Vec<u32> = instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Trap(n) => Some(32 + u32::from(*n)),
            _ => None,
        })
        .chain(FAULT_VECTORS)
        .collect();
    vectors.sort_unstable();
    vectors.dedup();
    for v in vectors {
        let land = VEC_LAND + 8 * v;
        m.mem.poke(v * 4, Size::L, land);
        m.load_block(land, CodeBlock::new("equiv-vec-land", vec![Instr::Halt]))
            .expect("exception landing loads");
    }

    // The sequence itself, with a trailing halt so falling off the end
    // is well-defined.
    let mut body = instrs.to_vec();
    body.push(Instr::Halt);
    m.load_block(CODE_BASE, CodeBlock::new("equiv-seq", body))
        .expect("sequence loads");

    m.cpu.pc = CODE_BASE;
    let exit = m.run(cfg.cycles);
    let mut tok = token(&exit);
    if tok == ExitToken::Halted && (VEC_LAND..VEC_LAND + 8 * 256).contains(&m.cpu.pc) {
        // Halted on an exception pad: record which vector, and zero the
        // pushed return PC in the exception frame (SP+2) — it is an
        // offset into the sequence's own encoding, not comparable state.
        // The pushed SR word at SP stays compared: trap-time flags are
        // semantics.
        tok = ExitToken::Exception((m.cpu.pc - VEC_LAND) / 8);
        let sp = m.cpu.a[7];
        m.mem.poke(sp.wrapping_add(2), Size::L, 0);
        // Mask X out of the frame SR as well, like the final-CCR compare.
        let frame_sr = m.mem.peek(sp, Size::W);
        m.mem.poke(sp, Size::W, frame_sr & !0x10);
    }
    (m, tok)
}

/// Compare two completed runs; `None` means indistinguishable.
fn compare(mr: &Machine, tr: &ExitToken, mc: &Machine, tc: &ExitToken) -> Option<String> {
    if tr != tc {
        return Some(format!("exit differs: reference {tr:?}, candidate {tc:?}"));
    }
    for i in 0..8 {
        if mr.cpu.d[i] != mc.cpu.d[i] {
            return Some(format!(
                "d{i} differs: {:#010x} vs {:#010x}",
                mr.cpu.d[i], mc.cpu.d[i]
            ));
        }
        if mr.cpu.a[i] != mc.cpu.a[i] {
            return Some(format!(
                "a{i} differs: {:#010x} vs {:#010x}",
                mr.cpu.a[i], mc.cpu.a[i]
            ));
        }
    }
    // N/Z/V/C only (see the module doc on X).
    if mr.cpu.sr & 0xF != mc.cpu.sr & 0xF {
        return Some(format!(
            "ccr differs: {:#06x} vs {:#06x}",
            mr.cpu.sr & 0xF,
            mc.cpu.sr & 0xF
        ));
    }
    if let Some(addr) = mr.mem.first_diff(&mc.mem) {
        return Some(format!(
            "memory differs at {addr:#010x}: {:#04x} vs {:#04x}",
            mr.mem.peek(addr, Size::B),
            mc.mem.peek(addr, Size::B)
        ));
    }
    None
}

/// Differentially check `candidate` against `reference`.
///
/// # Errors
///
/// Returns the first [`DiffMismatch`] observed across the configured
/// trials.
pub fn diff_check(
    reference: &[Instr],
    candidate: &[Instr],
    cfg: &DiffConfig,
) -> Result<(), DiffMismatch> {
    let mem_size = MachineConfig::sun3_emulation().mem_size;
    let mut addrs = interesting_addrs(reference, mem_size);
    addrs.extend(interesting_addrs(candidate, mem_size));
    addrs.sort_unstable();
    addrs.dedup();
    for trial in 0..cfg.trials {
        let trial_seed = cfg.seed ^ u64::from(trial).wrapping_mul(0xA076_1D64_78BD_642F);
        let (mr, tr) = run_one(reference, &addrs, cfg, trial_seed, trial);
        let (mc, tc) = run_one(candidate, &addrs, cfg, trial_seed, trial);
        if let Some(detail) = compare(&mr, &tr, &mc, &tc) {
            return Err(DiffMismatch {
                trial,
                seed: trial_seed,
                detail,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{BranchTarget, Cond, Operand::*, Size::L};

    #[test]
    fn identical_sequences_pass() {
        let seq = vec![
            Instr::Move(L, Imm(5), Dr(0)),
            Instr::Add(L, Dr(1), Dr(0)),
            Instr::Rts,
        ];
        diff_check(&seq, &seq, &DiffConfig::default()).unwrap();
    }

    #[test]
    fn dropped_store_is_caught() {
        let reference = vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Move(L, Imm(1), Dr(1)),
        ];
        let candidate = vec![Instr::Move(L, Imm(1), Dr(1))];
        let err = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert!(err.detail.contains("memory differs"), "{err}");
    }

    #[test]
    fn flag_divergence_is_caught() {
        // tst sets N/Z from d0; dropping it leaves the random initial
        // CCR in place, which some trial is bound to expose.
        let reference = vec![Instr::Tst(L, Dr(0))];
        let candidate = vec![Instr::Nop];
        assert!(diff_check(&reference, &candidate, &DiffConfig::default()).is_err());
    }

    #[test]
    fn kcall_selector_is_part_of_the_contract() {
        let reference = vec![Instr::KCall(0x21)];
        let candidate = vec![Instr::KCall(0x22)];
        let err = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert!(err.detail.contains("exit differs"), "{err}");
    }

    #[test]
    fn fault_frames_compare_modulo_the_return_pc() {
        // Both sequences fault on the same wild load, but at different
        // code offsets (`tst` encodes shorter than `cmp #0`): the pushed
        // return PC differs and nothing else does.
        let wild = Instr::Move(L, Abs(0x7FFF_FFF0), Dr(0));
        let reference = vec![Instr::Cmp(L, Imm(0), Dr(1)), wild];
        let candidate = vec![Instr::Tst(L, Dr(1)), wild];
        diff_check(&reference, &candidate, &DiffConfig::default()).unwrap();
        // The vector is part of the contract: a different fault is caught.
        // `movem d0,(a0)+` does not exist: an illegal instruction.
        let illegal = Instr::Movem {
            to_mem: true,
            regs: quamachine::isa::RegList::d(0),
            ea: PostInc(0),
        };
        let candidate = vec![Instr::Tst(L, Dr(1)), illegal];
        let err = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert!(err.detail.contains("exit differs"), "{err}");
    }

    #[test]
    fn branches_and_presets_exercise_both_paths() {
        // A guard on d1 == 42: the taken and fallthrough paths set
        // different registers. Presets steer odd trials down the match
        // path; a candidate that breaks only that path must fail.
        let guarded = |matched: u32| {
            vec![
                Instr::Cmp(L, Imm(42), Dr(1)),
                Instr::Bcc(Cond::Ne, BranchTarget::Idx(3)),
                Instr::Move(L, Imm(matched), Dr(0)),
                Instr::Rts,
            ]
        };
        let cfg = DiffConfig {
            preset_sets: vec![vec![(true, 1, 42)]],
            ..DiffConfig::default()
        };
        diff_check(&guarded(7), &guarded(7), &cfg).unwrap();
        assert!(diff_check(&guarded(7), &guarded(8), &cfg).is_err());
    }

    #[test]
    fn mismatch_is_replayable() {
        let reference = vec![Instr::Move(L, Imm(1), Dr(0))];
        let candidate = vec![Instr::Move(L, Imm(2), Dr(0))];
        let e1 = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        let e2 = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert_eq!(e1, e2, "same seed, same mismatch");
    }
}
