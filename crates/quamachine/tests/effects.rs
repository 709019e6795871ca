//! `Instr::effects()` and the cost table against the interpreter,
//! exhaustively.
//!
//! Every instruction form the interpreter can execute — each `Instr`
//! variant with each operand mode and size — is run for one step, in
//! supervisor mode, from seeded and corner-value states, and five things
//! are checked against the tables:
//!
//! - **(W)** no register outside `writes` changed, and no flag unless
//!   `writes_flags`;
//! - **(R)** perturbing a register outside `reads` changes nothing: not
//!   whether the instruction retires, nor the next pc, the status
//!   register, a byte of memory, an FP or control register, nor any other
//!   general register; the perturbed register itself ends as it would have
//!   (if written) or as it was perturbed (if not). Perturbing the flags,
//!   unless the instruction tests them (`tests_flags`), likewise changes
//!   nothing but the flag bits that pass through untouched — and none of
//!   `N`/`Z`/`V`/`C` passes through a `writes_flags` instruction;
//! - **(K)** a register written and not read ends the same whatever it
//!   held — (R) applied to the register itself;
//! - **(C)** a `Fall` instruction retires at the next instruction, a
//!   `Branch` there or at its target;
//! - **(T)** the step charges exactly the form's `instr_cost`, `base +
//!   refs × bus`, plus `BRANCH_TAKEN_EXTRA` when a `Branch` lands on its
//!   target — the table is the only static charge. (R) then also holds
//!   the charge independent of every register the form does not read.
//!
//! States in which the instruction raises an exception are skipped; every
//! form that does not `Leave` must retire in at least one state.

use quamachine::code::CodeBlock;
use quamachine::cost::{instr_cost, BRANCH_TAKEN_EXTRA};
use quamachine::cpu::sr_bits::{C, CCR, N, S, V, X, Z};
use quamachine::isa::{
    BranchTarget, Cond, Control, FpRegList, IndexSpec, Instr, Operand, Operand::*, RegList,
    ShiftKind, Size,
};
use quamachine::machine::{Machine, MachineConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Data memory: small, so restoring it before every step is cheap, and
/// big enough that `a-register × 8` as an index stays inside.
const MEM_SIZE: u32 = 0x8000;
/// Code lives in code memory, outside the data addresses.
const CODE: u32 = 0x10_0000;
/// `[form, nop, nop]`: branches aim at the second `nop`.
const TARGET: BranchTarget = BranchTarget::Idx(2);

const SIZES: [Size; 3] = [Size::B, Size::W, Size::L];
const CONDS: [Cond; 16] = [
    Cond::T,
    Cond::F,
    Cond::Eq,
    Cond::Ne,
    Cond::Lt,
    Cond::Le,
    Cond::Gt,
    Cond::Ge,
    Cond::Hi,
    Cond::Ls,
    Cond::Cc,
    Cond::Cs,
    Cond::Mi,
    Cond::Pl,
    Cond::Vc,
    Cond::Vs,
];
const KINDS: [ShiftKind; 4] = [
    ShiftKind::Lsl,
    ShiftKind::Lsr,
    ShiftKind::Rol,
    ShiftKind::Ror,
];

/// Every memory addressing mode, over two base registers.
fn mem() -> Vec<Operand> {
    vec![
        Ind(2),
        PostInc(2),
        PreDec(6),
        Disp(8, 2),
        Disp(-8, 6),
        Idx(4, 2, IndexSpec::d(3, 2)),
        Idx(-4, 6, IndexSpec::a(4, 8)),
        Abs(0x2000),
    ]
}

/// Every mode a value can be read from.
fn src() -> Vec<Operand> {
    let mut v = vec![Dr(1), Ar(2), Imm(0x1234_5681)];
    v.extend(mem());
    v
}

/// Every mode a value can be written to; the registers overlap `src`'s.
fn dst() -> Vec<Operand> {
    let mut v = vec![Dr(1), Dr(5), Ar(2), Ar(6)];
    v.extend(mem());
    v
}

fn sized2(make: impl Fn(Size, Operand, Operand) -> Instr) -> Vec<Instr> {
    let mut v = Vec::new();
    for size in SIZES {
        for s in src() {
            for d in dst() {
                v.push(make(size, s, d));
            }
        }
    }
    v
}

fn sized1(ops: Vec<Operand>, make: impl Fn(Size, Operand) -> Instr) -> Vec<Instr> {
    SIZES
        .iter()
        .flat_map(|&size| ops.iter().map(move |&op| (size, op)))
        .map(|(size, op)| make(size, op))
        .collect()
}

fn each<T: Copy>(a: &[T], b: Vec<Operand>, make: impl Fn(T, Operand) -> Instr) -> Vec<Instr> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&op| (x, op)))
        .map(|(x, op)| make(x, op))
        .collect()
}

/// All forms of `of`'s variant, and a sample of the variant declared
/// after it (`None` after the last): the test walks the chain from
/// `Instr::Move`. The `match` has no wildcard, so a new `Instr` variant
/// does not compile until it has an arm here — link it from the arm of
/// the variant before it.
#[deny(clippy::wildcard_enum_match_arm)]
#[allow(clippy::too_many_lines)]
fn forms(of: &Instr) -> (Vec<Instr>, Option<Instr>) {
    use Instr::*;
    let lists = [
        RegList::d(1)
            .with(RegList::d(5))
            .with(RegList::a(2))
            .with(RegList::a(6)),
        RegList::ALL_BUT_SP,
        RegList::ALL,
        RegList::d(0),
    ];
    let (forms, next) = match *of {
        Move(..) => (
            sized2(Move),
            Movem {
                to_mem: true,
                regs: RegList::EMPTY,
                ea: Ind(0),
            },
        ),
        Movem { .. } => {
            let mut v = Vec::new();
            for regs in lists {
                for ea in mem() {
                    // `movem regs,(An)+` and `movem -(An),regs` do not exist.
                    let (store, load) = match ea {
                        PostInc(_) => (false, true),
                        PreDec(_) => (true, false),
                        Dr(_) | Ar(_) | Ind(_) | Disp(..) | Idx(..) | Abs(_) | Imm(_)
                        | ImmHole(_) | AbsHole(_) => (true, true),
                    };
                    v.extend(store.then_some(Movem {
                        to_mem: true,
                        regs,
                        ea,
                    }));
                    v.extend(load.then_some(Movem {
                        to_mem: false,
                        regs,
                        ea,
                    }));
                }
            }
            (v, Lea(Ind(0), 0))
        }
        Lea(..) => (
            each(&[2, 5, 6], mem(), |n, ea| Lea(ea, n)),
            Add(Size::L, Dr(0), Dr(0)),
        ),
        Add(..) => (sized2(Add), Sub(Size::L, Dr(0), Dr(0))),
        Sub(..) => (sized2(Sub), Cmp(Size::L, Dr(0), Dr(0))),
        Cmp(..) => (sized2(Cmp), Tst(Size::L, Dr(0))),
        Tst(..) => (sized1(src(), Tst), And(Size::L, Dr(0), Dr(0))),
        And(..) => (sized2(And), Eor(Size::L, Dr(0), Dr(0))),
        Eor(..) => (sized2(Eor), Shift(ShiftKind::Lsl, Size::L, Imm(1), Dr(0))),
        Shift(..) => {
            // Counts: the `src` modes plus zero, the largest immediate,
            // and one past the long width.
            let mut counts = src();
            counts.extend([Imm(0), Imm(8), Imm(33)]);
            let mut v = Vec::new();
            for kind in KINDS {
                for c in &counts {
                    v.extend(sized1(dst(), |size, d| Shift(kind, size, *c, d)));
                }
            }
            (v, Bcc(Cond::T, TARGET))
        }
        Bcc(..) => (
            CONDS.iter().map(|&c| Bcc(c, TARGET)).collect(),
            Dbf(0, TARGET),
        ),
        Dbf(..) => (vec![Dbf(1, TARGET), Dbf(5, TARGET)], Jmp(Ind(0))),
        Jmp(_) => (
            mem().into_iter().chain([Ar(2)]).map(Jmp).collect(),
            Jsr(Ind(0)),
        ),
        Jsr(_) => (mem().into_iter().chain([Ar(2)]).map(Jsr).collect(), Rts),
        Rts => (vec![Rts], Rte),
        Rte => (vec![Rte], Trap(0)),
        Trap(_) => (
            vec![Trap(0), Trap(3)],
            Cas {
                size: Size::L,
                dc: 0,
                du: 0,
                ea: Ind(0),
            },
        ),
        Cas { .. } => {
            let mut v = Vec::new();
            for (dc, du) in [(1, 3), (5, 1), (1, 1)] {
                v.extend(sized1(dst(), |size, ea| Cas { size, dc, du, ea }));
            }
            (v, Tas(Dr(0)))
        }
        Tas(_) => (dst().into_iter().map(Tas).collect(), Link(0, 0)),
        Link(..) => (
            [2, 6, 7]
                .iter()
                .flat_map(|&n| [-8, 0, 8].map(|disp| Link(n, disp)))
                .collect(),
            Unlk(0),
        ),
        Unlk(_) => (
            vec![Unlk(2), Unlk(6), Unlk(7)],
            MoveSr {
                to_sr: true,
                ea: Dr(0),
            },
        ),
        MoveSr { .. } => {
            let mut v: Vec<Instr> = src()
                .into_iter()
                .map(|ea| MoveSr { to_sr: true, ea })
                .collect();
            v.extend(dst().into_iter().map(|ea| MoveSr { to_sr: false, ea }));
            (
                v,
                MoveUsp {
                    to_usp: true,
                    areg: 0,
                },
            )
        }
        MoveUsp { .. } => (
            [2, 7]
                .iter()
                .flat_map(|&areg| [true, false].map(|to_usp| MoveUsp { to_usp, areg }))
                .collect(),
            MoveVbr {
                to_vbr: true,
                ea: Dr(0),
            },
        ),
        MoveVbr { .. } => {
            let mut v: Vec<Instr> = src()
                .into_iter()
                .map(|ea| MoveVbr { to_vbr: true, ea })
                .collect();
            v.extend(dst().into_iter().map(|ea| MoveVbr { to_vbr: false, ea }));
            (v, Stop(0))
        }
        Stop(_) => (vec![Stop(0x2000), Stop(0x2700)], Nop),
        Nop => (
            vec![Nop],
            FMove {
                to_mem: true,
                fp: 0,
                ea: Ind(0),
            },
        ),
        FMove { .. } => (
            each(&[(true, 0), (false, 7)], mem(), |(to_mem, fp), ea| FMove {
                to_mem,
                fp,
                ea,
            }),
            FMovem {
                to_mem: true,
                regs: FpRegList::ALL,
                ea: Ind(0),
            },
        ),
        FMovem { .. } => (
            each(
                &[
                    (true, FpRegList::ALL),
                    (false, FpRegList::ALL),
                    (false, FpRegList(0b101)),
                ],
                mem(),
                |(to_mem, regs), ea| FMovem { to_mem, regs, ea },
            ),
            Halt,
        ),
        Halt => (vec![Halt], KCall(0)),
        KCall(_) => return (vec![KCall(0), KCall(0x60)], None),
    };
    (forms, Some(next))
}

/// One entry state: registers, condition codes, and which memory image.
#[derive(Clone)]
struct State {
    d: [u32; 8],
    a: [u32; 8],
    ccr: u16,
    zero_mem: bool,
}

/// Address registers always point into data memory, low enough that one
/// of them scaled by 8 as an index stays inside; data registers are wild
/// in some states and small (usable as an index or a shift count) in
/// others.
fn states() -> Vec<State> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut data = |mask: u32| -> [u32; 8] { std::array::from_fn(|_| rng.random::<u32>() & mask) };
    let addrs =
        |low: [u32; 8]| -> [u32; 8] { std::array::from_fn(|i| 0x800 + 0x80 * i as u32 + low[i]) };
    let a = [addrs(data(0x3E)), addrs(data(0x3E)), addrs(data(0x3E))];
    vec![
        State {
            d: data(!0),
            a: a[0],
            ccr: X | Z | C,
            zero_mem: false,
        },
        State {
            d: data(!0),
            a: a[1],
            ccr: N | V,
            zero_mem: false,
        },
        State {
            d: data(0xFF),
            a: a[2],
            ccr: 0,
            zero_mem: false,
        },
        State {
            d: data(0x3F),
            a: a[0],
            ccr: CCR,
            zero_mem: false,
        },
        // `cas` succeeds, `dbf` falls through.
        State {
            d: [0; 8],
            a: a[1],
            ccr: Z,
            zero_mem: true,
        },
        State {
            d: [!0; 8],
            a: a[2],
            ccr: CCR,
            zero_mem: false,
        },
        // Sign and carry boundaries of every size.
        State {
            d: [
                0x8000_0000,
                0x7FFF_FFFF,
                0x0000_8000,
                0x0000_0002,
                0x0000_FFFF,
                0x0001_0000,
                0x0000_0001,
                0x0000_0080,
            ],
            a: a[0],
            ccr: N | C,
            zero_mem: false,
        },
    ]
}

/// Everything a step can change that the machine lets a test see.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    d: [u32; 8],
    a: [u32; 8],
    sr: u16,
    pc: u32,
    other_sp: u32,
    vbr: u32,
    fp: [u64; 8],
    stopped: bool,
    exit: Option<quamachine::machine::RunExit>,
    /// Cycles the step charged.
    cycles: u64,
}

/// The two memory images a state can start from: seeded bytes, zeros.
fn images() -> [Vec<u8>; 2] {
    let mut rng = SmallRng::seed_from_u64(0x0001_3A6E);
    let random = (0..MEM_SIZE).map(|_| rng.random::<u8>()).collect();
    [random, vec![0; MEM_SIZE as usize]]
}

struct Rig<'a> {
    m: Machine,
    images: &'a [Vec<u8>; 2],
}

impl<'a> Rig<'a> {
    fn new(form: Instr, images: &'a [Vec<u8>; 2]) -> Rig<'a> {
        let mut m = Machine::new(MachineConfig {
            mem_size: MEM_SIZE,
            trace_capacity: 1,
            ..MachineConfig::sun3_emulation()
        });
        m.load_block(
            CODE,
            CodeBlock::new("form", vec![form, Instr::Nop, Instr::Nop]),
        )
        .unwrap();
        Rig { m, images }
    }

    /// One step from `s`. `None` if the instruction raised an exception
    /// or the simulation failed instead of retiring.
    fn step(&mut self, s: &State) -> Option<Outcome> {
        let m = &mut self.m;
        m.mem.poke_bytes(0, &self.images[usize::from(s.zero_mem)]);
        m.cpu = quamachine::cpu::Cpu::new();
        m.cpu.d = s.d;
        m.cpu.a = s.a;
        m.cpu.sr = S | (7 << 8) | s.ccr;
        m.cpu.other_sp = 0x1F00;
        m.cpu.vbr = 0x3000;
        m.cpu.fpu_enabled = true;
        m.cpu.fp = std::array::from_fn(|i| 1.5 * i as f64 + 0.25);
        m.cpu.pc = CODE;
        let (exceptions, cycles) = (m.meter.exception_count, m.meter.cycles);
        let exit = m.step().ok()?;
        (m.meter.exception_count == exceptions).then(|| Outcome {
            d: m.cpu.d,
            a: m.cpu.a,
            sr: m.cpu.sr,
            pc: m.cpu.pc,
            other_sp: m.cpu.other_sp,
            vbr: m.cpu.vbr,
            fp: m.cpu.fp.map(f64::to_bits),
            stopped: m.cpu.stopped,
            exit,
            cycles: m.meter.cycles - cycles,
        })
    }
}

/// The sixteen general registers as one array, `d0`..`d7` then `a0`..`a7`,
/// in `RegList` bit order.
fn regs(d: &[u32; 8], a: &[u32; 8]) -> [u32; 16] {
    std::array::from_fn(|i| if i < 8 { d[i] } else { a[i - 8] })
}

fn has(list: RegList, i: usize) -> bool {
    list.0 & (1 << i) != 0
}

fn name(i: usize) -> String {
    format!("{}{}", if i < 8 { 'd' } else { 'a' }, i % 8)
}

/// Whether the entry flags can matter to something other than their own
/// unchanged bits: a condition test, a store of the SR, or control
/// leaving the block.
fn tests_flags(form: Instr) -> bool {
    use Instr::*;
    matches!(form, Bcc(..) | MoveSr { to_sr: false, .. })
        || form.effects().control == Control::Leave
}

#[test]
fn the_table_holds_for_every_form_on_the_interpreter() {
    let (states, images) = (states(), images());
    let (mut variants, mut form_count, mut retired, mut steps) = (0, 0, 0, 0);
    let mut sample = Some(Instr::Move(Size::L, Dr(0), Dr(0)));
    while let Some(of) = sample {
        let (forms, next) = forms(&of);
        assert!(
            forms
                .iter()
                .all(|f| std::mem::discriminant(f) == std::mem::discriminant(&of)),
            "forms of {of:?} stray into another variant"
        );
        variants += 1;
        form_count += forms.len();
        for form in forms {
            let (r, n) = check(form, &states, &images);
            retired += r;
            steps += n;
        }
        sample = next;
    }
    println!(
        "{variants} variants, {form_count} forms x {} states: {retired} retire, {steps} steps",
        states.len()
    );
}

/// Check one form from every state; returns the states it retired in and
/// the steps executed.
fn check(form: Instr, states: &[State], images: &[Vec<u8>; 2]) -> (u32, u64) {
    let fx = form.effects();
    let kills = RegList(fx.writes.0 & !fx.reads.0);
    let (mut base_rig, mut rig) = (Rig::new(form, images), Rig::new(form, images));
    let next = base_rig.m.code.addr_of(CODE, 1).unwrap();
    let target = base_rig.m.code.addr_of(CODE, 2).unwrap();
    let (cost, refs) = instr_cost(&form);
    let cost = cost + refs * base_rig.m.cost.bus_cycles();
    let (mut retired, mut steps) = (0, 0);
    for (si, s) in states.iter().enumerate() {
        steps += 1;
        let Some(base) = base_rig.step(s) else {
            continue;
        };
        retired += 1;
        let at = format!("`{form}` from state {si}");
        let (entry, exit) = (regs(&s.d, &s.a), regs(&base.d, &base.a));

        // (C)
        match fx.control {
            Control::Fall => assert!(base.exit.is_none() && base.pc == next, "(C) {at}"),
            Control::Branch => assert!(
                base.exit.is_none() && (base.pc == next || base.pc == target),
                "(C) {at}"
            ),
            Control::Leave => {}
        }

        // (T)
        let taken = fx.control == Control::Branch && base.pc == target;
        let charge = cost + if taken { BRANCH_TAKEN_EXTRA } else { 0 };
        assert_eq!(base.cycles, charge, "(T) {at}: {} vs {charge}", base.cycles);

        // (W)
        for i in 0..16 {
            assert!(
                has(fx.writes, i) || exit[i] == entry[i],
                "(W) {at}: {} changed",
                name(i)
            );
        }
        assert!(
            fx.writes_flags || base.sr & CCR == s.ccr,
            "(W) {at}: flags changed"
        );

        // (R) and (K), one register at a time.
        for i in (0..16).filter(|&i| !has(fx.reads, i)) {
            let mut p = s.clone();
            let flip = 0x5A5A_A5A5;
            if i < 8 {
                p.d[i] ^= flip;
            } else {
                p.a[i - 8] ^= flip;
            }
            steps += 1;
            let Some(mut got) = rig.step(&p) else {
                panic!("(R) {at}: did not retire once {} changed", name(i));
            };
            assert_eq!(
                rig.m.mem.first_diff(&base_rig.m.mem),
                None,
                "(R) {at}: memory depends on {}",
                name(i)
            );
            let slot = if i < 8 {
                &mut got.d[i]
            } else {
                &mut got.a[i - 8]
            };
            if has(kills, i) {
                assert_eq!(*slot, exit[i], "(K) {at}: {} ends differently", name(i));
            } else {
                assert_eq!(*slot, entry[i] ^ flip, "(W) {at}: {} changed", name(i));
                *slot = exit[i];
            }
            assert_eq!(got, base, "(R) {at}: outcome depends on {}", name(i));
        }

        // (R) for the flags: all flipped, then each alone.
        if tests_flags(form) {
            continue;
        }
        for flip in [CCR, X, N, Z, V, C] {
            let mut p = s.clone();
            p.ccr ^= flip;
            steps += 1;
            let Some(mut got) = rig.step(&p) else {
                panic!("(R) {at}: did not retire once the flags changed");
            };
            assert_eq!(
                rig.m.mem.first_diff(&base_rig.m.mem),
                None,
                "(R) {at}: memory depends on the flags"
            );
            // A flag bit may differ only by passing through untouched.
            let differ = (got.sr ^ base.sr) & CCR;
            let passed = !(got.sr ^ p.ccr) & !(base.sr ^ s.ccr) & CCR;
            assert_eq!(differ & !passed, 0, "(R) {at}: flags depend on the flags");
            if fx.writes_flags && fx.control != Control::Leave {
                assert_eq!(
                    differ & (N | Z | V | C),
                    0,
                    "(R) {at}: a condition code survives a flag writer"
                );
            }
            got.sr = base.sr;
            assert_eq!(got, base, "(R) {at}: outcome depends on the flags");
        }
    }
    assert!(
        retired > 0 || fx.control == Control::Leave,
        "`{form}` retires in no state: nothing was checked"
    );
    (retired, steps)
}
