//! The fetch path of `Machine::step`.
//!
//! A step remembers where its fall-through or taken-branch target lives so
//! the next step need not search for it, and code memory remembers its
//! recent answers for every other address in a table of lines. Each test
//! here is one way either memory could go stale — a patch, a reload, a host
//! write to the PC, a CPU switch, an exception, two addresses sharing a
//! line — and asserts the very next step sees the machine as it is, not as
//! it was. The first two pin what happens at a block's end, where there is
//! no next instruction to remember.

use quamachine::code::CodeBlock;
use quamachine::error::MachineError;
use quamachine::isa::{BranchTarget, Cond, Instr, Operand::*, Size::*};
use quamachine::machine::{Machine, MachineConfig, RunExit};

const BASE: u32 = 0x1000;
const STACK: u32 = 0x8000;

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    m.cpu.a[7] = STACK;
    m
}

fn load(m: &mut Machine, base: u32, instrs: Vec<Instr>) {
    m.load_block(base, CodeBlock::new("t", instrs)).unwrap();
}

/// `move.l #v,dN` — 6 bytes, 2 cycles.
fn set(n: u8, v: u32) -> Instr {
    Instr::Move(L, Imm(v), Dr(n))
}

fn step(m: &mut Machine) {
    assert_eq!(m.step(), Ok(None), "pc={:#x}", m.cpu.pc);
}

// --- The end of a block ---------------------------------------------------

#[test]
fn falling_off_a_block_runs_the_adjacent_block_or_faults() {
    let mut m = machine();
    load(&mut m, BASE, vec![set(0, 1), set(1, 2)]); // 0x1000..0x100C
    m.cpu.pc = BASE;
    assert_eq!(
        m.run(1000),
        RunExit::Error(MachineError::BadCodeAddress(0x100C))
    );
    assert_eq!((m.cpu.d[0], m.cpu.d[1]), (1, 2));
    assert_eq!(m.cpu.pc, 0x100C);

    // A block loaded at exactly the end address is simply what runs next.
    load(&mut m, 0x100C, vec![set(2, 3), Instr::Halt]);
    m.cpu.pc = BASE;
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[2], 3);
}

#[test]
fn branching_to_a_block_s_end_runs_the_adjacent_block_or_faults() {
    for branch in [
        Instr::Bcc(Cond::T, BranchTarget::Idx(2)),
        Instr::Dbf(3, BranchTarget::Idx(2)),
    ] {
        let mut m = machine();
        m.cpu.d[3] = 5; // dbf: 5 -> 4, taken
        load(&mut m, BASE, vec![branch, set(0, 0xBAD)]); // 0x1000..0x100A
        m.cpu.pc = BASE;
        assert_eq!(
            m.run(1000),
            RunExit::Error(MachineError::BadCodeAddress(0x100A)),
            "{branch:?}"
        );
        assert_eq!(m.cpu.d[0], 0, "the branch skipped the move");

        load(&mut m, 0x100A, vec![set(2, 3), Instr::Halt]);
        m.cpu.pc = BASE;
        assert_eq!(m.run(1000), RunExit::Halted, "{branch:?}");
        assert_eq!(m.cpu.d[2], 3);
    }
    // One past the end sentinel is not an address of the block at all.
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![Instr::Bcc(Cond::T, BranchTarget::Idx(3)), Instr::Halt],
    );
    m.cpu.pc = BASE;
    assert_eq!(
        m.run(1000),
        RunExit::Error(MachineError::BadCodeAddress(BASE))
    );
}

// --- Patches to the instruction about to run --------------------------------

#[test]
fn a_patched_next_instruction_is_executed_as_patched() {
    // 0x1000 set d0 | 0x1006 jmp | 0x100C jsr | 0x1012 set d1 | 0x1018 halt
    let program = vec![
        set(0, 1),
        Instr::Jmp(Abs(0x2000)),
        Instr::Jsr(Abs(0x2000)),
        set(1, 0xBAD),
        Instr::Halt,
    ];
    // 0x2000: where the unpatched jmp/jsr go. 0x3000: where the patches point.
    let old_target = vec![set(7, 0xBAD), Instr::Halt];
    let new_target = vec![set(7, 0x600D), Instr::Halt];

    // patch_jmp_target, after the step before it has run.
    let mut m = machine();
    load(&mut m, BASE, program.clone());
    load(&mut m, 0x2000, old_target.clone());
    load(&mut m, 0x3000, new_target.clone());
    m.cpu.pc = BASE;
    step(&mut m);
    m.code.patch_jmp_target(0x1006, 0x3000).unwrap();
    step(&mut m);
    assert_eq!(m.cpu.pc, 0x3000);
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 0x600D);

    // patch_jsr_target, reached by a host write to the PC and one step.
    let mut m = machine();
    load(&mut m, BASE, program.clone());
    load(&mut m, 0x2000, old_target);
    load(&mut m, 0x3000, new_target);
    m.code.patch(0x1006, Instr::Jmp(Abs(0x100C))).unwrap();
    m.cpu.pc = 0x1006;
    step(&mut m);
    m.code.patch_jsr_target(0x100C, 0x3000).unwrap();
    step(&mut m);
    assert_eq!(m.cpu.pc, 0x3000);
    assert_eq!(m.mem.peek(STACK - 4, L), 0x1012, "return address pushed");

    // patch: a same-size replacement, with a different cost.
    let mut m = machine();
    load(&mut m, BASE, program);
    m.cpu.pc = BASE;
    step(&mut m);
    m.code
        .patch(0x1006, Instr::Move(L, Dr(0), Abs(0x4000)))
        .unwrap();
    let before = m.meter.cycles;
    step(&mut m);
    assert_eq!(m.mem.peek(0x4000, L), 1);
    assert_eq!(m.cpu.pc, 0x100C);
    assert_eq!(m.meter.cycles - before, 2 + 4, "move to memory: one ref");
}

#[test]
fn an_unfilled_hole_is_a_machine_error_at_its_pc() {
    // Loaded with a hole.
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![set(0, 1), Instr::Move(L, ImmHole(0), Dr(1)), Instr::Halt],
    );
    m.cpu.pc = BASE;
    assert_eq!(
        m.run(1000),
        RunExit::Error(MachineError::UnfilledHole(0x1006))
    );
    assert_eq!(m.cpu.pc, 0x1006, "nothing of the holed instruction ran");
    assert_eq!(m.meter.instr_count, 1);
    // Filling it makes the same address runnable.
    m.code.patch(0x1006, set(1, 2)).unwrap();
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[1], 2);

    // A hole patched in after load, on the instruction about to run.
    let mut m = machine();
    load(&mut m, BASE, vec![set(0, 1), set(1, 2), Instr::Halt]);
    m.cpu.pc = BASE;
    step(&mut m);
    m.code
        .patch(0x1006, Instr::Move(L, ImmHole(0), Dr(1)))
        .unwrap();
    assert_eq!(m.step(), Err(MachineError::UnfilledHole(0x1006)));

    // A holed jmp is an error until patch_jmp_target fills it.
    let mut m = machine();
    load(&mut m, BASE, vec![Instr::Jmp(AbsHole(0))]);
    load(&mut m, 0x2000, vec![Instr::Halt]);
    m.cpu.pc = BASE;
    assert_eq!(m.step(), Err(MachineError::UnfilledHole(BASE)));
    m.code.patch_jmp_target(BASE, 0x2000).unwrap();
    assert_eq!(m.run(1000), RunExit::Halted);
}

// --- Code memory changing under the PC --------------------------------------

#[test]
fn reloading_different_code_at_the_same_base_between_two_steps() {
    let mut m = machine();
    load(&mut m, BASE, vec![set(0, 1), set(1, 0xBAD), Instr::Halt]);
    m.cpu.pc = BASE;
    step(&mut m); // pc = 0x1006, the old block's second instruction
    m.code.unload(BASE).unwrap();
    // Same base, same first size, different everything else.
    load(
        &mut m,
        BASE,
        vec![set(0, 9), Instr::Nop, Instr::Nop, Instr::Nop, set(2, 3)],
    );
    step(&mut m);
    assert_eq!(m.cpu.d[1], 0, "the unloaded instruction did not run");
    assert_eq!(m.cpu.pc, 0x1008, "a nop ran");

    // Reloaded with a layout where 0x1008 is mid-instruction.
    m.code.unload(BASE).unwrap();
    load(&mut m, BASE, vec![set(0, 9), set(1, 2)]);
    assert_eq!(m.step(), Err(MachineError::BadCodeAddress(0x1008)));

    // Unloaded and not replaced.
    m.code.unload(BASE).unwrap();
    m.cpu.pc = 0x1006;
    assert_eq!(m.step(), Err(MachineError::BadCodeAddress(0x1006)));
}

#[test]
fn a_host_write_to_the_pc_mid_block_is_obeyed() {
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![set(0, 1), set(1, 2), set(2, 3), set(3, 4), Instr::Halt],
    );
    m.cpu.pc = BASE;
    step(&mut m);
    m.cpu.pc = 0x1012; // skip d1 and d2
    step(&mut m);
    assert_eq!(m.cpu.d, [1, 0, 0, 4, 0, 0, 0, 0]);
    m.cpu.pc = 0x1006; // and back
    step(&mut m);
    assert_eq!(m.cpu.d[1], 2);
    m.cpu.pc = 0x1007; // not an instruction boundary
    assert_eq!(m.step(), Err(MachineError::BadCodeAddress(0x1007)));
}

#[test]
fn switch_cpu_resumes_each_cpu_where_it_was_parked() {
    let mut cfg = MachineConfig::sun3_emulation();
    cfg.cpus = 3;
    let mut m = Machine::new(cfg);
    // CPUs 0 and 1 share a block at different indices; CPU 2 is elsewhere.
    load(
        &mut m,
        BASE,
        vec![
            Instr::Add(L, Imm(1), Dr(0)),   // 0x1000
            Instr::Add(L, Imm(10), Dr(0)),  // 0x1006
            Instr::Add(L, Imm(100), Dr(0)), // 0x100C
            Instr::Add(L, Imm(1000), Dr(0)),
            Instr::Halt,
        ],
    );
    load(
        &mut m,
        0x2000,
        vec![set(0, 7), Instr::Add(L, Imm(70), Dr(0)), Instr::Halt],
    );
    m.cpu_mut(0).pc = BASE;
    m.cpu_mut(1).pc = 0x100C;
    m.cpu_mut(2).pc = 0x2000;

    step(&mut m); // cpu0: +1, next would be 0x1006
    m.switch_cpu(1);
    step(&mut m); // cpu1: +100 at 0x100C
    assert_eq!(m.cpu.d[0], 100);
    m.switch_cpu(2);
    step(&mut m); // cpu2: d0 = 7
    m.switch_cpu(0);
    step(&mut m); // cpu0: +10
    assert_eq!(m.cpu.d[0], 11);
    m.switch_cpu(2);
    step(&mut m); // cpu2: +70
    assert_eq!(m.cpu.d[0], 77);
    m.switch_cpu(1);
    step(&mut m); // cpu1: +1000
    assert_eq!(m.cpu.d[0], 1100);
    assert_eq!(
        [m.cpu_ref(0).pc, m.cpu_ref(1).pc, m.cpu_ref(2).pc],
        [0x100C, 0x1018, 0x200C]
    );
}

// --- The line table -------------------------------------------------------------

/// Addresses this far apart share a line of the table: 512 KB moves
/// neither `addr >> 1` nor `addr >> 10` in the nine bits that pick it.
const LINE_STRIDE: u32 = 0x8_0000;

#[test]
fn two_hot_addresses_on_one_line_alternate_through_jsr_and_rts() {
    let (a, b) = (0x2000, 0x2000 + LINE_STRIDE);
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![
            Instr::Jsr(Abs(a)),                  // 0x1000
            Instr::Jsr(Abs(b)),                  // 0x1006
            Instr::Dbf(0, BranchTarget::Idx(0)), // 0x100C
            Instr::Halt,
        ],
    );
    load(&mut m, a, vec![Instr::Add(L, Imm(1), Dr(1)), Instr::Rts]);
    load(&mut m, b, vec![Instr::Add(L, Imm(100), Dr(2)), Instr::Rts]);
    // A block that never runs, whose instructions share lines with the
    // caller's: warm its lines, so each return has to evict one.
    let shadow = BASE + LINE_STRIDE;
    load(
        &mut m,
        shadow,
        vec![
            Instr::Add(L, Imm(1), Dr(3)),
            Instr::Add(L, Imm(1), Dr(3)),
            Instr::Add(L, Imm(1), Dr(3)),
            Instr::Halt,
        ],
    );
    for off in [0, 6, 12] {
        assert_eq!(m.code.locate(shadow + off).unwrap().block_base, shadow);
    }
    m.cpu.d[0] = 9; // ten passes
    m.cpu.pc = BASE;
    let before = m.code.searches();
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!((m.cpu.d[1], m.cpu.d[2], m.cpu.d[3]), (10, 1000, 0));
    assert_eq!(m.meter.instr_count, 10 * 7 + 1);
    assert!(
        m.code.searches() - before >= 2 * 10,
        "a and b evict each other on every pass"
    );
    // And the host's view of both, asked alternately.
    for _ in 0..3 {
        assert_eq!(m.code.locate(a).unwrap().block_base, a);
        assert_eq!(m.code.locate(b).unwrap().block_base, b);
        assert_eq!(m.code.locate(b + 6).unwrap().index, 1);
        assert_eq!(m.code.locate(a + 6).unwrap().block_base, a);
    }
}

#[test]
fn blocks_1_2_and_4_kb_apart_stop_searching_once_warm() {
    // Four subroutines at 0x4000 + 0, 1, 2 and 4 KB — where two threads'
    // copies of one template land — each a `jsr` target whose `rts`
    // returns to a different caller address. An index of `addr >> 1`
    // alone put all four entries on one line.
    let subs = [0x4000, 0x4400, 0x4800, 0x5000];
    let mut m = machine();
    let mut main: Vec<Instr> = subs.iter().map(|&s| Instr::Jsr(Abs(s))).collect();
    main.push(Instr::Dbf(0, BranchTarget::Idx(0)));
    main.push(Instr::Halt);
    load(&mut m, BASE, main);
    for (n, &s) in (1..).zip(&subs) {
        load(&mut m, s, vec![Instr::Add(L, Imm(1), Dr(n)), Instr::Rts]);
    }
    m.cpu.pc = BASE;
    assert_eq!(m.run(100_000), RunExit::Halted);
    // The start, four entries and four returns, once each.
    assert_eq!(m.code.searches(), 9);
    m.cpu.d[0] = 9; // ten more passes
    m.cpu.pc = BASE;
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.cpu.d[1..5], [11; 4]);
    assert_eq!(m.code.searches(), 9, "a warm line was evicted");
}

#[test]
fn a_different_block_loaded_under_a_warm_line_is_what_runs() {
    let sub = 0x2000;
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![Instr::Jsr(Abs(sub + 2)), Instr::Halt], // 0x1000, 0x1006
    );
    // 0x2000 nop | 0x2002 set d3 | 0x2008 rts
    load(&mut m, sub, vec![Instr::Nop, set(3, 1), Instr::Rts]);
    m.cpu.pc = BASE;
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[3], 1, "0x2002's line is warm");

    // Same base, a layout where 0x2002 is mid-instruction.
    m.code.unload(sub).unwrap();
    load(&mut m, sub, vec![set(3, 2), Instr::Rts]);
    m.cpu.pc = BASE;
    step(&mut m);
    assert_eq!(m.step(), Err(MachineError::BadCodeAddress(sub + 2)));
    assert_eq!(m.cpu.d[3], 1);

    // Another base whose block covers 0x2002 at a boundary again.
    m.code.unload(sub).unwrap();
    load(&mut m, sub + 2, vec![set(3, 3), Instr::Rts]);
    m.cpu.pc = BASE;
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[3], 3);
}

#[test]
fn a_jmp_patched_through_a_warm_line_is_seen_on_the_next_step() {
    let link = 0x3000;
    let mut m = machine();
    load(&mut m, BASE, vec![Instr::Jmp(Abs(link))]);
    load(&mut m, link, vec![Instr::Jmp(Abs(0x4000))]);
    load(&mut m, 0x4000, vec![set(7, 0xBAD), Instr::Halt]);
    load(&mut m, 0x5000, vec![set(7, 0x600D), Instr::Halt]);
    m.cpu.pc = BASE;
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 0xBAD, "the link's line is warm");

    m.cpu.pc = BASE;
    step(&mut m);
    assert_eq!(m.cpu.pc, link);
    m.code.patch_jmp_target(link, 0x5000).unwrap();
    step(&mut m);
    assert_eq!(m.cpu.pc, 0x5000);
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[7], 0x600D);
}

#[test]
fn locate_of_an_unloaded_address_with_a_warm_line_is_none() {
    let mut m = machine();
    load(&mut m, 0x2000, vec![Instr::Nop, set(3, 1), Instr::Rts]);
    assert_eq!(m.code.locate(0x2002).unwrap().index, 1);
    m.code.unload(0x2000).unwrap();
    assert_eq!(m.code.locate(0x2002), None);
    // Nor after an unrelated load elsewhere.
    load(&mut m, 0x2000 + LINE_STRIDE, vec![Instr::Nop, Instr::Rts]);
    assert_eq!(m.code.locate(0x2002), None);
    assert!(m.code.patch_jmp_target(0x2002, 0).is_err());
}

// --- Breakpoints -------------------------------------------------------------

#[test]
fn breakpoints_hit_by_fall_through_and_by_taken_branch() {
    let mut m = machine();
    load(
        &mut m,
        BASE,
        vec![
            set(0, 1),                                 // 0x1000
            set(1, 2),                                 // 0x1006
            Instr::Bcc(Cond::T, BranchTarget::Idx(4)), // 0x100C
            set(2, 0xBAD),                             // 0x1010
            set(3, 4),                                 // 0x1016
            Instr::Halt,                               // 0x101C
        ],
    );
    m.cpu.pc = BASE;
    m.breakpoints.insert(BASE);
    m.breakpoints.insert(0x1006);
    m.breakpoints.insert(0x1016);
    // Not on the first instruction of a run, so a stopped run can resume.
    assert_eq!(m.run(1000), RunExit::Breakpoint(0x1006));
    assert_eq!((m.cpu.d[0], m.cpu.d[1]), (1, 0));
    assert_eq!(m.run(1000), RunExit::Breakpoint(0x1016));
    assert_eq!((m.cpu.d[1], m.cpu.d[2], m.cpu.d[3]), (2, 0, 0));
    m.breakpoints.clear();
    assert_eq!(m.run(1000), RunExit::Halted);
    assert_eq!(m.cpu.d[3], 4);
}

// --- Exceptions ----------------------------------------------------------------

#[test]
fn trap_handler_rte_round_trip_resumes_after_the_trap() {
    let mut m = machine();
    m.cpu.vbr = 0x100;
    m.mem.poke(0x100 + 4 * 32, L, 0x6000);
    load(
        &mut m,
        0x6000,
        vec![Instr::Add(L, Imm(1), Dr(5)), Instr::Rte],
    );
    // Two traps, the second reached through an in-block branch, so the
    // handler is entered from, and returns to, two different places.
    load(
        &mut m,
        BASE,
        vec![
            Instr::Trap(0),                            // 0x1000
            set(0, 1),                                 // 0x1002
            Instr::Bcc(Cond::T, BranchTarget::Idx(4)), // 0x1008
            set(1, 0xBAD),                             // 0x100C
            Instr::Trap(0),                            // 0x1012
            set(2, 3),                                 // 0x1014
            Instr::Halt,
        ],
    );
    m.cpu.pc = BASE;
    step(&mut m); // trap
    assert_eq!(m.cpu.pc, 0x6000);
    assert_eq!(m.mem.peek(m.cpu.a[7] + 2, L), 0x1002, "resumes after");
    step(&mut m); // add
    step(&mut m); // rte
    assert_eq!(m.cpu.pc, 0x1002);
    assert_eq!(m.cpu.a[7], STACK);
    assert_eq!(m.run(10_000), RunExit::Halted);
    assert_eq!(m.cpu.d, [1, 0, 3, 0, 0, 2, 0, 0]);
    assert_eq!(m.meter.exception_count, 2);
}

// --- The counters and the trace ---------------------------------------------------

#[test]
fn counters_and_trace_match_a_hand_computed_transcript() {
    // sun3 emulation: a memory reference is 3 + 1 wait state = 4 cycles.
    let main = vec![
        set(0, 1),                                  // 0x1000  2
        Instr::Move(L, Dr(0), Abs(0x4000)),         // 0x1006  2 + 1 ref
        Instr::Tst(L, Dr(0)),                       // 0x100C  2
        Instr::Bcc(Cond::Eq, BranchTarget::Idx(5)), // 0x100E  4, not taken
        Instr::Bcc(Cond::Ne, BranchTarget::Idx(6)), // 0x1012  4 + 2 taken
        set(7, 0xBAD),                              // 0x1016  skipped
        Instr::Dbf(0, BranchTarget::Idx(6)),        // 0x101C  4 (+ 2 taken)
        Instr::Jsr(Abs(0x2000)),                    // 0x1020  4 + 1 ref
        Instr::Halt,                                // 0x1026  0
    ];
    let sub = vec![
        Instr::Nop, // 0x2000  2
        Instr::Rts, // 0x2002  8 + 1 ref
    ];
    let mut m = machine();
    load(&mut m, BASE, main.clone());
    load(&mut m, 0x2000, sub.clone());
    m.cpu.pc = BASE;
    m.meter.tracing = true;
    assert_eq!(m.run(10_000), RunExit::Halted);

    // (pc, instruction, cycle count before it ran). d0 = 1, so the dbf
    // runs twice: 1 -> 0 taken (to itself), 0 -> -1 falls through.
    let expected = [
        (0x1000, main[0], 0),
        (0x1006, main[1], 2),
        (0x100C, main[2], 8),
        (0x100E, main[3], 10),
        (0x1012, main[4], 14),
        (0x101C, main[6], 20),
        (0x101C, main[6], 26),
        (0x1020, main[7], 30),
        (0x2000, sub[0], 38),
        (0x2002, sub[1], 40),
        (0x1026, main[8], 52),
    ];
    let got: Vec<_> = m
        .meter
        .trace()
        .iter()
        .map(|r| (r.pc, r.instr, r.cycle))
        .collect();
    assert_eq!(got, expected);
    assert_eq!(m.meter.instr_count, 11);
    assert_eq!(m.meter.cycles, 52);
    assert_eq!(m.cpu.pc, 0x1028);
    assert_eq!(m.cpu.d[7], 0);
}
