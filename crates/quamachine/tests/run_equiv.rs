//! `Machine::run` against a `step()` loop.
//!
//! `run` asks the step head (events due? interrupt acceptable? stopped?)
//! once and then executes a *quiet stretch* of instructions back to back;
//! `step` asks before every instruction. Two machines are built
//! identically, one is driven by `run(n)` and the other by the loop `run`
//! used to be, and after every exit everything observable must agree.
//! Each case is one way a stretch could outrun the head. Debug builds also
//! assert the head is a no-op before every instruction inside a stretch;
//! in `--release` this file is the only guard.

use quamachine::asm::Asm;
use quamachine::devices::dev_reg_addr;
use quamachine::devices::timer::{Timer, REG_ALARM_US, REG_QUANTUM_US};
use quamachine::devices::tty::{Tty, CTRL_RX_IRQ, REG_CTRL, REG_DATA};
use quamachine::fault::FaultRecord;
use quamachine::isa::{Cond, IndexSpec, Operand, Operand::*, ShiftKind, Size, Size::*};
use quamachine::mem::AddressMap;
use quamachine::trace::MachEvent;
use quamachine::{FaultConfig, FaultPlan, Machine, MachineConfig, RunExit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VBR: u32 = 0x100;
const MAIN: u32 = 0x1000;
const SIDE: u32 = 0x1800;
const HANDLERS: u32 = 0x6000;
const SSP: u32 = 0x8000;
const USP: u32 = 0x7000;
/// One long per vector: how often its handler ran.
const COUNTS: u32 = 0x3C00;
/// One long per vector: the stacked pc its handler last saw.
const SEEN_PC: u32 = 0x3E00;

const TIMER: usize = 0;
const TTY: usize = 1;
const TIMER_LEVEL: u8 = 6;
const TTY_LEVEL: u8 = 4;
const BUS_ERROR: u32 = 2;
const PRIVILEGE: u32 = 8;

fn irq_vector(level: u8) -> u32 {
    24 + u32::from(level)
}

fn trap_vector(n: u8) -> u32 {
    32 + u32::from(n)
}

/// A machine with a timer and a tty, every vector pointing at a handler
/// that counts, records the stacked pc and returns; the tty handler also
/// pops the received byte.
fn machine(cpus: usize) -> Machine {
    let mut m = Machine::new(MachineConfig {
        mem_size: 0x2_0000,
        trace_capacity: 64,
        cpus,
        ..MachineConfig::sun3_emulation()
    });
    assert_eq!(m.attach_device(Box::new(Timer::new(TIMER_LEVEL))), TIMER);
    assert_eq!(m.attach_device(Box::new(Tty::new(TTY_LEVEL))), TTY);
    for v in 2..48 {
        let mut h = Asm::new(format!("vector_{v}"));
        h.add(L, Imm(1), Abs(COUNTS + 4 * v));
        h.move_(L, Disp(2, 7), Abs(SEEN_PC + 4 * v));
        // These two re-point at the faulting instruction: step over it.
        if v == BUS_ERROR {
            h.add(L, Imm(6), Disp(2, 7)); // `move.l d0,(abs).l`
        }
        if v == PRIVILEGE {
            h.add(L, Imm(4), Disp(2, 7)); // `move #imm,sr`
        }
        if v == irq_vector(TTY_LEVEL) {
            h.move_(L, Abs(dev_reg_addr(TTY, REG_DATA)), Dr(5));
        }
        h.rte();
        let at = HANDLERS + 0x40 * v;
        m.load_block(at, h.assemble().unwrap()).unwrap();
        m.mem.poke(VBR + 4 * v, L, at);
    }
    for cpu in 0..cpus {
        let c = m.cpu_mut(cpu);
        c.vbr = VBR;
        c.pc = MAIN;
        c.a[7] = SSP - 0x400 * cpu as u32;
        c.other_sp = USP;
    }
    m
}

fn load(m: &mut Machine, base: u32, a: Asm) {
    m.load_block(base, a.assemble().unwrap()).unwrap();
}

/// Where [`load_noting`] leaves the address of the mark it was given.
const NOTED: u32 = 0x3BFC;

/// Load `a` at `MAIN` and note the address of `mark` in guest memory, for
/// the case to compare against the pc a handler saw.
fn load_noting(m: &mut Machine, a: Asm, mark: &str) {
    let asm = a.assemble_full().unwrap();
    m.mem
        .poke(NOTED, L, MAIN + asm.block.offsets[asm.marks[mark]]);
    m.load_block(MAIN, asm.block).unwrap();
}

/// `n` register instructions with no side effect on anything but `d0`-`d2`.
fn straight_line(a: &mut Asm, n: usize) {
    for i in 0..n {
        match i % 3 {
            0 => a.add(L, Imm(1), Dr(0)),
            1 => a.eor(L, Dr(0), Dr(1)),
            _ => a.shift(ShiftKind::Lsl, L, Imm(1), Dr(2)),
        }
    }
}

/// Open the interrupt mask (supervisor, level 0).
fn unmask(a: &mut Asm) {
    a.move_to_sr(Imm(0x2000));
}

fn count(m: &Machine, vector: u32) -> u32 {
    m.mem.peek(COUNTS + 4 * vector, L)
}

// --- The harness ---------------------------------------------------------------

/// The loop `run` was before it owned one: the head before every
/// instruction. The reference the stretch is compared against. Each step
/// is told where the budget ends, because a stopped CPU sleeps no further.
fn run_by_steps(m: &mut Machine, max_cycles: u64) -> RunExit {
    let limit = m.meter.cycles.saturating_add(max_cycles);
    let mut first = true;
    loop {
        if !first && m.breakpoints.contains(&m.cpu.pc) {
            return RunExit::Breakpoint(m.cpu.pc);
        }
        first = false;
        match m.step_until(limit) {
            Ok(None) => {}
            Ok(Some(exit)) => return exit,
            Err(e) => return RunExit::Error(e),
        }
        if m.meter.cycles >= limit {
            return RunExit::CycleLimit;
        }
    }
}

/// Everything observable about a machine after an exit, memory aside.
#[derive(Debug, PartialEq)]
struct Snapshot {
    exit: RunExit,
    active: usize,
    /// Every CPU's registers (`sr`, both stack pointers, `vbr`, `stopped`
    /// included) and clock.
    cpus: Vec<(String, u64)>,
    instrs: u64,
    exceptions: u64,
    refs: u64,
    error_faults: Vec<(u32, u64)>,
    hooks: Vec<MachEvent>,
    trace: Vec<(u32, quamachine::isa::Instr, u64)>,
    /// Pending lines per CPU, accepted counts, IPIs sent.
    irq: String,
    /// Every CPU's timeline: device events and IPIs in flight.
    events: String,
    faults: String,
}

fn snapshot(m: &mut Machine, exit: RunExit) -> Snapshot {
    let cpus = 0..m.num_cpus();
    let mut error_faults: Vec<_> = m.meter.error_faults.iter().map(|(&k, &v)| (k, v)).collect();
    error_faults.sort_unstable();
    Snapshot {
        exit,
        active: m.active_cpu(),
        cpus: cpus
            .map(|i| (format!("{:?}", m.cpu_ref(i)), m.cpu_cycles(i)))
            .collect(),
        instrs: m.meter.instr_count,
        exceptions: m.meter.exception_count,
        refs: m.mem.ref_count,
        error_faults,
        hooks: std::iter::from_fn(|| m.hooks.pop()).collect(),
        trace: m
            .meter
            .trace()
            .iter()
            .map(|r| (r.pc, r.instr, r.cycle))
            .collect(),
        irq: format!("{:?}", m.irq),
        events: format!("{:?}", m.events),
        faults: format!("{:?} {:?}", m.fault.stats, m.fault.trace()),
    }
}

const BUDGETS: [u64; 5] = [1, 7, 50, 1000, 1 << 20];
const MAX_ROUNDS: usize = 20_000;

/// Build two machines, drive one with `run(budget)` and the other with
/// `run_by_steps(budget)`, `between` applied to both before every round,
/// and compare after every exit until a run halts or fails. Returns the
/// `run` machine for the case's own assertions.
fn lockstep_one(
    what: &str,
    build: &dyn Fn() -> Machine,
    between: &dyn Fn(&mut Machine, usize),
    budget: u64,
    tracing: bool,
) -> Machine {
    let (mut by_run, mut by_step) = (build(), build());
    by_run.meter.tracing = tracing;
    by_step.meter.tracing = tracing;
    for round in 0..MAX_ROUNDS {
        between(&mut by_run, round);
        between(&mut by_step, round);
        let exit = by_run.run(budget);
        let reference = run_by_steps(&mut by_step, budget);
        let done = matches!(exit, RunExit::Halted | RunExit::Error(_));
        let ctx = format!("{what}: budget {budget}, tracing {tracing}, round {round}");
        assert_eq!(
            snapshot(&mut by_run, exit),
            snapshot(&mut by_step, reference),
            "{ctx}"
        );
        assert_eq!(by_run.mem.first_diff(&by_step.mem), None, "{ctx}: memory");
        if done {
            return by_run;
        }
    }
    panic!("{what}: budget {budget} did not finish in {MAX_ROUNDS} rounds");
}

/// [`lockstep_one`] at every budget — so exits land on every instruction
/// boundary (1), mid-stretch (7, 50, 1000) and nowhere (2^20) — with the
/// instruction trace off and on. Returns the last machine.
fn lockstep(
    what: &str,
    build: &dyn Fn() -> Machine,
    between: &dyn Fn(&mut Machine, usize),
) -> Machine {
    let mut last = None;
    for tracing in [true, false] {
        for budget in BUDGETS {
            last = Some(lockstep_one(what, build, between, budget, tracing));
        }
    }
    last.expect("at least one budget")
}

fn undisturbed(_: &mut Machine, _: usize) {}

// --- Events ------------------------------------------------------------------------

#[test]
fn a_timer_alarm_falls_due_in_the_middle_of_straight_line_code() {
    let m = lockstep(
        "alarm mid-stretch",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            unmask(&mut a);
            straight_line(&mut a, 200);
            a.halt();
            load(&mut m, MAIN, a);
            // 10 us = 160 cycles: about a third of the way in.
            m.host_reg_write(dev_reg_addr(TIMER, REG_ALARM_US), 10);
            m
        },
        &undisturbed,
    );
    let v = irq_vector(TIMER_LEVEL);
    assert_eq!(count(&m, v), 1);
    let seen = m.mem.peek(SEEN_PC + 4 * v, L);
    assert!((MAIN + 0x20..MAIN + 0x2A0).contains(&seen), "{seen:#x}");
    assert_eq!(m.irq.accepted[TIMER_LEVEL as usize], 1);
}

#[test]
fn a_guest_store_arms_the_alarm_from_inside_a_stretch() {
    let m = lockstep(
        "guest arms the alarm",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            unmask(&mut a);
            straight_line(&mut a, 40);
            a.move_i(L, 25, Abs(dev_reg_addr(TIMER, REG_ALARM_US)));
            let spin = a.here();
            a.add(L, Imm(1), Dr(3));
            a.tst(L, Abs(COUNTS + 4 * irq_vector(TIMER_LEVEL)));
            a.bcc(Cond::Eq, spin);
            a.halt();
            load(&mut m, MAIN, a);
            m
        },
        &undisturbed,
    );
    assert_eq!(count(&m, irq_vector(TIMER_LEVEL)), 1);
    assert!(m.cpu.d[3] > 10, "the spin waited for the alarm");
}

#[test]
fn a_guest_store_raises_a_line_from_inside_a_stretch() {
    let m = lockstep(
        "tty rx irq enabled with a byte waiting",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            unmask(&mut a);
            straight_line(&mut a, 30);
            a.move_i(L, CTRL_RX_IRQ, Abs(dev_reg_addr(TTY, REG_CTRL)));
            a.mark("next");
            straight_line(&mut a, 30);
            a.halt();
            load_noting(&mut m, a, "next");
            m.with_dev_ctx(TTY, |t: &mut Tty, ctx| t.inject(b"x", ctx))
                .unwrap();
            m
        },
        &undisturbed,
    );
    let v = irq_vector(TTY_LEVEL);
    assert_eq!(count(&m, v), 1);
    assert_eq!(m.cpu.d[5], u32::from(b'x'), "the handler read the byte");
    assert_eq!(
        m.mem.peek(SEEN_PC + 4 * v, L),
        m.mem.peek(NOTED, L),
        "accepted before the instruction after the store"
    );
}

// --- The mask -----------------------------------------------------------------------

#[test]
fn a_pending_irq_is_taken_right_after_move_to_sr_unmasks_it() {
    let m = lockstep(
        "move to sr unmasks",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            straight_line(&mut a, 20);
            unmask(&mut a);
            a.mark("next");
            straight_line(&mut a, 20);
            a.halt();
            load_noting(&mut m, a, "next");
            m.irq.raise_on(0, 3);
            m
        },
        &undisturbed,
    );
    assert_eq!(count(&m, irq_vector(3)), 1);
    assert_eq!(
        m.mem.peek(SEEN_PC + 4 * irq_vector(3), L),
        m.mem.peek(NOTED, L),
        "accepted before the instruction after the move"
    );
}

#[test]
fn a_pending_irq_is_taken_right_after_rte_unmasks_it() {
    let m = lockstep(
        "rte unmasks",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            straight_line(&mut a, 20);
            a.rte();
            load(&mut m, MAIN, a);
            let mut side = Asm::new("side");
            straight_line(&mut side, 20);
            side.halt();
            load(&mut m, SIDE, side);
            // A frame returning to SIDE at mask 0.
            m.cpu.a[7] = SSP - 6;
            m.mem.poke(SSP - 6, W, 0x2000);
            m.mem.poke(SSP - 4, L, SIDE);
            m.irq.raise_on(0, 3);
            m
        },
        &undisturbed,
    );
    assert_eq!(count(&m, irq_vector(3)), 1);
    assert_eq!(m.mem.peek(SEEN_PC + 4 * irq_vector(3), L), SIDE);
}

// --- STOP ----------------------------------------------------------------------------

#[test]
fn stop_wakes_at_the_pending_alarm_s_clock() {
    let m = lockstep(
        "stop with an alarm pending",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            straight_line(&mut a, 10);
            a.stop(0x2000);
            straight_line(&mut a, 10);
            a.halt();
            load(&mut m, MAIN, a);
            m.host_reg_write(dev_reg_addr(TIMER, REG_ALARM_US), 100);
            m
        },
        &undisturbed,
    );
    assert_eq!(count(&m, irq_vector(TIMER_LEVEL)), 1);
    assert!(m.meter.cycles >= 1600, "slept to the alarm");
    assert!(!m.cpu.stopped);
}

/// A stopped CPU sleeps to its next event or the end of the budget,
/// whichever comes first: a budget that ends first returns with the clock
/// exactly at its end and the CPU still stopped, so the caller can hand
/// the CPU work before the event; the CPU still wakes at the event's
/// cycle.
#[test]
fn stop_sleeps_no_further_than_the_budget() {
    const BUDGET: u64 = 300;
    let build = || {
        let mut m = machine(1);
        let mut a = Asm::new("main");
        straight_line(&mut a, 10);
        a.stop(0x2000);
        straight_line(&mut a, 10);
        a.halt();
        load(&mut m, MAIN, a);
        // 2000 cycles: several budgets of 300 away.
        m.host_reg_write(dev_reg_addr(TIMER, REG_ALARM_US), 125);
        m
    };
    lockstep("stop sleeps to the budget", &build, &undisturbed);

    let mut m = build();
    let alarm = m.events.next_due_for(0).expect("the alarm is armed");
    let mut stopped_rounds = 0;
    while count(&m, irq_vector(TIMER_LEVEL)) == 0 {
        let end = m.meter.cycles + BUDGET;
        assert!(end < alarm + BUDGET, "the CPU slept through its alarm");
        let exit = m.run(BUDGET);
        if m.meter.cycles < alarm {
            assert_eq!(exit, RunExit::CycleLimit);
            assert!(m.cpu.stopped, "the budget ran out before the alarm");
            assert_eq!(m.meter.cycles, end, "slept exactly to the budget's end");
            stopped_rounds += 1;
        }
    }
    assert!(
        stopped_rounds >= 3,
        "only {stopped_rounds} budgets ended asleep"
    );
    let woke = std::iter::from_fn(|| m.hooks.pop()).find_map(|e| match e {
        MachEvent::IrqAccept { level, cycle, .. } if level == TIMER_LEVEL => Some(cycle),
        _ => None,
    });
    assert_eq!(
        woke,
        Some(alarm + quamachine::cost::IACK_BASE),
        "accepted at the alarm's cycle"
    );
}

/// A fault-delayed IPI is an event on its target's timeline: a target
/// stopped with nothing else due sleeps to the IPI's due cycle and takes
/// it there, instead of halting with the IPI still in flight.
#[test]
fn stop_wakes_at_a_delayed_ipi_s_due_cycle() {
    let build = || {
        let mut m = machine(2);
        m.fault = FaultPlan::seeded(
            3,
            FaultConfig {
                ipi_delay_permille: 1000,
                ipi_delay_max_cycles: 5_000,
                ..FaultConfig::none()
            },
        );
        let mut a = Asm::new("side");
        straight_line(&mut a, 10);
        a.stop(0x2000);
        straight_line(&mut a, 10);
        a.halt();
        load(&mut m, SIDE, a);
        m.cpu_mut(1).pc = SIDE;
        m.send_ipi(1, 1);
        m.switch_cpu(1);
        m
    };
    lockstep("stop with an IPI in flight", &build, &undisturbed);

    let mut m = build();
    let due = match m.fault.trace() {
        [FaultRecord::IpiDelayed { cpu: 1, delay, .. }] => *delay,
        other => panic!("expected one IPI delayed to cpu 1, got {other:?}"),
    };
    assert_eq!(m.run(1 << 20), RunExit::Halted);
    assert_eq!(count(&m, irq_vector(1)), 1, "the IPI was taken");
    let woke = std::iter::from_fn(|| m.hooks.pop()).find_map(|e| match e {
        MachEvent::IrqAccept {
            level: 1, cycle, ..
        } => Some(cycle),
        _ => None,
    });
    assert_eq!(
        woke,
        Some(due + quamachine::cost::IACK_BASE),
        "accepted at the IPI's due cycle"
    );
}

#[test]
fn stop_with_nothing_due_halts() {
    let m = lockstep(
        "stop forever",
        &|| {
            let mut m = machine(1);
            let mut a = Asm::new("main");
            straight_line(&mut a, 10);
            a.stop(0x2000);
            a.add(L, Imm(1), Dr(4));
            a.halt();
            load(&mut m, MAIN, a);
            m
        },
        &undisturbed,
    );
    assert!(m.cpu.stopped);
    assert_eq!(m.cpu.d[4], 0, "nothing ran after the stop");
}

// --- Exceptions from inside a stretch -----------------------------------------------

#[test]
fn trap_and_user_mode_faults_mid_stretch() {
    let m = lockstep(
        "exceptions mid-stretch",
        &|| {
            let mut m = machine(1);
            m.mem.map = AddressMap::single(1, 0x2000, 0x1000);
            let mut a = Asm::new("main");
            straight_line(&mut a, 15);
            a.trap(3);
            straight_line(&mut a, 15);
            a.move_to_sr(Imm(0)); // user mode
            straight_line(&mut a, 15);
            a.move_(L, Dr(0), Abs(0x2100)); // inside the window
            a.move_(L, Dr(0), Abs(0x9000)); // outside: bus error, skipped
            straight_line(&mut a, 15);
            a.move_to_sr(Imm(0x2700)); // privilege violation, skipped
            a.trap(4);
            a.halt();
            load(&mut m, MAIN, a);
            m
        },
        &undisturbed,
    );
    assert_eq!(count(&m, trap_vector(3)), 1);
    assert_eq!(count(&m, BUS_ERROR), 1);
    assert_eq!(count(&m, PRIVILEGE), 1);
    assert_eq!(count(&m, trap_vector(4)), 1);
    assert_ne!(
        m.mem.peek(0x2100, L),
        0,
        "the user-mode store inside the window landed"
    );
    assert!(!m.cpu.supervisor());
}

// --- Breakpoints --------------------------------------------------------------------

#[test]
fn breakpoints_on_a_fall_through_address_and_on_a_branch_target() {
    let build = || {
        let mut m = machine(1);
        let mut a = Asm::new("main");
        straight_line(&mut a, 12);
        a.mark("fall");
        straight_line(&mut a, 12);
        let over = a.label();
        a.bra(over);
        a.move_i(L, 0xBAD, Dr(4));
        a.bind(over);
        a.mark("target");
        straight_line(&mut a, 12);
        a.halt();
        let asm = a.assemble_full().unwrap();
        for mark in ["fall", "target"] {
            m.breakpoints
                .insert(MAIN + asm.block.offsets[asm.marks[mark]]);
        }
        m.load_block(MAIN, asm.block).unwrap();
        m
    };
    let mut m = build();
    let mut hits = Vec::new();
    loop {
        match m.run(1 << 20) {
            RunExit::Breakpoint(at) => hits.push(at),
            exit => {
                assert_eq!(exit, RunExit::Halted);
                break;
            }
        }
    }
    let mut expected: Vec<u32> = m.breakpoints.iter().copied().collect();
    expected.sort_unstable();
    assert_eq!(hits, expected);
    assert_eq!(m.cpu.d[4], 0);
    lockstep("breakpoints", &build, &undisturbed);
}

// --- The fault plan ------------------------------------------------------------------

#[test]
fn seeded_fault_plans_replay_identically() {
    for seed in 0..32 {
        let m = lockstep_one(
            &format!("fault seed {seed}"),
            &|| {
                let mut m = machine(1);
                m.fault = FaultPlan::seeded(
                    seed,
                    FaultConfig {
                        irq_spurious_permille: 15,
                        irq_spurious_levels: 0b0011_0100,
                        timer_jitter_permille: 400,
                        timer_jitter_magnitude_permille: 250,
                        irq_lost_permille: 100,
                        ..FaultConfig::none()
                    },
                );
                let mut a = Asm::new("main");
                unmask(&mut a);
                a.move_i(L, 12, Abs(dev_reg_addr(TIMER, REG_QUANTUM_US)));
                a.move_i(L, 150, Dr(7));
                let top = a.here();
                straight_line(&mut a, 9);
                a.dbf(7, top);
                a.move_i(L, 0, Abs(dev_reg_addr(TIMER, REG_QUANTUM_US)));
                a.halt();
                load(&mut m, MAIN, a);
                m
            },
            &undisturbed,
            BUDGETS[seed as usize % BUDGETS.len()],
            seed % 2 == 0,
        );
        assert!(
            m.fault.stats.total() > 0 && count(&m, irq_vector(TIMER_LEVEL)) > 0,
            "seed {seed} injected and ticked"
        );
    }
}

// --- Two CPUs -------------------------------------------------------------------------

/// Both CPUs loop over straight-line code with their own quantum timer
/// armed; the host alternates them between runs and sends the other one an
/// IPI every seventh round.
fn two_cpus(fault: Option<u64>) -> Machine {
    let mut m = machine(2);
    if let Some(seed) = fault {
        m.fault = FaultPlan::seeded(
            seed,
            FaultConfig {
                ipi_delay_permille: 1000,
                ipi_delay_max_cycles: 700,
                ..FaultConfig::none()
            },
        );
    }
    for (cpu, base) in [(0, MAIN), (1, SIDE)] {
        let mut a = Asm::new(format!("cpu{cpu}"));
        unmask(&mut a);
        a.move_i(L, 30 + 7 * cpu, Abs(dev_reg_addr(TIMER, REG_QUANTUM_US)));
        a.move_i(L, 120, Dr(7));
        let top = a.here();
        straight_line(&mut a, 11);
        a.dbf(7, top);
        a.move_i(L, 0, Abs(dev_reg_addr(TIMER, REG_QUANTUM_US)));
        if cpu == 0 {
            a.halt();
        } else {
            // CPU 1 idles until CPU 0 is done.
            let idle = a.here();
            a.add(L, Imm(1), Dr(6));
            a.bra(idle);
        }
        load(&mut m, base, a);
        m.cpu_mut(cpu as usize).pc = base;
    }
    m
}

fn alternate_and_ipi(m: &mut Machine, round: usize) {
    m.switch_cpu(round % 2);
    if round.is_multiple_of(7) {
        m.send_ipi((round + 1) % 2, 1);
    }
}

#[test]
fn two_cpus_switched_between_runs() {
    for budget in [50, 300, 1000] {
        let m = lockstep_one(
            "two cpus",
            &|| two_cpus(None),
            &alternate_and_ipi,
            budget,
            budget == 50,
        );
        assert!(count(&m, irq_vector(1)) > 0, "IPIs were taken");
        assert!(count(&m, irq_vector(TIMER_LEVEL)) > 1, "both quanta ticked");
    }
}

#[test]
fn two_cpus_with_a_fault_delayed_ipi_in_flight() {
    for seed in 0..8 {
        let m = lockstep_one(
            &format!("two cpus, delayed IPIs, seed {seed}"),
            &|| two_cpus(Some(seed)),
            &alternate_and_ipi,
            [50, 300, 1000][seed as usize % 3],
            seed % 2 == 1,
        );
        assert!(m.fault.stats.ipi_delayed > 0);
        assert!(count(&m, irq_vector(1)) > 0, "delayed IPIs landed");
    }
}

// --- Random programs ------------------------------------------------------------------

/// A random source operand; memory stays inside `0x2000..0x5800`.
/// `a0` = 0x3000, `a1` climbs from 0x4000, `a2` descends from 0x5000,
/// `d6` = 3 (an index); none of them is ever a destination.
fn random_ea(rng: &mut SmallRng, size: Size, allow_imm: bool) -> Operand {
    match rng.random_range(0..if allow_imm { 9u32 } else { 8 }) {
        0..=2 => Dr(rng.random_range(0..6u8)),
        3 => Abs(0x2000 + 4 * rng.random_range(0..64u32)),
        4 => Disp(4 * rng.random_range(0..16u32) as i16 - 32, 0),
        5 => PostInc(1),
        6 => PreDec(2),
        7 => Idx(8, 0, IndexSpec::d(6, size.bytes() as u8)),
        _ => Imm(rng.random::<u32>() >> rng.random_range(0..32u32)),
    }
}

fn random_program(rng: &mut SmallRng) -> Asm {
    let mut a = Asm::new("random");
    unmask(&mut a);
    a.lea(Abs(0x3000), 0);
    a.lea(Abs(0x4000), 1);
    a.lea(Abs(0x5000), 2);
    a.move_i(L, 3, Dr(6));
    a.move_i(L, rng.random_range(1..4u32), Dr(7));
    let top = a.here();
    let mut pending: Vec<(usize, quamachine::asm::Label)> = Vec::new();
    let n = rng.random_range(30..120usize);
    for i in 0..n {
        pending.retain(|&(at, l)| {
            if at == i {
                a.bind(l);
            }
            at != i
        });
        let size = [B, W, L][rng.random_range(0..3usize)];
        let src = random_ea(rng, size, true);
        let dst = random_ea(rng, size, false);
        let dn = rng.random_range(0..6u8);
        match rng.random_range(0..11u32) {
            0 | 1 => a.move_(size, src, dst),
            2 => a.add(size, src, dst),
            3 => a.sub(size, src, dst),
            4 => a.cmp(size, src, Dr(dn)),
            5 => a.and(size, src, Dr(dn)),
            6 => a.eor(size, Dr(dn), dst),
            7 => a.tst(size, dst),
            8 => a.shift(
                [ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Rol][rng.random_range(0..3usize)],
                size,
                Imm(rng.random_range(1..9u32)),
                Dr(dn),
            ),
            9 => a.trap(rng.random_range(0..8u8)),
            _ => {
                // A forward branch over the next few instructions.
                let l = a.label();
                let cond =
                    [Cond::Eq, Cond::Ne, Cond::Mi, Cond::Cc, Cond::T][rng.random_range(0..5usize)];
                a.bcc(cond, l);
                pending.push((i + rng.random_range(1..6usize), l));
            }
        }
    }
    for (_, l) in pending {
        a.bind(l);
    }
    a.dbf(7, top);
    a.halt();
    a
}

#[test]
fn random_programs_with_one_random_alarm_each() {
    for seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + seed);
        let program = random_program(&mut rng);
        let alarm_us = rng.random_range(1..80u32);
        let budget = BUDGETS[rng.random_range(0..BUDGETS.len())];
        let m = lockstep_one(
            &format!("random program {seed}"),
            &|| {
                let mut m = machine(1);
                load(&mut m, MAIN, program.clone());
                m.host_reg_write(dev_reg_addr(TIMER, REG_ALARM_US), alarm_us);
                m
            },
            &undisturbed,
            budget,
            rng.random(),
        );
        assert!(m.meter.instr_count > 30, "seed {seed} ran");
    }
}
