//! Deterministic fault injection for the simulated hardware.
//!
//! Terminals drop characters, interrupt lines glitch, timers drift, and
//! CPUs stall. The Quamachine models all of these from a single seeded
//! plan so that a failure trace is *reproducible*: the same seed and
//! workload produce byte-for-byte the same faults, in the same order, at
//! the same virtual times.
//!
//! A [`FaultPlan`] is owned by the [`Machine`](crate::machine::Machine)
//! and threaded to every device through
//! [`DevCtx`](crate::devices::DevCtx). Devices consult it at well-defined
//! points:
//!
//! - **tty** — each received byte may be dropped or duplicated before it
//!   reaches the input FIFO.
//! - **interrupts** — raises routed through
//!   [`DevCtx::raise_irq`](crate::devices::DevCtx::raise_irq) may be
//!   lost (only self-healing sources route through it: the periodic
//!   quantum timer re-raises every period); spurious interrupts are
//!   injected by the machine's event pump at configured levels.
//! - **timer** — alarm/quantum periods get bounded jitter.
//! - **IPIs** — reschedule IPIs routed through
//!   [`Machine::send_ipi`](crate::machine::Machine::send_ipi) may be
//!   lost or delayed by a bounded number of cycles; spurious IPIs are
//!   injected by the event pump on multiprocessor machines.
//! - **CPUs** — on dispatch (`switch_cpu`), a CPU may stall (its virtual
//!   clock advances N cycles while it executes nothing) or go sticky
//!   "sick": every dispatch corrupts the loaded context with a wild PC,
//!   until the kernel quarantines the CPU.
//!
//! Every injected fault appends a [`FaultRecord`] to the plan's trace and
//! bumps a counter in [`FaultStats`]; kernels report recovery against
//! those numbers and soak tests compare whole traces across runs.
//!
//! The SMP fault classes are consulted only from multiprocessor code
//! paths (`send_ipi`, the not-self arm of `switch_cpu`, the MP event
//! pump), and a zero-rate consult never advances the PRNG — so a plan
//! with the SMP rates at zero draws exactly the same decision sequence
//! as a pre-SMP plan, keeping old seeds' traces byte-identical.

use std::collections::BTreeSet;

/// Per-fault-class injection rates and bounds. All rates are permille
/// (0–1000) per opportunity; zero everywhere means no faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Chance a received tty byte is dropped before the FIFO.
    pub tty_drop_permille: u16,
    /// Chance a received tty byte is duplicated into the FIFO.
    pub tty_dup_permille: u16,
    /// Chance a fault-eligible interrupt raise is lost.
    pub irq_lost_permille: u16,
    /// Chance, per event-pump pass, of a spurious interrupt.
    pub irq_spurious_permille: u16,
    /// Levels eligible for spurious injection (bit *n* = level *n*).
    pub irq_spurious_levels: u8,
    /// Chance a timer period is jittered.
    pub timer_jitter_permille: u16,
    /// Maximum jitter magnitude, as permille of the period (± range).
    pub timer_jitter_magnitude_permille: u16,
    /// Chance a reschedule IPI is lost in flight (SMP only).
    pub ipi_lost_permille: u16,
    /// Chance a reschedule IPI is delayed instead of delivered (SMP).
    pub ipi_delay_permille: u16,
    /// Maximum IPI delay in cycles of the target CPU's clock.
    pub ipi_delay_max_cycles: u64,
    /// Chance, per MP event-pump pass, of a spurious IPI on the active
    /// CPU.
    pub ipi_spurious_permille: u16,
    /// Chance a dispatch (`switch_cpu` onto a CPU) stalls that CPU:
    /// its clock advances while it executes nothing.
    pub cpu_stall_permille: u16,
    /// Maximum stall length in cycles.
    pub cpu_stall_max_cycles: u64,
    /// Chance a dispatch leaves the CPU permanently "sick": every
    /// subsequent dispatch corrupts the loaded context with a wild PC.
    pub cpu_sick_permille: u16,
}

impl FaultConfig {
    /// No faults (the default).
    #[must_use]
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// A moderate mix of every fault class — the soak-test workhorse.
    ///
    /// The SMP rates stay zero here: on a uniprocessor kernel this
    /// config draws the exact decision sequence it always has, so PR-1
    /// seed traces replay byte-for-byte.
    #[must_use]
    pub fn soak() -> FaultConfig {
        FaultConfig {
            tty_drop_permille: 30,
            tty_dup_permille: 30,
            irq_lost_permille: 20,
            irq_spurious_permille: 1,
            irq_spurious_levels: 0b0011_0100, // unassigned (2), tty (4), audio (5)
            timer_jitter_permille: 100,
            timer_jitter_magnitude_permille: 250,
            ..FaultConfig::none()
        }
    }

    /// [`soak`](FaultConfig::soak) plus the SMP fault classes, enabled
    /// only when the machine actually has more than one CPU. Sick-CPU
    /// faults stay off — they can collateral-reap whichever thread is
    /// current at sickening, so data-integrity soaks force them
    /// explicitly ([`FaultPlan::sicken_cpu`]) instead of rolling dice.
    #[must_use]
    pub fn soak_smp(cpus: usize) -> FaultConfig {
        let mut cfg = FaultConfig::soak();
        if cpus > 1 {
            cfg.ipi_lost_permille = 120;
            cfg.ipi_delay_permille = 120;
            cfg.ipi_delay_max_cycles = 20_000;
            cfg.ipi_spurious_permille = 1;
            cfg.cpu_stall_permille = 2;
            cfg.cpu_stall_max_cycles = 150_000;
        }
        cfg
    }
}

/// What the plan decided about one reschedule IPI send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiFault {
    /// The IPI vanishes; the target never sees it.
    Lost,
    /// The IPI lands this many cycles late on the target's clock.
    Delayed(u64),
}

/// What the plan decided about one dispatch onto a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuDispatchFault {
    /// The CPU's clock jumps this many cycles; it executes nothing.
    Stall(u64),
    /// The CPU is sick: the loaded context must be corrupted.
    Sick,
}

/// What the plan decided about one received tty byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtyRx {
    /// Deliver the byte normally.
    Deliver,
    /// Lose the byte.
    Drop,
    /// Deliver the byte twice.
    Duplicate,
}

/// One injected fault, stamped with the cycle it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRecord {
    /// A received tty byte was dropped.
    TtyDrop {
        /// Cycle of arrival.
        at: u64,
        /// The lost byte.
        byte: u8,
    },
    /// A received tty byte was duplicated.
    TtyDup {
        /// Cycle of arrival.
        at: u64,
        /// The doubled byte.
        byte: u8,
    },
    /// An interrupt raise was swallowed.
    IrqLost {
        /// Cycle of the raise.
        at: u64,
        /// The level that failed to assert.
        level: u8,
    },
    /// A spurious interrupt was asserted.
    IrqSpurious {
        /// Cycle of the injection.
        at: u64,
        /// The level asserted with no device work pending.
        level: u8,
    },
    /// A timer period was jittered.
    TimerJitter {
        /// Cycle the period was programmed.
        at: u64,
        /// Requested period in cycles.
        base: u64,
        /// Actual period used.
        actual: u64,
    },
    /// A reschedule IPI was lost in flight.
    IpiLost {
        /// Cycle of the send (sender's clock).
        at: u64,
        /// The target CPU that never saw it.
        cpu: usize,
    },
    /// A reschedule IPI was delayed.
    IpiDelayed {
        /// Cycle of the send (sender's clock).
        at: u64,
        /// The target CPU.
        cpu: usize,
        /// Delay in cycles of the target CPU's clock.
        delay: u64,
    },
    /// A spurious IPI was asserted with no sender.
    IpiSpurious {
        /// Cycle of the injection.
        at: u64,
        /// The CPU that saw the phantom IPI.
        cpu: usize,
    },
    /// A CPU stalled on dispatch: its clock advanced while it executed
    /// nothing.
    CpuStall {
        /// Cycle of the dispatch (the stalled CPU's clock).
        at: u64,
        /// The stalled CPU.
        cpu: usize,
        /// How many cycles its clock jumped.
        cycles: u64,
    },
    /// A CPU went permanently sick: every dispatch corrupts its context.
    CpuSick {
        /// Cycle of the first corrupted dispatch.
        at: u64,
        /// The sick CPU.
        cpu: usize,
    },
}

/// Injection counters, one per fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Tty bytes dropped.
    pub tty_dropped: u64,
    /// Tty bytes duplicated.
    pub tty_duplicated: u64,
    /// Interrupt raises lost.
    pub irq_lost: u64,
    /// Spurious interrupts asserted.
    pub irq_spurious: u64,
    /// Timer periods jittered.
    pub timer_jitter: u64,
    /// Reschedule IPIs lost.
    pub ipi_lost: u64,
    /// Reschedule IPIs delayed.
    pub ipi_delayed: u64,
    /// Spurious IPIs asserted.
    pub ipi_spurious: u64,
    /// CPU stalls injected.
    pub cpu_stall: u64,
    /// CPUs gone sick.
    pub cpu_sick: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tty_dropped
            + self.tty_duplicated
            + self.irq_lost
            + self.irq_spurious
            + self.timer_jitter
            + self.ipi_lost
            + self.ipi_delayed
            + self.ipi_spurious
            + self.cpu_stall
            + self.cpu_sick
    }
}

/// A seeded, deterministic fault plan (see module docs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    enabled: bool,
    state: u64,
    /// The active rates and bounds.
    pub cfg: FaultConfig,
    sick_cpus: BTreeSet<usize>,
    /// Injection counters.
    pub stats: FaultStats,
    trace: Vec<FaultRecord>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing; every consult is a cheap early-out.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan {
            enabled: false,
            state: 0,
            cfg: FaultConfig::none(),
            sick_cpus: BTreeSet::new(),
            stats: FaultStats::default(),
            trace: Vec::new(),
        }
    }

    /// A plan drawing every decision from `seed` at the rates in `cfg`.
    #[must_use]
    pub fn seeded(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            enabled: true,
            state: seed ^ 0x5851_F42D_4C95_7F2D,
            cfg,
            sick_cpus: BTreeSet::new(),
            stats: FaultStats::default(),
            trace: Vec::new(),
        }
    }

    /// Whether this plan can inject anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// The fault trace so far, in injection order.
    #[must_use]
    pub fn trace(&self) -> &[FaultRecord] {
        &self.trace
    }

    /// Host-side: mark a CPU permanently sick (targeted tests). Every
    /// subsequent dispatch onto it corrupts the loaded context.
    pub fn sicken_cpu(&mut self, cpu: usize) {
        self.enabled = true;
        self.sick_cpus.insert(cpu);
    }

    /// Whether `cpu` is currently sick.
    #[must_use]
    pub fn is_sick_cpu(&self, cpu: usize) -> bool {
        self.sick_cpus.contains(&cpu)
    }

    /// CPUs currently marked sick.
    pub fn sick_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        self.sick_cpus.iter().copied()
    }

    fn roll(&mut self, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        splitmix64(&mut self.state) % 1000 < u64::from(permille)
    }

    /// Consult for one byte arriving at the tty receiver.
    pub fn tty_rx(&mut self, now: u64, byte: u8) -> TtyRx {
        if !self.enabled {
            return TtyRx::Deliver;
        }
        if self.roll(self.cfg.tty_drop_permille) {
            self.stats.tty_dropped += 1;
            self.trace.push(FaultRecord::TtyDrop { at: now, byte });
            return TtyRx::Drop;
        }
        if self.roll(self.cfg.tty_dup_permille) {
            self.stats.tty_duplicated += 1;
            self.trace.push(FaultRecord::TtyDup { at: now, byte });
            return TtyRx::Duplicate;
        }
        TtyRx::Deliver
    }

    /// Consult for one fault-eligible interrupt raise; `true` = lost.
    pub fn lose_irq(&mut self, now: u64, level: u8) -> bool {
        if !self.enabled || !self.roll(self.cfg.irq_lost_permille) {
            return false;
        }
        self.stats.irq_lost += 1;
        self.trace.push(FaultRecord::IrqLost { at: now, level });
        true
    }

    /// Consult once per event-pump pass; returns a level to assert
    /// spuriously, if any.
    pub fn spurious_irq(&mut self, now: u64) -> Option<u8> {
        if !self.enabled
            || self.cfg.irq_spurious_levels == 0
            || !self.roll(self.cfg.irq_spurious_permille)
        {
            return None;
        }
        let eligible: Vec<u8> = (1..=7)
            .filter(|l| self.cfg.irq_spurious_levels & (1 << l) != 0)
            .collect();
        let level = eligible[(splitmix64(&mut self.state) % eligible.len() as u64) as usize];
        self.stats.irq_spurious += 1;
        self.trace.push(FaultRecord::IrqSpurious { at: now, level });
        Some(level)
    }

    /// Consult for one timer period of `base` cycles; returns the period
    /// to actually use (bounded jitter, never zero).
    pub fn timer_period(&mut self, now: u64, base: u64) -> u64 {
        if !self.enabled || !self.roll(self.cfg.timer_jitter_permille) {
            return base;
        }
        let span = base * u64::from(self.cfg.timer_jitter_magnitude_permille) / 1000;
        if span == 0 {
            return base;
        }
        // Uniform in [base - span, base + span].
        let offset = splitmix64(&mut self.state) % (2 * span + 1);
        let actual = (base - span + offset).max(1);
        self.stats.timer_jitter += 1;
        self.trace.push(FaultRecord::TimerJitter {
            at: now,
            base,
            actual,
        });
        actual
    }

    /// Consult for one reschedule IPI aimed at `cpu`; `None` means it is
    /// delivered normally.
    pub fn ipi_send(&mut self, now: u64, cpu: usize) -> Option<IpiFault> {
        if !self.enabled {
            return None;
        }
        if self.roll(self.cfg.ipi_lost_permille) {
            self.stats.ipi_lost += 1;
            self.trace.push(FaultRecord::IpiLost { at: now, cpu });
            return Some(IpiFault::Lost);
        }
        if self.roll(self.cfg.ipi_delay_permille) {
            let max = self.cfg.ipi_delay_max_cycles.max(1);
            let delay = 1 + splitmix64(&mut self.state) % max;
            self.stats.ipi_delayed += 1;
            self.trace.push(FaultRecord::IpiDelayed {
                at: now,
                cpu,
                delay,
            });
            return Some(IpiFault::Delayed(delay));
        }
        None
    }

    /// Consult once per MP event-pump pass on CPU `cpu`; `true` asserts
    /// a spurious IPI there.
    pub fn spurious_ipi(&mut self, now: u64, cpu: usize) -> bool {
        if !self.enabled || !self.roll(self.cfg.ipi_spurious_permille) {
            return false;
        }
        self.stats.ipi_spurious += 1;
        self.trace.push(FaultRecord::IpiSpurious { at: now, cpu });
        true
    }

    /// Consult for one dispatch onto CPU `cpu` (`switch_cpu` loading its
    /// slot); `None` means the dispatch is clean.
    pub fn cpu_dispatch(&mut self, now: u64, cpu: usize) -> Option<CpuDispatchFault> {
        if !self.enabled {
            return None;
        }
        // Sick CPUs dominate: once sick, every dispatch is corrupted.
        if self.sick_cpus.contains(&cpu) {
            return Some(CpuDispatchFault::Sick);
        }
        if self.roll(self.cfg.cpu_sick_permille) {
            self.sick_cpus.insert(cpu);
            self.stats.cpu_sick += 1;
            self.trace.push(FaultRecord::CpuSick { at: now, cpu });
            return Some(CpuDispatchFault::Sick);
        }
        if self.roll(self.cfg.cpu_stall_permille) {
            let max = self.cfg.cpu_stall_max_cycles.max(1);
            let cycles = 1 + splitmix64(&mut self.state) % max;
            self.stats.cpu_stall += 1;
            self.trace.push(FaultRecord::CpuStall {
                at: now,
                cpu,
                cycles,
            });
            return Some(CpuDispatchFault::Stall(cycles));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> FaultPlan {
        FaultPlan::seeded(42, FaultConfig::soak())
    }

    #[test]
    fn inert_plan_never_injects() {
        let mut p = FaultPlan::none();
        for i in 0..10_000u64 {
            assert_eq!(p.tty_rx(i, i as u8), TtyRx::Deliver);
            assert!(!p.lose_irq(i, 2));
            assert_eq!(p.spurious_irq(i), None);
            assert_eq!(p.timer_period(i, 1000), 1000);
        }
        assert_eq!(p.stats.total(), 0);
        assert!(p.trace().is_empty());
    }

    #[test]
    fn same_seed_same_trace() {
        let (mut a, mut b) = (busy_plan(), busy_plan());
        for i in 0..5_000u64 {
            a.tty_rx(i, i as u8);
            b.tty_rx(i, i as u8);
            a.lose_irq(i, 6);
            b.lose_irq(i, 6);
            a.spurious_irq(i);
            b.spurious_irq(i);
            a.timer_period(i, 10_000);
            b.timer_period(i, 10_000);
        }
        assert!(a.stats.total() > 0, "soak config must inject something");
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::seeded(1, FaultConfig::soak());
        let mut b = FaultPlan::seeded(2, FaultConfig::soak());
        for i in 0..5_000u64 {
            a.tty_rx(i, i as u8);
            b.tty_rx(i, i as u8);
        }
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn jitter_is_bounded() {
        let mut p = FaultPlan::seeded(
            9,
            FaultConfig {
                timer_jitter_permille: 1000,
                timer_jitter_magnitude_permille: 250,
                ..FaultConfig::none()
            },
        );
        for i in 0..1_000u64 {
            let actual = p.timer_period(i, 1000);
            assert!((750..=1250).contains(&actual), "bounded: {actual}");
        }
        assert_eq!(p.stats.timer_jitter, 1_000);
    }

    /// The satellite-1 invariant at the PRNG level: interleaving
    /// zero-rate SMP consults between the classic consults must not
    /// perturb the decision sequence, because `roll(0)` never advances
    /// the generator. A `soak()` plan (SMP rates zero) consulted at the
    /// SMP seams is therefore byte-identical to one that never was.
    #[test]
    fn zero_rate_smp_consults_keep_old_seeds_byte_identical() {
        let (mut old, mut new) = (busy_plan(), busy_plan());
        for i in 0..5_000u64 {
            // The "new" plan is consulted at every SMP seam too…
            assert_eq!(new.ipi_send(i, 1), None);
            assert!(!new.spurious_ipi(i, (i % 4) as usize));
            assert_eq!(new.cpu_dispatch(i, (i % 4) as usize), None);
            old.tty_rx(i, i as u8);
            new.tty_rx(i, i as u8);
            old.lose_irq(i, 6);
            new.lose_irq(i, 6);
            old.spurious_irq(i);
            new.spurious_irq(i);
            old.timer_period(i, 10_000);
            new.timer_period(i, 10_000);
        }
        // …and still draws the exact same faults.
        assert!(old.stats.total() > 0);
        assert_eq!(old.trace(), new.trace());
        assert_eq!(old.stats, new.stats);
    }

    #[test]
    fn smp_rates_inject_and_replay_deterministically() {
        let cfg = FaultConfig::soak_smp(4);
        assert!(cfg.ipi_lost_permille > 0 && cfg.cpu_stall_permille > 0);
        assert_eq!(cfg.cpu_sick_permille, 0, "sick CPUs are opt-in only");
        assert_eq!(
            FaultConfig::soak_smp(1),
            FaultConfig::soak(),
            "one CPU keeps the classic soak config exactly"
        );
        let run = |seed| {
            let mut p = FaultPlan::seeded(seed, FaultConfig::soak_smp(4));
            for i in 0..5_000u64 {
                p.ipi_send(i, (i % 4) as usize);
                p.spurious_ipi(i, (i % 4) as usize);
                if let Some(CpuDispatchFault::Stall(c)) = p.cpu_dispatch(i, (i % 4) as usize) {
                    assert!((1..=150_000).contains(&c), "stall bounded: {c}");
                }
            }
            p
        };
        let (a, b) = (run(7), run(7));
        assert!(a.stats.ipi_lost > 0 && a.stats.ipi_delayed > 0);
        assert!(a.stats.cpu_stall > 0);
        assert_eq!(a.trace(), b.trace());
        assert_ne!(run(8).trace(), a.trace(), "seeds diverge");
    }

    /// The module's promise: every injected fault appends one record and
    /// bumps one counter, so the counters sum to the trace's length.
    #[test]
    fn stats_total_counts_every_record() {
        let mut p = FaultPlan::seeded(
            11,
            FaultConfig {
                cpu_sick_permille: 1,
                ..FaultConfig::soak_smp(4)
            },
        );
        for i in 0..20_000u64 {
            let cpu = (i % 4) as usize;
            p.tty_rx(i, i as u8);
            p.lose_irq(i, 6);
            p.spurious_irq(i);
            p.timer_period(i, 10_000);
            p.ipi_send(i, cpu);
            p.spurious_ipi(i, cpu);
            p.cpu_dispatch(i, cpu);
        }
        assert!(p.stats.cpu_sick > 0, "every class gets a chance to inject");
        assert_eq!(p.stats.total(), p.trace().len() as u64);
    }

    #[test]
    fn sick_cpus_stay_sick() {
        let mut p = FaultPlan::none();
        p.sicken_cpu(2);
        assert!(p.is_sick_cpu(2));
        assert_eq!(p.sick_cpus().collect::<Vec<_>>(), vec![2]);
        for i in 0..100u64 {
            assert_eq!(p.cpu_dispatch(i, 2), Some(CpuDispatchFault::Sick));
            assert_eq!(p.cpu_dispatch(i, 1), None, "other CPUs are healthy");
        }
    }

    #[test]
    fn spurious_levels_respect_mask() {
        let mut p = FaultPlan::seeded(
            3,
            FaultConfig {
                irq_spurious_permille: 1000,
                irq_spurious_levels: 0b0001_0100, // levels 2 and 4
                ..FaultConfig::none()
            },
        );
        let mut seen = BTreeSet::new();
        for i in 0..500u64 {
            if let Some(l) = p.spurious_irq(i) {
                seen.insert(l);
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![2, 4]);
    }
}
