//! The kernel monitor's measurement interface (Section 6.3).
//!
//! "To obtain direct timings of Synthesis kernel call times (in
//! microseconds), we use the Synthesis kernel monitor execution trace,
//! which records in memory the instructions executed by the current
//! thread. Using this trace, we can calculate the exact kernel call times
//! by counting the memory references and each instruction execution
//! time." The machine's meter does that counting; this module packages
//! interval measurements and the Section 6.4 size accounting.

use quamachine::trace::MeterSnapshot;

use crate::kernel::Kernel;

/// An interval measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// CPU cycles elapsed.
    pub cycles: u64,
    /// Microseconds at the machine's clock.
    pub us: f64,
    /// Instructions executed.
    pub instrs: u64,
    /// Exceptions taken.
    pub exceptions: u64,
}

/// Measure the work done by `f` on the kernel.
pub fn measure<R>(k: &mut Kernel, f: impl FnOnce(&mut Kernel) -> R) -> (R, Measurement) {
    let before = k.m.meter.snapshot();
    let r = f(k);
    let after = k.m.meter.snapshot();
    (r, delta(k, before, after))
}

/// Convert a snapshot pair into a [`Measurement`].
#[must_use]
pub fn delta(k: &Kernel, before: MeterSnapshot, after: MeterSnapshot) -> Measurement {
    let d = before.delta(&after);
    Measurement {
        cycles: d.cycles,
        us: k.m.cost.cycles_to_us(d.cycles),
        instrs: d.instr_count,
        exceptions: d.exception_count,
    }
}

/// What the creator keeps compiled for one template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplatePlans {
    /// The template.
    pub template: String,
    /// Plans kept for it.
    pub plans: usize,
    /// The holes those plans' read logs name — the bindings the pipeline
    /// computed with, so the ones whose change compiles another plan.
    /// Empty: one plan serves every request.
    pub logged: Vec<String>,
}

/// The Section 6.4 kernel-size report.
#[derive(Debug, Clone)]
pub struct SizeReport {
    /// Bytes of synthesized code currently resident.
    pub code_resident: u64,
    /// Bytes of code ever synthesized.
    pub code_total: u64,
    /// Kernel heap bytes in use (thread blocks, listed ones too; queues,
    /// buffers).
    pub heap_in_use: u32,
    /// Kernel heap high-water mark.
    pub heap_high_water: u32,
    /// Live threads.
    pub threads: usize,
    /// Installed code blocks.
    pub code_blocks: usize,
    /// Bytes of resident synthesized code held once but referenced more
    /// than once — what a cache-less kernel would have duplicated
    /// (Σ `(refs − 1) × size` over the specialization cache).
    pub code_shared_bytes: u64,
    /// Bytes of resident code serving a single reference (resident minus
    /// the multi-referenced cached blocks).
    pub code_private_bytes: u64,
    /// Specialization-cache hits since boot.
    pub cache_hits: u64,
    /// Specialization-cache misses since boot.
    pub cache_misses: u64,
    /// Times the synthesis pipeline ran since boot.
    pub plans_compiled: u64,
    /// Syntheses since boot that only filled a kept plan's holes.
    pub plan_hits: u64,
    /// Every template with kept plans, sorted by name.
    pub plans: Vec<TemplatePlans>,
}

impl SizeReport {
    /// Render the report as text: the size figures, then one line per
    /// template with kept plans.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel size: code {} B resident ({} B ever) in {} blocks, {} B shared, {} B private",
            self.code_resident,
            self.code_total,
            self.code_blocks,
            self.code_shared_bytes,
            self.code_private_bytes
        );
        let _ = writeln!(
            out,
            "  heap {} B in use (high water {} B), {} threads",
            self.heap_in_use, self.heap_high_water, self.threads
        );
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses; plans: {} compiled, {} hits",
            self.cache_hits, self.cache_misses, self.plans_compiled, self.plan_hits
        );
        for p in &self.plans {
            let _ = writeln!(
                out,
                "  plan {:<20} x{}  logged: {}",
                p.template,
                p.plans,
                if p.logged.is_empty() {
                    "-".to_string()
                } else {
                    p.logged.join(" ")
                }
            );
        }
        out
    }

    /// Serialize the report as JSON — the same content as
    /// [`render`](SizeReport::render).
    #[must_use]
    pub fn to_json(&self) -> String {
        let plans: Vec<String> = self
            .plans
            .iter()
            .map(|p| {
                let logged: Vec<String> = p.logged.iter().map(|h| format!("{h:?}")).collect();
                format!(
                    "    {{\"template\": {:?}, \"plans\": {}, \"logged\": [{}]}}",
                    p.template,
                    p.plans,
                    logged.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"code_resident\": {},\n  \"code_total\": {},\n  \"code_blocks\": {},\n  \
             \"code_shared_bytes\": {},\n  \"code_private_bytes\": {},\n  \
             \"heap_in_use\": {},\n  \"heap_high_water\": {},\n  \"threads\": {},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"plans_compiled\": {},\n  \"plan_hits\": {},\n  \"plans\": [\n{}\n  ]\n}}\n",
            self.code_resident,
            self.code_total,
            self.code_blocks,
            self.code_shared_bytes,
            self.code_private_bytes,
            self.heap_in_use,
            self.heap_high_water,
            self.threads,
            self.cache_hits,
            self.cache_misses,
            self.plans_compiled,
            self.plan_hits,
            plans.join(",\n")
        )
    }
}

/// Snapshot the kernel's space consumption.
#[must_use]
pub fn size_report(k: &Kernel) -> SizeReport {
    let resident = k.m.code.resident_bytes();
    let cache = &k.creator.cache;
    SizeReport {
        code_resident: resident,
        code_total: k.m.code.bytes_loaded,
        heap_in_use: k.heap.in_use,
        heap_high_water: k.heap.high_water,
        threads: k.threads.len(),
        code_blocks: k.m.code.block_count(),
        code_shared_bytes: cache.shared_bytes(),
        code_private_bytes: resident.saturating_sub(cache.multi_ref_bytes()),
        cache_hits: k.creator.stats.cache_hits,
        cache_misses: k.creator.stats.cache_misses,
        plans_compiled: k.creator.stats.plans_compiled,
        plan_hits: k.creator.stats.plan_hits,
        plans: k
            .creator
            .lib
            .planned()
            .into_iter()
            .map(|(template, plans)| {
                let mut logged: Vec<String> = plans
                    .iter()
                    .flat_map(|p| p.logged())
                    .map(|(hole, _)| hole.to_string())
                    .collect();
                logged.sort();
                logged.dedup();
                TemplatePlans {
                    template: template.to_string(),
                    plans: plans.len(),
                    logged,
                }
            })
            .collect(),
    }
}

/// Faults injected vs. recovery work done — the soak-test scoreboard.
///
/// The injected side comes from the machine's
/// [`FaultStats`](quamachine::fault::FaultStats); the recovery side
/// reads the kernel's reap/quarantine counts.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Faults injected by the machine's fault plan, by class.
    pub injected: quamachine::fault::FaultStats,
    /// Threads reaped after guest-attributable machine errors.
    pub threads_reaped: u64,
    /// Threads quarantined by the fault-storm watchdog.
    pub threads_quarantined: u64,
    /// CPUs quarantined by the cross-CPU watchdog.
    pub cpus_quarantined: u64,
    /// Quarantined CPUs re-admitted after probation.
    pub cpus_resumed: u64,
    /// Threads migrated off quarantined CPUs' ready chains.
    pub threads_evacuated: u64,
    /// Parked CPUs revived by the timer-fallback path after a missing
    /// reschedule IPI.
    pub ipi_fallbacks: u64,
    /// Per-CPU fault-domain rows. Empty on uniprocessor kernels, so
    /// every rendering omits the section and the single-CPU output is
    /// byte-identical to the pre-SMP report.
    pub cpus: Vec<CpuRecovery>,
}

/// One CPU's fault-domain state in the [`RecoveryReport`].
#[derive(Debug, Clone, Copy)]
pub struct CpuRecovery {
    /// The CPU.
    pub cpu: usize,
    /// Whether it is currently quarantined.
    pub quarantined: bool,
    /// Guest faults charged to the CPU domain itself.
    pub fault_events: u64,
    /// Cycles lost to dispatch stalls, as seen by the scheduler.
    pub stall_cycles: u64,
    /// Times this CPU has been quarantined.
    pub strikes: u32,
}

/// Snapshot the kernel's fault-injection and recovery counters.
#[must_use]
pub fn recovery_report(k: &Kernel) -> RecoveryReport {
    let cpus = if k.m.num_cpus() > 1 {
        (0..k.cpus.len())
            .map(|i| CpuRecovery {
                cpu: i,
                quarantined: k.cpus[i].quarantined,
                fault_events: k.cpus[i].fault_events,
                stall_cycles: k.cpus[i].stall_cycles,
                strikes: k.cpus[i].strikes,
            })
            .collect()
    } else {
        Vec::new()
    };
    RecoveryReport {
        injected: k.m.fault.stats,
        threads_reaped: k.recovery.reaped,
        threads_quarantined: k.recovery.quarantined,
        cpus_quarantined: k.recovery.cpus_quarantined,
        cpus_resumed: k.recovery.cpus_resumed,
        threads_evacuated: k.recovery.threads_evacuated,
        ipi_fallbacks: k.recovery.ipi_fallbacks,
        cpus,
    }
}

impl RecoveryReport {
    /// Render the report as the monitor's text scoreboard: injected
    /// faults vs. recovery work, with a per-CPU fault-domain section on
    /// multiprocessor kernels.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let i = &self.injected;
        let mut out = String::new();
        let _ = writeln!(out, "recovery report: {} faults injected", i.total());
        let _ = writeln!(
            out,
            "  injected: tty {}+{} irq {}+{} timer {} ipi {}+{}+{} cpu {}+{}",
            i.tty_dropped,
            i.tty_duplicated,
            i.irq_lost,
            i.irq_spurious,
            i.timer_jitter,
            i.ipi_lost,
            i.ipi_delayed,
            i.ipi_spurious,
            i.cpu_stall,
            i.cpu_sick
        );
        let _ = writeln!(
            out,
            "  threads: {} reaped, {} quarantined",
            self.threads_reaped, self.threads_quarantined
        );
        if !self.cpus.is_empty() {
            let _ = writeln!(
                out,
                "  cpus: {} quarantined, {} resumed, {} threads evacuated, {} ipi fallbacks",
                self.cpus_quarantined,
                self.cpus_resumed,
                self.threads_evacuated,
                self.ipi_fallbacks
            );
            for c in &self.cpus {
                let _ = writeln!(
                    out,
                    "  cpu {:>2}: {}  faults {:>3}  stalled {:>10} cycles  strikes {}",
                    c.cpu,
                    if c.quarantined {
                        "quarantined"
                    } else {
                        "in service "
                    },
                    c.fault_events,
                    c.stall_cycles,
                    c.strikes
                );
            }
        }
        out
    }

    /// Serialize the report as JSON — the same shape as the text
    /// rendering, structurally assertable by the chaos soak and CI. The
    /// `cpus` key is omitted entirely on uniprocessor kernels so the
    /// single-CPU JSON is byte-identical whether or not the SMP fault
    /// plan is compiled in.
    #[must_use]
    pub fn to_json(&self) -> String {
        let i = &self.injected;
        let cpus_section = if self.cpus.is_empty() {
            String::new()
        } else {
            let rows: Vec<String> = self
                .cpus
                .iter()
                .map(|c| {
                    format!(
                        "    {{\"cpu\": {}, \"quarantined\": {}, \"fault_events\": {}, \
                         \"stall_cycles\": {}, \"strikes\": {}}}",
                        c.cpu, c.quarantined, c.fault_events, c.stall_cycles, c.strikes
                    )
                })
                .collect();
            format!(
                ",\n  \"cpus_quarantined\": {},\n  \"cpus_resumed\": {},\n  \
                 \"threads_evacuated\": {},\n  \"ipi_fallbacks\": {},\n  \
                 \"cpus\": [\n{}\n  ]",
                self.cpus_quarantined,
                self.cpus_resumed,
                self.threads_evacuated,
                self.ipi_fallbacks,
                rows.join(",\n")
            )
        };
        format!(
            "{{\n  \"injected\": {{\"total\": {}, \"tty_dropped\": {}, \"tty_duplicated\": {}, \
             \"irq_lost\": {}, \"irq_spurious\": {}, \"timer_jitter\": {}, \"ipi_lost\": {}, \
             \"ipi_delayed\": {}, \"ipi_spurious\": {}, \"cpu_stall\": {}, \"cpu_sick\": {}}},\n  \
             \"threads_reaped\": {},\n  \"threads_quarantined\": {}{}\n\
             }}\n",
            i.total(),
            i.tty_dropped,
            i.tty_duplicated,
            i.irq_lost,
            i.irq_spurious,
            i.timer_jitter,
            i.ipi_lost,
            i.ipi_delayed,
            i.ipi_spurious,
            i.cpu_stall,
            i.cpu_sick,
            self.threads_reaped,
            self.threads_quarantined,
            cpus_section
        )
    }
}

/// Syscall-latency histogram buckets, in cycles (each bucket's upper
/// bound; the last is open-ended).
pub const LATENCY_BUCKETS: [u32; 6] = [100, 300, 1_000, 3_000, 10_000, u32::MAX];

/// Per-thread statistics distilled from one thread's trace ring.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// The thread.
    pub tid: crate::thread::Tid,
    /// Dispatches: guest `sw_in` VBR installs (`CtxSwitch` records with
    /// `a = 0`). A host-side `enter` (`a = 1`) only aims the CPU at a
    /// `sw_in`, which records the dispatch itself when it runs.
    pub ctx_switches: u64,
    /// Syscall entries.
    pub syscalls: u64,
    /// Interrupts accepted while the thread ran.
    pub irqs: u64,
    /// Kernel queue insertions attributed to the thread.
    pub queue_puts: u64,
    /// Kernel queue removals.
    pub queue_gets: u64,
    /// Specialization-cache hits driven by the thread.
    pub cache_hits: u64,
    /// Specialization-cache misses.
    pub cache_misses: u64,
    /// Cached-code destroys.
    pub destroys: u64,
    /// Recovery actions charged to the thread (reap/quarantine).
    pub recoveries: u64,
    /// Syscall-latency histogram: completed syscalls whose enter→exit
    /// cycle count fell in each [`LATENCY_BUCKETS`] bucket.
    pub latency: [u64; LATENCY_BUCKETS.len()],
}

/// One CPU's scheduler activity over the report window. Only built on
/// multiprocessor kernels — on one CPU the report's `cpus` vector is
/// empty and every rendering omits the section, keeping uniprocessor
/// output byte-identical to the pre-SMP kernel.
#[derive(Debug, Clone)]
pub struct CpuTrace {
    /// The CPU.
    pub cpu: usize,
    /// Threads this CPU stole from another's chain (`KCpu::steals`).
    pub steals: u64,
    /// Threads other CPUs stole from this one's chain.
    pub offloads: u64,
    /// Slice cycles spent executing (`KCpu::busy_cycles`).
    pub busy_cycles: u64,
    /// Slice cycles spent asleep in `stop` (`KCpu::idle_cycles`).
    pub idle_cycles: u64,
    /// `busy / (busy + idle)`, 0 when the CPU never ran a slice.
    pub utilization: f64,
}

/// The kernel-wide trace report: the bench profiler's data model.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-thread rows, by thread id.
    pub threads: Vec<ThreadTrace>,
    /// Per-CPU scheduler rows (empty on uniprocessor kernels).
    pub cpus: Vec<CpuTrace>,
    /// First record's cycle stamp (0 when the trace is empty).
    pub window_start: u64,
    /// Last record's cycle stamp.
    pub window_end: u64,
    /// Machine hook events dropped before the kernel attributed them.
    pub dropped: u64,
    /// Total records the report distilled.
    pub records: usize,
}

/// Distill the kernel's trace rings into per-thread statistics without
/// consuming them. With tracing disabled the rings are empty and every
/// row is zero.
#[must_use]
pub fn trace_report(k: &mut Kernel) -> TraceReport {
    use crate::trace::Kind;
    k.pump_trace();
    let merged = k.trace.snapshot_all();
    let window_start = merged.first().map_or(0, |r| r.cycle);
    let window_end = merged.last().map_or(0, |r| r.cycle);
    let mut threads = Vec::new();
    for tid in k.trace.tids() {
        let mut row = ThreadTrace {
            tid,
            ctx_switches: 0,
            syscalls: 0,
            irqs: 0,
            queue_puts: 0,
            queue_gets: 0,
            cache_hits: 0,
            cache_misses: 0,
            destroys: 0,
            recoveries: 0,
            latency: [0; LATENCY_BUCKETS.len()],
        };
        for r in k.trace.snapshot(tid) {
            match r.kind {
                Kind::CtxSwitch if r.a == 0 => row.ctx_switches += 1,
                Kind::CtxSwitch => {}
                Kind::SyscallEnter => row.syscalls += 1,
                Kind::SyscallExit => {
                    let slot = LATENCY_BUCKETS
                        .iter()
                        .position(|&hi| r.b <= hi)
                        .unwrap_or(LATENCY_BUCKETS.len() - 1);
                    row.latency[slot] += 1;
                }
                Kind::Irq => row.irqs += 1,
                Kind::QueuePut => row.queue_puts += 1,
                Kind::QueueGet => row.queue_gets += 1,
                Kind::CacheHit => row.cache_hits += 1,
                Kind::CacheMiss => row.cache_misses += 1,
                Kind::Destroy => row.destroys += 1,
                Kind::Recovery => row.recoveries += 1,
                // Steal and CPU-fault-domain records are per-CPU
                // scheduler traffic, reported in the SMP section and the
                // recovery report (never emitted on one CPU).
                Kind::Steal
                | Kind::IpiLost
                | Kind::CpuStall
                | Kind::CpuQuarantine
                | Kind::CpuResume => {}
            }
        }
        threads.push(row);
    }
    let cpus = if k.m.num_cpus() > 1 {
        (0..k.m.num_cpus())
            .map(|i| {
                let c = &k.cpus[i];
                let total = c.busy_cycles + c.idle_cycles;
                CpuTrace {
                    cpu: i,
                    steals: c.steals,
                    offloads: c.offloads,
                    busy_cycles: c.busy_cycles,
                    idle_cycles: c.idle_cycles,
                    utilization: if total > 0 {
                        c.busy_cycles as f64 / total as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    TraceReport {
        threads,
        cpus,
        window_start,
        window_end,
        dropped: k.m.hooks.dropped,
        records: merged.len(),
    }
}

impl TraceReport {
    /// Render the report as the profiler's text table: one row per
    /// thread plus the latency histogram of threads that completed
    /// syscalls.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace report: {} records over cycles {}..{} ({} dropped)",
            self.records, self.window_start, self.window_end, self.dropped
        );
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>8} {:>6} {:>6} {:>6} {:>5} {:>6} {:>5}",
            "tid", "ctxsw", "syscall", "irq", "qput", "qget", "hit", "miss", "rec"
        );
        for t in &self.threads {
            let _ = writeln!(
                out,
                "{:>4} {:>6} {:>8} {:>6} {:>6} {:>6} {:>5} {:>6} {:>5}",
                t.tid,
                t.ctx_switches,
                t.syscalls,
                t.irqs,
                t.queue_puts,
                t.queue_gets,
                t.cache_hits,
                t.cache_misses,
                t.recoveries
            );
        }
        if !self.cpus.is_empty() {
            let _ = writeln!(out, "per-CPU scheduler activity:");
            for c in &self.cpus {
                let _ = writeln!(
                    out,
                    "  cpu {:>2}: {:>5.1}% busy  steals {:>4}  offloads {:>4}  \
                     busy {:>10} idle {:>10} cycles",
                    c.cpu,
                    c.utilization * 100.0,
                    c.steals,
                    c.offloads,
                    c.busy_cycles,
                    c.idle_cycles
                );
            }
        }
        let _ = writeln!(out, "syscall latency (cycles):");
        for t in &self.threads {
            if t.latency.iter().sum::<u64>() == 0 {
                continue;
            }
            let mut lo = 0u64;
            let _ = write!(out, "  tid {:>2}:", t.tid);
            for (i, &n) in t.latency.iter().enumerate() {
                let hi = LATENCY_BUCKETS[i];
                if hi == u32::MAX {
                    let _ = write!(out, " >{lo}:{n}");
                } else {
                    let _ = write!(out, " {lo}-{hi}:{n}");
                }
                lo = u64::from(hi);
            }
            let _ = writeln!(out);
        }
        out
    }
}
