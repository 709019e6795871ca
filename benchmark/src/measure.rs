//! One invocation of one workload: the end-to-end run (`--trace 0`) and
//! the traced run (`--trace 1`), and the metric tables both print from.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::{Ctx, Rep};
use crate::probes::{self, Metrics};
use crate::spans::Level;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::workloads::{compute, pipes, smp_mix, Workload};

/// Which clock a metric is read on. A guest time or a count repeats
/// exactly for one seed; a host time does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Guest,
    Host,
}
use Clock::{Guest as GUEST, Host as HOST};

/// `(name, unit, better, clock)`; the first three as `BENCHMARK.json`
/// lists them (a test holds the two together).
pub type MetricDef = (&'static str, &'static str, &'static str, Clock);

/// Whether `name` is timed on the host clock (unknown names count as
/// host-timed: nothing is asserted identical by mistake).
pub fn is_host_metric(name: &str) -> bool {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .is_none_or(|m| m.3 == Clock::Host)
}

/// `fail_share` is printed beside these and carried by the result
/// line's `failed`/`attempted`; it is 0 on a healthy run, so it cannot be
/// a bounded metric.
pub const END_TO_END: [MetricDef; 4] = [
    ("guest_us_per_op", "us", "lower", GUEST),
    ("host_ns_per_op", "ns", "lower", HOST),
    ("setup_s", "s", "lower", HOST),
    ("host_peak_rss_mb", "MB", "lower", HOST),
];

pub const PER_LAYER: [MetricDef; 71] = [
    ("quamachine.instrs_per_op", "count", "lower", GUEST),
    ("quamachine.cycles_per_instr", "cycles", "lower", GUEST),
    ("quamachine.exceptions_per_op", "count", "lower", GUEST),
    ("quamachine.host_ns_per_instr", "ns", "lower", HOST),
    ("quamachine.host_mips", "Minstr/s", "higher", HOST),
    ("quamachine.bare_step_ns_alu", "ns", "lower", HOST),
    ("quamachine.bare_step_ns_mem", "ns", "lower", HOST),
    ("quamachine.bare_step_ns_branch", "ns", "lower", HOST),
    ("quamachine.host_share_est", "ratio", "lower", HOST),
    ("quamachine.asm_assemble_us", "us", "lower", HOST),
    ("codegen.synth_calls_per_op", "count", "lower", GUEST),
    ("codegen.cache_hits", "count", "higher", GUEST),
    ("codegen.cache_misses", "count", "lower", GUEST),
    ("codegen.hit_rate", "ratio", "higher", GUEST),
    (
        "codegen.synth_guest_cycles_per_op",
        "cycles",
        "lower",
        GUEST,
    ),
    ("codegen.bytes_installed_per_op", "B", "lower", GUEST),
    ("codegen.instrs_eliminated", "count", "higher", GUEST),
    ("codegen.synthesize_miss_host_us", "us", "lower", HOST),
    ("codegen.synthesize_hit_host_us", "us", "lower", HOST),
    ("codegen.factor_host_us", "us", "lower", HOST),
    ("codegen.collapse_host_us", "us", "lower", HOST),
    ("codegen.peephole_host_us", "us", "lower", HOST),
    ("codegen.verify_host_us", "us", "lower", HOST),
    ("codegen.destroy_host_us", "us", "lower", HOST),
    ("codegen.resident_bytes", "B", "lower", GUEST),
    ("codegen.warm_bytes", "B", "lower", GUEST),
    ("codegen.code_bytes_in_use", "B", "lower", GUEST),
    ("blocks.spsc_put_get_ns", "ns", "lower", HOST),
    ("blocks.mpsc_put_get_ns", "ns", "lower", HOST),
    ("blocks.spmc_put_get_ns", "ns", "lower", HOST),
    ("blocks.mpmc_put_get_ns", "ns", "lower", HOST),
    ("blocks.pool_offer_steal_ns", "ns", "lower", HOST),
    ("blocks.mpmc_retries", "count", "lower", GUEST),
    ("core.boot_host_ms", "ms", "lower", HOST),
    ("core.create_thread_guest_us", "us", "lower", GUEST),
    ("core.create_thread_host_us", "us", "lower", HOST),
    ("core.start_guest_us", "us", "lower", GUEST),
    ("core.stop_guest_us", "us", "lower", GUEST),
    ("core.signal_guest_us", "us", "lower", GUEST),
    ("core.destroy_guest_us", "us", "lower", GUEST),
    ("core.open_guest_us_p50", "us", "lower", GUEST),
    ("core.open_guest_us_p99", "us", "lower", GUEST),
    ("core.close_guest_us_p50", "us", "lower", GUEST),
    ("core.open_host_us_p50", "us", "lower", HOST),
    ("core.open_host_us_p99", "us", "lower", HOST),
    ("core.run_host_s", "s", "lower", HOST),
    ("core.ctx_switches_per_op", "count", "lower", GUEST),
    ("core.syscalls_per_op", "count", "lower", GUEST),
    ("core.irqs_per_op", "count", "lower", GUEST),
    ("core.queue_puts_per_op", "count", "lower", GUEST),
    ("core.queue_gets_per_op", "count", "lower", GUEST),
    ("core.syscall_cycles_p50", "cycles", "lower", GUEST),
    ("core.syscall_cycles_p99", "cycles", "lower", GUEST),
    ("core.dispatch_cycles_p50", "cycles", "lower", GUEST),
    ("core.steals", "count", "lower", GUEST),
    ("core.offloads", "count", "lower", GUEST),
    ("core.busy_share", "ratio", "higher", GUEST),
    ("core.smp_speedup_vs_1cpu", "ratio", "higher", GUEST),
    ("core.heap_in_use_bytes", "B", "lower", GUEST),
    ("core.heap_high_water_bytes", "B", "lower", GUEST),
    ("core.heap_leak_bytes", "B", "lower", GUEST),
    ("core.trace_records", "count", "lower", GUEST),
    ("core.trace_dropped", "count", "lower", GUEST),
    ("unix.boot_with_program_host_ms", "ms", "lower", HOST),
    ("unix.sunos_guest_us_per_op", "us", "lower", GUEST),
    ("unix.speedup_vs_sunos", "ratio", "higher", GUEST),
    ("unix.paper_ratio", "ratio", "higher", GUEST),
    ("unix.open_close_null_guest_us", "us", "lower", GUEST),
    ("unix.open_close_tty_guest_us", "us", "lower", GUEST),
    ("bench.trace_overhead", "ratio", "lower", HOST),
    ("bench.span_count", "count", "lower", GUEST),
];

/// Fewest repetitions a run reports a median of.
pub const MIN_REPS: usize = 3;

/// What an invocation hands back to `main` for printing.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Human-readable lines beyond the metric table.
    pub notes: Vec<String>,
    /// For each host-timed end-to-end metric, how far apart the same
    /// estimate from the odd and from the even repetitions alone is:
    /// wider than the bound, `compare` calls the metric unresolved.
    pub spreads: Vec<(&'static str, f64)>,
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What must repeat exactly between repetitions of one seed: guest time
/// and every count.
fn guest_signature(r: &Rep) -> (u64, crate::harness::Counters) {
    (r.ops, r.delta)
}

/// `Err` unless `a` and `b` saw the identical guest; `what` says what
/// differed between them.
fn same_guest(w: Workload, what: &str, a: &Rep, b: &Rep) -> Result<(), String> {
    let (a, b) = (guest_signature(a), guest_signature(b));
    if a == b {
        Ok(())
    } else {
        Err(format!("{}: {what}: {a:?} vs {b:?}", w.name()))
    }
}

const REPS_DIFFER: &str = "guest counters differ between repetitions of one seed";

/// The end-to-end run: repetitions of set-up plus timed section, all
/// tracing off, for about `seconds`.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let rep_started = Instant::now();
        reps.push(w.rep(&mut Ctx::new(seed, Level::Off))?);
        if reps.len() == 1 {
            // What one whole repetition needs. Later repetitions only add
            // allocator fragmentation, by a count that depends on how fast
            // the host happens to be.
            rss_mb = peak_rss_mb()?;
        }
        let last = rep_started.elapsed().as_secs_f64();
        // Stop when another repetition would overrun the budget.
        if reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    for other in &reps[1..] {
        same_guest(w, REPS_DIFFER, &reps[0], other)?;
    }
    let host: Vec<f64> = reps
        .iter()
        .map(|r| r.timed_s() * 1e9 / r.ops as f64)
        .collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    // The noise floor of the timed section: slice k does the same guest
    // work in every repetition, so the fastest slice k any repetition saw
    // is the one the host disturbed least. Host noise here is additive
    // bursts lasting longer than a repetition's median can absorb.
    let slices = reps[0].clock.ns.len();
    if reps.iter().any(|r| r.clock.ns.len() != slices) {
        return Err(format!(
            "{}: repetitions cut their timed sections differently",
            w.name()
        ));
    }
    let floor_of = |of: &[&Rep]| -> f64 {
        (0..slices)
            .map(|k| {
                of.iter()
                    .map(|r| r.clock.ns[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let all: Vec<&Rep> = reps.iter().collect();
    let floor_ns = floor_of(&all);
    // How far the estimate can be trusted: the same estimate from the
    // odd and from the even repetitions alone, and how far those are apart.
    let (even, odd): (Vec<&Rep>, Vec<&Rep>) = (
        all.iter().step_by(2).copied().collect(),
        all.iter().skip(1).step_by(2).copied().collect(),
    );
    let apart = |a: f64, b: f64| (a - b).abs() / a.min(b);
    let min_setup = |of: &[&Rep]| of.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min);
    let spreads = vec![
        ("host_ns_per_op", apart(floor_of(&even), floor_of(&odd))),
        ("setup_s", apart(min_setup(&even), min_setup(&odd))),
    ];
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let guest = reps[0].guest_us / reps[0].ops as f64;
    let s = sorted(&host);
    let notes = vec![
        format!(
            "{}: op = {}; {} ops per repetition; seed {seed}",
            w.name(),
            w.op(),
            reps[0].ops
        ),
        format!(
            "host_ns_per_op: noise floor over R = {} repetitions x {slices} slices; whole \
             repetitions: median {:.3} ns, min {:.3} ns, max {:.3} ns",
            reps.len(),
            median(&host),
            s[0],
            s[s.len() - 1]
        ),
        format!(
            "  each repetition, ns per op: {}",
            host.iter()
                .map(|h| format!("{h:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "  each set-up, s: {}",
            setup
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "fail_share {} ({failed} of {attempted} ops)",
            failed as f64 / attempted as f64
        ),
    ];
    Ok(Outcome {
        metrics: vec![
            ("guest_us_per_op", guest, "us"),
            ("host_ns_per_op", floor_ns / reps[0].ops as f64, "ns"),
            ("setup_s", sorted(&setup)[0], "s"),
            ("host_peak_rss_mb", rss_mb, "MB"),
        ],
        attempted,
        failed,
        failures: reps.into_iter().flat_map(|r| r.failures).collect(),
        notes,
        spreads,
    })
}

fn sample_median(r: &Rep, name: &str) -> f64 {
    r.samples.get(name).map_or(0.0, |v| median(v))
}

/// `(p50, tail value, tail percentile, sample count)` of a sample set.
fn sample_tail(v: &[f64]) -> (f64, f64, f64, usize) {
    let s = sorted(v);
    let p = tail_percentile(s.len());
    (percentile(&s, 50.0), percentile(&s, p), p, s.len())
}

/// The SUNOS-like reference for the workloads Table 1 has a row for:
/// `(sunos µs per op, speedup, measured ÷ paper)` plus a note per row.
fn sunos_reference(
    w: Workload,
    seed: u64,
    u: &Rep,
    notes: &mut Vec<String>,
) -> Result<(f64, f64, f64), String> {
    // (name, timed ops, our µs per op, SUNOS µs per op, paper speedup)
    let rows: Vec<(&str, u64, f64, f64, f64)> = match w {
        Workload::Compute => vec![(
            "compute",
            u.ops,
            u.guest_us / u.ops as f64,
            compute::sunos_reference(compute::SUNOS_ITERS)?,
            compute::PAPER_SPEEDUP,
        )],
        Workload::PipeSmall | Workload::PipeBulk => {
            let (name, parts): (_, &[pipes::Part]) = if w == Workload::PipeSmall {
                ("pipe_small", &pipes::SMALL)
            } else {
                ("pipe_bulk", &pipes::BULK)
            };
            let sun = pipes::sunos_reference(seed, name, parts)?;
            parts
                .iter()
                .zip(&u.sections)
                .zip(&sun)
                .map(|((p, sec), sun_us)| {
                    (
                        sec.name,
                        sec.ops,
                        sec.guest_us / sec.ops as f64,
                        sun_us / (p.sunos_iters * pipes::ops_per_iter(p)) as f64,
                        p.paper_speedup,
                    )
                })
                .collect()
        }
        _ => return Ok((0.0, 0.0, 0.0)),
    };
    let ops: f64 = rows.iter().map(|r| r.1 as f64).sum();
    let sun_total: f64 = rows.iter().map(|r| r.3 * r.1 as f64).sum();
    let our_total: f64 = rows.iter().map(|r| r.2 * r.1 as f64).sum();
    // What the paper's per-row speedups predict for this mix of ops.
    let paper_total: f64 = rows.iter().map(|r| r.3 * r.1 as f64 / r.4).sum();
    for (name, _, ours, sun, paper) in &rows {
        let speedup = sun / ours;
        notes.push(format!(
            "  {name}: {ours:.3} us/op here, {sun:.3} us/op on the SUNOS-like baseline: \
             speedup {speedup:.2}x, paper {paper:.1}x, error {:+.1} %",
            (speedup / paper - 1.0) * 100.0
        ));
    }
    let speedup = sun_total / our_total;
    Ok((
        sun_total / ops,
        speedup,
        speedup / (sun_total / paper_total),
    ))
}

/// The traced run: one repetition with kernel tracing, the instruction
/// trace and per-call spans on, one with phase spans only (the untraced
/// reference), and the workload-independent probes.
pub fn per_layer(w: Workload, seed: u64, trace_out: &std::path::Path) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    // The first repetition of a process runs on cold host caches and a
    // cold allocator; it only serves as a third witness of the guest
    // counters.
    let cold = w.rep(&mut Ctx::new(seed, Level::Off))?;
    let mut ct = Ctx::new(seed, Level::Full);
    let t = w.rep(&mut ct)?;
    let mut cu = Ctx::new(seed, Level::Coarse);
    let u = w.rep(&mut cu)?;
    same_guest(w, REPS_DIFFER, &cold, &u)?;
    same_guest(w, "tracing changed the guest (untraced vs traced)", &u, &t)?;

    let mut m: Metrics = BTreeMap::new();
    probes::bare_machine(&mut m)?;
    probes::codegen_stages(&mut m)?;
    probes::blocks(&mut m)?;
    probes::boots(&mut m)?;
    probes::table1_open_close(&mut m)?;

    let ops = u.ops as f64;
    let d = &u.delta;
    let host_ns = u.timed_s() * 1e9;
    let bare = (m["quamachine.bare_step_ns_alu"]
        + m["quamachine.bare_step_ns_mem"]
        + m["quamachine.bare_step_ns_branch"])
        / 3.0;
    let per_instr = |x: f64| {
        if d.instrs == 0 {
            0.0
        } else {
            x / d.instrs as f64
        }
    };
    m.insert("quamachine.instrs_per_op", d.instrs as f64 / ops);
    m.insert("quamachine.cycles_per_instr", per_instr(d.cycles as f64));
    m.insert("quamachine.exceptions_per_op", d.exceptions as f64 / ops);
    m.insert("quamachine.host_ns_per_instr", per_instr(host_ns));
    m.insert("quamachine.host_mips", d.instrs as f64 * 1e3 / host_ns);
    m.insert(
        "quamachine.host_share_est",
        d.instrs as f64 * bare / host_ns,
    );
    m.insert(
        "quamachine.asm_assemble_us",
        cu.tr.duration_of("assemble") as f64 / 1e3,
    );

    let calls = d.synthesized + d.cache_hits;
    m.insert("codegen.synth_calls_per_op", calls as f64 / ops);
    m.insert("codegen.cache_hits", d.cache_hits as f64);
    m.insert("codegen.cache_misses", d.cache_misses as f64);
    let lookups = d.cache_hits + d.cache_misses;
    m.insert(
        "codegen.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            d.cache_hits as f64 / lookups as f64
        },
    );
    m.insert(
        "codegen.synth_guest_cycles_per_op",
        d.synth_cycles as f64 / ops,
    );
    m.insert(
        "codegen.bytes_installed_per_op",
        d.bytes_installed as f64 / ops,
    );
    m.insert("codegen.instrs_eliminated", d.instrs_eliminated as f64);
    m.insert("codegen.resident_bytes", u.end.resident_bytes as f64);
    m.insert("codegen.warm_bytes", u.end.warm_bytes as f64);
    m.insert("codegen.code_bytes_in_use", f64::from(u.end.code_in_use));

    for (metric, sample) in [
        ("core.create_thread_guest_us", "create_thread_guest_us"),
        ("core.create_thread_host_us", "create_thread_host_us"),
        ("core.start_guest_us", "start_guest_us"),
        ("core.stop_guest_us", "stop_guest_us"),
        ("core.signal_guest_us", "signal_guest_us"),
        ("core.destroy_guest_us", "destroy_guest_us"),
    ] {
        m.insert(metric, sample_median(&t, sample));
    }
    for (p50, tail, sample) in [
        (
            "core.open_guest_us_p50",
            "core.open_guest_us_p99",
            "open_guest_us",
        ),
        ("core.close_guest_us_p50", "", "close_guest_us"),
        (
            "core.open_host_us_p50",
            "core.open_host_us_p99",
            "open_host_us",
        ),
    ] {
        let (v50, vt, p, n) = t
            .samples
            .get(sample)
            .map_or((0.0, 0.0, 99.0, 0), |v| sample_tail(v));
        m.insert(p50, v50);
        if !tail.is_empty() {
            m.insert(tail, vt);
        }
        if n > 0 {
            notes.push(format!(
                "  {sample}: p50 {v50:.3}, p{p} {vt:.3} over {n} samples"
            ));
        }
    }

    m.insert("core.run_host_s", u.run_host_s);
    let tr = &t.trace;
    m.insert("core.ctx_switches_per_op", tr.ctx_switches as f64 / ops);
    m.insert("core.syscalls_per_op", tr.syscalls as f64 / ops);
    m.insert("core.irqs_per_op", tr.irqs as f64 / ops);
    m.insert("core.queue_puts_per_op", tr.queue_puts as f64 / ops);
    m.insert("core.queue_gets_per_op", tr.queue_gets as f64 / ops);
    let (s50, st, sp, sn) = sample_tail(&tr.syscall_cycles);
    m.insert("core.syscall_cycles_p50", s50);
    m.insert("core.syscall_cycles_p99", st);
    let (d50, _, _, dn) = sample_tail(&tr.dispatch_cycles);
    m.insert("core.dispatch_cycles_p50", d50);
    notes.push(format!(
        "  syscall cycles: p50 {s50}, p{sp} {st} over {sn} completed syscalls; \
         dispatch cycles: p50 {d50} over {dn} quantum interrupts"
    ));
    m.insert("core.steals", u.end.steals as f64);
    m.insert("core.offloads", u.end.offloads as f64);
    let slice_cycles = u.end.busy_cycles + u.end.idle_cycles;
    m.insert(
        "core.busy_share",
        if slice_cycles == 0 {
            0.0
        } else {
            u.end.busy_cycles as f64 / slice_cycles as f64
        },
    );
    m.insert(
        "core.smp_speedup_vs_1cpu",
        if w == Workload::SmpMix {
            let one = smp_mix::rep_on(&mut Ctx::new(seed, Level::Off), 1)?;
            if one.failed > 0 {
                return Err(format!(
                    "smp_mix at 1 CPU failed its oracle: {:?}",
                    one.failures
                ));
            }
            one.guest_us / u.guest_us
        } else {
            0.0
        },
    );
    m.insert("core.heap_in_use_bytes", f64::from(u.end.heap_in_use));
    m.insert(
        "core.heap_high_water_bytes",
        f64::from(u.end.heap_high_water),
    );
    m.insert("core.heap_leak_bytes", u.end.heap_leak as f64);
    m.insert("core.trace_records", tr.records as f64);
    m.insert("core.trace_dropped", tr.dropped as f64);

    notes.push("reference (same program on the SUNOS-like baseline; the guest model is validated only against the paper's published figures):".to_string());
    let (sun, speedup, paper) = sunos_reference(w, seed, &u, &mut notes)?;
    m.insert("unix.sunos_guest_us_per_op", sun);
    m.insert("unix.speedup_vs_sunos", speedup);
    m.insert("unix.paper_ratio", paper);

    m.insert(
        "bench.trace_overhead",
        (t.timed_s() / t.ops as f64) / (u.timed_s() / ops),
    );
    m.insert(
        "bench.span_count",
        (cu.tr.spans.len() + ct.tr.spans.len()) as f64,
    );

    let mut text = String::new();
    cu.tr.write_jsonl(&mut text, w.name(), "untraced");
    ct.tr.write_jsonl(&mut text, w.name(), "traced");
    // The metrics do not depend on the file: a checkout that cannot be
    // written to still gets its result line.
    let written = trace_out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_out, text));
    notes.push(match written {
        Ok(()) => format!("spans written to {}", trace_out.display()),
        Err(e) => format!("spans NOT written to {}: {e}", trace_out.display()),
    });
    notes.push("self time by span (traced repetition):".to_string());
    for (name, ns, count) in ct.tr.self_time_by_name() {
        notes.push(format!(
            "  {name:<14} {:>12.3} ms over {count} spans",
            ns as f64 / 1e6
        ));
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _, _) in PER_LAYER {
        let v = *m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((name, v, unit));
    }
    let mut failures = cold.failures;
    failures.extend(u.failures);
    failures.extend(t.failures);
    Ok(Outcome {
        metrics,
        attempted: cold.ops + u.ops + t.ops,
        failed: cold.failed + u.failed + t.failed,
        failures,
        notes,
        spreads: Vec::new(),
    })
}
