//! Regenerate every table of the paper's evaluation section; `tables
//! --help` lists the modes ([`HELP`]). A run makes one report: an unknown
//! flag, a flag missing its value, a repeated flag or a flag the selected
//! mode does not read ([`MODES`]) is an error — never a silent
//! fall-through to the default report.
//!
//! `--cpus N` alone runs the SMP scaling report; with `--trace-report` /
//! `--recovery-report` it runs that report on an N-CPU kernel.

use synthesis_bench::{
    capacity, profile, render, smp, table1, table2, table3, table4, table5, Row,
};
use synthesis_core::templates::copy;

use std::ops::RangeInclusive;
use std::str::FromStr;

/// The one-line synopsis, printed with every argument error.
const USAGE: &str = "usage: tables [--table 1-5 | --json FILE | --kernel-size [--json FILE] \
| --cpus 1-8 [--json FILE] | --trace-report [--cpus 1-8] [--json FILE] \
| --recovery-report [--cpus 1-8] [--seed N] [--json FILE] \
| --capacity [--threads N] [--json FILE] | --help]";

/// What `--help` prints under the synopsis.
const HELP: &str = "  tables                      all tables
  tables --table 3            one table
  tables --kernel-size [--json SIZE.json]
                              the Section 6.4 size figures + kept plans
  tables --json BENCH_9.json  tables 1-5 + cache figures, as JSON
  tables --trace-report [--json BENCH_5.json]
                              profiler: per-thread events, gauges + quanta
  tables --cpus 4 [--json BENCH_6.json]
                              SMP scaling table at 1, 2, and 4 CPUs
  tables --recovery-report --cpus 4 --seed 7 [--json RECOVERY.json]
                              chaos-soak scoreboard
  tables --capacity [--threads 2000] [--json BENCH_8.json]
                              10k-thread capacity soak";

/// Every flag `tables` accepts, with the number of values it takes.
const FLAGS: &[(&str, usize)] = &[
    ("--table", 1),
    ("--kernel-size", 0),
    ("--json", 1),
    ("--cpus", 1),
    ("--trace-report", 0),
    ("--recovery-report", 0),
    ("--seed", 1),
    ("--capacity", 0),
    ("--threads", 1),
    ("--help", 0),
];

/// One mode per run: the flag that selects each mode and the other flags
/// that mode reads. The first mode whose flag is present wins; `""` is
/// the default report (Tables 1–5, or their JSON). `--cpus` alone selects
/// the SMP scaling report.
const MODES: &[(&str, &[&str])] = &[
    ("--help", &[]),
    ("--kernel-size", &["--json"]),
    ("--trace-report", &["--cpus", "--json"]),
    ("--recovery-report", &["--cpus", "--seed", "--json"]),
    ("--capacity", &["--threads", "--json"]),
    ("--cpus", &["--json"]),
    ("--table", &[]),
    ("", &["--json"]),
];

/// Refuse the command line: the reason and the usage line on stderr,
/// exit status 2, before any report runs.
fn refuse(reason: &str) -> ! {
    eprintln!("error: {reason}\n{USAGE}");
    std::process::exit(2);
}

/// A checked command line: its mode and each flag given, with its value
/// (empty for a flag that takes none).
struct Args {
    mode: &'static str,
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// The front door: every argument is a known flag followed by its
    /// values, no flag is repeated, and every flag is one the selected
    /// mode reads — never a silently ignored flag.
    fn parse(args: &[String]) -> Args {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut i = 1;
        while i < args.len() {
            let Some(&(flag, values)) = FLAGS.iter().find(|(f, _)| *f == args[i]) else {
                refuse(&format!("unknown argument {:?}", args[i]));
            };
            if args.len() - i - 1 < values {
                refuse(&format!("{flag} takes {values} value(s)"));
            }
            if given.iter().any(|(f, _)| *f == flag) {
                refuse(&format!("{flag} given twice"));
            }
            given.push((flag, args[i + 1..=i + values].concat()));
            i += 1 + values;
        }
        let &(mode, reads) = MODES
            .iter()
            .find(|(m, _)| m.is_empty() || given.iter().any(|(f, _)| f == m))
            .expect("the default mode matches every command line");
        if let Some((flag, _)) = given.iter().find(|(f, _)| *f != mode && !reads.contains(f)) {
            let mode = if mode.is_empty() {
                "the default report"
            } else {
                mode
            };
            refuse(&format!("{flag} does not apply to {mode}"));
        }
        Args { mode, given }
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` as a number in `range` (named `what` in the
    /// refusal), or `None` when the flag is absent.
    fn number<T>(&self, flag: &str, what: &str, range: RangeInclusive<T>) -> Option<T>
    where
        T: FromStr + PartialOrd,
    {
        let s = self.get(flag)?;
        match s.parse() {
            Ok(n) if range.contains(&n) => Some(n),
            _ => refuse(&format!("{flag} takes {what}, got {s:?}")),
        }
    }
}

/// Write a report file, or exit 1 if it cannot be written.
fn write(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Minimal JSON string escaping (the row labels are plain ASCII, but be
/// safe about quotes and backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_rows(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            let paper = r.paper.map_or("null".to_string(), |p| format!("{p}"));
            format!(
                "    {{\"what\": {}, \"paper\": {}, \"measured\": {:.3}, \"unit\": {}}}",
                json_str(&r.what),
                paper,
                r.measured,
                json_str(r.unit)
            )
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// Emit Tables 1–5 plus the specialization-cache figures as JSON.
fn emit_json(path: &str) {
    eprintln!("[json: running tables 1-5 and the cache benchmark...]");
    let t1 = table1::run();
    let (t2, cache) = table2::run();
    let t3 = table3::run();
    let t4 = table4::run();
    let t5 = table5::run();
    let json = format!(
        "{{\n  \"machine\": \"16 MHz + 1 wait state (SUN 3/160 emulation mode)\",\n  \
         \"table1\": {},\n  \
         \"table2\": {},\n  \
         \"table3\": {},\n  \
         \"table4\": {},\n  \
         \"table5\": {},\n  \
         \"cache\": {{\n    \
         \"cold_open_us\": {:.3},\n    \
         \"warm_open_us\": {:.3},\n    \
         \"hits\": {},\n    \
         \"misses\": {},\n    \
         \"hit_rate\": {:.4},\n    \
         \"shared_bytes\": {}\n  }}\n}}\n",
        json_rows(&t1),
        json_rows(&t2),
        json_rows(&t3),
        json_rows(&t4),
        json_rows(&t5),
        cache.cold_us,
        cache.warm_us,
        cache.hits,
        cache.misses,
        cache.hit_rate,
        cache.shared_bytes
    );
    write(path, &json);
}

/// Emit the SMP scaling table plus the cross-CPU cache figures as JSON
/// (the BENCH_6 shape).
fn emit_smp_json(path: &str, points: &[smp::ScalingPoint], cache: &smp::CacheSmp) {
    let base = points.first().expect("the scaling table starts at 1 CPU");
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let per_cpu: Vec<String> = p
                .per_cpu
                .iter()
                .map(|c| {
                    format!(
                        "        {{\"cpu\": {}, \"steals\": {}, \"offloads\": {}, \
                         \"busy_cycles\": {}, \"idle_cycles\": {}}}",
                        c.cpu, c.steals, c.offloads, c.busy_cycles, c.idle_cycles
                    )
                })
                .collect();
            format!(
                "    {{\"cpus\": {}, \"elapsed_ms\": {:.3},\n      \
                 \"spins\": {}, \"spins_per_ms\": {:.3}, \"spin_speedup\": {:.3},\n      \
                 \"writes\": {}, \"writes_per_ms\": {:.3}, \"write_speedup\": {:.3},\n      \
                 \"per_cpu\": [\n{}\n      ]}}",
                p.cpus,
                p.elapsed_ms,
                p.spins.ops,
                p.spins.per_ms,
                p.spins.speedup(&base.spins),
                p.writes.ops,
                p.writes.per_ms,
                p.writes.speedup(&base.writes),
                per_cpu.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"machine\": \"16 MHz + 1 wait state (SUN 3/160 emulation mode)\",\n  \
         \"workload\": \"{} counter spinners + {} /dev/null writers, {} cycles per point\",\n  \
         \"scaling\": [\n{}\n  ],\n  \
         \"cache_smp\": {{\n    \
         \"cold_open_us\": {:.3},\n    \
         \"warm_local_us\": {:.3},\n    \
         \"warm_cross_us\": {:.3},\n    \
         \"hits_local\": {},\n    \
         \"hits_cross\": {},\n    \
         \"bytes_shared_cross\": {},\n    \
         \"shared_tier_bytes\": {}\n  }}\n}}\n",
        smp::SPINNERS,
        smp::WRITERS,
        smp::RUN_CYCLES,
        rows.join(",\n"),
        cache.cold_open_us,
        cache.warm_local_us,
        cache.warm_cross_us,
        cache.hits_local,
        cache.hits_cross,
        cache.bytes_shared_cross,
        cache.shared_tier_bytes
    );
    write(path, &json);
}

/// Serialize the profiler's result (the per-thread event table, gauges
/// and scheduler outcomes) as JSON.
fn trace_report_json(p: &profile::ProfileResult) -> String {
    let profiled: std::collections::HashMap<u32, &profile::ProfiledThread> =
        p.threads.iter().map(|t| (t.tid, t)).collect();
    let rows: Vec<String> = p
        .report
        .threads
        .iter()
        .map(|t| {
            let (role, gauge, rate, q) = profiled
                .get(&t.tid)
                .map_or(("kernel/idle", 0, 0.0, 0), |p| {
                    (p.role, p.gauge, p.gauge_per_ms, p.quantum_us)
                });
            let latency: Vec<String> = t.latency.iter().map(u64::to_string).collect();
            format!(
                "    {{\"tid\": {}, \"role\": {}, \"ctx_switches\": {}, \"syscalls\": {}, \
                 \"irqs\": {}, \"queue_puts\": {}, \"queue_gets\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"recoveries\": {}, \"gauge\": {}, \
                 \"gauge_per_ms\": {:.3}, \"quantum_us\": {}, \"latency\": [{}]}}",
                t.tid,
                json_str(role),
                t.ctx_switches,
                t.syscalls,
                t.irqs,
                t.queue_puts,
                t.queue_gets,
                t.cache_hits,
                t.cache_misses,
                t.recoveries,
                gauge,
                rate,
                q,
                latency.join(", ")
            )
        })
        .collect();
    // Only multiprocessor reports carry per-CPU rows; on one CPU the
    // key is omitted entirely so the JSON is byte-identical to the
    // uniprocessor binary's.
    let cpus_section = if p.report.cpus.is_empty() {
        String::new()
    } else {
        let rows: Vec<String> = p
            .report
            .cpus
            .iter()
            .map(|c| {
                format!(
                    "    {{\"cpu\": {}, \"utilization\": {:.4}, \"steals\": {}, \
                     \"offloads\": {}, \"busy_cycles\": {}, \"idle_cycles\": {}}}",
                    c.cpu, c.utilization, c.steals, c.offloads, c.busy_cycles, c.idle_cycles
                )
            })
            .collect();
        format!("  \"cpus\": [\n{}\n  ],\n", rows.join(",\n"))
    };
    format!(
        "{{\n  \"machine\": \"16 MHz + 1 wait state (SUN 3/160 emulation mode)\",\n  \
         \"window_start\": {},\n  \"window_end\": {},\n  \"records\": {},\n  \
         \"dropped\": {},\n  \"adapt_passes\": {},\n  \"quantum_changes\": {},\n  \
         \"latency_buckets\": {:?},\n{}  \"threads\": [\n{}\n  ]\n}}\n",
        p.report.window_start,
        p.report.window_end,
        p.report.records,
        p.report.dropped,
        p.passes,
        p.adjustments,
        synthesis_core::monitor::LATENCY_BUCKETS,
        cpus_section,
        rows.join(",\n")
    )
}

/// Serialize the capacity soak (the BENCH_8 shape).
fn capacity_json(r: &capacity::CapacityReport) -> String {
    let scale: Vec<String> = r
        .scale
        .iter()
        .map(|p| {
            format!(
                "    {{\"cpus\": {}, \"threads\": {}, \"channels_open\": {}, \
                 \"spawn_p50_us\": {:.3}, \"spawn_p90_us\": {:.3}, \"spawn_p99_us\": {:.3}, \
                 \"spawn_max_us\": {:.3}, \"spin_ops\": {}, \"elapsed_ms\": {:.3}, \
                 \"ops_per_ms\": {:.3}, \"signals_sent\": {}, \"signals_delivered\": {}, \
                 \"dispatch_median_cycles\": {}, \"dispatch_max_cycles\": {}, \
                 \"dispatch_samples\": {}, \"heap_in_use\": {}, \"code_in_use\": {}}}",
                p.cpus,
                p.threads,
                p.channels_open,
                p.spawn.p50,
                p.spawn.p90,
                p.spawn.p99,
                p.spawn.max,
                p.spin_ops,
                p.elapsed_ms,
                p.ops_per_ms,
                p.signals_sent,
                p.signals_delivered,
                p.dispatch.median_cycles,
                p.dispatch.max_cycles,
                p.dispatch.samples,
                p.heap_in_use,
                p.code_in_use
            )
        })
        .collect();
    let baselines: Vec<String> = r
        .baselines
        .iter()
        .map(|b| {
            format!(
                "    {{\"cpus\": {}, \"threads\": {}, \"samples\": {}, \
                 \"median_cycles\": {}, \"max_cycles\": {}}}",
                b.cpus, b.threads, b.samples, b.median_cycles, b.max_cycles
            )
        })
        .collect();
    let curve: Vec<String> = r
        .curve
        .iter()
        .map(|c| {
            format!(
                "    {{\"budget\": {}, \"cycles\": {}, \"hits\": {}, \"misses\": {}, \
                 \"hit_rate\": {:.4}, \"resident_bytes\": {}, \"warm_bytes\": {}}}",
                c.budget, c.cycles, c.hits, c.misses, c.hit_rate, c.resident_bytes, c.warm_bytes
            )
        })
        .collect();
    let l = &r.lifecycle;
    format!(
        "{{\n  \"machine\": \"16 MHz + 1 wait state (SUN 3/160 emulation mode)\",\n  \
         \"threads\": {},\n  \"open_close_cycles\": {},\n  \
         \"scale\": [\n{}\n  ],\n  \
         \"dispatch_baselines\": [\n{}\n  ],\n  \
         \"eviction_curve\": [\n{}\n  ],\n  \
         \"lifecycle\": {{\"cycles\": {}, \"heap_before\": {}, \"heap_after\": {}, \
         \"code_before\": {}, \"code_after\": {}, \"heap_high_water\": {}, \
         \"heap_fragments\": {}, \"heap_largest_free\": {}}}\n}}\n",
        r.scale.first().map_or(0, |p| p.threads),
        r.open_close_cycles,
        scale.join(",\n"),
        baselines.join(",\n"),
        curve.join(",\n"),
        l.cycles,
        l.heap_before,
        l.heap_after,
        l.code_before,
        l.code_after,
        l.heap_high_water,
        l.heap_fragments,
        l.heap_largest_free
    )
}

fn kernel_size() -> (Vec<Row>, synthesis_core::monitor::SizeReport) {
    // Section 6.4: the whole kernel assembles to 64 KB; with 3 processes
    // running the resident kernel is 32 KB, growing with threads and
    // open files.
    let mut k = synthesis_bench::boot_kernel();
    let boot_report = synthesis_core::monitor::size_report(&k);
    let boot_code = boot_report.code_resident as f64 / 1024.0;

    // Three threads, like the paper's "3 processes running" figure.
    let map = quamachine::mem::AddressMap::single(
        1,
        synthesis_core::layout::USER_BASE,
        synthesis_core::layout::USER_LEN,
    );
    let mut a = quamachine::asm::Asm::new("spin");
    let top = a.here();
    a.bcc(quamachine::isa::Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let mut tids = Vec::new();
    for i in 0..3 {
        let tid = k
            .create_thread(
                entry,
                synthesis_core::layout::USER_BASE + 0x1000 + i * 0x800,
                map.clone(),
            )
            .unwrap();
        tids.push(tid);
    }
    let three = synthesis_core::monitor::size_report(&k);

    // Open ten files on the first thread: space grows with open files.
    for i in 0..10 {
        let name = format!("/f{i}");
        k.fs.create(&mut k.m, &mut k.heap, &name, 4096).unwrap();
        k.open_for(tids[0], &name).unwrap();
    }
    let ten_files = synthesis_core::monitor::size_report(&k);
    // Loaded by boot, not synthesized: counted in every code row.
    let copy_routines: u32 = [copy::Dir::Write, copy::Dir::Read]
        .map(|dir| copy::copy_routine(dir).size_bytes())
        .iter()
        .sum();

    let rows = vec![
        Row::new(
            "static kernel code at boot [KB]",
            Some(32.0),
            boot_code,
            "KB",
        ),
        Row::new(
            "  of which the two copy routines [KB]",
            None,
            f64::from(copy_routines) / 1024.0,
            "KB",
        ),
        Row::new(
            "code with 3 threads [KB]",
            None,
            three.code_resident as f64 / 1024.0,
            "KB",
        ),
        Row::new(
            "code with 3 threads + 10 open files [KB]",
            None,
            ten_files.code_resident as f64 / 1024.0,
            "KB",
        ),
        Row::new(
            "kernel heap with 3 threads [KB]",
            None,
            f64::from(three.heap_in_use) / 1024.0,
            "KB",
        ),
        Row::new(
            "code blocks resident (2 copy routines)",
            None,
            ten_files.code_blocks as f64,
            "blocks",
        ),
    ];
    (rows, ten_files)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let a = Args::parse(&args);
    let only: Option<u32> = a.number("--table", "a number 1-5", 1..=5);
    let cpus: usize = a.number("--cpus", "a number 1-8", 1..=8).unwrap_or(1);
    let seed: u64 = a.number("--seed", "a number", 0..=u64::MAX).unwrap_or(42);
    let threads: usize = a
        .number("--threads", "a positive number", 1..=usize::MAX)
        .unwrap_or_else(capacity::default_threads);
    let json = a.get("--json");

    match a.mode {
        "--help" => println!("{USAGE}\n{HELP}"),
        "--capacity" => {
            eprintln!(
                "[capacity: {threads} threads on 1 and 4 CPUs, eviction curve, lifecycle churn...]"
            );
            let report = capacity::run_capacity(
                threads,
                capacity::default_churn_per_point(),
                capacity::default_lifecycle(),
            );
            match json {
                Some(path) => write(path, &capacity_json(&report)),
                None => print!("{}", capacity::render(&report)),
            }
        }
        "--recovery-report" => {
            eprintln!("[recovery report: chaos workload on {cpus} CPU(s), seed {seed}...]");
            let k = smp::chaos_run(cpus, seed);
            let report = synthesis_core::monitor::recovery_report(&k);
            match json {
                Some(path) => write(path, &report.to_json()),
                None => print!("{}", report.render()),
            }
        }
        "--trace-report" => {
            eprintln!("[trace report: profiling the mixed workload...]");
            let p = if cpus > 1 {
                profile::run_on(cpus, 8, 2_000_000)
            } else {
                profile::run(8, 2_000_000)
            };
            match json {
                Some(path) => write(path, &trace_report_json(&p)),
                None => print!("{}", p.render()),
            }
        }
        "--cpus" => {
            eprintln!(
                "[smp: running the mixed workload at {:?} CPUs...]",
                smp::points_for(cpus)
            );
            let points = smp::scaling(cpus);
            let cache = smp::cache_smp();
            if let Some(path) = json {
                emit_smp_json(path, &points, &cache);
            } else {
                println!("Synthesis kernel reproduction — SMP scaling");
                println!("machine: 16 MHz + 1 wait state (SUN 3/160 emulation mode)");
                print!("{}", smp::render(&points));
                println!(
                    "cache: cold {:.1} µs, warm local {:.1} µs, warm cross-CPU {:.1} µs \
                     ({} local / {} cross hits, {} B shared tier)",
                    cache.cold_open_us,
                    cache.warm_local_us,
                    cache.warm_cross_us,
                    cache.hits_local,
                    cache.hits_cross,
                    cache.shared_tier_bytes
                );
            }
        }
        "--kernel-size" => {
            let (rows, report) = kernel_size();
            if let Some(path) = json {
                write(path, &report.to_json());
            } else {
                println!("Synthesis kernel reproduction — paper (SOSP '89) vs measured");
                println!("machine: 16 MHz + 1 wait state (SUN 3/160 emulation mode)");
                print!("{}", render("Kernel size (Section 6.4)", &rows));
                print!("\n{}", report.render());
            }
        }
        _ => match json {
            Some(path) => emit_json(path),
            None => print_tables(only),
        },
    }
}

/// The default report: Tables 1–5 (or the one `--table` names) and, for
/// the full report, the kernel size.
fn print_tables(only: Option<u32>) {
    println!("Synthesis kernel reproduction — paper (SOSP '89) vs measured");
    println!("machine: 16 MHz + 1 wait state (SUN 3/160 emulation mode)");
    if only.is_none() || only == Some(1) {
        println!("\n[table 1: running the seven programs on both kernels, n and 2n iterations...]");
        print!(
            "{}",
            render(
                "Table 1: measured UNIX system calls (speedup, SUNOS-like / Synthesis)",
                &table1::run()
            )
        );
    }
    if only.is_none() || only == Some(2) {
        println!("\n[table 2: single-call file and device I/O...]");
        print!(
            "{}",
            render("Table 2: file and device I/O (µs)", &table2::run().0)
        );
    }
    if only.is_none() || only == Some(3) {
        print!(
            "{}",
            render("Table 3: thread operations (µs)", &table3::run())
        );
    }
    if only.is_none() || only == Some(4) {
        print!(
            "{}",
            render("Table 4: dispatcher/scheduler (µs)", &table4::run())
        );
    }
    if only.is_none() || only == Some(5) {
        print!(
            "{}",
            render("Table 5: interrupt handling (µs)", &table5::run())
        );
    }
    if only.is_none() {
        print!("{}", render("Kernel size (Section 6.4)", &kernel_size().0));
    }
}
