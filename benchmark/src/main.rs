//! The one benchmark of the Synthesis reproduction.
//!
//! ```text
//! synthesis-benchmark --workload W --seed S --seconds T --trace 0|1
//! synthesis-benchmark run [--seed S] [--seconds T] --out FILE
//! synthesis-benchmark repeat-check [--seed S] [--seconds T]
//! synthesis-benchmark compare BASE.json NEW.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics, and the
//! public surface of the layers this runner calls.

mod harness;
mod json;
mod measure;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use measure::Outcome;
use workloads::Workload;

const USAGE: &str = "usage:
  synthesis-benchmark --workload W --seed S --seconds T --trace 0|1
  synthesis-benchmark run [--seed S] [--seconds T] --out FILE
  synthesis-benchmark repeat-check [--seed S] [--seconds T]
  synthesis-benchmark compare BASE.json NEW.json
workloads: compute pipe_small pipe_bulk pipe_pingpong open_churn thread_churn smp_mix";

/// `--seconds` when a subcommand is not told: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: u8,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: 0,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                f.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?;
            }
            "--trace" => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--out" => f.out = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

/// Print the report of one invocation; the result line comes last.
fn print_outcome(w: Workload, trace: u8, o: &Outcome) {
    println!(
        "== {} ({}) ==",
        w.name(),
        if trace == 1 {
            "traced run"
        } else {
            "end-to-end run"
        }
    );
    for note in &o.notes {
        println!("{note}");
    }
    for (name, value, unit) in &o.metrics {
        println!("{name:<38} {value:>18.6} {unit}");
    }
    for why in &o.failures {
        println!("ORACLE FAILED: {why}");
    }
    if !o.spreads.is_empty() {
        let spread = Value::Obj(
            o.spreads
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Num(*v)))
                .collect(),
        );
        println!("{}{spread}", report::SPREAD_TAG);
    }
    let metrics = Value::Obj(
        o.metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(*value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(o.failed == 0)),
            ("attempted", Value::Num(o.attempted as f64)),
            ("failed", Value::Num(o.failed as f64)),
            ("metrics", metrics),
        ])
    );
}

/// glibc raises its mmap threshold the first time a large block is
/// freed, and from then on `calloc` recycles (and so touches) heap memory
/// for the 2.5 MB guest memories instead of mapping fresh zero pages. Which
/// free comes first varies from process to process, which made peak RSS
/// read 3.3 MB or 8.2 MB for one seed. Pinning the threshold takes that
/// coin toss out of every measured process.
pub const MALLOC_PIN: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// Run this same invocation again in a child with [`MALLOC_PIN`] set and
/// hand on its exit code; `None` when the pin is set already.
fn rerun_with_pinned_malloc(args: &[String]) -> Option<Result<u8, String>> {
    if std::env::var_os(MALLOC_PIN.0).is_some() {
        return None;
    }
    let status = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(args)
                .env(MALLOC_PIN.0, MALLOC_PIN.1)
                .status()
        })
        .map_err(|e| format!("re-running with {} set: {e}", MALLOC_PIN.0));
    Some(status.and_then(|s| {
        s.code()
            .and_then(|c| u8::try_from(c).ok())
            .ok_or_else(|| format!("the measuring process ended with {s}"))
    }))
}

fn one_workload(f: &Flags) -> Result<u8, String> {
    let name = f.workload.as_deref().unwrap_or_default();
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let outcome = if f.trace == 1 {
        let out = report::benchmark_dir()
            .join("out")
            .join(format!("trace-{}.jsonl", w.name()));
        measure::per_layer(w, f.seed, &out)?
    } else {
        measure::end_to_end(w, f.seed, f.seconds as f64)?
    };
    print_outcome(w, f.trace, &outcome);
    Ok(u8::from(outcome.failed != 0))
}

/// 0: done and correct. 1: an oracle failed (the result line says
/// `correct: false`).
fn dispatch(args: &[String]) -> Result<u8, String> {
    let f = parse_flags(args)?;
    match f.positional.first().map(String::as_str) {
        None if f.workload.is_some() => {
            rerun_with_pinned_malloc(args).unwrap_or_else(|| one_workload(&f))
        }
        Some("run") => {
            let out = f.out.as_deref().ok_or("run needs --out FILE")?;
            report::run(f.seed, f.seconds, out).map(|()| 0)
        }
        Some("repeat-check") => report::repeat_check(f.seed, f.seconds).map(|()| 0),
        Some("compare") => match &f.positional[1..] {
            [base, new] => report::compare(Path::new(base), Path::new(new)).map(|()| 0),
            _ => Err("compare needs BASE.json NEW.json".to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("synthesis-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
