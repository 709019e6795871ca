//! The subcommands over whole sets: `run` (every workload, each in a
//! child process), `repeat-check` (two sets must agree) and `compare`
//! (base against new under the bounds in `BENCHMARK.json`).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::measure::{is_host_metric, END_TO_END};
use crate::workloads::Workload;

/// Prefix of the machine-readable repetition-spread line a `--trace 0`
/// invocation prints before its result line.
pub const SPREAD_TAG: &str = "#spread ";

/// The benchmark's own directory: where it was built, or, if the
/// checkout has moved since, `benchmark/` under the current directory.
pub fn benchmark_dir() -> PathBuf {
    let built = Path::new(env!("CARGO_MANIFEST_DIR"));
    if built.is_dir() {
        built.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    }
}

pub fn benchmark_json_path() -> PathBuf {
    benchmark_dir().join("../BENCHMARK.json")
}

/// `(metric, bound)` for each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.arr()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::str);
            let bound = m.get("bound").and_then(Value::num);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: a metric lacks name or bound".to_string())
        })
        .collect()
}

/// Run this binary on one workload; returns the parsed result line and
/// the spread line, if any. The child's report is echoed.
fn invoke(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: u8,
) -> Result<(Value, Option<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .env(crate::MALLOC_PIN.0, crate::MALLOC_PIN.1)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{} (trace {trace}) exited with {}",
            w.name(),
            out.status
        ));
    }
    let last = text.lines().last().ok_or("the run printed nothing")?;
    let spread = text
        .lines()
        .find_map(|l| l.strip_prefix(SPREAD_TAG))
        .map(json::parse)
        .transpose()?;
    Ok((json::parse(last)?, spread))
}

/// Every workload once: the end-to-end run, then the traced run, each
/// in its own child so `host_peak_rss_mb` is that workload's alone.
pub fn run_set(seed: u64, seconds: u64) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let (e2e, spread) = invoke(w, seed, seconds, 0)?;
        let (layers, _) = invoke(w, seed, seconds, 1)?;
        let attempted = e2e.get("attempted").and_then(Value::num).unwrap_or(0.0);
        let failed = e2e.get("failed").and_then(Value::num).unwrap_or(0.0);
        workloads.push((
            w.name().to_string(),
            Value::obj(vec![
                (
                    "correct",
                    e2e.get("correct").cloned().unwrap_or(Value::Bool(false)),
                ),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("fail_share", Value::Num(failed / attempted.max(1.0))),
                (
                    "end_to_end",
                    e2e.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("spread", spread.unwrap_or(Value::Obj(Vec::new()))),
                (
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }
    Ok(Value::obj(vec![
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("workloads", Value::Obj(workloads)),
    ]))
}

pub fn run(seed: u64, seconds: u64, out: &Path) -> Result<(), String> {
    let set = run_set(seed, seconds)?;
    std::fs::write(out, format!("{set}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// `set.workloads.<workload>.<key>`.
fn entry<'a>(set: &'a Value, workload: &str, key: &str) -> Option<&'a Value> {
    set.get("workloads")?.get(workload)?.get(key)
}

fn metric(set: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    entry(set, workload, group)?.get(name)?.get("value")?.num()
}

fn metric_names(set: &Value, workload: &str, group: &str) -> Vec<String> {
    entry(set, workload, group).map_or(Vec::new(), |g| {
        g.entries().iter().map(|(k, _)| k.clone()).collect()
    })
}

/// Run the full set twice. Guest times and counts must be identical;
/// each host-timed end-to-end metric must agree within its bound.
pub fn repeat_check(seed: u64, seconds: u64) -> Result<(), String> {
    let bounds = bounds()?;
    let a = run_set(seed, seconds)?;
    let b = run_set(seed, seconds)?;
    let mut bad = Vec::new();
    println!("\nrepeat-check: two sets of runs, seed {seed}");
    println!(
        "{:<14} {:<38} {:>16} {:>16} {:>9}",
        "workload", "metric", "first", "second", "spread"
    );
    for w in Workload::ALL {
        for group in ["end_to_end", "per_layer"] {
            for name in metric_names(&a, w.name(), group) {
                let (x, y) = (
                    metric(&a, w.name(), group, &name),
                    metric(&b, w.name(), group, &name),
                );
                let (Some(x), Some(y)) = (x, y) else {
                    bad.push(format!("{} {name}: missing from one set", w.name()));
                    continue;
                };
                let spread = if x == y {
                    0.0
                } else {
                    (x - y).abs() / x.abs().min(y.abs())
                };
                println!(
                    "{:<14} {:<38} {:>16.6} {:>16.6} {:>8.3}%",
                    w.name(),
                    name,
                    x,
                    y,
                    spread * 100.0
                );
                if !is_host_metric(&name) {
                    if x != y {
                        bad.push(format!(
                            "{} {name}: {x} then {y}, must be identical",
                            w.name()
                        ));
                    }
                } else if let Some((_, bound)) = bounds.iter().find(|(n, _)| *n == name) {
                    if spread > *bound {
                        bad.push(format!(
                            "{} {name}: {x} then {y}, apart by {:.2} % (bound {:.1} %)",
                            w.name(),
                            spread * 100.0,
                            bound * 100.0
                        ));
                    }
                }
            }
        }
    }
    if bad.is_empty() {
        println!("repeat-check passed");
        Ok(())
    } else {
        Err(format!("repeat-check failed:\n  {}", bad.join("\n  ")))
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `improved`, `unchanged`, `unresolved` or `regressed` for a
/// lower-is-better metric: `worse` is the share by which new exceeds
/// base, `spread` the widest repetition spread either file recorded.
fn verdict(worse: f64, bound: f64, spread: f64) -> &'static str {
    if worse > bound {
        "regressed"
    } else if spread > bound {
        "unresolved"
    } else if worse < 0.0 && -worse > spread {
        "improved"
    } else {
        "unchanged"
    }
}

pub fn compare(base: &Path, new: &Path) -> Result<(), String> {
    let bounds = bounds()?;
    let (a, b) = (load(base)?, load(new)?);
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        for (name, _, _, _) in END_TO_END {
            let (Some(x), Some(y)) = (
                metric(&a, w.name(), "end_to_end", name),
                metric(&b, w.name(), "end_to_end", name),
            ) else {
                println!("{:<14} {:<18} missing from one file", w.name(), name);
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, b)| *b);
            let spread_of = |set: &Value| {
                entry(set, w.name(), "spread")
                    .and_then(|v| v.get(name))
                    .and_then(Value::num)
                    .unwrap_or(0.0)
            };
            let v = verdict((y - x) / x, bound, spread_of(&a).max(spread_of(&b)));
            regressed |= v == "regressed";
            println!(
                "{:<14} {:<18} {:>16.6} {:>16.6} {:>8.4}  {v}",
                w.name(),
                name,
                x,
                y,
                y / x
            );
        }
        let share = |set: &Value| entry(set, w.name(), "fail_share").and_then(Value::num);
        if let (Some(x), Some(y)) = (share(&a), share(&b)) {
            let v = if y > x { "regressed" } else { "unchanged" };
            regressed |= y > x;
            println!(
                "{:<14} {:<18} {:>16.6} {:>16.6} {:>8}  {v}",
                w.name(),
                "fail_share",
                x,
                y,
                "-"
            );
        }
    }
    println!("\nper-layer deltas (base, new, new/base):");
    for w in Workload::ALL {
        for name in metric_names(&a, w.name(), "per_layer") {
            let (Some(x), Some(y)) = (
                metric(&a, w.name(), "per_layer", &name),
                metric(&b, w.name(), "per_layer", &name),
            ) else {
                continue;
            };
            if x != y {
                let ratio = if x == 0.0 { f64::INFINITY } else { y / x };
                println!(
                    "{:<14} {:<38} {:>16.6} {:>16.6} {:>8.4}",
                    w.name(),
                    name,
                    x,
                    y,
                    ratio
                );
            }
        }
    }
    if regressed {
        Err("compare: at least one end-to-end metric regressed".to_string())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::PER_LAYER;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.2, 0.1, 0.0), "regressed");
        assert_eq!(verdict(0.05, 0.1, 0.2), "unresolved");
        assert_eq!(verdict(-0.05, 0.1, 0.02), "improved");
        assert_eq!(verdict(-0.01, 0.1, 0.02), "unchanged");
        assert_eq!(verdict(0.05, 0.1, 0.02), "unchanged");
    }

    #[test]
    fn host_metrics_are_told_from_guest_metrics() {
        assert!(is_host_metric("host_ns_per_op"));
        assert!(is_host_metric("setup_s"));
        assert!(is_host_metric("blocks.spsc_put_get_ns"));
        assert!(!is_host_metric("guest_us_per_op"));
        assert!(!is_host_metric("core.ctx_switches_per_op"));
    }

    /// `BENCHMARK.json` and the tables the runner prints from agree.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let text = std::fs::read_to_string(benchmark_json_path()).unwrap();
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Value::str).unwrap_or("").to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let own = |defs: &[crate::measure::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(bounds().unwrap().len(), END_TO_END.len());
    }
}
