//! # synthesis-bench — the measurement harness
//!
//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Section 6). The `tables` binary prints them side by side
//! with the paper's numbers. Host wall-clock — the lock-free building
//! blocks included — is the benchmark package's to measure
//! (`benchmark/`, `BENCHMARK.json`).
//!
//! Methodology notes live in EXPERIMENTS.md. Simulated times are virtual
//! microseconds in SUN 3/160 emulation mode (16 MHz + 1 wait state),
//! produced by the same instruction-and-memory-reference counting the
//! paper used (Section 6.3).

#![warn(missing_docs)]

pub mod capacity;
pub mod path;
pub mod profile;
pub mod smp;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use synthesis_core::kernel::{Kernel, KernelConfig};

/// The measurement configuration: [`KernelConfig::default`] with a 50 ms
/// CPU quantum. The quantum is the one value that must differ between
/// measuring and soaking — soaks need preemption to interleave threads,
/// while single-call timings must not contain a context switch (the
/// paper timed single calls on a trace, with no switches inside).
/// Everything else — templates, cache budget, the fusion rule — is the
/// kernel every test boots.
#[must_use]
pub fn measurement_config() -> KernelConfig {
    KernelConfig {
        default_quantum_us: 50_000,
        ..KernelConfig::default()
    }
}

/// Boot a kernel with the measurement configuration.
#[must_use]
pub fn boot_kernel() -> Kernel {
    Kernel::boot(measurement_config()).expect("kernel boots")
}

/// One row of a paper-vs-measured report.
#[derive(Debug, Clone)]
pub struct Row {
    /// What the row measures.
    pub what: String,
    /// The paper's value (µs unless the table says otherwise).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Row {
    /// Build a row.
    #[must_use]
    pub fn new(
        what: impl Into<String>,
        paper: Option<f64>,
        measured: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            what: what.into(),
            paper,
            measured,
            unit,
        }
    }
}

/// Render rows as an aligned text table.
#[must_use]
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n=== {title} ===\n"));
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>8}\n",
        "operation", "paper", "measured", "ratio"
    ));
    for r in rows {
        let paper = r.paper.map_or("-".to_string(), |p| format!("{p:.1}"));
        let ratio = r
            .paper
            .map_or("-".to_string(), |p| format!("{:.2}", r.measured / p));
        out.push_str(&format!(
            "{:<44} {:>10} {:>9.1} {} {:>6}\n",
            r.what, paper, r.measured, r.unit, ratio
        ));
    }
    out
}
