//! Run the paper's benchmark binaries on both kernels — the Table 1
//! methodology in miniature: each program runs `n` and `2n` iterations on
//! the SUNOS-like baseline and on Synthesis, and the difference is one
//! iteration's steady-state cost.
//!
//! ```text
//! cargo run --release --example unix_comparison
//! ```

use synthesis_bench::table1;

fn main() {
    println!("same binaries, two kernels (virtual time, 16 MHz + 1 ws)\n");
    println!(
        "{:<28} {:>14} {:>14} {:>8}",
        "program (per iteration)", "SUNOS-like", "Synthesis", "speedup"
    );
    for p in table1::programs() {
        let (sun, syn) = p.per_iteration_us(p.n);
        println!(
            "{:<28} {:>11.1} µs {:>11.1} µs {:>7.1}x",
            p.name,
            sun,
            syn,
            sun / syn
        );
    }
    println!("\n(the full sweep with paper-side-by-side output: `cargo run -p synthesis-bench --bin tables`)");
}
