#!/bin/sh
# The line counts ROADMAP.md tracks and the knob counts CHANGES.md quotes,
# from one place: entries and re-anchors quote this output instead of
# ad-hoc `wc` runs. Counts are of tracked `*.rs` files (`git ls-files`),
# whole lines, in-module tests and comments included — the same thing
# `git diff --stat` moves; "non-test" stops each file at its first
# top-level `#[cfg(test)]`.
#
#   tools/loc.sh            # from the repository root
set -eu
cd "$(dirname "$0")/.."

# Total lines of the tracked Rust files matching the given pathspecs.
lines() {
    git ls-files -z -- "$@" | xargs -0 cat 2>/dev/null | wc -l | tr -d ' '
}

# The text of the same files, each cut at its first top-level `#[cfg(test)]`.
nontest() {
    git ls-files -z -- "$@" |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on'
}

# `pub` fields of struct `$1` in file `$2`.
fields() {
    awk -v head="pub struct $1 {" '$0 == head { on = 1; next } on && /^}/ { exit } on && /^    pub / { n++ } END { print n + 0 }' "$2"
}

# Fields of struct `$1` in file `$2`, private ones included.
all_fields() {
    awk -v head="pub struct $1 {" '$0 == head { on = 1; next } on && /^}/ { exit } on && /^    (pub )?[a-z_][a-z0-9_]*:/ { n++ } END { print n + 0 }' "$2"
}

# Variants of enum `$1` in file `$2`: the body's lines indented once that
# start with a capital.
variants() {
    awk -v head="pub enum $1 {" '$0 == head { on = 1; next } on && /^}/ { exit } on && /^    [A-Z]/ { n++ } END { print n + 0 }' "$2"
}

# `pub const`s of module `$1` in file `$2`: the body's lines indented once
# that start with `pub const`.
consts() {
    awk -v head="pub mod $1 {" '$0 == head { on = 1; next } on && /^}/ { exit } on && /^    pub const / { n++ } END { print n + 0 }' "$2"
}

# `pub fn`s of the inherent `impl $1` block in file `$2`.
pub_fns() {
    awk -v head="impl $1 {" '$0 == head { on = 1; next } on && /^}/ { exit } on && /^    pub fn / { n++ } END { print n + 0 }' "$2"
}

# Entries of the `[features]` tables in the workspace's manifests.
features() {
    git ls-files -z -- Cargo.toml 'crates/*/Cargo.toml' |
        xargs -0 awk '/^\[/ { on = ($0 == "[features]"); next } on && /^[A-Za-z0-9_-]+ *=/ { n++ } END { print n + 0 }'
}

printf '%-34s %7s\n' "crates/*/src" "$(lines 'crates/*/src/*.rs')"
printf '  %-32s %7s\n' "non-test" "$(nontest 'crates/*/src/*.rs' | wc -l | tr -d ' ')"
for c in crates/*/; do
    printf '  %-32s %7s\n' "${c}src" "$(lines "${c}src/*.rs")"
done
printf '%-34s %7s\n' "bench/src + examples/ (non-test)" \
    "$(nontest 'crates/bench/src/*.rs' 'examples/*.rs' | wc -l | tr -d ' ')"
printf '%-34s %7s\n' "crates/core/src/kernel.rs" "$(lines crates/core/src/kernel.rs)"
for f in crates/core/src/kernel/*.rs; do
    printf '  %-32s %7s\n' "$f" "$(lines "$f")"
done
# Every device and I/O module: each has a caller a measured row runs, or goes.
for f in crates/quamachine/src/devices/*.rs crates/core/src/io/*.rs; do
    printf '  %-32s %7s\n' "$f" "$(lines "$f")"
done
# Every host building block: each has a caller outside its own tests, or goes.
for f in crates/blocks/src/*.rs; do
    printf '  %-32s %7s\n' "$f" "$(lines "$f")"
done
printf '  %-32s %7s\n' "crates/blocks/src/sim/" "$(lines 'crates/blocks/src/sim/*.rs')"
printf '%-34s %7s\n' "tests/ + crates/*/tests" "$(lines 'tests/*.rs' 'crates/*/tests/*.rs')"
printf '%-34s %7s\n' "crates/*/benches" "$(lines 'crates/*/benches/*.rs')"
printf '%-34s %7s\n' "benchmark/" "$(lines 'benchmark/*.rs')"
printf '%-34s %7s\n' "vendor/" "$(lines 'vendor/*.rs')"
printf '%-34s %7s\n' "KernelConfig fields" "$(fields KernelConfig crates/core/src/kernel.rs)"
printf '%-34s %7s\n' "SynthesisOptions fields" "$(fields SynthesisOptions crates/codegen/src/creator.rs)"
printf '%-34s %7s\n' "FaultConfig fields" "$(fields FaultConfig crates/quamachine/src/fault.rs)"
printf '%-34s %7s\n' "cargo features" "$(features)"
# What the host keeps per thread and per kernel: a fact has one record.
printf '%-34s %7s\n' "Thread fields" "$(all_fields Thread crates/core/src/thread/tte.rs)"
printf '%-34s %7s\n' "tte::off slots" "$(consts off crates/core/src/thread/tte.rs)"
printf '%-34s %7s\n' "Kernel fields" "$(all_fields Kernel crates/core/src/kernel.rs)"
# What is open is the threads' fd lists: a pipe or file keeps no count of it.
printf '%-34s %7s\n' "Pipe fields" "$(all_fields Pipe crates/core/src/io/pipe.rs)"
printf '%-34s %7s\n' "File fields" "$(all_fields File crates/core/src/fs/mod.rs)"
# Where an interrupt lands: one CPU-explicit form per operation.
printf '%-34s %7s\n' "IrqController pub fns" "$(pub_fns IrqController crates/quamachine/src/irq.rs)"
printf '%-34s %7s\n' "EventQueue pub fns" "$(pub_fns EventQueue crates/quamachine/src/event.rs)"
# The ISA: every form is executed by a measured row or named in the census
# (`crates/bench/tests/census.rs`).
printf '%-34s %7s\n' "Instr variants" "$(variants Instr crates/quamachine/src/isa/instr.rs)"
printf '%-34s %7s\n' "ShiftKind variants" "$(variants ShiftKind crates/quamachine/src/isa/instr.rs)"
# The kernel's own code: every `kcall` selector is executed by a measured
# row or named in the census, as every library template and boot block is.
printf '%-34s %7s\n' "syscall::kcalls selectors" "$(consts kcalls crates/core/src/syscall.rs)"
# Host work still charged by formula instead of executed as guest code:
# each non-test `charges::f(` is one site; the total, then each formula.
sites=$(nontest 'crates/*/src/*.rs' | grep -o 'charges::[a-z_]*(' | sed 's/^charges::\(.*\)($/\1/')
printf '%-34s %7s\n' "charges:: call sites" "$(printf '%s\n' "$sites" | grep -c .)"
printf '%s\n' "$sites" | grep . | sort | uniq -c | sort -k1,1nr -k2 |
    while read -r n f; do printf '  %-32s %7s\n' "$f" "$n"; done
