#!/bin/sh
# The line counts ROADMAP.md tracks, from one place: CHANGES.md entries and
# re-anchors quote this output instead of ad-hoc `wc` runs. Counts are of
# tracked `*.rs` files (`git ls-files`), whole lines, in-module tests and
# comments included — the same thing `git diff --stat` moves.
#
#   tools/loc.sh            # from the repository root
set -eu
cd "$(dirname "$0")/.."

# Total lines of the tracked Rust files matching the given pathspecs.
lines() {
    git ls-files -z -- "$@" | xargs -0 cat 2>/dev/null | wc -l | tr -d ' '
}

printf '%-34s %7s\n' "crates/*/src" "$(lines 'crates/*/src/*.rs')"
for c in crates/*/; do
    printf '  %-32s %7s\n' "${c}src" "$(lines "${c}src/*.rs")"
done
printf '%-34s %7s\n' "crates/core/src/kernel.rs" "$(lines crates/core/src/kernel.rs)"
for f in crates/core/src/kernel/*.rs; do
    printf '  %-32s %7s\n' "$f" "$(lines "$f")"
done
printf '%-34s %7s\n' "tests/ + crates/*/tests" "$(lines 'tests/*.rs' 'crates/*/tests/*.rs')"
printf '%-34s %7s\n' "benchmark/" "$(lines 'benchmark/*.rs')"
