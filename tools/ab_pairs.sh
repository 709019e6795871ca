#!/bin/sh
# Alternating A/B runs of two already-built benchmark binaries: the
# procedure of choosing-metrics section 8, so a host-time claim is
# measured the same way every time.
#
#   tools/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=10] [SEED=1] [TRACE=0]
#
# PARENT_DIR and CHANGE_DIR are two checkouts in which
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# has already run; nothing is built here. Each pair runs both binaries once
# on WORKLOAD (odd pairs parent first, even pairs change first), each from
# its own checkout. For every metric of the run's closing JSON line (the
# four end-to-end ones at TRACE=0, the per-layer ones at TRACE=1) it prints
# both sides' median and quartiles, the pairs the change won (ties count for
# neither side), whether every change run beat every parent run, every run
# made, and the section 8 verdict: a gain only when the change wins at least
# nine tenths of the pairs and the medians differ by more than the distance
# between the parent's quartiles. Which direction is better, and the bound by
# which an end-to-end median may worsen, come from CHANGE_DIR/BENCHMARK.json.
#
# Single runs on the shared sandbox differ by 30-80 %: never compare fewer
# than five alternating pairs, and claim nothing on fewer than ten.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
pairs=${4:-10} seconds=${5:-10} seed=${6:-1} trace=${7:-0}
bin=benchmark/target/release/synthesis-benchmark
for d in "$parent" "$change"; do
    [ -x "$d/$bin" ] || { echo "ab_pairs: $d/$bin is not built" >&2; exit 2; }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# One run: its closing JSON line, tagged with the side and the pair.
run() {
    (cd "$2" && "./$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) |
        sed "s/^/$1 $3 /" >>"$tmp/runs"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"; run change "$change" "$i"
    else
        run change "$change" "$i"; run parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done

echo "# $workload seed=$seed seconds=$seconds trace=$trace pairs=$pairs"
echo "# parent=$parent change=$change"
awk '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Quantile p of a sorted a[1..n], interpolating between neighbours.
function q(a, n, p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summary(side, name,    s, i, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, name, i) in v) s[++n] = v[side, name, i]
    sort(s, n)
    med[side] = q(s, n, .5); q1[side] = q(s, n, .25); q3[side] = q(s, n, .75)
    min[side] = s[1]; max[side] = s[n]
}
function runs(side, name,    i, out) {
    out = ""
    for (i = 1; i <= pairs; i++) out = out " " raw[side, name, i]
    return out
}
FILENAME == bench {
    if (match($0, /"name": "[^"]+"/)) last = substr($0, RSTART + 9, RLENGTH - 10)
    if ($0 ~ /"better": "higher"/) higher[last] = 1
    if (match($0, /"bound": [0-9.]+/)) bound[last] = substr($0, RSTART + 9, RLENGTH - 9) + 0
    next
}
{
    side = $1; pair = $2 + 0
    if (pair > pairs) pairs = pair
    if (match($0, /"failed": [0-9]+/)) failed[side] += substr($0, RSTART + 10, RLENGTH - 10)
    rest = $0
    while (match(rest, /"[A-Za-z0-9_.]+": \{"value": [-+0-9.eE]+/)) {
        item = substr(rest, RSTART + 1, RLENGTH - 1)
        rest = substr(rest, RSTART + RLENGTH)
        name = item; sub(/".*/, "", name)
        val = item; sub(/.*"value": /, "", val)
        if (!(name in seen)) { seen[name] = 1; order[++nm] = name }
        v[side, name, pair] = val + 0; raw[side, name, pair] = val
    }
}
END {
    for (k = 1; k <= nm; k++) {
        name = order[k]
        summary("parent", name); summary("change", name)
        sign = (name in higher) ? -1 : 1
        won = lost = 0
        for (i = 1; i <= pairs; i++) {
            d = sign * (v["change", name, i] - v["parent", name, i])
            if (d < 0) won++; else if (d > 0) lost++
        }
        all = (name in higher) ? min["change"] > max["parent"] : max["change"] < min["parent"]
        gap = sign * (med["parent"] - med["change"])
        iqr = q3["parent"] - q1["parent"]
        verdict = (won >= .9 * pairs && gap > iqr) ? "GAIN" : (lost >= .9 * pairs && -gap > iqr) ? "LOSS" : "unresolved"
        if (med["parent"] == med["change"] && iqr == 0) verdict = "identical"
        else if (pairs < 10) verdict = verdict " (fewer than ten pairs: not a claim)"
        printf "%s (%s is better)\n", name, (name in higher) ? "higher" : "lower"
        printf "  parent median %.6g [q1 %.6g, q3 %.6g]\n", med["parent"], q1["parent"], q3["parent"]
        printf "  change median %.6g [q1 %.6g, q3 %.6g]  %+.1f %% of the parent median\n", \
            med["change"], q1["change"], q3["change"], \
            med["parent"] ? 100 * (med["change"] - med["parent"]) / med["parent"] : 0
        printf "  pairs won %d/%d, lost %d; every change run beat every parent run: %s; %s\n", \
            won, pairs, lost, all ? "yes" : "no", verdict
        if (name in bound && med["parent"])
            printf "  regression bound %g %%: %s\n", 100 * bound[name], \
                (-gap > bound[name] * med["parent"]) ? "EXCEEDED" : "held"
        printf "  parent runs:%s\n  change runs:%s\n", runs("parent", name), runs("change", name)
    }
    printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
}' bench="$change/BENCHMARK.json" "$change/BENCHMARK.json" "$tmp/runs"
