#!/bin/sh
# A/B driver for the repo benchmark: alternating pairs of two prebuilt
# benchmark binaries (choosing-metrics §8). This host's clocks drift over
# minutes, so parent and change are never run as back-to-back blocks.
#
#   tools/ab_pairs.sh <workload> <pairs> <parent-binary> <change-binary> [seconds]
#
# Pair i uses seed i; odd pairs run the parent first, even pairs the
# change. Prints the four end-to-end metrics of every run, then per metric
# each side's median and quartiles and the pairs the change won (lower is
# better for all four; ties count for neither). Build the binaries with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# in a checkout of each commit and copy target/release/smart-benchmark.
# Run nothing else on the host meanwhile.
set -eu

if [ $# -lt 4 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
workload=$1 pairs=$2 parent=$3 change=$4 seconds=${5:-16}
metrics="setup_s host_run_s host_ns_per_op host_peak_rss_mb"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

run_side() { # <side> <binary> <pair>
    json=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    case $json in
        *'"correct": true'*) ;;
        *) echo "pair $3 $1: correctness check failed: $json" >&2; exit 1 ;;
    esac
    line="$3 $1"
    for m in $metrics; do
        v=$(printf '%s\n' "$json" | sed -n "s/.*\"$m\": {\"value\": \([^,]*\),.*/\1/p")
        line="$line $v"
    done
    echo "$line" | tee -a "$runs"
}

echo "# $workload, $pairs pairs, $seconds s per run"
echo "# pair side $metrics"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$parent" "$i"
        run_side change "$change" "$i"
    else
        run_side change "$change" "$i"
        run_side parent "$parent" "$i"
    fi
    i=$((i + 1))
done

awk -v names="$metrics" '
function quantile(a, n, q,    pos, lo, frac) {
    pos = (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo + 1 >= n ? a[n] : a[lo + 1] + frac * (a[lo + 2] - a[lo + 1])
}
function summary(side, m,    n, i, j, t, a) {
    n = 0
    for (i = 1; i <= pairs; i++) a[++n] = v[side, i, m]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return sprintf("%.6g [%.6g, %.6g]", quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
}
{ if ($1 > pairs) pairs = $1; for (m = 1; m <= 4; m++) v[$2, $1, m] = $(m + 2) }
END {
    split(names, name, " ")
    print "# metric: parent median [q1, q3] | change median [q1, q3] | change wins/ties of pairs"
    for (m = 1; m <= 4; m++) {
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            if (v["change", i, m] < v["parent", i, m]) wins++
            else if (v["change", i, m] == v["parent", i, m]) ties++
        }
        printf "%s: %s | %s | %d/%d of %d\n", name[m], summary("parent", m), summary("change", m), wins, ties, pairs
    }
}' "$runs"
