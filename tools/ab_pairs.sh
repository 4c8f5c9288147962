#!/bin/sh
# A/B driver for the repo benchmark: alternating pairs of two prebuilt
# benchmark binaries (choosing-metrics §8). This host's clocks drift over
# minutes, so parent and change are never run as back-to-back blocks.
#
#   tools/ab_pairs.sh <workload> <pairs> <parent-binary> <change-binary> [seconds]
#
# Pair i uses seed i; odd pairs run the parent first, even pairs the
# change. Prints the end-to-end metrics BENCHMARK.json lists for every
# run, then per metric each side's median and quartiles and the pairs the
# change won (lower is better; ties count for neither), then one verdict
# per metric: regressed, unresolved, gain or held (choosing-metrics §6.5
# and §8, with the metric's bound). Exits 1 if any metric regressed.
# Build the binaries with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# in a checkout of each commit and copy target/release/smart-benchmark.
# Run nothing else on the host meanwhile.
set -eu

if [ $# -lt 4 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
workload=$1 pairs=$2 parent=$3 change=$4 seconds=${5:-16}
# "<name> <bound> <better>" per end-to-end metric, one object per line.
e2e=$(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit } on {
    n = $0; sub(/.*"name": "/, "", n); sub(/".*/, "", n)
    b = $0; sub(/.*"bound": /, "", b); sub(/[^0-9.].*/, "", b)
    w = $0; sub(/.*"better": "/, "", w); sub(/".*/, "", w)
    print n, b, w }' "$(dirname "$0")/../BENCHMARK.json")
if printf '%s\n' "$e2e" | grep -qv ' lower$'; then
    echo "ab_pairs.sh: every end-to-end metric must be lower-is-better" >&2
    exit 2
fi
metrics=$(printf '%s\n' "$e2e" | awk '{ printf "%s%s", sep, $1; sep = " " }')
bounds=$(printf '%s\n' "$e2e" | awk '{ printf "%s%s", sep, $2; sep = " " }')
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

awk -v names="$metrics" -v bounds="$bounds" '
function quantile(a, n, q,    pos, lo, frac) {
    pos = (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo + 1 >= n ? a[n] : a[lo + 1] + frac * (a[lo + 2] - a[lo + 1])
}
function sorted(side, m, a,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) a[++n] = v[side, i, m]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return n
}
function pct(x, base) { return base ? 100 * x / base : 0 }
BEGIN { nm = split(names, name, " "); split(bounds, bound, " ") }
{ if ($1 > pairs) pairs = $1; for (m = 1; m <= nm; m++) v[$2, $1, m] = $(m + 2) }
END {
    print "# metric: parent median [q1, q3] | change median [q1, q3] | change wins/ties of pairs"
    for (m = 1; m <= nm; m++) {
        n = sorted("parent", m, p); sorted("change", m, c)
        pm = quantile(p, n, 0.5); iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
        cm = quantile(c, n, 0.5)
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            if (v["change", i, m] < v["parent", i, m]) wins++
            else if (v["change", i, m] == v["parent", i, m]) ties++
        }
        printf "%s: %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %d/%d of %d\n", name[m],
            pm, quantile(p, n, 0.25), quantile(p, n, 0.75),
            cm, quantile(c, n, 0.25), quantile(c, n, 0.75), wins, ties, pairs
        b = bound[m]
        if (cm > pm * (1 + b) && iqr <= b * pm) verdict[m] = "regressed"
        else if (iqr > b * pm && c[n] >= p[1]) verdict[m] = "unresolved"
        else if (wins >= 0.9 * pairs && pm - cm > iqr) verdict[m] = "gain"
        else verdict[m] = "held"
        if (pairs < 10 && (verdict[m] == "regressed" || verdict[m] == "gain")) verdict[m] = "unresolved"
        detail[m] = sprintf("median %+.1f %%, bound %g %%, parent IQR %.1f %% of its median",
            pct(cm - pm, pm), 100 * b, pct(iqr, pm))
    }
    print "# verdict (lower is better; under 10 pairs nothing reads regressed or gain)"
    for (m = 1; m <= nm; m++) {
        printf "verdict %s %s: %s\n", name[m], verdict[m], detail[m]
        if (verdict[m] == "regressed") bad = 1
    }
    exit bad
}' "$runs"
