#!/bin/sh
# Non-test Rust lines per crate: the tracked size number of ROADMAP aim 2.
#
#   tools/loc.sh [<git-rev>]
#
# Counts crates/*/src/**/*.rs through tools/nontest.awk: items gated by
# `#[cfg(test)]`, blank lines and lines holding only a `//` comment (doc
# comments included) are left out. Prints a markdown table; given a git
# rev, it also counts that rev's tree (from `git archive`, the working
# tree is not touched) with this tree's filter and adds the per-crate
# delta. Run from anywhere inside the repository.
set -eu

cd "$(git rev-parse --show-toplevel)"
filter=$PWD/tools/nontest.awk

count() { # <root>: prints "<crate> <lines>" per crate, sorted by crate
    (cd "$1" && find crates/*/src -name '*.rs' | sort | xargs awk -f "$filter" |
        awk -F/ '{ lines[$2]++ } END { for (c in lines) print c, lines[c] }' | sort)
}

if [ $# -eq 0 ]; then
    count . | awk '
        BEGIN { print "| crate | non-test lines |"; print "|---|---:|" }
        { printf "| %s | %d |\n", $1, $2; total += $2 }
        END { printf "| **total** | **%d** |\n", total }'
    exit 0
fi

rev=$1
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$rev" crates | tar -x -C "$old"
{ count "$old" | sed 's/^/old /'; count . | sed 's/^/new /'; } | awk -v rev="$rev" '
    { n[$1, $2] = $3; crates[$2] = 1 }
    END {
        printf "| crate | non-test lines | vs %s |\n|---|---:|---:|\n", rev
        k = 0
        for (c in crates) name[++k] = c
        for (i = 2; i <= k; i++)
            for (j = i; j > 1 && name[j - 1] > name[j]; j--) { t = name[j]; name[j] = name[j - 1]; name[j - 1] = t }
        for (i = 1; i <= k; i++) {
            c = name[i]
            printf "| %s | %d | %+d |\n", c, n["new", c], n["new", c] - n["old", c]
            total += n["new", c]; delta += n["new", c] - n["old", c]
        }
        printf "| **total** | **%d** | **%+d** |\n", total, delta
    }'
