#!/bin/sh
# Differential check for smart-lint refactors: a change to the lint that
# is meant to keep every finding must print exactly what <rev>'s lint
# prints.
#
#   tools/lint_diff.sh <rev>
#
# Builds <rev>'s smart-lint from `git archive` and the working tree's
# smart-lint, then runs both on four trees, all taken from <rev>'s
# archive: the real tree, the two lint fixtures, and an enlarged tree
# (the real tree with crates/{lint,bench,plot}/src copied into
# crates/{rt,core}/src/x_<crate>/ and tests/ into
# crates/rnic/src/x_tests/, so the sim-only rules see far more code).
# Compares stdout, stderr and exit status of --format=text|json|github,
# of --effects, of --pragmas, and the files --effects-out writes. Prints
# the first differences and exits 1 on any; exits 0 when all agree.
# Run from anywhere inside the repository.
set -eu

if [ $# -ne 1 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
rev=$1
cd "$(git rev-parse --show-toplevel)"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/src"
git archive "$rev" | tar -x -C "$work/src"
cargo build --release -q --offline -p smart-lint \
    --manifest-path "$work/src/Cargo.toml" --target-dir "$work/target"
cargo build --release -q --offline -p smart-lint
old_bin=$work/target/release/smart-lint
new_bin=$PWD/${CARGO_TARGET_DIR:-target}/release/smart-lint

# The enlarged tree.
big=$work/big
cp -R "$work/src" "$big"
for host in rt core; do
    for c in lint bench plot; do
        cp -R "$work/src/crates/$c/src" "$big/crates/$host/src/x_$c"
    done
done
cp -R "$work/src/tests" "$big/crates/rnic/src/x_tests"

fix=$work/src/crates/lint/tests/fixtures
status=0
for name in real bad_workspace clean_workspace enlarged; do
    case $name in
        real) tree=$work/src ;;
        enlarged) tree=$big ;;
        *) tree=$fix/$name ;;
    esac
    for side in old new; do
        eval bin=\$${side}_bin
        out=$work/out/$side
        rm -rf "$out"
        mkdir -p "$out"
        for f in text json github; do
            "$bin" --format=$f "$tree" > "$out/$f.out" 2> "$out/$f.err" || echo $? >> "$out/$f.err"
        done
        "$bin" --pragmas "$tree" > "$out/pragmas.out" 2>&1 || echo $? >> "$out/pragmas.out"
        "$bin" --effects --effects-out "$out/artifacts" "$tree" > "$out/effects.out" 2> "$out/effects.err" ||
            echo $? >> "$out/effects.err"
    done
    if diff -r "$work/out/old" "$work/out/new" > "$work/diff"; then
        printf '%-24s identical (%s findings, %s effect-table lines)\n' "$name" \
            "$(wc -l < "$work/out/new/text.out")" "$(wc -l < "$work/out/new/effects.out")"
    else
        printf '%-24s DIFFERS\n' "$name"
        head -40 "$work/diff"
        status=1
    fi
done
exit $status
