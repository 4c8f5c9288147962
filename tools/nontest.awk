# The non-test lines of Rust sources: the one filter behind tools/loc.sh
# and the CI source guards.
#
#   awk -f tools/nontest.awk <file.rs>...
#
# Prints every kept line as `<file>:<line>:<text>`. Left out: blank
# lines, lines holding only a `//` comment (doc comments included), and
# each item gated by a `#[cfg(test)]` line — a `mod` block up to its
# matching brace, or else the single item that follows (an fn with its
# body, a `use`, a field). Code after a gated item counts again. Braces
# are counted outside `//` comments and outside string and char literals
# that close on the line they open on.

FNR == 1 { gated = 0 }

!gated && /^[[:space:]]*#\[cfg\(test\)\]/ {
    gated = 1; depth = 0; opened = 0
    sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
    if ($0 == "") next
}

gated {
    code = $0
    gsub(/\\\\/, "", code)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
    gsub(/'([^'\\]|\\.)'/, "' '", code)
    sub(/\/\/.*/, "", code)
    if (!opened && code ~ /^[[:space:]]*#\[/) next
    open_n = gsub(/\{/, "{", code)
    depth += open_n - gsub(/\}/, "}", code)
    if (open_n) opened = 1
    if (opened ? depth <= 0 : code ~ /[;,][[:space:]]*$/) gated = 0
    next
}

/^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }

{ print FILENAME ":" FNR ":" $0 }
