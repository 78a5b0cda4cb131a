#!/usr/bin/env bash
# Net code lines, by the rule the simplicity PRs quote in CHANGES.md:
# non-blank lines that are not `//` comments (doc comments included), up to
# the first `#[cfg(test)]` of each `.rs` file.
#
#   scripts/loc.sh [path...]
#
# Each path (a directory, searched recursively, or one file) gets a row.
# Default: every `crates/*/src` and the facade's `src`, one row per crate,
# then the total.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- crates/*/src src

total=0
for path in "$@"; do
    n=$(find "$path" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    printf '%7d  %s\n' "$n" "$path"
    total=$((total + n))
done
[ $# -eq 1 ] || printf '%7d  total\n' "$total"
