#!/usr/bin/env bash
# Public items per crate, by the rule the simplicity PRs quote in CHANGES.md
# beside scripts/loc.sh: declarations of a `fn`, `struct`, `enum`, `union`,
# `trait`, `type`, `const`, `static`, `mod` or `use` marked plain `pub`
# (`pub(crate)`, `pub(super)` and `pub(in …)` are restricted to the crate
# and do not count), up to the first `#[cfg(test)]` of each `.rs` file — the
# same non-test code loc.sh counts. A method counts like a free function, a
# `pub use` once however many names it lists; fields and variants do not
# count. The rule is textual: a `pub` item of a crate-private type counts
# until it is written `pub(crate)`.
#
#   scripts/api.sh [path...]
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
        !in_tests && /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|union|trait|type|const|static|mod|use)[[:space:]]/ { n++ }
        END { print n + 0 }')
    printf '%7d  %s\n' "$n" "$path"
    total=$((total + n))
done
[ $# -eq 1 ] || printf '%7d  total\n' "$total"
