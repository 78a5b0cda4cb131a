#!/usr/bin/env bash
# Diff the contract dump of <base-ref> against the working tree's: every
# digest and every f64 bit pattern the refactoring PRs promise not to move
# (examples/contract_dump.rs says which), one text row each.
#
#   scripts/contract-diff.sh <base-ref> [allowed-regex]
#
# * <base-ref> is exported with `git archive` into .bench_build/ (ignored),
#   exactly as scripts/perf-pairs.sh does; the working tree's
#   examples/contract_dump.rs is copied into the export, so both sides run
#   the same dump (it uses only public API both sides have). When the
#   change renames an entry point the dump calls, the working tree's copy
#   does not build against <base-ref>; <base-ref> then runs its own dump,
#   which prints the same rows through the old names (the script says so).
# * Rows matching [allowed-regex] may differ — a PR that fixes a behaviour
#   names the rows it means to move (this repo tags them `fixed:`).
# * Rows only the working tree prints (a pure addition in the diff: a new
#   tier the base's dump does not cover) are new, not differing; they are
#   listed and counted apart.
#
# Prints the differing rows and a summary; exits 1 when a row outside the
# allowed set differs. Outputs land in .bench_build/contract/<base>/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
base_sha=$(git rev-parse --short=12 "$1^{commit}")
allowed=${2:-}

base_src=.bench_build/src-$base_sha
if [ ! -d "$base_src" ]; then
    mkdir -p "$base_src"
    git archive "$base_sha" | tar -x -C "$base_src"
fi
cp examples/contract_dump.rs "$base_src/examples/contract_dump.rs"

echo "==> building the contract dump of $1 ($base_sha) and of the working tree"
if ! cargo build --release --offline --quiet --example contract_dump \
    --manifest-path "$base_src/Cargo.toml" 2>/dev/null; then
    echo "==> the working tree's dump does not build against $1: $1 runs its own"
    git show "$base_sha:examples/contract_dump.rs" >"$base_src/examples/contract_dump.rs"
    cargo build --release --offline --quiet --example contract_dump \
        --manifest-path "$base_src/Cargo.toml"
fi
cargo build --release --offline --quiet --example contract_dump

out=.bench_build/contract/$base_sha
mkdir -p "$out"
"$base_src/target/release/examples/contract_dump" >"$out/base.txt"
target/release/examples/contract_dump >"$out/change.txt"

diff "$out/base.txt" "$out/change.txt" >"$out/contract.diff" || true
# Split the diff: lines of pure-addition hunks (`NaM,K`) are new rows, the
# rest are rows that moved.
awk -v new="$out/new.txt" -v moved="$out/moved.txt" '
    BEGIN { printf "" >new; printf "" >moved }
    /^[0-9]/ { added = /^[0-9]+a/ }
    /^[<>]/ { print >(added ? new : moved) }' "$out/contract.diff"
sed 's/^>/new:/' "$out/new.txt"
cat "$out/moved.txt"
rows=$(wc -l <"$out/change.txt")
new_rows=$(wc -l <"$out/new.txt")
moved=$(grep -c '^>' "$out/moved.txt" || true)
if [ -n "$allowed" ]; then
    unexpected=$(grep -Evc "$allowed" "$out/moved.txt" || true)
else
    unexpected=$(wc -l <"$out/moved.txt")
fi
echo "==> contract dump: $rows rows, $new_rows new, $moved differ from $1," \
    "$unexpected outside the allowed set"
[ "$unexpected" -eq 0 ]
