#!/usr/bin/env bash
# Every check of the repository, in one list: CI (.github/workflows/ci.yml)
# runs this script, and so can anyone before pushing.
#
#   scripts/check.sh [--perf <base-ref> | --contract <base-ref>]
#
# `--perf <base-ref>` appends the perf regression gate: scripts/perf-pairs.sh
# A/Bs <base-ref> against the working tree (10 alternating pairs of every
# workload, ~35 min on an otherwise idle box) and fails on any end-to-end
# metric `perf --compare` judges `worse`. Opt-in because of its length.
#
# `--contract <base-ref>` appends scripts/contract-diff.sh: the contract dump
# (every digest, every f64 bit pattern) of <base-ref> diffed against the
# working tree's, ~2 min of building. Rows matching $CONTRACT_ALLOW (a regex)
# may differ. Opt-in: it needs a base ref.
set -euo pipefail
cd "$(dirname "$0")/.."

perf_base=
contract_base=
if [ "${1:-}" = "--perf" ]; then
    perf_base=${2:?--perf needs a base ref}
elif [ "${1:-}" = "--contract" ]; then
    contract_base=${2:?--contract needs a base ref}
elif [ $# -gt 0 ]; then
    echo "usage: scripts/check.sh [--perf <base-ref> | --contract <base-ref>]" >&2
    exit 2
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> one level of parallelism: no library or facade source names rayon (a rank is"
echo "    the only unit of compute parallelism; the rayon dependency lines stay until"
echo "    the next lock refresh removes them with shims/rayon, and this step with them)"
if grep -rn rayon crates/*/src src; then
    echo "the files above name rayon: a rank must not spawn compute threads" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The root package is a workspace member, so this one step runs every
# `tests/*.rs` suite (failure injection, fault/trace/D-EnKF/campaign/
# scheduler conformance, checkpoint restart, cross-variant equivalence,
# chaos soak, data-plane and model allocation) and every `enkf-*` crate's unit,
# integration and property tests, including `enkf-linalg`'s kernel
# conformance under default features and `tests/reproduce.rs`, which
# asserts the paper's verdicts (`s_enkf::reproduce`). The steps below only
# re-run what differs: profile, features, workspace. `--locked` here and on
# the perf step: a change that would rewrite Cargo.lock or the frozen
# perf/Cargo.lock fails instead.
echo "==> cargo test -q --locked --workspace"
cargo test -q --locked --workspace

echo "==> allocation regression: steady-state data plane (full-level reads, and the"
echo "    executors' surface reads from a freshly spawned thread through the store's"
echo "    pooled bounce buffer) and both local-analysis point kernels are alloc-free,"
echo "    untraced modelled cycles allocate nothing per task (release); enkf-core's"
echo "    and enkf-grid's whole suites run in release, the build the benchmark runs:"
echo "    the allocation pins, the lane and sparse-path bit-identity oracles, and the"
echo "    bucket grid's linear-scan oracles over the network and over an expansion"
cargo test -q --release --test dataplane_alloc_free
cargo test -q --release -p enkf-core -p enkf-grid
cargo test -q --release --test model_alloc

echo "==> the file store in release, the build the benchmark runs: surface and"
echo "    full-level reads against their oracles, bit for bit and byte for byte"
cargo test -q --release -p enkf-pfs

echo "==> the DES engine and its pricer in release, the build the benchmark runs: the"
echo "    engine's proptests and pinned tie-heavy graph, the pricer's paper-scale and"
echo "    storm bit-identity oracles"
cargo test -q --release -p enkf-sim -p enkf-parallel

echo "==> crash consistency in release, the build the benchmark runs: kill-resume,"
echo "    crash recovery and checkpoint restart while the pipelined writer overlaps"
echo "    the next cycle's work-store refresh"
cargo test -q --release --test campaign_conformance --test checkpoint_restart

echo "==> real-vs-model conformance in release, the build the benchmark runs: chaos"
echo "    soak (trace digests and health snapshots) and the scheduler (whole MixOutcome)"
cargo test -q --release --test chaos_soak --test scheduler_conformance

echo "==> the kernels the benchmark runs: release GEMM instances equal the reference"
echo "    bits and allocate nothing"
cargo test -q --release -p enkf-linalg --test kernel_conformance --test alloc_free

echo "==> the paper's verdicts at paper scale, for the rows EXPERIMENTS.md carries,"
echo "    and its tables against their regeneration (~37 s of release host time, 2 cores)"
rows=$(sed -n 's/^<!-- reproduce:\([a-z0-9_]*\) -->$/\1/p' EXPERIMENTS.md)
# shellcheck disable=SC2086 # one argument per row name
if ! cargo run --release --offline --quiet --example reproduce -- $rows >target/reproduce.md; then
    grep '^verdict: FAILS' target/reproduce.md >&2
    exit 1
fi
blocks() { sed -n '/^<!-- reproduce:/,/^<!-- \/reproduce -->$/p' "$1"; }
if ! diff <(blocks EXPERIMENTS.md) <(blocks target/reproduce.md); then
    echo "EXPERIMENTS.md's tables differ from their regeneration; the blocks to paste:" >&2
    blocks target/reproduce.md
    exit 1
fi

echo "==> the examples run to completion (release, well under 1 s each)"
for example in quickstart cycled_assimilation ocean_assimilation scaling_study autotune_cluster; do
    cargo run --release --offline --quiet --example "$example" >/dev/null
done

echo "==> kernel conformance without SIMD dispatch"
cargo test -q -p enkf-linalg --no-default-features

echo "==> rustdoc: no broken or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perf ledger (its own workspace): BENCHMARK.json names still match the binary"
cargo test -q --locked --manifest-path perf/Cargo.toml

if [ -n "$perf_base" ]; then
    echo "==> perf regression gate against $perf_base"
    scripts/perf-pairs.sh "$perf_base"
fi

if [ -n "$contract_base" ]; then
    echo "==> contract dump against $contract_base"
    scripts/contract-diff.sh "$contract_base" "${CONTRACT_ALLOW:-}"
fi

echo "==> net code lines per crate (CHANGES.md quotes parent -> change)"
scripts/loc.sh

echo "==> public items per crate (CHANGES.md quotes parent -> change)"
scripts/api.sh

echo "All checks passed."
