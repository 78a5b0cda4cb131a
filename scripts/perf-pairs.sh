#!/usr/bin/env bash
# A/B the perf ledger: <base-ref> against the working tree, in alternating
# pairs, ending with the `perf --compare` regression gate.
#
#   scripts/perf-pairs.sh <base-ref> [pairs] [workload...]
#
# * <base-ref> is exported with `git archive` into .bench_build/ (ignored)
#   and built there; the change is the working tree, built in place exactly
#   as the benchmark driver builds it. No git state is touched.
# * Both sides must carry the same benchmark: the script refuses to run when
#   perf/ or BENCHMARK.json differ from <base-ref> (a change that claims a
#   gain may not edit the benchmark).
# * Each pair runs every workload once per side for BENCHMARK.json's
#   `run_seconds`, untraced, and alternates which side goes first. Defaults:
#   10 pairs, every workload of BENCHMARK.json (~35 min). Never run anything
#   else on the box meanwhile.
# * SEED=<n> picks the input seed (default 11, the benchmark's).
#
# Run documents land in .bench_build/pairs/<base>-seed<n>/{base,change}.jsonl; the
# exit code is the gate's (1 when any end-to-end metric is `worse`).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
base_ref=$1
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(grep -B1 '"why":' BENCHMARK.json | sed -n 's/.*"name": "\(.*\)",/\1/p')
fi
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)
seed=${SEED:-11}

base_sha=$(git rev-parse --short=12 "$base_ref^{commit}")
if ! git diff --quiet "$base_sha" -- perf BENCHMARK.json; then
    echo "perf/ or BENCHMARK.json differ from $base_ref: the two sides would not run the same benchmark" >&2
    exit 2
fi

base_src=.bench_build/src-$base_sha
if [ ! -d "$base_src" ]; then
    mkdir -p "$base_src"
    git archive "$base_sha" | tar -x -C "$base_src"
fi
echo "==> building perf of $base_ref ($base_sha) and of the working tree"
cargo build --release --offline --quiet --manifest-path "$base_src/perf/Cargo.toml"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
base_bin=$base_src/perf/target/release/perf
change_bin=perf/target/release/perf

out=.bench_build/pairs/$base_sha-seed$seed
rm -rf "$out"
mkdir -p "$out"
run() { # side binary workload; a run with failed operations aborts the script
    local line
    line=$("$2" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$1.jsonl" | tail -n 1)
    echo "    $1 $3: $line"
}
for ((pair = 1; pair <= pairs; pair++)); do
    echo "==> pair $pair/$pairs (seed $seed, ${seconds}s runs)"
    for workload in "${workloads[@]}"; do
        if ((pair % 2)); then
            run base "$base_bin" "$workload"
            run change "$change_bin" "$workload"
        else
            run change "$change_bin" "$workload"
            run base "$base_bin" "$workload"
        fi
    done
done

echo "==> perf --compare base change"
"$change_bin" --compare "$out/base.jsonl" "$out/change.jsonl"
