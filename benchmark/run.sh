#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs every workload, each
# run in a process of its own: REPEATS untraced runs and one traced run
# per workload. Prints `name unit value` for every metric and writes
# OUT/results.json, the input of benchmark/compare.
#
#   benchmark/run.sh [--seed N] [--out DIR] [--repeats N] [--seconds S]
#
# Load comes from one process and one thread at a time.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seed=1
out="$here/out"
repeats=3
seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2 ;;
        --out) out=$2 ;;
        --repeats) repeats=$2 ;;
        --seconds) seconds=$2 ;;
        *) echo "usage: $0 [--seed N] [--out DIR] [--repeats N] [--seconds S]" >&2; exit 2 ;;
    esac
    shift 2
done

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin=$CARGO_TARGET_DIR/release/hyperprov-benchmark

reports=$out/reports
rm -rf "$reports"
mkdir -p "$reports"
for workload in ingest_small blob_roundtrip ledger_growth query_mix crash_recover; do
    for repeat in $(seq "$repeats"); do
        echo "== $workload, seed $seed, untraced run $repeat of $repeats"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            --report "$reports/$workload.untraced.$repeat.json" | sed '$d'
    done
    echo "== $workload, seed $seed, traced run"
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
        --out "$out" --report "$reports/$workload.traced.json" | sed '$d'
done
"$here/compare" --collect "$reports" > "$out/results.json"
echo "results written to $out/results.json"
