#!/usr/bin/env sh
# Local CI gate: formatting, lints, release build, tests, then smoke-runs
# the examples and the quick campaigns.
# Run from the repo root; fails fast on the first broken step.
set -eu

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# The examples double as end-to-end smoke tests of the public API.
for example in quickstart iot_edge scientific_workflow tamper_detection; do
    cargo run --release --example "$example"
done

# Quick campaigns as end-to-end smoke runs: bounded admission queues
# (overload); crash/restart, Raft failover, partitions and the retrying
# client (faults); multi-channel routing and scatter-gather queries
# (sharding); multi-lane VSCC and verification caches (commit_pipeline);
# the provenance DAG index vs the oracle walk (lineage); snapshots,
# pruning and elastic membership (recovery); the 10k-client machinery in
# miniature (scale).
for campaign in overload faults sharding commit_pipeline lineage recovery scale; do
    cargo run --release -p hyperprov-bench --bin campaign -- "table_$campaign" --quick
done

# Perf-regression gate: reruns the quick BENCH-SIM reference workload and
# diffs it against the committed BENCH_sim.json baseline (tight tolerances
# for deterministic model metrics, loose ratio bounds for host wall-clock
# numbers). Exits non-zero on any out-of-tolerance metric; regenerate the
# baseline deliberately with `bench_regress --update`.
cargo run --release -p hyperprov-bench --bin bench_regress -- --quick

# The benchmark is a package of its own outside the workspace, so nothing
# above compiles it, and it reads public fields of the product's types
# (`Block.envelopes`, `StateKey.key`, `VersionedValue.value`). Build it
# and run one short workload: the last line is the result object.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload ledger_growth --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$result"
case "$result" in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "benchmark smoke run: not correct, or operations failed" >&2
        exit 1
        ;;
esac
