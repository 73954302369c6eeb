#!/usr/bin/env sh
# Local CI gate: formatting, lints, release build, tests, then smoke-runs
# the examples and the quick campaigns.
# Run from the repo root; fails fast on the first broken step.
set -eu

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test --workspace -q

# Options audit: an option needs a caller that is not a test. Every
# `pub fn with_*` of every crate must be called (`.with_x(` or
# `Type::with_x(`) from non-test source of a crate, an example or the
# benchmark; the source is each file up to its first `#[cfg(test)]`, and
# none of a `tests.rs` (a test module in a file of its own).
# So does every other public function: a `pub fn` whose name that corpus
# holds once — its definition — and no other `.rs` file of the repository
# mentions (integration tests and benches included) is called by its own
# unit tests at most, and goes.
# The same pass prints the non-test line counts CHANGES.md entries quote:
# the total, each crate's, and the largest single file. The total may not
# rise above the ceiling: a change that needs more lines raises it in its
# own diff, in plain sight, and one that deletes lines lowers it.
ceiling=24382
nontest='FNR==1{t=(FILENAME ~ /\/tests\.rs$/)} /#\[cfg\(test\)\]/{t=1} !t'
src=target/options_audit.src
find crates/*/src -name '*.rs' -print0 | xargs -0 awk "$nontest" >"$src"
lines=$(wc -l <"$src")
echo "non-test lines under crates/*/src: $lines (ceiling $ceiling)"
if [ "$lines" -gt "$ceiling" ]; then
    echo "non-test lines $lines > ceiling $ceiling: delete lines, or raise the ceiling in ci.sh in the same diff" >&2
    exit 1
fi
find crates/*/src -name '*.rs' -print0 |
    xargs -0 awk "$nontest"' {file[FILENAME]++; split(FILENAME, part, "/"); crate[part[2]]++}
        END {for (c in crate) printf "  crates/%s/src: %d\n", c, crate[c] | "sort"
             close("sort")
             for (f in file) if (file[f] > file[top]) top = f
             printf "  largest non-test file: %s (%d)\n", top, file[top]}'
find examples benchmark/src -name '*.rs' -print0 | xargs -0 awk "$nontest" >>"$src"
orphans=$(grep -rhoE 'pub fn with_[a-z_]*' crates/*/src |
    sed 's/pub fn //' | sort -u | while read -r name; do
    grep -qE "[.:]$name\(" "$src" || echo "$name"
done)
tr -cs 'A-Za-z0-9_' '\n' <"$src" | sort | uniq -u >"$src.once"
uncalled=$(grep -rhoE 'pub fn [A-Za-z0-9_]+' crates/*/src |
    sed 's/pub fn //' | sort -u | grep -Fxf "$src.once" | while read -r name; do
    files=$(grep -rlw --include='*.rs' "$name" crates tests examples benchmark/src src | wc -l)
    [ "$files" -gt 1 ] || echo "$name"
done)
rm -f "$src" "$src.once"
if [ -n "$orphans" ]; then
    echo "options no non-test code sets:" $orphans >&2
    exit 1
fi
if [ -n "$uncalled" ]; then
    echo "public functions only their own unit tests call:" $uncalled >&2
    exit 1
fi

# Purity audit: the protocol state machines are sans-IO — they answer
# with what to do and never name the kernel types that do it. Every
# non-test file of the fabric and core crates is audited, a new one by
# default, but the hosts: `perform.rs` (the host actor `Node`) and the
# files that perform the peer's, the ordering node's and the client's own
# actions.
for file in $(find crates/fabric/src crates/core/src -name '*.rs' | sort); do
    case "$file" in
        crates/fabric/src/perform.rs | crates/fabric/src/peer/actor.rs | \
            crates/fabric/src/ordering/actor.rs | crates/core/src/client/mod.rs) continue ;;
    esac
    if awk "$nontest" "$file" | grep -nE '\b(Context|ServiceHarness|TimerId)\b'; then
        echo "$file names a kernel type: keep I/O in the host" >&2
        exit 1
    fi
done

# Span soundness: in a tracked metrics export each span end has its start
# and no span starts twice; two operations in flight under one op id share
# a trace, and show here. Checked on the exports as committed (full runs),
# then as the quick campaigns below rewrite them.
spans_sound() {
    unsound=$(git ls-files 'results/*.metrics.json' |
        xargs grep -lE '"(unmatched_ends|duplicate_starts)": *[1-9]' || true)
    if [ -n "$unsound" ]; then
        echo "unmatched span ends or duplicate span starts ($1 runs):" $unsound >&2
        exit 1
    fi
}
spans_sound committed

# The examples double as end-to-end smoke tests of the public API.
for example in quickstart iot_edge scientific_workflow tamper_detection; do
    cargo run --release --example "$example"
done

# Every campaign, quick, as end-to-end smoke runs (about 10 s): the
# paper's figures and the thesis-style tables, among them bounded
# admission queues (overload); crash/restart, Raft failover, partitions
# and the retrying client (faults); multi-channel routing (sharding);
# multi-lane VSCC and verification caches (commit_pipeline); snapshots,
# pruning and elastic membership (recovery); the 10k-client machinery in
# miniature (scale). Then the other way round: a tracked file under
# results/ that no campaign saved is nobody's output any more.
saved=target/campaign_saved
cargo run --release -p hyperprov-bench --bin campaign -- all --quick >"$saved" || {
    cat "$saved"
    exit 1
}
cat "$saved"
stale=$(git ls-files results | while read -r file; do
    grep -qF "/$file]" "$saved" || echo "$file"
done)
rm -f "$saved"
if [ -n "$stale" ]; then
    echo "tracked results no campaign saves:" $stale >&2
    exit 1
fi
spans_sound quick

# Regression gate: one table of claims (crates/bench/src/regress.rs,
# GATES) over the committed BENCH_*.json trajectories. Reruns the quick
# BENCH-SIM reference and T-SCALE profiles and diffs their deterministic
# model metrics against BENCH_sim.json (1 %), and holds the committed
# full-run trajectories to their shape claims (recovery flatness, the
# Fig 1/2 knee, desktop : RPi, Fig 3 power). A committed file that is
# missing or does not parse fails. Host numbers are recorded as
# information only — host cost is the benchmark's job (below).
# Regenerate BENCH_sim.json deliberately with `bench_regress --update`.
cargo run --release -p hyperprov-bench --bin bench_regress -- --quick

# The benchmark is a package of its own outside the workspace, so nothing
# above compiles it, and it reads public fields of the product's types
# (`Block.envelopes`, `StateKey.key`, `VersionedValue.value`). Build it
# and run two short workloads — the one the ledger's memory shows on, and
# the one snapshot cutting and recovery show on: the last line of each is
# the result object. `crash_recover` is also where the client's failover
# shows: a retry goes to the next node, the orderer answers an envelope
# under the 2 s endorse deadline, and a node that let a deadline expire
# is not asked again — its client's home moves past it — so an outage
# costs a client one endorse deadline and the (virtual, exactly
# repeating) `op_p99_ms` stays under that deadline + 25 %: it reads
# 2.1 s; 4.1 s when every operation starts at home again, 13.6 s when
# retries go back to the dead node. And
# it is the one workload that cuts snapshots and runs a raft ordering
# cluster: a peer's cut is a height, its content materialized from the
# ledger only when something reads it, and the raft members share one body
# per batch and compact their logs, so `peak_rss_mib` reads about 50 MiB;
# about 70 when every cut freezes a copy of the ledger, about 68 when each
# member copies the batches it is sent and never compacts its log.
# `ledger_growth` is where a per-key cost of the ledger shows: a key's
# history lives in its state entry, and a replica's keys and values are
# ranges of the envelope bytes every replica shares, so `peak_rss_mib`
# reads about 87 MiB; 116-134 when each replica copies its keys and values
# out of the block, 136-146 with a list of history entries per key beside
# the state as well.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for smoke in "ledger_growth 1" "crash_recover 2"; do
    set -- $smoke
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds "$2" --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct":true'*'"failed":0,'*) ;;
        *)
            echo "benchmark smoke run of $1: not correct, or operations failed" >&2
            exit 1
            ;;
    esac
    if [ "$1" = ledger_growth ]; then
        rss=$(echo "$result" | sed 's/.*"peak_rss_mib":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($rss >= 100)}"; then
            echo "ledger_growth peak_rss_mib $rss >= 100: a replica copies keys and values out of the block again" >&2
            exit 1
        fi
    fi
    if [ "$1" = crash_recover ]; then
        p99=$(echo "$result" | sed 's/.*"op_p99_ms":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($p99 >= 2500)}"; then
            echo "crash_recover op_p99_ms $p99 >= 2500: a node that let a deadline expire is asked again" >&2
            exit 1
        fi
        rss=$(echo "$result" | sed 's/.*"peak_rss_mib":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($rss >= 60)}"; then
            echo "crash_recover peak_rss_mib $rss >= 60: a snapshot cut copies the ledger, or the raft ordering cluster copies its batches per member" >&2
            exit 1
        fi
    fi
done
