#!/usr/bin/env sh
# Local CI gate: formatting, lints, release build, tests and the seeded
# generator's soak, then smoke-runs the examples and the quick campaigns.
# Run from the repo root; fails fast on the first broken step.
set -eu

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test --workspace -q

# The seeded generator (tests/generated.rs): the workspace tests run 64
# seeds, this soak 1,000 more. Each seed draws a deployment (testbed, 1-2
# channels, Solo or Raft(3), snapshots off or every 4-32 blocks, a spare
# peer, a peer queue bound of 1-4, small enough to shed, endorse and
# commit deadlines, a retry budget), a workload (1-4 clients, open or
# closed loop, posts, stores and reads of acknowledged keys) and 0-3
# overlapping fault windows (a peer, orderer or storage crash, a peer cut
# from the orderers, a loss window, the spare joining), runs it 60
# virtual seconds past the last window and fails on a
# panic, a hung operation, a write reported invalid, a write on the ledger
# whose op was told it failed, a write reported `Ok` that a replica
# recorded under another code, or an audit finding no named exclusion
# covers. A failure prints its shrunk regression test and every node's
# view at the end of that run. The soak also prints how many seeds
# reached each counter a node incremented, and fails when a counter its
# committed list names is reached by none.
cargo test --release --test generated -- --ignored

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
ceiling=23555
nontest='FNR==1{t=(FILENAME ~ /\/tests\.rs$/)} /#\[cfg\(test\)\]/{t=1} !t'
src=target/options_audit.src
find crates/*/src -name '*.rs' -print0 | xargs -0 awk "$nontest" >"$src"
lines=$(wc -l <"$src")
echo "non-test lines under crates/*/src: $lines (ceiling $ceiling)"
if [ "$lines" -gt "$ceiling" ]; then
    echo "non-test lines $lines > ceiling $ceiling: delete lines, or raise the ceiling in ci.sh in the same diff" >&2
    exit 1
fi
# The same ratchet on the two long documents, in bytes: DESIGN.md says
# what the system is, CHANGES.md what each change did, and neither grows
# unseen.
for doc in DESIGN.md:127266 CHANGES.md:147799; do
    file=${doc%%:*}
    limit=${doc#*:}
    bytes=$(wc -c <"$file")
    if [ "$bytes" -gt "$limit" ]; then
        echo "$file is $bytes bytes > ceiling $limit: delete bytes, or raise the ceiling in ci.sh in the same diff" >&2
        exit 1
    fi
done
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
# non-test file of the fabric, core and offchain crates is audited, a new
# one by default, but the hosts: `perform.rs` (the host actor `Node`) and
# the files that perform the peer's, the ordering node's, the client's and
# the storage node's own actions.
for file in $(find crates/fabric/src crates/core/src crates/offchain/src -name '*.rs' | sort); do
    case "$file" in
        crates/fabric/src/perform.rs | crates/fabric/src/peer/actor.rs | \
            crates/fabric/src/ordering/actor.rs | crates/core/src/client/mod.rs | \
            crates/offchain/src/sshfs/actor.rs) continue ;;
    esac
    if awk "$nontest" "$file" | grep -nE '\b(Context|TimerId)\b'; then
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
# multi-lane VSCC (commit_pipeline); snapshots, pruning and elastic
# membership (recovery); the 10k-client machinery in miniature (scale).
# Then the other way round: a tracked file under results/ that no
# campaign saved is nobody's output any more.
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
# model metrics against BENCH_sim.json (1 %), and holds every campaign's
# committed full run to its reading: the Fig 1/2 knee, desktop : RPi and
# Fig 3 power; snapshot recovery flat in chain length; off-chain chain
# bytes flat in item size and on-chain throughput halved by 1 MiB; MVCC
# conflicts rising with the hot fraction; no admission reject below the
# overload knee and a flat plateau past it; fault recovery within 3 s,
# with no error or unfinished operation; goodput rising to 4 channels
# and flat to 8; a 2-lane commit speedup of at least 1.25 and nothing
# more from 4; lineage within 3 % of ancestry on one shard. A committed
# file that is missing, empty or does not parse fails. Host numbers are
# recorded as information only — host cost is the benchmark's job
# (below). Regenerate BENCH_sim.json deliberately with
# `bench_regress --update`.
cargo run --release -p hyperprov-bench --bin bench_regress

# The benchmark is a package of its own outside the workspace, so nothing
# above compiles it, and it reads public fields of the product's types
# (`Block.envelopes`, `StateKey.key`, `VersionedValue.value`). Build it
# and run short workloads — the one the ledger's memory shows on, the
# read path's, and the one snapshot cutting and recovery show on, twice:
# the last line of
# each is the result object. `crash_recover` is also where the client's
# failover shows: every wait of a request — for an endorsement, the
# orderer's answer, the commit — sends a copy under the same tx id to the
# next node once the route's retransmission timeout passes (the endorse
# and order ones floored at 200 ms), and from the second commit probe on
# re-broadcasts the envelope; a commit probe that a peer answers "not
# found" moves on to the next peer at once; the 2 s endorse and 4 s
# commit deadlines only bound that; a retry goes to the next node, a
# node passed by a copy or an expiry is not asked again, and a peer whose
# probe answer completed a commit wait is asked first from then on. The
# (virtual, exactly repeating) `op_p99_ms` reads 0.11 s at seed 1, where
# the killed orderer follows, and 0.12 s at seed 6, where it leads. It
# read 0.17 s and 0.19 s when the clients of the two partitioned peers
# paid a probe for every commit of the cut, not only for those in flight
# when the first answer came, 0.28 s
# and 0.48 s when a probe waited out a silent peer — the clients homed
# on peer 2 asked peer 3, cut off with it, first, and waited twice as
# long for their second probe —, 0.89 s and 1.46 s with the deadlines
# alone (the crashed peer's and orderer's 2 s deadlines, the lost
# envelopes' 4 s one), 1.94 s at seed 1 when the clients of the two
# partitioned peers also waited for their home, 4.1 s when every
# operation started at home again, 13.6 s when retries went back to the
# dead node. And
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
# `query_mix` is where the read path shows: a peer answers a query on its
# CPU's read lane, beside block validation and commit, so `op_p50_ms`
# reads about 7.6 ms at seed 1; 9.0 when every query waited behind the
# block jobs on the one committer lane.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for smoke in "ledger_growth 1 1" "query_mix 1 1" "crash_recover 2 1" "crash_recover 2 6"; do
    set -- $smoke
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "$3" --seconds "$2" --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct":true'*'"failed":0,'*) ;;
        *)
            echo "benchmark smoke run of $1 (seed $3): not correct, or operations failed" >&2
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
    if [ "$1" = query_mix ]; then
        p50=$(echo "$result" | sed 's/.*"op_p50_ms":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($p50 >= 8.3)}"; then
            echo "query_mix op_p50_ms $p50 >= 8.3: a query waits behind block validation again" >&2
            exit 1
        fi
    fi
    if [ "$1" = crash_recover ]; then
        p99=$(echo "$result" | sed 's/.*"op_p99_ms":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($p99 >= 150)}"; then
            echo "crash_recover seed $3 op_p99_ms $p99 >= 150: a cut-off home keeps its clients, a probe waits out silence instead of moving on, or a wait sits out a deadline instead of copying past a silent node" >&2
            exit 1
        fi
        rss=$(echo "$result" | sed 's/.*"peak_rss_mib":{"value":\([0-9.]*\).*/\1/')
        if awk "BEGIN {exit !($rss >= 60)}"; then
            echo "crash_recover peak_rss_mib $rss >= 60: a snapshot cut copies the ledger, or the raft ordering cluster copies its batches per member" >&2
            exit 1
        fi
    fi
done
