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
# recorded under another code, a write on the ledger that maps back to
# no op, or an audit finding no named exclusion covers. A failure prints
# its shrunk regression test and every node's view at the end of that run. The soak also prints how many seeds
# reached each counter a node incremented, and fails when a counter its
# committed list names is reached by none.
cargo test --release --test generated -- --ignored

# Options audit: an option needs a caller that is not a test. Every
# `pub fn with_*` of every crate must be called (`.with_x(` or
# `Type::with_x(`) from non-test source of a crate, an example or the
# benchmark; the source is each file up to its first `#[cfg(test)]`, and
# none of a `tests.rs` (a test module in a file of its own).
# So does every other public function, from that source or an integration
# test: called (`x(`, `.x(`, `Type::x(`, `x::<`) or passed as a value
# (`Type::x`, or `(x)` / `, x)` for a name no `let`, parameter, closure
# argument or field binds anywhere: else that is the binding, read). A
# `use` line, a mention in the signature or body of a function of that
# name, and a field access are no call. A function only unit tests call
# goes. Both checks read code only: a comment, a doc link or a string
# calls nothing.
# The same pass prints the non-test line counts CHANGES.md entries quote:
# the total, each crate's, and the largest single file. The total may not
# rise above the ceiling: a change that needs more lines raises it in its
# own diff, in plain sight, and one that deletes lines lowers it.
ceiling=23182
skip='FNR==1{t=(FILENAME ~ /\/tests\.rs$/)} /#\[cfg\(test\)\]/{t=1}'
nontest="$skip !t"
# The code of each line, after the names of the functions it lies in and
# a `#`: escapes, strings, character literals and comments dropped, braces
# counted from each file's first line; `use` statements dropped whole.
code='FNR == 1 {depth = 0; top = 0; pending = ""; inuse = 0}
!t {
    line = $0
    gsub(/\\./, "", line)
    gsub(/r#"([^"]|"[^#])*"#/, "\"\"", line)
    gsub(/"[^"]*"/, "\"\"", line)
    gsub(/\047[^\047]\047/, "\047\047", line)
    sub(/\/\/.*/, "", line)
    if (line ~ /^[ \t]*(pub(\([a-z]+\))? +)?use /) inuse = 1
    if (inuse) {
        if (line ~ /;/) inuse = 0
        next
    }
    if (match(line, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/)) {
        pending = substr(line, RSTART, RLENGTH)
        sub(/.*fn /, "", pending)
        at = depth
    }
    owners = " "
    for (i = 1; i <= top; i++) owners = owners name[i] " "
    if (pending != "") owners = owners pending " "
    print owners "#" line
    rest = line
    while (match(rest, /[{}]/)) {
        if (substr(rest, RSTART, 1) == "{" && ++depth == at + 1 && pending != "") {
            name[++top] = pending
            start[top] = at
            pending = ""
        } else if (substr(rest, RSTART, 1) == "}") {
            depth--
            while (top > 0 && depth <= start[top]) top--
        }
        rest = substr(rest, RSTART + 1)
    }
    if (pending != "" && depth == at && line ~ /;[ \t]*$/) pending = ""
}'
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
for doc in DESIGN.md:127011 CHANGES.md:154619; do
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
find crates/*/src examples benchmark/src -name '*.rs' -print0 | xargs -0 awk "$skip $code" >"$src"
orphans=$(grep -rhoE 'pub fn with_[a-z_]*' crates/*/src |
    sed 's/pub fn //' | sort -u | while read -r name; do
    grep -qE "[.:]$name\(" "$src" || echo "$name"
done)
find crates/*/tests tests -name '*.rs' -print0 | xargs -0 awk "$code" >>"$src"
uncalled=$(grep -rhoE 'pub fn [A-Za-z0-9_]+' crates/*/src |
    sed 's/pub fn //' | sort -u | while read -r name; do
    calls="[^A-Za-z0-9_]$name(\(|::<)|::$name([^A-Za-z0-9_(]|\$)"
    bound="#.*(let (mut )?$name\b|(^|[^A-Za-z0-9_.:'])$name *:([^:]|\$)"
    bound="$bound|(^|[^|])\|([A-Za-z0-9_&, ]*[&, ])?$name *(:[^|]*)?[|,])"
    grep -qE "$bound" "$src" || calls="$calls|[(,] *$name *[),]"
    grep -E "$calls" "$src" | grep -qvE "^[^#]* $name " || echo "$name"
done)
rm -f "$src"
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
# and run short workloads; the last line of each is the result object.
# Each gate holds a measured gain (latencies are virtual and repeat
# exactly): `ledger_growth` `peak_rss_mib` under 100 (about 87; a replica's
# keys, values and history are ranges of the envelope bytes every replica
# shares); `query_mix` `op_p50_ms` under 3.5 (about 2.7; a query runs on
# any core its peer's committer leaves free); `crash_recover`, at
# seed 1, where the killed Raft orderer follows, and 6, where it leads,
# `op_p99_ms` under 150 (0.11 s and 0.13 s; a wait copies past a silent
# node at the route's RTO, a probe a peer answers "not found" moves on at
# once, and a home moves off a node that let a wait expire or was passed,
# so the 2 s endorse and 4 s commit deadlines only bound the waits) and
# `peak_rss_mib` under 60 (about 50; a snapshot's cut is a height, and the
# Raft members share one body per batch and compact their logs).
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
        if awk "BEGIN {exit !($p50 >= 3.5)}"; then
            echo "query_mix op_p50_ms $p50 >= 3.5: a query waits behind block validation or behind other queries on one core again" >&2
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
