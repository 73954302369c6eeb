//! Per-layer attribution from outside the product.
//!
//! Three sources, all read or driven from here: (a) what the product
//! already exports through public accessors (hot counters, tracer stage
//! histograms, metrics counters, the kernel profiler); (b) *layer replay*:
//! peer 0's committed chain and state, fed straight into each layer's
//! public functions with a host clock around the call; (c) the counting
//! allocator, read around each replay. Every replay is one host span
//! `replay.<layer>.<call>` in the run's trace file.

use std::hint::black_box;

use hyperprov::{HyperProvIndexer, HyperProvNetwork};
use hyperprov_device::PowerMeter;
use hyperprov_ledger::{
    BlockStore, Digest, Direction, GraphIndexer, GraphUpdate, HistoryDb, KvWrite, MerkleTree,
    ProvGraph, StateDb, TraversalLimits,
};
use hyperprov_offchain::{MemoryStore, ObjectStore};
use hyperprov_sim::{json, DetRng, Histogram, SimDuration};
use rand::RngCore;

use crate::alloc;
use crate::round::Round;
use crate::spans::Spans;

/// Named values with their units, in reporting order.
#[derive(Debug, Default)]
pub struct Sink(pub Vec<(String, &'static str, f64)>);

impl Sink {
    /// Adds one metric. A value that is not finite (a ratio with nothing
    /// under it) is reported as 0.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), unit, value));
    }

    /// Adds `above / below`, or 0 when there is nothing below.
    pub fn per(&mut self, name: &str, unit: &'static str, above: f64, below: f64) {
        self.put(name, unit, ratio(above, below));
    }
}

fn ratio(above: f64, below: f64) -> f64 {
    if below > 0.0 {
        above / below
    } else {
        0.0
    }
}

fn ensure(holds: bool, otherwise: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("layer replay: {otherwise}"))
    }
}

/// Bytes live now that were not live at `before`.
fn heap_since(before: alloc::Snapshot) -> f64 {
    (alloc::snapshot().live - before.live) as f64
}

/// What the traced round is compared with: the untraced rounds that ran
/// before it in the same process.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Host seconds of the faster measured phase.
    pub wall_s: f64,
    /// `VmRSS` growth over the measured phase of the process's first
    /// round, in KiB. Later rounds reuse freed memory and grow by nothing.
    pub cold_rss_growth_kib: f64,
}

/// Source (a): counters, histograms and the profiler, as the product
/// exports them.
fn exported(round: &Round, net: &HyperProvNetwork, untraced: Untraced, out: &mut Sink) {
    let timeline = &round.timeline;
    let ops = timeline.ok as f64;
    let (before, after) = &round.probes;

    let events = timeline.events as f64;
    out.per("sim.events_per_op", "count", events, ops);
    out.per(
        "sim.messages_per_op",
        "count",
        (after.hot.messages_sent - before.hot.messages_sent) as f64,
        ops,
    );
    out.per(
        "sim.timers_per_op",
        "count",
        (after.hot.timers_set - before.hot.timers_set) as f64,
        ops,
    );
    out.per(
        "sim.cpu_jobs_per_op",
        "count",
        (after.hot.cpu_jobs - before.hot.cpu_jobs) as f64,
        ops,
    );
    out.per("sim.events_per_s", "1/s", events, timeline.wall_s);

    // Handler time per actor label. The benchmark's driver and the fault
    // plan keep the kernel's default label, "actor".
    let profile = round
        .profile_json
        .as_deref()
        .and_then(|doc| json::parse(doc).ok());
    let handler_s = |label: &str| {
        profile
            .as_ref()
            .and_then(|p| p.get("handlers")?.get(label)?.get("wall_s")?.as_f64())
            .unwrap_or(0.0)
    };
    let mut in_handlers = 0.0;
    for (label, name) in [
        ("client", "sim.handler_s.client"),
        ("peer", "sim.handler_s.peer"),
        ("orderer", "sim.handler_s.orderer"),
        ("storage", "sim.handler_s.storage"),
        ("actor", "sim.handler_s.driver"),
    ] {
        in_handlers += handler_s(label);
        out.put(name, "s", handler_s(label));
    }
    out.per(
        "sim.kernel_ns_per_event",
        "ns",
        (timeline.wall_s - in_handlers) * 1e9,
        events,
    );
    out.per(
        "sim.tracer.spans_per_op",
        "count",
        (after.spans - before.spans) as f64,
        ops,
    );
    out.put(
        "sim.tracer.spans_evicted",
        "count",
        net.sim.tracer().spans_evicted() as f64,
    );
    out.put(
        "sim.trace_overhead_share",
        "fraction",
        ratio(timeline.wall_s, untraced.wall_s) - 1.0,
    );

    // Virtual-time stage histograms. They cover the deployment's whole
    // life, set-up included.
    let stage_ms = |stage: &str, q: f64| {
        net.sim
            .tracer()
            .stage_histogram(stage)
            .map_or(0.0, |h: &Histogram| h.quantile(q) as f64 / 1e6)
    };
    for (stage, name, with_p99) in [
        ("endorse", "fabric.stage.endorse", true),
        ("order.queue", "fabric.stage.order_queue", true),
        ("order.deliver", "fabric.stage.order_deliver", false),
        ("validate", "fabric.stage.validate", true),
        ("commit_wait", "fabric.stage.commit_wait", true),
        ("query", "fabric.stage.query", true),
        ("offchain.put", "offchain.stage.put", false),
        ("offchain.get", "offchain.stage.get", false),
        ("offchain.server", "offchain.stage.server", false),
    ] {
        out.put(&format!("{name}.p50_ms"), "ms", stage_ms(stage, 0.5));
        if with_p99 {
            out.put(&format!("{name}.p99_ms"), "ms", stage_ms(stage, 0.99));
        }
    }
    out.put(
        "offchain.bytes_in",
        "bytes",
        (after.storage[0] - before.storage[0]) as f64,
    );
    out.put(
        "offchain.bytes_out",
        "bytes",
        (after.storage[1] - before.storage[1]) as f64,
    );

    // The modelled device under peer 0 over the measured phase.
    let (start, end) = round.measured_span;
    let cpu = net.sim.cpu(net.peers[0]);
    let meter = PowerMeter::new(net.devices[0].energy, SimDuration::from_secs(1));
    out.put(
        "device.peer0.cpu_util",
        "fraction",
        cpu.utilization(start, end),
    );
    out.put(
        "device.peer0.avg_power_w",
        "W",
        meter.average_watts(cpu, start, end, true),
    );
    out.per(
        "device.energy_mj_per_op",
        "mJ",
        meter.energy_joules(cpu, start, end, true) * 1e3,
        ops,
    );

    let client = |i: usize| (after.client[i] - before.client[i]) as f64;
    out.per("core.client.retries_per_op", "count", client(0), ops);
    out.per("core.client.timeouts_per_op", "count", client(1), ops);
    out.put("core.client.exhausted", "count", client(2));
    out.put(
        "core.client.outage_ms",
        "ms",
        timeline.outage_ns as f64 / 1e6,
    );
    out.put("core.deploy.build_s", "s", round.build_s);
    out.put("core.preload_s", "s", round.preload_s);
    out.put("fabric.recover_ms", "ms", round.recover_ms.unwrap_or(0.0));

    let allocs = (after.alloc.allocs - before.alloc.allocs) as f64;
    let bytes = (after.alloc.bytes - before.alloc.bytes) as f64;
    out.per("host.allocs_per_op", "count", allocs, ops);
    out.per("host.alloc_bytes_per_op", "bytes", bytes, ops);
    out.put(
        "host.live_heap_mib_end",
        "MiB",
        after.alloc.live as f64 / (1 << 20) as f64,
    );
    out.per(
        "host.rss_kib_per_key",
        "KiB",
        untraced.cold_rss_growth_kib,
        round.new_keys as f64,
    );
    let tenth_ops = timeline.issued as f64 / 10.0;
    let tenths = &timeline.tenth_wall_s;
    let (first, last) = match tenths.as_slice() {
        [first, .., ninth, tenth] => (*first, tenth - ninth),
        _ => (0.0, 0.0),
    };
    out.per("host.us_per_op_first_decile", "us", first * 1e6, tenth_ops);
    out.per("host.us_per_op_last_decile", "us", last * 1e6, tenth_ops);
    out.put(
        "driver.late_ms_max",
        "ms",
        timeline.late_ns_max as f64 / 1e6,
    );
}

/// Sources (b) and (c): peer 0's chain and state through each layer's
/// public functions.
fn layers(
    round: &Round,
    net: &HyperProvNetwork,
    seed: u64,
    spans: &mut Spans,
    out: &mut Sink,
) -> Result<(), String> {
    let committer = net.ledgers[0].borrow();
    let store = committer.store();
    let blocks = store.retained() as f64;
    let txs = store.tx_count() as f64;

    // What the chain itself says about ordering and validation.
    let invalid = store
        .iter()
        .flat_map(|b| &b.metadata.codes)
        .filter(|code| !matches!(code, hyperprov_ledger::ValidationCode::Valid))
        .count() as f64;
    out.per("fabric.orderer.txs_per_block", "count", txs, blocks);
    out.put("fabric.orderer.blocks_cut", "count", store.height() as f64);
    out.per(
        "fabric.committer.invalid_tx_share",
        "fraction",
        invalid,
        txs,
    );

    // ledger.hash: the workload's payload size (a record-sized input when
    // it moves no payloads), hashed until 32 MiB went through.
    let mut input = vec![0u8; round.payload_bytes.max(256)];
    DetRng::new(seed).fork("replay-hash").fill_bytes(&mut input);
    let rounds = ((32 << 20) / input.len()).max(1);
    let (_, hash_s) = spans.time("replay.ledger.hash", |_| {
        for _ in 0..rounds {
            black_box(Digest::of(black_box(&input)));
        }
    });
    out.per(
        "ledger.hash.ns_per_byte",
        "ns",
        hash_s * 1e9,
        (rounds * input.len()) as f64,
    );

    let leaves: Vec<Vec<Digest>> = store
        .iter()
        .map(|b| b.envelopes.iter().map(|e| e.digest()).collect())
        .collect();
    let (_, merkle_s) = spans.time("replay.ledger.merkle.root_of", |_| {
        for block in &leaves {
            black_box(MerkleTree::root_of(black_box(block)));
        }
    });
    out.per("ledger.merkle.root_ns_per_tx", "ns", merkle_s * 1e9, txs);
    drop(leaves);

    // ledger.blockstore: the run's chain out to bytes, back, and verified.
    let (bytes, write_s) = spans.time("replay.ledger.blockstore.write_to", |_| {
        let mut bytes = Vec::new();
        store
            .write_to(&mut bytes)
            .expect("writing to memory cannot fail");
        bytes
    });
    out.per(
        "ledger.blockstore.bytes_per_tx",
        "bytes",
        bytes.len() as f64,
        txs,
    );
    out.per(
        "ledger.blockstore.write_ns_per_tx",
        "ns",
        write_s * 1e9,
        txs,
    );
    let before = alloc::snapshot();
    let (reread, read_s) = spans.time("replay.ledger.blockstore.read_from", |_| {
        BlockStore::read_from(bytes.as_slice())
    });
    out.per("ledger.blockstore.read_ns_per_tx", "ns", read_s * 1e9, txs);
    out.per(
        "ledger.blockstore.heap_bytes_per_tx",
        "bytes",
        heap_since(before),
        txs,
    );
    ensure(
        reread.is_ok_and(|s| s.height() == store.height()),
        "the chain did not survive write_to/read_from",
    )?;
    drop(bytes);
    let (verified, verify_s) = spans.time("replay.ledger.blockstore.verify_chain", |_| {
        store.verify_chain()
    });
    ensure(verified.is_ok(), "peer 0's chain does not verify")?;
    out.per(
        "ledger.blockstore.verify_ns_per_block",
        "ns",
        verify_s * 1e9,
        blocks,
    );

    // ledger.statedb: a fresh StateDb fed the run's final key set, in an
    // order that is not the sorted one.
    let state = committer.state();
    let mut writes: Vec<_> = state
        .iter()
        .map(|(key, held)| {
            let write = KvWrite {
                key: key.clone(),
                value: Some(held.value.clone()),
            };
            (Digest::of(key.key.as_bytes()), write, held.version)
        })
        .collect();
    writes.sort_by_key(|(order, ..)| *order);
    let keys = writes.len() as f64;
    let before = alloc::snapshot();
    let (fresh, apply_s) = spans.time("replay.ledger.statedb.apply_write", |_| {
        let mut fresh = StateDb::new();
        for (_, write, version) in &writes {
            fresh.apply_write(write, *version);
        }
        fresh
    });
    out.per("ledger.statedb.apply_ns", "ns", apply_s * 1e9, keys);
    out.per(
        "ledger.statedb.heap_bytes_per_key",
        "bytes",
        heap_since(before),
        keys,
    );
    let (_, get_s) = spans.time("replay.ledger.statedb.get", |_| {
        for (_, write, _) in &writes {
            black_box(fresh.get(black_box(&write.key)));
        }
    });
    out.per("ledger.statedb.get_ns", "ns", get_s * 1e9, keys);
    let starts = writes.len().min(2_000);
    let (_, range_s) = spans.time("replay.ledger.statedb.range", |_| {
        for (_, write, _) in &writes[..starts] {
            let key = &write.key;
            black_box(fresh.range(&key.namespace, &key.key, "").take(100).count());
        }
    });
    out.per(
        "ledger.statedb.range100_ns",
        "ns",
        range_s * 1e9,
        starts as f64,
    );
    drop(fresh);

    // ledger.history and ledger.provgraph: copies built from peer 0's.
    let before = alloc::snapshot();
    let (history, _) = spans.time("replay.ledger.history.restore_key", |_| {
        let mut history = HistoryDb::new();
        for (key, entries) in committer.history().iter() {
            history.restore_key(key.clone(), entries.to_vec());
        }
        history
    });
    out.per(
        "ledger.history.heap_bytes_per_key",
        "bytes",
        heap_since(before),
        history.key_count() as f64,
    );
    drop(history);

    let updates: Vec<GraphUpdate> = writes
        .iter()
        .filter_map(|(_, write, _)| HyperProvIndexer.index(&write.key, write.value.as_deref()))
        .collect();
    drop(writes);
    let before = alloc::snapshot();
    let (graph, _) = spans.time("replay.ledger.provgraph.apply", |_| {
        let mut graph = ProvGraph::new();
        for update in &updates {
            graph.apply(update);
        }
        graph
    });
    out.per(
        "ledger.provgraph.heap_bytes_per_node",
        "bytes",
        heap_since(before),
        graph.len() as f64,
    );
    drop(graph);
    let roots: Vec<Vec<(u32, String)>> = updates
        .iter()
        .take(2_000)
        .filter_map(|update| match update {
            GraphUpdate::Insert { key, .. } => Some(vec![(0, key.clone())]),
            GraphUpdate::Remove { .. } => None,
        })
        .collect();
    let limits = TraversalLimits {
        max_depth: 16,
        max_nodes: 4_096,
    };
    let (_, traverse_s) = spans.time("replay.ledger.provgraph.traverse", |_| {
        for root in &roots {
            black_box(
                committer
                    .graph()
                    .traverse(root, Direction::Ancestors, limits, false),
            );
        }
    });
    out.per(
        "ledger.provgraph.traverse_ns",
        "ns",
        traverse_s * 1e9,
        roots.len() as f64,
    );
    drop((updates, roots));

    // ledger.snapshot: capture, verify and restore peer 0's state.
    let (snapshot, capture_s) = spans.time("replay.ledger.snapshot.capture", |_| {
        committer.snapshot(hyperprov_ledger::DEFAULT_CHUNK_ENTRIES)
    });
    let entries = snapshot.entry_count() as f64;
    out.per(
        "ledger.snapshot.capture_ns_per_key",
        "ns",
        capture_s * 1e9,
        entries,
    );
    let (verified, verify_s) = spans.time("replay.ledger.snapshot.verify", |_| snapshot.verify());
    ensure(verified.is_ok(), "a fresh snapshot does not verify")?;
    out.per(
        "ledger.snapshot.verify_ns_per_key",
        "ns",
        verify_s * 1e9,
        entries,
    );
    let (restored, restore_s) = spans.time("replay.ledger.snapshot.restore_state", |_| {
        snapshot.restore_state()
    });
    ensure(
        restored.len() == state.len(),
        "a snapshot restored fewer entries than the state holds",
    )?;
    out.per(
        "ledger.snapshot.restore_ns_per_key",
        "ns",
        restore_s * 1e9,
        entries,
    );
    out.per(
        "ledger.snapshot.wire_bytes_per_key",
        "bytes",
        snapshot.wire_size() as f64,
        entries,
    );
    drop((restored, snapshot));

    // fabric.committer: the whole commit path with no kernel around it.
    // A store pruned behind a snapshot cannot be replayed from genesis;
    // both values are then 0.
    let before = alloc::snapshot();
    let (recovered, recover_s) = spans.time("replay.fabric.committer.recover", |_| {
        (store.base_height() == 0).then(|| committer.recover())
    });
    let recovered = recovered
        .transpose()
        .map_err(|e| format!("layer replay: peer 0's chain does not replay: {e}"))?;
    let (replay_s, heap) = match &recovered {
        Some(recovered) => {
            ensure(
                recovered.state().state_hash() == state.state_hash(),
                "replaying peer 0's chain gave another state",
            )?;
            (recover_s, heap_since(before))
        }
        None => (0.0, 0.0),
    };
    out.per(
        "fabric.committer.replay_us_per_tx",
        "us",
        replay_s * 1e6,
        txs,
    );
    out.per("fabric.committer.heap_bytes_per_key", "bytes", heap, keys);
    drop(recovered);

    // offchain.store: the object store called directly with the
    // workload's payload size, 32 MiB in all.
    if round.payload_bytes == 0 {
        out.put("offchain.store.put_ns_per_byte", "ns", 0.0);
        out.put("offchain.store.get_ns_per_byte", "ns", 0.0);
        return Ok(());
    }
    let objects = ((32 << 20) / input.len()).max(1);
    let names: Vec<String> = (0..objects).map(|i| format!("replay-{i}")).collect();
    let object_store = MemoryStore::new();
    let (_, put_s) = spans.time("replay.offchain.store.put", |_| {
        for name in &names {
            object_store
                .put(name, black_box(&input))
                .expect("a valid name");
        }
    });
    let (_, get_s) = spans.time("replay.offchain.store.get", |_| {
        for name in &names {
            black_box(object_store.get(name).expect("just stored"));
        }
    });
    let moved = (objects * input.len()) as f64;
    out.per("offchain.store.put_ns_per_byte", "ns", put_s * 1e9, moved);
    out.per("offchain.store.get_ns_per_byte", "ns", get_s * 1e9, moved);
    Ok(())
}

/// Every per-layer metric of one traced round and the network it left.
///
/// # Errors
///
/// Returns which check broke when a layer, fed peer 0's own data, gave
/// back something else.
pub fn per_layer(
    round: &Round,
    net: &HyperProvNetwork,
    seed: u64,
    untraced: Untraced,
    spans: &mut Spans,
) -> Result<Sink, String> {
    let mut out = Sink::default();
    exported(round, net, untraced, &mut out);
    layers(round, net, seed, spans, &mut out)?;
    Ok(out)
}
