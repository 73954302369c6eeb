//! T-LINEAGE: lineage and ancestry queries over the DAG index.
//!
//! The materialized provenance graph answers lineage, ancestry and
//! closure queries from a per-channel index maintained at commit time,
//! and the sharded client resolves cross-shard traversals in batched
//! frontier rounds. This campaign measures them: over
//! [`crate::workload::deep_dag`] DAGs of swept depth × fan-out, on
//! single- and 4-shard deployments (desktop and RPi), it reports the
//! `get_lineage` p50/p99 (the ancestry traversal plus one record read per
//! entry) against the keys-only `get_ancestry` query's, the
//! transitive-closure cost, and the ancestry query's latency while
//! concurrent writers keep committing into the same channels. Full runs
//! also emit the machine-readable `BENCH_lineage.json` trajectory.

use hyperprov::{ClientCommand, HyperProvNetwork, NodeMsg, OpId, RecordInput};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::SimDuration;

use crate::report::MetricsExporter;
use crate::row;
use crate::runner::Artefact;
use crate::table::{Fmt, Table};
use crate::workload::{deep_dag, deep_dag_sink};

use super::sharding::shard_specs;
use super::{op_ms, Platform};

struct Cell {
    nodes: usize,
    lineage_p50_ms: f64,
    lineage_p99_ms: f64,
    graph_p50_ms: f64,
    graph_p99_ms: f64,
    closure_ms: f64,
    loaded_graph_p50_ms: f64,
    dangling: u64,
}

/// The p-th percentile of a latency sample (nearest-rank).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Runs one (platform, shards, depth, fan-out) cell: commits the deep
/// DAG, then measures the lineage, the keys-only index queries, and the
/// ancestry query under a concurrent `post` load from the other clients.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    platform: Platform,
    channels: usize,
    depth: u32,
    fan_out: usize,
    clients: usize,
    iters: usize,
    seed: u64,
    exporter: &mut MetricsExporter,
) -> Cell {
    let mut config = platform
        .config(clients)
        .with_seed(seed)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        });
    let n_peers = config.peer_devices.len();
    config = config.with_channel_specs(shard_specs(channels, n_peers));
    // Parent links hop shards, and a shard cannot see its neighbours'
    // state — cross-channel DAGs need the permissive chaincode (used
    // across the whole sweep so the cells stay comparable).
    config.permissive = true;
    let mut net = HyperProvNetwork::build(&config);

    // Commit the DAG one node at a time (children must see committed
    // parents at endorsement time).
    let dag = deep_dag(depth, fan_out);
    for (key, parents) in &dag {
        let input = RecordInput::new(Digest::of(key.as_bytes())).with_parents(parents.clone());
        let done = op_ms(
            &mut net,
            ClientCommand::Post {
                key: key.clone(),
                input,
                op: OpId(0),
            },
        );
        assert!(done.is_some(), "DAG node {key} must commit");
    }
    let sink = deep_dag_sink().to_owned();

    // The lineage: the ancestry traversal, with every entry's record.
    let mut lineage: Vec<f64> = (0..iters)
        .map(|_| {
            op_ms(
                &mut net,
                ClientCommand::GetLineage {
                    key: sink.clone(),
                    depth,
                    op: OpId(0),
                },
            )
            .expect("lineage over a committed DAG")
        })
        .collect();

    // The keys-only ancestry query over the same DAG.
    let mut graph: Vec<f64> = (0..iters)
        .map(|_| {
            op_ms(
                &mut net,
                ClientCommand::GetAncestry {
                    key: sink.clone(),
                    depth,
                    op: OpId(0),
                },
            )
            .expect("index ancestry over a committed DAG")
        })
        .collect();

    // Transitive closure from a mid-DAG node: ancestors and descendants
    // in one traversal (crosses shards in both directions).
    let mid = format!("dag-l{}-n0", depth / 2);
    let mut closure: Vec<f64> = (0..iters)
        .map(|_| {
            op_ms(
                &mut net,
                ClientCommand::GetClosure {
                    key: mid.clone(),
                    depth,
                    op: OpId(0),
                },
            )
            .expect("closure over a committed DAG")
        })
        .collect();

    // Deep lineage under write load: every other client posts a fresh
    // record right before the query is issued, so ordering, commit and
    // index maintenance run concurrently with the traversal. Each post has
    // an op id of its own: concurrent operations under one id would share
    // their spans.
    let clients = net.clients.len();
    let mut loaded: Vec<f64> = (0..iters)
        .map(|iter| {
            for c in 1..clients {
                let key = format!("load-c{c}-i{iter}");
                let input = RecordInput::new(Digest::of(key.as_bytes()));
                let op = OpId((1 + iter * clients + c) as u64);
                let post = ClientCommand::Post { key, input, op };
                net.sim
                    .inject_message(net.clients[c], NodeMsg::Client(post));
            }
            let ms = op_ms(
                &mut net,
                ClientCommand::GetAncestry {
                    key: sink.clone(),
                    depth,
                    op: OpId(0),
                },
            )
            .expect("index ancestry under load");
            for c in 1..net.clients.len() {
                net.completions[c].borrow_mut().clear();
            }
            ms
        })
        .collect();
    // Let the background posts drain before snapshotting metrics.
    let now = net.sim.now();
    net.sim.run_until(now + SimDuration::from_secs(5));
    for c in 1..net.clients.len() {
        net.completions[c].borrow_mut().clear();
    }

    let dangling = net
        .sim
        .metrics()
        .counters()
        .filter(|(name, _)| name.ends_with("dangling_parent"))
        .map(|(_, v)| v)
        .sum();
    exporter.add_run(
        &format!(
            "platform={} channels={channels} depth={depth} fanout={fan_out}",
            platform.name()
        ),
        &net.sim,
    );
    Cell {
        nodes: dag.len(),
        lineage_p50_ms: percentile(&mut lineage, 0.50),
        lineage_p99_ms: percentile(&mut lineage, 0.99),
        graph_p50_ms: percentile(&mut graph, 0.50),
        graph_p99_ms: percentile(&mut graph, 0.99),
        closure_ms: percentile(&mut closure, 0.50),
        loaded_graph_p50_ms: percentile(&mut loaded, 0.50),
        dangling,
    }
}

/// Runs the depth × fan-out × shard sweep: the query-cost table (one row
/// per platform × shards × depth × fan-out), one metrics + trace snapshot
/// per cell, and the table's rows as the committed `BENCH_lineage.json`
/// trajectory.
pub fn lineage_sweep(quick: bool) -> Vec<Artefact> {
    type Cfg = (Vec<Platform>, Vec<usize>, Vec<(u32, usize)>, usize, usize);
    let (platforms, shard_counts, shapes, clients, iters): Cfg = if quick {
        (vec![Platform::Desktop], vec![1, 4], vec![(4, 2)], 2, 3)
    } else {
        (
            vec![Platform::Desktop, Platform::Rpi],
            vec![1, 4],
            vec![(2, 1), (2, 2), (8, 1), (8, 2), (16, 1), (16, 2)],
            4,
            9,
        )
    };

    let mut table = Table::new(
        "T-LINEAGE: lineage (records) vs ancestry (keys) over the DAG index",
        &[
            ("platform", "platform", Fmt::Plain),
            ("shards", "shards", Fmt::Plain),
            ("depth", "depth", Fmt::Plain),
            ("fan_out", "fanout", Fmt::Plain),
            ("nodes", "nodes", Fmt::Plain),
            ("lineage_p50_ms", "lineage p50 (ms)", Fmt::Fixed(2, "")),
            ("lineage_p99_ms", "lineage p99 (ms)", Fmt::Fixed(2, "")),
            ("graph_p50_ms", "graph p50 (ms)", Fmt::Fixed(2, "")),
            ("graph_p99_ms", "graph p99 (ms)", Fmt::Fixed(2, "")),
            (
                "lineage_over_graph_p50",
                "lineage/graph p50",
                Fmt::Fixed(2, "x"),
            ),
            ("closure_p50_ms", "closure p50 (ms)", Fmt::Fixed(2, "")),
            (
                "loaded_graph_p50_ms",
                "loaded graph p50 (ms)",
                Fmt::Fixed(2, ""),
            ),
            ("dangling", "dangling", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_lineage");
    for &platform in &platforms {
        for &channels in &shard_counts {
            for &(depth, fan_out) in &shapes {
                let cell = run_cell(
                    platform,
                    channels,
                    depth,
                    fan_out,
                    clients,
                    iters,
                    100,
                    &mut exporter,
                );
                let ratio = if cell.graph_p50_ms > 0.0 {
                    cell.lineage_p50_ms / cell.graph_p50_ms
                } else {
                    0.0
                };
                table.push_row(row![
                    platform.name(),
                    channels,
                    depth,
                    fan_out,
                    cell.nodes,
                    cell.lineage_p50_ms,
                    cell.lineage_p99_ms,
                    cell.graph_p50_ms,
                    cell.graph_p99_ms,
                    ratio,
                    cell.closure_ms,
                    cell.loaded_graph_p50_ms,
                    cell.dangling,
                ]);
            }
        }
    }
    let trajectory = Artefact::trajectory(
        "BENCH_lineage.json",
        "T-LINEAGE",
        "lineage-query latency: lineage (records) vs ancestry (keys) over the DAG index",
        &[&table],
    );
    vec![
        Artefact::table(table, "table_lineage"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}
