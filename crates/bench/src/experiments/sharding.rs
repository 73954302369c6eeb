//! T-SHARDING: multi-channel (sharded) scaling, desktop and RPi testbeds.
//!
//! The paper deploys a single Fabric channel; this campaign measures what
//! the architecture gains from hash-partitioning the provenance keyspace
//! over several channels, each with its own ordering pipeline and hosting
//! peer subset. Swept: shard count 1/2/4/8. Reported per cell: aggregate
//! goodput of a metadata-only `post` workload, commit latency per
//! channel, and the cost of the queries that must now scatter-gather or
//! hop across shards (`list`, `get_lineage`).

use hyperprov::{
    ChannelSpec, ClientCommand, HashRouter, HyperProvNetwork, OpId, OpOutput, RecordInput,
};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{Histogram, SimDuration};

use crate::report::MetricsExporter;
use crate::row;
use crate::runner::{run_closed_loop, Artefact, Summary, Until};
use crate::table::{Fmt, Table};
use crate::workload::post_cmd;

use super::{mean, op_ms, Platform};

/// Channel specifications for a `channels`-shard deployment over
/// `n_peers` peers: shard `c` is hosted by the peers with
/// `p % min(channels, n_peers) == c % min(channels, n_peers)`, so peers
/// partition across shards (and each peer hosts `channels / n_peers`
/// shards once there are more shards than peers).
pub(super) fn shard_specs(channels: usize, n_peers: usize) -> Vec<ChannelSpec> {
    if channels == 1 {
        // Keep the default channel name: a 1-shard deployment is the
        // legacy single-channel layout, byte-identical metrics included.
        return vec![ChannelSpec::new(hyperprov_ledger::DEFAULT_CHANNEL)];
    }
    let groups = channels.min(n_peers);
    (0..channels)
        .map(|c| {
            let hosts: Vec<usize> = (0..n_peers).filter(|p| p % groups == c % groups).collect();
            ChannelSpec::new(format!("{}-{c}", hyperprov_ledger::DEFAULT_CHANNEL)).with_peers(hosts)
        })
        .collect()
}

struct Cell {
    summary: Summary,
    per_channel_ms: Vec<f64>,
    lineage_ms: f64,
    list_ms: f64,
}

/// Runs one (platform, shard count) cell: a closed-loop metadata-only
/// `post` load phase, then a cross-shard query phase (an 8-deep lineage
/// chain plus full-ledger `list`).
fn run_cell(
    platform: Platform,
    channels: usize,
    clients: usize,
    duration: SimDuration,
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
    // Lineage chains hop shards, and a shard cannot see parents stored on
    // its neighbours — cross-channel parent links need the permissive
    // chaincode (same setting across the sweep, so cells stay comparable).
    config.permissive = true;
    let mut net = HyperProvNetwork::build(&config);

    // Load phase: unique keys, hash-routed across the shards.
    let result = run_closed_loop(
        &mut net,
        Until::Elapsed(duration),
        SimDuration::from_secs(10),
        |client, seq| post_cmd(format!("item-c{client}-s{seq}"), b"shard-bench"),
    );

    let summary = Summary::of(&result);
    let mut per_channel: Vec<Histogram> = (0..channels).map(|_| Histogram::new()).collect();
    for (_, completion) in &result.completions {
        if let Ok(OpOutput::Committed {
            record: Some(record),
            ..
        }) = &completion.outcome
        {
            let nanos = completion.latency().as_nanos();
            per_channel[HashRouter.route(&record.key, channels)].record(nanos);
        }
    }

    // Query phase. First lay down a lineage chain deep enough to hop
    // between shards a few times, one link at a time (children must see
    // committed parents).
    let chain_depth = 8usize;
    for i in 0..chain_depth {
        let parents = if i == 0 {
            vec![]
        } else {
            vec![format!("chain-{}", i - 1)]
        };
        let input = RecordInput::new(Digest::of(b"chain")).with_parents(parents);
        let done = op_ms(
            &mut net,
            ClientCommand::Post {
                key: format!("chain-{i}"),
                input,
                op: OpId(0),
            },
        );
        assert!(done.is_some(), "chain link {i} must commit");
    }
    let lineage_ms = mean(
        &(0..4)
            .map(|_| {
                op_ms(
                    &mut net,
                    ClientCommand::GetLineage {
                        key: format!("chain-{}", chain_depth - 1),
                        depth: chain_depth as u32,
                        op: OpId(0),
                    },
                )
                .expect("lineage over a committed chain")
            })
            .collect::<Vec<f64>>(),
    );
    let list_ms = mean(
        &(0..4)
            .map(|_| op_ms(&mut net, ClientCommand::List { op: OpId(0) }).expect("list succeeds"))
            .collect::<Vec<f64>>(),
    );

    exporter.add_run(
        &format!("platform={} channels={channels}", platform.name()),
        &net.sim,
    );
    Cell {
        summary,
        per_channel_ms: per_channel.iter().map(|h| h.mean() / 1e6).collect(),
        lineage_ms,
        list_ms,
    }
}

/// Runs the shard-count sweep: the scaling table (one row per platform ×
/// shard count), one metrics + trace snapshot per cell, and the table's
/// rows as the committed `BENCH_sharding.json` trajectory.
pub fn sharding_sweep(quick: bool) -> Vec<Artefact> {
    let (shard_counts, platforms, clients, duration): (Vec<usize>, Vec<Platform>, usize, _) =
        if quick {
            (
                vec![1, 2],
                vec![Platform::Desktop],
                8,
                SimDuration::from_secs(5),
            )
        } else {
            (
                vec![1, 2, 4, 8],
                vec![Platform::Desktop, Platform::Rpi],
                256,
                SimDuration::from_secs(10),
            )
        };

    let mut table = Table::new(
        "T-SHARDING: goodput and query cost vs shard count",
        &[
            ("platform", "platform", Fmt::Plain),
            ("channels", "channels", Fmt::Plain),
            ("goodput_tx_s", "goodput (tx/s)", Fmt::Fixed(1, "")),
            ("commit_mean_ms", "commit mean (ms)", Fmt::Fixed(2, "")),
            (
                "per_channel_commit_ms",
                "per-channel commit (ms)",
                Fmt::Plain,
            ),
            ("lineage_ms", "lineage (ms)", Fmt::Fixed(2, "")),
            ("list_ms", "list (ms)", Fmt::Fixed(2, "")),
            ("errors", "errors", Fmt::Plain),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_sharding");
    for &platform in &platforms {
        for &channels in &shard_counts {
            let cell = run_cell(platform, channels, clients, duration, 100, &mut exporter);
            table.push_row(row![
                platform.name(),
                channels,
                cell.summary.throughput,
                cell.summary.mean_latency_ms(),
                cell.per_channel_ms
                    .iter()
                    .map(|ms| format!("{ms:.2}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                cell.lineage_ms,
                cell.list_ms,
                cell.summary.err,
                cell.summary.unfinished,
            ]);
        }
    }
    let trajectory = Artefact::trajectory(
        "BENCH_sharding.json",
        "T-SHARDING",
        "goodput, commit latency and query cost vs shard count",
        &[&table],
    );
    vec![
        Artefact::table(table, "table_sharding"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}
