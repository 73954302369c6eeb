//! T-PIPELINE: FastFabric-style commit-path acceleration sweep.
//!
//! The paper's commit path validates every transaction serially on one
//! core; this campaign measures what the peers gain from the commit
//! pipeline on top of that baseline: multi-lane VSCC (endorsement
//! signature + policy checks fanned out over the device's cores) and
//! validate/apply pipelining across consecutive blocks. Swept: 1/2/4
//! VSCC lanes on the desktop and RPi testbeds under a saturating
//! closed-loop `post` load with hot parent keys. Reported per cell:
//! commit-stage goodput and validate-stage p50/p99.

use hyperprov::{ClientCommand, HyperProvNetwork, OpId, RecordInput};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{SimDuration, SloObjective, SloSpec};

use crate::report::MetricsExporter;
use crate::row;
use crate::runner::{run_closed_loop, Artefact, Summary, Until};
use crate::table::{Fmt, Table};

use super::{op_ms, Platform};

/// Number of shared parent records the load phase links every post to;
/// the workload is unchanged since the sweep was first recorded, so each
/// cell replays its committed numbers.
const HOT_PARENTS: usize = 4;

struct Cell {
    summary: Summary,
    validate_p50_ms: f64,
    validate_p99_ms: f64,
}

/// Runs one (platform, lanes) cell: seeds the hot parent records, then
/// drives a closed-loop `post` load where every record links to one of
/// the shared parents.
fn run_cell(
    platform: Platform,
    lanes: usize,
    clients: usize,
    duration: SimDuration,
    seed: u64,
    slos: &[SloSpec],
    exporter: &mut MetricsExporter,
) -> Cell {
    let config = platform
        .config(clients)
        .with_seed(seed)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        })
        .with_vscc_lanes(lanes)
        .with_slos(slos.to_vec());
    let mut net = HyperProvNetwork::build(&config);

    // Seed the shared parents all load-phase posts will link to.
    for p in 0..HOT_PARENTS {
        let done = op_ms(
            &mut net,
            ClientCommand::Post {
                key: format!("parent-{p}"),
                input: RecordInput::new(Digest::of(b"pipeline-parent")),
                op: OpId(0),
            },
        );
        assert!(done.is_some(), "parent {p} must commit");
    }

    // Load phase: unique keys, each linking to a hot parent.
    let result = run_closed_loop(
        &mut net,
        Until::Elapsed(duration),
        SimDuration::from_secs(10),
        |client, seq| ClientCommand::Post {
            key: format!("item-c{client}-s{seq}"),
            input: RecordInput::new(Digest::of(b"pipeline-bench")).with_parents(vec![format!(
                "parent-{}",
                (client + seq as usize) % HOT_PARENTS
            )]),
            op: OpId(0),
        },
    );

    let summary = Summary::of(&result);
    // The "validate" span covers the whole per-block commit (VSCC +
    // MVCC/apply), so its quantiles are comparable across the sweep.
    let validate = net
        .sim
        .tracer()
        .stage_histogram("validate")
        .cloned()
        .unwrap_or_default();

    exporter.add_run(
        &format!("platform={} lanes={lanes}", platform.name()),
        &net.sim,
    );
    Cell {
        summary,
        validate_p50_ms: validate.quantile(0.50) as f64 / 1e6,
        validate_p99_ms: validate.quantile(0.99) as f64 / 1e6,
    }
}

/// Runs the lanes sweep: the acceleration table (one row per platform ×
/// lanes), one metrics + trace snapshot per cell, and the table's rows as
/// the committed `BENCH_commit.json` trajectory.
pub fn pipeline_sweep(quick: bool) -> Vec<Artefact> {
    type Cfg = (Vec<Platform>, &'static [usize], usize, SimDuration);
    let (platforms, cells, clients, duration): Cfg = if quick {
        (
            vec![Platform::Desktop],
            &[1, 4],
            8,
            SimDuration::from_secs(4),
        )
    } else {
        (
            vec![Platform::Desktop, Platform::Rpi],
            &[1, 2, 4],
            96,
            SimDuration::from_secs(10),
        )
    };

    let mut table = Table::new(
        "T-PIPELINE: commit goodput vs VSCC lanes",
        &[
            ("platform", "platform", Fmt::Plain),
            ("lanes", "lanes", Fmt::Plain),
            ("goodput_tx_s", "goodput (tx/s)", Fmt::Fixed(1, "")),
            ("speedup_vs_serial", "vs serial", Fmt::Fixed(2, "x")),
            ("commit_p50_ms", "validate p50 (ms)", Fmt::Fixed(2, "")),
            ("commit_p99_ms", "validate p99 (ms)", Fmt::Fixed(2, "")),
            ("errors", "errors", Fmt::Plain),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_commit_pipeline");
    // The commit path is watched with SLOs (validate-span latency,
    // committed-tx goodput); the burn series land in the metrics export.
    let slos = [
        SloSpec::new(
            "validate-p99",
            SloObjective::LatencyQuantile {
                source: "validate".into(),
                q: 0.99,
                budget: SimDuration::from_millis(250),
            },
            SimDuration::from_secs(2),
        ),
        SloSpec::new(
            "commit-goodput",
            SloObjective::GoodputFloor {
                source: "commit.tx".into(),
                floor_per_sec: 20.0,
            },
            SimDuration::from_secs(2),
        ),
    ];
    for &platform in &platforms {
        let mut serial_goodput = None;
        for &lanes in cells {
            let cell = run_cell(
                platform,
                lanes,
                clients,
                duration,
                100,
                &slos,
                &mut exporter,
            );
            let goodput = cell.summary.throughput;
            let baseline = *serial_goodput.get_or_insert(goodput);
            let speedup = if baseline > 0.0 {
                goodput / baseline
            } else {
                0.0
            };
            table.push_row(row![
                platform.name(),
                lanes,
                goodput,
                speedup,
                cell.validate_p50_ms,
                cell.validate_p99_ms,
                cell.summary.err,
                cell.summary.unfinished,
            ]);
        }
    }
    let trajectory = Artefact::trajectory(
        "BENCH_commit.json",
        "T-PIPELINE",
        "commit-stage goodput and validate-span quantiles",
        &[&table],
    );
    vec![
        Artefact::table(table, "table_commit_pipeline"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}
