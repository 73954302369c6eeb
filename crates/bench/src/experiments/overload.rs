//! T-OVERLOAD: goodput, backpressure and queue wait past saturation.
//!
//! The original work-at-arrival architecture serviced every arrival, so
//! offered load past a node's CPU capacity only grew latency without
//! bound — overload could not be expressed as loss. With bounded
//! admission queues the peers nack excess proposals
//! ([`hyperprov_fabric::BUSY_REASON`]), so this sweep drives open-loop
//! store load past saturation on both testbeds and reports goodput,
//! nack rate and p99 queue wait: the saturation knee the paper only
//! observes qualitatively, made quantitative.

use std::collections::BTreeMap;

use hyperprov::HyperProvNetwork;
use hyperprov_fabric::{BatchConfig, QueueConfig};
use hyperprov_sim::{DetRng, Histogram, SimDuration};

use super::Platform;
use crate::report::{breakdown_table, merge_stages, MetricsExporter};
use crate::row;
use crate::runner::{run_open_loop, Artefact, Summary};
use crate::table::{Fmt, Table};
use crate::workload::{payload, store_cmd, uniform_arrivals};

/// Peer admission-queue bound used throughout the sweep.
const PEER_QUEUE_CAPACITY: usize = 32;

/// Payload size: the 1 KiB point of Fig. 1/Fig. 2, where the testbeds
/// saturate at roughly 530 tx/s (desktop) and 75 tx/s (RPi).
const ITEM_BYTES: usize = 1 << 10;

/// Runs the overload sweep: uniform open-loop arrivals from well below to
/// well past each testbed's saturation rate, peers bounded at
/// [`PEER_QUEUE_CAPACITY`] with the nack policy. Returns the goodput /
/// rejection series per platform and offered rate, the per-stage latency
/// breakdown (includes the `queue.wait` stage), one metrics + trace
/// snapshot per `(platform, rate)` run, and the series' rows as the
/// committed `BENCH_overload.json` trajectory.
pub fn overload_sweep(quick: bool) -> Vec<Artefact> {
    let (desktop_rates, rpi_rates, clients, duration, drain): (
        Vec<f64>,
        Vec<f64>,
        usize,
        SimDuration,
        SimDuration,
    ) = if quick {
        (
            vec![300.0, 900.0],
            vec![40.0, 130.0],
            8,
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
        )
    } else {
        (
            vec![200.0, 400.0, 600.0, 800.0, 1000.0],
            vec![25.0, 50.0, 75.0, 100.0, 150.0],
            16,
            SimDuration::from_secs(20),
            SimDuration::from_secs(15),
        )
    };

    let mut table = Table::new(
        format!(
            "T-OVERLOAD: goodput and backpressure vs offered load (open loop, \
             1 KiB items, peers bounded {PEER_QUEUE_CAPACITY}/nack)"
        ),
        &[
            ("platform", "platform", Fmt::Plain),
            ("offered_tx_s", "offered (tx/s)", Fmt::Fixed(0, "")),
            ("offered_ops", "offered ops", Fmt::Plain),
            ("completed_ok", "completed ok", Fmt::Plain),
            ("goodput_tx_s", "goodput (tx/s)", Fmt::Fixed(1, "")),
            ("rejected", "rejected", Fmt::Plain),
            ("reject_rate_pct", "reject rate", Fmt::Fixed(1, "%")),
            (
                "queue_wait_p99_ms",
                "queue.wait p99 (ms)",
                Fmt::Fixed(3, ""),
            ),
        ],
    );
    let mut exporter = MetricsExporter::new("table_overload");
    let mut stages: BTreeMap<String, Histogram> = BTreeMap::new();

    for (platform, rates) in [
        (Platform::Desktop, desktop_rates),
        (Platform::Rpi, rpi_rates),
    ] {
        for &rate in &rates {
            let config = platform
                .config(clients)
                .with_seed(7)
                .with_batch(BatchConfig {
                    timeout: SimDuration::from_millis(100),
                    ..BatchConfig::default()
                })
                .with_peer_queue(QueueConfig::new(PEER_QUEUE_CAPACITY));
            let mut net = HyperProvNetwork::build(&config);
            let mut rng = DetRng::new(7).fork("overload");
            let arrivals = uniform_arrivals(rate, duration, clients);
            let offered = arrivals.len() as u64;
            let result = run_open_loop(&mut net, &arrivals, drain, |c, i| {
                let data = payload(&mut rng, ITEM_BYTES);
                store_cmd(format!("item-{i}-c{c}"), data)
            });
            let summary = Summary::of(&result);

            let n_peers = net.peers.len();
            let rejected: u64 = (0..n_peers)
                .map(|i| net.sim.metrics().counter(&format!("queue.nacked.peer{i}")))
                .sum();
            let mut wait = Histogram::new();
            for i in 0..n_peers {
                if let Some(h) = net.sim.metrics().histogram(&format!("queue.wait.peer{i}")) {
                    wait.merge(h);
                }
            }

            exporter.add_run(&format!("{} rate={rate:.0}", platform.name()), &net.sim);
            merge_stages(&mut stages, &net.sim);
            table.push_row(row![
                platform.name(),
                rate,
                offered,
                summary.ok,
                summary.throughput,
                rejected,
                rejected as f64 / (offered.max(1)) as f64 * 100.0,
                wait.quantile(0.99) as f64 / 1e6,
            ]);
        }
    }

    let breakdown = breakdown_table(
        "T-OVERLOAD: per-stage latency breakdown (both platforms, all rates)",
        &stages,
    );
    let trajectory = Artefact::trajectory(
        "BENCH_overload.json",
        "T-OVERLOAD",
        "goodput and admission rejections vs offered load (open loop, 1 KiB items)",
        &[&table],
    );
    vec![
        Artefact::table(table, "table_overload"),
        Artefact::table(breakdown, "table_overload_stages"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}
