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

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::{DetRng, Histogram, QueueConfig, SimDuration};

use super::Platform;
use crate::report::{breakdown_table, merge_stages, MetricsExporter};
use crate::runner::{run_open_loop, Summary};
use crate::table::Table;
use crate::workload::{payload, store_cmd, uniform_arrivals};

/// Peer admission-queue bound used throughout the sweep.
const PEER_QUEUE_CAPACITY: usize = 32;

/// Payload size: the 1 KiB point of Fig. 1/Fig. 2, where the testbeds
/// saturate at roughly 530 tx/s (desktop) and 75 tx/s (RPi).
const ITEM_BYTES: usize = 1 << 10;

/// The overload sweep plus its observability artefacts.
#[derive(Debug)]
pub struct OverloadReport {
    /// Goodput / rejection series per platform and offered rate.
    pub table: Table,
    /// Per-stage latency breakdown (includes the `queue.wait` stage).
    pub breakdown: Table,
    /// One metrics + trace snapshot per `(platform, rate)` run.
    pub exporter: MetricsExporter,
}

fn base_config(platform: Platform, clients: usize) -> NetworkConfig {
    match platform {
        Platform::Desktop => NetworkConfig::desktop(clients),
        Platform::Rpi => NetworkConfig::rpi(clients),
    }
}

/// Runs the overload sweep: uniform open-loop arrivals from well below to
/// well past each testbed's saturation rate, peers bounded at
/// [`PEER_QUEUE_CAPACITY`] with the nack policy.
pub fn overload_sweep(quick: bool) -> OverloadReport {
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
            "platform",
            "offered (tx/s)",
            "offered ops",
            "completed ok",
            "goodput (tx/s)",
            "rejected",
            "reject rate",
            "queue.wait p99 (ms)",
        ],
    );
    let mut exporter = MetricsExporter::new("table_overload");
    let mut stages: BTreeMap<String, Histogram> = BTreeMap::new();

    for (platform, rates) in [
        (Platform::Desktop, desktop_rates),
        (Platform::Rpi, rpi_rates),
    ] {
        for &rate in &rates {
            let config = base_config(platform, clients)
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
            let summary = Summary::of(&result.completions, result.span);

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
            table.push_row(vec![
                platform.name().to_owned(),
                format!("{rate:.0}"),
                offered.to_string(),
                summary.ok.to_string(),
                format!("{:.1}", summary.throughput),
                rejected.to_string(),
                format!("{:.1}%", rejected as f64 / (offered.max(1)) as f64 * 100.0),
                format!("{:.3}", wait.quantile(0.99) as f64 / 1e6),
            ]);
        }
    }

    let breakdown = breakdown_table(
        "T-OVERLOAD: per-stage latency breakdown (both platforms, all rates)",
        &stages,
    );
    OverloadReport {
        table,
        breakdown,
        exporter,
    }
}
