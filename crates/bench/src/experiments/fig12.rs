//! Figures 1 and 2: throughput and response time vs data-item size, on
//! the desktop (Fig. 1) and Raspberry Pi (Fig. 2) testbeds.
//!
//! "Fig. 1 shows how increasing the size of data items impacts both
//! throughput and response times, when off-chain storage is involved [...]
//! which incurs the overhead of data transfer and checksum calculation.
//! Fig. 2 shows similar trend [...] for RPi though greater variation,
//! however absolute performance for RPi is lower than desktop machines."

use std::collections::BTreeMap;

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::{DetRng, Histogram, SimDuration};

use crate::report::{breakdown_table, merge_stages, MetricsExporter};
use crate::row;
use crate::runner::{run_closed_loop, Artefact, Summary, Until};
use crate::table::{Fmt, Table};
use crate::workload::{payload, store_cmd};

/// Which testbed to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The 4-desktop setup (Fig. 1).
    Desktop,
    /// The 4-RPi setup (Fig. 2).
    Rpi,
}

impl Platform {
    /// The testbed's deployment with `clients` clients.
    pub fn config(self, clients: usize) -> NetworkConfig {
        match self {
            Platform::Desktop => NetworkConfig::desktop(clients),
            Platform::Rpi => NetworkConfig::rpi(clients),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Desktop => "desktop",
            Platform::Rpi => "rpi",
        }
    }
}

/// The rows of a figure as part of the committed `BENCH_paper.json`
/// trajectory (Figs 1–3 share the file; the regression gate's
/// paper-shape rows read it).
pub(super) fn paper_trajectory(table: &Table) -> Artefact {
    Artefact::trajectory(
        "BENCH_paper.json",
        "PAPER",
        "Figs 1-3: throughput and response time vs data size (desktop, RPi), RPi power vs load",
        &[table],
    )
}

/// Runs the data-size sweep for one platform: the figure's series
/// (`size, throughput (tx/s) ± std, response time (ms) ± std`), the
/// per-stage latency breakdown aggregated over every run, one metrics +
/// trace snapshot per `(size, seed)` run, and the figure's rows of
/// `BENCH_paper.json`.
pub fn size_sweep(platform: Platform, quick: bool) -> Vec<Artefact> {
    let (sizes, clients, duration, seeds): (Vec<usize>, usize, SimDuration, u64) = if quick {
        (
            vec![1 << 10, 1 << 16, 1 << 20],
            16,
            SimDuration::from_secs(10),
            1,
        )
    } else {
        (
            vec![
                1 << 10, // 1 KiB
                1 << 12,
                1 << 14,
                1 << 16, // 64 KiB
                1 << 18,
                1 << 20, // 1 MiB
                1 << 22,
                1 << 24, // 16 MiB
            ],
            32,
            SimDuration::from_secs(30),
            3,
        )
    };

    let (fig, name, stages_name) = match platform {
        Platform::Desktop => ("Fig. 1", "fig1_desktop", "fig1_desktop_stages"),
        Platform::Rpi => ("Fig. 2", "fig2_rpi", "fig2_rpi_stages"),
    };
    let mut table = Table::new(
        format!(
            "{fig}: throughput and response times vs data size ({})",
            platform.name()
        ),
        &[
            ("platform", "", Fmt::Plain),
            ("size_bytes", "data size", Fmt::Bytes),
            ("throughput_tx_s", "throughput (tx/s)", Fmt::Fixed(1, "")),
            ("throughput_std", "tput std", Fmt::Fixed(1, "")),
            ("resp_ms", "resp time (ms)", Fmt::Fixed(1, "")),
            ("resp_p95_ms", "resp p95 (ms)", Fmt::Fixed(1, "")),
            ("resp_std_ms", "resp std (ms)", Fmt::Fixed(1, "")),
            // Relative spread of the response time: the paper's "greater
            // variation" on the RPi, as one number per size.
            ("resp_std_over_mean", "", Fmt::Plain),
            ("errors", "errors", Fmt::Plain),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );

    let mut exporter = MetricsExporter::new(name);
    let mut stages: BTreeMap<String, Histogram> = BTreeMap::new();
    for &size in &sizes {
        let mut tputs = Vec::new();
        let mut lat_means = Vec::new();
        let mut lat_p95s = Vec::new();
        let mut lat_stds = Vec::new();
        let (mut errors, mut unfinished) = (0u64, 0u64);
        for seed in 0..seeds {
            let summary = run_one(
                platform,
                clients,
                size,
                duration,
                100 + seed,
                &mut exporter,
                &mut stages,
            );
            tputs.push(summary.throughput);
            lat_means.push(summary.mean_latency_ms());
            lat_p95s.push(summary.latency_ms(0.95));
            lat_stds.push(summary.stddev_latency_ms());
            errors += summary.err;
            unfinished += summary.unfinished;
        }
        let (resp, resp_std) = (mean(&lat_means), mean(&lat_stds));
        table.push_row(row![
            platform.name(),
            size,
            mean(&tputs),
            std_dev(&tputs),
            resp,
            mean(&lat_p95s),
            resp_std,
            resp_std / resp,
            errors,
            unfinished,
        ]);
    }
    let breakdown = breakdown_table(
        format!("{fig}: per-stage latency breakdown ({})", platform.name()),
        &stages,
    );
    let paper = paper_trajectory(&table);
    vec![
        Artefact::table(table, name),
        Artefact::table(breakdown, stages_name),
        Artefact::Metrics(exporter),
        paper,
    ]
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    platform: Platform,
    clients: usize,
    size: usize,
    duration: SimDuration,
    seed: u64,
    exporter: &mut MetricsExporter,
    stages: &mut BTreeMap<String, Histogram>,
) -> Summary {
    let config = platform
        .config(clients)
        .with_seed(seed)
        .with_batch(BatchConfig {
            // The thesis tunes the batch timeout well below the default
            // 2 s for throughput experiments; 100 ms keeps batching
            // without letting the timeout dominate small-item latencies.
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);
    let mut rng = DetRng::new(seed).fork("payload");
    // The drain waits for every issued operation: the slowest, an RPi
    // 16 MiB store, finishes about 33 s after the window.
    let result = run_closed_loop(
        &mut net,
        Until::Elapsed(duration),
        SimDuration::from_secs(60),
        move |client, seq| {
            let data = payload(&mut rng, size);
            store_cmd(format!("item-c{client}-s{seq}"), data)
        },
    );
    exporter.add_run(&format!("size={size} seed={seed}"), &net.sim);
    merge_stages(stages, &net.sim);
    Summary::of(&result)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (0 for < 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}
