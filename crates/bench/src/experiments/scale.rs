//! T-SCALE: the harness at edge-population scale — 10,000 open-loop
//! clients posting provenance records over 1,000,000 unique keys.
//!
//! The paper's testbeds stop at a handful of clients; this campaign runs
//! the default deployment two to three orders of magnitude past the
//! reference workloads on one host. Two properties of the one production
//! path make that possible: a commit event goes to the submitting client
//! only (a per-event broadcast would be quadratic at 10k clients), and
//! [`crate::runner::run_open_loop`] builds each command at its arrival
//! instant, so the million-command schedule never materialises.
//!
//! Like BENCH-SIM, the campaign reports deterministic *model* metrics
//! (completions, goodput, latency quantiles in virtual time) and
//! machine-dependent *host* metrics (wall seconds, events per
//! wall-second, peak RSS). `bench_regress --update` records the quick
//! variant as the `scale` cell of the committed `BENCH_sim.json`.

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::SimDuration;

use crate::row;
use crate::runner::{run_open_loop, Artefact, Summary};
use crate::table::{trajectory_json, Fmt, Table};
use crate::workload::{post_cmd, uniform_arrivals};

/// Campaign seed.
const SEED: u64 = 29;

/// Runs the scale campaign: `quick` shrinks the population three orders
/// of magnitude for CI smoke runs; the full run is 10k clients x 100
/// unique keys each = 1M operations. Returns the profile (model + host
/// metrics, one line per metric) and its JSON rendering.
pub fn scale_campaign(quick: bool) -> Vec<Artefact> {
    // The full offered rate sits at ~80 % of the pipeline's saturated
    // goodput for metadata posts at this batch shape (~490 tx/s measured
    // under overload), so the backlog stays bounded and every operation
    // completes inside the drain window.
    let (clients, keys_per_client, rate) = if quick {
        (200usize, 5u64, 500.0)
    } else {
        (10_000usize, 100u64, 400.0)
    };
    let total_ops = clients as u64 * keys_per_client;
    let window = SimDuration::from_secs_f64(total_ops as f64 / rate);

    let config = NetworkConfig::desktop(clients)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            max_message_count: 500,
            timeout: SimDuration::from_millis(250),
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);
    net.sim.enable_profiler();

    // Uniform open-loop arrivals, round-robin over the population. Each
    // operation posts a metadata-only record under a key unique to
    // (client, sequence) — `total_ops` distinct keys overall.
    let arrivals = uniform_arrivals(rate, window, clients);
    let per_client = keys_per_client;
    let result = run_open_loop(
        &mut net,
        &arrivals,
        SimDuration::from_secs(600),
        |client, index| {
            let seq = index / clients as u64;
            debug_assert!(seq < per_client);
            let key = format!("scale-c{client:05}-k{seq:03}");
            let checksum = key.clone().into_bytes();
            post_cmd(key, &checksum)
        },
    );
    let summary = Summary::of(&result);

    let hot = net.sim.hot_counters();
    let events = net.sim.events_processed();
    let wall = net.sim.profiler().wall_elapsed().as_secs_f64();
    let events_per_sec = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let peak_rss = hyperprov_sim::peak_rss_bytes().unwrap_or(0);

    let mut table = Table::profile(
        format!(
            "T-SCALE: {clients} open-loop clients, {total_ops} unique keys \
             ({rate:.0} ops/s)"
        ),
        &[
            ("profile", "", Fmt::Plain),
            ("workload", "", Fmt::Plain),
            ("model.issued", "model: operations issued", Fmt::Plain),
            ("model.ok", "model: completions ok", Fmt::Plain),
            ("model.err", "model: completions err", Fmt::Plain),
            ("model.hung", "", Fmt::Plain),
            ("model.unique_keys", "", Fmt::Plain),
            (
                "model.goodput_tx_s",
                "model: goodput (tx/s virtual)",
                Fmt::Fixed(1, ""),
            ),
            (
                "model.op_p50_ms",
                "model: op p50 (ms virtual)",
                Fmt::Fixed(2, ""),
            ),
            (
                "model.op_p95_ms",
                "model: op p95 (ms virtual)",
                Fmt::Fixed(2, ""),
            ),
            ("model.events", "model: kernel events", Fmt::Plain),
            ("model.messages", "model: messages sent", Fmt::Plain),
            ("host.wall_s", "host: wall (s)", Fmt::Fixed(3, "")),
            (
                "host.events_per_sec",
                "host: events/sec (wall)",
                Fmt::Fixed(0, ""),
            ),
            (
                "host.peak_rss_mib",
                "host: peak RSS (MiB)",
                Fmt::Fixed(1, ""),
            ),
        ],
    );
    table.push_row(row![
        "scale",
        format!("open-loop post, {clients} clients, {total_ops} unique keys, {rate:.0} ops/s"),
        result.issued,
        summary.ok,
        summary.err,
        summary.unfinished,
        total_ops,
        summary.throughput,
        summary.latency_ms(0.50),
        summary.latency_ms(0.95),
        events,
        hot.messages_sent,
        wall,
        events_per_sec,
        peak_rss as f64 / (1 << 20) as f64,
    ]);
    let body = trajectory_json(
        "T-SCALE",
        "model and host metrics of the scale run",
        table.cells_json(),
    );
    vec![
        Artefact::table(table, "table_scale"),
        Artefact::Raw {
            body,
            name: "bench_scale.json",
        },
    ]
}
