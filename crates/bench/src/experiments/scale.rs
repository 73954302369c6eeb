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
//! variant as the `scale` section of the committed `BENCH_sim.json`.

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::{json, SimDuration};

use crate::runner::{run_open_loop, Summary};
use crate::table::Table;
use crate::workload::{post_cmd, uniform_arrivals};

/// Campaign seed.
const SEED: u64 = 29;

/// The T-SCALE campaign's artefacts.
#[derive(Debug)]
pub struct ScaleReport {
    /// Headline model + host metrics, one row per metric.
    pub table: Table,
    /// The machine-readable `scale` section body for `BENCH_sim.json`.
    pub section_json: String,
}

/// Runs the scale campaign: `quick` shrinks the population three orders
/// of magnitude for CI smoke runs; the full run is 10k clients x 100
/// unique keys each = 1M operations.
pub fn scale_campaign(quick: bool) -> ScaleReport {
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
    // Goodput over the full window from first arrival to quiescence —
    // the sustained rate the modelled system absorbed, not the injection
    // rate.
    let total_span = net
        .sim
        .now()
        .saturating_duration_since(hyperprov_sim::SimTime::ZERO);
    let summary = Summary::of(&result.completions, total_span);

    let hot = net.sim.hot_counters();
    let events = net.sim.events_processed();
    let wall = net.sim.profiler().wall_elapsed().as_secs_f64();
    let events_per_sec = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let peak_rss = hyperprov_sim::peak_rss_bytes().unwrap_or(0);

    let model_json = json::Obj::new()
        .u64("issued", result.issued)
        .u64("ok", summary.ok)
        .u64("err", summary.err)
        .u64("unique_keys", total_ops)
        .f64("goodput_tx_s", summary.throughput)
        .f64("op_p50_ms", summary.latency_ms(0.50))
        .f64("op_p95_ms", summary.latency_ms(0.95))
        .u64("events", events)
        .u64("messages", hot.messages_sent)
        .build();
    let host_json = json::Obj::new()
        .f64("wall_s", wall)
        .f64("events_per_sec", events_per_sec)
        .u64("peak_rss_bytes", peak_rss)
        .build();
    // Compact on purpose: the section is embedded via `Obj::raw` into the
    // BENCH-SIM document, which pretty-prints the combined body once.
    let section_json = json::Obj::new()
        .str(
            "workload",
            &format!("open-loop post, {clients} clients, {total_ops} unique keys, {rate:.0} ops/s"),
        )
        .raw("model", &model_json)
        .raw("host", &host_json)
        .build();

    let mut table = Table::new(
        format!(
            "T-SCALE: {clients} open-loop clients, {total_ops} unique keys \
             ({rate:.0} ops/s)"
        ),
        &["metric", "value"],
    );
    let rss_mib = peak_rss as f64 / (1 << 20) as f64;
    for (metric, value) in [
        ("model: operations issued", result.issued.to_string()),
        ("model: completions ok", summary.ok.to_string()),
        ("model: completions err", summary.err.to_string()),
        (
            "model: goodput (tx/s virtual)",
            format!("{:.1}", summary.throughput),
        ),
        (
            "model: op p50 (ms virtual)",
            format!("{:.2}", summary.latency_ms(0.50)),
        ),
        (
            "model: op p95 (ms virtual)",
            format!("{:.2}", summary.latency_ms(0.95)),
        ),
        ("model: kernel events", events.to_string()),
        ("model: messages sent", hot.messages_sent.to_string()),
        ("host: wall (s)", format!("{wall:.3}")),
        ("host: events/sec (wall)", format!("{events_per_sec:.0}")),
        ("host: peak RSS (MiB)", format!("{rss_mib:.1}")),
    ] {
        table.push_row(vec![metric.to_owned(), value]);
    }

    ScaleReport {
        table,
        section_json,
    }
}
