//! BENCH-SIM: host-side profile of the simulator itself.
//!
//! Everything else in the harness reports *virtual*-time results; this
//! campaign measures the *host* — how fast the event loop chews through
//! a reference workload on the machine running the benchmarks. It drives
//! a fixed seeded closed-loop store workload with the
//! [`hyperprov_sim::SimProfiler`] enabled and reports two kinds of
//! numbers:
//!
//! * **model** metrics — completions, goodput and latency quantiles in
//!   virtual time, plus the kernel's event/message counts. These are
//!   fully deterministic for the fixed seed, so the regression gate
//!   (`bench_regress`) compares them with tight tolerances.
//! * **host** metrics — wall-clock run time, events processed per
//!   wall-second, per-actor-type handler time shares and peak RSS. These
//!   vary run to run and machine to machine; they are recorded as
//!   information and gated nowhere (host cost is `benchmark/`'s job).
//!
//! `bench_regress --update` commits the quick profile, together with the
//! quick T-SCALE profile, as the two cells of the repo-root
//! `BENCH_sim.json` baseline.

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::{DetRng, SimDuration};

use crate::row;
use crate::runner::{run_closed_loop, Artefact, Summary, Until};
use crate::table::{trajectory_json, Cell, Fmt, Table};
use crate::workload::{payload, store_cmd};

/// Campaign seed (workload payloads).
const SEED: u64 = 23;

/// Payload size of the reference store workload.
const ITEM_BYTES: usize = 1 << 10;

/// Host-measurement repeats: the reference workload finishes in tens of
/// milliseconds, where scheduler noise swings wall time by ~10 % run to
/// run. The model is fully deterministic for the fixed seed, so we run
/// the workload a few times and report the fastest run's host profile —
/// standard minimum-of-repeats benchmarking.
const HOST_REPEATS: usize = 3;

/// Runs the reference workload with the profiler enabled and summarises
/// the simulator's host-side performance: the profile (model + host
/// metrics, one line per metric) and its JSON rendering.
pub fn sim_bench(quick: bool) -> Vec<Artefact> {
    let (clients, secs) = if quick { (8, 6) } else { (32, 20) };
    let config = NetworkConfig::desktop(clients)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        });

    let mut best: Option<(HyperProvNetwork, crate::runner::RunResult)> = None;
    for _ in 0..HOST_REPEATS {
        let mut net = HyperProvNetwork::build(&config);
        net.sim.enable_profiler();
        let mut rng = DetRng::new(SEED).fork("bench-sim");
        let result = run_closed_loop(
            &mut net,
            Until::Elapsed(SimDuration::from_secs(secs)),
            SimDuration::from_secs(5),
            |client, seq| {
                store_cmd(
                    format!("item-c{client}-s{seq}"),
                    payload(&mut rng, ITEM_BYTES),
                )
            },
        );
        match &best {
            Some((fastest, fastest_result)) => {
                // Repeats of a deterministic model must agree exactly.
                assert_eq!(
                    fastest.sim.events_processed(),
                    net.sim.events_processed(),
                    "model diverged across host-measurement repeats"
                );
                assert!(
                    fastest_result.completions.len() == result.completions.len()
                        && fastest_result
                            .completions
                            .iter()
                            .zip(&result.completions)
                            .all(|((ca, a), (cb, b))| {
                                ca == cb && a.started == b.started && a.finished == b.finished
                            }),
                    "completion timeline diverged across host-measurement repeats"
                );
                if net.sim.profiler().wall_elapsed() < fastest.sim.profiler().wall_elapsed() {
                    best = Some((net, result));
                }
            }
            None => best = Some((net, result)),
        }
    }
    let (net, result) = best.expect("HOST_REPEATS >= 1");
    let summary = Summary::of(&result);

    let hot = net.sim.hot_counters();
    let events = net.sim.events_processed();
    let wall = net.sim.profiler().wall_elapsed().as_secs_f64();
    let events_per_sec = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let rss_mib = hyperprov_sim::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64;

    let mut table = Table::profile(
        format!(
            "BENCH-SIM: host-side simulator profile (closed-loop store, {clients} clients, \
             1 KiB items, {secs}s virtual)"
        ),
        &[
            ("profile", "", Fmt::Plain),
            ("mode", "", Fmt::Plain),
            ("workload", "", Fmt::Plain),
            ("model.ok", "model: completions ok", Fmt::Plain),
            ("model.err", "", Fmt::Plain),
            ("model.unfinished", "", Fmt::Plain),
            (
                "model.goodput_tx_s",
                "model: goodput (tx/s virtual)",
                Fmt::Fixed(1, ""),
            ),
            ("model.op_p50_ms", "", Fmt::Plain),
            (
                "model.op_p95_ms",
                "model: op p95 (ms virtual)",
                Fmt::Fixed(2, ""),
            ),
            ("model.events", "model: kernel events", Fmt::Plain),
            ("model.messages", "model: messages sent", Fmt::Plain),
            ("model.timers", "", Fmt::Plain),
            ("model.cpu_jobs", "", Fmt::Plain),
            ("host.wall_s", "host: wall (s)", Fmt::Fixed(3, "")),
            (
                "host.events_per_sec",
                "host: events/sec (wall)",
                Fmt::Fixed(0, ""),
            ),
            (
                "host.handler_wall_s",
                "host: handler wall (s)",
                Fmt::Fixed(3, ""),
            ),
            (
                "host.peak_rss_mib",
                "host: peak RSS (MiB)",
                Fmt::Fixed(1, ""),
            ),
            // The profiler's own breakdown (per-actor handler shares, hot
            // counters), carried whole.
            ("host.profile", "", Fmt::Plain),
        ],
    );
    table.push_row(row![
        "reference",
        if quick { "quick" } else { "full" },
        format!("closed-loop store, {clients} clients, {ITEM_BYTES} B items, {secs}s"),
        summary.ok,
        summary.err,
        summary.unfinished,
        summary.throughput,
        summary.latency_ms(0.50),
        summary.latency_ms(0.95),
        events,
        hot.messages_sent,
        hot.timers_set,
        hot.cpu_jobs,
        wall,
        events_per_sec,
        net.sim.profiler().handler_wall().as_secs_f64(),
        rss_mib,
        Cell::Json(net.sim.profiler().snapshot_json(events, hot)),
    ]);
    let body = trajectory_json(
        "BENCH-SIM",
        "model and host metrics of the reference run",
        table.cells_json(),
    );
    vec![
        Artefact::table(table, "bench_sim"),
        Artefact::Raw {
            body,
            name: "bench_sim.json",
        },
    ]
}
