//! T-FAULTS: fault-injection campaigns — node crashes, Raft leader kill
//! and network partitions under the Fig. 1-style store workload.
//!
//! The paper argues HyperProv is *resilient* provenance but never
//! measures it. This campaign quantifies the claim: a closed-loop 1 KiB
//! `StoreData` workload runs on both testbeds while a [`FaultPlan`]
//! injects one fault window per scenario, and the report shows goodput
//! before / during / after the fault, the time for goodput to recover to
//! ≥90 % of its pre-fault mean, and the client-side retry/timeout
//! economics. Clients run with per-op deadlines and the deterministic
//! jittered-backoff [`RetryPolicy`], so every operation terminates — the
//! unfinished column must read zero.

use hyperprov::{HyperProvNetwork, NetworkConfig, RetryPolicy};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::{
    chrome_trace_json, DetRng, FaultPlan, SimDuration, SimTime, SloObjective, SloSpec,
};

use super::Platform;
use crate::report::{push_slo_verdicts, slo_verdict_table, MetricsExporter};
use crate::row;
use crate::runner::{leading_orderer, run_closed_loop, Artefact, RunResult, Summary, Until};
use crate::table::{Fmt, Table};
use crate::workload::{payload, store_cmd};

/// Payload size: the 1 KiB point of Fig. 1/Fig. 2.
const ITEM_BYTES: usize = 1 << 10;

/// Campaign seed (workload payloads, backoff jitter, fault schedule).
const SEED: u64 = 11;

/// Goodput must return to this fraction of the pre-fault mean to count
/// as recovered.
const RECOVERY_FRACTION: f64 = 0.9;

/// The fault scenarios of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Crash one endorsing peer mid-run, restart it at the end of the
    /// window; it replays its block store and catches up from the
    /// orderer.
    PeerCrash,
    /// Crash the elected Raft ordering leader; the cluster elects a new
    /// leader and broadcasts are redirected.
    LeaderKill,
    /// Partition half the peers from the ordering service, then heal;
    /// the cut-off peers catch up via block re-delivery.
    Partition,
}

impl FaultScenario {
    /// Scenario label used in tables and run names.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::PeerCrash => "peer-crash",
            FaultScenario::LeaderKill => "raft-leader-kill",
            FaultScenario::Partition => "partition-heal",
        }
    }
}

/// All three scenarios, in report order.
pub const FAULT_SCENARIOS: [FaultScenario; 3] = [
    FaultScenario::PeerCrash,
    FaultScenario::LeaderKill,
    FaultScenario::Partition,
];

/// Campaign timing parameters (virtual time).
#[derive(Debug, Clone, Copy)]
struct Params {
    clients: usize,
    /// Workload duration (injection window).
    duration: SimDuration,
    /// Drain grace after the last injection.
    grace: SimDuration,
    /// Fault window start, relative to workload start.
    fault_from: SimDuration,
    /// Fault window end (restart/heal), relative to workload start.
    fault_to: SimDuration,
}

impl Params {
    fn new(quick: bool) -> Self {
        if quick {
            Params {
                clients: 4,
                duration: SimDuration::from_secs(9),
                grace: SimDuration::from_secs(8),
                fault_from: SimDuration::from_secs(3),
                fault_to: SimDuration::from_secs(5),
            }
        } else {
            Params {
                clients: 8,
                duration: SimDuration::from_secs(25),
                grace: SimDuration::from_secs(15),
                fault_from: SimDuration::from_secs(10),
                fault_to: SimDuration::from_secs(15),
            }
        }
    }
}

/// The rolling window the campaign's SLOs are evaluated over. Half the
/// shortest (quick-mode) fault window, so a fault both breaches the
/// objectives and lets them recover within the run.
const SLO_WINDOW: SimDuration = SimDuration::from_secs(2);

/// The campaign's objectives, watched by every run: store goodput above
/// a floor, the client error fraction below a ceiling and end-to-end op
/// latency within a p90 budget. A healthy network holds all three; the
/// fault window is expected to breach at least the first two, and the
/// burn-rate series in the metrics export are the recovery curves.
fn fault_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new(
            "store-goodput",
            SloObjective::GoodputFloor {
                source: "client.ok".into(),
                floor_per_sec: 3.0,
            },
            SLO_WINDOW,
        ),
        SloSpec::new(
            "client-errors",
            SloObjective::ErrorRateCeiling {
                ok_source: "client.ok".into(),
                err_source: "client.err".into(),
                ceiling: 0.05,
            },
            SLO_WINDOW,
        ),
        SloSpec::new(
            "op-p90",
            SloObjective::LatencyQuantile {
                source: "op".into(),
                q: 0.9,
                budget: SimDuration::from_millis(800),
            },
            SLO_WINDOW,
        ),
    ]
}

fn base_config(platform: Platform, scenario: FaultScenario, params: &Params) -> NetworkConfig {
    let config = platform
        .config(params.clients)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(4)),
        )
        .with_retry(RetryPolicy::new(6));
    match scenario {
        FaultScenario::LeaderKill => config.with_raft_orderers(3),
        _ => config,
    }
}

fn build_plan(
    net: &HyperProvNetwork,
    scenario: FaultScenario,
    from: SimTime,
    to: SimTime,
) -> FaultPlan {
    match scenario {
        FaultScenario::PeerCrash => FaultPlan::new().crash_window(net.peers[0], from, to),
        FaultScenario::LeaderKill => {
            let leader = leading_orderer(net).unwrap_or(net.orderers[0]);
            FaultPlan::new().crash_window(leader, from, to)
        }
        FaultScenario::Partition => {
            let cut = &net.peers[net.peers.len() / 2..];
            FaultPlan::new().partition_window(cut, &[net.orderers[0]], from, to)
        }
    }
}

/// Statistics of one campaign run.
struct RunStats {
    summary: Summary,
    timeouts: u64,
    retries: u64,
    resent: u64,
    home_moves: u64,
    exhausted: u64,
    pre_goodput: f64,
    during_goodput: f64,
    post_goodput: f64,
    /// Seconds after the heal/restart until goodput first reaches
    /// [`RECOVERY_FRACTION`] of the pre-fault mean. `None` = never.
    time_to_recover: Option<f64>,
    buckets: Vec<u64>,
}

fn mean(buckets: &[u64]) -> f64 {
    if buckets.is_empty() {
        0.0
    } else {
        buckets.iter().sum::<u64>() as f64 / buckets.len() as f64
    }
}

/// Runs one `(platform, scenario)` campaign, appends its snapshot to the
/// exporter and its SLO verdicts to the verdict table, and captures the
/// first run's Perfetto trace into `trace` (filled once per campaign).
fn run_scenario(
    platform: Platform,
    scenario: FaultScenario,
    params: &Params,
    exporter: &mut MetricsExporter,
    verdicts: &mut Table,
    trace: &mut Option<String>,
) -> RunStats {
    let config = base_config(platform, scenario, params).with_slos(fault_slos());
    let mut net = HyperProvNetwork::build(&config);
    if scenario == FaultScenario::LeaderKill {
        // Let the cluster elect a leader before the workload starts, so
        // the plan can target the actual leader.
        net.sim.run_until(SimTime::from_secs(2));
    }
    let t0 = net.sim.now();
    build_plan(&net, scenario, t0 + params.fault_from, t0 + params.fault_to).install(&mut net.sim);

    let mut rng = DetRng::new(SEED).fork("faults").fork(scenario.name());
    let label = scenario.name();
    let result = run_closed_loop(
        &mut net,
        Until::Elapsed(params.duration),
        params.grace,
        |c, seq| {
            store_cmd(
                format!("item-{label}-c{c}-{seq}"),
                payload(&mut rng, ITEM_BYTES),
            )
        },
    );

    // Per-second goodput buckets over the window [t0, t0 + duration);
    // completions landing in the drain count towards `ok`/`err` only.
    let duration_s = (params.duration.as_nanos() / 1_000_000_000) as usize;
    let mut buckets = vec![0u64; duration_s];
    for (_, completion) in &result.completions {
        if completion.outcome.is_ok() {
            let idx = (completion.finished.saturating_duration_since(t0).as_nanos() / 1_000_000_000)
                as usize;
            if let Some(slot) = buckets.get_mut(idx) {
                *slot += 1;
            }
        }
    }

    let fault_from_s = (params.fault_from.as_nanos() / 1_000_000_000) as usize;
    let fault_to_s = (params.fault_to.as_nanos() / 1_000_000_000) as usize;
    // Skip the first second (closed-loop warm-up) for the pre-fault mean.
    let pre = mean(&buckets[1.min(fault_from_s)..fault_from_s]);
    let during = mean(&buckets[fault_from_s..fault_to_s]);
    let recover_idx =
        (fault_to_s..duration_s).find(|&s| buckets[s] as f64 >= RECOVERY_FRACTION * pre);
    let time_to_recover = recover_idx.map(|s| (s + 1 - fault_to_s) as f64);
    let post = recover_idx.map_or(0.0, |s| mean(&buckets[s..]));

    let run_label = format!("{} {}", platform.name(), scenario.name());
    push_slo_verdicts(verdicts, &run_label, &net.sim);
    if trace.is_none() {
        *trace = Some(chrome_trace_json(net.sim.tracer()));
    }
    exporter.add_run(&run_label, &net.sim);

    RunStats {
        summary: Summary::of(&result),
        timeouts: net.sim.metrics().counter("client.timeouts"),
        retries: net.sim.metrics().counter("client.retries"),
        resent: net.sim.metrics().counter("client.resent"),
        home_moves: net.sim.metrics().counter("client.home_moves"),
        exhausted: net.sim.metrics().counter("client.exhausted"),
        pre_goodput: pre,
        during_goodput: during,
        post_goodput: post,
        time_to_recover,
        buckets,
    }
}

/// Runs the full fault campaign, every scenario on both testbeds: one row
/// per `(platform, scenario)` (phase goodputs, time-to-recover,
/// retry/timeout counts), the per-second goodput timeline of every run
/// (the recovery curves), the per-run SLO verdicts over the fault
/// windows, the Chrome/Perfetto `trace_events` export of the desktop
/// peer-crash run, one metrics + trace + SLO snapshot per run, and the
/// summary rows as the committed `BENCH_faults.json` trajectory.
pub fn fault_campaign(quick: bool) -> Vec<Artefact> {
    let params = Params::new(quick);
    let mut table = Table::new(
        format!(
            "T-FAULTS: goodput under injected faults (closed loop, {} clients, 1 KiB items, \
             fault window {}..{}s, deadlines + retry)",
            params.clients,
            params.fault_from.as_nanos() / 1_000_000_000,
            params.fault_to.as_nanos() / 1_000_000_000,
        ),
        &[
            ("platform", "platform", Fmt::Plain),
            ("scenario", "scenario", Fmt::Plain),
            ("pre_goodput_tx_s", "pre goodput (tx/s)", Fmt::Fixed(1, "")),
            (
                "fault_goodput_tx_s",
                "fault goodput (tx/s)",
                Fmt::Fixed(1, ""),
            ),
            (
                "post_goodput_tx_s",
                "post goodput (tx/s)",
                Fmt::Fixed(1, ""),
            ),
            ("recover_s", "recover (s)", Fmt::Fixed(0, "")),
            ("ok", "ok", Fmt::Plain),
            ("err", "err", Fmt::Plain),
            ("timeouts", "timeouts", Fmt::Plain),
            ("retries", "retries", Fmt::Plain),
            ("resent", "resent", Fmt::Plain),
            ("home_moves", "home moves", Fmt::Plain),
            ("exhausted", "exhausted", Fmt::Plain),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );
    let mut timeline = Table::new(
        "T-FAULTS: per-second goodput timelines",
        &[
            ("platform", "platform", Fmt::Plain),
            ("scenario", "scenario", Fmt::Plain),
            ("second", "second", Fmt::Plain),
            ("ok_tx_s", "ok (tx/s)", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_faults");
    let mut verdicts = slo_verdict_table(format!(
        "T-FAULTS: SLO verdicts (rolling {}s windows)",
        SLO_WINDOW.as_nanos() / 1_000_000_000,
    ));
    let mut trace_json = None;

    for platform in [Platform::Desktop, Platform::Rpi] {
        for scenario in FAULT_SCENARIOS {
            let stats = run_scenario(
                platform,
                scenario,
                &params,
                &mut exporter,
                &mut verdicts,
                &mut trace_json,
            );
            table.push_row(row![
                platform.name(),
                scenario.name(),
                stats.pre_goodput,
                stats.during_goodput,
                stats.post_goodput,
                stats.time_to_recover,
                stats.summary.ok,
                stats.summary.err,
                stats.timeouts,
                stats.retries,
                stats.resent,
                stats.home_moves,
                stats.exhausted,
                stats.summary.unfinished,
            ]);
            for (second, &count) in stats.buckets.iter().enumerate() {
                timeline.push_row(row![platform.name(), scenario.name(), second, count]);
            }
        }
    }

    let trajectory = Artefact::trajectory(
        "BENCH_faults.json",
        "T-FAULTS",
        "goodput before, during and after injected faults; operation outcomes",
        &[&table],
    );
    vec![
        Artefact::table(table, "table_faults"),
        Artefact::table(timeline, "table_faults_timeline"),
        Artefact::table(verdicts, "table_faults_slo"),
        Artefact::Raw {
            body: trace_json.unwrap_or_else(|| "{\"traceEvents\":[]}".to_owned()),
            name: "table_faults_peer_crash.trace.json",
        },
        Artefact::Metrics(exporter),
        trajectory,
    ]
}

/// A single short desktop peer-crash run of the campaign's deployment and
/// fault plan (quick timing, no SLOs) under `seed`: the network after it
/// and what its clients were told.
pub fn peer_crash_run(seed: u64) -> (HyperProvNetwork, RunResult) {
    let (params, scenario) = (Params::new(true), FaultScenario::PeerCrash);
    let config = base_config(Platform::Desktop, scenario, &params).with_seed(seed);
    let mut net = HyperProvNetwork::build(&config);
    let t0 = net.sim.now();
    build_plan(&net, scenario, t0 + params.fault_from, t0 + params.fault_to).install(&mut net.sim);
    let mut rng = DetRng::new(seed).fork("faults");
    let run = run_closed_loop(
        &mut net,
        Until::Elapsed(params.duration),
        params.grace,
        |c, seq| store_cmd(format!("item-c{c}-{seq}"), payload(&mut rng, ITEM_BYTES)),
    );
    (net, run)
}

/// [`peer_crash_run`] rendered as metrics JSON — the determinism property
/// the test suite checks across repeated runs.
pub fn fault_scenario_json(seed: u64) -> String {
    let (net, _) = peer_crash_run(seed);
    let mut exporter = MetricsExporter::new("table_faults_prop");
    exporter.add_run(&format!("seed={seed}"), &net.sim);
    exporter.to_json()
}
