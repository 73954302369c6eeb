//! Acceptance tests for Telemetry v2: the fault campaign's SLOs must
//! breach during the injected fault window and recover after it, the
//! burn-rate series must land in the metrics export, and a run's
//! Perfetto trace export must be structurally valid Chrome trace JSON.

use hyperprov::{HyperProvNetwork, NetworkConfig, RetryPolicy};
use hyperprov_fabric::BatchConfig;
use hyperprov_sim::json::parse;
use hyperprov_sim::{
    chrome_trace_json, DetRng, FaultPlan, SimDuration, SimTime, SloObjective, SloSpec,
};

use hyperprov_bench::report::{push_slo_verdicts, slo_verdict_table, MetricsExporter};
use hyperprov_bench::runner::{leading_orderer, run_closed_loop, Until};
use hyperprov_bench::workload::{payload, store_cmd};

const SEED: u64 = 11;
const FAULT_FROM: SimDuration = SimDuration::from_secs(3);
const FAULT_TO: SimDuration = SimDuration::from_secs(5);
const SLO_WINDOW: SimDuration = SimDuration::from_secs(2);

/// A quick-mode desktop Raft run whose leader and one follower are down
/// together, which stalls ordering outright: no quorum is left to elect or
/// commit, whatever the clients re-send. The campaign's SLO shapes are
/// installed. Returns the driven network and the workload's start instant.
fn fault_run() -> (HyperProvNetwork, SimTime) {
    let config = NetworkConfig::desktop(4)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(4)),
        )
        .with_retry(RetryPolicy::new(6))
        .with_raft_orderers(3)
        .with_slos(vec![
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
        ]);
    let mut net = HyperProvNetwork::build(&config);
    // Let the cluster elect a leader, then schedule its crash, and a
    // follower's, mid-run.
    net.sim.run_until(SimTime::from_secs(2));
    let t0 = net.sim.now();
    let leader = leading_orderer(&net).unwrap_or(net.orderers[0]);
    let follower = *net.orderers.iter().find(|&&o| o != leader).unwrap();
    FaultPlan::new()
        .crash_window(leader, t0 + FAULT_FROM, t0 + FAULT_TO)
        .crash_window(follower, t0 + FAULT_FROM, t0 + FAULT_TO)
        .install(&mut net.sim);
    let mut rng = DetRng::new(SEED).fork("slo-gate");
    run_closed_loop(
        &mut net,
        Until::Elapsed(SimDuration::from_secs(9)),
        SimDuration::from_secs(8),
        |c, seq| store_cmd(format!("item-c{c}-{seq}"), payload(&mut rng, 1 << 10)),
    );
    (net, t0)
}

#[test]
fn fault_window_breaches_an_slo_and_recovers() {
    let (mut net, t0) = fault_run();
    let now = net.sim.now();
    net.sim.slo_mut().advance_to(now);

    // Losing the quorum stalls commits: the goodput floor must breach,
    // opening inside (or within one window of) the fault window, and close
    // again once the restarted members elect a leader and catch up.
    let windows = net.sim.slo().breach_windows("store-goodput").unwrap();
    assert!(
        !windows.is_empty(),
        "losing the ordering quorum must breach the goodput floor"
    );
    let fault_breach = windows
        .iter()
        .find(|b| b.start >= t0 + FAULT_FROM && b.start <= t0 + FAULT_TO + SLO_WINDOW)
        .expect("a breach must open during the fault window");
    let recovered_at = fault_breach
        .end
        .expect("goodput must recover after the heal");
    assert!(recovered_at > t0 + FAULT_TO, "recovery follows the restart");

    // The burn series crosses 1.0 during the breach and drops back.
    let burn = net.sim.slo().burn_series("store-goodput").unwrap();
    assert!(burn.iter().any(|&(_, b)| b > 1.0));
    assert!(
        burn.iter().any(|&(at, b)| at >= recovered_at && b <= 1.0),
        "the series must show the recovery"
    );

    // Verdicts reflect the breach.
    let verdicts = net.sim.slo().verdicts(now);
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts.iter().any(|v| !v.pass && v.breaches >= 1));

    // The machine-readable export carries the SLO section with the burn
    // series and breach windows, and the verdict table renders rows.
    let mut exporter = MetricsExporter::new("slo_gate");
    exporter.add_run("desktop raft-leader-kill", &net.sim);
    let json = exporter.to_json();
    assert!(json.contains("\"slo\""));
    assert!(json.contains("\"store-goodput\""));
    assert!(json.contains("\"burn\""));
    assert!(json.contains("\"breach_windows\""));

    let mut table = slo_verdict_table("verdicts");
    push_slo_verdicts(&mut table, "desktop raft-leader-kill", &net.sim);
    assert_eq!(table.len(), 2);
}

#[test]
fn perfetto_export_of_a_driven_run_is_valid() {
    let (net, _) = fault_run();
    let trace = chrome_trace_json(net.sim.tracer());
    let doc = parse(&trace).expect("trace export must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    // Spans from the real pipeline show up as complete events with
    // sane phases; at least the endorse stage must be present.
    let mut saw_endorse = false;
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {ph}");
        if ph == "X" && ev.get("name").unwrap().as_str() == Some("endorse") {
            saw_endorse = true;
            assert!(ev.get("dur").unwrap().as_f64().unwrap() > 0.0);
        }
    }
    assert!(saw_endorse, "endorse spans must appear in the trace");
}
