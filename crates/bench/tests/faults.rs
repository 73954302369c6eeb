//! Guard tests for the fault-injection campaign: the exported metrics
//! JSON must replay byte-identically for a fixed seed, so committed
//! `table_faults.metrics.json` artifacts are reproducible, and the
//! network a peer crash leaves behind must pass the network audit.

use hyperprov_bench::experiments::{fault_scenario_json, peer_crash_run};

#[test]
fn fault_campaign_metrics_json_is_deterministic_per_seed() {
    for seed in [1u64, 7, 23] {
        let first = fault_scenario_json(seed);
        let second = fault_scenario_json(seed);
        assert_eq!(
            first, second,
            "seed {seed}: fault campaign must replay byte-identically"
        );
        assert!(
            first.contains("client.retries") || first.contains("fault.crashes"),
            "seed {seed}: exported JSON should carry fault/retry counters"
        );
    }
}

#[test]
fn the_peer_crash_run_passes_the_network_audit() {
    let (net, run) = peer_crash_run(7);
    assert!(run.completions.iter().all(|(_, done)| done.outcome.is_ok()));
    assert_eq!(net.audit(run.completions.iter().map(|(_, done)| done)), []);
}
