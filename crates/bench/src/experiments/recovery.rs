//! T-RECOVERY: crash recovery at deep chains, with and without
//! Merkle-rooted state snapshots, plus elastic membership.
//!
//! The tentpole claim: with a snapshot policy, a restarted peer's
//! recovery work is bounded by the *state* size and the snapshot
//! interval — O(1) in chain length — while the genesis-replay path grows
//! linearly with the chain. The campaign drives a desktop network one
//! post per block to 1k/10k/100k blocks (quick mode uses shorter chains),
//! crashes peer 0 at the tip and reads the `peer0.recovery.*` gauges on
//! restart. A second scenario exercises elastic membership end to end: a
//! spare peer joins a live network mid-run, bootstraps from a provider's
//! snapshot, and converges to the incumbents' state hash. Full runs emit
//! the machine-readable `BENCH_recovery.json` trajectory, whose
//! flat-vs-linear shape the `bench_regress` gate checks structurally.

use hyperprov::{
    ClientCommand, HyperProvNetwork, NetworkConfig, OpId, RecordInput, SnapshotPolicy,
};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{FaultPlan, SimDuration};

use super::op_ms;
use crate::report::MetricsExporter;
use crate::row;
use crate::runner::Artefact;
use crate::table::{Fmt, Table};

/// Campaign seed (identities, network jitter).
const SEED: u64 = 17;

/// Distinct item keys the deep-chain workload cycles through: the world
/// state (and so the snapshot) stays bounded while the chain grows.
const KEY_SPACE: u64 = 256;

/// Drives a desktop network one post per block, over `KEY_SPACE` keys, to
/// `n` blocks, crashes peer 0 at the tip, restarts it, and adds the
/// recovery gauges it reads as a row of `table`.
fn restart_row(
    n: u64,
    snapshots: Option<SnapshotPolicy>,
    table: &mut Table,
    exporter: &mut MetricsExporter,
) {
    let mut config = NetworkConfig::desktop(1)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    if let Some(policy) = snapshots {
        config = config.with_snapshots(policy);
    }
    let mut net = HyperProvNetwork::build(&config);
    for i in 0..n {
        post(&mut net, format!("k{}", i % KEY_SPACE));
    }
    // Long horizon: the virtual CPU serialises ~ms of commit (and, on
    // restart, replay) work per block; the clock jumps once the event
    // queue drains.
    let horizon = SimDuration::from_secs(7_200);
    let tip = net.sim.now() + horizon;
    net.sim.run_until(tip);
    let base = net.ledgers[0].borrow().store().base_height();
    assert_eq!(net.ledgers[0].borrow().height(), n, "one block per post");
    FaultPlan::new()
        .crash_window(net.peers[0], tip, tip)
        .install(&mut net.sim);
    net.sim.run_until(tip + horizon);

    let metrics = net.sim.metrics();
    let gauge = |name: &str| {
        let name = format!("peer0.recovery.{name}");
        metrics.gauge(&name).unwrap_or(0.0)
    };
    table.push_row(row![
        "restart",
        n,
        snapshots.is_some(),
        metrics.counter("peer0.snapshots.cut"),
        n - base,
        gauge("cost_ms"),
        gauge("replayed_blocks") as u64,
        gauge("snapshot_boots") as u64,
    ]);
    let mode = if snapshots.is_some() { "on" } else { "off" };
    exporter.add_run(&format!("restart blocks={n} snapshots={mode}"), &net.sim);
}

/// Posts one metadata-only record from client 0 and waits for its commit.
fn post(net: &mut HyperProvNetwork, key: String) {
    let input = RecordInput::new(Digest::of(key.as_bytes()));
    let op = OpId(0);
    let done = op_ms(net, ClientCommand::Post { key, input, op });
    assert!(done.is_some(), "workload op failed");
}

/// True when the joiner's ledger matches peer 0's height and state hash.
fn converged(net: &HyperProvNetwork, joiner: usize) -> bool {
    let a = net.ledgers[0].borrow();
    let b = net.ledgers[joiner].borrow();
    b.height() == a.height() && b.state().state_hash() == a.state().state_hash()
}

/// Runs the elastic scenario: a live desktop network commits `records`
/// items, a spare peer joins, and its virtual-time catch-up latency and
/// snapshot bootstrap make a row of `table`.
fn elastic_row(records: u64, table: &mut Table, exporter: &mut MetricsExporter) {
    let config = NetworkConfig::desktop(1)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(50),
            ..BatchConfig::default()
        })
        .with_snapshots(SnapshotPolicy::every(8))
        .with_spare_peers(1);
    let mut net = HyperProvNetwork::build(&config);
    for i in 0..records {
        post(&mut net, format!("rec-{i}"));
    }
    let chain_blocks = net.ledgers[0].borrow().height();

    let joined_at = net.sim.now();
    let _ = net.add_peer();
    let joiner = net.peers.len() - 1;
    let mut catchup_ms = None;
    for _ in 0..120 {
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(250));
        if converged(&net, joiner) {
            let elapsed = net.sim.now().saturating_duration_since(joined_at);
            catchup_ms = Some(elapsed.as_nanos() as f64 / 1e6);
            break;
        }
    }

    // Fresh traffic after the join must reach the joiner through its
    // deliver subscription.
    for i in 0..3 {
        post(&mut net, format!("post-{i}"));
    }
    let now = net.sim.now();
    net.sim.run_until(now + SimDuration::from_secs(2));
    let boots = format!("peer{joiner}.snapshot_boots");
    table.push_row(row![
        "elastic",
        chain_blocks,
        catchup_ms,
        net.sim.metrics().counter(&boots),
        catchup_ms.is_some(),
        converged(&net, joiner),
    ]);
    exporter.add_run(&format!("elastic records={records}"), &net.sim);
}

/// Chain lengths and snapshot interval per mode: the full sweep spans two
/// orders of magnitude so the flat-vs-linear contrast is unambiguous. All
/// lengths are congruent modulo the interval, so every snapshot-mode cell
/// replays the same fixed delta tail — what varies between cells is only
/// the chain length the claim says must not matter.
fn sweep(quick: bool) -> (Vec<u64>, u64) {
    match quick {
        true => (vec![250, 450, 850], 100),
        false => (vec![1_000, 10_000, 100_000], 300),
    }
}

/// Runs the full recovery campaign: the deep-chain restart sweep with
/// snapshots on and off (one row per chain length × snapshot mode), then
/// the elastic-membership scenario (one row), one metrics snapshot per
/// cell, and the rows of both tables as the committed
/// `BENCH_recovery.json` trajectory, whose flat-vs-linear shape the
/// regression gate checks.
pub fn recovery_sweep(quick: bool) -> Vec<Artefact> {
    let (lengths, interval) = sweep(quick);
    let mut table = Table::new(
        format!(
            "T-RECOVERY: crash recovery at deep chains (desktop peer 0, one post per block \
             over {KEY_SPACE} keys, snapshot interval {interval})"
        ),
        &[
            ("mode", "", Fmt::Plain),
            ("chain_blocks", "chain (blocks)", Fmt::Plain),
            ("snapshots", "snapshots", Fmt::Flag("off", "on")),
            ("snapshots_cut", "cut", Fmt::Plain),
            ("store_blocks", "store at crash (blocks)", Fmt::Plain),
            ("recovery_cost_ms", "recovery cost (ms)", Fmt::Fixed(2, "")),
            ("replayed_blocks", "replayed (blocks)", Fmt::Plain),
            ("snapshot_boots", "snapshot boots", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_recovery");
    for &n in &lengths {
        for snapshots_on in [true, false] {
            let policy = snapshots_on.then(|| SnapshotPolicy::every(interval));
            restart_row(n, policy, &mut table, &mut exporter);
        }
    }

    let mut elastic = Table::new(
        "T-RECOVERY: elastic membership (spare peer joins a live desktop network)",
        &[
            ("mode", "", Fmt::Plain),
            ("chain_blocks", "chain at join (blocks)", Fmt::Plain),
            ("catchup_ms", "catch-up (virtual ms)", Fmt::Fixed(1, "")),
            ("snapshot_boots", "snapshot boots", Fmt::Plain),
            ("converged", "converged", Fmt::Flag("false", "true")),
            (
                "converged_after_traffic",
                "converged after new traffic",
                Fmt::Flag("false", "true"),
            ),
        ],
    );
    elastic_row(if quick { 12 } else { 48 }, &mut elastic, &mut exporter);

    let trajectory = Artefact::trajectory(
        "BENCH_recovery.json",
        "T-RECOVERY",
        "restart recovery cost vs chain length (snapshots on/off) + elastic join",
        &[&table, &elastic],
    );
    vec![
        Artefact::table(table, "table_recovery"),
        Artefact::table(elastic, "table_recovery_elastic"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::table_of;

    /// The quick sweep already shows the tentpole property: snapshot
    /// recovery cost is flat (within 2x) across a 4x chain-length spread,
    /// while genesis replay grows with the chain; and the elastic joiner
    /// converges via a snapshot bootstrap.
    #[test]
    fn quick_recovery_is_flat_with_snapshots_and_linear_without() {
        let artefacts = recovery_sweep(true);
        let table = table_of(&artefacts, "table_recovery");
        let costs = |on: f64| -> Vec<(f64, f64)> {
            (0..table.len())
                .filter(|&row| table.num(row, "snapshots") == Some(on))
                .map(|row| {
                    (
                        table.num(row, "chain_blocks").unwrap(),
                        table.num(row, "recovery_cost_ms").unwrap(),
                    )
                })
                .collect()
        };
        let on = costs(1.0);
        let off = costs(0.0);
        assert_eq!(on.len(), 3);
        assert_eq!(off.len(), 3);
        let (on_min, on_max) = on
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, c)| {
                (lo.min(c), hi.max(c))
            });
        assert!(
            on_max <= 2.0 * on_min,
            "snapshot recovery must be flat: min {on_min} max {on_max}"
        );
        let shortest = off.iter().find(|(n, _)| *n == 250.0).unwrap().1;
        let longest = off.iter().find(|(n, _)| *n == 850.0).unwrap().1;
        assert!(
            longest >= 3.0 * shortest,
            "genesis replay must grow with the chain: {shortest} -> {longest}"
        );
        // At every length, snapshots beat genesis replay.
        for ((n, with), (_, without)) in on.iter().zip(off.iter()) {
            assert!(
                with < without,
                "snapshots must cut recovery cost at {n} blocks"
            );
        }

        let elastic = table_of(&artefacts, "table_recovery_elastic");
        assert_eq!(elastic.num(0, "converged"), Some(1.0));
        assert_eq!(elastic.num(0, "converged_after_traffic"), Some(1.0));
        assert!(elastic.num(0, "snapshot_boots").unwrap() >= 1.0);
    }
}
