//! Crash-recovery and elastic-membership tests: snapshot bootstrap,
//! genesis replay, restart-during-partition retry, and a spare peer
//! joining a live network; whether they converged, the network audit says.

mod support;

use hyperprov::{AuditFinding, HyperProv, NetworkConfig, SnapshotPolicy};
use hyperprov_ledger::DEFAULT_CHANNEL;
use support::settle;

/// Desktop deployment with one client, a small snapshot interval and the
/// recovery gauges enabled.
fn snapshot_config() -> NetworkConfig {
    NetworkConfig::desktop(1).with_snapshots(SnapshotPolicy::every(2))
}

/// A restarted peer with a snapshot boots from it (plus a bounded delta
/// replay), catches the blocks it missed while down from the orderer,
/// and converges to the live peers' state hash. Pruning keeps its block
/// store from retaining the full chain.
#[test]
fn restart_bootstraps_from_snapshot_and_catches_up() {
    let mut hp = HyperProv::with_config(&snapshot_config());
    for i in 0..8 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let victim = hp.network().peers[1];
    hp.network_mut().sim.crash_actor(victim);
    for i in 0..4 {
        hp.store_data(&format!("mid-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    hp.network_mut().sim.restart_actor(victim);
    settle(&mut hp, 10);

    assert_eq!(hp.network().audit([]), []);
    let metrics = hp.network().sim.metrics();
    assert_eq!(metrics.counter("peer1.recoveries"), 1);
    assert!(
        metrics.counter("peer1.snapshot_boots") >= 1,
        "restart must take the snapshot fast path"
    );
    // The delta replay is bounded by the snapshot interval, not the
    // chain length.
    let replayed = metrics
        .gauge("peer1.recovery.replayed_blocks")
        .expect("recovery gauges enabled");
    assert!(
        replayed < hp.network().ledgers[1].borrow().height() as f64,
        "snapshot boot must not replay the whole chain ({replayed} blocks)"
    );
    // Snapshot cutting prunes the store behind the horizon.
    let ledger = hp.network().ledgers[0].borrow();
    assert!(
        ledger.store().base_height() > 0,
        "pruning must advance the store base"
    );
    drop(ledger);
    // The network still serves reads and writes after the churn.
    hp.store_data("post", b"post".to_vec(), vec![], vec![])
        .unwrap();
    assert_eq!(hp.get("pre-0").unwrap().key, "pre-0");
}

/// Without a snapshot policy, restart falls back to the full genesis
/// replay — same convergence, linear replay cost.
#[test]
fn restart_replays_from_genesis_without_snapshots() {
    let config = NetworkConfig::desktop(1);
    let mut hp = HyperProv::with_config(&config);
    for i in 0..6 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let victim = hp.network().peers[1];
    hp.network_mut().sim.crash_actor(victim);
    for i in 0..3 {
        hp.store_data(&format!("mid-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    hp.network_mut().sim.restart_actor(victim);
    settle(&mut hp, 10);

    assert_eq!(hp.network().audit([]), []);
    let metrics = hp.network().sim.metrics();
    assert_eq!(metrics.counter("peer1.recoveries"), 1);
    assert_eq!(metrics.counter("peer1.snapshot_boots"), 0);
    // Genesis replay walks the entire pre-crash store.
    let replayed = metrics
        .gauge("peer1.recovery.replayed_blocks")
        .expect("recovery gauges enabled");
    assert!(replayed > 0.0);
    // The store keeps the full chain when no pruning policy is set.
    assert_eq!(hp.network().ledgers[1].borrow().store().base_height(), 0);
}

/// A peer restarted while partitioned from the rest of the network loses
/// its first catch-up request; the retry timer re-issues it with backoff
/// until the partition heals, after which the peer converges.
#[test]
fn restart_during_partition_retries_until_heal() {
    let mut hp = HyperProv::with_config(&snapshot_config());
    for i in 0..6 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let victim = hp.network().peers[1];
    hp.network_mut().sim.crash_actor(victim);
    for i in 0..4 {
        hp.store_data(&format!("mid-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    // Cut the victim off from every other device, then restart it: the
    // catch-up request and all its retries are dropped.
    let others: Vec<_> = (0..hp.network().devices.len() as u32)
        .map(hyperprov_sim::ActorId)
        .filter(|id| *id != victim)
        .collect();
    hp.network_mut()
        .sim
        .network_mut()
        .partition_groups(&[victim], &others);
    hp.network_mut().sim.restart_actor(victim);
    settle(&mut hp, 8);

    let metrics = hp.network().sim.metrics();
    assert_eq!(metrics.counter("peer1.recoveries"), 1);
    assert!(
        metrics.counter("peer1.catchup_retries") >= 1,
        "lost catch-up requests must be retried"
    );
    let behind = Box::new(AuditFinding::Diverged("height"));
    let behind = AuditFinding::Replica(DEFAULT_CHANNEL.into(), 1, behind);
    assert_eq!(hp.network().audit([]), [behind], "caught up already");

    hp.network_mut().sim.network_mut().heal_all();
    settle(&mut hp, 20);
    assert_eq!(hp.network().audit([]), []);
}

/// The same partition interleaving without snapshots: the genesis-replay
/// path retries and converges too.
#[test]
fn partition_retry_converges_on_genesis_replay_path() {
    let config = NetworkConfig::desktop(1);
    let mut hp = HyperProv::with_config(&config);
    for i in 0..5 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let victim = hp.network().peers[1];
    hp.network_mut().sim.crash_actor(victim);
    for i in 0..3 {
        hp.store_data(&format!("mid-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let others: Vec<_> = (0..hp.network().devices.len() as u32)
        .map(hyperprov_sim::ActorId)
        .filter(|id| *id != victim)
        .collect();
    hp.network_mut()
        .sim
        .network_mut()
        .partition_groups(&[victim], &others);
    hp.network_mut().sim.restart_actor(victim);
    settle(&mut hp, 8);
    assert!(hp.network().sim.metrics().counter("peer1.catchup_retries") >= 1);

    hp.network_mut().sim.network_mut().heal_all();
    settle(&mut hp, 20);
    assert_eq!(hp.network().audit([]), []);
}

/// Elastic membership: a spare peer added to a live network fetches the
/// latest snapshot from a provider, replays the delta, subscribes to
/// future blocks and converges — then keeps up with new traffic.
#[test]
fn added_peer_catches_up_via_snapshot_and_serves_queries() {
    let config = snapshot_config().with_spare_peers(1);
    let mut hp = HyperProv::with_config(&config);
    for i in 0..8 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    assert_eq!(hp.network().spare_peers_left(), 1);
    let joined = hp.network_mut().add_peer();
    assert_eq!(hp.network().spare_peers_left(), 0);
    settle(&mut hp, 15);

    let new_idx = hp.network().peers.len() - 1;
    assert_eq!(hp.network().peers[new_idx], joined);
    assert_eq!(hp.network().audit([]), []);

    let metrics = hp.network().sim.metrics();
    let prefix = format!("peer{new_idx}");
    assert_eq!(metrics.counter(&format!("{prefix}.joins")), 1);
    assert!(
        metrics.counter(&format!("{prefix}.snapshot_boots")) >= 1,
        "the joiner must bootstrap from a provider's snapshot"
    );

    // The joiner answers provenance queries from its own ledger: its
    // graph index matches the incumbents' (the audit) and holds every item.
    assert!(hp.network().ledgers[new_idx].borrow().graph().len() >= 8);

    // New traffic reaches the joiner through its deliver subscription.
    for i in 0..3 {
        hp.store_data(&format!("post-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    settle(&mut hp, 5);
    assert_eq!(hp.network().audit([]), []);
}

/// A peer that was down for longer than the orderer's retained tail asks
/// for the delta, gets a tail that does not link, buffers it, and climbs
/// the ladder to a provider's snapshot. The boot jumps over most of what
/// it buffered; those blocks must go, or they read as a gap for ever and
/// the peer, long since current, keeps asking after the traffic stopped.
#[test]
fn a_snapshot_boot_forgets_the_buffered_blocks_it_jumped_over() {
    let mut hp = HyperProv::with_config(&snapshot_config());
    for i in 0..4 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    let victim = hp.network().peers[1];
    hp.network_mut().sim.crash_actor(victim);
    // More blocks than the 64 the orderer keeps for re-delivery.
    for i in 0..80 {
        hp.store_data(&format!("mid-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    hp.network_mut().sim.restart_actor(victim);
    // Long enough to climb the ladder, boot, and then wait out the
    // (goal-only) request for a delta nobody has.
    settle(&mut hp, 60);

    assert_eq!(hp.network().audit([]), []);
    let retries = |hp: &HyperProv| hp.network().sim.metrics().counter("peer1.catchup_retries");
    assert!(
        hp.network().sim.metrics().counter("peer1.snapshot_fetches") >= 1,
        "the tail did not link: the peer must have fetched a snapshot"
    );
    let settled = retries(&hp);
    settle(&mut hp, 60);
    assert_eq!(retries(&hp), settled, "current, and still asking");
}

/// Elastic membership without snapshots: nobody serves a snapshot, so
/// the joiner asks its catch-up target for the chain from genesis and
/// converges by block re-delivery alone.
#[test]
fn added_peer_without_snapshots_catches_up_by_block_redelivery() {
    let config = NetworkConfig::desktop(1).with_spare_peers(1);
    let mut hp = HyperProv::with_config(&config);
    for i in 0..8 {
        hp.store_data(&format!("pre-{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    hp.network_mut().add_peer();
    settle(&mut hp, 15);

    let new_idx = hp.network().peers.len() - 1;
    assert_eq!(hp.network().ledgers[new_idx].borrow().height(), 8);
    assert_eq!(hp.network().audit([]), []);
    let metrics = hp.network().sim.metrics();
    let prefix = format!("peer{new_idx}");
    assert_eq!(metrics.counter(&format!("{prefix}.joins")), 1);
    assert_eq!(metrics.counter(&format!("{prefix}.snapshot_boots")), 0);
    assert!(metrics.counter(&format!("{prefix}.catchup_requests")) >= 1);
}

/// A spare-free deployment with snapshots disabled is byte-identical to
/// the seed network: same virtual end time for the same workload.
#[test]
fn snapshot_machinery_off_by_default_is_inert() {
    let run = |config: &NetworkConfig| {
        let mut hp = HyperProv::with_config(config);
        for i in 0..4 {
            hp.store_data(&format!("k{i}"), vec![i as u8; 256], vec![], vec![])
                .unwrap();
        }
        hp.now()
    };
    let base = NetworkConfig::desktop(1).with_seed(7);
    // Spare enrollment adds identities after all live ones; it may not
    // shift the timeline.
    let spares = NetworkConfig::desktop(1).with_seed(7).with_spare_peers(2);
    assert_eq!(run(&base), run(&spares));
}
