//! Workspace-level integration tests: scenarios that span every crate —
//! the provenance layer on a Raft-ordered Fabric network, partition
//! tolerance, multi-client convergence, and energy accounting.

mod support;

use hyperprov_repro::device::{DeviceProfile, EnergyModel, PowerMeter};
use hyperprov_repro::fabric::{BatchConfig, QueueConfig};
use hyperprov_repro::hyperprov::{
    current_records, ClientCommand, HyperProv, HyperProvNetwork, NetworkConfig, NodeMsg, OpId,
    OpOutput, RetryPolicy, SnapshotPolicy,
};
use hyperprov_repro::sim::{chrome_trace_json, FaultPlan, SimDuration, SimTime};
use support::{op_id, store_data, views};

/// Client 0 stores a small payload under `key`.
fn store(net: &mut HyperProvNetwork, op: u64, key: &str) {
    let command = ClientCommand::StoreData {
        key: key.into(),
        data: format!("payload for {key}").into_bytes(),
        parents: vec![],
        metadata: vec![],
        op: OpId(op),
    };
    net.sim
        .inject_message(net.clients[0], NodeMsg::Client(command));
}

/// HyperProv running over a 3-node Raft ordering service: the edge
/// resilience story (Vegvisir discussion) applied to the real chaincode.
#[test]
fn hyperprov_over_raft_ordering_survives_leader_loss() {
    let mut config = NetworkConfig::desktop(1)
        .with_seed(17)
        .with_raft_orderers(3)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    config.peer_devices.truncate(1);
    let mut net = HyperProvNetwork::build(&config);
    let orderers = net.orderers.clone();

    // Let raft elect a leader, then store two items through the
    // raft-ordered chain.
    net.sim.run_until(SimTime::from_secs(10));
    store(&mut net, 1, "alpha");
    store(&mut net, 2, "beta");
    net.sim.run_until(SimTime::from_secs(40));
    assert_eq!(net.completions[0].borrow().len(), 2);

    // We don't know which orderer leads; partition orderer 0 — the
    // client's home — from the other two: if it led, a new election must
    // succeed; if not, nothing is lost.
    net.sim.network_mut().partition(orderers[0], orderers[1]);
    net.sim.network_mut().partition(orderers[0], orderers[2]);
    net.sim.run_until(SimTime::from_secs(80));

    // The client still points at orderer 0. Heal so redirects flow, then
    // verify the system still commits (leadership may have moved).
    net.sim.network_mut().heal_all();
    net.sim.run_until(SimTime::from_secs(90));
    store(&mut net, 3, "gamma");
    net.sim.run_until(SimTime::from_secs(140));
    let done: Vec<_> = net.completions[0].borrow().iter().cloned().collect();
    assert!(done.iter().all(|c| c.outcome.is_ok()), "{done:?}");
    assert_eq!(done.len(), 3, "gamma should commit after failover");
    assert_eq!(net.audit(&done), []);
}

/// Several clients spread across orgs write concurrently; all four peers
/// converge and the checksum index sees every client's items.
#[test]
fn multi_client_convergence_across_orgs() {
    let config = NetworkConfig::desktop(4).with_seed(23);
    let mut net = HyperProvNetwork::build(&config);

    // Drive all four clients concurrently (open loop, one item each).
    for (i, &client) in net.clients.clone().iter().enumerate() {
        net.sim.inject_message(
            client,
            NodeMsg::Client(ClientCommand::StoreData {
                key: format!("client{i}-item"),
                data: format!("data from client {i}").into_bytes(),
                parents: vec![],
                metadata: vec![],
                op: OpId(i as u64), // unique: an op id keys the op's spans
            }),
        );
    }
    net.sim.run_until(SimTime::from_secs(30));

    for (i, queue) in net.completions.iter().enumerate() {
        let queue = queue.borrow();
        assert_eq!(queue.len(), 1, "client {i}");
        let completion = &queue[0];
        match &completion.outcome {
            Ok(OpOutput::Committed {
                record: Some(r), ..
            }) => {
                // Each record is attributed to its submitting client.
                assert_eq!(r.creator.subject, format!("client{i}"));
            }
            other => panic!("client {i}: {other:?}"),
        }
    }

    // All peers converge to identical chains with the 4 records.
    let done: Vec<_> = net
        .completions
        .iter()
        .flat_map(|q| q.borrow().clone())
        .collect();
    assert_eq!(net.audit(&done), []);
    assert_eq!(current_records(&net.ledgers[0].borrow()).len(), 4);
}

/// The facade and the device/energy crates fit together: a short RPi
/// session consumes energy between HLF-idle and the 3.64 W cap.
#[test]
fn rpi_session_energy_in_calibrated_band() {
    let mut hp = HyperProv::rpi();
    let start = hp.now();
    for i in 0..4 {
        hp.store_data(
            &format!("edge-{i}"),
            vec![i as u8; 8 * 1024],
            vec![],
            vec![],
        )
        .unwrap();
    }
    let end = hp.now();
    let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
    let peer = hp.network().sim.cpu(hp.network().peers[0]);
    let client = hp.network().sim.cpu(hp.network().clients[0]);
    let avg = meter.average_watts_combined(&[peer, client], start, end, true);
    assert!(
        (2.71..=3.64).contains(&avg),
        "avg power {avg} outside the ODROID-calibrated band"
    );
    // And the device profile agrees with the paper's ~order-of-magnitude
    // CPU gap.
    let gap =
        DeviceProfile::xeon_e5_1603().cpu_speed / DeviceProfile::raspberry_pi_3b_plus().cpu_speed;
    assert!(gap > 5.0);
}

/// Network partitions between peers delay but do not corrupt commits:
/// a peer cut off from the orderer misses blocks, then catches up after
/// healing because deliveries resume (no gossip gap recovery is modelled,
/// so we re-drive traffic after the heal).
#[test]
fn partitioned_peer_stays_consistent() {
    let config = NetworkConfig::desktop(1)
        .with_seed(31)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);
    let victim = net.peers[3];
    let orderer = net.orderers[0];

    // Cut peer 3 off from the orderer.
    net.sim.network_mut().partition(victim, orderer);
    net.sim.inject_message(
        net.clients[0],
        NodeMsg::Client(ClientCommand::StoreData {
            key: "during-partition".into(),
            data: b"x".to_vec(),
            parents: vec![],
            metadata: vec![],
            op: OpId(1),
        }),
    );
    net.sim.run_until(SimTime::from_secs(20));
    assert_eq!(net.completions[0].borrow().len(), 1); // commits without peer 3

    let heights: Vec<u64> = net.ledgers.iter().map(|l| l.borrow().height()).collect();
    assert_eq!(heights[0], 1);
    assert_eq!(heights[3], 0, "partitioned peer missed the block");

    // Heal; the next delivery exposes the gap, peer 3 issues a
    // DeliverRequest (Fabric's deliver service) and catches up fully.
    net.sim.network_mut().heal_all();
    net.sim.inject_message(
        net.clients[0],
        NodeMsg::Client(ClientCommand::StoreData {
            key: "after-heal".into(),
            data: b"y".to_vec(),
            parents: vec![],
            metadata: vec![],
            op: OpId(2),
        }),
    );
    net.sim.run_until(SimTime::from_secs(40));
    assert!(net.sim.metrics().counter("peer3.catchup_requests") >= 1);
    assert!(net.sim.metrics().counter("orderer.deliver_requests") >= 1);
    // Peer 3 recovered both blocks and matches the healthy peers.
    assert_eq!(net.ledgers[0].borrow().height(), 2);
    assert_eq!(net.audit(net.completions[0].borrow().iter()), []);
}

/// Views are read-only: the same seeded deployment — Raft, snapshots, a
/// bounded peer queue, deadlines and retry, a peer crash — run twice in
/// 100 ms steps, once reading every node's view after each step, exports
/// byte-identical metrics and traces.
#[test]
fn reading_every_view_changes_no_export() {
    let run = |read: bool| {
        let config = NetworkConfig::desktop(2)
            .with_seed(31)
            .with_raft_orderers(3)
            .with_snapshots(SnapshotPolicy::every(4))
            .with_peer_queue(QueueConfig::new(2))
            .with_deadlines(
                Some(SimDuration::from_secs(1)),
                Some(SimDuration::from_secs(2)),
            )
            .with_retry(RetryPolicy::new(4));
        let mut net = HyperProvNetwork::build(&config);
        let crash = (SimTime::from_secs(3), SimTime::from_secs(5));
        FaultPlan::new()
            .crash_window(net.peers[1], crash.0, crash.1)
            .install(&mut net.sim);
        for step in 1..=200 {
            if step % 5 == 0 && step <= 100 {
                for client in 0..2 {
                    let op = op_id(client, step);
                    let cmd = store_data(&format!("item-{client}-{step}"), op);
                    net.sim
                        .inject_message(net.clients[client], NodeMsg::Client(cmd));
                }
            }
            net.sim.run_until(SimTime::from_nanos(step * 100_000_000));
            if read {
                assert_eq!(views(&net).len(), 4 + 3 + 1 + 2);
            }
        }
        let tracer = net.sim.tracer();
        let exports = [
            net.sim.metrics().snapshot_json(),
            tracer.snapshot_json(),
            chrome_trace_json(tracer),
        ];
        assert!(
            exports[0].contains("client.timeouts"),
            "no deadline expired"
        );
        exports
    };
    assert_eq!(run(false), run(true));
}
