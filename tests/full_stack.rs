//! Workspace-level integration tests: scenarios that span every crate —
//! the provenance layer on a Raft-ordered Fabric network, partition
//! tolerance, multi-client convergence, and energy accounting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_repro::device::{DeviceProfile, EnergyModel, PowerMeter};
use hyperprov_repro::fabric::{
    BatchConfig, ChaincodeRegistry, ChannelPolicies, Committer, CostModel, EndorsementPolicy,
    Gateway, MspBuilder, MspId, OrdererActor, OrderingNode, PeerActor, Route,
};
use hyperprov_repro::hyperprov::{
    audit, ClientCommand, HyperProv, HyperProvChaincode, HyperProvClient, NetworkConfig, NodeMsg,
    OpId, OpOutput,
};
use hyperprov_repro::sim::{ActorId, SimDuration, SimTime, Simulation};

/// HyperProv running over a 3-node Raft ordering service: the edge
/// resilience story (Vegvisir discussion) applied to the real chaincode.
#[test]
fn hyperprov_over_raft_ordering_survives_leader_loss() {
    let costs = CostModel::default();
    let mut msp_builder = MspBuilder::new(4);
    let org = MspId::new("org1");
    let peer_identity = msp_builder.enroll("peer0", &org);
    let client_identity = msp_builder.enroll("client0", &org);
    let msp = msp_builder.build();

    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(HyperProvChaincode::new()));

    // Layout: peer 0; orderers 1, 2, 3; storage 4; client 5.
    let peer_id = ActorId(0);
    let orderers: Vec<ActorId> = (1..=3).map(ActorId).collect();
    let storage_id = ActorId(4);
    let client_id = ActorId(5);

    let mut sim: Simulation<NodeMsg> = Simulation::new(17);
    // The gateway submits on "raft-channel", so the peer must host that
    // channel (proposals are routed to the matching per-channel ledger).
    let committer = Rc::new(RefCell::new(Committer::for_channel(
        "raft-channel".into(),
        msp.clone(),
        ChannelPolicies::new(EndorsementPolicy::any_of([org.clone()])),
    )));
    let mut peer = PeerActor::<NodeMsg>::new(peer_identity, registry, costs, "peer0");
    peer.add_channel(committer.clone(), None);
    peer.subscribe(client_id, client_identity.certificate().id);
    assert_eq!(sim.add_actor(Box::new(peer)), peer_id);

    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    for i in 0..3 {
        let node = OrderingNode::raft(
            i,
            orderers.clone(),
            "raft-channel".into(),
            vec![peer_id],
            batch,
            99,
            costs,
        );
        assert_eq!(OrdererActor::start(node, &mut sim, 1.0), orderers[i]);
    }

    let store = Arc::new(hyperprov_repro::offchain::MemoryStore::new());
    let storage =
        hyperprov_repro::offchain::StorageActor::<NodeMsg>::new(store.clone(), Default::default());
    assert_eq!(sim.add_actor(Box::new(storage)), storage_id);

    let route = Route::new("raft-channel", vec![peer_id], orderers.clone(), 1);
    let gateway = Gateway::new(client_identity, vec![route], costs);
    let (client, completions) = HyperProvClient::new(gateway, storage_id, "sshfs://s/", costs);
    assert_eq!(sim.add_actor(Box::new(client)), client_id);

    // Let raft elect a leader.
    sim.run_until(SimTime::from_secs(10));

    // Store three items through the raft-ordered chain.
    let submit = |sim: &mut Simulation<NodeMsg>, op: u64, key: &str| {
        sim.inject_message(
            client_id,
            NodeMsg::Client(ClientCommand::StoreData {
                key: key.into(),
                data: format!("payload for {key}").into_bytes(),
                parents: vec![],
                metadata: vec![],
                op: OpId(op),
            }),
        );
    };
    submit(&mut sim, 1, "alpha");
    submit(&mut sim, 2, "beta");
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(completions.borrow().len(), 2);
    assert!(completions.borrow().iter().all(|c| c.outcome.is_ok()));
    completions.borrow_mut().clear();

    // Kill the current leader by partitioning it from everyone.
    let leader = orderers
        .iter()
        .copied()
        .find(|_| true)
        .expect("have orderers");
    // We don't know which one leads; partition orderer 0 from the other
    // two (and from the client path via redirect) — if it led, a new
    // election must succeed; if not, nothing is lost.
    sim.network_mut().partition(orderers[0], orderers[1]);
    sim.network_mut().partition(orderers[0], orderers[2]);
    let _ = leader;
    sim.run_until(SimTime::from_secs(80));

    // The client still points at orderer 0. Heal so redirects flow, then
    // verify the system still commits (leadership may have moved).
    sim.network_mut().heal_all();
    sim.run_until(SimTime::from_secs(90));
    submit(&mut sim, 3, "gamma");
    sim.run_until(SimTime::from_secs(140));
    let done: Vec<_> = completions
        .borrow()
        .iter()
        .map(|c| c.outcome.is_ok())
        .collect();
    assert_eq!(done, vec![true], "gamma should commit after failover");

    // Ledger is consistent and audits clean.
    let ledger = committer.borrow();
    ledger.store().verify_chain().unwrap();
    let report = audit(&ledger, store.as_ref());
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.records_checked, 3);
}

/// Several clients spread across orgs write concurrently; all four peers
/// converge and the checksum index sees every client's items.
#[test]
fn multi_client_convergence_across_orgs() {
    let config = NetworkConfig::desktop(4).with_seed(23);
    let mut net = hyperprov_repro::hyperprov::HyperProvNetwork::build(&config);

    // Drive all four clients concurrently (open loop, one item each).
    for (i, &client) in net.clients.clone().iter().enumerate() {
        net.sim.inject_message(
            client,
            NodeMsg::Client(ClientCommand::StoreData {
                key: format!("client{i}-item"),
                data: format!("data from client {i}").into_bytes(),
                parents: vec![],
                metadata: vec![],
                op: OpId(1),
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

    // All peers converge to identical chains with 4 records.
    let tips: Vec<_> = net
        .ledgers
        .iter()
        .map(|l| l.borrow().store().tip_hash())
        .collect();
    assert!(tips.iter().all(|t| *t == tips[0]));
    for ledger in &net.ledgers {
        let report = audit(&ledger.borrow(), net.store.as_ref());
        assert!(report.is_clean());
        assert_eq!(report.records_checked, 4);
    }
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
    let mut net = hyperprov_repro::hyperprov::HyperProvNetwork::build(&config);
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
    let ledger3 = net.ledgers[3].borrow();
    let ledger0 = net.ledgers[0].borrow();
    assert_eq!(ledger0.height(), 2);
    assert_eq!(ledger3.height(), 2, "peer 3 should have caught up");
    assert_eq!(ledger3.store().tip_hash(), ledger0.store().tip_hash());
    ledger3.store().verify_chain().unwrap();
    ledger0.store().verify_chain().unwrap();
}
