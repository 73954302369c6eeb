//! End-to-end tests of the execute-order-validate pipeline under the
//! discrete-event simulator: clients, endorsing/committing peers and
//! (solo or raft) orderers wired through the simulated network.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    BatchConfig, BootstrapError, Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
    ChannelPolicies, Committer, EndorsementPolicy, FabricMsg, Gateway, GatewayReply, MspBuilder,
    MspId, Node, OrderingNode, Peer, Route, SigningIdentity, SnapshotPolicy,
};
use hyperprov_ledger::{
    ChannelId, GraphIndexer, GraphUpdate, SnapshotError, StateKey, ValidationCode,
};
use hyperprov_sim::{
    Actor, ActorId, Context, CpuResource, Event, SimDuration, SimTime, Simulation,
};

#[path = "support/driver.rs"]
mod driver;
use driver::{Driver, Ended};

/// A counter chaincode: `inc <key>` reads, increments, writes.
struct CounterCc;
impl Chaincode for CounterCc {
    fn name(&self) -> &str {
        "counter"
    }
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        match stub.function() {
            "inc" => {
                let key = stub.arg_str(0)?.to_owned();
                let current = stub
                    .get_state(&key)
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap_or([0u8; 8])))
                    .unwrap_or(0);
                stub.put_state(&key, (current + 1).to_le_bytes().to_vec());
                Ok(current.to_le_bytes().to_vec())
            }
            "put" => {
                let key = stub.arg_str(0)?.to_owned();
                let value = stub.arg_bytes(1)?.to_vec();
                stub.put_state(&key, value);
                Ok(Vec::new())
            }
            "get" => {
                let key = stub.arg_str(0)?.to_owned();
                stub.get_state(&key).ok_or(ChaincodeError::NotFound(key))
            }
            other => Err(ChaincodeError::UnknownFunction(other.to_owned())),
        }
    }
}

type Log = Rc<RefCell<Vec<Ended>>>;

/// A closed-loop client: increments the counter under `key_of(n)`, one
/// transaction at a time, for `n` from `remaining - 1` down to 0.
fn client_driver(
    gateway: Gateway<()>,
    remaining: u32,
    mut key_of: impl FnMut(u32) -> String + 'static,
    log: &Log,
) -> Node<Driver, FabricMsg> {
    let inc = move |gateway: &mut Gateway<()>, n, now| {
        gateway.invoke(0, (), now, "counter", "inc", vec![key_of(n).into_bytes()])
    };
    Node::new(Driver::new(gateway, remaining, inc, log), "client")
}

/// The transactions that committed: their codes and latencies.
fn committed(log: &Log) -> Vec<(ValidationCode, SimDuration)> {
    let log = log.borrow();
    let code = |(latency, result): &Ended| match result {
        Ok(GatewayReply::Committed { code, .. }) => Some((*code, *latency)),
        _ => None,
    };
    log.iter().filter_map(code).collect()
}

/// What the transactions that failed failed with.
fn failed(log: &Log) -> Vec<String> {
    let log = log.borrow();
    log.iter()
        .filter_map(|(_, r)| r.as_ref().err())
        .map(|e| e.to_string())
        .collect()
}

/// Puts `peer`, called `name`, into `sim` on a CPU of speed 1.
fn start_peer(sim: &mut Simulation<FabricMsg>, peer: Peer, name: String) -> ActorId {
    Node::new(peer, name).start(sim, CpuResource::new(1.0), "peer")
}

/// Puts the ordering node into `sim` on a CPU of speed 1.
fn start_orderer(sim: &mut Simulation<FabricMsg>, node: OrderingNode) -> ActorId {
    Node::new(node, "orderer").start(sim, CpuResource::new(1.0), "orderer")
}

struct TestNet {
    sim: Simulation<FabricMsg>,
    peers: Vec<ActorId>,
    log: Log,
}

/// Builds: 4 peers (org1..org4), 1 solo orderer, 1 client, counter
/// chaincode with an any-org policy.
fn build_solo_net(txs: u32, batch: BatchConfig, hot_key: bool) -> TestNet {
    let mut msp_builder = MspBuilder::new(7);
    let orgs: Vec<MspId> = (1..=4).map(|i| MspId::new(format!("org{i}"))).collect();
    let peer_ids: Vec<SigningIdentity> = orgs
        .iter()
        .enumerate()
        .map(|(i, org)| msp_builder.enroll(&format!("peer{i}"), org))
        .collect();
    let client_id = msp_builder.enroll("client0", &orgs[0]);
    let msp = msp_builder.build();

    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(CounterCc));

    let policy = EndorsementPolicy::any_of(orgs.clone());

    let mut sim = Simulation::new(42);
    let mut peers = Vec::new();
    // Actor ids are assigned in add order: peers 0..4, orderer 4, client 5.
    let client_actor_id = ActorId(5);
    for (i, identity) in peer_ids.iter().enumerate() {
        let name = format!("peer{i}");
        let mut peer = Peer::new(identity.clone(), registry.clone(), name.clone());
        let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy.clone()));
        peer.host(Rc::new(RefCell::new(ledger)), None);
        if i == 0 {
            peer.subscribe(client_actor_id, client_id.certificate().id);
        }
        peers.push(start_peer(&mut sim, peer, name));
    }
    let node = OrderingNode::solo(ChannelId::default(), batch, peers.clone());
    let orderer = start_orderer(&mut sim, node);

    let log = Log::default();
    let route = Route::new(ChannelId::default(), peers.clone(), vec![orderer], 1);
    let gateway = Gateway::new(client_id, vec![route]);
    let key_of = move |n| match hot_key {
        true => "hot".to_owned(),
        false => format!("key{n}"),
    };
    let driver = client_driver(gateway, txs, key_of, &log);
    let client = driver.start(&mut sim, CpuResource::new(1.0), "client");
    assert_eq!(client, client_actor_id);
    sim.start_timer(client, SimDuration::ZERO, 0);
    TestNet { sim, peers, log }
}

#[test]
fn closed_loop_transactions_all_commit() {
    let mut net = build_solo_net(20, BatchConfig::default(), false);
    net.sim.run_until(SimTime::from_secs(120));
    let committed = committed(&net.log);
    assert_eq!(committed.len(), 20, "failed: {:?}", failed(&net.log));
    assert!(failed(&net.log).is_empty());
    for (code, latency) in &committed {
        assert_eq!(*code, ValidationCode::Valid);
        // Each closed-loop tx waits for the 2s batch timeout at most.
        assert!(*latency <= SimDuration::from_secs(3), "{latency}");
        assert!(*latency >= SimDuration::from_micros(100), "{latency}");
    }
}

#[test]
fn batch_size_one_cuts_immediately_and_lowers_latency() {
    let fast_batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    let mut net = build_solo_net(10, fast_batch, false);
    net.sim.run_until(SimTime::from_secs(60));
    let committed = committed(&net.log);
    assert_eq!(committed.len(), 10);
    for (_, latency) in &committed {
        // No batch-timeout stall: commits land in ~10s of milliseconds.
        assert!(*latency < SimDuration::from_millis(100), "{latency}");
    }
    assert_eq!(net.sim.metrics().counter("orderer.blocks_cut"), 10);
    assert_eq!(net.sim.metrics().counter("orderer.timeout_cuts"), 0);
}

#[test]
fn closed_loop_hot_key_still_commits_serially() {
    // A closed-loop client on one hot key never conflicts with itself.
    let mut net = build_solo_net(10, BatchConfig::default(), true);
    net.sim.run_until(SimTime::from_secs(120));
    let committed = committed(&net.log);
    assert_eq!(committed.len(), 10);
    assert!(committed
        .iter()
        .all(|(code, _)| *code == ValidationCode::Valid));
}

#[test]
fn all_peers_converge_to_same_chain() {
    let mut net = build_solo_net(15, BatchConfig::default(), false);
    net.sim.run_until(SimTime::from_secs(120));
    // Inspect peer metrics: all four peers committed the same number of
    // valid transactions and blocks.
    let m = net.sim.metrics();
    let blocks0 = m.counter("peer0.blocks");
    assert!(blocks0 > 0);
    for i in 1..4 {
        assert_eq!(m.counter(&format!("peer{i}.blocks")), blocks0);
        assert_eq!(
            m.counter(&format!("peer{i}.tx.valid")),
            m.counter("peer0.tx.valid")
        );
    }
    assert_eq!(m.counter("peer0.tx.valid"), 15);
    assert_eq!(m.counter("peer0.tx.invalid"), 0);
    let _ = &net.peers;
}

/// Raft variant: 3 orderers, peers receive blocks from every applying
/// member and deduplicate.
#[test]
fn raft_ordering_service_commits_transactions() {
    let mut msp_builder = MspBuilder::new(9);
    let org = MspId::new("org1");
    let peer_identity = msp_builder.enroll("peer0", &org);
    let client_id = msp_builder.enroll("client0", &org);
    let msp = msp_builder.build();

    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(CounterCc));
    let policy = EndorsementPolicy::any_of([org.clone()]);

    let mut sim = Simulation::new(11);
    // Layout: peer=0, orderers=1,2,3, client=4.
    let peer_actor_id = ActorId(0);
    let orderer_ids: Vec<ActorId> = (1..=3).map(ActorId).collect();
    let client_actor_id = ActorId(4);

    let mut peer = Peer::new(peer_identity, registry, "peer0".to_owned());
    let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy));
    peer.host(Rc::new(RefCell::new(ledger)), None);
    peer.subscribe(client_actor_id, client_id.certificate().id);
    let got_peer = start_peer(&mut sim, peer, "peer0".to_owned());
    assert_eq!(got_peer, peer_actor_id);

    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    for i in 0..3 {
        let node = OrderingNode::raft(
            i,
            orderer_ids.clone(),
            ChannelId::default(),
            vec![peer_actor_id],
            batch,
            77,
        );
        assert_eq!(start_orderer(&mut sim, node), orderer_ids[i]);
    }

    let log = Log::default();
    // Point the gateway at orderer 0; it redirects to the leader if needed.
    let route = Route::new(ChannelId::default(), vec![peer_actor_id], orderer_ids, 1);
    let gateway = Gateway::new(client_id, vec![route]);
    let driver = client_driver(gateway, 8, |n| format!("key{n}"), &log);
    let client = driver.start(&mut sim, CpuResource::new(1.0), "client");
    assert_eq!(client, client_actor_id);

    // Give raft time to elect before starting the workload.
    sim.start_timer(client, SimDuration::from_secs(5), 0);
    sim.run_until(SimTime::from_secs(300));

    let committed = committed(&log);
    assert_eq!(committed.len(), 8, "failed: {:?}", failed(&log));
    assert!(committed
        .iter()
        .all(|(code, _)| *code == ValidationCode::Valid));
    // Peer deduplicated multi-orderer deliveries: 8 blocks committed once.
    assert_eq!(sim.metrics().counter("peer0.blocks"), 8);
}

#[test]
fn endorsement_failure_reported_to_client() {
    // Query a missing key: chaincode rejects, gateway surfaces QueryDone Err.
    let mut msp_builder = MspBuilder::new(5);
    let org = MspId::new("org1");
    let peer_identity = msp_builder.enroll("peer0", &org);
    let client_id = msp_builder.enroll("client0", &org);
    let msp = msp_builder.build();
    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(CounterCc));

    let mut sim = Simulation::new(3);
    let mut peer = Peer::new(peer_identity, registry, "peer0".to_owned());
    let policy = EndorsementPolicy::any_of([org.clone()]);
    let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy));
    peer.host(Rc::new(RefCell::new(ledger)), None);
    let peer_id = start_peer(&mut sim, peer, "peer0".to_owned());
    let log = Log::default();
    let route = Route::new(ChannelId::default(), vec![peer_id], vec![peer_id], 1);
    let gateway = Gateway::new(client_id, vec![route]);
    let get = |gateway: &mut Gateway<()>, _, now| {
        gateway.query(0, (), now, "counter", "get", vec![b"missing".to_vec()])
    };
    let driver = Node::new(Driver::new(gateway, 1, get, &log), "client");
    let client = driver.start(&mut sim, CpuResource::new(1.0), "client");
    sim.start_timer(client, SimDuration::ZERO, 0);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(failed(&log).len(), 1);
    assert!(failed(&log)[0].contains("not found"), "{:?}", failed(&log));
    assert_eq!(log.borrow().len(), 1, "a query does not commit");
}

/// Records every block delivered to it as `(sender, block number)`.
struct DeliveryTap(Rc<RefCell<Vec<(ActorId, u64)>>>);
impl Actor<FabricMsg> for DeliveryTap {
    fn on_event(&mut self, _ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
        if let Event::Message {
            src,
            msg: FabricMsg::DeliverBlock(_, block),
        } = event
        {
            self.0.borrow_mut().push((src, block.header.number));
        }
    }
}

/// Every counter key is a parentless node of the provenance graph, so
/// that graph digests have something to disagree about.
#[derive(Debug)]
struct KeyIndexer;
impl GraphIndexer for KeyIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate> {
        let key = key.key.to_string();
        Some(match value {
            Some(_) => GraphUpdate::Insert {
                key,
                parents: vec![],
            },
            None => GraphUpdate::Remove { key },
        })
    }
}

/// Two peers (actors 0 and 1), a delivery tap (actor 2), a solo orderer
/// (`members == 1`) or a Raft cluster cutting one block per transaction,
/// and two closed-loop clients of peer 0 that start when their timer 0
/// does. Each peer asks one ordering node for the blocks it missed.
struct SmallNet {
    sim: Simulation<FabricMsg>,
    ledgers: Vec<Rc<RefCell<Committer>>>,
    orderers: Vec<ActorId>,
    clients: [ActorId; 2],
    taps: Rc<RefCell<Vec<(ActorId, u64)>>>,
    log: Log,
}

const SMALL_NET_PEERS: [ActorId; 2] = [ActorId(0), ActorId(1)];
const SMALL_NET_TAP: ActorId = ActorId(2);

impl SmallNet {
    fn build(members: usize, client_txs: [u32; 2], snapshots: Option<SnapshotPolicy>) -> Self {
        let mut msp_builder = MspBuilder::new(21);
        let org = MspId::new("org1");
        let identities = [
            msp_builder.enroll("peer0", &org),
            msp_builder.enroll("peer1", &org),
        ];
        let client_ids = [
            msp_builder.enroll("client0", &org),
            msp_builder.enroll("client1", &org),
        ];
        let msp = msp_builder.build();
        let mut registry = ChaincodeRegistry::new();
        registry.install(Arc::new(CounterCc));
        let policy = EndorsementPolicy::any_of([org.clone()]);

        // Layout: the peers, the tap, the orderers, then the clients.
        let orderers: Vec<ActorId> = (0..members as u32).map(|i| ActorId(3 + i)).collect();
        let clients = [ActorId(3 + members as u32), ActorId(4 + members as u32)];

        let mut sim = Simulation::new(13);
        let mut ledgers = Vec::new();
        for (i, identity) in identities.into_iter().enumerate() {
            let name = format!("peer{i}");
            let mut peer = Peer::new(identity, registry.clone(), name.clone());
            if let Some(policy) = snapshots {
                peer.set_snapshots(policy);
            }
            let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy.clone()))
                .with_indexer(Arc::new(KeyIndexer));
            let ledger = Rc::new(RefCell::new(ledger));
            peer.host(ledger.clone(), Some(orderers[i % members]));
            ledgers.push(ledger);
            if i == 0 {
                for (actor, identity) in clients.iter().zip(&client_ids) {
                    peer.subscribe(*actor, identity.certificate().id);
                }
            }
            assert_eq!(start_peer(&mut sim, peer, name), SMALL_NET_PEERS[i]);
        }
        let taps = Rc::new(RefCell::new(Vec::new()));
        assert_eq!(
            sim.add_actor(Box::new(DeliveryTap(taps.clone()))),
            SMALL_NET_TAP
        );
        let batch = BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        };
        for (i, &expected) in orderers.iter().enumerate() {
            let (channel, peers) = (ChannelId::default(), SMALL_NET_PEERS.to_vec());
            let node = if members == 1 {
                OrderingNode::solo(channel, batch, peers)
            } else {
                OrderingNode::raft(i, orderers.clone(), channel, peers, batch, 31)
            };
            assert_eq!(start_orderer(&mut sim, node), expected);
        }
        let log = Log::default();
        for (c, (identity, remaining)) in client_ids.into_iter().zip(client_txs).enumerate() {
            let peers = vec![SMALL_NET_PEERS[0]];
            let route = Route::new(ChannelId::default(), peers, vec![orderers[0]], 1);
            let gateway = Gateway::new(identity, vec![route]);
            let key_of = move |n| format!("key{c}-{n}");
            let driver = client_driver(gateway, remaining, key_of, &log);
            let cpu = CpuResource::new(1.0);
            assert_eq!(driver.start(&mut sim, cpu, "client"), clients[c]);
        }
        SmallNet {
            sim,
            ledgers,
            orderers,
            clients,
            taps,
            log,
        }
    }

    fn height(&self, peer: usize) -> u64 {
        self.ledgers[peer].borrow().height()
    }

    /// Steps the simulation until `peer` has committed `target` blocks.
    fn run_to_height(&mut self, peer: usize, target: u64) {
        while self.height(peer) < target {
            assert!(self.sim.run_events(1) == 1, "ran dry below height {target}");
        }
    }

    fn run_for(&mut self, seconds: u64) {
        self.sim
            .run_until(self.sim.now() + SimDuration::from_secs(seconds));
    }
}

/// The ordering front-end's deliver service and delivery subscription,
/// on a solo orderer (`members == 1`) or a Raft cluster: two peers, one
/// block per transaction, two closed-loop clients one after the other.
///
/// * Peer 1 is cut off from every ordering node for the last six of the
///   first client's eleven blocks — fewer than the retained tail — and
///   after the heal asks the sender of the first live block to
///   re-deliver; it must converge with peer 0 on height and state hash.
/// * A tap subscribed with `DeliverSubscribe` between the two clients
///   receives every block of the second exactly once per ordering node,
///   and none of the first.
fn deliver_service_redelivers_and_subscribes(members: usize) {
    let mut net = SmallNet::build(members, [11, 13], None);
    // Give raft time to elect before the first client starts.
    net.sim
        .start_timer(net.clients[0], SimDuration::from_secs(5), 0);

    net.run_to_height(0, 5);
    net.sim
        .network_mut()
        .partition_groups(&[SMALL_NET_PEERS[1]], &net.orderers);
    net.run_to_height(0, 11);
    // The first client is done: let every ordering node apply its last
    // block before the heal and the subscription.
    net.run_for(5);
    assert_eq!(net.height(0), 11);
    assert!(net.height(1) <= 5, "peer 1 kept receiving blocks");
    net.sim.network_mut().heal_all();
    for &orderer in &net.orderers {
        let subscribe = FabricMsg::DeliverSubscribe {
            channel: ChannelId::default(),
            peer: SMALL_NET_TAP,
        };
        net.sim.inject_message(orderer, subscribe);
    }
    net.sim
        .start_timer(net.clients[1], SimDuration::from_secs(1), 0);
    net.run_for(120);

    assert_eq!(committed(&net.log).len(), 24, "{:?}", failed(&net.log));
    assert_eq!(net.height(0), 24);
    assert_eq!(net.height(1), 24, "the cut-off peer caught up");
    assert_eq!(
        net.ledgers[1].borrow().state().state_hash(),
        net.ledgers[0].borrow().state().state_hash()
    );
    let metrics = net.sim.metrics();
    assert!(metrics.counter("peer1.catchup_requests") >= 1);
    assert!(metrics.counter("orderer.deliver_requests") >= 1);
    assert_eq!(metrics.counter("orderer.subscriptions"), members as u64);

    let taps = net.taps.borrow();
    for &orderer in &net.orderers {
        let mut got: Vec<u64> = taps
            .iter()
            .filter(|&&(src, _)| src == orderer)
            .map(|&(_, n)| n)
            .collect();
        got.sort_unstable();
        let later: Vec<u64> = (11..24).collect();
        assert_eq!(got, later, "deliveries from {orderer}");
    }
    assert_eq!(taps.len(), 13 * members);
}

#[test]
fn solo_deliver_service_redelivers_and_subscribes() {
    deliver_service_redelivers_and_subscribes(1);
}

#[test]
fn raft_deliver_service_redelivers_and_subscribes() {
    deliver_service_redelivers_and_subscribes(3);
}

/// A peer cuts snapshots and, in the usual course, nobody reads them:
/// they stay frozen, their manifests uncomputed. A crash then makes the
/// restart the first reader — it must seal the cut it finds, verify it,
/// boot from it and converge with the peer that never went down.
#[test]
fn a_peer_that_crashes_holding_an_unread_cut_boots_from_it() {
    let mut net = SmallNet::build(1, [11, 0], Some(SnapshotPolicy::every(4)));
    let peer1 = SMALL_NET_PEERS[1];
    net.sim.start_timer(net.clients[0], SimDuration::ZERO, 0);

    // Peer 1 cuts at heights 4 and 8; no one asks it for either.
    net.run_to_height(1, 9);
    assert_eq!(net.sim.metrics().counter("peer1.snapshots.cut"), 2);
    assert_eq!(net.sim.metrics().counter("peer1.snapshot_requests"), 0);
    net.sim.crash_actor(peer1);
    net.run_to_height(0, 11);
    net.run_for(5);
    assert_eq!(net.height(1), 9);

    net.sim.restart_actor(peer1);
    net.run_for(60);
    let metrics = net.sim.metrics();
    assert_eq!(metrics.counter("peer1.snapshot_boots"), 1);
    assert_eq!(metrics.counter("peer1.snapshot_boot_errors"), 0);
    assert_eq!(metrics.gauge("peer1.recovery.snapshot_boots"), Some(1.0));
    // Block 8 on top of the cut at height 8; 9 and 10 come from the
    // orderer.
    assert_eq!(metrics.gauge("peer1.recovery.replayed_blocks"), Some(1.0));
    assert_eq!(net.height(1), 11);
    let (incumbent, recovered) = (net.ledgers[0].borrow(), net.ledgers[1].borrow());
    assert_eq!(recovered.store().base_height(), 8);
    assert_eq!(
        recovered.state().state_hash(),
        incumbent.state().state_hash()
    );
    assert_eq!(recovered.graph().len(), 11);
    assert_eq!(recovered.graph().digest(), incumbent.graph().digest());

    // An entry edited after the seal is what verification reports, and
    // what keeps a committer from booting.
    let mut cut = incumbent.snapshot(4);
    cut.verify().unwrap();
    cut.chunks[1].entries[0].value = b"evil".as_slice().into();
    let tampered = SnapshotError::PartDigestMismatch { index: 1 };
    assert_eq!(cut.verify(), Err(tampered.clone()));
    assert_eq!(
        incumbent.recover_from_snapshot(&cut).unwrap_err(),
        BootstrapError::Snapshot(tampered)
    );
}
