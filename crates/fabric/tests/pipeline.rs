//! End-to-end tests of the execute-order-validate pipeline under the
//! discrete-event simulator: clients, endorsing/committing peers and
//! (solo or raft) orderers wired through the simulated network.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    BatchConfig, Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub, ChannelPolicies,
    Committer, CostModel, EndorsementPolicy, FabricMsg, Gateway, GatewayEvent, MspBuilder, MspId,
    PeerActor, RaftOrdererActor, SigningIdentity, SoloOrdererActor, RAFT_TICK_TOKEN,
};
use hyperprov_ledger::{ChannelId, ValidationCode};
use hyperprov_sim::{
    Actor, ActorId, Context, Event, ServiceHarness, SimDuration, SimTime, Simulation,
};

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

#[derive(Debug, Default)]
struct DriverLog {
    committed: Vec<(ValidationCode, SimDuration)>,
    failed: Vec<String>,
    queries: Vec<Result<Vec<u8>, String>>,
}

/// Closed-loop client: issues `remaining` transactions one at a time.
struct ClientDriver {
    gateway: Gateway,
    harness: ServiceHarness<FabricMsg>,
    remaining: u32,
    key_of: Box<dyn FnMut(u32) -> String>,
    log: Rc<RefCell<DriverLog>>,
}

impl Actor<FabricMsg> for ClientDriver {
    fn on_event(&mut self, ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
        match event {
            Event::Timer { token: 0 } => self.next(ctx),
            Event::Timer { token } => {
                let _ = self.harness.on_timer(ctx, token);
            }
            Event::Message { msg, .. } => {
                for ev in self.gateway.handle(ctx, msg) {
                    match ev {
                        GatewayEvent::TxCommitted { code, latency, .. } => {
                            self.log.borrow_mut().committed.push((code, latency));
                            self.next(ctx);
                        }
                        GatewayEvent::TxFailed { error, .. } => {
                            self.log.borrow_mut().failed.push(error.to_string());
                            self.next(ctx);
                        }
                        GatewayEvent::QueryDone { result, .. } => {
                            self.log
                                .borrow_mut()
                                .queries
                                .push(result.map_err(|e| e.to_string()));
                        }
                    }
                }
            }
        }
    }
}

impl ClientDriver {
    fn next(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let n = self.remaining;
        let key = (self.key_of)(n);
        self.gateway.invoke(
            ctx,
            &mut self.harness,
            "counter",
            "inc",
            vec![key.into_bytes()],
        );
    }
}

struct TestNet {
    sim: Simulation<FabricMsg>,
    peers: Vec<ActorId>,
    log: Rc<RefCell<DriverLog>>,
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
    let costs = CostModel::default();

    let mut sim = Simulation::new(42);
    let mut peers = Vec::new();
    let mut peer_actors: Vec<PeerActor<FabricMsg>> = peer_ids
        .iter()
        .enumerate()
        .map(|(i, identity)| {
            let mut peer = PeerActor::new(
                identity.clone(),
                registry.clone(),
                costs,
                format!("peer{i}"),
            );
            let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy.clone()));
            peer.add_channel(Rc::new(RefCell::new(ledger)), None);
            peer
        })
        .collect();

    // Actor ids are assigned in add order: peers 0..4, orderer 4, client 5.
    let client_actor_id = ActorId(5);
    peer_actors[0].subscribe(client_actor_id, client_id.certificate().id);

    for actor in peer_actors {
        peers.push(sim.add_actor(Box::new(actor)));
    }
    let orderer = sim.add_actor(Box::new(SoloOrdererActor::<FabricMsg>::new(
        ChannelId::default(),
        batch,
        peers.clone(),
        costs,
    )));

    let log = Rc::new(RefCell::new(DriverLog::default()));
    let gateway = Gateway::new(
        client_id,
        ChannelId::default(),
        peers.clone(),
        orderer,
        1,
        costs,
    );
    let driver = ClientDriver {
        gateway,
        harness: ServiceHarness::new("client"),
        remaining: txs,
        key_of: if hot_key {
            Box::new(|_| "hot".to_owned())
        } else {
            Box::new(|n| format!("key{n}"))
        },
        log: log.clone(),
    };
    let client = sim.add_actor(Box::new(driver));
    assert_eq!(client, client_actor_id);
    sim.start_timer(client, SimDuration::ZERO, 0);
    TestNet { sim, peers, log }
}

#[test]
fn closed_loop_transactions_all_commit() {
    let mut net = build_solo_net(20, BatchConfig::default(), false);
    net.sim.run_until(SimTime::from_secs(120));
    let log = net.log.borrow();
    assert_eq!(log.committed.len(), 20, "failed: {:?}", log.failed);
    assert!(log.failed.is_empty());
    for (code, latency) in &log.committed {
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
    let log = net.log.borrow();
    assert_eq!(log.committed.len(), 10);
    for (_, latency) in &log.committed {
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
    let log = net.log.borrow();
    assert_eq!(log.committed.len(), 10);
    assert!(log
        .committed
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
    let costs = CostModel::default();
    let policy = EndorsementPolicy::any_of([org.clone()]);

    let mut sim = Simulation::new(11);
    // Layout: peer=0, orderers=1,2,3, client=4.
    let peer_actor_id = ActorId(0);
    let orderer_ids: Vec<ActorId> = (1..=3).map(ActorId).collect();
    let client_actor_id = ActorId(4);

    let mut peer = PeerActor::<FabricMsg>::new(peer_identity, registry, costs, "peer0");
    let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy));
    peer.add_channel(Rc::new(RefCell::new(ledger)), None);
    peer.subscribe(client_actor_id, client_id.certificate().id);
    let got_peer = sim.add_actor(Box::new(peer));
    assert_eq!(got_peer, peer_actor_id);

    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    for i in 0..3 {
        let actor = RaftOrdererActor::<FabricMsg>::new(
            i,
            orderer_ids.clone(),
            ChannelId::default(),
            vec![peer_actor_id],
            batch,
            77,
            costs,
        );
        let id = sim.add_actor(Box::new(actor));
        assert_eq!(id, orderer_ids[i]);
        sim.start_timer(id, SimDuration::ZERO, RAFT_TICK_TOKEN);
    }

    let log = Rc::new(RefCell::new(DriverLog::default()));
    // Point the gateway at orderer 0; it redirects to the leader if needed.
    let gateway = Gateway::new(
        client_id,
        ChannelId::default(),
        vec![peer_actor_id],
        orderer_ids[0],
        1,
        costs,
    );
    let driver = ClientDriver {
        gateway,
        harness: ServiceHarness::new("client"),
        remaining: 8,
        key_of: Box::new(|n| format!("key{n}")),
        log: log.clone(),
    };
    let client = sim.add_actor(Box::new(driver));
    assert_eq!(client, client_actor_id);

    // Give raft time to elect before starting the workload.
    sim.start_timer(client, SimDuration::from_secs(5), 0);
    sim.run_until(SimTime::from_secs(300));

    let log = log.borrow();
    assert_eq!(log.committed.len(), 8, "failed: {:?}", log.failed);
    assert!(log
        .committed
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
    let costs = CostModel::default();

    struct QueryOnce {
        gateway: Gateway,
        harness: ServiceHarness<FabricMsg>,
        log: Rc<RefCell<DriverLog>>,
    }
    impl Actor<FabricMsg> for QueryOnce {
        fn on_event(&mut self, ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
            match event {
                Event::Timer { token: 0 } => {
                    self.gateway.query(
                        ctx,
                        &mut self.harness,
                        "counter",
                        "get",
                        vec![b"missing".to_vec()],
                    );
                }
                Event::Timer { token } => {
                    let _ = self.harness.on_timer(ctx, token);
                }
                Event::Message { msg, .. } => {
                    for ev in self.gateway.handle(ctx, msg) {
                        if let GatewayEvent::QueryDone { result, .. } = ev {
                            self.log
                                .borrow_mut()
                                .queries
                                .push(result.map_err(|e| e.to_string()));
                            ctx.stop();
                        }
                    }
                }
            }
        }
    }

    let mut sim = Simulation::new(3);
    let mut peer = PeerActor::<FabricMsg>::new(peer_identity, registry, costs, "peer0");
    let policy = EndorsementPolicy::any_of([org.clone()]);
    let ledger = Committer::new(msp.clone(), ChannelPolicies::new(policy));
    peer.add_channel(Rc::new(RefCell::new(ledger)), None);
    let peer_id = sim.add_actor(Box::new(peer));
    let log = Rc::new(RefCell::new(DriverLog::default()));
    let gateway = Gateway::new(
        client_id,
        ChannelId::default(),
        vec![peer_id],
        peer_id,
        1,
        costs,
    );
    let client = sim.add_actor(Box::new(QueryOnce {
        gateway,
        harness: ServiceHarness::new("client"),
        log: log.clone(),
    }));
    sim.start_timer(client, SimDuration::ZERO, 0);
    sim.run_until(SimTime::from_secs(10));
    let log = log.borrow();
    assert_eq!(log.queries.len(), 1);
    assert!(log.queries[0].as_ref().unwrap_err().contains("not found"));
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
    let costs = CostModel::default();
    let policy = EndorsementPolicy::any_of([org.clone()]);

    // Layout: peers 0 and 1, the tap 2, orderers 3.., then the clients.
    let peer_ids = [ActorId(0), ActorId(1)];
    let tap_id = ActorId(2);
    let orderer_ids: Vec<ActorId> = (0..members as u32).map(|i| ActorId(3 + i)).collect();
    let client_actor_ids = [ActorId(3 + members as u32), ActorId(4 + members as u32)];

    let mut sim = Simulation::new(13);
    let mut ledgers = Vec::new();
    for (i, identity) in identities.into_iter().enumerate() {
        let mut peer =
            PeerActor::<FabricMsg>::new(identity, registry.clone(), costs, format!("peer{i}"));
        let ledger = Rc::new(RefCell::new(Committer::new(
            msp.clone(),
            ChannelPolicies::new(policy.clone()),
        )));
        peer.add_channel(ledger.clone(), Some(orderer_ids[i % members]));
        ledgers.push(ledger);
        if i == 0 {
            for (actor, identity) in client_actor_ids.iter().zip(&client_ids) {
                peer.subscribe(*actor, identity.certificate().id);
            }
        }
        assert_eq!(sim.add_actor(Box::new(peer)), peer_ids[i]);
    }
    let taps = Rc::new(RefCell::new(Vec::new()));
    assert_eq!(sim.add_actor(Box::new(DeliveryTap(taps.clone()))), tap_id);
    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    for (i, &expected) in orderer_ids.iter().enumerate() {
        let id = if members == 1 {
            sim.add_actor(Box::new(SoloOrdererActor::<FabricMsg>::new(
                ChannelId::default(),
                batch,
                peer_ids.to_vec(),
                costs,
            )))
        } else {
            let id = sim.add_actor(Box::new(RaftOrdererActor::<FabricMsg>::new(
                i,
                orderer_ids.clone(),
                ChannelId::default(),
                peer_ids.to_vec(),
                batch,
                31,
                costs,
            )));
            sim.start_timer(id, SimDuration::ZERO, RAFT_TICK_TOKEN);
            id
        };
        assert_eq!(id, expected);
    }
    let log = Rc::new(RefCell::new(DriverLog::default()));
    for (c, (identity, remaining)) in client_ids.into_iter().zip([11, 13]).enumerate() {
        let driver = ClientDriver {
            gateway: Gateway::new(
                identity,
                ChannelId::default(),
                vec![peer_ids[0]],
                orderer_ids[0],
                1,
                costs,
            ),
            harness: ServiceHarness::new("client"),
            remaining,
            key_of: Box::new(move |n| format!("key{c}-{n}")),
            log: log.clone(),
        };
        assert_eq!(sim.add_actor(Box::new(driver)), client_actor_ids[c]);
    }
    // Give raft time to elect before the first client starts.
    sim.start_timer(client_actor_ids[0], SimDuration::from_secs(5), 0);

    let height = |peer: usize| ledgers[peer].borrow().height();
    let run_to_height = |sim: &mut Simulation<FabricMsg>, target: u64| {
        while ledgers[0].borrow().height() < target {
            assert!(sim.run_events(1) == 1, "ran dry below height {target}");
        }
    };

    run_to_height(&mut sim, 5);
    sim.network_mut()
        .partition_groups(&[peer_ids[1]], &orderer_ids);
    run_to_height(&mut sim, 11);
    // The first client is done: let every ordering node apply its last
    // block before the heal and the subscription.
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    assert_eq!(height(0), 11);
    assert!(height(1) <= 5, "peer 1 kept receiving blocks");
    sim.network_mut().heal_all();
    for &orderer in &orderer_ids {
        let subscribe = FabricMsg::DeliverSubscribe {
            channel: ChannelId::default(),
            peer: tap_id,
        };
        sim.inject_message(orderer, subscribe);
    }
    sim.start_timer(client_actor_ids[1], SimDuration::from_secs(1), 0);
    sim.run_until(sim.now() + SimDuration::from_secs(120));

    assert_eq!(
        log.borrow().committed.len(),
        24,
        "{:?}",
        log.borrow().failed
    );
    assert_eq!(height(0), 24);
    assert_eq!(height(1), 24, "the cut-off peer caught up");
    assert_eq!(
        ledgers[1].borrow().state().state_hash(),
        ledgers[0].borrow().state().state_hash()
    );
    let metrics = sim.metrics();
    assert!(metrics.counter("peer1.catchup_requests") >= 1);
    assert!(metrics.counter("orderer.deliver_requests") >= 1);
    assert_eq!(metrics.counter("orderer.subscriptions"), members as u64);

    let taps = taps.borrow();
    for &orderer in &orderer_ids {
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
