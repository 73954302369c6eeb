//! Gateway edge cases: endorsement mismatch across peers, endorsement
//! policies needing multiple orgs, and commit-time policy failures.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    BatchConfig, Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub, ChannelPolicies,
    Committer, CostModel, EndorsementPolicy, FabricMsg, Gateway, GatewayAction, GatewayDone,
    GatewayError, GatewayReply, Host, MspBuilder, MspId, Node, OrderingNode, Peer, Route,
};
use hyperprov_ledger::ValidationCode;
use hyperprov_sim::{
    Actor, ActorId, Context, CpuResource, Event, SimDuration, SimTime, Simulation,
};

/// A chaincode whose output depends on a per-instance tag — installing
/// different tags on different peers yields mismatching endorsements,
/// which an honest gateway must refuse to submit.
struct TaggedCc(u8);
impl Chaincode for TaggedCc {
    fn name(&self) -> &str {
        "tagged"
    }
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        stub.put_state("k", vec![self.0]);
        Ok(vec![self.0])
    }
}

/// A well-behaved put chaincode.
struct PutCc;
impl Chaincode for PutCc {
    fn name(&self) -> &str {
        "put"
    }
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        stub.put_state(&key, b"v".to_vec());
        Ok(Vec::new())
    }
}

#[derive(Default)]
struct Log {
    events: Vec<Result<GatewayReply, GatewayError>>,
}

struct OneShot {
    gateway: Gateway<()>,
    host: Host<FabricMsg>,
    chaincode: &'static str,
    log: Rc<RefCell<Log>>,
}

impl Actor<FabricMsg> for OneShot {
    fn on_event(&mut self, ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
        let actions = match event {
            Event::Timer { token: 0 } => {
                self.gateway
                    .invoke(0, (), self.chaincode, "go", vec![b"key".to_vec()])
            }
            Event::Timer { token } => {
                let _ = self.host.timer(ctx, token);
                return;
            }
            Event::Message { msg, .. } => self.gateway.on_message(msg, ctx.rng()),
        };
        let done = perform(ctx, &mut self.host, actions);
        self.log.borrow_mut().events.extend(done.map(|(_, r)| r));
    }
}

/// Has `host` perform what the gateway answered; the request that ended, if
/// one did.
fn perform(
    ctx: &mut Context<'_, FabricMsg>,
    host: &mut Host<FabricMsg>,
    actions: Vec<GatewayAction<()>>,
) -> Option<((), Result<GatewayReply, GatewayError>)> {
    let mut done = None;
    host.perform(ctx, actions, |_, _, GatewayDone(caller, result)| {
        done = Some((caller, result));
    });
    done
}

struct Net {
    sim: Simulation<FabricMsg>,
    log: Rc<RefCell<Log>>,
}

/// Builds 2 peers (org1, org2) with per-peer registries, a solo orderer,
/// and a one-shot client needing `needed` endorsements under `policy`.
fn build(
    registries: Vec<ChaincodeRegistry>,
    policy: EndorsementPolicy,
    needed: usize,
    chaincode: &'static str,
) -> Net {
    let costs = CostModel::default();
    let mut msp_builder = MspBuilder::new(2);
    let ids: Vec<_> = (0..registries.len())
        .map(|i| msp_builder.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
        .collect();
    let client_identity = msp_builder.enroll("client", &MspId::new("org1"));
    let msp = msp_builder.build();

    let mut sim = Simulation::new(8);
    let n = registries.len() as u32;
    let client_actor = ActorId(n + 1);
    let mut peers = Vec::new();
    for (i, (identity, registry)) in ids.iter().zip(registries).enumerate() {
        let committer = Rc::new(RefCell::new(Committer::for_channel(
            "ch".into(),
            msp.clone(),
            ChannelPolicies::new(policy.clone()),
        )));
        let name = format!("p{i}");
        let mut peer = Peer::new(identity.clone(), registry, costs, name.clone());
        peer.host(committer, None);
        // Whichever endorsement arrives first names the peer that reports.
        peer.subscribe(client_actor, client_identity.certificate().id);
        peers.push(Node::new(peer, name).start(&mut sim, CpuResource::new(1.0), "peer"));
    }
    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    let node = OrderingNode::solo("ch".into(), batch, peers.clone(), costs);
    let orderer = Node::new(node, "orderer").start(&mut sim, CpuResource::new(1.0), "orderer");
    let log = Rc::new(RefCell::new(Log::default()));
    let route = Route::new("ch", peers, vec![orderer], needed);
    let got = sim.add_actor(Box::new(OneShot {
        gateway: Gateway::new(client_identity, vec![route], costs),
        host: Host::new("client"),
        chaincode,
        log: log.clone(),
    }));
    assert_eq!(got, client_actor);
    sim.start_timer(client_actor, SimDuration::ZERO, 0);
    Net { sim, log }
}

fn registry_with(cc: Arc<dyn Chaincode>) -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.install(cc);
    registry
}

#[test]
fn mismatching_endorsements_fail_before_ordering() {
    // Peers run divergent chaincode versions: tags 1 and 2.
    let net = build(
        vec![
            registry_with(Arc::new(TaggedCc(1))),
            registry_with(Arc::new(TaggedCc(2))),
        ],
        EndorsementPolicy::all_of([MspId::new("org1"), MspId::new("org2")]),
        2,
        "tagged",
    );
    let mut net = net;
    net.sim.run_until(SimTime::from_secs(30));
    let log = net.log.borrow();
    assert_eq!(log.events.len(), 1);
    match &log.events[0] {
        Err(error) => assert_eq!(*error, GatewayError::Mismatch),
        other => panic!("expected mismatch failure, got {other:?}"),
    }
    // Nothing was ordered.
    assert_eq!(net.sim.metrics().counter("orderer.broadcasts"), 0);
}

#[test]
fn two_org_policy_commits_with_two_endorsements() {
    let mut net = build(
        vec![
            registry_with(Arc::new(PutCc)),
            registry_with(Arc::new(PutCc)),
        ],
        EndorsementPolicy::all_of([MspId::new("org1"), MspId::new("org2")]),
        2,
        "put",
    );
    net.sim.run_until(SimTime::from_secs(30));
    let log = net.log.borrow();
    assert_eq!(log.events.len(), 1);
    match &log.events[0] {
        Ok(GatewayReply::Committed { code, .. }) => assert_eq!(*code, ValidationCode::Valid),
        other => panic!("expected commit, got {other:?}"),
    }
}

#[test]
fn under_collected_endorsements_invalidated_at_commit() {
    // Client collects only org1's endorsement but the channel policy
    // demands both orgs: VSCC rejects at commit time.
    let mut net = build(
        vec![
            registry_with(Arc::new(PutCc)),
            registry_with(Arc::new(PutCc)),
        ],
        EndorsementPolicy::all_of([MspId::new("org1"), MspId::new("org2")]),
        1, // under-collect on purpose
        "put",
    );
    net.sim.run_until(SimTime::from_secs(30));
    let log = net.log.borrow();
    assert_eq!(log.events.len(), 1);
    match &log.events[0] {
        Ok(GatewayReply::Committed { code, .. }) => {
            assert_eq!(*code, ValidationCode::EndorsementPolicyFailure);
        }
        other => panic!("expected policy failure, got {other:?}"),
    }
    // Non-default channels namespace their peer metrics.
    assert_eq!(net.sim.metrics().counter("p0.ch.tx.invalid"), 1);
}
