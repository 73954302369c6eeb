//! A gateway edge case: the one endorsement a gateway collects, from an
//! org outside the channel policy, is invalidated at commit.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    BatchConfig, Chaincode, ChaincodeError, ChaincodeStub, Committer, EndorsementPolicy, FabricMsg,
    Gateway, GatewayReply, MspBuilder, MspId, Node, OrderingNode, Peer, Route,
};
use hyperprov_ledger::ValidationCode;
use hyperprov_sim::{ActorId, CpuResource, SimDuration, SimTime, Simulation};

#[path = "support/driver.rs"]
mod driver;
use driver::{Driver, Ended};

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

struct Net {
    sim: Simulation<FabricMsg>,
    log: Rc<RefCell<Vec<Ended>>>,
}

/// Builds 2 peers (org1, org2) running [`PutCc`], a solo orderer, and a
/// one-shot client, under `policy`.
fn build(policy: EndorsementPolicy) -> Net {
    let mut msp_builder = MspBuilder::new(2);
    let ids: Vec<_> = (0..2)
        .map(|i| msp_builder.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
        .collect();
    let client_identity = msp_builder.enroll("client", &MspId::new("org1"));
    let msp = msp_builder.build();

    let mut sim = Simulation::new(8);
    let client_actor = ActorId(3);
    let mut peers = Vec::new();
    for (i, identity) in ids.iter().enumerate() {
        let committer = Rc::new(RefCell::new(Committer::for_channel(
            "ch".into(),
            msp.clone(),
            policy.clone(),
        )));
        let name = format!("p{i}");
        let mut peer = Peer::new(identity.clone(), Arc::new(PutCc), name.clone());
        peer.host(committer, None);
        // Whichever endorsement arrives first names the peer that reports.
        peer.subscribe(client_actor, client_identity.certificate().id);
        peers.push(Node::new(peer, name).start(&mut sim, CpuResource::new(1.0), "peer"));
    }
    let batch = BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    };
    let node = OrderingNode::solo("ch".into(), batch, peers.clone());
    let orderer = Node::new(node, "orderer").start(&mut sim, CpuResource::new(1.0), "orderer");
    let log = Rc::new(RefCell::new(Vec::new()));
    let route = Route::new("ch", peers, vec![orderer]);
    let gateway = Gateway::new(client_identity, vec![route]);
    let go = move |gateway: &mut Gateway<()>, _, now| {
        gateway.invoke(0, (), now, "put", "go", vec![b"key".to_vec()])
    };
    let driver = Node::new(Driver::new(gateway, 1, go, &log), "client");
    let got = driver.start(&mut sim, CpuResource::new(1.0), "client");
    assert_eq!(got, client_actor);
    sim.start_timer(client_actor, SimDuration::ZERO, 0);
    Net { sim, log }
}

#[test]
fn an_endorser_outside_the_policy_is_invalidated_at_commit() {
    // The client collects the endorsement of its home peer, in org1, but
    // the channel policy names org2 only: VSCC rejects at commit time,
    // and the request ends rather than hangs.
    let mut net = build(EndorsementPolicy::any_of([MspId::new("org2")]));
    net.sim.run_until(SimTime::from_secs(30));
    let log = net.log.borrow();
    assert_eq!(log.len(), 1);
    match &log[0].1 {
        Ok(GatewayReply::Committed { code, .. }) => {
            assert_eq!(*code, ValidationCode::EndorsementPolicyFailure);
        }
        other => panic!("expected policy failure, got {other:?}"),
    }
    // Non-default channels namespace their peer metrics.
    assert_eq!(net.sim.metrics().counter("p0.ch.tx.invalid"), 1);
}
