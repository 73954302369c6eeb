//! Commit-event delivery at a peer: each subscribed client is told about
//! its own transactions only, an event without an addressee (undecodable
//! envelope) reaches every subscriber so its submitter still terminates,
//! and the messages sent per committed transaction do not depend on how
//! many clients share the peer.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    endorsement_message, ChaincodeRegistry, ChannelPolicies, CommitEvent, Committer, CostModel,
    Endorsement, EndorsementPolicy, Envelope, FabricMsg, MspBuilder, MspId, PeerActor, Proposal,
    SigningIdentity,
};
use hyperprov_ledger::{
    Block, ChannelId, Digest, KvWrite, RawEnvelope, RwSet, StateKey, TxId, ValidationCode,
};
use hyperprov_sim::{Actor, ActorId, Context, Event, Simulation};

/// A client stand-in that records the commit events it is sent.
struct Inbox(Rc<RefCell<Vec<CommitEvent>>>);

impl Actor<FabricMsg> for Inbox {
    fn on_event(&mut self, _ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
        if let Event::Message {
            msg: FabricMsg::Commit(commit),
            ..
        } = event
        {
            self.0.borrow_mut().push(commit);
        }
    }
}

fn envelope(client: &SigningIdentity, peer: &SigningIdentity, nonce: u64) -> Envelope {
    let proposal = Proposal {
        channel: ChannelId::default().as_str().into(),
        chaincode: "cc".into(),
        function: "f".into(),
        args: vec![],
        creator: client.certificate().clone(),
        nonce,
    };
    let rwset = RwSet {
        reads: vec![],
        writes: vec![KvWrite {
            key: StateKey::new("cc", format!("k{nonce}")),
            value: Some(vec![1].into()),
        }],
    };
    let msg = endorsement_message(&proposal.tx_id(), b"r", &rwset);
    Envelope {
        proposal,
        payload: b"r".to_vec(),
        rwset,
        event: None,
        endorsements: vec![Endorsement {
            endorser: peer.certificate().clone(),
            signature: peer.sign(&msg),
        }],
    }
}

/// One peer with `n_clients` subscribed inboxes. Block 0 carries one
/// transaction of client 0, one of client 1 and an undecodable envelope;
/// block 1 one more transaction of each. Returns the inboxes, the
/// messages sent after each block, and the undecodable envelope's tx id.
fn run(n_clients: usize) -> (Vec<Vec<CommitEvent>>, [u64; 2], TxId) {
    let org = MspId::new("org1");
    let mut msp_builder = MspBuilder::new(3);
    let peer_identity = msp_builder.enroll("peer0", &org);
    let clients: Vec<SigningIdentity> = (0..n_clients)
        .map(|i| msp_builder.enroll(&format!("client{i}"), &org))
        .collect();
    let msp = msp_builder.build();

    let committer = Rc::new(RefCell::new(Committer::new(
        msp,
        ChannelPolicies::new(EndorsementPolicy::any_of([org])),
    )));
    let mut peer = PeerActor::<FabricMsg>::new(
        peer_identity.clone(),
        ChaincodeRegistry::new(),
        CostModel::default(),
        "peer0",
    );
    peer.add_channel(committer.clone(), None);
    // Layout: peer 0, inboxes 1..=n.
    for (i, client) in clients.iter().enumerate() {
        peer.subscribe(ActorId(i as u32 + 1), client.certificate().id);
    }
    let mut sim = Simulation::new(5);
    let peer_id = sim.add_actor(Box::new(peer));
    let inboxes: Vec<Rc<RefCell<Vec<CommitEvent>>>> = (0..n_clients)
        .map(|_| {
            let inbox = Rc::new(RefCell::new(Vec::new()));
            sim.add_actor(Box::new(Inbox(inbox.clone())));
            inbox
        })
        .collect();

    let junk = RawEnvelope {
        tx_id: TxId(Digest::of(b"junk")),
        bytes: vec![0xFF, 0x00],
    };
    let blocks = [
        vec![
            envelope(&clients[0], &peer_identity, 1).to_raw(),
            envelope(&clients[1], &peer_identity, 2).to_raw(),
            junk.clone(),
        ],
        vec![
            envelope(&clients[0], &peer_identity, 3).to_raw(),
            envelope(&clients[1], &peer_identity, 4).to_raw(),
        ],
    ];
    let mut sent = [0u64; 2];
    for (height, envelopes) in blocks.into_iter().enumerate() {
        let tip = committer.borrow().store().tip_hash();
        let block = Block::build(height as u64, tip, envelopes);
        sim.inject_message(
            peer_id,
            FabricMsg::DeliverBlock(ChannelId::default(), Arc::new(block)),
        );
        sim.run();
        sent[height] = sim.hot_counters().messages_sent;
    }
    assert_eq!(committer.borrow().height(), 2);
    let received = inboxes.iter().map(|i| i.borrow().clone()).collect();
    (received, sent, junk.tx_id)
}

#[test]
fn each_client_gets_its_own_events_plus_the_addressee_less_one() {
    let (received, _, junk) = run(2);
    for (c, events) in received.iter().enumerate() {
        assert_eq!(events.len(), 3, "client {c}: {events:?}");
        let (own, undecodable): (Vec<_>, Vec<_>) = events.iter().partition(|e| e.tx_id != junk);
        assert_eq!(own.len(), 2, "client {c}");
        assert!(own.iter().all(|e| e.code == ValidationCode::Valid));
        assert!(own.iter().all(|e| e.creator.is_some()));
        assert_eq!(undecodable.len(), 1, "client {c}");
        assert_eq!(undecodable[0].code, ValidationCode::BadSignature);
        assert_eq!(undecodable[0].creator, None);
    }
    // The two clients' own events are disjoint.
    let own = |c: usize| -> Vec<TxId> {
        received[c]
            .iter()
            .filter(|e| e.tx_id != junk)
            .map(|e| e.tx_id)
            .collect()
    };
    assert!(own(0).iter().all(|tx| !own(1).contains(tx)));
}

#[test]
fn messages_per_committed_tx_do_not_grow_with_subscribers() {
    let (few, sent_few, junk) = run(2);
    let (many, sent_many, _) = run(8);
    // Bystanders hear about the undecodable envelope and nothing else.
    for events in &many[2..] {
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tx_id, junk);
    }
    assert_eq!(few[..2], many[..2]);
    // Block 0: one message per decodable transaction plus the fan-out of
    // the addressee-less event; block 1: exactly one per transaction.
    assert_eq!(sent_few[0], 2 + 2);
    assert_eq!(sent_many[0], 2 + 8);
    assert_eq!(sent_few[1] - sent_few[0], 2);
    assert_eq!(sent_many[1] - sent_many[0], 2);
}
