//! Commit-event delivery: every hosting peer commits every transaction
//! and every client is subscribed at every peer, yet each committed
//! transaction is reported by exactly one message — from the peer whose
//! certificate signed the envelope's first endorsement, to the client
//! that created it — whatever the number of peers, subscribers and
//! endorsements. An event without an addressee (undecodable envelope)
//! reaches every subscriber so its submitter still terminates.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    endorsement_message, CommitEvent, Committer, Endorsement, EndorsementPolicy, Envelope,
    FabricMsg, MspBuilder, MspId, Node, Peer, Proposal, SigningIdentity,
};
use hyperprov_ledger::{
    Block, ChannelId, Digest, KvWrite, RawEnvelope, RwSet, StateKey, TxId, ValidationCode,
};
use hyperprov_sim::{Actor, ActorId, Context, CpuResource, Event, Simulation};

mod support;
use support::Idle;

/// The commit events a client was sent, and by whom.
type Received = Vec<(ActorId, CommitEvent)>;

/// A client stand-in that records them.
struct Inbox(Rc<RefCell<Received>>);

impl Actor<FabricMsg> for Inbox {
    fn on_event(&mut self, _ctx: &mut Context<'_, FabricMsg>, event: Event<FabricMsg>) {
        if let Event::Message {
            src,
            msg: FabricMsg::Commit(commit),
        } = event
        {
            self.0.borrow_mut().push((src, commit));
        }
    }
}

/// A transaction of `client` endorsed by `endorsers`, in that order.
fn envelope(client: &SigningIdentity, endorsers: &[&SigningIdentity], nonce: u64) -> Envelope {
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
    let endorsements = endorsers
        .iter()
        .map(|peer| Endorsement {
            endorser: peer.certificate().clone(),
            signature: peer.sign(&msg),
        })
        .collect();
    Envelope {
        proposal,
        payload: b"r".to_vec(),
        rwset,
        event: None,
        endorsements,
    }
}

/// What a run delivered and sent.
struct Outcome {
    /// Per client, the events it got and the peer each came from.
    received: Vec<Received>,
    /// Messages sent, in all, after each block.
    sent: [u64; 2],
    /// The undecodable envelope.
    junk: TxId,
    /// The transactions and the peer that must report each: per block,
    /// client 0's then client 1's.
    reporters: Vec<(TxId, ActorId)>,
}

/// `n_peers` peers (actors `0..n_peers`) hosting one channel, each with
/// all `n_clients` inboxes subscribed; every block goes to every peer.
/// Block 0 carries a transaction of client 0 endorsed by peer 0, one of
/// client 1 endorsed by the last peer and then peer 0, and an undecodable
/// envelope; block 1 one more of each client, endorsed the other way
/// round (client 0's by the last peer, client 1's by peer 0).
fn run(n_peers: usize, n_clients: usize) -> Outcome {
    let org = MspId::new("org1");
    let mut msp_builder = MspBuilder::new(3);
    let peers: Vec<SigningIdentity> = (0..n_peers)
        .map(|i| msp_builder.enroll(&format!("peer{i}"), &org))
        .collect();
    let clients: Vec<SigningIdentity> = (0..n_clients)
        .map(|i| msp_builder.enroll(&format!("client{i}"), &org))
        .collect();
    let msp = msp_builder.build();

    let mut sim = Simulation::new(5);
    let mut committers = Vec::new();
    for (i, identity) in peers.iter().enumerate() {
        let committer = Rc::new(RefCell::new(Committer::new(
            msp.clone(),
            EndorsementPolicy::any_of([org.clone()]),
        )));
        let name = format!("peer{i}");
        let mut peer = Peer::new(identity.clone(), Arc::new(Idle), name.clone());
        peer.host(committer.clone(), None);
        for (c, client) in clients.iter().enumerate() {
            peer.subscribe(ActorId((n_peers + c) as u32), client.certificate().id);
        }
        let id = Node::new(peer, name).start(&mut sim, CpuResource::new(1.0), "peer");
        assert_eq!(id, ActorId(i as u32));
        committers.push(committer);
    }
    let inboxes: Vec<Rc<RefCell<Received>>> = (0..n_clients)
        .map(|_| {
            let inbox = Rc::new(RefCell::new(Vec::new()));
            sim.add_actor(Box::new(Inbox(inbox.clone())));
            inbox
        })
        .collect();

    let junk = RawEnvelope {
        tx_id: TxId(Digest::of(b"junk")),
        bytes: [0xFF, 0x00].as_slice().into(),
    };
    let (first, last) = (&peers[0], &peers[n_peers - 1]);
    let (first_id, last_id) = (ActorId(0), ActorId(n_peers as u32 - 1));
    let txs = [
        (envelope(&clients[0], &[first], 1), first_id),
        (envelope(&clients[1], &[last, first], 2), last_id),
        (envelope(&clients[0], &[last], 3), last_id),
        (envelope(&clients[1], &[first], 4), first_id),
    ];
    let raw = |i: usize| txs[i].0.to_raw();
    let blocks = [vec![raw(0), raw(1), junk.clone()], vec![raw(2), raw(3)]];
    let mut sent = [0u64; 2];
    for (height, envelopes) in blocks.into_iter().enumerate() {
        let tip = committers[0].borrow().store().tip_hash();
        let block = Arc::new(Block::build(height as u64, tip, envelopes));
        for peer in 0..n_peers {
            let deliver = FabricMsg::DeliverBlock(ChannelId::default(), block.clone());
            sim.inject_message(ActorId(peer as u32), deliver);
        }
        sim.run();
        sent[height] = sim.hot_counters().messages_sent;
    }
    assert!(committers.iter().all(|c| c.borrow().height() == 2));
    Outcome {
        received: inboxes.iter().map(|i| i.borrow().clone()).collect(),
        sent,
        junk: junk.tx_id,
        reporters: txs.iter().map(|(env, by)| (env.tx_id(), *by)).collect(),
    }
}

#[test]
fn a_committed_tx_is_reported_once_by_the_peer_that_endorsed_it_first() {
    let out = run(4, 2);
    for (c, events) in out.received.iter().enumerate() {
        let (own, undecodable): (Vec<_>, Vec<_>) =
            events.iter().partition(|(_, e)| e.tx_id != out.junk);
        // Four peers committed each of its two transactions; one told it
        // — for the transaction with two endorsements too.
        let told: Vec<(TxId, ActorId)> = own.iter().map(|(src, e)| (e.tx_id, *src)).collect();
        let expected = [out.reporters[c], out.reporters[2 + c]];
        assert_eq!(told, expected, "client {c}");
        assert!(own.iter().all(|(_, e)| e.code == ValidationCode::Valid));
        assert!(own.iter().all(|(_, e)| e.creator.is_some()));
        // Nobody can say whose the undecodable envelope was: every peer
        // tells every subscriber, so its submitter still learns of it.
        assert_eq!(undecodable.len(), 4, "client {c}");
        for (_, event) in undecodable {
            assert_eq!(event.code, ValidationCode::BadSignature);
            assert_eq!((event.creator, event.endorser), (None, None));
        }
    }
}

#[test]
fn messages_per_committed_tx_grow_with_neither_peers_nor_subscribers() {
    let alone = run(1, 2);
    let few = run(4, 2);
    let many = run(4, 8);
    // Bystanders hear about the undecodable envelope and nothing else.
    for events in &many.received[2..] {
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|(_, e)| e.tx_id == many.junk));
    }
    // Block 0: one message per decodable transaction plus the fan-out of
    // the addressee-less event; block 1: exactly one per transaction.
    assert_eq!(alone.sent[0], 2 + 2);
    assert_eq!(few.sent[0], 2 + 4 * 2);
    assert_eq!(many.sent[0], 2 + 4 * 8);
    for out in [&alone, &few, &many] {
        assert_eq!(out.sent[1] - out.sent[0], 2);
    }
}
