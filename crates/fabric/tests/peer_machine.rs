//! The peer machine, driven with no simulation: first directed tests —
//! one input, the actions expected back, each a short line — then seeded
//! property tests: a valid chain whose transactions are endorsed by
//! different peers, fed to one to four machines in different orders
//! (shuffled, duplicated, with holes filled later) between proposals,
//! snapshot requests, retry timers and restarts.

#[path = "support/sched.rs"]
mod sched;
mod support;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    costs, endorsement_message, Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
    Committer, FabricMsg, HostedView, Machine as _, Peer, PeerAction as Action, PeerOwn as Own,
    Proposal, SignedProposal, SigningIdentity, SnapshotPolicy, BUSY_REASON, CATCHUP_GIVE_UP,
};
use hyperprov_ledger::{
    Block, ChannelId, Digest, Encode, RawEnvelope, TxId, ValidationCode, DEFAULT_CHANNEL,
    DEFAULT_CHUNK_ENTRIES,
};
use hyperprov_sim::ActorId;
use proptest::prelude::*;

use sched::{Rng, Sched};

const ORDERER: ActorId = ActorId(90);

fn channel() -> ChannelId {
    ChannelId::default()
}

/// The peer's one hosted channel, as its view shows it.
fn hosted(peer: &Peer) -> HostedView {
    peer.view().remove(0)
}

/// The actor of client `c`.
fn client_actor(c: usize) -> ActorId {
    ActorId(100 + c as u32)
}

/// Reads the key it is given: an endorsement with one read; `put` also
/// writes it.
struct ReadCc;
impl Chaincode for ReadCc {
    fn name(&self) -> &str {
        "read"
    }
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        let value = stub.get_state(&key).unwrap_or_default();
        if stub.function() == "put" {
            stub.put_state(&key, b"v".to_vec());
        }
        Ok(value)
    }
}

/// A proposal of `client` to read `key` on `channel`.
fn read_proposal(client: &SigningIdentity, channel: &str, key: &str, nonce: u64) -> SignedProposal {
    let proposal = Proposal {
        channel: channel.into(),
        chaincode: "read".into(),
        function: "get".into(),
        args: vec![key.as_bytes().to_vec()],
        creator: client.certificate().clone(),
        nonce,
    };
    SignedProposal {
        signature: client.sign(&proposal.to_bytes()),
        proposal,
    }
}

/// A peer machine on the default channel and a handle to its ledger.
fn peer_on(
    identity: &SigningIdentity,
    ledger: Committer,
    snapshots: Option<u64>,
    target: Option<ActorId>,
) -> (Peer, Rc<RefCell<Committer>>) {
    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(ReadCc));
    let name = "peer0".to_owned();
    let mut peer = Peer::new(identity.clone(), registry, name);
    if let Some(interval) = snapshots {
        peer.set_snapshots(SnapshotPolicy::every(interval));
    }
    let ledger = Rc::new(RefCell::new(ledger));
    peer.host(ledger.clone(), target);
    (peer, ledger)
}

fn deliver(peer: &mut Peer, block: &Block) -> Vec<Action> {
    let block = FabricMsg::DeliverBlock(channel(), Arc::new(block.clone()));
    peer.message(ORDERER, block, true)
}

/// One short word per action, so an answer reads as a line.
fn show(actions: &[Action]) -> Vec<String> {
    let msg = |msg: &FabricMsg| match msg {
        FabricMsg::ProposalResult(r) if r.result.is_ok() => "endorsed".to_owned(),
        FabricMsg::ProposalResult(r) => format!("refused({})", r.result.as_ref().unwrap_err()),
        FabricMsg::DeliverRequest { from, .. } => format!("blocks@{from}"),
        FabricMsg::SnapshotRequest { .. } => "offer?".to_owned(),
        FabricMsg::SnapshotOffer { manifest, .. } => {
            format!("offer@{:?}", manifest.as_ref().map(|m| m.height))
        }
        FabricMsg::SnapshotPartRequest { height, index, .. } => format!("part?@{height}/{index}"),
        FabricMsg::SnapshotPartData { index, part, .. } => {
            format!("part/{index}={}", part.is_some())
        }
        FabricMsg::CommitStatusAnswer(event) => format!("status={:?}", event.code),
        FabricMsg::CommitStatusNotFound(_) => "status=none".to_owned(),
        _ => "?".to_owned(),
    };
    let scope = |scope: &Option<ChannelId>| if scope.is_some() { "ch." } else { "" };
    actions
        .iter()
        .map(|action| match action {
            Action::Send(to, bytes, m) => {
                assert_eq!(*bytes, m.wire_size());
                format!("{}->{}", msg(m), to.0)
            }
            Action::Job(_, sends, _) => {
                let [(to, bytes, m)] = &sends[..] else {
                    panic!("{sends:?}");
                };
                assert_eq!(*bytes, m.wire_size());
                format!("job:{}->{}", msg(m), to.0)
            }
            Action::Own(Own::DeferRequest(_, (_, stage), to, m, read)) => {
                let lane = if *read { "read" } else { "request" };
                format!("{lane}[{stage}]:{}->{}", msg(m), to.0)
            }
            Action::Own(Own::Committed { trace, events, .. }) => {
                let to: Vec<u32> = events.iter().map(|(to, _)| to.0).collect();
                format!("committed {trace}->{to:?}")
            }
            Action::Charge(_) => "charge".to_owned(),
            Action::Arm(token, _) => format!("arm#{token}"),
            Action::Disarm(token) => format!("disarm#{token}"),
            Action::Count(s, name, n) => format!("+{}{name}={n}", scope(s)),
            Action::Gauge(s, name, v) => format!("{}{name}:={v}", scope(s)),
            Action::SpanStart(trace, stage, _) => format!("[{stage} {trace}"),
            Action::SpanEnd(trace, stage, _) => format!("{stage}] {trace}"),
            Action::Note(trace, name, _) => format!("!{name} {trace}"),
            Action::Own(Own::Slo(source, n)) => format!("slo {source}={n}"),
            other => panic!("not a peer's action: {other:?}"),
        })
        .collect()
}

fn ledger_digests(ledger: &RefCell<Committer>) -> (u64, Digest, Digest) {
    let ledger = ledger.borrow();
    (
        ledger.height(),
        ledger.state().state_hash(),
        ledger.graph().digest(),
    )
}

/// One test per kind of input: a line of actions expected back.
mod transitions {
    use super::*;

    /// One client, one peer, and a chain of `blocks` two-post blocks.
    fn fixture(blocks: u64) -> (SigningIdentity, SigningIdentity, Vec<Block>, Committer) {
        let (client, endorser, new_committer) = support::new_committers();
        let chain = support::extend_chain(&mut new_committer(), &client, &endorser, blocks, 2);
        (client, endorser, chain, new_committer())
    }

    #[test]
    fn a_block_in_order_commits_and_tells_the_subscribed_creator() {
        let (client, endorser, chain, empty) = fixture(2);
        let (mut peer, ledger) = peer_on(&endorser, empty, None, None);
        peer.subscribe(client_actor(0), client.certificate().id);
        let told = [
            "[validate block-0",
            "+ch.blocks=1",
            "+ch.tx.valid=2",
            "+ch.tx.invalid=0",
            "slo commit.tx=2",
            "committed block-0->[100, 100]",
        ];
        assert_eq!(show(&deliver(&mut peer, &chain[0])), told);
        assert_eq!(ledger.borrow().height(), 1);
        // A duplicate (multi-orderer dissemination) costs nothing at all.
        let again = deliver(&mut peer, &chain[0]);
        assert!(again.is_empty() && again.capacity() == 0);
        let actions = deliver(&mut peer, &chain[1]);
        let Some(Action::Own(Own::Committed { vscc, events, .. })) = actions.last() else {
            panic!("{:?}", show(&actions));
        };
        assert_eq!(vscc.len(), 2);
        for (tx, (_, event)) in chain[1].envelopes.iter().zip(events) {
            let FabricMsg::Commit(event) = event else {
                panic!("{event:?}");
            };
            assert_eq!((event.tx_id, event.block_number), (tx.tx_id, 1));
            assert_eq!(event.code, ValidationCode::Valid);
        }
    }

    #[test]
    fn a_block_ahead_is_buffered_and_asked_for_once_then_drains_in_order() {
        let (_, endorser, chain, empty) = fixture(3);
        let (mut peer, ledger) = peer_on(&endorser, empty, None, None);
        let asked = [
            "+ch.catchup_requests=1",
            "blocks@0->90",
            "disarm#0",
            "arm#0",
        ];
        assert_eq!(show(&deliver(&mut peer, &chain[2])), asked);
        // The repeat guard: another later block shows the same gap.
        assert!(deliver(&mut peer, &chain[1]).is_empty());
        assert_eq!(hosted(&peer).buffered, [1, 2]);
        let drained = show(&deliver(&mut peer, &chain[0]));
        let commits: Vec<&String> = drained
            .iter()
            .filter(|a| a.starts_with("committed"))
            .collect();
        let in_order = [
            "committed block-0->[]",
            "committed block-1->[]",
            "committed block-2->[]",
        ];
        assert_eq!(commits, in_order);
        assert_eq!(drained.last().unwrap(), "disarm#0");
        assert_eq!(ledger.borrow().height(), 3);
        let view = hosted(&peer);
        assert!(view.buffered.is_empty() && view.catchup.current);
    }

    /// A block that `commit_block_prevalidated` rejects is not a drained
    /// one: it triggers no snapshot cut, and its `ChainError` stays on the
    /// trace.
    #[test]
    fn a_block_that_does_not_link_is_counted_and_changes_nothing() {
        let (_, endorser, chain, mut ledger) = fixture(3);
        for block in &chain[..2] {
            ledger.commit_block(block.clone()).unwrap();
        }
        // A cut is due (height 2, none yet, one every 2 blocks) the moment
        // anything commits.
        let (mut peer, ledger) = peer_on(&endorser, ledger, Some(2), None);
        let before = ledger_digests(&ledger);
        let stray = Block::build(2, Digest::of(b"elsewhere"), chain[2].envelopes.to_vec());
        let rejected = [
            "[validate block-2",
            "validate] block-2",
            "+ch.commit_errors=1",
            "!commit_error block-2",
        ];
        let actions = deliver(&mut peer, &stray);
        assert_eq!(show(&actions), rejected);
        let Some(Action::Note(_, _, detail)) = actions.last() else {
            panic!("no detail");
        };
        let error = ledger.borrow_mut().commit_block(stray).unwrap_err();
        assert_eq!(*detail, error.to_string());
        assert_eq!(ledger_digests(&ledger), before);
        let view = hosted(&peer);
        assert!(view.buffered.is_empty() && view.snapshot_height.is_none());
        // The block that does link commits, and now the cut comes.
        let committed = show(&deliver(&mut peer, &chain[2]));
        assert!(committed.contains(&"+ch.snapshots.cut=1".to_owned()));
        assert_eq!(hosted(&peer).snapshot_height, Some(3));
    }

    /// Pinned, not endorsed: the reorder buffer has no bound, so a peer
    /// whose next block never comes — or never links — holds every later
    /// one (bounding it waits for range requests: ROADMAP item 3).
    #[test]
    fn a_peer_that_cannot_link_keeps_every_later_block() {
        let (_, endorser, chain, empty) = fixture(200);
        let (mut peer, ledger) = peer_on(&endorser, empty, None, None);
        for block in &chain[1..] {
            deliver(&mut peer, block);
        }
        let stray = Block::build(0, Digest::of(b"elsewhere"), vec![]);
        deliver(&mut peer, &stray);
        assert_eq!(ledger.borrow().height(), 0);
        assert_eq!(hosted(&peer).buffered.len(), 199);
    }

    #[test]
    fn a_proposal_is_endorsed_shed_or_refused() {
        let (client, endorser, _, empty) = fixture(0);
        let (mut peer, ledger) = peer_on(&endorser, empty, None, None);
        let before = ledger_digests(&ledger);
        let propose = |peer: &mut Peer, sp, admitted| {
            peer.message(client_actor(0), FabricMsg::SubmitProposal(sp), admitted)
        };
        let ask = |nonce| read_proposal(&client, DEFAULT_CHANNEL, "k", nonce);
        let trace = |actions: &[Action]| match actions.last() {
            Some(Action::Own(Own::DeferRequest(_, (trace, _), ..))) => trace.clone(),
            _ => panic!("{:?}", show(actions)),
        };

        // A query's answer runs on a read lane, a write's behind the
        // committer, and an invoke the chaincode refused wrote nothing.
        let first = propose(&mut peer, ask(1), true);
        let endorsed = ["+ch.endorsed=1", "read[endorse.exec]:endorsed->100"];
        assert_eq!(show(&first), endorsed);
        assert_eq!(trace(&first), ask(1).proposal.tx_id().0.to_hex());
        let mut put = ask(2);
        put.proposal.function = "put".into();
        put.signature = client.sign(&put.proposal.to_bytes());
        let write = ["+ch.endorsed=1", "request[endorse.exec]:endorsed->100"];
        assert_eq!(show(&propose(&mut peer, put, true)), write);
        let mut bad = ask(5);
        bad.proposal.args.clear();
        bad.signature = client.sign(&bad.proposal.to_bytes());
        let refused = show(&propose(&mut peer, bad, true));
        assert!(
            refused[1].starts_with("read[endorse.exec]:refused("),
            "{refused:?}"
        );

        // Shed at admission: one immediate refusal, no ledger touched, and
        // no count: the host counted the nack.
        let shed = show(&propose(&mut peer, ask(3), false));
        assert_eq!(shed, [format!("refused({BUSY_REASON})->100")]);
        let elsewhere = read_proposal(&client, "another-channel", "k", 4);
        let unhosted = show(&propose(&mut peer, elsewhere, true));
        assert_eq!(
            unhosted,
            ["refused(channel another-channel not hosted)->100"]
        );
        assert_eq!(ledger_digests(&ledger), before);
    }

    /// A commit-status probe is answered from the committer with the code
    /// the peer recorded, valid or not; an id the peer never committed, and
    /// one it knows only from a booted snapshot, with "not found" at the
    /// same charge, so the client asks its next peer at once.
    #[test]
    fn a_status_probe_is_answered_with_the_recorded_code_or_not_found() {
        let (client, endorser, new_committer) = support::new_committers();
        let mut ledger = new_committer();
        let chain = support::extend_chain(&mut ledger, &client, &endorser, 1, 2);
        // Post 0's key again under another tx id: its read of the key's
        // absence is stale.
        let mut stale = support::post(&client, &endorser, 0);
        stale.proposal.nonce += 100;
        let message = endorsement_message(&stale.tx_id(), &stale.payload, &stale.rwset);
        stale.endorsements[0].signature = endorser.sign(&message);
        let block = Block::build(1, ledger.store().tip_hash(), vec![stale.to_raw()]);
        assert_eq!(ledger.commit_block(block).unwrap().invalid, 1);
        let snapshot = ledger.snapshot(DEFAULT_CHUNK_ENTRIES);
        let booted = ledger.recover_from_snapshot(&snapshot).unwrap();
        let probe = |peer: &mut Peer, tx_id| {
            let msg = FabricMsg::CommitStatus {
                channel: channel(),
                tx_id,
            };
            let actions = peer.message(client_actor(0), msg, true);
            // Charged as a query, found or not.
            let query = costs::VERIFY + costs::STATE_OP;
            assert!(matches!(&actions[..], [Action::Job(cost, ..)] if *cost == query));
            show(&actions)
        };
        let valid = chain[0].envelopes[0].tx_id;
        let (mut peer, _) = peer_on(&endorser, ledger, None, None);
        assert_eq!(probe(&mut peer, valid), ["job:status=Valid->100"]);
        let conflict = ["job:status=MvccReadConflict->100"];
        assert_eq!(probe(&mut peer, stale.tx_id()), conflict);
        let not_found = ["job:status=none->100"];
        assert_eq!(probe(&mut peer, TxId(Digest::of(b"never"))), not_found);
        let (mut peer, _) = peer_on(&endorser, booted, None, None);
        assert_eq!(probe(&mut peer, valid), not_found);
    }

    /// A restart with `prepare` done to the peer's six-block ledger first.
    fn restarted(
        snapshots: Option<u64>,
        prepare: impl FnOnce(&RefCell<Committer>, &dyn Fn() -> Committer),
    ) -> (Vec<String>, u64) {
        let (client, endorser, new_committer) = support::new_committers();
        let chain = support::extend_chain(&mut new_committer(), &client, &endorser, 6, 1);
        let (mut peer, ledger) = peer_on(&endorser, new_committer(), snapshots, None);
        for block in &chain {
            deliver(&mut peer, block);
        }
        prepare(&ledger, &new_committer);
        let actions = show(&peer.restarted());
        let height = ledger.borrow().height();
        (actions, height)
    }

    #[test]
    fn a_snapshot_that_does_not_boot_falls_back_to_genesis_replay() {
        let (actions, height) = restarted(Some(4), |ledger, new_committer| {
            // The snapshot cut at 4 is sound in itself, but what the disk
            // now holds is another chain: block 4 does not link onto it.
            let mut other = new_committer();
            for number in 0..6 {
                let tip = other.store().tip_hash();
                other
                    .commit_block(Block::build(number, tip, vec![]))
                    .unwrap();
            }
            *ledger.borrow_mut() = other;
        });
        let counted = |name: &str| actions.iter().any(|a| a.starts_with(name));
        assert!(counted("+ch.snapshot_boot_errors=1"));
        assert!(!counted("+ch.snapshot_boots") && !counted("+ch.recover_errors"));
        assert!(counted("+recoveries=1"));
        assert!(counted("recovery.snapshot_boots:=0"));
        assert!(counted("recovery.replayed_blocks:=6"));
        assert_eq!(height, 6);
    }

    /// A restart across a cut: the cut is materialized from the ledger it
    /// is about to replace, booted from and dropped, and the rebuilt
    /// ledger is the one that crashed — down to the tx ids it has seen on
    /// either side of the cut.
    #[test]
    fn a_restart_boots_from_the_cut_and_keeps_none_of_its_content() {
        let (_, endorser, chain, empty) = fixture(6);
        let (mut peer, ledger) = peer_on(&endorser, empty, Some(4), None);
        for block in &chain {
            deliver(&mut peer, block);
        }
        let offer = |peer: &mut Peer| {
            let request = FabricMsg::SnapshotRequest { channel: channel() };
            match peer.message(ActorId(7), request, true).pop() {
                Some(Action::Job(_, mut sends, _)) => match sends.pop() {
                    Some((_, _, FabricMsg::SnapshotOffer { manifest, .. })) => manifest,
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        };
        let resident = |peer: &Peer| hosted(peer).snapshot_resident;
        let before = ledger_digests(&ledger);
        assert_eq!(before.0, 6);
        assert!(!resident(&peer));

        // Restarted with the cut unread, then with it served: each time
        // one boot, the crashed ledger back, nothing of the cut resident.
        let mut served = None;
        for serve in [false, true] {
            if serve {
                served = offer(&mut peer);
                assert!(resident(&peer));
            }
            let actions = show(&peer.restarted());
            assert!(actions.contains(&"+ch.snapshot_boots=1".to_owned()));
            assert!(actions.contains(&"recovery.snapshot_boots:=1".to_owned()));
            assert!(actions.contains(&"recovery.replayed_blocks:=2".to_owned()));
            assert_eq!(ledger_digests(&ledger), before);
            assert!(ledger.borrow().graph_consistent());
            let view = hosted(&peer);
            assert_eq!(view.snapshot_height, Some(4));
            assert!(!view.snapshot_resident);
        }
        // Materialized from the rebuilt ledger, it is the cut served before.
        assert_eq!(offer(&mut peer).map(|m| m.height), Some(4));
        assert_eq!(offer(&mut peer), served);

        // Transactions from below the cut and from above it, submitted
        // again: both are duplicates.
        let again = vec![chain[1].envelopes[0].clone(), chain[5].envelopes[1].clone()];
        let tip = ledger.borrow().store().tip_hash();
        deliver(&mut peer, &Block::build(6, tip, again));
        let ledger = ledger.borrow();
        let codes = &ledger.store().block(6).unwrap().metadata.codes;
        assert_eq!(*codes, [ValidationCode::DuplicateTxId; 2]);
    }

    #[test]
    fn a_store_that_does_not_replay_is_counted_and_the_ledger_kept() {
        let (actions, height) = restarted(None, |ledger, _| {
            // Pruned with no snapshot to cover the gap: genesis is gone.
            ledger.borrow_mut().prune_store_to(3);
        });
        let kept = [
            "+ch.recover_errors=1",
            "+recoveries=1",
            "recovery.cost_ms:=0",
            "recovery.replayed_blocks:=0",
            "recovery.snapshot_boots:=0",
            "disarm#0",
        ];
        assert_eq!(actions, kept);
        assert_eq!(height, 6);
    }

    /// The fetch end to end between two machines: join, offer, parts,
    /// boot, what was buffered below the snapshot dropped, what sits
    /// directly above it committed, the delta asked for.
    #[test]
    fn a_joiner_boots_from_a_provider_and_commits_what_it_buffered() {
        let (_, endorser, chain, empty) = fixture(8);
        let (provider_id, joiner_id) = (ActorId(1), ActorId(2));
        let (mut provider, served) = peer_on(&endorser, empty, Some(3), None);
        for block in &chain {
            deliver(&mut provider, block);
        }
        assert_eq!(hosted(&provider).snapshot_height, Some(6));

        let (_, _, _, empty) = fixture(0);
        let (mut joiner, ledger) = peer_on(&endorser, empty, Some(3), Some(ORDERER));
        joiner.set_providers(&channel(), vec![provider_id]);
        for number in [2, 6, 7] {
            deliver(&mut joiner, &chain[number]);
        }
        // A message to the other machine goes to it, its answer back, until
        // nothing is left in flight; every answer is kept.
        let mut s = Sched::new([(provider_id, provider), (joiner_id, joiner)], Rng::new(0));
        let join = FabricMsg::JoinChannel { channel: channel() };
        let mut seen = show(&s.message(1, ORDERER, join));
        for (_, actions) in s.settle() {
            seen.extend(show(&actions));
        }
        let has = |word: &str| seen.iter().any(|a| a == word);
        assert!(has("+ch.joins=1") && has("+ch.snapshot_requests=1"));
        assert!(has("+ch.snapshot_boots=1") && has("ch.snapshots.height:=6"));
        assert!(has("committed block-6->[]") && has("committed block-7->[]"));
        assert!(!has("committed block-2->[]"));
        assert!(has("blocks@8->90"));
        assert_eq!(ledger_digests(&ledger), ledger_digests(&served));
        let view = hosted(&s.machines[1]);
        assert!(view.buffered.is_empty() && !view.catchup.current);
        assert_eq!(view.snapshot_height, Some(6));
    }

    /// A joiner that re-delivery carried past the snapshot while it
    /// downloaded it does not boot it: booting would roll blocks 6 and 7
    /// back. It asks for the delta above its own height instead.
    #[test]
    fn a_joiner_already_past_the_snapshot_it_downloaded_keeps_its_ledger() {
        let (_, endorser, chain, empty) = fixture(8);
        let (provider_id, joiner_id) = (ActorId(1), ActorId(2));
        let (mut provider, served) = peer_on(&endorser, empty, Some(3), None);
        for block in &chain {
            deliver(&mut provider, block);
        }
        let (_, _, _, empty) = fixture(0);
        let (mut joiner, ledger) = peer_on(&endorser, empty, None, Some(ORDERER));
        joiner.set_providers(&channel(), vec![provider_id]);
        let mut s = Sched::new([(provider_id, provider), (joiner_id, joiner)], Rng::new(0));
        let join = FabricMsg::JoinChannel { channel: channel() };
        let mut seen = show(&s.message(1, ORDERER, join));
        // The offer is taken and the first part asked for; then the whole
        // chain arrives before the parts do.
        while !seen.iter().any(|a| a.starts_with("part?")) {
            let (src, m, msg) = s.flying.remove(0);
            seen.extend(show(&s.message(m, src, msg)));
        }
        for block in &chain {
            let block = FabricMsg::DeliverBlock(channel(), Arc::new(block.clone()));
            seen.extend(show(&s.message(1, ORDERER, block)));
        }
        for (_, actions) in s.settle() {
            seen.extend(show(&actions));
        }
        let has = |word: &str| seen.iter().any(|a| a == word);
        assert!(has("part?@6/0->1") && has("blocks@8->90"));
        assert!(!has("+ch.snapshot_boots=1"));
        let commits = seen.iter().filter(|a| a.starts_with("committed block-6"));
        assert_eq!(commits.count(), 1);
        assert_eq!(ledger_digests(&ledger), ledger_digests(&served));
    }
}

/// A transaction of the generated chain: who should hear of it from whom.
struct Tx {
    id: TxId,
    /// The creator's client and the first endorser's peer, unless the
    /// envelope does not decode.
    parties: Option<(usize, usize)>,
}

/// What one machine under test has answered so far, beside its ledger.
struct Replica {
    ledger: Rc<RefCell<Committer>>,
    interval: Option<u64>,
    cuts: BTreeSet<u64>,
    /// Commit sends, in the order answered.
    told: Vec<(TxId, ActorId)>,
}

/// What the cases of a run exercised, so that a run that exercised
/// nothing does not pass for one that held.
#[derive(Default)]
struct Coverage {
    cuts: u64,
    stale: u64,
    holes: u64,
    restarts_with_something_to_lose: u64,
    snapshot_boots: u64,
}

/// The machines under test, their host, and what each answered.
struct Model {
    sched: Sched<Peer>,
    replicas: Vec<Replica>,
}

impl Model {
    fn rng(&mut self) -> &mut Rng {
        &mut self.sched.rng
    }

    fn height(&self, i: usize) -> u64 {
        self.replicas[i].ledger.borrow().height()
    }

    fn view(&self, i: usize) -> HostedView {
        hosted(&self.sched.machines[i])
    }

    /// Feeds machine `i` one input through its host and holds what must
    /// hold after any.
    fn input(
        &mut self,
        i: usize,
        input: impl FnOnce(&mut Sched<Peer>) -> Vec<Action>,
    ) -> Vec<Action> {
        let before = self.height(i);
        let last_cut = self.view(i).snapshot_height;
        let actions = input(&mut self.sched);
        let (height, view) = (self.height(i), self.view(i));
        let replica = &mut self.replicas[i];

        // Heights are contiguous: one `Committed` per block, in order.
        let committed: Vec<String> = actions
            .iter()
            .filter_map(|action| match action {
                Action::Own(Own::Committed { trace, .. }) => Some(trace.clone()),
                _ => None,
            })
            .collect();
        let grown: Vec<String> = (before..height).map(|n| format!("block-{n}")).collect();
        assert_eq!(committed, grown);
        assert!(view.buffered.iter().all(|&number| number > height));

        // A cut exactly when the chain grew to where one is due.
        let cuts = actions
            .iter()
            .filter(|a| matches!(a, Action::Count(_, "snapshots.cut", _)))
            .count();
        let due = replica
            .interval
            .is_some_and(|interval| height > before && height >= last_cut.unwrap_or(0) + interval);
        assert_eq!(cuts, usize::from(due), "at {height}, last cut {last_cut:?}");
        if due {
            assert!(replica.cuts.insert(height), "two cuts at {height}");
            assert_eq!(view.snapshot_height, Some(height));
        } else {
            assert_eq!(view.snapshot_height, last_cut);
        }

        for action in &actions {
            if let Action::Own(Own::Committed { events, .. }) = action {
                for (to, event) in events {
                    let FabricMsg::Commit(event) = event else {
                        panic!("{event:?} among commit events");
                    };
                    replica.told.push((event.tx_id, *to));
                }
            }
        }
        // The retry timer is armed exactly while catch-up is not current.
        assert_eq!(!self.sched.armed[i].is_empty(), !view.catchup.current);
        actions
    }

    /// The first timer machine `i` has armed fires, if it has one.
    fn fire_first(&mut self, i: usize) {
        if let Some(&token) = self.sched.armed[i].first() {
            self.input(i, |s| s.fire(i, token));
        }
    }
}

/// One case: a chain, one to four machines, a schedule each, a heal.
fn run_case(seed: u64, coverage: &mut Coverage) {
    let mut rng = Rng::new(seed);
    let n_peers = 1 + rng.below(4) as usize;
    let n_clients = 3;
    let (clients, peers, new_committer) = support::network(n_clients, n_peers);

    // The chain: posts of one client each, endorsed first by one of the
    // peers in play, and now and then an envelope that does not decode.
    let tip = 6 + rng.below(10);
    let mut reference = new_committer();
    let mut txs = Vec::new();
    let mut chain = Vec::new();
    for number in 0..tip {
        let mut envelopes = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let nonce = txs.len() as u64;
            if rng.chance(10) {
                let id = TxId(Digest::of(&nonce.to_be_bytes()));
                let bytes = vec![0xFF, 0x00];
                envelopes.push(RawEnvelope {
                    tx_id: id,
                    bytes: bytes.into(),
                });
                txs.push(Tx { id, parties: None });
            } else {
                let (c, p) = (rng.below(3) as usize, rng.below(n_peers as u64) as usize);
                let raw = support::post(&clients[c], &peers[p], nonce).to_raw();
                let (id, parties) = (raw.tx_id, Some((c, p)));
                txs.push(Tx { id, parties });
                envelopes.push(raw);
            }
        }
        let block = Block::build(number, reference.store().tip_hash(), envelopes);
        reference.commit_block(block.clone()).unwrap();
        chain.push(Arc::new(block));
    }
    assert!(reference.graph_consistent());
    let keys: Vec<String> = reference
        .state()
        .iter()
        .map(|(key, _)| key.key.to_string())
        .collect();

    let mut machines = Vec::new();
    let mut replicas = Vec::new();
    for (p, identity) in peers.iter().enumerate() {
        let interval = rng.chance(60).then(|| 2 + rng.below(4));
        let target = rng.chance(80).then_some(ORDERER);
        let (mut peer, ledger) = peer_on(identity, new_committer(), interval, target);
        for (c, client) in clients.iter().enumerate() {
            peer.subscribe(client_actor(c), client.certificate().id);
        }
        machines.push((ActorId(1 + p as u32), peer));
        let (cuts, told) = (BTreeSet::new(), Vec::new());
        replicas.push(Replica {
            ledger,
            interval,
            cuts,
            told,
        });
    }
    let sched = Sched::new(machines, rng);
    let mut m = Model { sched, replicas };

    for i in 0..n_peers {
        // This machine's deliveries: the chain, some of it swapped about,
        // some of it twice, some of it held back until the end.
        let mut order: Vec<u64> = (0..tip).collect();
        for _ in 0..m.rng().below(tip) {
            let at = m.rng().below(tip - 1) as usize;
            order.swap(
                at,
                (at + 1 + m.rng().below(3) as usize).min(tip as usize - 1),
            );
        }
        for _ in 0..m.rng().below(tip) {
            let copy = order[m.rng().below(order.len() as u64) as usize];
            order.insert(m.rng().below(order.len() as u64 + 1) as usize, copy);
        }
        let (held, order): (Vec<u64>, Vec<u64>) =
            order.into_iter().partition(|_| m.rng().chance(15));
        coverage.holes += held.len() as u64;

        let mut nonce = 1_000;
        for number in order.into_iter().chain(held) {
            let height = m.height(i);
            let block = FabricMsg::DeliverBlock(channel(), chain[number as usize].clone());
            let actions = m.input(i, |s| s.message(i, ORDERER, block));
            if number < height {
                coverage.stale += 1;
                assert!(actions.is_empty(), "stale block {number} at {height}");
            }

            match m.rng().below(12) {
                0..=2 => {
                    // A proposal touches no ledger, admitted or shed.
                    nonce += 1;
                    let key = &keys[m.rng().below(keys.len() as u64) as usize];
                    let client = m.rng().below(3) as usize;
                    let sp = read_proposal(&clients[client], DEFAULT_CHANNEL, key, nonce);
                    let (src, admitted) = (client_actor(client), m.rng().chance(85));
                    let before = ledger_digests(&m.replicas[i].ledger);
                    let sp = FabricMsg::SubmitProposal(sp);
                    let actions =
                        m.input(i, |s| s.input(i, |peer, _| peer.message(src, sp, admitted)));
                    assert_eq!(ledger_digests(&m.replicas[i].ledger), before);
                    let refused = format!("refused({BUSY_REASON})->{}", src.0);
                    match (admitted, actions.last()) {
                        (true, Some(Action::Own(Own::DeferRequest(_, _, to, msg, read)))) => {
                            let FabricMsg::ProposalResult(response) = msg else {
                                panic!("{msg:?}");
                            };
                            assert!(*to == src && response.result.is_ok() && *read);
                        }
                        (false, _) => assert_eq!(show(&actions), [refused]),
                        _ => panic!("{:?}", show(&actions)),
                    }
                }
                3 => {
                    let offered = m.view(i).snapshot_height;
                    let request = FabricMsg::SnapshotRequest { channel: channel() };
                    let actions = m.input(i, |s| s.message(i, ActorId(7), request));
                    let offer = format!("job:offer@{offered:?}->7");
                    assert_eq!(show(&actions), ["+ch.snapshot_requests=1", &offer]);
                }
                4 => m.fire_first(i),
                5 => {
                    // A restart keeps what is durable and nothing else.
                    let before = ledger_digests(&m.replicas[i].ledger);
                    let view = m.view(i);
                    coverage.restarts_with_something_to_lose +=
                        u64::from(!view.buffered.is_empty());
                    let actions = show(&m.input(i, |s| s.restart(i)));
                    assert!(actions.contains(&"+recoveries=1".to_owned()));
                    let booted = actions.contains(&"+ch.snapshot_boots=1".to_owned());
                    assert_eq!(booted, view.snapshot_height.is_some());
                    coverage.snapshot_boots += u64::from(booted);
                    assert_eq!(ledger_digests(&m.replicas[i].ledger), before);
                    let after = m.view(i);
                    assert!(after.buffered.is_empty());
                    assert_eq!(after.snapshot_height, view.snapshot_height);
                    // Every checkpoint here is a cut (nothing is fetched):
                    // its content does not outlive the boot.
                    assert!(!after.snapshot_resident);
                }
                _ => {}
            }
        }

        coverage.cuts += m.replicas[i].cuts.len() as u64;

        // The heal: the chain once more, in order. What a restart lost
        // commits now; everything else is stale and answers nothing.
        for block in &chain {
            let stale = block.header.number < m.height(i);
            let block = FabricMsg::DeliverBlock(channel(), block.clone());
            let actions = m.input(i, |s| s.message(i, ORDERER, block));
            assert!(!stale || actions.is_empty());
        }
        // Nothing proves a gap any more, so whatever still waits gives up.
        for _ in 0..=CATCHUP_GIVE_UP + 1 {
            m.fire_first(i);
        }
        let view = m.view(i);
        assert!(view.catchup.current && m.sched.armed[i].is_empty() && view.buffered.is_empty());
    }

    // One height, one state, one graph — the reference's — whatever the
    // order, the duplicates, the holes and the restarts.
    let reference = RefCell::new(reference);
    for replica in &m.replicas {
        assert_eq!(ledger_digests(&replica.ledger), ledger_digests(&reference));
        assert!(replica.ledger.borrow().graph_consistent());
    }

    // Every transaction that names its parties is reported once across
    // the set, by the peer that endorsed it first, to its creator; one
    // that does not is reported by every peer to every subscriber, in
    // certificate order.
    let mut by_cert: Vec<usize> = (0..n_clients).collect();
    by_cert.sort_by_key(|&c| clients[c].certificate().id);
    let everyone: Vec<ActorId> = by_cert.into_iter().map(client_actor).collect();
    for tx in &txs {
        let told: Vec<Vec<ActorId>> = m
            .replicas
            .iter()
            .map(|replica| {
                let own = replica.told.iter().filter(|(id, _)| *id == tx.id);
                own.map(|(_, to)| *to).collect()
            })
            .collect();
        for (p, told) in told.iter().enumerate() {
            match tx.parties {
                Some((c, first)) if first == p => assert_eq!(*told, [client_actor(c)]),
                Some(_) => assert!(told.is_empty()),
                None => assert_eq!(*told, everyone),
            }
        }
    }
}

proptest! {
    #[test]
    fn machines_fed_one_chain_in_any_order_agree(seed in any::<u64>()) {
        run_case(seed, &mut Coverage::default());
    }
}

/// The generator reaches what the property is about: over a few dozen
/// seeds there are cuts, stale deliveries, holes, restarts that lose
/// something and restarts that boot from a snapshot.
#[test]
fn the_generated_schedules_exercise_the_machine() {
    let mut coverage = Coverage::default();
    for seed in 0..48 {
        run_case(seed, &mut coverage);
    }
    assert!(coverage.cuts > 0 && coverage.stale > 0 && coverage.holes > 0);
    assert!(coverage.restarts_with_something_to_lose > 0);
    assert!(coverage.snapshot_boots > 0);
}
