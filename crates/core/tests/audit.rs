//! The network audit against planted defects: each defect, planted
//! through the public API, produces its finding, and a clean run none.

use std::sync::Arc;

use hyperprov::{
    audit, AuditFinding, ClientCommand, ClientCompletion, HyperProvNetwork, NetworkConfig, NodeMsg,
    OpId, OpOutput, RecordInput, SnapshotPolicy,
};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::{Block, Digest, RawEnvelope, TxId, DEFAULT_CHANNEL};
use hyperprov_sim::{SimDuration, SimTime};

/// A desktop network, one block per transaction, that stored `ops` items
/// from client 0 and ran to quiescence.
fn network(config: NetworkConfig, ops: u64) -> HyperProvNetwork {
    let config = config.with_batch(BatchConfig {
        max_message_count: 1,
        ..BatchConfig::default()
    });
    let mut net = HyperProvNetwork::build(&config);
    for op in 1..=ops {
        let command = ClientCommand::StoreData {
            key: format!("item-{op}"),
            data: vec![op as u8; 64],
            parents: vec![],
            metadata: vec![],
            op: OpId(op),
        };
        net.sim
            .inject_message(net.clients[0], NodeMsg::Client(command));
        net.sim.run_until(net.sim.now() + SimDuration::from_secs(1));
    }
    net.sim
        .run_until(net.sim.now() + SimDuration::from_secs(10));
    net
}

/// The audit over client 0's completions.
fn findings(net: &HyperProvNetwork) -> Vec<AuditFinding> {
    net.audit(net.completions[0].borrow().iter())
}

/// `finding` on `peer` of the default channel.
fn on(peer: usize, finding: AuditFinding) -> AuditFinding {
    AuditFinding::Replica(DEFAULT_CHANNEL.into(), peer, Box::new(finding))
}

#[test]
fn a_clean_run_has_no_finding() {
    let net = network(NetworkConfig::desktop(1), 4);
    assert_eq!(net.completions[0].borrow().len(), 4);
    assert_eq!(findings(&net), []);
}

/// A byte flipped in one replica's stored envelope breaks that replica's
/// chain, and its replay, and nothing else: the other replicas share the
/// body, not the tampering.
#[test]
fn a_tampered_block_body_breaks_one_chain() {
    let net = network(NetworkConfig::desktop(1), 4);
    let mut ledger = net.ledgers[1].borrow_mut();
    let block = ledger.tamper(2).expect("block 2 is stored");
    Arc::make_mut(&mut Arc::make_mut(&mut block.envelopes)[0].bytes)[5] ^= 1;
    drop(ledger);
    let detail = "data hash mismatch at height 2".to_owned();
    let replay = detail.clone();
    assert_eq!(
        findings(&net),
        [
            on(1, AuditFinding::ChainBroken { detail }),
            on(1, AuditFinding::RestoreDiffers(replay)),
        ]
    );
}

/// A node dropped from one replica's graph index, whose state still holds
/// the record: that replica would answer lineage and ancestry without it.
#[test]
fn a_drifted_graph_index_is_named() {
    let net = network(NetworkConfig::desktop(1), 2);
    assert!(net.ledgers[1].borrow_mut().graph_mut().remove("item-1"));
    let replay = "graph digest".to_owned();
    assert_eq!(
        findings(&net),
        [
            on(1, AuditFinding::Diverged("graph digest")),
            on(1, AuditFinding::IndexDrift),
            on(1, AuditFinding::RestoreDiffers(replay)),
        ]
    );
}

/// Appends a valid, empty block to `peer`'s ledger behind the network's
/// back.
fn hand_an_extra_block(net: &HyperProvNetwork, peer: usize) -> u64 {
    hand_a_block(net, peer, Vec::new())
}

/// Appends a block of `envelopes` to `peer`'s ledger behind the
/// network's back.
fn hand_a_block(net: &HyperProvNetwork, peer: usize, envelopes: Vec<RawEnvelope>) -> u64 {
    let mut ledger = net.ledgers[peer].borrow_mut();
    let tip = ledger.store().tip_hash();
    let block = Block::build(ledger.height(), tip, envelopes);
    ledger
        .commit_block(block)
        .expect("the block extends the chain");
    ledger.height()
}

/// The tallest live chain is the reference, however few replicas hold
/// it: a majority one block behind a current replica is behind, and the
/// current replica is not a fork.
#[test]
fn a_majority_one_block_behind_a_current_replica_is_behind() {
    let net = network(NetworkConfig::desktop(1), 2);
    hand_an_extra_block(&net, 2);
    let behind = |peer| on(peer, AuditFinding::Diverged("height"));
    assert_eq!(findings(&net), [behind(0), behind(1), behind(3)]);
}

/// Two different blocks at one height are a fork: of the two tallest
/// chains, the one not taken as the reference is `Forked`.
#[test]
fn two_blocks_at_one_height_are_still_a_fork() {
    let net = network(NetworkConfig::desktop(1), 2);
    let height = hand_an_extra_block(&net, 2);
    let first = net.ledgers[1]
        .borrow()
        .store()
        .block(1)
        .map(|b| b.envelopes.to_vec());
    hand_a_block(&net, 1, first.expect("block 1 is stored"));
    let behind = |peer| on(peer, AuditFinding::Diverged("height"));
    let forked = [
        on(2, AuditFinding::Diverged("tip hash")),
        on(2, AuditFinding::Forked(height)),
    ];
    assert_eq!(
        findings(&net),
        [&[behind(0)][..], &forked, &[behind(3)]].concat()
    );
}

/// The last block reaches the client's home peer only, the others being
/// cut off from the orderer, and no later block shows them the gap: the
/// operation's `Ok` commit, in the tallest chain's last block, counts
/// once, and the others are behind.
#[test]
fn an_ok_commit_in_the_tallest_chains_last_block_counts_once() {
    let mut net = network(NetworkConfig::desktop(1), 2);
    for peer in 1..4 {
        let (peer, orderer) = (net.peers[peer], net.orderers[0]);
        net.sim.network_mut().partition(peer, orderer);
    }
    let command = ClientCommand::Post {
        key: "last".into(),
        input: RecordInput::new(Digest::of(b"last")),
        op: OpId(3),
    };
    net.sim
        .inject_message(net.clients[0], NodeMsg::Client(command));
    net.sim
        .run_until(net.sim.now() + SimDuration::from_secs(10));
    let done = net.completions[0].borrow();
    assert!(matches!(done[2].outcome, Ok(OpOutput::Committed { .. })));
    drop(done);
    let behind = |peer| on(peer, AuditFinding::Diverged("height"));
    assert_eq!(findings(&net), [behind(1), behind(2), behind(3)]);
}

/// A crashed replica is not asked to agree — it may be behind — but its
/// chain must still be a prefix of the channel's.
#[test]
fn an_extra_block_on_a_crashed_replica_is_a_fork() {
    let mut net = network(NetworkConfig::desktop(1), 2);
    net.sim.crash_actor(net.peers[2]);
    let height = hand_an_extra_block(&net, 2);
    assert_eq!(findings(&net), [on(2, AuditFinding::Forked(height))]);
}

/// A home peer cut off from the orderer, and no deadline: the client
/// waits for a commit event that never comes, and the operation never
/// ends.
#[test]
fn an_operation_left_open_is_named() {
    let mut net = network(NetworkConfig::desktop(1), 1);
    net.sim
        .network_mut()
        .partition(net.peers[0], net.orderers[0]);
    let command = ClientCommand::Post {
        key: "stuck".into(),
        input: RecordInput::new(Digest::of(b"stuck")),
        op: OpId(2),
    };
    net.sim
        .inject_message(net.clients[0], NodeMsg::Client(command));
    net.sim.run_until(SimTime::from_secs(60));
    assert_eq!(net.completions[0].borrow().len(), 1);
    let diverged = AuditFinding::Diverged("height");
    let open = |stage| AuditFinding::OpenSpans(stage, 1);
    assert_eq!(
        findings(&net),
        [on(0, diverged), open("commit_wait"), open("op")]
    );
}

/// A commit a client was told is `Ok`, that no ledger holds.
#[test]
fn an_ok_commit_no_ledger_holds_is_named() {
    let net = network(NetworkConfig::desktop(1), 1);
    let tx_id = TxId(Digest::of(b"never ordered"));
    let ghost = ClientCompletion {
        op: OpId(9),
        started: net.sim.now(),
        finished: net.sim.now(),
        outcome: Ok(OpOutput::Committed {
            record: None,
            tx_id,
        }),
    };
    let done = net.completions[0].borrow();
    let lost = AuditFinding::CommitNotOnce(tx_id, 0);
    assert_eq!(net.audit(done.iter().chain([&ghost])), [lost]);
}

/// A pruned store walks only the blocks it retains, and says so.
#[test]
fn a_pruned_store_reports_the_blocks_it_walked() {
    let config = NetworkConfig::desktop(1).with_snapshots(SnapshotPolicy::every(2));
    let net = network(config, 7);
    let ledger = net.ledgers[0].borrow();
    let store = ledger.store();
    assert!(store.base_height() > 0, "snapshots prune the store");
    let report = audit(&ledger, net.store.as_ref());
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.blocks_checked, store.height() - store.base_height());
    assert_eq!((report.records_checked, report.payloads_checked), (7, 7));
    drop(ledger);
    assert_eq!(findings(&net), []);
}
