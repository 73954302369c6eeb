//! The committer's unit tests, with the monolithic serial commit loop
//! kept as their reference implementation.

use std::collections::HashSet;

use super::*;
use crate::identity::{MspBuilder, MspId, Signature, SigningIdentity};
use crate::messages::{endorsement_message, Endorsement, Envelope, Proposal};
use hyperprov_ledger::{Decode, Encode};
use hyperprov_ledger::{Digest, HistoryEntry, KvRead, KvWrite, RwSet, Snapshot, SnapshotError};

struct Net {
    msp: Arc<Msp>,
    client: SigningIdentity,
    peers: Vec<SigningIdentity>,
}

fn net() -> Net {
    let mut b = MspBuilder::new(1);
    let client = b.enroll("client", &MspId::new("org1"));
    let peers = (0..3)
        .map(|i| b.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
        .collect();
    Net {
        msp: b.build(),
        client,
        peers,
    }
}

fn committer(net: &Net, policy: EndorsementPolicy) -> Committer {
    Committer::new(net.msp.clone(), policy)
}

fn envelope(net: &Net, nonce: u64, rwset: RwSet, endorsers: &[usize]) -> Envelope {
    let proposal = Proposal {
        channel: "ch".into(),
        chaincode: "cc".into(),
        function: "f".into(),
        args: vec![],
        creator: net.client.certificate().clone(),
        nonce,
    };
    let tx_id = proposal.tx_id();
    let msg = endorsement_message(&tx_id, b"r", &rwset);
    let endorsements = endorsers
        .iter()
        .map(|&i| Endorsement {
            endorser: net.peers[i].certificate().clone(),
            signature: net.peers[i].sign(&msg),
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

fn write_set(key: &str, value: &[u8]) -> RwSet {
    RwSet {
        reads: vec![],
        writes: vec![KvWrite {
            key: StateKey::new("cc", key),
            value: Some(value.into()),
        }],
    }
}

/// Total value bytes a write set carries.
fn write_bytes(rwset: &RwSet) -> u64 {
    let len = |w: &KvWrite| w.value.as_ref().map_or(0, |v| v.len() as u64);
    rwset.writes.iter().map(len).sum()
}

/// Reference implementation for the equivalence tests: the monolithic
/// serial commit loop (decode, duplicate, signatures, policy, MVCC and
/// apply, one transaction at a time), written independently of
/// [`Committer::vscc_block`] / [`Committer::commit_block_prevalidated`].
fn commit_block_reference(c: &mut Committer, block: Block) -> CommitOutcome {
    let mut block = c.store.check_extends(block).unwrap();
    let mut out = CommitOutcome {
        events: Vec::new(),
        valid: 0,
        invalid: 0,
        bytes_written: 0,
        dangling_parents: 0,
    };
    let mut codes = Vec::new();
    for (tx_num, raw) in block.envelopes.iter().enumerate() {
        let (code, chaincode_event, creator, endorser) = match Envelope::from_raw(raw) {
            Ok(env) => {
                let tx_id = env.tx_id();
                let creator = env.proposal.creator.id;
                let endorser = env.endorsements.first().map(|e| e.endorser.id);
                let code = validate_reference(c, &env, &tx_id);
                let mut chaincode_event = None;
                if code.is_valid() {
                    let version = Version::new(block.header.number, tx_num as u32);
                    for w in &env.rwset.writes {
                        c.state.apply_tx(tx_id, version, w);
                        out.dangling_parents += c.index_write(&w.key, w.value.as_deref());
                    }
                    out.bytes_written += write_bytes(&env.rwset);
                    chaincode_event = env.event;
                }
                c.seen.entry(tx_id).or_insert(Some(code));
                (code, chaincode_event, Some(creator), endorser)
            }
            Err(_) => (ValidationCode::BadSignature, None, None, None),
        };
        if code.is_valid() {
            out.valid += 1;
        } else {
            out.invalid += 1;
        }
        codes.push(code);
        out.events.push(CommitEvent {
            channel: c.channel.clone(),
            tx_id: raw.tx_id,
            block_number: block.header.number,
            code,
            chaincode_event,
            creator,
            endorser,
        });
    }
    block.metadata_mut().codes = codes;
    c.store.append_checked(block).unwrap();
    out
}

fn validate_reference(c: &Committer, env: &Envelope, tx_id: &TxId) -> ValidationCode {
    if c.seen.contains_key(tx_id) {
        return ValidationCode::DuplicateTxId;
    }
    let msg = endorsement_message(tx_id, &env.payload, &env.rwset);
    let mut orgs: Vec<&MspId> = Vec::new();
    for e in &env.endorsements {
        if !c.msp.verify(&e.endorser, &msg, &e.signature) {
            return ValidationCode::BadSignature;
        }
        orgs.push(&e.endorser.org);
    }
    if !c.policy.is_satisfied_by(orgs.iter().copied()) {
        return ValidationCode::EndorsementPolicyFailure;
    }
    if !c.state.validate_reads(&env.rwset.reads) {
        return ValidationCode::MvccReadConflict;
    }
    ValidationCode::Valid
}

/// Every key's write history, in key order.
fn histories(c: &Committer) -> Vec<(StateKey, Vec<HistoryEntry>)> {
    let history = c.history();
    history
        .iter()
        .map(|(key, writes)| (key.clone(), writes.to_vec()))
        .collect()
}

fn block_of(c: &Committer, envs: Vec<Envelope>) -> Block {
    Block::build(
        c.height(),
        c.store().tip_hash(),
        envs.iter().map(Envelope::to_raw).collect::<Vec<_>>(),
    )
}

#[test]
fn valid_tx_commits_and_updates_state() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    let env = envelope(&n, 1, write_set("k", b"v"), &[0]);
    let out = c.commit_block(block_of(&c, vec![env])).unwrap();
    assert_eq!(out.valid, 1);
    assert_eq!(out.invalid, 0);
    assert_eq!(out.events[0].code, ValidationCode::Valid);
    assert_eq!(
        &*c.state().get(&StateKey::new("cc", "k")).unwrap().value,
        b"v"
    );
    assert_eq!(c.history().get(&StateKey::new("cc", "k")).to_vec().len(), 1);
    assert_eq!(c.height(), 1);
}

#[test]
fn policy_failure_invalidates() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org2")]));
    let env = envelope(&n, 1, write_set("k", b"v"), &[0]); // only org1
    let out = c.commit_block(block_of(&c, vec![env])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::EndorsementPolicyFailure);
    assert!(c.state().get(&StateKey::new("cc", "k")).is_none());
}

#[test]
fn an_endorser_outside_the_policy_is_verified_but_not_needed() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    let env = envelope(&n, 1, write_set("k", b"v"), &[0, 1]); // org1 and org2
    let mut forged = envelope(&n, 2, write_set("j", b"v"), &[0, 1]);
    forged.endorsements[1].signature = Signature(Digest::of(b"forged"));
    let out = c.commit_block(block_of(&c, vec![env, forged])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::Valid);
    // Every endorsement is verified before the policy is asked.
    assert_eq!(out.events[1].code, ValidationCode::BadSignature);
}

#[test]
fn forged_endorsement_signature_invalidates() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    let mut env = envelope(&n, 1, write_set("k", b"v"), &[0]);
    env.endorsements[0].signature = Signature(Digest::of(b"forged"));
    let out = c.commit_block(block_of(&c, vec![env])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::BadSignature);
}

#[test]
fn mvcc_conflict_within_block() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    // Both transactions read key "k" at version None and write it.
    let rw = |nonce: u64| RwSet {
        reads: vec![KvRead {
            key: StateKey::new("cc", "k"),
            version: None,
        }],
        writes: vec![KvWrite {
            key: StateKey::new("cc", "k"),
            value: Some(vec![nonce as u8].into()),
        }],
    };
    let e1 = envelope(&n, 1, rw(1), &[0]);
    let e2 = envelope(&n, 2, rw(2), &[0]);
    let out = c.commit_block(block_of(&c, vec![e1, e2])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::Valid);
    assert_eq!(out.events[1].code, ValidationCode::MvccReadConflict);
    assert_eq!(
        &*c.state().get(&StateKey::new("cc", "k")).unwrap().value,
        [1]
    );
}

#[test]
fn duplicate_txid_across_blocks_invalidates() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    let env = envelope(&n, 1, write_set("k", b"v"), &[0]);
    c.commit_block(block_of(&c, vec![env.clone()])).unwrap();
    let out = c.commit_block(block_of(&c, vec![env])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::DuplicateTxId);
}

#[test]
fn malformed_envelope_marked_bad() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    let raw = hyperprov_ledger::RawEnvelope {
        tx_id: TxId(Digest::of(b"junk")),
        bytes: [0xFF, 0x00].as_slice().into(),
    };
    let block = Block::build(0, Digest::ZERO, vec![raw]);
    let out = c.commit_block(block).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::BadSignature);
    assert_eq!(out.invalid, 1);
}

#[test]
fn block_that_does_not_extend_the_chain_is_rejected_without_side_effects() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut c = committer(&n, policy).with_indexer(Arc::new(TestIndexer));
    let first = envelope(&n, 1, write_set("rec~a", b""), &[0]);
    c.commit_block(block_of(&c, vec![first])).unwrap();

    let next = || vec![envelope(&n, 2, write_set("rec~b", b"a"), &[0]).to_raw()];
    let wrong_number = Block::build(7, c.store().tip_hash(), next());
    let broken_link = Block::build(1, Digest::of(b"elsewhere"), next());
    let mut bad_data_hash = Block::build(1, c.store().tip_hash(), next());
    let bytes = &mut Arc::make_mut(&mut bad_data_hash.envelopes)[0].bytes;
    *bytes = [&bytes[..], &[0]].concat().into();

    let before = (
        c.height(),
        c.store().tip_hash(),
        c.state().state_hash(),
        histories(&c),
        c.graph().digest(),
    );
    for (block, expected) in [
        (
            wrong_number,
            ChainError::WrongNumber {
                got: 7,
                expected: 1,
            },
        ),
        (broken_link, ChainError::BrokenLink { at: 1 }),
        (bad_data_hash, ChainError::BadDataHash { at: 1 }),
    ] {
        assert_eq!(c.commit_block(block).unwrap_err(), expected);
        let after = (
            c.height(),
            c.store().tip_hash(),
            c.state().state_hash(),
            histories(&c),
            c.graph().digest(),
        );
        assert_eq!(after, before, "{expected:?} left a mark");
    }
    // The tx id of a rejected block was not recorded as seen either.
    let out = c
        .commit_block(Block::build(1, c.store().tip_hash(), next()))
        .unwrap();
    assert_eq!(out.events[0].code, ValidationCode::Valid);
}

#[test]
fn replicas_share_block_bodies_but_not_tampering() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut replicas: Vec<Committer> = (0..3).map(|_| committer(&n, policy.clone())).collect();
    for i in 0..4u64 {
        let env = envelope(&n, i + 1, write_set(&format!("k{i}"), b"v"), &[0]);
        let block = block_of(&replicas[0], vec![env]);
        for c in &mut replicas {
            c.commit_block(block.clone()).unwrap();
        }
    }
    let body = |c: &Committer| Arc::clone(&c.store().block(2).unwrap().envelopes);
    let pristine = body(&replicas[0]);
    assert!(
        replicas.iter().all(|c| Arc::ptr_eq(&body(c), &pristine)),
        "one resident body"
    );
    let state_hash = replicas[0].state().state_hash();

    // Flipping a byte of one replica's stored envelope touches that
    // replica only: its audit fails, every other's chain and bytes are
    // intact, and no replica's state — which holds ranges of those very
    // bytes — moves.
    let (a, others) = replicas.split_first_mut().unwrap();
    let victim = a.store.tamper(2).unwrap();
    Arc::make_mut(&mut Arc::make_mut(&mut victim.envelopes)[0].bytes)[5] ^= 1;
    assert_eq!(
        a.store().verify_chain(),
        Err(ChainError::BadDataHash { at: 2 })
    );
    assert_ne!(body(a)[0].bytes, pristine[0].bytes);
    for c in others.iter() {
        c.store().verify_chain().unwrap();
        assert!(Arc::ptr_eq(&body(c), &pristine));
        assert_eq!(body(c)[0].bytes, pristine[0].bytes);
    }
    for c in &replicas {
        assert_eq!(c.state().state_hash(), state_hash);
    }
}

#[test]
fn state_and_history_hold_one_copy_of_each_key_and_value() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let (mut a, mut b) = (committer(&n, policy.clone()), committer(&n, policy));
    let key = StateKey::new("cc", "k");
    for (nonce, value) in [(1, b"v1"), (2, b"v2")] {
        let env = envelope(&n, nonce, write_set("k", value), &[0]);
        let block = block_of(&a, vec![env]);
        a.commit_block(block.clone()).unwrap();
        b.commit_block(block).unwrap();
    }
    // The one copy of a key and of a value is the envelope's that carried
    // it: each replica's state entry and history point into the bytes of
    // the blocks both were fed clones of. A key stays the one its first
    // write brought.
    let bytes_of = |number: u64| Arc::clone(&a.store().block(number).unwrap().envelopes[0].bytes);
    let (first, second) = (bytes_of(0), bytes_of(1));
    let within = |envelope: &[u8], bytes: &[u8]| envelope.as_ptr_range().contains(&bytes.as_ptr());
    let (state_key, held) = a.state().range("cc", "k", "").next().unwrap();
    assert!(within(&first, state_key.key.as_bytes()) && within(&second, &held.value));
    for c in [&a, &b] {
        let (replica_key, replica_held) = c.state().range("cc", "k", "").next().unwrap();
        let (history_key, writes) = c.history().iter().next().unwrap();
        assert_eq!(replica_key, &key);
        for bytes in [replica_key.key.as_bytes(), history_key.key.as_bytes()] {
            assert!(std::ptr::eq(bytes, state_key.key.as_bytes()));
        }
        let entries = writes.to_vec();
        assert_eq!(entries.len(), 2);
        let latest = entries[1].value.as_ref().unwrap();
        assert_eq!(&**latest, b"v2");
        for bytes in [&**latest, &*replica_held.value] {
            assert!(std::ptr::eq(bytes, &*held.value));
        }
        // The superseded write keeps its own value, in its own envelope,
        // and the tx id that wrote it.
        let superseded = entries[0].value.as_deref().unwrap();
        assert!(superseded == b"v1" && within(&first, superseded));
        assert_ne!(entries[0].tx_id, entries[1].tx_id);
        assert_eq!(entries[1].tx_id, replica_held.tx_id);
    }

    // A replica restored from a snapshot's encoding holds values of its
    // own, and the same state.
    let snapshot = a.snapshot(4);
    snapshot.verify().unwrap();
    let decoded = Snapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    let restored = decoded.restore_state();
    assert_eq!(restored.state_hash(), a.state().state_hash());
    let owned = restored.get(&key).unwrap();
    assert!(!within(&second, &owned.value) && owned.value == held.value);
}

#[test]
fn later_tx_in_block_sees_earlier_writes() {
    let n = net();
    let mut c = committer(&n, EndorsementPolicy::any_of([MspId::new("org1")]));
    // tx1 writes k; tx2 reads k at the *new* version — this models a
    // client that simulated tx2 after tx1 committed. Inside one block
    // tx2's read version (1? no — block 0 tx 0) must match what tx1
    // wrote for tx2 to be valid.
    let e1 = envelope(&n, 1, write_set("k", b"v"), &[0]);
    let rw2 = RwSet {
        reads: vec![KvRead {
            key: StateKey::new("cc", "k"),
            version: Some(Version::new(0, 0)),
        }],
        writes: vec![KvWrite {
            key: StateKey::new("cc", "k2"),
            value: Some(b"w".as_slice().into()),
        }],
    };
    let e2 = envelope(&n, 2, rw2, &[0]);
    let out = c.commit_block(block_of(&c, vec![e1, e2])).unwrap();
    assert_eq!(out.events[0].code, ValidationCode::Valid);
    assert_eq!(out.events[1].code, ValidationCode::Valid);
}

#[test]
fn replay_reconstructs_identical_ledger() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut original = committer(&n, policy.clone());
    // Build a few blocks, including one MVCC conflict.
    let e1 = envelope(&n, 1, write_set("a", b"1"), &[0]);
    original
        .commit_block(block_of(&original, vec![e1]))
        .unwrap();
    let conflicting = RwSet {
        reads: vec![KvRead {
            key: StateKey::new("cc", "a"),
            version: None, // stale: "a" now exists
        }],
        writes: vec![KvWrite {
            key: StateKey::new("cc", "a"),
            value: Some(b"2".as_slice().into()),
        }],
    };
    let e2 = envelope(&n, 2, conflicting, &[0]);
    let e3 = envelope(&n, 3, write_set("b", b"3"), &[0]);
    original
        .commit_block(block_of(&original, vec![e2, e3]))
        .unwrap();

    // Persist and replay through a fresh committer.
    let mut buf = Vec::new();
    original.store().write_to(&mut buf).unwrap();
    let loaded = hyperprov_ledger::BlockStore::read_from(buf.as_slice()).unwrap();
    let rebuilt = Committer::replay(
        ChannelId::default(),
        n.msp.clone(),
        policy,
        None,
        loaded.iter().cloned(),
    )
    .unwrap();

    assert_eq!(rebuilt.height(), original.height());
    assert_eq!(rebuilt.store().tip_hash(), original.store().tip_hash());
    // Same validation decisions, including the MVCC invalidation.
    let codes: Vec<_> = rebuilt.store().block(1).unwrap().metadata.codes.clone();
    assert_eq!(
        codes,
        vec![ValidationCode::MvccReadConflict, ValidationCode::Valid]
    );
    // Same world state.
    assert_eq!(
        &*rebuilt
            .state()
            .get(&StateKey::new("cc", "a"))
            .unwrap()
            .value,
        b"1"
    );
    assert_eq!(
        &*rebuilt
            .state()
            .get(&StateKey::new("cc", "b"))
            .unwrap()
            .value,
        b"3"
    );
    assert_eq!(histories(&rebuilt), histories(&original));
}

/// A toy indexer for graph-maintenance tests: keys `rec~<item>` carry
/// a comma-separated parent list as their value.
#[derive(Debug)]
struct TestIndexer;

impl hyperprov_ledger::GraphIndexer for TestIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<hyperprov_ledger::GraphUpdate> {
        let item = key.key.strip_prefix("rec~")?.to_owned();
        Some(match value {
            Some(bytes) => hyperprov_ledger::GraphUpdate::Insert {
                key: item,
                parents: String::from_utf8_lossy(bytes)
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect(),
            },
            None => hyperprov_ledger::GraphUpdate::Remove { key: item },
        })
    }
}

#[test]
fn graph_index_maintained_on_commit_and_rebuilt_on_recover() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut c = committer(&n, policy).with_indexer(Arc::new(TestIndexer));

    let e1 = envelope(&n, 1, write_set("rec~a", b""), &[0]);
    let e2 = envelope(&n, 2, write_set("rec~b", b"a"), &[0]);
    let out = c.commit_block(block_of(&c, vec![e1, e2])).unwrap();
    assert_eq!(out.dangling_parents, 0);
    // c references a committed parent and a missing one.
    let e3 = envelope(&n, 3, write_set("rec~c", b"a,ghost"), &[0]);
    let out = c.commit_block(block_of(&c, vec![e3])).unwrap();
    assert_eq!(out.dangling_parents, 1);

    assert_eq!(c.graph().len(), 3);
    assert_eq!(c.graph().dangling(), 1);
    let t = c.graph().traverse(
        &[(0, "c".to_owned())],
        hyperprov_ledger::Direction::Ancestors,
        hyperprov_ledger::TraversalLimits {
            max_depth: 8,
            max_nodes: 64,
        },
        false,
    );
    let keys: Vec<&str> = t.entries.iter().map(|(_, k)| k.as_str()).collect();
    assert_eq!(keys, vec!["c", "a"]);
    assert_eq!(t.boundary, vec![(1, "ghost".to_owned())]);
    assert!(c.graph_consistent());

    // Crash recovery replays the block store and rebuilds an
    // identical index (same structure, same dangling count).
    let rebuilt = c.recover().unwrap();
    assert_eq!(rebuilt.graph().digest(), c.graph().digest());
    assert_eq!(rebuilt.graph().dangling(), 1);
    assert!(rebuilt.graph_consistent());
}

#[test]
fn graph_index_identical_on_split_commit_path() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut legacy = committer(&n, policy.clone()).with_indexer(Arc::new(TestIndexer));
    let mut split = committer(&n, policy).with_indexer(Arc::new(TestIndexer));

    let envs = vec![
        envelope(&n, 1, write_set("rec~a", b""), &[0]),
        envelope(&n, 2, write_set("rec~b", b"a,gone"), &[0]),
    ];
    let b_legacy = block_of(&legacy, envs.clone());
    let out_legacy = commit_block_reference(&mut legacy, b_legacy);
    let b_split = block_of(&split, envs);
    let verdicts = split.vscc_block(&b_split);
    let out_split = split.commit_block_prevalidated(b_split, verdicts).unwrap();

    assert_eq!(out_legacy.dangling_parents, 1);
    assert_eq!(out_split.dangling_parents, 1);
    assert_eq!(legacy.graph().digest(), split.graph().digest());
}

#[test]
fn snapshot_bootstrap_matches_full_replay() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut c = committer(&n, policy.clone()).with_indexer(Arc::new(TestIndexer));
    // A chain with provenance records, an MVCC conflict and (later) a
    // duplicate — everything a bootstrap must reproduce faithfully.
    for i in 0..6u64 {
        let env = envelope(
            &n,
            i + 1,
            write_set(&format!("rec~i{i}"), if i == 0 { b"" } else { b"i0" }),
            &[0],
        );
        c.commit_block(block_of(&c, vec![env])).unwrap();
    }
    let dup = envelope(&n, 1, write_set("rec~i0", b""), &[0]);

    // Snapshot at height 4, then two more blocks of deltas.
    let mut snapshot_at_4: Option<Snapshot> = None;
    let mut full = committer(&n, policy.clone()).with_indexer(Arc::new(TestIndexer));
    for block in c.store().iter().cloned() {
        full.commit_block({
            let mut b = block;
            b.metadata.codes.clear();
            b
        })
        .unwrap();
        if full.height() == 4 {
            snapshot_at_4 = Some(full.snapshot(3));
        }
    }
    full.commit_block(block_of(&full, vec![dup.clone()]))
        .unwrap();
    // Cut at height 4 and never read until now, three blocks later:
    // the seal still commits to the ledger as it stood at the cut.
    let snapshot = snapshot_at_4.unwrap();
    snapshot.verify().unwrap();
    assert_eq!(snapshot.manifest().height, 4);

    // Bootstrap: snapshot + delta blocks 4..7 (including one below
    // the horizon, which must be skipped).
    let deltas: Vec<Block> = full.store().iter().cloned().collect();
    let rebuilt = Committer::bootstrap_from_snapshot(
        ChannelId::default(),
        n.msp.clone(),
        policy.clone(),
        Some(Arc::new(TestIndexer)),
        &snapshot,
        deltas,
    )
    .unwrap();

    assert_eq!(rebuilt.height(), full.height());
    assert_eq!(rebuilt.store().tip_hash(), full.store().tip_hash());
    assert_eq!(rebuilt.store().base_height(), 4);
    assert_eq!(rebuilt.state().state_hash(), full.state().state_hash());
    assert_eq!(histories(&rebuilt), histories(&full));
    assert_eq!(rebuilt.graph().digest(), full.graph().digest());
    assert!(rebuilt.graph_consistent());
    // The duplicate stays a duplicate after bootstrap: `seen` came
    // back with the snapshot.
    let out = {
        let mut r = rebuilt;
        let b = Block::build(r.height(), r.store().tip_hash(), vec![dup.to_raw()]);
        r.commit_block(b).unwrap()
    };
    assert_eq!(out.events[0].code, ValidationCode::DuplicateTxId);
}

#[test]
fn bootstrap_rejects_bad_snapshots() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut c = committer(&n, policy.clone()).with_indexer(Arc::new(TestIndexer));
    let env = envelope(&n, 1, write_set("rec~a", b""), &[0]);
    c.commit_block(block_of(&c, vec![env])).unwrap();
    let good = c.snapshot(4);

    let boot = |snap: &Snapshot, channel: ChannelId| {
        Committer::bootstrap_from_snapshot(
            channel,
            n.msp.clone(),
            policy.clone(),
            Some(Arc::new(TestIndexer)),
            snap,
            std::iter::empty(),
        )
    };

    // A state entry tampered with after the seal.
    let mut bad = c.snapshot(4);
    bad.manifest();
    bad.chunks[0].entries[0].value = b"evil".as_slice().into();
    assert_eq!(
        boot(&bad, ChannelId::default()).unwrap_err(),
        BootstrapError::Snapshot(SnapshotError::PartDigestMismatch { index: 0 })
    );
    // A tail whose history a forger changed, re-sealed so that its part
    // digest and the root match: neither a transfer nor a boot takes it.
    let mut tail = good.tail().clone();
    tail.history[0].entries[0].value = Some(b"forged".as_slice().into());
    let last = good.part_count() - 1;
    let mut manifest = good.manifest().clone();
    manifest.part_digests[last] = tail.digest();
    manifest.merkle_root = hyperprov_ledger::MerkleTree::root_of(&manifest.part_digests);
    let mut parts: Vec<_> = (0..good.part_count()).map(|i| good.part(i)).collect();
    parts[last] = Some(hyperprov_ledger::SnapshotPart::Tail(tail.clone()));
    assert_eq!(
        Snapshot::assemble(manifest.clone(), parts).unwrap_err(),
        SnapshotError::HistoryMismatch
    );
    let mut enc = hyperprov_ledger::Encoder::new();
    manifest.encode(&mut enc);
    hyperprov_ledger::encode_seq(&good.chunks, &mut enc);
    tail.encode(&mut enc);
    let forged = Snapshot::from_bytes(&enc.into_bytes()).unwrap();
    assert_eq!(
        boot(&forged, ChannelId::default()).unwrap_err(),
        BootstrapError::Snapshot(SnapshotError::HistoryMismatch)
    );
    // Wrong channel.
    assert!(matches!(
        boot(&good, ChannelId::new("other")),
        Err(BootstrapError::WrongChannel { .. })
    ));
    // Forged graph digest (state consistent, commitment wrong).
    let mut forged = good.manifest().clone();
    forged.graph_digest = Digest::of(b"forged");
    let parts = (0..good.part_count()).map(|i| good.part(i)).collect();
    let forged = Snapshot::assemble(forged, parts).unwrap();
    assert!(matches!(
        boot(&forged, ChannelId::default()),
        Err(BootstrapError::GraphDigestMismatch)
    ));
    // A delta block that does not link.
    let orphan = Block::build(9, Digest::of(b"nowhere"), vec![]);
    assert!(matches!(
        Committer::bootstrap_from_snapshot(
            ChannelId::default(),
            n.msp.clone(),
            policy.clone(),
            Some(Arc::new(TestIndexer)),
            &good,
            vec![orphan],
        ),
        Err(BootstrapError::Chain(_))
    ));
    for e in [
        BootstrapError::Snapshot(SnapshotError::ZeroHeight),
        BootstrapError::WrongChannel {
            got: "a".into(),
            expected: "b".into(),
        },
        BootstrapError::GraphDigestMismatch,
        BootstrapError::Chain(ChainError::BrokenLink { at: 1 }),
    ] {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn bootstrap_error_eq_derives() {
    // PartialEq on BootstrapError is exercised via From impls too.
    assert_eq!(
        BootstrapError::from(SnapshotError::RootMismatch),
        BootstrapError::Snapshot(SnapshotError::RootMismatch)
    );
    assert_eq!(
        BootstrapError::from(ChainError::BrokenLink { at: 2 }),
        BootstrapError::Chain(ChainError::BrokenLink { at: 2 })
    );
}

#[test]
fn prevalidated_path_matches_reference_on_mixed_block() {
    let n = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut reference = committer(&n, policy.clone());
    let mut split = committer(&n, policy);

    // A mix: valid, forged signature, MVCC conflict pair, and (in a
    // second block) a duplicate of the first transaction.
    let e_valid = envelope(&n, 1, write_set("a", b"1"), &[0]);
    let mut e_forged = envelope(&n, 2, write_set("b", b"2"), &[0]);
    e_forged.endorsements[0].signature = Signature(Digest::of(b"forged"));
    let stale = |nonce: u64| RwSet {
        reads: vec![KvRead {
            key: StateKey::new("cc", "hot"),
            version: None,
        }],
        writes: vec![KvWrite {
            key: StateKey::new("cc", "hot"),
            value: Some(vec![nonce as u8].into()),
        }],
    };
    let e_win = envelope(&n, 3, stale(3), &[0]);
    let e_lose = envelope(&n, 4, stale(4), &[0]);
    let envs = [&e_valid, &e_forged, &e_win, &e_lose];
    let blocks = |c: &Committer| {
        Block::build(
            c.height(),
            c.store().tip_hash(),
            envs.iter().map(|e| e.to_raw()).collect::<Vec<_>>(),
        )
    };

    let b1_reference = blocks(&reference);
    let out_reference = commit_block_reference(&mut reference, b1_reference);
    let b1_split = blocks(&split);
    let verdicts = split.vscc_block(&b1_split);
    let out_split = split.commit_block_prevalidated(b1_split, verdicts).unwrap();

    let codes = |c: &Committer, h: u64| c.store().block(h).unwrap().metadata.codes.clone();
    assert_eq!(codes(&reference, 0), codes(&split, 0));
    assert_eq!(out_reference.valid, out_split.valid);
    assert_eq!(out_reference.bytes_written, out_split.bytes_written);
    assert_eq!(reference.state().state_hash(), split.state().state_hash());

    // Block 2: duplicate of e_valid. The split path runs signature
    // checks eagerly, but the serial phase still reports DuplicateTxId
    // just like the reference validator.
    let b2_reference = Block::build(
        reference.height(),
        reference.store().tip_hash(),
        vec![e_valid.to_raw()],
    );
    commit_block_reference(&mut reference, b2_reference);
    let b2_split = Block::build(
        split.height(),
        split.store().tip_hash(),
        vec![e_valid.to_raw()],
    );
    let verdicts = split.vscc_block(&b2_split);
    split.commit_block_prevalidated(b2_split, verdicts).unwrap();
    assert_eq!(codes(&reference, 1), codes(&split, 1));
    assert_eq!(codes(&split, 1), vec![ValidationCode::DuplicateTxId]);
    assert_eq!(reference.state().state_hash(), split.state().state_hash());
}

/// One seeded contention workload: a few hot keys, random read versions
/// (stale and fresh), endorser subsets that sometimes fail the any-of(org1)
/// policy, occasional forged signatures and duplicate transactions.
fn workload(net: &Net, seed: u64) -> Vec<Vec<Envelope>> {
    let mut rng = hyperprov_sim::DetRng::new(seed);
    let mut below = move |n: u64| rand::RngCore::next_u64(&mut rng) % n;
    let mut nonce = 0u64;
    let mut history: Vec<Envelope> = Vec::new();
    let mut blocks = Vec::new();
    for _ in 0..3 + below(3) {
        let mut envs = Vec::new();
        for _ in 0..3 + below(4) {
            if below(100) < 15 && !history.is_empty() {
                // Duplicate of an earlier transaction (same tx id).
                envs.push(history[below(history.len() as u64) as usize].clone());
                continue;
            }
            nonce += 1;
            let hot = StateKey::new("cc", format!("k{}", below(3)));
            let version = match below(4) {
                0 => None,
                _ => Some(Version::new(below(4), below(5) as u32)),
            };
            let value = Some(nonce.to_le_bytes().as_slice().into());
            let rwset = if below(100) < 70 {
                // Contention: read a hot key at a possibly-stale version
                // and write it back.
                RwSet {
                    reads: vec![KvRead {
                        key: hot.clone(),
                        version,
                    }],
                    writes: vec![KvWrite { key: hot, value }],
                }
            } else {
                // Blind write of a fresh graph record whose parent may or
                // may not exist: valid whenever the signatures and policy
                // hold.
                let parent = below(nonce + 2).to_string();
                write_set(&format!("rec~{nonce}"), parent.as_bytes())
            };
            // [1] alone fails the any-of(org1) policy; the rest satisfy
            // it.
            let endorsers: &[usize] = match below(4) {
                0 => &[0],
                1 => &[1],
                2 => &[0, 1],
                _ => &[0, 1, 2],
            };
            let mut env = envelope(net, nonce, rwset, endorsers);
            if below(100) < 10 {
                let slot = below(env.endorsements.len() as u64) as usize;
                env.endorsements[slot].signature = Signature(Digest::of(&nonce.to_le_bytes()));
            }
            if below(3) == 0 {
                // No signature covers the event.
                env.event = Some(("put".to_owned(), nonce.to_le_bytes().to_vec()).into());
            }
            history.push(env.clone());
            envs.push(env);
        }
        blocks.push(envs);
    }
    blocks
}

fn org1_committer(net: &Net) -> Committer {
    committer(net, EndorsementPolicy::any_of([MspId::new("org1")]))
        .with_indexer(Arc::new(TestIndexer))
}

/// Everything a commit leaves behind in a ledger.
fn fingerprint(c: &Committer) -> impl PartialEq + std::fmt::Debug {
    let codes: Vec<_> = c.store().iter().map(|b| b.metadata.codes.clone()).collect();
    let tip = c.store().tip_hash();
    (
        c.state().state_hash(),
        tip,
        codes,
        histories(c),
        c.graph().digest(),
    )
}

/// Commits one seeded workload through the reference loop and through
/// the production path (inline, and split into its two phases), asserting
/// all three agree on every observable outcome. Answers the codes seen.
fn assert_equivalent(seed: u64) -> HashSet<ValidationCode> {
    let net = net();
    let mut codes = HashSet::new();
    let mut reference = org1_committer(&net);
    let mut others: [Committer; 2] = std::array::from_fn(|_| org1_committer(&net));
    for envs in workload(&net, seed) {
        let block = block_of(&reference, envs.clone());
        let expected = commit_block_reference(&mut reference, block);
        codes.extend(expected.events.iter().map(|e| e.code));
        let height = reference.height() - 1;
        for (i, c) in others.iter_mut().enumerate() {
            let block = block_of(c, envs.clone());
            let out = if i == 0 {
                c.commit_block(block)
            } else {
                let verdicts = c.vscc_block(&block);
                c.commit_block_prevalidated(block, verdicts)
            }
            .unwrap();
            let at = format!("seed {seed} block {height} path {i}");
            // Same event per transaction, hence the same codes and the
            // same MVCC-conflict set.
            assert_eq!(out.events, expected.events, "{at}");
            assert_eq!(
                c.store().block(height).unwrap().metadata.codes,
                reference.store().block(height).unwrap().metadata.codes,
                "{at}"
            );
            assert_eq!((out.valid, out.invalid), (expected.valid, expected.invalid));
            assert_eq!(out.bytes_written, expected.bytes_written, "{at}");
            assert_eq!(out.dangling_parents, expected.dangling_parents, "{at}");
            assert_eq!(fingerprint(c), fingerprint(&reference), "{at}");
        }
    }
    codes
}

#[test]
fn commit_path_matches_reference_on_seeded_contention() {
    let mut seen = HashSet::new();
    for seed in 0..12 {
        seen.extend(assert_equivalent(seed));
    }
    // Meta-check: across the fixed seeds the generator actually produces
    // the interesting mix — otherwise the equivalence is vacuous.
    for code in [
        ValidationCode::Valid,
        ValidationCode::MvccReadConflict,
        ValidationCode::BadSignature,
        ValidationCode::EndorsementPolicyFailure,
        ValidationCode::DuplicateTxId,
    ] {
        assert!(seen.contains(&code), "generator never produced {code:?}");
    }
}

/// The stateless phase as it was over owned envelopes: decode, re-encode
/// the proposal for its id and the signed message for the signatures.
/// Answers what a [`VsccVerdict`] holds, field for field.
fn vscc_reference(
    c: &Committer,
    raw: &RawEnvelope,
) -> (Option<Envelope>, TxId, Option<ValidationCode>, u32) {
    let Ok(env) = Envelope::from_raw(raw) else {
        let failure = Some(ValidationCode::BadSignature);
        return (None, raw.tx_id, failure, 0);
    };
    let tx_id = env.tx_id();
    let msg = endorsement_message(&tx_id, &env.payload, &env.rwset);
    let (mut signatures, mut failure) = (0, None);
    let mut orgs = Vec::new();
    for e in &env.endorsements {
        signatures += 1;
        if !c.msp.verify(&e.endorser, &msg, &e.signature) {
            failure = Some(ValidationCode::BadSignature);
            break;
        }
        orgs.push(&e.endorser.org);
    }
    if failure.is_none() && !c.policy.is_satisfied_by(orgs) {
        failure = Some(ValidationCode::EndorsementPolicyFailure);
    }
    (Some(env), tx_id, failure, signatures)
}

/// Damages an envelope one of the ways a faulty orderer, a bad disk or an
/// attacker could; `donor` is another envelope of the same run.
fn damage(raw: &mut RawEnvelope, donor: &RawEnvelope, below: &mut impl FnMut(u64) -> u64) {
    let mut bytes = raw.bytes.to_vec();
    let len = bytes.len();
    match below(6) {
        0 => bytes[below(len as u64) as usize] ^= 1 << below(8),
        1 => bytes.truncate(below(len as u64) as usize),
        2 => bytes.push(below(256) as u8),
        // The channel name's length prefix, padded to two bytes.
        3 => drop(bytes.splice(0..1, [bytes[0] | 0x80, 0x00])),
        4 => raw.tx_id = TxId(Digest::of(&bytes)),
        // An envelope ends with its last endorsement's signature: splice
        // in the donor's.
        _ => bytes[len - 32..].copy_from_slice(&donor.bytes[donor.bytes.len() - 32..]),
    }
    raw.bytes = bytes.into();
}

/// Commits one seeded workload, about half of its envelopes damaged,
/// through the reference loop over owned envelopes and through the
/// production path over views: every verdict, event and ledger agrees,
/// and nothing panics. Answers
/// `(envelopes that still decoded, envelopes that did not)` among the
/// damaged ones, and the codes seen.
fn assert_views_agree(seed: u64) -> (u32, u32, HashSet<ValidationCode>) {
    let net = net();
    let mut rng = hyperprov_sim::DetRng::new(seed ^ 0xD1FF);
    let mut below = move |n: u64| rand::RngCore::next_u64(&mut rng) % n;
    let mut reference = org1_committer(&net);
    let mut view = org1_committer(&net);
    let (mut decoded, mut rejected, mut codes) = (0, 0, HashSet::new());
    let mut donor = envelope(&net, u64::MAX, write_set("donor", b""), &[2]).to_raw();
    for envs in workload(&net, seed) {
        let mut raws: Vec<RawEnvelope> = envs.iter().map(Envelope::to_raw).collect();
        for raw in &mut raws {
            let pristine = raw.clone();
            if below(2) == 0 {
                damage(raw, &donor, &mut below);
                match EnvelopeView::parse(&raw.bytes) {
                    Ok(_) => decoded += 1,
                    Err(_) => rejected += 1,
                }
            }
            donor = pristine;
        }
        let block = Block::build(reference.height(), reference.store().tip_hash(), raws);
        let at = format!("seed {seed} block {}", block.header.number);

        // The stateless phase, envelope by envelope.
        let verdicts = view.vscc_block(&block);
        for (i, raw) in block.envelopes.iter().enumerate() {
            let (env, tx_id, failure, signatures) = vscc_reference(&reference, raw);
            let v = &verdicts[i];
            assert_eq!((v.tx_id, v.failure), (tx_id, failure), "{at} tx {i}");
            assert_eq!(v.signatures, signatures, "{at} tx {i}");
            assert_eq!(v.spans.is_some(), env.is_some(), "{at} tx {i}");
            if let (Some(spans), Some(env)) = (verdicts[i].spans, env) {
                assert_eq!(
                    env.to_bytes(),
                    *raw.bytes,
                    "{at} tx {i}: decoding is canonical"
                );
                assert_eq!(spans.creator, env.proposal.creator.id);
                assert_eq!(
                    spans.endorser,
                    env.endorsements.first().map(|e| e.endorser.id)
                );
                assert_eq!(spans.writes, env.rwset.writes.len() as u64);
                assert_eq!(spans.write_bytes, write_bytes(&env.rwset));
            }
        }

        // The serial phase and what it leaves behind.
        let expected = commit_block_reference(&mut reference, block.clone());
        codes.extend(expected.events.iter().map(|e| e.code));
        let out = view.commit_block_prevalidated(block, verdicts).unwrap();
        assert_eq!(out.events, expected.events, "{at}");
        assert_eq!((out.valid, out.invalid), (expected.valid, expected.invalid));
        assert_eq!(out.bytes_written, expected.bytes_written, "{at}");
        assert_eq!(out.dangling_parents, expected.dangling_parents, "{at}");
        assert_eq!(fingerprint(&view), fingerprint(&reference), "{at}");
    }
    (decoded, rejected, codes)
}

#[test]
fn view_path_matches_owned_reference_on_damaged_blocks() {
    let (mut decoded, mut rejected, mut codes) = (0, 0, HashSet::new());
    for seed in 0..64 {
        let (d, r, c) = assert_views_agree(seed);
        decoded += d;
        rejected += r;
        codes.extend(c);
    }
    // Meta-check: damage lands on both sides of the decoder, and damaged
    // runs still produce every code.
    assert!(decoded > 50 && rejected > 50, "{decoded} / {rejected}");
    assert_eq!(codes.len(), 5, "{codes:?}");
}

proptest::proptest! {
    #[test]
    fn commit_path_matches_reference_on_any_seed(seed in proptest::prelude::any::<u64>()) {
        assert_equivalent(seed);
        assert_views_agree(seed);
    }
}

/// One random transaction over four graph records: a write (of a parent
/// list, so the graph has edges), a deletion, a read at a version no block
/// wrote (MVCC-invalid), a forged signature, or bytes that are no envelope.
fn mixed_tx(net: &Net, nonce: u64, below: &mut impl FnMut(u64) -> u64) -> RawEnvelope {
    let key = StateKey::new("cc", format!("rec~{}", below(4)));
    let value = Some(below(4).to_string().into_bytes().into());
    let mut rwset = RwSet {
        reads: vec![],
        writes: vec![KvWrite {
            key: key.clone(),
            value,
        }],
    };
    let kind = below(6);
    match kind {
        0 => rwset.writes[0].value = None,
        1 => rwset.reads.push(KvRead {
            key,
            version: Some(Version::new(u64::MAX, 0)),
        }),
        2 => {
            return RawEnvelope {
                tx_id: TxId(Digest::of(&nonce.to_le_bytes())),
                bytes: vec![0xFF, 0x00].into(),
            }
        }
        _ => {}
    }
    let mut env = envelope(net, nonce, rwset, &[0]);
    if kind == 3 {
        env.endorsements[0].signature = Signature(Digest::of(b"forged"));
    }
    env.to_raw()
}

/// A cut deferred to a later read is the cut made then. Blocks of
/// [`mixed_tx`]s, with a duplicate of an earlier transaction on each side
/// of a random cut height — the one above repeats a transaction from
/// below, whose id the tx-id set at the cut holds. [`Committer::snapshot`]
/// at the cut and [`Committer::snapshot_at`] once more blocks committed
/// give the same manifest and the same bytes for every part. Answers the
/// codes the blocks above the cut got.
fn assert_deferred_cut_equals_eager(seed: u64) -> HashSet<ValidationCode> {
    let net = net();
    let mut rng = hyperprov_sim::DetRng::new(seed ^ 0xC07);
    let mut below = move |n: u64| rand::RngCore::next_u64(&mut rng) % n;
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut c = committer(&net, policy).with_indexer(Arc::new(TestIndexer));
    let (cut, after) = (2 + below(4), 1 + below(4));
    let mut parsed = vec![envelope(&net, 0, write_set("rec~0", b""), &[0]).to_raw()];
    let (mut raws, mut eager, mut codes) = (parsed.clone(), None, HashSet::new());
    for (number, nonce) in (0..cut + after).zip((1..).step_by(8)) {
        if number == cut {
            eager = Some((c.snapshot(2), c.store().tip_hash()));
        }
        raws.extend((0..1 + below(4)).map(|i| mixed_tx(&net, nonce + i, &mut below)));
        if number + 1 == cut || number == cut {
            raws.push(parsed[below(parsed.len() as u64) as usize].clone());
        }
        parsed.extend(
            raws.iter()
                .filter(|raw| EnvelopeView::parse(&raw.bytes).is_ok())
                .cloned(),
        );
        let block = Block::build(number, c.store().tip_hash(), std::mem::take(&mut raws));
        let out = c.commit_block(block).unwrap();
        if number >= cut {
            codes.extend(out.events.iter().map(|e| e.code));
        }
    }
    let (eager, tip) = eager.expect("cut below the tip");
    let deferred = c.snapshot_at(cut, tip, 2);
    assert_eq!(deferred.manifest(), eager.manifest(), "seed {seed}");
    assert_eq!(deferred.part_count(), eager.part_count(), "seed {seed}");
    for i in 0..eager.part_count() {
        let bytes = |s: &Snapshot| s.part(i).map(|part| part.to_bytes());
        assert_eq!(bytes(&deferred), bytes(&eager), "seed {seed} part {i}");
    }
    codes
}

#[test]
fn a_deferred_cut_equals_the_eager_one_on_seeded_chains() {
    let mut codes = HashSet::new();
    for seed in 0..32 {
        codes.extend(assert_deferred_cut_equals_eager(seed));
    }
    // Meta-check: above the cut there are duplicates, and each code the
    // generator makes.
    let made = [
        ValidationCode::Valid,
        ValidationCode::MvccReadConflict,
        ValidationCode::BadSignature,
        ValidationCode::DuplicateTxId,
    ];
    assert_eq!(codes, HashSet::from(made));
}

proptest::proptest! {
    #[test]
    fn a_deferred_cut_equals_the_eager_one(seed in proptest::prelude::any::<u64>()) {
        assert_deferred_cut_equals_eager(seed);
    }
}
