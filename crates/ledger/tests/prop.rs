//! Property-based tests of the ledger substrate: canonical codec
//! round-trips, shared strings against plain ones, Merkle proofs, MVCC
//! coherence, hash-chain integrity and the state store against a
//! reference with a history index of its own, under arbitrary inputs.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hyperprov_ledger::{
    Block, BlockHeader, BlockMetadata, BlockStore, ChannelId, Decode, Decoder, Digest, Encode,
    Encoder, GraphIndexer, GraphUpdate, HistoryEntry, HistoryRecord, KvRead, KvWrite, MerkleTree,
    RawEnvelope, RwSet, Sha256, Shared, SharedBytes, SharedStr, Snapshot, SnapshotChunk,
    SnapshotEntry, SnapshotPart, SnapshotTail, StateDb, StateKey, TxId, ValidationCode, Version,
    VersionedValue,
};
use proptest::prelude::*;

/// Every key is a graph node whose one parent is named by the first byte
/// of its value, so the graph digest depends on values as well as keys.
#[derive(Debug)]
struct FirstByteIndexer;

impl GraphIndexer for FirstByteIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate> {
        let key = key.key.to_string();
        Some(match value {
            Some(value) => GraphUpdate::Insert {
                key,
                parents: value.first().map(|b| format!("p{b}")).into_iter().collect(),
            },
            None => GraphUpdate::Remove { key },
        })
    }
}

/// Applies one transaction's writes, as a commit does.
fn commit(state: &mut StateDb, n: u64, writes: &[KvWrite]) -> TxId {
    let tx = TxId(Digest::of(&n.to_le_bytes()));
    let version = Version::new(n, 0);
    for write in writes {
        state.apply_tx(tx, version, write);
    }
    tx
}

/// Every key's history, in key order.
fn histories(state: &StateDb) -> Vec<(StateKey, Vec<HistoryEntry>)> {
    let history = state.history();
    history
        .iter()
        .map(|(key, writes)| (key.clone(), writes.to_vec()))
        .collect()
}

/// The store as it was kept before a key's history moved into its state
/// entry: an ordered map of live entries, and beside it a list of every
/// write per key.
#[derive(Debug, Default)]
struct Reference {
    state: BTreeMap<StateKey, VersionedValue>,
    history: BTreeMap<StateKey, Vec<HistoryEntry>>,
}

impl Reference {
    fn apply(&mut self, tx_id: TxId, version: Version, write: &KvWrite) {
        match &write.value {
            Some(value) => {
                let live = VersionedValue {
                    value: value.clone(),
                    version,
                    tx_id,
                };
                self.state.insert(write.key.clone(), live);
            }
            None => {
                self.state.remove(&write.key);
            }
        }
        let entry = HistoryEntry {
            tx_id,
            version,
            value: write.value.clone(),
        };
        self.history
            .entry(write.key.clone())
            .or_default()
            .push(entry);
    }

    fn entries(&self) -> Vec<(StateKey, VersionedValue)> {
        let pairs = self.state.iter();
        pairs.map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// The state hash, computed as its definition reads: length-prefixed
    /// namespace, key and value, then the version, for every entry in key
    /// order.
    fn state_hash(&self) -> Digest {
        let mut hasher = Sha256::new();
        for (key, live) in &self.state {
            for part in [key.namespace.as_bytes(), key.key.as_bytes(), &live.value] {
                hasher.update(&(part.len() as u64).to_be_bytes());
                hasher.update(part);
            }
            hasher.update(&live.version.block_num.to_be_bytes());
            hasher.update(&live.version.tx_num.to_be_bytes());
        }
        hasher.finalize()
    }

    /// The Merkle root a snapshot of this store commits to: its state in
    /// chunks of `per_chunk` entries, then the tail of every key's
    /// history and the sorted tx ids.
    fn snapshot_root(&self, per_chunk: usize, mut seen: Vec<TxId>) -> Digest {
        let entries: Vec<SnapshotEntry> = self
            .state
            .iter()
            .map(|(key, live)| SnapshotEntry {
                key: key.clone(),
                value: live.value.clone(),
                version: live.version,
            })
            .collect();
        let mut parts: Vec<Digest> = entries
            .chunks(per_chunk)
            .map(|chunk| {
                let entries = chunk.to_vec();
                SnapshotChunk { entries }.digest()
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let history = self
            .history
            .iter()
            .map(|(key, entries)| HistoryRecord {
                key: key.clone(),
                entries: entries.clone(),
            })
            .collect();
        parts.push(SnapshotTail { history, seen }.digest());
        MerkleTree::root_of(&parts)
    }
}

/// One step of a store's life: key `key` of a small key space written
/// (`Some`) or deleted (`None`), in a new transaction or the current one.
fn arb_step() -> impl Strategy<Value = (usize, Option<Vec<u8>>, bool)> {
    (
        0..KEY_SPACE.len(),
        0u8..10,
        proptest::collection::vec(any::<u8>(), 0..6),
        any::<bool>(),
    )
        // Seven writes in ten, three deletes.
        .prop_map(|(key, dice, value, new_tx)| (key, (dice < 7).then_some(value), new_tx))
}

/// Keys that are prefixes of each other, in two namespaces.
const KEY_SPACE: [(&str, &str); 6] = [
    ("a", "k"),
    ("a", "k1"),
    ("a", "k10"),
    ("a", "k2"),
    ("b", "k1"),
    ("b", "x"),
];

/// One small change to an encoding: a byte replaced, a byte padded as a
/// two-byte varint would be (`x` → `x|0x80, 0x00`), a cut, or a byte more.
fn damaged(mut bytes: Vec<u8>, at: u16, kind: u8, byte: u8) -> Vec<u8> {
    let at = at as usize % bytes.len();
    match kind {
        0 => bytes[at] = byte,
        1 => drop(bytes.splice(at..=at, [bytes[at] | 0x80, 0x00])),
        2 => bytes.truncate(at),
        _ => bytes.push(byte),
    }
    bytes
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest::from)
}

fn arb_state_key() -> impl Strategy<Value = StateKey> {
    ("[a-z]{1,8}", ".{0,24}").prop_map(|(ns, key)| StateKey::new(ns, key))
}

fn arb_version() -> impl Strategy<Value = Version> {
    (0u64..1_000_000, 0u32..10_000).prop_map(|(b, t)| Version::new(b, t))
}

fn arb_write() -> impl Strategy<Value = KvWrite> {
    (
        arb_state_key(),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
    )
        .prop_map(|(key, value)| KvWrite {
            key,
            value: value.map(Into::into),
        })
}

fn arb_read() -> impl Strategy<Value = KvRead> {
    (arb_state_key(), proptest::option::of(arb_version()))
        .prop_map(|(key, version)| KvRead { key, version })
}

fn arb_rwset() -> impl Strategy<Value = RwSet> {
    (
        proptest::collection::vec(arb_read(), 0..8),
        proptest::collection::vec(arb_write(), 0..8),
    )
        .prop_map(|(reads, writes)| RwSet { reads, writes })
}

/// `part` decoded in place out of a buffer of random bytes around its
/// encoding: a range of that buffer, not a copy.
fn shared_in<T: ?Sized>(around: &(Vec<u8>, Vec<u8>), part: &[u8]) -> Shared<T>
where
    Shared<T>: Decode,
{
    let mut enc = Encoder::new();
    enc.put_bytes(part);
    let (prefix, suffix) = around;
    let buf: Arc<[u8]> = [&prefix[..], &enc.into_bytes(), suffix].concat().into();
    let shared = Shared::<T>::decode(&mut Decoder::sharing(&buf, prefix.len())).unwrap();
    let end = buf.len() - suffix.len();
    assert!(std::ptr::eq(shared.as_bytes(), &buf[end - part.len()..end]));
    shared
}

fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #[test]
    fn a_shared_string_compares_hashes_and_encodes_as_its_plain_string(
        around in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..16), proptest::collection::vec(any::<u8>(), 0..16)),
            4,
        ),
        // Small alphabets, so that equal and prefix pairs are common.
        texts in proptest::collection::vec("[ab\u{e9}]{0,4}", 2),
        bytes in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..4), 2),
    ) {
        let strs: Vec<SharedStr> = (0..2).map(|i| shared_in(&around[i], texts[i].as_bytes())).collect();
        let raws: Vec<SharedBytes> = (0..2).map(|i| shared_in(&around[2 + i], &bytes[i])).collect();
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            prop_assert_eq!(strs[i].cmp(&strs[j]), texts[i].cmp(&texts[j]));
            prop_assert_eq!(strs[i] == strs[j], texts[i] == texts[j]);
            prop_assert_eq!(raws[i].cmp(&raws[j]), bytes[i].cmp(&bytes[j]));
            prop_assert_eq!(raws[i] == raws[j], bytes[i] == bytes[j]);
            // Keys order in a B-tree as the string pairs they stand for.
            let (a, b) = (StateKey::new("cc", strs[i].clone()), StateKey::new("cc", strs[j].clone()));
            prop_assert_eq!(a.cmp(&b), ("cc", &texts[i]).cmp(&("cc", &texts[j])));
        }
        for i in 0..2 {
            prop_assert_eq!(&*strs[i], texts[i].as_str());
            prop_assert_eq!(&*raws[i], bytes[i].as_slice());
            prop_assert_eq!(hash_of(&strs[i]), hash_of(texts[i].as_str()));
            prop_assert_eq!(hash_of(&raws[i]), hash_of(bytes[i].as_slice()));
            prop_assert_eq!(strs[i].to_bytes(), texts[i].to_bytes());
            prop_assert_eq!(raws[i].to_bytes(), bytes[i].to_bytes());
            prop_assert_eq!(format!("{:?}", strs[i]), format!("{:?}", texts[i]));
            prop_assert_eq!(format!("{:?}", raws[i]), format!("{:?}", bytes[i]));
            // An owned one is the same string.
            let owned = SharedStr::from(texts[i].as_str());
            prop_assert!(owned == strs[i] && hash_of(&owned) == hash_of(&strs[i]));
            prop_assert_eq!(&SharedBytes::from(bytes[i].clone()), &raws[i]);
        }
    }

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(v);
        let bytes = enc.into_bytes();
        let mut dec = hyperprov_ledger::Decoder::new(&bytes);
        prop_assert_eq!(dec.get_varint().unwrap(), v);
        dec.finish().unwrap();
    }

    #[test]
    fn string_round_trips(s in ".{0,100}") {
        let owned = s.to_owned();
        let bytes = owned.to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), owned);
    }

    #[test]
    fn rwset_round_trips(rw in arb_rwset()) {
        let bytes = rw.to_bytes();
        prop_assert_eq!(&RwSet::from_bytes(&bytes).unwrap(), &rw);
        // Decoded in place, as a committer decodes an envelope's writes.
        let shared: Arc<[u8]> = bytes.into();
        prop_assert_eq!(RwSet::decode(&mut Decoder::sharing(&shared, 0)).unwrap(), rw);
    }

    #[test]
    fn rwset_encoding_is_injective_on_samples(a in arb_rwset(), b in arb_rwset()) {
        // Canonical encoding: equal bytes iff equal values.
        prop_assert_eq!(a.to_bytes() == b.to_bytes(), a == b);
    }

    #[test]
    fn digest_hex_round_trips(d in arb_digest()) {
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn decoding_random_junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = RwSet::from_bytes(&junk);
        let _ = Block::from_bytes(&junk);
        let _ = String::from_bytes(&junk);
        let _ = Vec::<String>::from_bytes(&junk);
    }

    #[test]
    fn merkle_proofs_verify_for_every_leaf(
        seeds in proptest::collection::vec(any::<u64>(), 1..40)
    ) {
        let leaves: Vec<Digest> = seeds.iter().map(|s| Digest::of(&s.to_le_bytes())).collect();
        let tree = MerkleTree::build(leaves.clone());
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(&root, leaf));
        }
        prop_assert_eq!(MerkleTree::root_of(&leaves), root);
    }

    #[test]
    fn merkle_proof_rejects_wrong_leaf(
        seeds in proptest::collection::vec(any::<u64>(), 2..20),
        wrong in any::<u64>(),
    ) {
        let leaves: Vec<Digest> = seeds.iter().map(|s| Digest::of(&s.to_le_bytes())).collect();
        let tree = MerkleTree::build(leaves.clone());
        let proof = tree.prove(0).unwrap();
        let fake = Digest::of(&wrong.to_le_bytes());
        prop_assume!(fake != leaves[0]);
        prop_assert!(!proof.verify(&tree.root(), &fake));
    }

    #[test]
    fn statedb_reads_after_writes_validate(writes in proptest::collection::vec(arb_write(), 1..20)) {
        let mut db = StateDb::new();
        commit(&mut db, 1, &writes);
        // Reads at the observed versions always validate.
        let reads: Vec<KvRead> = writes
            .iter()
            .map(|w| KvRead {
                key: w.key.clone(),
                version: db.version(&w.key),
            })
            .collect();
        prop_assert!(db.validate_reads(&reads));
        // After any key is overwritten at a later version, its read fails.
        if let Some(w) = writes.first() {
            db.apply_write(
                &KvWrite { key: w.key.clone(), value: Some(vec![1].into()) },
                Version::new(2, 0),
            );
            let stale = KvRead { key: w.key.clone(), version: reads[0].version };
            if reads[0].version != db.version(&w.key) {
                prop_assert!(!db.validate_reads(std::slice::from_ref(&stale)));
            }
        }
    }

    #[test]
    fn snapshot_capture_restore_round_trips(
        writes in proptest::collection::vec(arb_write(), 1..20),
        chunk_entries in 1usize..8,
    ) {
        let mut state = StateDb::new();
        let tx = commit(&mut state, 1, &writes);

        let snapshot = Snapshot::capture(
            &ChannelId::new("ch"),
            1,
            Digest::of(b"tip"),
            &state,
            vec![tx],
            None,
            chunk_entries,
        );
        prop_assert!(snapshot.verify().is_ok());
        let restored = snapshot.restore_state();
        prop_assert_eq!(restored.state_hash(), state.state_hash());
        prop_assert_eq!(restored.len(), state.len());
        prop_assert_eq!(histories(&restored), histories(&state));
    }

    #[test]
    fn blockstore_chain_always_verifies(
        tx_counts in proptest::collection::vec(0usize..5, 1..10)
    ) {
        let mut store = BlockStore::new();
        let mut n = 0u64;
        for (height, &count) in tx_counts.iter().enumerate() {
            let envelopes: Vec<RawEnvelope> = (0..count)
                .map(|i| {
                    n += 1;
                    RawEnvelope {
                        tx_id: TxId(Digest::of(&n.to_le_bytes())),
                        bytes: vec![i as u8; 10].into(),
                    }
                })
                .collect();
            let block = Block::build(height as u64, store.tip_hash(), envelopes);
            store.append(block).unwrap();
        }
        prop_assert!(store.verify_chain().is_ok());
        prop_assert_eq!(store.tx_count(), n);
    }

    #[test]
    fn validation_codes_stable(code in 0u8..6) {
        let vc = ValidationCode::from_u8(code).unwrap();
        prop_assert_eq!(vc.as_u8(), code);
    }

    #[test]
    fn block_round_trips(
        n in 0usize..6,
        codes in proptest::collection::vec(0u8..6, 0..6)
    ) {
        let envelopes: Vec<RawEnvelope> = (0..n)
            .map(|i| RawEnvelope {
                tx_id: TxId(Digest::of(&[i as u8])),
                bytes: vec![i as u8; i + 1].into(),
            })
            .collect();
        let mut block = Block::build(3, Digest::of(b"prev"), envelopes);
        block.metadata.codes = codes
            .iter()
            .map(|&c| ValidationCode::from_u8(c).unwrap())
            .collect();
        let bytes = block.to_bytes();
        prop_assert_eq!(Block::from_bytes(&bytes).unwrap(), block);
    }

    // Decoding is canonical: bytes that decode at all are the encoding of
    // what they decode to, so a hash over received bytes is a hash over the
    // value (a padded varint — `80 00` for 0 — used to decode too).
    #[test]
    fn a_damaged_block_that_decodes_re_encodes_to_itself(
        body_lens in proptest::collection::vec(0usize..200, 0..5),
        codes in proptest::collection::vec(0u8..6, 0..5),
        at in any::<u16>(),
        kind in 0u8..4,
        byte in any::<u8>(),
    ) {
        let envelopes: Vec<RawEnvelope> = body_lens
            .iter()
            .map(|&len| RawEnvelope {
                tx_id: TxId(Digest::of(&[len as u8])),
                bytes: vec![len as u8; len].into(),
            })
            .collect();
        let mut block = Block::build(3, Digest::of(b"prev"), envelopes);
        block.metadata.codes = codes
            .iter()
            .map(|&c| ValidationCode::from_u8(c).unwrap())
            .collect();
        let bytes = damaged(block.to_bytes(), at, kind, byte);
        if let Ok(decoded) = Block::from_bytes(&bytes) {
            prop_assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn a_damaged_rwset_that_decodes_re_encodes_to_itself(
        rw in arb_rwset(),
        at in any::<u16>(),
        kind in 0u8..4,
        byte in any::<u8>(),
    ) {
        let bytes = damaged(rw.to_bytes(), at, kind, byte);
        if let Ok(decoded) = RwSet::from_bytes(&bytes) {
            prop_assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    // Virtual network and CPU time are charged from `wire_size()`, which
    // adds the length up instead of encoding the block.
    #[test]
    fn block_wire_size_is_the_encoded_length(
        number in any::<u64>(),
        body_lens in proptest::collection::vec(0usize..4097, 0..201),
        codes in proptest::collection::vec(0u8..6, 0..201)
    ) {
        let envelopes: Vec<RawEnvelope> = body_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| RawEnvelope {
                tx_id: TxId(Digest::of(&i.to_le_bytes())),
                bytes: vec![i as u8; len].into(),
            })
            .collect();
        let block = Block {
            header: BlockHeader {
                number,
                prev_hash: Digest::of(b"prev"),
                data_hash: Digest::of(b"data"),
            },
            envelopes: envelopes.into(),
            metadata: BlockMetadata {
                codes: codes
                    .iter()
                    .map(|&c| ValidationCode::from_u8(c).unwrap())
                    .collect(),
            },
        };
        prop_assert_eq!(block.wire_size(), block.to_bytes().len() as u64);
    }

    // The same for snapshots: transfer cost and link time are charged from
    // the sizes of the parts, which are added up, not encoded.
    #[test]
    fn snapshot_wire_sizes_are_the_encoded_lengths(
        value_lens in proptest::collection::vec(0usize..4097, 0..301),
        rewrites in 0u64..4,
        with_seen in any::<bool>(),
        chunk_entries in 1usize..301,
    ) {
        let mut state = StateDb::new();
        let mut seen = Vec::new();
        // Version 1 writes every key, each later one rewrites every other
        // key and deletes every fifth, so histories of one to four entries
        // (deletions among them) sit beside live and deleted keys.
        for version in 1..=1 + rewrites {
            let writes: Vec<KvWrite> = value_lens
                .iter()
                .enumerate()
                .filter(|(i, _)| version == 1 || i % 2 == 0)
                .map(|(i, &len)| KvWrite {
                    key: StateKey::new("cc", format!("k{i:03}")),
                    value: (version == 1 || i % 5 != 0).then(|| vec![version as u8; len].into()),
                })
                .collect();
            seen.push(commit(&mut state, version, &writes));
        }
        if !with_seen {
            seen.clear();
        }
        let snapshot = Snapshot::capture(
            &ChannelId::new("ch"),
            2 + rewrites,
            Digest::of(b"tip"),
            &state,
            seen,
            None,
            chunk_entries,
        );
        for index in 0..snapshot.part_count() {
            let part = snapshot.part(index).unwrap();
            let encoded = match &part {
                SnapshotPart::State(chunk) => chunk.to_bytes(),
                SnapshotPart::Tail(tail) => tail.to_bytes(),
            };
            prop_assert_eq!(part.wire_size(), encoded.len() as u64);
        }
        let manifest = snapshot.manifest();
        prop_assert_eq!(manifest.wire_size(), manifest.to_bytes().len() as u64);
        prop_assert_eq!(snapshot.wire_size(), snapshot.to_bytes().len() as u64);
    }

    // Frozen means frozen, lazy equals eager: a cut sealed only after the
    // ledger has moved on commits to the ledger as it stood at the cut.
    #[test]
    fn a_cut_sealed_late_equals_a_cut_sealed_at_once(
        writes in proptest::collection::vec(arb_write(), 1..40),
        later in proptest::collection::vec(arb_write(), 0..20),
        chunk_entries in 1usize..8,
    ) {
        let mut state = StateDb::new();
        let mut seen = vec![commit(&mut state, 1, &writes)];
        let cut = || {
            Snapshot::capture(
                &ChannelId::new("ch"),
                2,
                Digest::of(b"tip"),
                &state,
                seen.clone(),
                Some(Arc::new(FirstByteIndexer)),
                chunk_entries,
            )
        };
        let eager = cut();
        eager.manifest();
        let lazy = cut();
        let state_at_cut = state.clone();

        // The ledger moves on: every key the cut holds — so every chunk —
        // is overwritten, every third is then deleted, new keys arrive.
        let overwrites: Vec<KvWrite> = state_at_cut
            .iter()
            .map(|(key, _)| KvWrite { key: key.clone(), value: Some(b"moved on".as_slice().into()) })
            .collect();
        let deletes: Vec<KvWrite> = overwrites
            .iter()
            .step_by(3)
            .map(|w| KvWrite { key: w.key.clone(), value: None })
            .collect();
        for (n, writes) in [(2, &overwrites), (3, &deletes), (4, &later)] {
            seen.push(commit(&mut state, n, writes));
        }

        prop_assert_eq!(lazy.manifest(), eager.manifest());
        prop_assert_eq!(lazy.to_bytes(), eager.to_bytes());
        prop_assert!(lazy.verify().is_ok());
        prop_assert_eq!(lazy.manifest().state_hash, state_at_cut.state_hash());
        let restored = lazy.restore_state();
        prop_assert_eq!(restored.state_hash(), state_at_cut.state_hash());
        prop_assert_eq!(restored.len(), state_at_cut.len());
        prop_assert_eq!(restored.key_count(), state_at_cut.key_count());
        prop_assert_eq!(histories(&restored), histories(&state_at_cut));
    }

    // The store against the reference it replaced: put, rewrite, delete
    // and re-create over a small key space, one or more writes per
    // transaction. Every read agrees after every write; at the end the
    // histories, the snapshot root and a restore of the snapshot do too.
    #[test]
    fn the_store_answers_as_a_state_map_beside_a_history_index(
        steps in proptest::collection::vec(arb_step(), 1..80),
        chunk_entries in 1usize..5,
    ) {
        let (mut store, mut reference) = (StateDb::new(), Reference::default());
        let (mut block, mut tx_num, mut seen) = (1u64, 0u32, Vec::new());
        for (i, (key, value, new_tx)) in steps.into_iter().enumerate() {
            if new_tx || seen.is_empty() {
                seen.push(TxId(Digest::of(&i.to_le_bytes())));
                tx_num += 1;
                if tx_num == 3 {
                    (block, tx_num) = (block + 1, 0);
                }
            }
            let (tx, version) = (*seen.last().unwrap(), Version::new(block, tx_num));
            let (ns, k) = KEY_SPACE[key];
            let write = KvWrite { key: StateKey::new(ns, k), value: value.map(Into::into) };
            store.apply_tx(tx, version, &write);
            reference.apply(tx, version, &write);
            prop_assert_eq!(store.get(&write.key), reference.state.get(&write.key));
            prop_assert_eq!(store.version(&write.key), reference.state.get(&write.key).map(|v| v.version));
            prop_assert_eq!(store.len(), reference.state.len());
        }

        let pairs = |it: &mut dyn Iterator<Item = (&StateKey, &VersionedValue)>| {
            it.map(|(k, v)| (k.clone(), v.clone())).collect::<Vec<_>>()
        };
        prop_assert_eq!(pairs(&mut store.iter()), reference.entries());
        for ns in ["", "a", "b", "c"] {
            for start in ["", "k", "k1", "k2", "x"] {
                for end in ["", "k", "k1", "k10", "k2", "z"] {
                    let expected: Vec<_> = reference
                        .entries()
                        .into_iter()
                        .filter(|(k, _)| *k.namespace == *ns && *k.key >= *start)
                        .filter(|(k, _)| end.is_empty() || *k.key < *end)
                        .collect();
                    prop_assert_eq!(pairs(&mut store.range(ns, start, end)), expected);
                }
                let prefix = start;
                let expected: Vec<_> = reference
                    .entries()
                    .into_iter()
                    .filter(|(k, _)| *k.namespace == *ns && k.key.starts_with(prefix))
                    .collect();
                prop_assert_eq!(pairs(&mut store.scan_prefix(ns, prefix)), expected);
            }
        }
        prop_assert_eq!(store.state_hash(), reference.state_hash());
        for (ns, k) in KEY_SPACE {
            let key = StateKey::new(ns, k);
            let expected = reference.history.get(&key).cloned().unwrap_or_default();
            prop_assert_eq!(store.history().get(&key).to_vec(), expected);
        }
        let expected: Vec<_> = reference.history.iter().map(|(k, h)| (k.clone(), h.clone())).collect();
        prop_assert_eq!(histories(&store), expected);
        prop_assert_eq!(store.key_count(), reference.history.len());

        let snapshot = Snapshot::capture(
            &ChannelId::new("ch"),
            block + 1,
            Digest::of(b"tip"),
            &store,
            seen.clone(),
            None,
            chunk_entries,
        );
        prop_assert_eq!(snapshot.manifest().merkle_root, reference.snapshot_root(chunk_entries, seen));
        prop_assert_eq!(snapshot.manifest().state_hash, reference.state_hash());
        prop_assert!(snapshot.verify().is_ok());
        let restored = snapshot.restore_state();
        prop_assert_eq!(pairs(&mut restored.iter()), reference.entries());
        prop_assert_eq!(histories(&restored), histories(&store));
    }
}
