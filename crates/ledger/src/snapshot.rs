//! Merkle-rooted state snapshots for O(1)-in-chain-length recovery.
//!
//! A [`Snapshot`] captures one channel's entire derived state — world
//! state with every key's history, the duplicate-detection tx-id set and
//! the provenance-graph structure digest — at a block height. The world
//! state is split into fixed-size [`SnapshotChunk`]s (key order), the
//! history/tx-id remainder forms a [`SnapshotTail`], and a Merkle root
//! over the part digests commits to the whole artefact, so a peer can
//! fetch parts from an untrusted-transport neighbour one at a time,
//! verify each against the [`SnapshotManifest`], and only then replace
//! a genesis replay with `snapshot + delta blocks`. Pruned block stores
//! stay auditable: the manifest pins `tip_hash` (the header hash of the
//! last covered block) and `state_hash`, the same digest replicas
//! compare for convergence.
//!
//! Cutting a snapshot and committing to it are two steps. The cut
//! *freezes*: it bumps the refcounts of the ledger's shared keys and
//! values into the snapshot's own vectors, in key order, and encodes and
//! hashes nothing. The first reader of the manifest *seals*: part
//! digests, Merkle root, state hash, graph digest and the order of the
//! tx-id set are computed once, from the frozen view, and kept.
//!
//! A store's history is append-only, so a snapshot of an earlier height
//! can still be frozen from it later ([`Snapshot::capture_as_of`]): that
//! is how a peer defers even the freeze until something reads its
//! checkpoint.

use std::cell::{LazyCell, OnceCell};
use std::fmt;
use std::sync::Arc;

use crate::channel::ChannelId;
use crate::codec::{
    bytes_len, decode_seq, encode_seq, varint_len, CodecError, Decode, Decoder, Encode, Encoder,
    DIGEST_LEN,
};
use crate::hash::Digest;
use crate::history::HistoryEntry;
use crate::merkle::MerkleTree;
use crate::provgraph::{GraphIndexer, ProvGraph};
use crate::shared::SharedBytes;
use crate::statedb::{hash_entries, StateDb};
use crate::tx::{StateKey, TxId, Version};

/// Default number of state entries per chunk.
pub const DEFAULT_CHUNK_ENTRIES: usize = 256;

/// Integrity-check failure of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A snapshot must cover at least one block.
    ZeroHeight,
    /// `part_digests` length disagrees with the actual parts.
    PartCountMismatch {
        /// Parts declared by the manifest.
        declared: usize,
        /// Parts actually present.
        actual: usize,
    },
    /// A part's recomputed digest disagrees with the manifest.
    PartDigestMismatch {
        /// Index of the offending part.
        index: usize,
    },
    /// The Merkle root over part digests disagrees with the manifest.
    RootMismatch,
    /// The recomputed world-state hash disagrees with the manifest.
    StateHashMismatch,
    /// State entries are not in strictly increasing key order.
    EntriesOutOfOrder,
    /// History records are not in strictly increasing key order.
    HistoryOutOfOrder,
    /// The seen-tx-id set is not strictly increasing.
    SeenOutOfOrder,
    /// A transfer completed with a part missing or duplicated.
    MissingPart {
        /// Index of the part that never arrived.
        index: usize,
    },
    /// The state entries are not the live writes the history ends in: a
    /// live entry's value or version differs from its key's last history
    /// entry, a live key has no history, or a history ends in a write the
    /// state does not hold.
    HistoryMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::ZeroHeight => write!(f, "snapshot covers zero blocks"),
            SnapshotError::PartCountMismatch { declared, actual } => {
                write!(
                    f,
                    "manifest declares {declared} parts, snapshot has {actual}"
                )
            }
            SnapshotError::PartDigestMismatch { index } => {
                write!(f, "part {index} digest mismatch")
            }
            SnapshotError::RootMismatch => write!(f, "merkle root mismatch"),
            SnapshotError::StateHashMismatch => write!(f, "state hash mismatch"),
            SnapshotError::EntriesOutOfOrder => write!(f, "state entries out of key order"),
            SnapshotError::HistoryOutOfOrder => write!(f, "history records out of key order"),
            SnapshotError::SeenOutOfOrder => write!(f, "seen tx ids out of order"),
            SnapshotError::MissingPart { index } => write!(f, "part {index} missing"),
            SnapshotError::HistoryMismatch => write!(f, "state disagrees with history"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One world-state entry frozen into a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The state key.
    pub key: StateKey,
    /// The live value at capture time, shared with the world state it
    /// was captured from (owned when decoded from bytes).
    pub value: SharedBytes,
    /// The version that wrote it.
    pub version: Version,
}

impl SnapshotEntry {
    fn wire_size(&self) -> u64 {
        self.key.wire_size() + bytes_len(self.value.len()) + Version::WIRE_SIZE
    }
}

impl Encode for SnapshotEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.value.encode(enc);
        self.version.encode(enc);
    }
}

impl Decode for SnapshotEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotEntry {
            key: StateKey::decode(dec)?,
            value: SharedBytes::decode(dec)?,
            version: Version::decode(dec)?,
        })
    }
}

/// A contiguous run of state entries, the unit of snapshot transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Entries in strictly increasing key order.
    pub entries: Vec<SnapshotEntry>,
}

impl SnapshotChunk {
    /// Length of the chunk's canonical encoding, added up without
    /// producing it.
    pub fn wire_size(&self) -> u64 {
        let entries: u64 = self.entries.iter().map(SnapshotEntry::wire_size).sum();
        varint_len(self.entries.len() as u64) + entries
    }
}

impl Encode for SnapshotChunk {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(&self.entries, enc);
    }
}

impl Decode for SnapshotChunk {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotChunk {
            entries: decode_seq(dec)?,
        })
    }
}

impl HistoryEntry {
    fn wire_size(&self) -> u64 {
        // The value is an option: a tag byte, then the bytes if present.
        let value = self.value.as_ref().map_or(0, |v| bytes_len(v.len()));
        DIGEST_LEN + Version::WIRE_SIZE + 1 + value
    }
}

impl Encode for HistoryEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.tx_id.encode(enc);
        self.version.encode(enc);
        self.value.encode(enc);
    }
}

impl Decode for HistoryEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(HistoryEntry {
            tx_id: TxId::decode(dec)?,
            version: Version::decode(dec)?,
            value: Option::<SharedBytes>::decode(dec)?,
        })
    }
}

/// The full write history of one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRecord {
    /// The state key.
    pub key: StateKey,
    /// Chronological writes of the key.
    pub entries: Vec<HistoryEntry>,
}

impl HistoryRecord {
    fn wire_size(&self) -> u64 {
        let entries: u64 = self.entries.iter().map(HistoryEntry::wire_size).sum();
        self.key.wire_size() + varint_len(self.entries.len() as u64) + entries
    }
}

impl Encode for HistoryRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        encode_seq(&self.entries, enc);
    }
}

impl Decode for HistoryRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(HistoryRecord {
            key: StateKey::decode(dec)?,
            entries: decode_seq(dec)?,
        })
    }
}

/// The non-state remainder of a snapshot: history index and the
/// committed-tx-id set, transferred as the final part.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotTail {
    /// Per-key history, records in strictly increasing key order.
    pub history: Vec<HistoryRecord>,
    /// Every committed tx id (valid and invalid), strictly increasing —
    /// restoring this keeps duplicate detection sound after bootstrap.
    pub seen: Vec<TxId>,
}

impl SnapshotTail {
    /// Length of the tail's canonical encoding, added up without
    /// producing it.
    pub fn wire_size(&self) -> u64 {
        let history: u64 = self.history.iter().map(HistoryRecord::wire_size).sum();
        let seen = self.seen.len() as u64;
        varint_len(self.history.len() as u64) + history + varint_len(seen) + seen * DIGEST_LEN
    }
}

impl Encode for SnapshotTail {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(&self.history, enc);
        encode_seq(&self.seen, enc);
    }
}

impl Decode for SnapshotTail {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotTail {
            history: decode_seq(dec)?,
            seen: decode_seq(dec)?,
        })
    }
}

/// The commitment a snapshot consumer verifies parts against: channel,
/// covered height, chain tip, state hash, graph digest and the Merkle
/// root over all part digests (state chunks, then the tail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Channel the snapshot belongs to.
    pub channel: String,
    /// Number of blocks covered: blocks `[0, height)` are folded in.
    pub height: u64,
    /// Header hash of block `height - 1` — the resume point for delta
    /// replay and the `prev_hash` the next block must carry.
    pub tip_hash: Digest,
    /// [`StateDb::state_hash`] of the captured world state.
    pub state_hash: Digest,
    /// Merkle root over `part_digests`.
    pub merkle_root: Digest,
    /// Digest of every part: state chunks in order, tail last.
    pub part_digests: Vec<Digest>,
    /// [`crate::ProvGraph::digest`] of the provenance graph at capture.
    pub graph_digest: Digest,
}

impl SnapshotManifest {
    /// Number of transfer parts (state chunks + the tail).
    pub fn part_count(&self) -> usize {
        self.part_digests.len()
    }

    /// Length of the manifest's canonical encoding, added up without
    /// producing it.
    pub fn wire_size(&self) -> u64 {
        let parts = self.part_digests.len() as u64;
        // Height, then tip hash, state hash, Merkle root and graph digest
        // around the part digests.
        bytes_len(self.channel.len()) + 8 + (4 + parts) * DIGEST_LEN + varint_len(parts)
    }
}

impl Encode for SnapshotManifest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.channel);
        enc.put_u64(self.height);
        enc.put_digest(&self.tip_hash);
        enc.put_digest(&self.state_hash);
        enc.put_digest(&self.merkle_root);
        self.part_digests.encode(enc);
        enc.put_digest(&self.graph_digest);
    }
}

impl Decode for SnapshotManifest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotManifest {
            channel: dec.get_str()?,
            height: dec.get_u64()?,
            tip_hash: dec.get_digest()?,
            state_hash: dec.get_digest()?,
            merkle_root: dec.get_digest()?,
            part_digests: Vec::<Digest>::decode(dec)?,
            graph_digest: dec.get_digest()?,
        })
    }
}

/// One transfer unit of a snapshot: a state chunk or the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotPart {
    /// A run of world-state entries.
    State(SnapshotChunk),
    /// The history + seen-tx remainder.
    Tail(SnapshotTail),
}

impl SnapshotPart {
    /// The digest the manifest commits this part under.
    pub fn digest(&self) -> Digest {
        match self {
            SnapshotPart::State(c) => c.digest(),
            SnapshotPart::Tail(t) => t.digest(),
        }
    }

    /// Wire size of this part, for network and CPU cost models: the
    /// length of the chunk's or tail's canonical encoding, added up
    /// without producing it.
    pub fn wire_size(&self) -> u64 {
        match self {
            SnapshotPart::State(c) => c.wire_size(),
            SnapshotPart::Tail(t) => t.wire_size(),
        }
    }
}

impl Encode for SnapshotPart {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SnapshotPart::State(c) => {
                enc.put_u8(0);
                c.encode(enc);
            }
            SnapshotPart::Tail(t) => {
                enc.put_u8(1);
                t.encode(enc);
            }
        }
    }
}

impl Decode for SnapshotPart {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(SnapshotPart::State(SnapshotChunk::decode(dec)?)),
            1 => Ok(SnapshotPart::Tail(SnapshotTail::decode(dec)?)),
            _ => Err(CodecError::Invalid("snapshot part tag")),
        }
    }
}

/// A complete, verifiable snapshot of one channel's derived state.
///
/// A snapshot is cut *frozen* and becomes *sealed* when its manifest is
/// first read (see the module documentation). Every reader goes through
/// [`Snapshot::manifest`], so the two are one type on one path: a
/// snapshot that arrives over the wire ([`Snapshot::assemble`]) or from
/// its encoding carries the manifest it came with and is sealed from the
/// start.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{ChannelId, Digest, Snapshot, StateDb};
///
/// let state = StateDb::new();
/// let snap = Snapshot::capture(
///     &ChannelId::default(), 3, Digest::of(b"tip"), &state, vec![], None, 4,
/// );
/// assert_eq!(snap.manifest().state_hash, state.state_hash());
/// assert!(snap.verify().is_ok());
/// ```
#[derive(Debug)]
pub struct Snapshot {
    channel: String,
    height: u64,
    tip_hash: Digest,
    /// Derives the provenance graph the manifest commits to from the
    /// frozen state; consulted once, by the seal.
    indexer: Option<Arc<dyn GraphIndexer>>,
    /// State chunks, key order, manifest order. An edit made after the
    /// seal is what [`Snapshot::verify`] reports.
    pub chunks: Vec<SnapshotChunk>,
    /// History + seen-tx remainder, frozen flat; its first reader cuts
    /// out the per-key lists and puts the tx ids in order.
    tail: LazyCell<SnapshotTail, Box<dyn FnOnce() -> SnapshotTail>>,
    manifest: OnceCell<SnapshotManifest>,
}

impl Snapshot {
    /// Freezes `state` — live entries and every key's history — at
    /// `height` into a snapshot with at most `chunk_entries` state entries
    /// per chunk. `seen` must be the full committed-tx-id set, in any
    /// order. `indexer` is the one the channel's provenance graph is
    /// maintained with (`None` for an empty graph).
    ///
    /// The cut shares every key and value with the ledger and computes
    /// nothing over them: its host cost is a refcount bump per string,
    /// into a fixed number of vectors. Simulated cost is charged by the
    /// caller, from [`Snapshot::entry_count`] and
    /// [`Snapshot::state_bytes`].
    pub fn capture(
        channel: &ChannelId,
        height: u64,
        tip_hash: Digest,
        state: &StateDb,
        seen: Vec<TxId>,
        indexer: Option<Arc<dyn GraphIndexer>>,
        chunk_entries: usize,
    ) -> Snapshot {
        let head = (channel, height, tip_hash);
        Snapshot::freeze(head, state, None, seen, indexer, chunk_entries)
    }

    /// [`Snapshot::capture`] of the store as it stood when the chain was
    /// `height` blocks long: only the writes of blocks below `height`
    /// count, so a key's live entry is its last such write unless that
    /// write is a deletion, and a key with none is left out. The history
    /// is append-only, so this is the snapshot an eager capture at that
    /// height would have made; `seen` must be the tx-id set of that
    /// height.
    pub fn capture_as_of(
        channel: &ChannelId,
        height: u64,
        tip_hash: Digest,
        state: &StateDb,
        seen: Vec<TxId>,
        indexer: Option<Arc<dyn GraphIndexer>>,
        chunk_entries: usize,
    ) -> Snapshot {
        let head = (channel, height, tip_hash);
        Snapshot::freeze(head, state, Some(height), seen, indexer, chunk_entries)
    }

    /// The two captures: every write of `state`, or those of blocks below
    /// `as_of`.
    fn freeze(
        (channel, height, tip_hash): (&ChannelId, u64, Digest),
        state: &StateDb,
        as_of: Option<u64>,
        mut seen: Vec<TxId>,
        indexer: Option<Arc<dyn GraphIndexer>>,
        chunk_entries: usize,
    ) -> Snapshot {
        let per_chunk = chunk_entries.max(1);
        let counts = |entry: &HistoryEntry| as_of.is_none_or(|h| entry.version.block_num < h);
        let mut chunks = Vec::with_capacity(state.len().div_ceil(per_chunk));

        // History is frozen flat — every key with its entry count, and
        // every entry, in two vectors — so the cut allocates twice, not
        // once per key, and a cut nobody read is dropped as cheaply. One
        // merge pass over the live and the earlier writes gives it up in
        // key order; the per-key lists are cut out when the tail is first
        // read. A key's live entry is its last write, when that is not a
        // deletion.
        let earlier = state.earlier.values().map(Vec::len).sum::<usize>();
        let mut keys = Vec::with_capacity(state.len() + state.earlier.len());
        let mut flat: Vec<HistoryEntry> = Vec::with_capacity(state.len() + earlier);
        for (key, writes) in state.history().iter() {
            let before = flat.len();
            flat.extend(writes.entries().take_while(counts));
            let Some(last) = flat[before..].last() else {
                continue;
            };
            keys.push((key.clone(), flat.len() - before));
            let Some(value) = &last.value else {
                continue;
            };
            if chunks
                .last()
                .is_none_or(|c: &SnapshotChunk| c.entries.len() == per_chunk)
            {
                let entries = Vec::with_capacity(per_chunk);
                chunks.push(SnapshotChunk { entries });
            }
            let chunk = chunks.last_mut().expect("pushed above");
            chunk.entries.push(SnapshotEntry {
                key: key.clone(),
                value: value.clone(),
                version: last.version,
            });
        }
        Snapshot {
            channel: channel.as_str().to_owned(),
            height,
            tip_hash,
            indexer,
            chunks,
            tail: LazyCell::new(Box::new(move || {
                let mut flat = flat.into_iter();
                let history = keys
                    .into_iter()
                    .map(|(key, n)| HistoryRecord {
                        key,
                        entries: flat.by_ref().take(n).collect(),
                    })
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                SnapshotTail { history, seen }
            })),
            manifest: OnceCell::new(),
        }
    }

    /// A snapshot that arrives with its manifest: sealed from the start.
    fn sealed(manifest: SnapshotManifest, chunks: Vec<SnapshotChunk>, tail: SnapshotTail) -> Self {
        Snapshot {
            channel: manifest.channel.clone(),
            height: manifest.height,
            tip_hash: manifest.tip_hash,
            indexer: None,
            chunks,
            tail: LazyCell::new(Box::new(move || tail)),
            manifest: OnceCell::from(manifest),
        }
    }

    /// Reassembles a snapshot from transferred parts, verifying each
    /// against the manifest. `parts` holds one entry per manifest index.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if a part is missing, a digest
    /// mismatches, or the assembled snapshot fails [`Snapshot::verify`].
    pub fn assemble(
        manifest: SnapshotManifest,
        mut parts: Vec<Option<SnapshotPart>>,
    ) -> Result<Snapshot, SnapshotError> {
        if parts.len() != manifest.part_count() {
            return Err(SnapshotError::PartCountMismatch {
                declared: manifest.part_count(),
                actual: parts.len(),
            });
        }
        let mut chunks = Vec::with_capacity(parts.len().saturating_sub(1));
        let mut tail = None;
        for (index, slot) in parts.iter_mut().enumerate() {
            let part = slot.take().ok_or(SnapshotError::MissingPart { index })?;
            if part.digest() != manifest.part_digests[index] {
                return Err(SnapshotError::PartDigestMismatch { index });
            }
            match part {
                SnapshotPart::State(c) => chunks.push(c),
                SnapshotPart::Tail(t) => tail = Some(t),
            }
        }
        // The tail is the last part: with none among them, that slot held
        // something else.
        let tail = tail.ok_or(SnapshotError::MissingPart {
            index: manifest.part_count().saturating_sub(1),
        })?;
        let snapshot = Snapshot::sealed(manifest, chunks, tail);
        snapshot.verify()?;
        Ok(snapshot)
    }

    /// Number of blocks covered; reading it does not seal.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The commitment over all parts. The first call seals the snapshot:
    /// it encodes and hashes every part, hashes the state, cuts out the
    /// tail and derives the graph digest — work proportional to the
    /// ledger, done once.
    pub fn manifest(&self) -> &SnapshotManifest {
        self.manifest.get_or_init(|| {
            let mut part_digests: Vec<Digest> = self.chunks.iter().map(Encode::digest).collect();
            part_digests.push(self.tail().digest());
            let graph = ProvGraph::from_state(
                self.indexer.as_deref(),
                self.entries().map(|e| (&e.key, &*e.value)),
            );
            SnapshotManifest {
                channel: self.channel.clone(),
                height: self.height,
                tip_hash: self.tip_hash,
                state_hash: self.state_hash(),
                merkle_root: MerkleTree::root_of(&part_digests),
                part_digests,
                graph_digest: graph.digest(),
            }
        })
    }

    /// History + seen-tx remainder, in key order. The first call cuts it
    /// out of the frozen view.
    pub fn tail(&self) -> &SnapshotTail {
        &self.tail
    }

    /// Every state entry, in key order.
    fn entries(&self) -> impl Iterator<Item = &SnapshotEntry> {
        self.chunks.iter().flat_map(|c| &c.entries)
    }

    /// [`StateDb::state_hash`] of the state the entries restore to.
    fn state_hash(&self) -> Digest {
        hash_entries(self.entries().map(|e| (&e.key, &*e.value, e.version)))
    }

    /// The transfer part at `index` (state chunks first, tail last).
    pub fn part(&self, index: usize) -> Option<SnapshotPart> {
        if index < self.chunks.len() {
            Some(SnapshotPart::State(self.chunks[index].clone()))
        } else if index == self.chunks.len() {
            Some(SnapshotPart::Tail(self.tail().clone()))
        } else {
            None
        }
    }

    /// Number of transfer parts.
    pub fn part_count(&self) -> usize {
        self.chunks.len() + 1
    }

    /// Total state entries across all chunks.
    pub fn entry_count(&self) -> usize {
        self.chunks.iter().map(|c| c.entries.len()).sum()
    }

    /// Total bytes of captured state values.
    pub fn state_bytes(&self) -> u64 {
        self.entries().map(|e| e.value.len() as u64).sum()
    }

    /// Wire size of the whole snapshot: the length of its canonical
    /// encoding, added up without producing it.
    pub fn wire_size(&self) -> u64 {
        let chunks: u64 = self.chunks.iter().map(SnapshotChunk::wire_size).sum();
        self.manifest().wire_size()
            + varint_len(self.chunks.len() as u64)
            + chunks
            + self.tail().wire_size()
    }

    /// Full integrity check: part digests, Merkle root, key order of
    /// state/history/seen, the recomputed state hash against the
    /// manifest, and the state entries against the live writes the
    /// history ends in. A snapshot that passes is safe to restore from.
    ///
    /// # Errors
    ///
    /// Returns the first [`SnapshotError`] found.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        let m = self.manifest();
        let tail = self.tail();
        if m.height == 0 {
            return Err(SnapshotError::ZeroHeight);
        }
        if m.part_digests.len() != self.part_count() {
            return Err(SnapshotError::PartCountMismatch {
                declared: m.part_digests.len(),
                actual: self.part_count(),
            });
        }
        for (index, chunk) in self.chunks.iter().enumerate() {
            if chunk.digest() != m.part_digests[index] {
                return Err(SnapshotError::PartDigestMismatch { index });
            }
        }
        if tail.digest() != m.part_digests[self.chunks.len()] {
            return Err(SnapshotError::PartDigestMismatch {
                index: self.chunks.len(),
            });
        }
        if MerkleTree::root_of(&m.part_digests) != m.merkle_root {
            return Err(SnapshotError::RootMismatch);
        }

        // State entries: strictly increasing keys across chunk borders,
        // and the same digest StateDb::state_hash computes.
        let mut pairs = self.entries().zip(self.entries().skip(1));
        if pairs.any(|(prev, next)| prev.key >= next.key) {
            return Err(SnapshotError::EntriesOutOfOrder);
        }
        if self.state_hash() != m.state_hash {
            return Err(SnapshotError::StateHashMismatch);
        }

        if tail.history.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err(SnapshotError::HistoryOutOfOrder);
        }
        if tail.seen.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::SeenOutOfOrder);
        }
        let live = tail.history.iter().filter_map(|record| {
            let last = record.entries.last()?;
            Some((&record.key, last.value.as_deref()?, last.version))
        });
        if !live.eq(self.entries().map(|e| (&e.key, &*e.value, e.version))) {
            return Err(SnapshotError::HistoryMismatch);
        }
        Ok(())
    }

    /// Rebuilds the store captured by this snapshot — values, versions
    /// and every key's history with its tx ids — in one pass over the
    /// tail. On a snapshot that passed [`Snapshot::verify`] the live
    /// writes the tail's histories end in are the state chunks' entries.
    pub fn restore_state(&self) -> StateDb {
        let mut db = StateDb::new();
        for record in &self.tail().history {
            db.restore_key(record.key.clone(), record.entries.clone());
        }
        db
    }
}

impl Encode for Snapshot {
    fn encode(&self, enc: &mut Encoder) {
        self.manifest().encode(enc);
        encode_seq(&self.chunks, enc);
        self.tail().encode(enc);
    }
}

impl Decode for Snapshot {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Snapshot::sealed(
            SnapshotManifest::decode(dec)?,
            decode_seq(dec)?,
            SnapshotTail::decode(dec)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::KvWrite;

    /// Writes `k` (deletes it when `v` is `None`) in the transaction
    /// named `tx`, and answers the transaction's id.
    fn put(db: &mut StateDb, tx: &str, k: &str, v: Option<&[u8]>, ver: Version) -> TxId {
        let tx = TxId(Digest::of(tx.as_bytes()));
        let write = KvWrite {
            key: StateKey::new("cc", k),
            value: v.map(Into::into),
        };
        db.apply_tx(tx, ver, &write);
        tx
    }

    fn capture(state: &StateDb, seen: Vec<TxId>, height: u64, chunk_entries: usize) -> Snapshot {
        let tip = Digest::of(b"tip");
        Snapshot::capture(
            &ChannelId::default(),
            height,
            tip,
            state,
            seen,
            None,
            chunk_entries,
        )
    }

    fn sample(n_keys: usize, chunk_entries: usize) -> Snapshot {
        let mut state = StateDb::new();
        let seen = (0..n_keys)
            .map(|i| {
                let (key, value) = (format!("k{i:03}"), format!("v{i}"));
                let ver = Version::new(i as u64 + 1, 0);
                put(
                    &mut state,
                    &format!("t{i}"),
                    &key,
                    Some(value.as_bytes()),
                    ver,
                )
            })
            .collect();
        capture(&state, seen, n_keys as u64 + 1, chunk_entries)
    }

    /// A sample whose manifest has been read: edits from here on are
    /// tampering, which `verify` must report.
    fn sealed_sample(n_keys: usize, chunk_entries: usize) -> Snapshot {
        let snap = sample(n_keys, chunk_entries);
        snap.manifest();
        snap
    }

    fn manifest_mut(snap: &mut Snapshot) -> &mut SnapshotManifest {
        snap.manifest();
        snap.manifest.get_mut().expect("sealed above")
    }

    fn tail_mut(snap: &mut Snapshot) -> &mut SnapshotTail {
        LazyCell::force_mut(&mut snap.tail)
    }

    /// Recomputes the Merkle root over the manifest's part digests, as a
    /// tamperer covering an edited part would.
    fn reroot(snap: &mut Snapshot) {
        let manifest = manifest_mut(snap);
        manifest.merkle_root = MerkleTree::root_of(&manifest.part_digests);
    }

    fn parts_of(snap: &Snapshot) -> Vec<Option<SnapshotPart>> {
        (0..snap.part_count()).map(|i| snap.part(i)).collect()
    }

    #[test]
    fn capture_verify_round_trip() {
        let snap = sample(10, 3);
        assert_eq!(snap.entry_count(), 10);
        assert_eq!(snap.chunks.len(), 4);
        assert_eq!(snap.part_count(), 5);
        snap.verify().unwrap();
        // Codec round trip preserves everything.
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.manifest(), snap.manifest());
        assert_eq!(back.to_bytes(), snap.to_bytes());
        back.verify().unwrap();
        assert_eq!(snap.wire_size(), snap.to_bytes().len() as u64);
        assert!(snap.state_bytes() > 0);
    }

    #[test]
    fn a_cut_stays_frozen_until_its_manifest_is_read() {
        let snap = sample(10, 3);
        // What the peer reads at the cut — height and the two cost-model
        // inputs — seals nothing and orders nothing.
        assert_eq!(snap.height(), 11);
        assert_eq!(snap.entry_count(), 10);
        assert!(snap.state_bytes() > 0);
        assert!(snap.manifest.get().is_none());
        assert!(LazyCell::get(&snap.tail).is_none());
        // Every reader of the commitment seals, once.
        snap.verify().unwrap();
        let sealed: *const SnapshotManifest = snap.manifest();
        assert!(std::ptr::eq(sealed, snap.manifest()));
    }

    #[test]
    fn digests_match_the_owned_string_representation() {
        // Pinned on the commit before keys and values became shared
        // strings: neither the state hash nor the snapshot root may
        // depend on how the bytes are held.
        let snap = sample(5, 2);
        assert_eq!(
            snap.manifest().state_hash.to_hex(),
            "effb8dd6c5a8e0bd1c8a1c9df66b562d17a843dd1d52d9f78fde847cc4ffc13d"
        );
        assert_eq!(
            snap.manifest().merkle_root.to_hex(),
            "85be8fa454af8506dbe9766f43c7426edf5a014752f5dd5e6e4e8c18acc9a437"
        );
    }

    #[test]
    fn capture_and_restore_share_values_with_the_state() {
        let mut state = StateDb::new();
        put(&mut state, "t", "k", Some(b"value"), Version::new(1, 0));
        let key = StateKey::new("cc", "k");
        let snap = capture(&state, vec![], 2, 4);
        snap.verify().unwrap();
        let restored = snap.restore_state();
        assert_eq!(restored.state_hash(), state.state_hash());
        let held: &[u8] = &state.get(&key).unwrap().value;
        assert!(std::ptr::eq(held, &*snap.chunks[0].entries[0].value));
        assert!(std::ptr::eq(held, &*restored.get(&key).unwrap().value));
        assert_eq!(restored.get(&key), state.get(&key));
    }

    #[test]
    fn capture_is_deterministic() {
        let a = sample(20, 4);
        let b = sample(20, 4);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.manifest().merkle_root, b.manifest().merkle_root);
    }

    #[test]
    fn empty_state_still_verifies() {
        let snap = capture(&StateDb::new(), vec![], 1, 8);
        assert_eq!(snap.chunks.len(), 0);
        assert_eq!(snap.part_count(), 1);
        snap.verify().unwrap();
        assert_eq!(snap.manifest().state_hash, StateDb::new().state_hash());
    }

    #[test]
    fn zero_height_rejected() {
        let mut snap = sample(2, 2);
        manifest_mut(&mut snap).height = 0;
        assert_eq!(snap.verify(), Err(SnapshotError::ZeroHeight));
    }

    #[test]
    fn tampered_value_detected() {
        let mut snap = sealed_sample(6, 2);
        snap.chunks[1].entries[0].value = b"evil".as_slice().into();
        assert_eq!(
            snap.verify(),
            Err(SnapshotError::PartDigestMismatch { index: 1 })
        );
        // Hide it by recomputing that part digest: the root breaks.
        manifest_mut(&mut snap).part_digests[1] = snap.chunks[1].digest();
        assert_eq!(snap.verify(), Err(SnapshotError::RootMismatch));
        // Recompute the root too: the state hash still catches it.
        reroot(&mut snap);
        assert_eq!(snap.verify(), Err(SnapshotError::StateHashMismatch));
    }

    #[test]
    fn out_of_order_entries_detected() {
        let mut snap = sealed_sample(4, 2);
        snap.chunks[0].entries.swap(0, 1);
        manifest_mut(&mut snap).part_digests[0] = snap.chunks[0].digest();
        reroot(&mut snap);
        assert_eq!(snap.verify(), Err(SnapshotError::EntriesOutOfOrder));
    }

    #[test]
    fn tampered_tail_detected() {
        let mut snap = sealed_sample(4, 2);
        tail_mut(&mut snap).seen.reverse();
        let last = snap.part_count() - 1;
        assert_eq!(
            snap.verify(),
            Err(SnapshotError::PartDigestMismatch { index: last })
        );
        manifest_mut(&mut snap).part_digests[last] = snap.tail().digest();
        reroot(&mut snap);
        assert_eq!(snap.verify(), Err(SnapshotError::SeenOutOfOrder));
        tail_mut(&mut snap).seen.reverse();
        tail_mut(&mut snap).history.reverse();
        manifest_mut(&mut snap).part_digests[last] = snap.tail().digest();
        reroot(&mut snap);
        assert_eq!(snap.verify(), Err(SnapshotError::HistoryOutOfOrder));
    }

    #[test]
    fn assemble_from_parts() {
        let snap = sample(9, 4);
        assert!(snap.part(snap.part_count()).is_none());
        let back = Snapshot::assemble(snap.manifest().clone(), parts_of(&snap)).unwrap();
        assert_eq!(back.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn assemble_rejects_missing_and_corrupt_parts() {
        let snap = sample(9, 4);
        let assemble = |parts| Snapshot::assemble(snap.manifest().clone(), parts).unwrap_err();
        // Missing part.
        let mut parts = parts_of(&snap);
        parts[1] = None;
        assert_eq!(assemble(parts), SnapshotError::MissingPart { index: 1 });
        // Wrong count.
        assert!(matches!(
            assemble(vec![]),
            SnapshotError::PartCountMismatch { .. }
        ));
        // Corrupted part.
        let mut parts = parts_of(&snap);
        if let Some(SnapshotPart::State(c)) = parts[0].as_mut() {
            c.entries[0].value = b"junk".as_slice().into();
        }
        assert_eq!(
            assemble(parts),
            SnapshotError::PartDigestMismatch { index: 0 }
        );
    }

    #[test]
    fn assemble_names_the_tail_when_no_part_is_one() {
        // Every slot filled and every digest matching, but the last slot
        // holds a second state chunk: it is the tail that never arrived.
        let snap = sample(9, 4);
        let last = snap.part_count() - 1;
        let mut manifest = snap.manifest().clone();
        let mut parts = parts_of(&snap);
        parts[last] = parts[0].clone();
        manifest.part_digests[last] = manifest.part_digests[0];
        assert_eq!(
            Snapshot::assemble(manifest, parts).unwrap_err(),
            SnapshotError::MissingPart { index: last }
        );
    }

    #[test]
    fn restore_matches_original() {
        let mut state = StateDb::new();
        for i in 0..25u8 {
            let (tx, key) = (format!("t{i}"), format!("k{:02}", i % 10));
            // Keys written up to three times, every seventh write a delete.
            let value = (i % 7 != 6).then_some([i; 8]);
            let ver = Version::new(u64::from(i) + 1, 0);
            put(&mut state, &tx, &key, value.as_ref().map(|v| &v[..]), ver);
        }
        let seen = vec![TxId(Digest::of(b"a")), TxId(Digest::of(b"b"))];
        let snap = capture(&state, seen, 26, 7);
        snap.verify().unwrap();
        let restored = snap.restore_state();
        assert_eq!(restored.state_hash(), state.state_hash());
        assert_eq!(restored.len(), state.len());
        assert_eq!(restored.key_count(), 10);
        for (key, writes) in state.history().iter() {
            assert_eq!(restored.history().get(key).to_vec(), writes.to_vec());
        }
    }

    #[test]
    fn a_capture_as_of_an_earlier_height_is_the_capture_made_then() {
        // Block b writes keys b % 5 and deletes key (b + 2) % 5 every third
        // block: re-writes, deletions, and keys born after the cut.
        let mut state = StateDb::new();
        let mut eager = None;
        for block in 0..12u64 {
            if block == 7 {
                eager = Some(capture(&state, vec![], block, 2));
            }
            let key = format!("k{}", block % 5 + block / 8 * 5);
            let ver = Version::new(block, 0);
            put(
                &mut state,
                &format!("t{block}"),
                &key,
                Some(&[block as u8][..]),
                ver,
            );
            if block % 3 == 0 {
                let gone = format!("k{}", (block + 2) % 5);
                put(
                    &mut state,
                    &format!("d{block}"),
                    &gone,
                    None,
                    Version::new(block, 1),
                );
            }
        }
        let as_of = |height| {
            let (channel, tip) = (ChannelId::default(), Digest::of(b"tip"));
            Snapshot::capture_as_of(&channel, height, tip, &state, vec![], None, 2)
        };
        let (deferred, eager) = (as_of(7), eager.expect("cut at 7"));
        assert_eq!(deferred.manifest(), eager.manifest());
        assert_eq!(deferred.to_bytes(), eager.to_bytes());
        assert_eq!(
            (deferred.entry_count(), deferred.state_bytes()),
            (eager.entry_count(), eager.state_bytes())
        );
        // As of the tip, it is the eager capture of the whole store.
        assert_eq!(
            as_of(12).to_bytes(),
            capture(&state, vec![], 12, 2).to_bytes()
        );
    }

    #[test]
    fn a_tail_that_disagrees_with_the_state_is_rejected() {
        // A forged tail, its part digest and the root re-sealed to match:
        // only comparing the state with the history catches it.
        let forge = |edit: &dyn Fn(&mut SnapshotTail)| {
            let mut snap = sealed_sample(4, 2);
            edit(tail_mut(&mut snap));
            let last = snap.part_count() - 1;
            manifest_mut(&mut snap).part_digests[last] = snap.tail().digest();
            reroot(&mut snap);
            snap.verify()
        };
        let entry = |value: Option<&[u8]>| HistoryEntry {
            tx_id: TxId(Digest::of(b"forger")),
            version: Version::new(99, 0),
            value: value.map(Into::into),
        };
        // A live entry's value, or its version, differs from its key's
        // last history entry.
        assert_eq!(
            forge(&|t| t.history[1].entries[0].value = Some(b"forged".as_slice().into())),
            Err(SnapshotError::HistoryMismatch)
        );
        assert_eq!(
            forge(&|t| t.history[1].entries[0].version = Version::new(9, 9)),
            Err(SnapshotError::HistoryMismatch)
        );
        // A live key with no history at all.
        assert_eq!(
            forge(&|t| drop(t.history.remove(1))),
            Err(SnapshotError::HistoryMismatch)
        );
        // A history that ends in a deletion of a key the state holds.
        assert_eq!(
            forge(&|t| t.history[1].entries.push(entry(None))),
            Err(SnapshotError::HistoryMismatch)
        );
        // A key the state lacks whose history ends in a write.
        assert_eq!(
            forge(&|t| t.history.push(HistoryRecord {
                key: StateKey::new("cc", "k999"),
                entries: vec![entry(Some(b"v"))],
            })),
            Err(SnapshotError::HistoryMismatch)
        );
        // The check is on the live write: an earlier one is history only.
        forge(&|t| t.history[1].entries.insert(0, entry(Some(b"old")))).unwrap();
    }

    #[test]
    fn seen_is_sorted_and_deduped() {
        let a = TxId(Digest::of(b"a"));
        let b = TxId(Digest::of(b"b"));
        let snap = capture(&StateDb::new(), vec![b, a, b, a], 1, 8);
        snap.verify().unwrap();
        assert_eq!(snap.tail().seen.len(), 2);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            SnapshotError::ZeroHeight,
            SnapshotError::PartCountMismatch {
                declared: 1,
                actual: 2,
            },
            SnapshotError::PartDigestMismatch { index: 0 },
            SnapshotError::RootMismatch,
            SnapshotError::StateHashMismatch,
            SnapshotError::EntriesOutOfOrder,
            SnapshotError::HistoryOutOfOrder,
            SnapshotError::SeenOutOfOrder,
            SnapshotError::MissingPart { index: 3 },
            SnapshotError::HistoryMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
