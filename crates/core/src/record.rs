//! The provenance record: what HyperProv stores on-chain for every data
//! item.
//!
//! Matching the paper's §3: "the core data currently stored in the
//! blockchain is the checksum of every data item, the data location, a
//! certificate pertaining to who stored the data, a list of other data
//! items that were used to create an item, and a custom field for any
//! additional metadata."

use hyperprov_fabric::{CertRef, Certificate};
use hyperprov_ledger::{
    decode_seq, encode_seq, CodecError, Decode, Decoder, Digest, Encode, Encoder,
};

/// The client-supplied part of a record (everything except the creator
/// certificate, which the chaincode takes from the transaction context so
/// it cannot be spoofed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordInput {
    /// SHA-256 checksum of the data item.
    pub checksum: Digest,
    /// Where the payload lives (e.g. `sshfs://store0/<hex>`); empty for
    /// metadata-only items.
    pub location: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Keys of the items this one was derived from.
    pub parents: Vec<String>,
    /// Free-form metadata, kept sorted for canonical encoding.
    pub metadata: Vec<(String, String)>,
    /// Client clock at creation, milliseconds since epoch.
    pub timestamp_ms: u64,
}

impl RecordInput {
    /// Creates a metadata-only input for `checksum`.
    pub fn new(checksum: Digest) -> Self {
        RecordInput {
            checksum,
            location: String::new(),
            size: 0,
            parents: Vec::new(),
            metadata: Vec::new(),
            timestamp_ms: 0,
        }
    }

    /// Sets the off-chain location and size.
    #[must_use]
    pub fn with_location(mut self, location: impl Into<String>, size: u64) -> Self {
        self.location = location.into();
        self.size = size;
        self
    }

    /// Adds parent (derived-from) keys.
    #[must_use]
    pub fn with_parents(mut self, parents: Vec<String>) -> Self {
        self.parents = parents;
        self
    }

    /// Adds one metadata field (kept sorted by key).
    #[must_use]
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.push((key.into(), value.into()));
        self.metadata.sort();
        self
    }

    /// Sets the client timestamp.
    #[must_use]
    pub fn with_timestamp(mut self, timestamp_ms: u64) -> Self {
        self.timestamp_ms = timestamp_ms;
        self
    }
}

impl Encode for RecordInput {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.checksum);
        enc.put_str(&self.location);
        enc.put_u64(self.size);
        self.parents.encode(enc);
        encode_seq(&self.metadata, enc);
        enc.put_u64(self.timestamp_ms);
    }
}
impl Decode for RecordInput {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RecordInput {
            checksum: dec.get_digest()?,
            location: dec.get_str()?,
            size: dec.get_u64()?,
            parents: Vec::decode(dec)?,
            metadata: decode_seq(dec)?,
            timestamp_ms: dec.get_u64()?,
        })
    }
}

/// A committed provenance record, as stored in world state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// The item's key.
    pub key: String,
    /// SHA-256 checksum of the data item.
    pub checksum: Digest,
    /// Off-chain location of the payload (empty for metadata-only).
    pub location: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Certificate of the identity that stored the item.
    pub creator: Certificate,
    /// Keys of the items this one was derived from.
    pub parents: Vec<String>,
    /// Custom metadata, sorted by key.
    pub metadata: Vec<(String, String)>,
    /// Client clock at creation, milliseconds since epoch.
    pub timestamp_ms: u64,
}

impl ProvenanceRecord {
    /// Builds the stored record from client input plus the transaction
    /// creator.
    pub fn from_input(key: impl Into<String>, input: RecordInput, creator: Certificate) -> Self {
        ProvenanceRecord {
            key: key.into(),
            checksum: input.checksum,
            location: input.location,
            size: input.size,
            creator,
            parents: input.parents,
            metadata: input.metadata,
            timestamp_ms: input.timestamp_ms,
        }
    }

    /// Looks up a metadata value by key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.metadata
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True if the payload lives off-chain.
    pub fn has_offchain_data(&self) -> bool {
        !self.location.is_empty()
    }

    /// The parent list of an encoded record, read in place: what
    /// `from_bytes(bytes)?.parents` answers — the whole record is
    /// validated — without building its other fields.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] exactly when [`Decode::from_bytes`] does.
    pub fn parents_of(bytes: &[u8]) -> Result<Vec<String>, CodecError> {
        let mut dec = Decoder::new(bytes);
        dec.get_str_ref()?; // key
        dec.get_digest()?; // checksum
        dec.get_str_ref()?; // location
        dec.get_u64()?; // size
        CertRef::decode(&mut dec)?; // creator
        let parents = Vec::<String>::decode(&mut dec)?;
        for _ in 0..dec.get_count()? {
            dec.get_str_ref()?; // metadata key
            dec.get_str_ref()?; // metadata value
        }
        dec.get_u64()?; // timestamp
        dec.finish()?;
        Ok(parents)
    }
}

impl Encode for ProvenanceRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.key);
        enc.put_digest(&self.checksum);
        enc.put_str(&self.location);
        enc.put_u64(self.size);
        self.creator.encode(enc);
        self.parents.encode(enc);
        encode_seq(&self.metadata, enc);
        enc.put_u64(self.timestamp_ms);
    }
}
impl Decode for ProvenanceRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ProvenanceRecord {
            key: dec.get_str()?,
            checksum: dec.get_digest()?,
            location: dec.get_str()?,
            size: dec.get_u64()?,
            creator: Certificate::decode(dec)?,
            parents: Vec::decode(dec)?,
            metadata: decode_seq(dec)?,
            timestamp_ms: dec.get_u64()?,
        })
    }
}

/// One entry of an item's on-chain history, as returned by `get_history`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRecord {
    /// Id of the writing transaction.
    pub tx_id: Digest,
    /// Block number of the write.
    pub block: u64,
    /// The record value at that point; `None` if the write was a delete.
    pub record: Option<ProvenanceRecord>,
}

impl Encode for HistoryRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.tx_id);
        enc.put_u64(self.block);
        self.record.as_ref().map(Encode::to_bytes).encode(enc);
    }
}
impl Decode for HistoryRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let tx_id = dec.get_digest()?;
        let block = dec.get_u64()?;
        let raw: Option<Vec<u8>> = Option::decode(dec)?;
        let record = match raw {
            Some(bytes) => Some(ProvenanceRecord::from_bytes(&bytes)?),
            None => None,
        };
        Ok(HistoryRecord {
            tx_id,
            block,
            record,
        })
    }
}

/// One node of a lineage traversal, as returned by `get_lineage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEntry {
    /// Distance from the queried item (0 = the item itself).
    pub depth: u32,
    /// The record at this node.
    pub record: ProvenanceRecord,
}

/// A slice of the materialized provenance DAG, as returned by the graph
/// query operations (`get_ancestry`, `get_descendants`, `get_closure`,
/// `get_subgraph`).
///
/// It carries *keys only* — depth-tagged node keys plus (for subgraph
/// queries) the edges between them — so a deep traversal ships a few
/// bytes per node; `get_lineage` answers the records beside it, as a
/// [`LineageSlice`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSlice {
    /// Visited node keys with their minimum distance from the query roots
    /// (0 = a root itself), in BFS order.
    pub entries: Vec<(u32, String)>,
    /// Keys referenced by the traversal but absent from the answering
    /// peer's index, with the depth they would occupy. On a sharded
    /// deployment these are the frontier the client re-routes to the
    /// owning shard; on a single shard they mark deleted or never-posted
    /// parents.
    pub boundary: Vec<(u32, String)>,
    /// `(child, parent)` edges between visited nodes (populated by
    /// `get_subgraph` only).
    pub edges: Vec<(String, String)>,
    /// True when a depth or node budget cut the traversal short.
    pub truncated: bool,
}

impl GraphSlice {
    /// True when nothing was visited and nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.boundary.is_empty()
    }
}

impl From<hyperprov_ledger::Traversal> for GraphSlice {
    fn from(t: hyperprov_ledger::Traversal) -> Self {
        GraphSlice {
            entries: t.entries,
            boundary: t.boundary,
            edges: t.edges,
            truncated: t.truncated,
        }
    }
}

impl Encode for GraphSlice {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(&self.entries, enc);
        encode_seq(&self.boundary, enc);
        encode_seq(&self.edges, enc);
        enc.put_bool(self.truncated);
    }
}
impl Decode for GraphSlice {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(GraphSlice {
            entries: decode_seq(dec)?,
            boundary: decode_seq(dec)?,
            edges: decode_seq(dec)?,
            truncated: dec.get_bool()?,
        })
    }
}

/// One peer's `get_lineage` answer: its ancestry slice and the record of
/// every entry, in entry order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LineageSlice {
    pub(crate) slice: GraphSlice,
    pub(crate) records: Vec<ProvenanceRecord>,
}

impl Encode for LineageSlice {
    fn encode(&self, enc: &mut Encoder) {
        self.slice.encode(enc);
        encode_seq(&self.records, enc);
    }
}
impl Decode for LineageSlice {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let slice = GraphSlice::decode(dec)?;
        let records: Vec<ProvenanceRecord> = decode_seq(dec)?;
        if records.len() != slice.entries.len() {
            return Err(CodecError::Invalid("a lineage entry without its record"));
        }
        Ok(LineageSlice { slice, records })
    }
}

/// Encodes a history response.
pub fn encode_history(entries: &[HistoryRecord]) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_seq(entries, &mut enc);
    enc.into_bytes()
}

/// Decodes a history response.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_history(bytes: &[u8]) -> Result<Vec<HistoryRecord>, CodecError> {
    let mut dec = Decoder::new(bytes);
    let out = decode_seq(&mut dec)?;
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperprov_fabric::{MspBuilder, MspId};

    fn cert() -> Certificate {
        let mut b = MspBuilder::new(1);
        b.enroll("client", &MspId::new("org1"))
            .certificate()
            .clone()
    }

    fn sample() -> ProvenanceRecord {
        let input = RecordInput::new(Digest::of(b"data"))
            .with_location("sshfs://store0/abc", 4)
            .with_parents(vec!["parent1".into(), "parent2".into()])
            .with_meta("sensor", "cam-3")
            .with_meta("format", "jpeg")
            .with_timestamp(1_700_000_000_000);
        ProvenanceRecord::from_input("item1", input, cert())
    }

    #[test]
    fn record_round_trip() {
        let r = sample();
        let back = ProvenanceRecord::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn input_builder_sorts_metadata() {
        let input = RecordInput::new(Digest::of(b"x"))
            .with_meta("z", "1")
            .with_meta("a", "2");
        assert_eq!(input.metadata[0].0, "a");
        let back = RecordInput::from_bytes(&input.to_bytes()).unwrap();
        assert_eq!(back, input);
    }

    #[test]
    fn meta_lookup() {
        let r = sample();
        assert_eq!(r.meta("sensor"), Some("cam-3"));
        assert_eq!(r.meta("nope"), None);
        assert!(r.has_offchain_data());
        let bare = ProvenanceRecord::from_input("k", RecordInput::new(Digest::ZERO), cert());
        assert!(!bare.has_offchain_data());
    }

    #[test]
    fn history_round_trip_including_delete() {
        let entries = vec![
            HistoryRecord {
                tx_id: Digest::of(b"t1"),
                block: 1,
                record: Some(sample()),
            },
            HistoryRecord {
                tx_id: Digest::of(b"t2"),
                block: 2,
                record: None,
            },
        ];
        let bytes = encode_history(&entries);
        assert_eq!(decode_history(&bytes).unwrap(), entries);
        assert!(decode_history(&[1, 2, 3]).is_err());
    }

    #[test]
    fn lineage_round_trip() {
        let answer = LineageSlice {
            slice: GraphSlice {
                entries: vec![(0, "k".into()), (1, "k".into())],
                truncated: true,
                ..GraphSlice::default()
            },
            records: vec![sample(), sample()],
        };
        assert_eq!(
            LineageSlice::from_bytes(&answer.to_bytes()),
            Ok(answer.clone())
        );
        let mut short = answer;
        short.records.pop();
        assert!(LineageSlice::from_bytes(&short.to_bytes()).is_err());
        assert!(LineageSlice::from_bytes(&[0, 0, 0, 0, 9]).is_err());
    }

    #[test]
    fn graph_slice_round_trip() {
        let slice = GraphSlice {
            entries: vec![(0, "c".into()), (1, "a".into()), (1, "b".into())],
            boundary: vec![(2, "remote".into())],
            edges: vec![("c".into(), "a".into()), ("c".into(), "b".into())],
            truncated: true,
        };
        let back = GraphSlice::from_bytes(&slice.to_bytes()).unwrap();
        assert_eq!(back, slice);
        assert!(!slice.is_empty());
        assert!(GraphSlice::default().is_empty());
        assert!(GraphSlice::from_bytes(&[9, 9, 9]).is_err());
    }

    #[test]
    fn encoding_is_canonical() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
        let mut other = sample();
        other.size += 1;
        assert_ne!(other.to_bytes(), sample().to_bytes());
    }
}
