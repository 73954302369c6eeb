//! Blocks and the hash chain.
//!
//! A block commits to its transactions twice: the header's `data_hash` is
//! the Merkle root of the envelope digests, and `prev_hash` chains to the
//! previous header, making any historical tamper detectable from the tip —
//! the property HyperProv relies on for "tamper-proof" provenance.
//!
//! A block's envelopes are immutable once the orderer has cut it, so they
//! are one shared body: cloning a [`Block`] copies the header and the
//! validation codes and bumps a refcount. The orderer's retained tail,
//! every delivery in flight and every peer's block store point at the
//! same envelope bytes; what a peer owns of a block is its header and its
//! own validation codes. Each holder still hashes and verifies the body
//! itself, and changing it goes through [`Arc::make_mut`], which gives
//! the writer a private copy and leaves every other holder's untouched.

use std::sync::Arc;

use crate::codec::{
    bytes_len, decode_seq, encode_seq, varint_len, CodecError, Decode, Decoder, Encode, Encoder,
    DIGEST_LEN,
};
use crate::hash::Digest;
use crate::merkle::MerkleTree;
use crate::tx::{TxId, ValidationCode};

/// An opaque, canonical-encoded transaction envelope plus its id.
///
/// The ledger layer does not interpret envelope bytes; the Fabric layer
/// encodes/decodes them. Keeping them opaque lets the block store hash and
/// verify blocks without knowing the envelope schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEnvelope {
    /// Transaction id (digest of the signed proposal).
    pub tx_id: TxId,
    /// Canonical envelope bytes, shared with every clone and with the keys
    /// and values a committer reads out of them.
    pub bytes: Arc<[u8]>,
}

impl RawEnvelope {
    /// Digest of the envelope bytes, used as a Merkle leaf.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.bytes)
    }

    /// Length of the canonical encoding.
    fn wire_size(&self) -> u64 {
        DIGEST_LEN + bytes_len(self.bytes.len())
    }
}

impl Encode for RawEnvelope {
    fn encode(&self, enc: &mut Encoder) {
        self.tx_id.encode(enc);
        enc.put_bytes(&self.bytes);
    }
}
impl Decode for RawEnvelope {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RawEnvelope {
            tx_id: TxId::decode(dec)?,
            bytes: dec.get_slice()?.into(),
        })
    }
}

/// The hashed portion of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of this block (0 = genesis).
    pub number: u64,
    /// Hash of the previous block header ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Merkle root over the envelope digests in this block.
    pub data_hash: Digest,
}

impl BlockHeader {
    /// Length of the canonical encoding: the number and two digests.
    const WIRE_SIZE: u64 = 8 + 2 * DIGEST_LEN;

    /// The header hash that the next block chains to.
    pub fn hash(&self) -> Digest {
        self.digest()
    }
}

impl Encode for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.number);
        enc.put_digest(&self.prev_hash);
        enc.put_digest(&self.data_hash);
    }
}
impl Decode for BlockHeader {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(BlockHeader {
            number: dec.get_u64()?,
            prev_hash: dec.get_digest()?,
            data_hash: dec.get_digest()?,
        })
    }
}

/// Per-transaction validation results, filled in by the committing peer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockMetadata {
    /// `codes[i]` is the validation result of transaction `i`.
    pub codes: Vec<ValidationCode>,
}

impl Encode for BlockMetadata {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(&self.codes, enc);
    }
}
impl Decode for BlockMetadata {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(BlockMetadata {
            codes: decode_seq(dec)?,
        })
    }
}

/// A block: header, transaction envelopes, and (post-commit) metadata.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{Block, Digest, RawEnvelope, TxId};
///
/// let env = RawEnvelope { tx_id: TxId(Digest::of(b"p")), bytes: b"payload".as_slice().into() };
/// let genesis = Block::build(0, Digest::ZERO, vec![env]);
/// assert!(genesis.verify_data_hash());
/// let next = Block::build(1, genesis.header.hash(), vec![]);
/// assert_eq!(next.header.prev_hash, genesis.header.hash());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The hashed header.
    pub header: BlockHeader,
    /// The ordered transaction envelopes: one immutable body shared by
    /// every clone of this block.
    pub envelopes: Arc<[RawEnvelope]>,
    /// Validation metadata; empty until the committer fills it in.
    pub metadata: BlockMetadata,
}

impl Block {
    /// Builds a block with the correct `data_hash` over `envelopes`; a
    /// body that is already shared is taken as it is, not copied.
    pub fn build(
        number: u64,
        prev_hash: Digest,
        envelopes: impl Into<Arc<[RawEnvelope]>>,
    ) -> Block {
        let envelopes = envelopes.into();
        let leaves: Vec<Digest> = envelopes.iter().map(RawEnvelope::digest).collect();
        Block {
            header: BlockHeader {
                number,
                prev_hash,
                data_hash: MerkleTree::root_of(&leaves),
            },
            envelopes,
            metadata: BlockMetadata::default(),
        }
    }

    /// Recomputes the Merkle root and compares it to the header.
    pub fn verify_data_hash(&self) -> bool {
        let leaves: Vec<Digest> = self.envelopes.iter().map(RawEnvelope::digest).collect();
        MerkleTree::root_of(&leaves) == self.header.data_hash
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// True if the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Wire size of the block, for network and CPU cost models: the
    /// length of its canonical encoding, added up without producing it.
    pub fn wire_size(&self) -> u64 {
        let envelopes: u64 = self.envelopes.iter().map(RawEnvelope::wire_size).sum();
        // Every validation code encodes as one byte.
        let codes = self.metadata.codes.len() as u64;
        BlockHeader::WIRE_SIZE
            + varint_len(self.envelopes.len() as u64)
            + envelopes
            + varint_len(codes)
            + codes
    }
}

impl Encode for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        encode_seq(&self.envelopes, enc);
        self.metadata.encode(enc);
    }
}
impl Decode for Block {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Block {
            header: BlockHeader::decode(dec)?,
            envelopes: decode_seq(dec)?.into(),
            metadata: BlockMetadata::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(tag: &[u8]) -> RawEnvelope {
        RawEnvelope {
            tx_id: TxId(Digest::of(tag)),
            bytes: tag.into(),
        }
    }

    #[test]
    fn build_sets_consistent_data_hash() {
        let b = Block::build(0, Digest::ZERO, vec![env(b"a"), env(b"b")]);
        assert!(b.verify_data_hash());
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_block_data_hash_is_zero() {
        let b = Block::build(5, Digest::of(b"prev"), vec![]);
        assert_eq!(b.header.data_hash, Digest::ZERO);
        assert!(b.verify_data_hash());
        assert!(b.is_empty());
    }

    #[test]
    fn tampered_envelope_detected() {
        let mut b = Block::build(0, Digest::ZERO, vec![env(b"a"), env(b"b")]);
        Arc::make_mut(&mut b.envelopes)[1].bytes = b"tampered".as_slice().into();
        assert!(!b.verify_data_hash());
    }

    #[test]
    fn clone_shares_the_body_until_one_side_writes() {
        let original = Block::build(0, Digest::ZERO, vec![env(b"a"), env(b"b")]);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.envelopes, &copy.envelopes));
        // Validation codes are per holder and do not unshare the body.
        copy.metadata.codes = vec![ValidationCode::Valid, ValidationCode::BadSignature];
        assert!(Arc::ptr_eq(&original.envelopes, &copy.envelopes));
        assert!(original.metadata.codes.is_empty());
        // A write to one clone's body is private to that clone.
        Arc::make_mut(&mut copy.envelopes)[0].bytes = b"tampered".as_slice().into();
        assert!(!Arc::ptr_eq(&original.envelopes, &copy.envelopes));
        assert!(!copy.verify_data_hash());
        assert!(original.verify_data_hash());
        assert_eq!(*original.envelopes[0].bytes, *b"a");
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let h = BlockHeader {
            number: 1,
            prev_hash: Digest::of(b"p"),
            data_hash: Digest::of(b"d"),
        };
        let base = h.hash();
        let mut h2 = h;
        h2.number = 2;
        assert_ne!(h2.hash(), base);
        let mut h3 = h;
        h3.prev_hash = Digest::of(b"q");
        assert_ne!(h3.hash(), base);
        let mut h4 = h;
        h4.data_hash = Digest::of(b"e");
        assert_ne!(h4.hash(), base);
    }

    #[test]
    fn block_round_trip_with_metadata() {
        let mut b = Block::build(3, Digest::of(b"prev"), vec![env(b"x"), env(b"y")]);
        b.metadata.codes = vec![ValidationCode::Valid, ValidationCode::MvccReadConflict];
        let back = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = Block::build(0, Digest::ZERO, vec![env(b"a")]);
        let big = Block::build(0, Digest::ZERO, vec![env(&[0u8; 1000])]);
        assert!(big.wire_size() > small.wire_size() + 900);
    }
}
