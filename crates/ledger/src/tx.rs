//! Transaction primitives: identifiers, state versions, read/write sets and
//! validation codes.
//!
//! The execute-order-validate pipeline simulates a transaction against a
//! state snapshot, recording every read (with the version it observed) and
//! every write. At commit time the committer re-checks the read versions
//! against current state — Fabric's MVCC rule — and marks the transaction
//! valid or invalid in the block metadata.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

use crate::codec::{
    bytes_len, decode_seq, encode_seq, varint_len, CodecError, Decode, Decoder, Encode, Encoder,
};
use crate::hash::Digest;
use crate::shared::{SharedBytes, SharedStr};

/// A transaction identifier: the digest of the signed proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(pub Digest);

impl TxId {
    /// Short prefix for logs.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

impl Encode for TxId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
}
impl Decode for TxId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(TxId(Digest::decode(dec)?))
    }
}

/// The height at which a state value was last written: `(block, tx index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Block number of the writing transaction.
    pub block_num: u64,
    /// Index of the writing transaction within its block.
    pub tx_num: u32,
}

impl Version {
    /// Length of the canonical encoding: block number and tx index.
    pub(crate) const WIRE_SIZE: u64 = 8 + 4;

    /// Creates a version.
    pub fn new(block_num: u64, tx_num: u32) -> Self {
        Version { block_num, tx_num }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block_num, self.tx_num)
    }
}

impl Encode for Version {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.block_num);
        enc.put_u32(self.tx_num);
    }
}
impl Decode for Version {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Version {
            block_num: dec.get_u64()?,
            tx_num: dec.get_u32()?,
        })
    }
}

/// A namespaced state key: `(chaincode namespace, key)`.
///
/// Both halves are shared strings, so the world state and its history
/// hold no copy of a key between them — a key a committer read out of an
/// envelope is two ranges of the envelope's bytes — and cloning a `StateKey` bumps two refcounts. It compares,
/// orders, hashes and encodes exactly like the `(String, String)` pair it
/// stands for.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateKey {
    /// Chaincode namespace the key belongs to.
    pub namespace: SharedStr,
    /// The key within the namespace.
    pub key: SharedStr,
}

impl StateKey {
    /// Creates a key in a namespace.
    pub fn new(namespace: impl Into<SharedStr>, key: impl Into<SharedStr>) -> Self {
        StateKey {
            namespace: namespace.into(),
            key: key.into(),
        }
    }

    /// Length of the canonical encoding.
    pub(crate) fn wire_size(&self) -> u64 {
        bytes_len(self.namespace.len()) + bytes_len(self.key.len())
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", &*self.namespace, &*self.key)
    }
}

impl Encode for StateKey {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.namespace);
        enc.put_str(&self.key);
    }
}
impl Decode for StateKey {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StateKey {
            namespace: SharedStr::decode(dec)?,
            key: SharedStr::decode(dec)?,
        })
    }
}

/// A state key's namespace and key, as bytes: what a world-state lookup
/// takes, so that a `(&str, &str)` pair — a read's key where it lies in an
/// envelope — finds a [`StateKey`]'s entry without one being built.
pub trait KeyParts {
    /// The namespace's bytes and the key's.
    fn parts(&self) -> (&[u8], &[u8]);
}

impl KeyParts for StateKey {
    fn parts(&self) -> (&[u8], &[u8]) {
        (self.namespace.as_bytes(), self.key.as_bytes())
    }
}
impl KeyParts for (&str, &str) {
    fn parts(&self) -> (&[u8], &[u8]) {
        (self.0.as_bytes(), self.1.as_bytes())
    }
}

// Parts order as the keys they name do.
impl<'a> Borrow<dyn KeyParts + 'a> for StateKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}
impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}
impl Eq for dyn KeyParts + '_ {}
impl PartialOrd for dyn KeyParts + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for dyn KeyParts + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// A recorded read: the key and the version observed (None = key absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRead {
    /// The key that was read.
    pub key: StateKey,
    /// The version observed at simulation time; `None` if the key did not
    /// exist.
    pub version: Option<Version>,
}

impl Encode for KvRead {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.version.encode(enc);
    }
}
impl Decode for KvRead {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(KvRead {
            key: StateKey::decode(dec)?,
            version: Option::<Version>::decode(dec)?,
        })
    }
}

impl KvRead {
    /// One encoded read, borrowed from the input: its namespace and key,
    /// and the version it observed. Fails exactly when [`Decode::decode`]
    /// would.
    pub fn decode_borrowed<'a>(
        dec: &mut Decoder<'a>,
    ) -> Result<((&'a str, &'a str), Option<Version>), CodecError> {
        let key = (dec.get_str_ref()?, dec.get_str_ref()?);
        Ok((key, Option::<Version>::decode(dec)?))
    }
}

/// A recorded write: the key and the new value (`None` = delete).
///
/// The value is a shared byte string: applying the write to the world
/// state keeps a reference to the bytes the write holds — for a write a
/// committer read out of an envelope, the envelope's — instead of a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvWrite {
    /// The key being written.
    pub key: StateKey,
    /// New value, or `None` for a deletion.
    pub value: Option<SharedBytes>,
}

impl Encode for KvWrite {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.value.encode(enc);
    }
}
impl Decode for KvWrite {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(KvWrite {
            key: StateKey::decode(dec)?,
            value: Option::<SharedBytes>::decode(dec)?,
        })
    }
}

impl KvWrite {
    /// Validates one encoded write in place, as [`KvRead::skip`] does a
    /// read; answers the length of its value (0 for a deletion).
    pub fn skip(dec: &mut Decoder<'_>) -> Result<usize, CodecError> {
        dec.get_str_ref()?;
        dec.get_str_ref()?;
        Ok(match dec.get_option_tag()? {
            true => dec.get_slice()?.len(),
            false => 0,
        })
    }
}

/// The read/write set produced by simulating a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RwSet {
    /// Keys read, with observed versions, in first-read order.
    pub reads: Vec<KvRead>,
    /// Keys written, in last-write-wins order (deduplicated by key).
    pub writes: Vec<KvWrite>,
}

impl RwSet {
    /// Creates an empty read/write set.
    pub fn new() -> Self {
        RwSet::default()
    }

    /// True if the transaction neither read nor wrote state.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Length of the canonical encoding, added up without producing it.
    pub fn wire_size(&self) -> u64 {
        // An option's tag is one byte.
        let read = |r: &KvRead| r.key.wire_size() + 1 + r.version.map_or(0, |_| Version::WIRE_SIZE);
        let write = |w: &KvWrite| {
            w.key.wire_size() + 1 + w.value.as_ref().map_or(0, |v| bytes_len(v.len()))
        };
        varint_len(self.reads.len() as u64)
            + self.reads.iter().map(read).sum::<u64>()
            + varint_len(self.writes.len() as u64)
            + self.writes.iter().map(write).sum::<u64>()
    }
}

impl Encode for RwSet {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(&self.reads, enc);
        encode_seq(&self.writes, enc);
    }
}
impl Decode for RwSet {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RwSet {
            reads: decode_seq(dec)?,
            writes: decode_seq(dec)?,
        })
    }
}

/// Why a committed transaction was or wasn't applied to state.
///
/// Mirrors Fabric's `TxValidationCode` values that matter to HyperProv.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationCode {
    /// Applied to state.
    Valid,
    /// A read version no longer matches current state (MVCC conflict).
    MvccReadConflict,
    /// The endorsements do not satisfy the chaincode's policy.
    EndorsementPolicyFailure,
    /// An endorsement signature failed verification.
    BadSignature,
    /// The same transaction id was committed before.
    DuplicateTxId,
    /// Endorsing peers returned mismatching read/write sets.
    EndorsementMismatch,
}

impl ValidationCode {
    /// True only for [`ValidationCode::Valid`].
    pub fn is_valid(self) -> bool {
        self == ValidationCode::Valid
    }

    /// Stable numeric code used in block metadata.
    pub fn as_u8(self) -> u8 {
        match self {
            ValidationCode::Valid => 0,
            ValidationCode::MvccReadConflict => 1,
            ValidationCode::EndorsementPolicyFailure => 2,
            ValidationCode::BadSignature => 3,
            ValidationCode::DuplicateTxId => 4,
            ValidationCode::EndorsementMismatch => 5,
        }
    }

    /// Parses a numeric code.
    pub fn from_u8(v: u8) -> Option<ValidationCode> {
        Some(match v {
            0 => ValidationCode::Valid,
            1 => ValidationCode::MvccReadConflict,
            2 => ValidationCode::EndorsementPolicyFailure,
            3 => ValidationCode::BadSignature,
            4 => ValidationCode::DuplicateTxId,
            5 => ValidationCode::EndorsementMismatch,
            _ => return None,
        })
    }
}

impl fmt::Display for ValidationCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValidationCode::Valid => "VALID",
            ValidationCode::MvccReadConflict => "MVCC_READ_CONFLICT",
            ValidationCode::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
            ValidationCode::BadSignature => "BAD_SIGNATURE",
            ValidationCode::DuplicateTxId => "DUPLICATE_TXID",
            ValidationCode::EndorsementMismatch => "ENDORSEMENT_MISMATCH",
        };
        f.write_str(s)
    }
}

impl Encode for ValidationCode {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.as_u8());
    }
}
impl Decode for ValidationCode {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        ValidationCode::from_u8(dec.get_u8()?).ok_or(CodecError::Invalid("unknown validation code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwset_round_trip() {
        let rw = RwSet {
            reads: vec![
                KvRead {
                    key: StateKey::new("cc", "k1"),
                    version: Some(Version::new(3, 2)),
                },
                KvRead {
                    key: StateKey::new("cc", "missing"),
                    version: None,
                },
            ],
            writes: vec![
                KvWrite {
                    key: StateKey::new("cc", "k1"),
                    value: Some(vec![1, 2, 3].into()),
                },
                KvWrite {
                    key: StateKey::new("cc", "k2"),
                    value: None,
                },
            ],
        };
        let back = RwSet::from_bytes(&rw.to_bytes()).unwrap();
        assert_eq!(back, rw);
        assert!(!back.is_empty());
        assert!(RwSet::new().is_empty());
    }

    #[test]
    fn validation_codes_round_trip() {
        for code in [
            ValidationCode::Valid,
            ValidationCode::MvccReadConflict,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::BadSignature,
            ValidationCode::DuplicateTxId,
            ValidationCode::EndorsementMismatch,
        ] {
            assert_eq!(ValidationCode::from_u8(code.as_u8()), Some(code));
            let bytes = code.to_bytes();
            assert_eq!(ValidationCode::from_bytes(&bytes).unwrap(), code);
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ValidationCode::from_u8(99), None);
        assert!(ValidationCode::Valid.is_valid());
        assert!(!ValidationCode::MvccReadConflict.is_valid());
    }

    #[test]
    fn version_ordering_is_lexicographic() {
        assert!(Version::new(1, 5) < Version::new(2, 0));
        assert!(Version::new(2, 0) < Version::new(2, 1));
        assert_eq!(Version::new(2, 1).to_string(), "2:1");
    }

    #[test]
    fn state_key_display_and_order() {
        let a = StateKey::new("cc", "a");
        let b = StateKey::new("cc", "b");
        let other_ns = StateKey::new("dd", "a");
        assert!(a < b);
        assert!(b < other_ns);
        assert_eq!(a.to_string(), "cc/a");
    }

    #[test]
    fn state_key_orders_hashes_and_encodes_like_a_pair_of_strings() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let names = ["", "k", "k1", "k10", "k2", "l"];
        for a in names {
            for b in names {
                assert_eq!(
                    StateKey::new("cc", a).cmp(&StateKey::new("cc", b)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
            // Equal keys from separate allocations hash alike, and like
            // the (namespace, key) string pair.
            let key = StateKey::new("cc", a);
            assert_eq!(hash_of(&key), hash_of(&StateKey::new("cc", a.to_owned())));
            assert_eq!(hash_of(&key), hash_of(&("cc", a)));
            let mut pair = Encoder::new();
            pair.put_str("cc");
            pair.put_str(a);
            assert_eq!(key.to_bytes(), pair.into_bytes());
        }
        // Pinned on the commit before the key became a shared string.
        assert_eq!(
            StateKey::new("cc", "k001").digest().to_hex(),
            "1be29157f685a24f0182aa22da9f377b53650ba6314ac7d9ffc3ff8a3c30fa45"
        );
    }

    #[test]
    fn txid_display() {
        let id = TxId(Digest::of(b"p"));
        assert!(id.to_string().starts_with("tx:"));
        assert_eq!(TxId::from_bytes(&id.to_bytes()).unwrap(), id);
    }
}
