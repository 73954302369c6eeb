//! # hyperprov-ledger
//!
//! Blockchain ledger substrate for the HyperProv reproduction — the pieces
//! Hyperledger Fabric gets from its `common`, `ledger` and `protoutil`
//! packages, built from scratch:
//!
//! * [`Sha256`]/[`Digest`]/[`hmac_sha256`] — hashing (FIPS 180-4, validated
//!   against NIST/RFC vectors),
//! * [`Encode`]/[`Decode`] — a canonical deterministic binary codec,
//! * [`MerkleTree`]/[`MerkleProof`] — block data commitments,
//! * [`Block`]/[`BlockHeader`]/[`BlockStore`] — the hash chain,
//! * [`RwSet`]/[`Version`]/[`ValidationCode`] — transaction simulation
//!   artefacts for execute-order-validate,
//! * [`StateDb`] — the versioned world state with range queries, whose
//!   entries also hold every key's write history ([`History`]) for
//!   provenance queries, holding keys and values as [`Shared`] ranges of
//!   the envelope bytes that carried them.
//!
//! This crate is deliberately independent of the simulator: it is pure data
//! structures and can be reused by a wall-clock deployment.

// Unsafe is denied everywhere except the one SHA-NI intrinsics module in
// `hash`, which opts back in locally (runtime-feature-gated SIMD needs
// `unsafe` by construction).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod blockstore;
mod channel;
mod codec;
mod hash;
mod history;
mod merkle;
mod provgraph;
mod shared;
mod snapshot;
mod statedb;
mod tx;

pub use block::{Block, BlockHeader, BlockMetadata, RawEnvelope};
pub use blockstore::{BlockStore, ChainError, CheckedBlock};
pub use channel::{ChannelId, DEFAULT_CHANNEL};
pub use codec::{
    bytes_len, decode_seq, encode_seq, varint_len, CodecError, Decode, Decoder, Encode, Encoder,
    DIGEST_LEN,
};
pub use hash::{hmac_sha256, hmac_sha256_parts, Digest, Sha256};
pub use history::{History, HistoryDb, HistoryEntry, KeyHistory};
pub use merkle::{MerkleProof, MerkleTree};
pub use provgraph::{Direction, GraphIndexer, GraphUpdate, ProvGraph, Traversal, TraversalLimits};
pub use shared::{Shared, SharedBytes, SharedStr};
pub use snapshot::{
    HistoryRecord, Snapshot, SnapshotChunk, SnapshotEntry, SnapshotError, SnapshotManifest,
    SnapshotPart, SnapshotTail, DEFAULT_CHUNK_ENTRIES,
};
pub use statedb::{StateDb, VersionedValue};
pub use tx::{KeyParts, KvRead, KvWrite, RwSet, StateKey, TxId, ValidationCode, Version};
