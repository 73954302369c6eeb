//! Append-only block storage with chain verification.

use std::fmt;
use std::io::{self, Read, Write};

use crate::block::{Block, BlockMetadata};
use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::hash::Digest;

/// Magic prefix of the persisted chain format (unpruned, base 0).
const CHAIN_MAGIC: &[u8; 8] = b"HPCHAIN1";

/// Magic prefix of the pruned chain format: adds the base height and the
/// header hash of the last pruned block before the block sequence.
const CHAIN_MAGIC_V2: &[u8; 8] = b"HPCHAIN2";

/// Error appending or verifying blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Block number is not `height()`.
    WrongNumber {
        /// Number carried by the offered block.
        got: u64,
        /// Number the chain expects next.
        expected: u64,
    },
    /// `prev_hash` does not match the current tip.
    BrokenLink {
        /// Height at which the link is broken.
        at: u64,
    },
    /// `data_hash` does not match the block's envelopes.
    BadDataHash {
        /// Height of the offending block.
        at: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::WrongNumber { got, expected } => {
                write!(f, "block number {got} where {expected} was expected")
            }
            ChainError::BrokenLink { at } => write!(f, "prev_hash mismatch at height {at}"),
            ChainError::BadDataHash { at } => write!(f, "data hash mismatch at height {at}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A block that [`BlockStore::check_extends`] found to extend its chain:
/// right number, right link, and a body that hashes to the header's
/// `data_hash`. The header and body can no longer change — only the
/// validation metadata can — so [`BlockStore::append_checked`] does not
/// hash the body a second time.
#[derive(Debug)]
pub struct CheckedBlock(Block);

impl CheckedBlock {
    /// The validation metadata, for the committer to fill in.
    pub fn metadata_mut(&mut self) -> &mut BlockMetadata {
        &mut self.0.metadata
    }
}

impl std::ops::Deref for CheckedBlock {
    type Target = Block;
    fn deref(&self) -> &Block {
        &self.0
    }
}

/// An append-only chain of verified blocks, optionally pruned behind a
/// snapshot horizon.
///
/// A pruned store starts at `base_height` instead of genesis: blocks
/// `[0, base_height)` have been compacted away and `base_hash` pins the
/// header hash of block `base_height - 1`, so chain verification still
/// anchors every retained block.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{Block, BlockStore, Digest};
///
/// let mut store = BlockStore::new();
/// let genesis = Block::build(0, Digest::ZERO, vec![]);
/// store.append(genesis)?;
/// assert_eq!(store.height(), 1);
/// # Ok::<(), hyperprov_ledger::ChainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    blocks: Vec<Block>,
    /// Number of the first retained block; 0 for an unpruned store.
    base_height: u64,
    /// Header hash of block `base_height - 1` ([`Digest::ZERO`] at base 0).
    base_hash: Digest,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Creates an empty store whose chain resumes at `base_height`, with
    /// `base_hash` the header hash of block `base_height - 1` — the shape
    /// a snapshot bootstrap produces before delta blocks are appended.
    pub fn with_base(base_height: u64, base_hash: Digest) -> Self {
        BlockStore {
            base_height,
            base_hash,
            ..BlockStore::default()
        }
    }

    /// Chain height (the next block number). Includes pruned blocks.
    pub fn height(&self) -> u64 {
        self.base_height + self.blocks.len() as u64
    }

    /// Number of the first block still retained (0 when unpruned).
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Number of blocks physically retained.
    pub fn retained(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Header hash of the last block; for an empty pruned store this is
    /// the pinned base hash, [`Digest::ZERO`] at genesis.
    pub fn tip_hash(&self) -> Digest {
        self.blocks
            .last()
            .map(|b| b.header.hash())
            .unwrap_or(self.base_hash)
    }

    /// Drops every retained block below `horizon`, compacting the store
    /// behind a snapshot that already covers blocks `[0, horizon)`.
    /// Returns the number of blocks pruned; a horizon at or below the
    /// current base is a no-op and a horizon above `height()` is clamped.
    pub fn prune_to(&mut self, horizon: u64) -> u64 {
        let horizon = horizon.min(self.height());
        if horizon <= self.base_height {
            return 0;
        }
        let drop_n = (horizon - self.base_height) as usize;
        self.base_hash = self.blocks[drop_n - 1].header.hash();
        self.blocks.drain(..drop_n);
        self.base_height = horizon;
        drop_n as u64
    }

    /// Verifies that `block` extends this chain: its number is
    /// `height()`, its `prev_hash` is the tip, and its envelopes hash to
    /// its `data_hash`. A committer runs this before it applies any of
    /// the block's writes and hands the result to
    /// [`BlockStore::append_checked`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the number, link, or data hash is wrong.
    pub fn check_extends(&self, block: Block) -> Result<CheckedBlock, ChainError> {
        self.check_position(&block)?;
        if !block.verify_data_hash() {
            return Err(ChainError::BadDataHash {
                at: block.header.number,
            });
        }
        Ok(CheckedBlock(block))
    }

    fn check_position(&self, block: &Block) -> Result<(), ChainError> {
        let expected = self.height();
        if block.header.number != expected {
            return Err(ChainError::WrongNumber {
                got: block.header.number,
                expected,
            });
        }
        if block.header.prev_hash != self.tip_hash() {
            return Err(ChainError::BrokenLink { at: expected });
        }
        Ok(())
    }

    /// Verifies and appends a block.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the number, link, or data hash is wrong;
    /// the store is unchanged on error.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        let checked = self.check_extends(block)?;
        self.append_checked(checked)
    }

    /// Appends a block that passed [`BlockStore::check_extends`]. Number
    /// and link are compared with the chain again, as it may have grown
    /// since the check; the body is not hashed again.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block no longer extends the chain;
    /// the store is unchanged on error.
    pub fn append_checked(&mut self, block: CheckedBlock) -> Result<(), ChainError> {
        let block = block.0;
        self.check_position(&block)?;
        self.blocks.push(block);
        Ok(())
    }

    /// Mutable access to a retained block, past the checks `append` made —
    /// for simulating tampering with one replica's durable chain (the
    /// on-chain counterpart of the off-chain store's `tamper`).
    /// [`BlockStore::verify_chain`] is what detects the result.
    pub fn tamper(&mut self, number: u64) -> Option<&mut Block> {
        let idx = number.checked_sub(self.base_height)?;
        self.blocks.get_mut(idx as usize)
    }

    /// The block at `number`, if committed and not pruned.
    pub fn block(&self, number: u64) -> Option<&Block> {
        let idx = number.checked_sub(self.base_height)?;
        self.blocks.get(idx as usize)
    }

    /// Iterates all *retained* blocks in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// Total transactions in retained blocks.
    pub fn tx_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.len() as u64).sum()
    }

    /// Serialises the whole chain to a writer (a `&mut` reference works
    /// too, since `Write` is implemented for `&mut W`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let mut enc = Encoder::new();
        if self.base_height == 0 {
            // Unpruned stores keep the original byte-identical format.
            writer.write_all(CHAIN_MAGIC)?;
        } else {
            writer.write_all(CHAIN_MAGIC_V2)?;
            enc.put_u64(self.base_height);
            enc.put_digest(&self.base_hash);
        }
        enc.put_varint(self.blocks.len() as u64);
        for block in &self.blocks {
            block.encode(&mut enc);
        }
        writer.write_all(&enc.into_bytes())?;
        Ok(())
    }

    /// Reads a chain back, re-verifying every hash link and data hash —
    /// a tampered file is rejected, not loaded.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic, malformed encoding or a
    /// chain that fails verification; propagates reader I/O errors.
    pub fn read_from<R: Read>(mut reader: R) -> io::Result<BlockStore> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        let pruned = match &magic {
            m if m == CHAIN_MAGIC => false,
            m if m == CHAIN_MAGIC_V2 => true,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a HyperProv chain file",
                ));
            }
        };
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        let mut dec = Decoder::new(&buf);
        let invalid = |e: crate::codec::CodecError| {
            io::Error::new(io::ErrorKind::InvalidData, format!("malformed chain: {e}"))
        };
        let mut store = if pruned {
            let base_height = dec.get_u64().map_err(invalid)?;
            let base_hash = dec.get_digest().map_err(invalid)?;
            if base_height == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "pruned chain with base height 0",
                ));
            }
            BlockStore::with_base(base_height, base_hash)
        } else {
            BlockStore::new()
        };
        let n = dec.get_varint().map_err(invalid)?;
        for _ in 0..n {
            let block = Block::decode(&mut dec).map_err(invalid)?;
            store.append(block).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("chain invalid: {e}"))
            })?;
        }
        dec.finish().map_err(invalid)?;
        Ok(store)
    }

    /// Re-verifies the retained chain (hash links and data hashes) from
    /// the pruning base, returning the first inconsistency. Used by
    /// tamper-detection audits.
    pub fn verify_chain(&self) -> Result<(), ChainError> {
        let mut prev = self.base_hash;
        for (i, block) in self.blocks.iter().enumerate() {
            let number = self.base_height + i as u64;
            if block.header.number != number {
                return Err(ChainError::WrongNumber {
                    got: block.header.number,
                    expected: number,
                });
            }
            if block.header.prev_hash != prev {
                return Err(ChainError::BrokenLink { at: number });
            }
            if !block.verify_data_hash() {
                return Err(ChainError::BadDataHash { at: number });
            }
            prev = block.header.hash();
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a BlockStore {
    type Item = &'a Block;
    type IntoIter = std::slice::Iter<'a, Block>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RawEnvelope;
    use crate::tx::TxId;
    use std::sync::Arc;

    fn env(tag: &[u8]) -> RawEnvelope {
        RawEnvelope {
            tx_id: TxId(Digest::of(tag)),
            bytes: tag.into(),
        }
    }

    fn chain_of(n: u64) -> BlockStore {
        let mut store = BlockStore::new();
        for i in 0..n {
            let block = Block::build(i, store.tip_hash(), vec![env(format!("tx{i}").as_bytes())]);
            store.append(block).unwrap();
        }
        store
    }

    #[test]
    fn append_and_lookup() {
        let store = chain_of(3);
        assert_eq!(store.height(), 3);
        assert_eq!(store.tx_count(), 3);
        assert_eq!(store.block(2).unwrap().header.number, 2);
        assert!(store.block(3).is_none());
    }

    #[test]
    fn wrong_number_rejected() {
        let mut store = chain_of(1);
        let bad = Block::build(5, store.tip_hash(), vec![]);
        assert_eq!(
            store.append(bad),
            Err(ChainError::WrongNumber {
                got: 5,
                expected: 1
            })
        );
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn broken_link_rejected() {
        let mut store = chain_of(1);
        let bad = Block::build(1, Digest::of(b"wrong"), vec![]);
        assert_eq!(store.append(bad), Err(ChainError::BrokenLink { at: 1 }));
    }

    #[test]
    fn bad_data_hash_rejected() {
        let mut store = chain_of(1);
        let mut bad = Block::build(1, store.tip_hash(), vec![env(b"x")]);
        Arc::make_mut(&mut bad.envelopes)[0].bytes = b"tampered".as_slice().into();
        assert_eq!(store.append(bad), Err(ChainError::BadDataHash { at: 1 }));
    }

    #[test]
    fn verify_chain_detects_retroactive_tamper() {
        let mut store = chain_of(5);
        assert!(store.verify_chain().is_ok());
        // Tamper with an old envelope directly.
        Arc::make_mut(&mut store.tamper(2).unwrap().envelopes)[0].bytes = b"evil".as_slice().into();
        assert_eq!(store.verify_chain(), Err(ChainError::BadDataHash { at: 2 }));
        // Recompute that block's data hash to hide the tamper: the link
        // from block 3 now breaks instead.
        let envs = store.blocks[2].envelopes.to_vec();
        let rebuilt = Block::build(2, store.blocks[1].header.hash(), envs);
        store.blocks[2] = rebuilt;
        assert_eq!(store.verify_chain(), Err(ChainError::BrokenLink { at: 3 }));
    }

    #[test]
    fn iterator_walks_in_order() {
        let store = chain_of(4);
        let numbers: Vec<u64> = store.iter().map(|b| b.header.number).collect();
        assert_eq!(numbers, vec![0, 1, 2, 3]);
        let numbers2: Vec<u64> = (&store).into_iter().map(|b| b.header.number).collect();
        assert_eq!(numbers2, numbers);
    }

    #[test]
    fn persistence_round_trips_and_verifies() {
        let store = chain_of(5);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        let loaded = BlockStore::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.height(), 5);
        assert_eq!(loaded.tip_hash(), store.tip_hash());
        assert_eq!(loaded.tx_count(), store.tx_count());
    }

    #[test]
    fn persistence_rejects_bad_magic_and_tampering() {
        let store = chain_of(3);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(BlockStore::read_from(bad.as_slice()).is_err());
        // Flip a byte inside a block body: the data hash check fires.
        let mut tampered = buf.clone();
        let mid = buf.len() - 4;
        tampered[mid] ^= 0xFF;
        assert!(BlockStore::read_from(tampered.as_slice()).is_err());
        // Truncated file.
        assert!(BlockStore::read_from(&buf[..buf.len() - 3]).is_err());
        // Empty chain round-trips.
        let empty = BlockStore::new();
        let mut buf = Vec::new();
        empty.write_to(&mut buf).unwrap();
        assert_eq!(BlockStore::read_from(buf.as_slice()).unwrap().height(), 0);
    }

    #[test]
    fn prune_drops_blocks_and_keeps_chain_verifiable() {
        let mut store = chain_of(8);
        let tip = store.tip_hash();
        assert_eq!(store.prune_to(5), 5);
        assert_eq!(store.base_height(), 5);
        assert_eq!(store.height(), 8);
        assert_eq!(store.retained(), 3);
        assert_eq!(store.tip_hash(), tip);
        // Pruned blocks are gone…
        assert!(store.block(4).is_none());
        // …retained ones still resolve with absolute numbers.
        assert_eq!(store.block(6).unwrap().header.number, 6);
        assert_eq!(store.tx_count(), 3);
        store.verify_chain().unwrap();
        // Appending continues from the tip as usual.
        let next = Block::build(8, store.tip_hash(), vec![env(b"tx8")]);
        store.append(next).unwrap();
        assert_eq!(store.height(), 9);
        store.verify_chain().unwrap();
    }

    #[test]
    fn prune_is_idempotent_and_clamped() {
        let mut store = chain_of(4);
        assert_eq!(store.prune_to(2), 2);
        assert_eq!(store.prune_to(2), 0);
        assert_eq!(store.prune_to(1), 0);
        // Horizon above the height prunes everything retained.
        assert_eq!(store.prune_to(99), 2);
        assert_eq!(store.base_height(), 4);
        assert_eq!(store.retained(), 0);
        let tip = store.tip_hash();
        assert_ne!(tip, Digest::ZERO);
        store.verify_chain().unwrap();
        let next = Block::build(4, tip, vec![env(b"tx4b")]);
        store.append(next).unwrap();
    }

    #[test]
    fn with_base_resumes_mid_chain() {
        // Simulate a snapshot bootstrap: a full replica hands block 3's
        // header hash to a fresh store that only sees blocks 3..5.
        let full = chain_of(5);
        let mut store = BlockStore::with_base(3, full.block(2).unwrap().header.hash());
        assert_eq!(store.height(), 3);
        assert_eq!(store.tip_hash(), full.block(2).unwrap().header.hash());
        for n in 3..5 {
            store.append(full.block(n).unwrap().clone()).unwrap();
        }
        store.verify_chain().unwrap();
        assert_eq!(store.tip_hash(), full.tip_hash());
        // A delta block with the wrong link is still rejected.
        let bad = Block::build(5, Digest::of(b"wrong"), vec![]);
        assert_eq!(store.append(bad), Err(ChainError::BrokenLink { at: 5 }));
    }

    #[test]
    fn verify_chain_detects_tamper_behind_base() {
        let mut store = chain_of(6);
        store.prune_to(3);
        // Tampering with the pinned base hash breaks the first link.
        store.base_hash = Digest::of(b"forged");
        assert_eq!(store.verify_chain(), Err(ChainError::BrokenLink { at: 3 }));
    }

    #[test]
    fn pruned_persistence_round_trips() {
        let mut store = chain_of(7);
        store.prune_to(4);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"HPCHAIN2");
        let loaded = BlockStore::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.base_height(), 4);
        assert_eq!(loaded.height(), 7);
        assert_eq!(loaded.tip_hash(), store.tip_hash());
        loaded.verify_chain().unwrap();
        // Unpruned stores keep the v1 magic byte-for-byte.
        let mut v1 = Vec::new();
        chain_of(2).write_to(&mut v1).unwrap();
        assert_eq!(&v1[..8], b"HPCHAIN1");
    }

    // Fuzz-style corruption suite: every malformed input must surface a
    // clean io::Error — no panics, no partially-loaded stores.

    #[test]
    fn read_from_truncated_header() {
        for len in 0..8 {
            let buf = vec![b'H'; len];
            let err = BlockStore::read_from(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "len {len}");
        }
        // A v2 header cut off inside the base fields.
        let mut store = chain_of(3);
        store.prune_to(2);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        for len in 8..48 {
            let err = BlockStore::read_from(&buf[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
        }
    }

    #[test]
    fn read_from_bad_length_prefix() {
        // A count far larger than the payload must error, not allocate
        // or loop: the first missing block fails to decode.
        let mut buf = CHAIN_MAGIC.to_vec();
        let mut enc = Encoder::new();
        enc.put_varint(u64::MAX >> 1);
        buf.extend_from_slice(&enc.into_bytes());
        let err = BlockStore::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An over-long varint (overflow) is also clean.
        let mut buf = CHAIN_MAGIC.to_vec();
        buf.extend_from_slice(&[0xFF; 10]);
        let err = BlockStore::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_from_garbage_tail() {
        let store = chain_of(2);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        buf.extend_from_slice(b"garbage after the chain");
        let err = BlockStore::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_from_truncated_mid_block_every_offset() {
        // Truncate at *every* possible offset: each one must yield a
        // clean error (or, before the magic completes, UnexpectedEof).
        let store = chain_of(3);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        for len in 0..buf.len() {
            let err = BlockStore::read_from(&buf[..len]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "offset {len}: unexpected kind {:?}",
                err.kind()
            );
        }
    }

    #[test]
    fn read_from_random_byte_flips_never_panic() {
        // Deterministic single-byte corruption sweep over the payload:
        // any successful load must still verify as a coherent chain.
        let store = chain_of(4);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x5A;
            if let Ok(loaded) = BlockStore::read_from(bad.as_slice()) {
                loaded.verify_chain().unwrap();
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(!ChainError::WrongNumber {
            got: 1,
            expected: 0
        }
        .to_string()
        .is_empty());
        assert!(!ChainError::BrokenLink { at: 2 }.to_string().is_empty());
        assert!(!ChainError::BadDataHash { at: 3 }.to_string().is_empty());
    }
}
