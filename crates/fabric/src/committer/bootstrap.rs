//! Snapshots of a committer: cutting one, pruning the block store behind
//! it, and rebuilding a committer from a verified one plus delta blocks.

use std::collections::HashSet;
use std::fmt;

use hyperprov_ledger::{Digest, Snapshot, SnapshotError};

use super::*;

/// Why a snapshot could not be used to bootstrap a committer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapError {
    /// The snapshot failed its own integrity check.
    Snapshot(SnapshotError),
    /// The snapshot belongs to a different channel.
    WrongChannel {
        /// Channel named by the snapshot manifest.
        got: String,
        /// Channel the committer serves.
        expected: String,
    },
    /// The provenance graph rebuilt from the restored state disagrees
    /// with the digest the manifest committed to.
    GraphDigestMismatch,
    /// A delta block did not extend the restored chain.
    Chain(ChainError),
}

impl fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootstrapError::Snapshot(e) => write!(f, "snapshot invalid: {e}"),
            BootstrapError::WrongChannel { got, expected } => {
                write!(f, "snapshot for channel {got}, expected {expected}")
            }
            BootstrapError::GraphDigestMismatch => {
                write!(f, "restored graph digest mismatch")
            }
            BootstrapError::Chain(e) => write!(f, "delta replay failed: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<SnapshotError> for BootstrapError {
    fn from(e: SnapshotError) -> Self {
        BootstrapError::Snapshot(e)
    }
}

impl From<ChainError> for BootstrapError {
    fn from(e: ChainError) -> Self {
        BootstrapError::Chain(e)
    }
}

impl Committer {
    /// Freezes this committer's entire derived state at the current
    /// height into a [`Snapshot`] with at most `chunk_entries` state
    /// entries per transfer chunk. The cut shares the ledger's keys and
    /// values and hashes nothing; the Merkle-rooted manifest is computed
    /// when something first reads it ([`Snapshot::manifest`]). Its graph
    /// digest is then derived from the frozen state with this committer's
    /// indexer — what the live index hashes to at the cut, as
    /// [`Committer::graph_consistent`] states.
    pub fn snapshot(&self, chunk_entries: usize) -> Snapshot {
        Snapshot::capture(
            &self.channel,
            self.store.height(),
            self.store.tip_hash(),
            &self.state,
            self.seen.keys().copied().collect(),
            self.indexer.clone(),
            chunk_entries,
        )
    }

    /// The snapshot [`Committer::snapshot`] would have cut when the chain
    /// was `height` blocks long and ended in `tip_hash`, made now: the
    /// state as of that height ([`Snapshot::capture_as_of`]), and the
    /// tx-id set minus the ids first seen in the stored blocks at or
    /// above it. An envelope coded [`ValidationCode::DuplicateTxId`] was
    /// seen before its block, and one that does not parse was never
    /// recorded. Those blocks must still be stored: prune no further
    /// than the latest height a snapshot may be made at.
    pub fn snapshot_at(&self, height: u64, tip_hash: Digest, chunk_entries: usize) -> Snapshot {
        debug_assert!(self.store.base_height() <= height && height <= self.height());
        let later: HashSet<TxId> = self
            .store
            .iter()
            .filter(|block| block.header.number >= height)
            .flat_map(|block| block.envelopes.iter().zip(&block.metadata.codes))
            .filter(|&(_, &code)| code != ValidationCode::DuplicateTxId)
            .filter_map(|(raw, _)| Some(EnvelopeView::parse(&raw.bytes).ok()?.tx_id()))
            .collect();
        let mut seen = Vec::with_capacity(self.seen.len() - later.len());
        seen.extend(self.seen.keys().filter(|id| !later.contains(id)));
        Snapshot::capture_as_of(
            &self.channel,
            height,
            tip_hash,
            &self.state,
            seen,
            self.indexer.clone(),
            chunk_entries,
        )
    }

    /// Compacts the block store behind a snapshot horizon; blocks below
    /// `horizon` are dropped. Returns the number of blocks pruned.
    pub fn prune_store_to(&mut self, horizon: u64) -> u64 {
        self.store.prune_to(horizon)
    }

    /// Rebuilds a committer from a verified snapshot plus delta blocks —
    /// the O(1)-in-chain-length recovery path. The snapshot is integrity
    /// checked ([`Snapshot::verify`]), the provenance graph is rebuilt by
    /// running the indexer over the restored state and compared against
    /// the manifest's graph digest, and the block store resumes pruned at
    /// the snapshot height. Delta blocks below the snapshot height are
    /// skipped; the rest are re-validated exactly like a genesis replay.
    ///
    /// # Errors
    ///
    /// Returns a [`BootstrapError`] if the snapshot fails verification,
    /// names another channel, the rebuilt graph digest disagrees, or a
    /// delta block does not link.
    pub fn bootstrap_from_snapshot(
        channel: ChannelId,
        msp: Arc<Msp>,
        policies: ChannelPolicies,
        indexer: Option<Arc<dyn GraphIndexer>>,
        snapshot: &Snapshot,
        delta_blocks: impl IntoIterator<Item = Block>,
    ) -> Result<Committer, BootstrapError> {
        snapshot.verify()?;
        let manifest = snapshot.manifest();
        if manifest.channel != channel.as_str() {
            return Err(BootstrapError::WrongChannel {
                got: manifest.channel.clone(),
                expected: channel.as_str().to_owned(),
            });
        }

        let state = snapshot.restore_state();
        let graph = ProvGraph::from_state(
            indexer.as_deref(),
            state.iter().map(|(k, v)| (k, &*v.value)),
        );
        if graph.digest() != manifest.graph_digest {
            return Err(BootstrapError::GraphDigestMismatch);
        }

        let mut committer = Committer {
            channel,
            store: BlockStore::with_base(manifest.height, manifest.tip_hash),
            state,
            graph,
            msp,
            policies,
            seen: snapshot.tail().seen.iter().map(|&id| (id, None)).collect(),
            indexer,
        };
        for mut block in delta_blocks {
            if block.header.number < manifest.height {
                continue;
            }
            block.metadata.codes.clear();
            committer.commit_block(block)?;
        }
        Ok(committer)
    }

    /// [`Committer::bootstrap_from_snapshot`] against this committer's own
    /// identity material and durable block store: restores the snapshot
    /// and replays only the blocks at or above its height. This is the
    /// restarted peer's fast path — `recover()` replays the whole chain,
    /// this replays at most one snapshot interval.
    ///
    /// # Errors
    ///
    /// Returns a [`BootstrapError`] if the snapshot fails verification or
    /// the delta blocks do not link onto it.
    pub fn recover_from_snapshot(&self, snapshot: &Snapshot) -> Result<Committer, BootstrapError> {
        Committer::bootstrap_from_snapshot(
            self.channel.clone(),
            self.msp.clone(),
            self.policies.clone(),
            self.indexer.clone(),
            snapshot,
            self.store
                .iter()
                .filter(|b| b.header.number >= snapshot.height())
                .cloned(),
        )
    }
}
