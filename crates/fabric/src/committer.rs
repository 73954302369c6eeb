//! The committing peer's validation pipeline (VSCC + MVCC) and ledger
//! apply.
//!
//! One commit path, in two phases, both reading each envelope in place
//! through an [`EnvelopeView`] over the block's shared bytes.
//! [`Committer::vscc_block`] validates each envelope of a delivered block
//! and runs the stateless checks (endorsement signatures, endorsement
//! policy); its verdicts are mutually independent, so a peer may spread
//! them over CPU lanes. [`Committer::commit_block_prevalidated`] then
//! walks the block in order: duplicate tx-id, the VSCC verdict, MVCC
//! read-version validation. Valid transactions apply their write sets
//! immediately, so later transactions in the same block validate against
//! the updated state — exactly Fabric's serial intra-block validation,
//! which is what produces MVCC conflicts under contention. Nothing is
//! copied out of a block: reads are looked up, and writes kept, as ranges
//! of the envelope's bytes. A one-lane peer is the degenerate case
//! of the same path; the monolithic loop over owned [`Envelope`]s it
//! replaced survives only as the test module's reference implementation.
//!
//! [`Envelope`]: crate::messages::Envelope

mod bootstrap;

use std::collections::HashMap;
use std::sync::Arc;

use hyperprov_ledger::{
    Block, BlockStore, ChainError, ChannelId, GraphIndexer, History, ProvGraph, RawEnvelope,
    StateDb, StateKey, TxId, ValidationCode, Version,
};
use hyperprov_sim::fxhash::FxHashMap;

pub use bootstrap::BootstrapError;

use crate::identity::{Msp, MspId};
use crate::messages::{CommitEvent, EnvelopeSpans, EnvelopeView};
use crate::policy::EndorsementPolicy;

/// Per-chaincode endorsement policies with a channel default.
#[derive(Debug, Clone)]
pub struct ChannelPolicies {
    default: EndorsementPolicy,
    per_chaincode: HashMap<String, EndorsementPolicy>,
}

impl ChannelPolicies {
    /// Creates a policy table with the given channel default.
    pub fn new(default: EndorsementPolicy) -> Self {
        ChannelPolicies {
            default,
            per_chaincode: HashMap::new(),
        }
    }

    /// Overrides the policy for one chaincode.
    pub fn set(&mut self, chaincode: &str, policy: EndorsementPolicy) {
        self.per_chaincode.insert(chaincode.to_owned(), policy);
    }

    /// The policy in effect for `chaincode`.
    pub fn policy_for(&self, chaincode: &str) -> &EndorsementPolicy {
        self.per_chaincode.get(chaincode).unwrap_or(&self.default)
    }
}

/// Summary of one block commit.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Per-transaction events in block order.
    pub events: Vec<CommitEvent>,
    /// Number of valid transactions.
    pub valid: u32,
    /// Number of invalidated transactions.
    pub invalid: u32,
    /// Total bytes applied to the state database.
    pub bytes_written: u64,
    /// Parent references committed by this block that were absent from the
    /// provenance graph index at apply time — cross-shard links or broken
    /// references (always 0 without a [`GraphIndexer`] installed).
    pub dangling_parents: u64,
}

/// Outcome of the parallelisable VSCC phase for one envelope: where its
/// parts sit in the block's bytes, the VSCC failure code (if any), and how
/// many endorsement signatures it verified. The phase touches no world
/// state, so verdicts for the envelopes of one block are independent and
/// can be computed on separate CPU lanes.
#[derive(Debug, Clone)]
pub struct VsccVerdict {
    /// What [`EnvelopeView::parse`] recorded, `None` when the bytes are
    /// not an envelope.
    pub spans: Option<EnvelopeSpans>,
    /// The envelope's transaction id, the digest of its proposal's bytes,
    /// computed exactly once per peer; the ledger phase reuses it (the
    /// raw wrapper's claimed id when the bytes are not an envelope).
    pub tx_id: TxId,
    /// The VSCC-phase failure ([`ValidationCode::BadSignature`] or
    /// [`ValidationCode::EndorsementPolicyFailure`]), `None` when the
    /// envelope passed.
    pub failure: Option<ValidationCode>,
    /// Endorsement signatures verified: all of them, or up to and
    /// including the first bad one.
    pub signatures: u32,
}

/// A committing peer's ledger of one channel — block store, world state
/// with every key's history, provenance DAG index — and the validation
/// machinery. A peer hosting several channels owns one `Committer` per
/// channel.
#[derive(Debug)]
pub struct Committer {
    channel: ChannelId,
    store: BlockStore,
    state: StateDb,
    /// Maintained on commit alongside `state`; derived, so rebuilt from
    /// block replay on restart.
    graph: ProvGraph,
    msp: Arc<Msp>,
    policies: ChannelPolicies,
    /// Every tx id committed on the channel, with the validation code
    /// this peer recorded for its first envelope; `None` for an id that
    /// came in a booted snapshot.
    seen: FxHashMap<TxId, Option<ValidationCode>>,
    /// Maps committed writes to provenance-graph updates; `None` leaves
    /// the graph index empty.
    indexer: Option<Arc<dyn GraphIndexer>>,
}

impl Committer {
    /// Creates a committer for the default channel.
    pub fn new(msp: Arc<Msp>, policies: ChannelPolicies) -> Self {
        Committer::for_channel(ChannelId::default(), msp, policies)
    }

    /// Creates a committer for a named channel.
    pub fn for_channel(channel: ChannelId, msp: Arc<Msp>, policies: ChannelPolicies) -> Self {
        Committer {
            channel,
            store: BlockStore::new(),
            state: StateDb::new(),
            graph: ProvGraph::new(),
            msp,
            policies,
            seen: FxHashMap::default(),
            indexer: None,
        }
    }

    /// Installs the [`GraphIndexer`] that recognises provenance-record
    /// writes, enabling commit-time maintenance of the channel's
    /// materialized DAG index.
    #[must_use]
    pub fn with_indexer(mut self, indexer: Arc<dyn GraphIndexer>) -> Self {
        self.indexer = Some(indexer);
        self
    }

    /// The channel this committer serves.
    pub fn channel(&self) -> &ChannelId {
        &self.channel
    }

    /// The committed block chain.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// One stored block, past every check: rewrites this replica's chain
    /// history, as [`BlockStore::tamper`] does.
    pub fn tamper(&mut self, number: u64) -> Option<&mut Block> {
        self.store.tamper(number)
    }

    /// The graph index, past every check: lets it drift from the state.
    pub fn graph_mut(&mut self) -> &mut ProvGraph {
        &mut self.graph
    }

    /// The current world state.
    pub fn state(&self) -> &StateDb {
        &self.state
    }

    /// Every key's write history, held in the world state's entries.
    pub fn history(&self) -> History<'_> {
        self.state.history()
    }

    /// The channel's materialized provenance DAG index (empty unless a
    /// [`GraphIndexer`] was installed via [`Committer::with_indexer`]).
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// Verifies the incrementally maintained graph index against the
    /// ledger: rebuilds a fresh index from a scan of the current world
    /// state and compares canonical digests. Trivially `true` when no
    /// indexer is installed.
    pub fn graph_consistent(&self) -> bool {
        let Some(indexer) = &self.indexer else {
            return true;
        };
        let entries = self.state.iter().map(|(k, v)| (k, &*v.value));
        ProvGraph::from_state(Some(indexer.as_ref()), entries).digest() == self.graph.digest()
    }

    /// Feeds one applied write through the installed indexer, updating the
    /// graph index; returns how many parent references were absent from
    /// the index at apply time.
    fn index_write(&mut self, key: &StateKey, value: Option<&[u8]>) -> u64 {
        let update = self.indexer.as_ref().and_then(|i| i.index(key, value));
        update.map_or(0, |update| self.graph.apply(&update))
    }

    /// The membership registry this committer validates against.
    pub fn msp(&self) -> &Arc<Msp> {
        &self.msp
    }

    /// Chain height.
    pub fn height(&self) -> u64 {
        self.store.height()
    }

    /// The validation code this peer recorded for `tx_id`, if it committed
    /// it (not if it knows the id only from a booted snapshot).
    pub fn status(&self, tx_id: &TxId) -> Option<ValidationCode> {
        self.seen.get(tx_id).copied().flatten()
    }

    /// Validates and commits one block: the VSCC verdicts computed inline
    /// (no cache), then the serial phase. Replay and recovery commit
    /// through here; peers call the two halves themselves so they can
    /// charge VSCC across CPU lanes.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block does not extend the chain
    /// (wrong number, broken link or bad data hash); the ledger is
    /// unchanged in that case.
    pub fn commit_block(&mut self, block: Block) -> Result<CommitOutcome, ChainError> {
        let verdicts = self.vscc_block(&block);
        self.commit_block_prevalidated(block, verdicts)
    }

    /// The parallelisable half of validation: decode each envelope and run
    /// the stateless VSCC checks (endorsement signatures and endorsement
    /// policy). Touches neither world state nor the duplicate-tx-id set,
    /// so the verdicts for one block's envelopes are mutually independent
    /// — the simulation charges this phase as the makespan of the
    /// per-envelope costs spread across CPU lanes.
    pub fn vscc_block(&self, block: &Block) -> Vec<VsccVerdict> {
        block
            .envelopes
            .iter()
            .map(|raw| self.vscc_envelope(raw))
            .collect()
    }

    fn vscc_envelope(&self, raw: &RawEnvelope) -> VsccVerdict {
        let mut verdict = VsccVerdict {
            spans: None,
            tx_id: raw.tx_id,
            failure: Some(ValidationCode::BadSignature),
            signatures: 0,
        };
        let Ok(view) = EnvelopeView::parse(&raw.bytes) else {
            return verdict;
        };
        verdict.spans = Some(view.spans);
        verdict.tx_id = view.tx_id();
        // What every endorser signed, as it lies in the block.
        let message = [verdict.tx_id.0.as_ref(), view.signed()];
        let mut orgs: Vec<&MspId> = Vec::new();
        for (endorser, signature) in view.endorsements() {
            verdict.signatures += 1;
            // Stop at the first bad signature, exactly like the serial
            // validator's early return.
            let Some(org) = self.msp.verify_parts(endorser, &message, &signature) else {
                return verdict;
            };
            orgs.push(org);
        }
        let policy = self.policies.policy_for(view.chaincode());
        verdict.failure =
            (!policy.is_satisfied_by(orgs)).then_some(ValidationCode::EndorsementPolicyFailure);
        verdict
    }

    /// The serial half of the commit path: duplicate-tx-id and MVCC
    /// read-version checks plus the state apply, consuming the
    /// [`VsccVerdict`]s produced by [`Committer::vscc_block`] for this
    /// block. Duplicates are decided before signature/policy verdicts
    /// before MVCC, as in Fabric's serial validator; signature and policy
    /// checks are pure, so having evaluated them eagerly in the VSCC phase
    /// (even for transactions a serial validator would have rejected as
    /// duplicates first) cannot change any decision.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block does not extend the chain;
    /// the ledger is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `vscc` does not hold exactly one verdict per envelope of
    /// `block` — verdicts from a different block are a logic error.
    pub fn commit_block_prevalidated(
        &mut self,
        block: Block,
        vscc: Vec<VsccVerdict>,
    ) -> Result<CommitOutcome, ChainError> {
        assert_eq!(
            vscc.len(),
            block.envelopes.len(),
            "one VSCC verdict per envelope"
        );
        // Structural checks come before any per-transaction work: state
        // must not be applied from a block that does not extend the chain.
        // The body is hashed here, once; the append below takes the
        // checked block and does not hash it again.
        let mut block = self.store.check_extends(block)?;

        let mut events = Vec::with_capacity(block.envelopes.len());
        let mut codes = Vec::with_capacity(block.envelopes.len());
        let mut valid = 0u32;
        let mut invalid = 0u32;
        let mut bytes_written = 0u64;
        let mut dangling_parents = 0u64;

        for (tx_num, (raw, verdict)) in block.envelopes.iter().zip(vscc).enumerate() {
            let mut code = ValidationCode::BadSignature;
            let mut event = None;
            if let Some(spans) = verdict.spans {
                let view = EnvelopeView::over(&raw.bytes, spans);
                let state = &self.state;
                code = if self.seen.contains_key(&verdict.tx_id) {
                    ValidationCode::DuplicateTxId
                } else if let Some(failure) = verdict.failure {
                    failure
                } else if !view.reads().all(|(key, seen)| state.version(&key) == seen) {
                    ValidationCode::MvccReadConflict
                } else {
                    ValidationCode::Valid
                };
                if code.is_valid() {
                    let version = Version::new(block.header.number, tx_num as u32);
                    // The state entry and its history share the write's key
                    // and value with the envelope.
                    for write in view.writes() {
                        self.state.apply_tx(verdict.tx_id, version, &write);
                        dangling_parents += self.index_write(&write.key, write.value.as_deref());
                    }
                    bytes_written += spans.write_bytes;
                    event = view.event();
                }
                self.seen.entry(verdict.tx_id).or_insert(Some(code));
            }
            if code.is_valid() {
                valid += 1;
            } else {
                invalid += 1;
            }
            codes.push(code);
            events.push(CommitEvent {
                channel: self.channel.clone(),
                tx_id: raw.tx_id,
                block_number: block.header.number,
                code,
                chaincode_event: event,
                creator: verdict.spans.map(|spans| spans.creator),
                endorser: verdict.spans.and_then(|spans| spans.endorser),
            });
        }

        block.metadata_mut().codes = codes;
        // A failure here cannot be reported as a recoverable `Err`: it
        // would leave the world state ahead of the block store. Nothing
        // was appended to the store since `check_extends`, so this is
        // unreachable unless that pairing breaks.
        self.store
            .append_checked(block)
            .expect("a block that passed check_extends still extends the chain");
        Ok(CommitOutcome {
            events,
            valid,
            invalid,
            bytes_written,
            dangling_parents,
        })
    }

    /// Rebuilds a peer's entire ledger on `channel` by re-validating a
    /// persisted chain block by block — peer restart/recovery. Every
    /// signature, policy and MVCC decision is recomputed, so the rebuilt
    /// state cannot silently diverge from what honest validation would
    /// have produced; with an `indexer` the replay also rebuilds the
    /// materialized provenance DAG index.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the chain does not link correctly.
    pub fn replay(
        channel: ChannelId,
        msp: Arc<Msp>,
        policies: ChannelPolicies,
        indexer: Option<Arc<dyn GraphIndexer>>,
        blocks: impl IntoIterator<Item = Block>,
    ) -> Result<Committer, ChainError> {
        let mut committer = Committer::for_channel(channel, msp, policies);
        committer.indexer = indexer;
        for mut block in blocks {
            // Drop the recorded validation codes; they are recomputed.
            block.metadata.codes.clear();
            committer.commit_block(block)?;
        }
        Ok(committer)
    }

    /// Rebuilds this committer from its own persisted chain — the crash
    /// recovery path. Equivalent to [`Committer::replay`] over
    /// [`Committer::store`]: volatile state (world state with its
    /// history, seen set) is reconstructed from the durable block store.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the stored chain does not link
    /// correctly (which would indicate durable-storage corruption).
    pub fn recover(&self) -> Result<Committer, ChainError> {
        Committer::replay(
            self.channel.clone(),
            self.msp.clone(),
            self.policies.clone(),
            self.indexer.clone(),
            self.store.iter().cloned(),
        )
    }
}

#[cfg(test)]
mod tests;
