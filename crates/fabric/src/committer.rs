//! The committing peer's validation pipeline (VSCC + MVCC) and ledger
//! apply.
//!
//! One commit path, in two phases. [`Committer::vscc_block`] decodes each
//! envelope of a delivered block and runs the stateless checks
//! (endorsement signatures, endorsement policy); its verdicts are
//! mutually independent, so a peer may spread them over CPU lanes.
//! [`Committer::commit_block_prevalidated`] then walks the block in
//! order: duplicate tx-id, the VSCC verdict, MVCC read-version
//! validation. Valid transactions apply their write sets immediately, so
//! later transactions in the same block validate against the updated
//! state — exactly Fabric's serial intra-block validation, which is what
//! produces MVCC conflicts under contention. A one-lane peer is the
//! degenerate case of the same path; the monolithic loop it replaced
//! survives only as the test module's reference implementation.

mod bootstrap;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperprov_ledger::{
    Block, BlockStore, ChainError, ChannelId, ChannelLedger, GraphIndexer, HistoryDb, KvWrite,
    ProvGraph, RawEnvelope, StateDb, StateKey, TxId, ValidationCode, Version,
};

pub use bootstrap::BootstrapError;

use crate::caches::SigVerifyCache;
use crate::identity::Msp;
use crate::messages::{endorsement_message, CommitEvent, Envelope};
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
    /// Keys written by valid transactions, in apply order — what an
    /// endorser-side [`crate::ReadCache`] must invalidate after this
    /// block.
    pub written_keys: Vec<StateKey>,
    /// Parent references committed by this block that were absent from the
    /// provenance graph index at apply time — cross-shard links or broken
    /// references (always 0 without a [`GraphIndexer`] installed).
    pub dangling_parents: u64,
}

/// Outcome of the parallelisable VSCC phase for one envelope: the decoded
/// envelope, the VSCC failure code (if any), and how many endorsement
/// signatures ran cryptographically vs. were served from a
/// [`SigVerifyCache`]. The phase touches no world state, so verdicts for
/// the envelopes of one block are independent and can be computed on
/// separate CPU lanes.
#[derive(Debug, Clone)]
pub struct VsccVerdict {
    /// The decoded envelope, `None` when decoding failed.
    pub envelope: Option<Envelope>,
    /// The envelope's transaction id, recomputed from the decoded
    /// proposal exactly once per peer; the ledger phase reuses it rather
    /// than re-encoding the proposal (the raw wrapper's claimed id when
    /// decoding failed).
    pub tx_id: TxId,
    /// The VSCC-phase failure ([`ValidationCode::BadSignature`] or
    /// [`ValidationCode::EndorsementPolicyFailure`]), `None` when the
    /// envelope passed.
    pub failure: Option<ValidationCode>,
    /// Endorsement signatures verified cryptographically.
    pub sig_misses: u32,
    /// Endorsement signatures served from the verification cache.
    pub sig_hits: u32,
}

/// A committing peer's view of one channel: the per-channel ledger bundle
/// ([`ChannelLedger`]: block store, world state, history) and the
/// validation machinery. A peer hosting several channels owns one
/// `Committer` per channel.
#[derive(Debug)]
pub struct Committer {
    channel: ChannelId,
    ledger: ChannelLedger,
    msp: Arc<Msp>,
    policies: ChannelPolicies,
    seen: HashSet<TxId>,
    /// Maps committed writes to provenance-graph updates; `None` leaves
    /// the graph index empty (legacy behaviour).
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
            ledger: ChannelLedger::new(),
            msp,
            policies,
            seen: HashSet::new(),
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

    /// The channel's ledger bundle.
    pub fn ledger(&self) -> &ChannelLedger {
        &self.ledger
    }

    /// The committed block chain.
    pub fn store(&self) -> &BlockStore {
        &self.ledger.store
    }

    /// The current world state.
    pub fn state(&self) -> &StateDb {
        &self.ledger.state
    }

    /// The per-key history index.
    pub fn history(&self) -> &HistoryDb {
        &self.ledger.history
    }

    /// The channel's materialized provenance DAG index (empty unless a
    /// [`GraphIndexer`] was installed via [`Committer::with_indexer`]).
    pub fn graph(&self) -> &ProvGraph {
        &self.ledger.graph
    }

    /// Verifies the incrementally maintained graph index against the
    /// ledger: rebuilds a fresh index from a scan of the current world
    /// state and compares canonical digests. Trivially `true` when no
    /// indexer is installed.
    pub fn graph_consistent(&self) -> bool {
        let Some(indexer) = &self.indexer else {
            return true;
        };
        let entries = self.ledger.state.iter().map(|(k, v)| (k, &*v.value));
        ProvGraph::from_state(Some(indexer.as_ref()), entries).digest()
            == self.ledger.graph.digest()
    }

    /// Feeds one valid transaction's writes through the installed indexer,
    /// updating the graph index; returns how many parent references were
    /// absent from the index at apply time.
    fn index_writes(&mut self, writes: &[KvWrite]) -> u64 {
        let Some(indexer) = &self.indexer else {
            return 0;
        };
        let mut dangling = 0;
        for write in writes {
            if let Some(update) = indexer.index(&write.key, write.value.as_deref()) {
                dangling += self.ledger.graph.apply(&update);
            }
        }
        dangling
    }

    /// The membership registry this committer validates against.
    pub fn msp(&self) -> &Arc<Msp> {
        &self.msp
    }

    /// Chain height.
    pub fn height(&self) -> u64 {
        self.ledger.store.height()
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
        let verdicts = self.vscc_block(&block, None);
        self.commit_block_prevalidated(block, verdicts)
    }

    /// The parallelisable half of validation: decode each envelope and run
    /// the stateless VSCC checks (endorsement signatures and endorsement
    /// policy). Touches neither world state nor the duplicate-tx-id set,
    /// so the verdicts for one block's envelopes are mutually independent
    /// — the simulation charges this phase as the makespan of the
    /// per-envelope costs spread across CPU lanes.
    ///
    /// Pass a [`SigVerifyCache`] to memoise successful signature checks
    /// across blocks; each verdict reports how many verifications hit the
    /// cache so callers can charge reduced CPU cost for hits.
    pub fn vscc_block(
        &self,
        block: &Block,
        mut cache: Option<&mut SigVerifyCache>,
    ) -> Vec<VsccVerdict> {
        block
            .envelopes
            .iter()
            .map(|raw| self.vscc_envelope(raw, cache.as_deref_mut()))
            .collect()
    }

    fn vscc_envelope(&self, raw: &RawEnvelope, cache: Option<&mut SigVerifyCache>) -> VsccVerdict {
        let env = match Envelope::from_raw(raw) {
            Ok(env) => env,
            Err(_) => {
                return VsccVerdict {
                    envelope: None,
                    tx_id: raw.tx_id,
                    failure: Some(ValidationCode::BadSignature),
                    sig_misses: 0,
                    sig_hits: 0,
                }
            }
        };
        let tx_id = env.tx_id();
        let msg = endorsement_message(&tx_id, &env.payload, &env.rwset);
        let mut orgs: Vec<&crate::identity::MspId> = Vec::new();
        let mut sig_misses = 0u32;
        let mut sig_hits = 0u32;
        let mut failure = None;
        let mut cache = cache;
        for e in &env.endorsements {
            let ok = match cache.as_deref_mut() {
                Some(c) => {
                    let (ok, hit) = c.verify(&self.msp, &e.endorser, &msg, &e.signature);
                    if hit {
                        sig_hits += 1;
                    } else {
                        sig_misses += 1;
                    }
                    ok
                }
                None => {
                    sig_misses += 1;
                    self.msp.verify(&e.endorser, &msg, &e.signature)
                }
            };
            if !ok {
                // Stop at the first bad signature, exactly like the serial
                // validator's early return.
                failure = Some(ValidationCode::BadSignature);
                break;
            }
            orgs.push(&e.endorser.org);
        }
        if failure.is_none() {
            let policy = self.policies.policy_for(&env.proposal.chaincode);
            if !policy.is_satisfied_by(orgs.iter().copied()) {
                failure = Some(ValidationCode::EndorsementPolicyFailure);
            }
        }
        VsccVerdict {
            envelope: Some(env),
            tx_id,
            failure,
            sig_misses,
            sig_hits,
        }
    }

    /// The serial half of the commit path: duplicate-tx-id and MVCC
    /// read-version checks plus the state/history apply, consuming the
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
        let mut block = self.ledger.store.check_extends(block)?;

        let mut events = Vec::with_capacity(block.envelopes.len());
        let mut codes = Vec::with_capacity(block.envelopes.len());
        let mut valid = 0u32;
        let mut invalid = 0u32;
        let mut bytes_written = 0u64;
        let mut written_keys = Vec::new();
        let mut dangling_parents = 0u64;

        for (tx_num, (raw, verdict)) in block.envelopes.iter().zip(vscc).enumerate() {
            let (code, event, creator, endorser) = match verdict.envelope {
                Some(env) => {
                    let tx_id = verdict.tx_id;
                    let creator = env.proposal.creator.id;
                    let endorser = env.endorsements.first().map(|e| e.endorser.id);
                    let code = if self.seen.contains(&tx_id) {
                        ValidationCode::DuplicateTxId
                    } else if let Some(failure) = verdict.failure {
                        failure
                    } else if !self.ledger.state.validate_reads(&env.rwset.reads) {
                        ValidationCode::MvccReadConflict
                    } else {
                        ValidationCode::Valid
                    };
                    let mut chaincode_event = None;
                    if code.is_valid() {
                        let version = Version::new(block.header.number, tx_num as u32);
                        self.ledger.state.apply_writes(&env.rwset.writes, version);
                        self.ledger
                            .history
                            .append(tx_id, version, &env.rwset.writes);
                        dangling_parents += self.index_writes(&env.rwset.writes);
                        bytes_written += env.rwset.write_bytes() as u64;
                        // The verdict's envelope is consumed here, so move
                        // the written keys and event out instead of cloning.
                        written_keys.extend(env.rwset.writes.into_iter().map(|w| w.key));
                        chaincode_event = env.event;
                    }
                    self.seen.insert(tx_id);
                    (code, chaincode_event, Some(creator), endorser)
                }
                None => (ValidationCode::BadSignature, None, None, None),
            };
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
                creator,
                endorser,
            });
        }

        block.metadata_mut().codes = codes;
        // A failure here cannot be reported as a recoverable `Err`: it
        // would leave the world state ahead of the block store. Nothing
        // was appended to the store since `check_extends`, so this is
        // unreachable unless that pairing breaks.
        self.ledger
            .store
            .append_checked(block)
            .expect("a block that passed check_extends still extends the chain");
        Ok(CommitOutcome {
            events,
            valid,
            invalid,
            bytes_written,
            written_keys,
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
    /// [`Committer::store`]: volatile state (world state, history, seen
    /// set) is reconstructed from the durable block store.
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
            self.ledger.store.iter().cloned(),
        )
    }
}

#[cfg(test)]
mod tests;
