//! Integrity auditing: cross-check the blockchain, the world state and
//! the off-chain store.
//!
//! This is the "counteract accidental or malicious data manipulation"
//! promise of the paper made executable: an auditor holding a peer's
//! ledger and access to the off-chain store can detect (a) tampered chain
//! history, (b) corrupted state records and (c) off-chain payloads that no
//! longer match their on-chain checksums. [`HyperProvNetwork::audit`]
//! decides the same for a whole deployment, and that its replicas agree.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use hyperprov_fabric::Committer;
use hyperprov_ledger::{ChannelId, Decode, Digest, StateKey, TxId, DEFAULT_CHUNK_ENTRIES};
use hyperprov_offchain::ObjectStore;

use crate::chaincode::CHAINCODE_NAME;
use crate::client::{ClientCompletion, OpOutput};
use crate::deploy::HyperProvNetwork;
use crate::record::ProvenanceRecord;

/// One problem found by an audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditFinding {
    /// The block chain fails hash verification.
    ChainBroken {
        /// Description from the chain verifier.
        detail: String,
    },
    /// A state record cannot be decoded.
    CorruptRecord {
        /// The item key.
        key: String,
    },
    /// An item's payload is missing from the off-chain store.
    MissingPayload {
        /// The item key.
        key: String,
        /// The expected object name.
        object: String,
    },
    /// An item's payload no longer matches its on-chain checksum.
    TamperedPayload {
        /// The item key.
        key: String,
        /// Checksum recorded on-chain.
        expected: Digest,
        /// Checksum of the stored bytes.
        actual: Digest,
    },
    /// A live replica differs from its channel's reference replica (the
    /// tallest live tip, the one most live replicas share of several) in
    /// this: height, tip hash, state hash or graph digest, the first that
    /// differs.
    Diverged(&'static str),
    /// A replica this high is not on its channel's chain: the channel has
    /// no block below that height, or another one.
    Forked(u64),
    /// The graph index differs from one rebuilt from the world state.
    IndexDrift,
    /// The replica's cut at its store's base height, restored and
    /// replayed, is not its live ledger: what failed or differs.
    RestoreDiffers(String),
    /// A finding about one replica: its channel, the peer's index in
    /// [`HyperProvNetwork::peers`], and what is wrong with its ledger.
    Replica(ChannelId, usize, Box<AuditFinding>),
    /// Spans of this operation stage, this many, are open: work that never
    /// ended.
    OpenSpans(&'static str, u64),
    /// This many span ends matched no open span.
    UnmatchedEnds(u64),
    /// A commit a client was told is `Ok` is valid this often, not once,
    /// over every channel.
    CommitNotOnce(TxId, usize),
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::ChainBroken { detail } => write!(f, "chain broken: {detail}"),
            AuditFinding::CorruptRecord { key } => write!(f, "corrupt record: {key}"),
            AuditFinding::MissingPayload { key, object } => {
                write!(f, "missing payload for {key} (object {object})")
            }
            AuditFinding::TamperedPayload {
                key,
                expected,
                actual,
            } => write!(
                f,
                "tampered payload for {key}: chain says {} but store holds {}",
                expected.short(),
                actual.short()
            ),
            AuditFinding::Diverged(what) => write!(f, "diverged in {what}"),
            AuditFinding::Forked(height) => write!(f, "forked at height {height}"),
            AuditFinding::IndexDrift => write!(f, "graph index drifted"),
            AuditFinding::RestoreDiffers(detail) => write!(f, "restore differs: {detail}"),
            AuditFinding::Replica(channel, peer, at) => write!(f, "{channel} peer{peer}: {at}"),
            AuditFinding::OpenSpans(stage, open) => write!(f, "{open} {stage} spans open"),
            AuditFinding::UnmatchedEnds(count) => write!(f, "{count} unmatched span ends"),
            AuditFinding::CommitNotOnce(tx, n) => write!(f, "Ok commit {tx} valid {n} times"),
        }
    }
}

/// The result of an audit pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Problems found (empty = everything verified).
    pub findings: Vec<AuditFinding>,
    /// Items whose records decoded correctly.
    pub records_checked: u64,
    /// Payloads fetched and re-hashed.
    pub payloads_checked: u64,
    /// Blocks whose hashes were re-verified.
    pub blocks_checked: u64,
}

impl AuditReport {
    /// True when no findings were produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Extracts every current provenance record from a peer's world state.
pub fn current_records(committer: &Committer) -> Vec<(String, Result<ProvenanceRecord, ()>)> {
    let sep = hyperprov_fabric::COMPOSITE_SEP;
    let prefix = format!("item{sep}");
    let mut out = Vec::new();
    for (state_key, value) in committer.state().scan_prefix(CHAINCODE_NAME, &prefix) {
        let StateKey { key, .. } = state_key;
        let item_key = key
            .trim_start_matches(&prefix)
            .trim_end_matches(sep)
            .to_owned();
        match ProvenanceRecord::from_bytes(&value.value) {
            Ok(record) => out.push((item_key, Ok(record))),
            Err(_) => out.push((item_key, Err(()))),
        }
    }
    out
}

/// Audits one peer's ledger against an off-chain store.
pub fn audit(committer: &Committer, store: &dyn ObjectStore) -> AuditReport {
    let mut report = AuditReport {
        blocks_checked: committer.store().retained(),
        ..AuditReport::default()
    };
    if let Err(err) = committer.store().verify_chain() {
        report.findings.push(AuditFinding::ChainBroken {
            detail: err.to_string(),
        });
    }
    check_records(committer, store, &mut report);
    report
}

/// Record decodability and payload integrity.
fn check_records(committer: &Committer, store: &dyn ObjectStore, report: &mut AuditReport) {
    for (key, record) in current_records(committer) {
        match record {
            Err(()) => report.findings.push(AuditFinding::CorruptRecord { key }),
            Ok(record) => {
                report.records_checked += 1;
                if !record.has_offchain_data() {
                    continue;
                }
                let object = record
                    .location
                    .rsplit('/')
                    .next()
                    .unwrap_or(&record.location)
                    .to_owned();
                match store.get(&object) {
                    Err(_) => report
                        .findings
                        .push(AuditFinding::MissingPayload { key, object }),
                    Ok(data) => {
                        report.payloads_checked += 1;
                        let actual = Digest::of(&data);
                        if actual != record.checksum {
                            report.findings.push(AuditFinding::TamperedPayload {
                                key,
                                expected: record.checksum,
                                actual,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// The first of height, tip hash, state hash and graph digest in which
/// two ledgers differ.
fn differs(a: &Committer, b: &Committer) -> Option<&'static str> {
    let of = |c: &Committer| {
        (
            c.store().tip_hash(),
            c.state().state_hash(),
            c.graph().digest(),
        )
    };
    let ((tip, state, graph), t, heights) = (of(a), of(b), a.height() != b.height());
    let what = ["height", "tip hash", "state hash", "graph digest"];
    let differ = [heights, tip != t.0, state != t.1, graph != t.2];
    differ.iter().position(|&d| d).map(|i| what[i])
}

/// What is wrong with `ledger`, a replica of the channel whose reference
/// replica is `reference`; agreement is asked of live replicas only.
fn check_replica(ledger: &Committer, reference: &Committer, live: bool) -> Vec<AuditFinding> {
    let (store, height) = (ledger.store(), ledger.height());
    // The channel's block below this replica's height is its tip.
    let forked = match height.checked_sub(1).map(|n| reference.store().block(n)) {
        Some(Some(block)) => block.header.hash() != store.tip_hash(),
        Some(None) => height > reference.store().base_height(),
        None => false,
    };
    // The cut at the base height, restored; at base 0 (no snapshot covers
    // zero blocks) a genesis replay.
    let restored = match store.base_height() {
        0 => ledger.recover().map_err(|e| e.to_string()),
        base => {
            let first = store.iter().next();
            let base_hash = first.map_or(store.tip_hash(), |b| b.header.prev_hash);
            let cut = ledger.snapshot_at(base, base_hash, DEFAULT_CHUNK_ENTRIES);
            let restored = ledger.recover_from_snapshot(&cut);
            restored.map_err(|e| e.to_string())
        }
    };
    let broken = store.verify_chain().err().map(|err| err.to_string());
    [
        differs(ledger, reference)
            .filter(|_| live)
            .map(AuditFinding::Diverged),
        broken.map(|detail| AuditFinding::ChainBroken { detail }),
        forked.then_some(AuditFinding::Forked(height)),
        (!ledger.graph_consistent()).then_some(AuditFinding::IndexDrift),
        (restored.map_or_else(Some, |r| differs(&r, ledger).map(str::to_owned)))
            .map(AuditFinding::RestoreDiffers),
    ]
    .into_iter()
    .flatten()
    .collect()
}

impl HyperProvNetwork {
    /// Decides whether this network is correct; an empty list says it is.
    /// Run the simulation to quiescence first: the audit does not advance it.
    ///
    /// Per channel, over every replica: live replicas agree with the
    /// reference replica; every chain verifies and lies on the reference's;
    /// every graph index matches its state; the cut at the store's base
    /// height, restored and replayed, is the live ledger; the reference's
    /// records and payloads pass [`audit`]. Then no span is open or ended
    /// unmatched, and each `Ok` commit among `completions` is valid once.
    pub fn audit<'a>(
        &self,
        completions: impl IntoIterator<Item = &'a ClientCompletion>,
    ) -> Vec<AuditFinding> {
        let committed = completions.into_iter().filter_map(|c| match c.outcome {
            Ok(OpOutput::Committed { tx_id, .. }) => Some((tx_id, BTreeSet::new())),
            _ => None,
        });
        let mut landed: BTreeMap<TxId, BTreeSet<_>> = committed.collect();
        let mut findings = Vec::new();
        for (ci, replicas) in self.channel_ledgers.iter().enumerate() {
            let live = |peer: usize| !self.sim.is_crashed(self.peers[peer]);
            let tip = |(peer, ledger): &(usize, Rc<RefCell<Committer>>)| {
                let ledger = ledger.borrow();
                (live(*peer), ledger.height(), ledger.store().tip_hash())
            };
            // The reference: the first live replica at the tallest tip, the
            // one most live replicas share if several are that tall. A
            // replica that is only behind is then behind, not a fork.
            let tips: Vec<_> = replicas.iter().map(tip).collect();
            let votes = |&i: &usize| (tips[i].1, tips.iter().filter(|&&t| t == tips[i]).count());
            let live_tips = (0..tips.len()).rev().filter(|&i| tips[i].0);
            let voted = live_tips.max_by_key(votes);
            let Some((reader, reference)) = replicas.get(voted.unwrap_or(0)) else {
                continue;
            };
            let reference = reference.borrow();
            let at = |peer, f| AuditFinding::Replica(self.channels[ci].clone(), peer, Box::new(f));
            for (peer, ledger) in replicas {
                let found = check_replica(&ledger.borrow(), &reference, live(*peer));
                findings.extend(found.into_iter().map(|f| at(*peer, f)));
            }
            let mut report = AuditReport::default();
            check_records(&reference, self.store.as_ref(), &mut report);
            findings.extend(report.findings.into_iter().map(|f| at(*reader, f)));
            let history = reference.history();
            for write in history.iter().flat_map(|(_, key)| key.entries()) {
                if let Some(at) = landed.get_mut(&write.tx_id) {
                    at.insert((ci, write.version));
                }
            }
        }
        let tracer = self.sim.tracer();
        let open = tracer.unclosed_by_stage().into_iter();
        findings.extend(open.map(|(stage, n)| AuditFinding::OpenSpans(stage, n)));
        let unmatched = Some(tracer.unmatched_ends()).filter(|&n| n > 0);
        findings.extend(unmatched.map(AuditFinding::UnmatchedEnds));
        let times = landed.into_iter().map(|(tx_id, at)| (tx_id, at.len()));
        let not_once = times.filter(|&(_, n)| n != 1);
        findings.extend(not_once.map(|(tx_id, n)| AuditFinding::CommitNotOnce(tx_id, n)));
        findings
    }
}
