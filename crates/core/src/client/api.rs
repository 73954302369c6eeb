//! The client's public vocabulary: the commands it accepts, what an
//! operation yields or fails with, the retry policy, and the completion
//! record the embedding code drains.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use hyperprov_fabric::GatewayError;
pub use hyperprov_fabric::RetryPolicy;
use hyperprov_ledger::{Digest, TxId, ValidationCode};
use hyperprov_offchain::StoreError;
use hyperprov_sim::SimTime;

use crate::record::{GraphSlice, HistoryRecord, LineageEntry, ProvenanceRecord, RecordInput};

/// Identifies one client operation, assigned by the caller, unique among
/// the network's operations in flight: it keys the operation's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// An operation submitted to a [`Client`](super::Client).
#[derive(Debug, Clone)]
pub enum ClientCommand {
    /// Record provenance metadata for an item (payload already placed).
    Post {
        /// Item key.
        key: String,
        /// The record content.
        input: RecordInput,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Store a payload off-chain, then post its metadata — the paper's
    /// `StoreData`.
    StoreData {
        /// Item key.
        key: String,
        /// The payload.
        data: Vec<u8>,
        /// Parent item keys.
        parents: Vec<String>,
        /// Custom metadata.
        metadata: Vec<(String, String)>,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Fetch the on-chain record.
    Get {
        /// Item key.
        key: String,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Fetch the record, then the payload, and verify the checksum — the
    /// paper's `GetData`.
    GetData {
        /// Item key.
        key: String,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Like `GetData` but reports integrity as a boolean instead of
    /// failing.
    CheckData {
        /// Item key.
        key: String,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Fetch the full version history of an item.
    GetHistory {
        /// Item key.
        key: String,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Reverse lookup: which items carry this checksum?
    GetKeysByChecksum {
        /// The checksum to look up.
        checksum: Digest,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Ancestor traversal up to `depth`.
    GetLineage {
        /// Item key.
        key: String,
        /// Maximum traversal depth.
        depth: u32,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Ancestor traversal over the materialized DAG index: keys only, one
    /// batched frontier exchange per shard per level instead of one
    /// record fetch per hop.
    GetAncestry {
        /// Item key.
        key: String,
        /// Maximum traversal depth.
        depth: u32,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Descendant (impact) traversal over the materialized DAG index.
    GetDescendants {
        /// Item key.
        key: String,
        /// Maximum traversal depth.
        depth: u32,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Transitive closure (ancestors + descendants) over the DAG index.
    GetClosure {
        /// Item key.
        key: String,
        /// Maximum traversal depth.
        depth: u32,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Like `GetClosure` but also returns the edges between visited nodes.
    GetSubgraph {
        /// Item key.
        key: String,
        /// Maximum traversal depth.
        depth: u32,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// Remove an item's current record (history remains on-chain).
    Delete {
        /// Item key.
        key: String,
        /// Operation id echoed in the completion.
        op: OpId,
    },
    /// List every live item key on the ledger.
    List {
        /// Operation id echoed in the completion.
        op: OpId,
    },
}

/// `$body` over the op id `$op` of whichever command `$cmd` is.
macro_rules! on_op {
    ($cmd:expr, $op:ident => $body:expr) => {
        match $cmd {
            ClientCommand::Post { $op, .. }
            | ClientCommand::StoreData { $op, .. }
            | ClientCommand::Get { $op, .. }
            | ClientCommand::GetData { $op, .. }
            | ClientCommand::CheckData { $op, .. }
            | ClientCommand::GetHistory { $op, .. }
            | ClientCommand::GetKeysByChecksum { $op, .. }
            | ClientCommand::GetLineage { $op, .. }
            | ClientCommand::GetAncestry { $op, .. }
            | ClientCommand::GetDescendants { $op, .. }
            | ClientCommand::GetClosure { $op, .. }
            | ClientCommand::GetSubgraph { $op, .. }
            | ClientCommand::Delete { $op, .. }
            | ClientCommand::List { $op } => $body,
        }
    };
}

impl ClientCommand {
    /// The operation id carried by this command.
    pub fn op(&self) -> OpId {
        on_op!(self, op => *op)
    }

    /// Rewrites the operation id (workload drivers own id assignment).
    pub fn set_op(&mut self, new: OpId) {
        on_op!(self, op => *op = new)
    }
}

/// Errors surfaced by client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HyperProvError {
    /// The chaincode or a peer rejected the request before ordering.
    Rejected(String),
    /// The network shed the request at admission (backpressure). Transient:
    /// the operation may succeed on retry.
    Busy,
    /// A per-op deadline expired (endorsement or commit-wait phase).
    /// Transient: the fate of the original transaction is unknown, but a
    /// fresh attempt with a new tx id is safe for HyperProv's idempotent
    /// record operations.
    Timeout,
    /// The retry budget was spent without a success; every attempt failed
    /// with a transient error.
    Exhausted {
        /// How many attempts were made (initial try + retries).
        attempts: u32,
    },
    /// The transaction was ordered but invalidated at commit.
    Invalidated(ValidationCode),
    /// Off-chain storage failed.
    Storage(StoreError),
    /// The fetched payload does not match the on-chain checksum.
    IntegrityViolation {
        /// Checksum recorded on-chain.
        expected: Digest,
        /// Checksum of the fetched bytes.
        actual: Digest,
    },
    /// A response could not be decoded.
    Malformed(String),
}

impl fmt::Display for HyperProvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyperProvError::Rejected(why) => write!(f, "rejected: {why}"),
            HyperProvError::Busy => write!(f, "busy: shed at admission"),
            HyperProvError::Timeout => write!(f, "deadline exceeded"),
            HyperProvError::Exhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            HyperProvError::Invalidated(code) => write!(f, "invalidated at commit: {code}"),
            HyperProvError::Storage(err) => write!(f, "off-chain storage: {err}"),
            HyperProvError::IntegrityViolation { expected, actual } => write!(
                f,
                "integrity violation: chain records {} but data hashes to {}",
                expected.short(),
                actual.short()
            ),
            HyperProvError::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for HyperProvError {}

impl From<GatewayError> for HyperProvError {
    /// Preserves the gateway's error structure: transient failures
    /// (backpressure, deadline expiries) keep their own variants so a
    /// retry policy can classify them; genuine rejections keep the
    /// chaincode's message; a spent retry budget reports its attempts.
    fn from(err: GatewayError) -> Self {
        match err {
            GatewayError::Busy => HyperProvError::Busy,
            GatewayError::EndorseTimeout | GatewayError::CommitTimeout => HyperProvError::Timeout,
            GatewayError::Endorsement { reason } | GatewayError::Query { reason } => {
                HyperProvError::Rejected(reason)
            }
            GatewayError::Exhausted { attempts } => HyperProvError::Exhausted { attempts },
        }
    }
}

/// Successful operation results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// A post/store/delete transaction committed validly.
    Committed {
        /// The stored record as returned by the chaincode (None for
        /// deletes).
        record: Option<ProvenanceRecord>,
        /// The committing transaction.
        tx_id: TxId,
    },
    /// A `get` finished.
    Record(ProvenanceRecord),
    /// A `get_data` finished and verified.
    Data {
        /// The on-chain record.
        record: ProvenanceRecord,
        /// The verified payload.
        data: Vec<u8>,
    },
    /// A `check_data` finished.
    Checked {
        /// Whether the payload matched the on-chain checksum.
        ok: bool,
    },
    /// A `get_history` finished.
    History(Vec<HistoryRecord>),
    /// A `get_keys_by_checksum` finished.
    Keys(Vec<String>),
    /// A `get_lineage` finished.
    Lineage {
        /// The visited records at their least depths: breadth-first on
        /// one shard, sorted by `(depth, key)` across several.
        entries: Vec<LineageEntry>,
        /// True when the depth clamp or the node cap cut the traversal
        /// short: ancestors beyond it exist but are not in `entries`.
        truncated: bool,
    },
    /// A graph query (`get_ancestry` / `get_descendants` / `get_closure`
    /// / `get_subgraph`) finished.
    Graph(GraphSlice),
}

/// A finished client operation.
#[derive(Debug, Clone)]
pub struct ClientCompletion {
    /// The operation.
    pub op: OpId,
    /// When the command entered the client.
    pub started: SimTime,
    /// When the completion was produced.
    pub finished: SimTime,
    /// The outcome.
    pub outcome: Result<OpOutput, HyperProvError>,
}

impl ClientCompletion {
    /// End-to-end latency of the operation.
    pub fn latency(&self) -> hyperprov_sim::SimDuration {
        self.finished - self.started
    }
}

/// Shared queue the embedding code drains for completions.
pub type CompletionQueue = Rc<RefCell<VecDeque<ClientCompletion>>>;
