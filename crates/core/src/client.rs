//! The HyperProv client library — the Rust equivalent of the paper's
//! NodeJS client, hiding Fabric and off-chain storage behind a handful of
//! operators: `post`, `get`, `store_data`, `get_data`, `check_data`,
//! `get_history`, `get_keys_by_checksum`, `get_lineage`, `delete`.
//!
//! [`HyperProvClient`] is a simulation actor; it receives
//! [`ClientCommand`]s (injected by the synchronous facade or by a workload
//! driver), drives the blockchain gateway and the storage node, and pushes
//! [`ClientCompletion`]s into a shared queue the caller drains.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use hyperprov_fabric::{CostModel, FabricMsg, Gateway, GatewayError, GatewayEvent};
use hyperprov_ledger::{Decode, Digest, TxId, ValidationCode};
use hyperprov_offchain::{StoreError, StoreMsg};
use hyperprov_sim::{
    Actor, ActorId, Carries, Context, DetRng, Event, ServiceHarness, SimDuration, SimTime,
};
use rand::Rng;

use crate::chaincode::{CHAINCODE_NAME, MAX_GRAPH_NODES, MAX_LINEAGE_DEPTH};
use crate::record::{
    decode_history, decode_lineage, GraphSlice, HistoryRecord, LineageEntry, ProvenanceRecord,
    RecordInput,
};
use crate::router::ChannelRouter;

/// Identifies one client operation, assigned by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// An operation submitted to a [`HyperProvClient`].
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

impl ClientCommand {
    /// The operation id carried by this command.
    pub fn op(&self) -> OpId {
        match self {
            ClientCommand::Post { op, .. }
            | ClientCommand::StoreData { op, .. }
            | ClientCommand::Get { op, .. }
            | ClientCommand::GetData { op, .. }
            | ClientCommand::CheckData { op, .. }
            | ClientCommand::GetHistory { op, .. }
            | ClientCommand::GetKeysByChecksum { op, .. }
            | ClientCommand::GetLineage { op, .. }
            | ClientCommand::GetAncestry { op, .. }
            | ClientCommand::GetDescendants { op, .. }
            | ClientCommand::GetClosure { op, .. }
            | ClientCommand::GetSubgraph { op, .. }
            | ClientCommand::Delete { op, .. }
            | ClientCommand::List { op } => *op,
        }
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
    /// chaincode's message.
    fn from(err: GatewayError) -> Self {
        match err {
            GatewayError::Busy => HyperProvError::Busy,
            GatewayError::EndorseTimeout | GatewayError::CommitTimeout => HyperProvError::Timeout,
            GatewayError::Endorsement { reason } | GatewayError::Query { reason } => {
                HyperProvError::Rejected(reason)
            }
            GatewayError::Mismatch => {
                HyperProvError::Rejected("endorsement mismatch across peers".to_owned())
            }
        }
    }
}

/// Deterministic exponential-backoff-with-jitter retry policy for
/// transient gateway failures ([`GatewayError::Busy`], endorsement
/// timeouts, commit-wait timeouts). Retried transactions are re-submitted
/// with a fresh tx id; all randomness comes from the client actor's
/// seeded stream, so runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempt budget (initial try + retries), at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: SimDuration,
    /// Backoff is multiplied by a factor drawn uniformly from
    /// `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// A policy with the given attempt budget and the default backoff
    /// shape (50 ms base, 2 s cap, ±20 % jitter).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "retry policy needs at least one attempt");
        RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_secs(2),
            jitter_frac: 0.2,
        }
    }

    /// The jittered backoff before retry number `retry` (1-based).
    fn backoff(&self, retry: u32, rng: &mut DetRng) -> SimDuration {
        let exp = retry.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .mul_f64(f64::from(2u32.saturating_pow(exp)));
        let capped = if raw > self.max_backoff {
            self.max_backoff
        } else {
            raw
        };
        let jitter = self.jitter_frac.clamp(0.0, 1.0);
        let factor = 1.0 + jitter * rng.gen_range(-1.0..=1.0);
        capped.mul_f64(factor)
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
        /// The visited records, breadth-first.
        entries: Vec<LineageEntry>,
        /// True when the depth clamp cut the walk short: ancestors beyond
        /// the accepted depth exist but are not in `entries`. Previously
        /// a clamped walk silently returned a partial chain.
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

#[derive(Debug)]
enum OpState {
    /// Waiting for a transaction to commit.
    Commit,
    /// Waiting for the chaincode `get` before fetching the payload.
    RecordThenData { check_only: bool },
    /// Waiting for the storage node to return the payload.
    Payload {
        record: Box<ProvenanceRecord>,
        check_only: bool,
    },
    /// Waiting for the storage put before posting metadata.
    StorePut {
        key: String,
        input: Box<RecordInput>,
    },
    /// Waiting for a plain query response.
    Query(QueryKind),
}

#[derive(Debug, Clone, Copy)]
enum QueryKind {
    Get,
    History,
    Keys,
    Lineage {
        /// The accepted (clamped) depth, for truncation detection.
        max_depth: u32,
    },
    Graph,
    List,
}

/// Everything needed to re-submit the current gateway phase of an
/// operation with a fresh tx id (captured only when a retry policy is
/// armed).
#[derive(Debug, Clone)]
struct Redo {
    /// The gateway (channel) the phase was issued on.
    gw: usize,
    /// Full invoke (endorse + order + commit) vs endorse-only query.
    invoke: bool,
    function: &'static str,
    args: Vec<Vec<u8>>,
}

/// A scatter-gather query fanned out to every channel, keyed by an
/// aggregate id; completes when all per-channel responses are in.
#[derive(Debug)]
struct ScatterCtx {
    op: OpId,
    started: SimTime,
    /// Responses still outstanding.
    remaining: usize,
    /// Per-gateway result slots, merged (sorted, deduplicated) at the end.
    parts: Vec<Option<Vec<String>>>,
    /// First per-channel failure, reported once the fan-in completes.
    error: Option<HyperProvError>,
}

/// A client-side breadth-first lineage traversal across channels: parent
/// links may cross shards, so each record is fetched from the channel the
/// router assigns to its key, one `get` at a time in BFS order.
#[derive(Debug)]
struct LineageCtx {
    op: OpId,
    started: SimTime,
    max_depth: u32,
    /// Keys already visited (or enqueued) — lineage graphs can be DAGs.
    /// `Rc<str>` so the visited set and the fetch queue share one
    /// allocation per key.
    seen: HashSet<Rc<str>>,
    /// Keys awaiting a fetch, with their depth.
    queue: VecDeque<(u32, Rc<str>)>,
    entries: Vec<LineageEntry>,
    /// The outstanding fetch is the root key (a missing root is an error;
    /// a missing parent is skipped, matching the chaincode's traversal).
    at_root: bool,
    /// Set when the depth clamp stopped the walk with parents left
    /// unvisited, so callers see an explicit truncation marker instead of
    /// a silently partial chain.
    truncated: bool,
}

/// A traversal frontier: `(depth, key)` pairs, keys shared by refcount.
type Frontier = Vec<(u32, Rc<str>)>;

/// Which frontier strategy a cross-shard graph traversal uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphMode {
    /// Parent edges live on the shard that owns the child record, so each
    /// frontier key is routed to its owning shard, which expands as deep
    /// as its local graph allows; only keys it does not hold come back
    /// (as the boundary) for the next round.
    Ancestry,
    /// Child edges live on whichever shard committed the child, so every
    /// round scatters the frontier to all shards with a one-level budget
    /// and merges the answers (used for descendants, closure, subgraph).
    Scatter,
}

/// A cross-shard graph traversal: one batched frontier exchange per shard
/// per level, instead of the oracle's one record fetch per hop.
#[derive(Debug)]
struct GraphCtx {
    op: OpId,
    started: SimTime,
    /// The chaincode operation fanned out each round.
    function: &'static str,
    mode: GraphMode,
    max_depth: u32,
    /// Global node budget remaining; exhaustion truncates the traversal.
    budget: usize,
    /// Keys already resolved: recorded as an entry or as terminal
    /// boundary. `Rc<str>` so the bookkeeping sets and the frontier all
    /// share one allocation per key.
    seen: HashSet<Rc<str>>,
    /// Keys ever dispatched as frontier roots (loop guard).
    dispatched: HashSet<Rc<str>>,
    entries: Vec<(u32, String)>,
    /// Terminally unresolved keys (absent from every shard that could
    /// hold them).
    boundary: Vec<(u32, String)>,
    edges: Vec<(String, String)>,
    truncated: bool,
    /// Depth-clamp of the in-flight round (scatter rounds expand one
    /// level at a time; ancestry rounds always pass `max_depth`).
    round_max: u32,
    /// The roots dispatched in the in-flight round.
    round_roots: Vec<(u32, Rc<str>)>,
    /// Responses still outstanding this round.
    remaining: usize,
    /// Responses collected this round, tagged by gateway index.
    round: Vec<(usize, GraphSlice)>,
    /// Frontier for the next round: key -> minimum depth.
    pending: HashMap<Rc<str>, u32>,
    /// First per-shard failure; reported when the round fans in.
    error: Option<HyperProvError>,
}

#[derive(Debug)]
struct OpCtx {
    op: OpId,
    started: SimTime,
    state: OpState,
    /// Gateway attempts made for the current phase (1 = first try).
    attempts: u32,
    /// How to re-issue the current phase, when retries are enabled.
    redo: Option<Redo>,
}

impl OpCtx {
    /// An operation entering `state` with a fresh attempt budget.
    fn new(op: OpId, started: SimTime, state: OpState) -> Self {
        OpCtx {
            op,
            started,
            state,
            attempts: 0,
            redo: None,
        }
    }
}

/// The span-trace key of a client operation, e.g. `"op-7"`.
fn op_trace(op: OpId) -> String {
    format!("op-{}", op.0)
}

/// Tag bit identifying the client's retry backoff timers. Disjoint from
/// [`hyperprov_sim::HARNESS_TOKEN_BIT`] (bit 63) and
/// [`hyperprov_fabric::GATEWAY_TOKEN_BIT`] (bit 62).
const CLIENT_RETRY_BIT: u64 = 1 << 61;

/// The client actor.
pub struct HyperProvClient {
    /// One gateway per channel; index = shard index from the router.
    /// Single-element on legacy (unsharded) deployments.
    gateways: Vec<Gateway>,
    router: Box<dyn ChannelRouter>,
    storage: ActorId,
    location_prefix: String,
    costs: CostModel,
    completions: CompletionQueue,
    by_tx: HashMap<TxId, OpCtx>,
    by_store_token: HashMap<u64, OpCtx>,
    next_store_token: u64,
    retry: Option<RetryPolicy>,
    next_retry_token: u64,
    /// Operations sleeping out a backoff, keyed by retry timer token.
    pending_retries: HashMap<u64, OpCtx>,
    /// Scatter-gather queries in flight (multi-channel list /
    /// checksum lookups), keyed by aggregate id.
    scatters: HashMap<u64, ScatterCtx>,
    /// Maps a scatter sub-query's tx id to `(aggregate id, gateway)`.
    scatter_txs: HashMap<TxId, (u64, usize)>,
    next_scatter: u64,
    /// Cross-channel lineage traversals in flight, keyed by traversal id.
    lineages: HashMap<u64, LineageCtx>,
    /// Maps a lineage fetch's tx id to its traversal id.
    lineage_txs: HashMap<TxId, u64>,
    next_lineage: u64,
    /// Cross-channel graph-index traversals in flight, keyed by id.
    graphs: HashMap<u64, GraphCtx>,
    /// Maps a graph sub-query's tx id to `(traversal id, gateway)`.
    graph_txs: HashMap<TxId, (u64, usize)>,
    next_graph: u64,
    harness: ServiceHarness<NodeMsgOf>,
}

impl HyperProvClient {
    /// Creates a client with one gateway per channel (in shard-index
    /// order; exactly one on an unsharded deployment) and a router
    /// deciding which shard owns each item key. Keyed operations go to
    /// the owning shard; on several channels `list` and
    /// `get_keys_by_checksum` scatter-gather across every shard and
    /// `get_lineage` walks parent links across shards client-side.
    ///
    /// `location_prefix` is prepended to content digests to form the
    /// on-chain `location` field (e.g. `"sshfs://store0/"`).
    ///
    /// Gateway deadline-token salts are assigned here (`index << 32`), so
    /// several gateways can share this actor's timer space; gateway 0
    /// keeps salt zero and reproduces the single-gateway token stream.
    ///
    /// # Panics
    ///
    /// Panics if `gateways` is empty.
    pub fn new(
        gateways: Vec<Gateway>,
        router: Box<dyn ChannelRouter>,
        storage: ActorId,
        location_prefix: impl Into<String>,
        costs: CostModel,
    ) -> (Self, CompletionQueue) {
        assert!(!gateways.is_empty(), "client needs at least one gateway");
        let gateways = gateways
            .into_iter()
            .enumerate()
            .map(|(i, g)| g.with_token_salt((i as u64) << 32))
            .collect();
        let completions: CompletionQueue = Rc::new(RefCell::new(VecDeque::new()));
        (
            HyperProvClient {
                gateways,
                router,
                storage,
                location_prefix: location_prefix.into(),
                costs,
                completions: completions.clone(),
                by_tx: HashMap::new(),
                by_store_token: HashMap::new(),
                next_store_token: 0,
                retry: None,
                next_retry_token: 0,
                pending_retries: HashMap::new(),
                scatters: HashMap::new(),
                scatter_txs: HashMap::new(),
                next_scatter: 0,
                lineages: HashMap::new(),
                lineage_txs: HashMap::new(),
                next_lineage: 0,
                graphs: HashMap::new(),
                graph_txs: HashMap::new(),
                next_graph: 0,
                harness: ServiceHarness::new("client"),
            },
            completions,
        )
    }

    /// The shard (gateway index) owning `key` under the client's router.
    fn route(&self, key: &str) -> usize {
        self.router.route(key, self.gateways.len())
    }

    /// Enables transparent retries of transient gateway failures under
    /// the given policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Number of operations currently in flight (including operations
    /// sleeping out a retry backoff).
    pub fn inflight(&self) -> usize {
        self.by_tx.len()
            + self.by_store_token.len()
            + self.pending_retries.len()
            + self.scatters.len()
            + self.lineages.len()
            + self.graphs.len()
    }

    /// Issues (or re-issues) the gateway phase described by
    /// `(gw, invoke, function, args)`, capturing a [`Redo`] when retries
    /// are enabled, and indexes the operation by the fresh tx id.
    fn submit_tx(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        mut op_ctx: OpCtx,
        gw: usize,
        invoke: bool,
        function: &'static str,
        args: Vec<Vec<u8>>,
    ) {
        op_ctx.attempts += 1;
        op_ctx.redo = self.retry.map(|_| Redo {
            gw,
            invoke,
            function,
            args: args.clone(),
        });
        let tx_id = if invoke {
            self.gateways[gw].invoke(ctx, &mut self.harness, CHAINCODE_NAME, function, args)
        } else {
            self.gateways[gw].query(ctx, &mut self.harness, CHAINCODE_NAME, function, args)
        };
        self.by_tx.insert(tx_id, op_ctx);
    }

    /// Terminal-vs-retry decision for a failed gateway phase. Transient
    /// errors are retried on a jittered exponential backoff until the
    /// attempt budget is spent; everything else (and every failure when no
    /// policy is armed) completes the operation with the mapped error.
    fn fail_or_retry(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        op_ctx: OpCtx,
        error: GatewayError,
    ) {
        if matches!(
            error,
            GatewayError::EndorseTimeout | GatewayError::CommitTimeout
        ) {
            ctx.metrics().incr("client.timeouts", 1);
        }
        if let (true, Some(policy)) = (error.is_retryable(), self.retry) {
            if op_ctx.redo.is_some() && op_ctx.attempts < policy.max_attempts {
                let backoff = policy.backoff(op_ctx.attempts, ctx.rng());
                ctx.metrics().incr("client.retries", 1);
                ctx.metrics().record_duration("client.backoff", backoff);
                ctx.trace_event(
                    &op_trace(op_ctx.op),
                    "op.retry",
                    &format!("attempt={} backoff={backoff}", op_ctx.attempts + 1),
                );
                self.next_retry_token += 1;
                let token = CLIENT_RETRY_BIT | self.next_retry_token;
                self.pending_retries.insert(token, op_ctx);
                ctx.set_timer(backoff, token);
                return;
            }
            let attempts = op_ctx.attempts;
            ctx.metrics().incr("client.exhausted", 1);
            let exhausted = HyperProvError::Exhausted { attempts };
            self.complete(ctx, op_ctx.op, op_ctx.started, Err(exhausted));
            return;
        }
        self.complete(ctx, op_ctx.op, op_ctx.started, Err(error.into()));
    }

    /// A backoff timer fired: re-issue the parked operation's gateway
    /// phase with a fresh tx id.
    fn on_retry_timer(&mut self, ctx: &mut Context<'_, NodeMsgOf>, token: u64) {
        let Some(mut op_ctx) = self.pending_retries.remove(&token) else {
            return;
        };
        let Some(redo) = op_ctx.redo.take() else {
            return;
        };
        self.submit_tx(ctx, op_ctx, redo.gw, redo.invoke, redo.function, redo.args);
    }

    fn complete(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        op: OpId,
        started: SimTime,
        outcome: Result<OpOutput, HyperProvError>,
    ) {
        ctx.span_end(&op_trace(op), "op", "");
        // SLO sources: goodput objectives watch "client.ok", error-rate
        // objectives pair it with "client.err".
        ctx.slo_event(if outcome.is_ok() {
            "client.ok"
        } else {
            "client.err"
        });
        self.completions.borrow_mut().push_back(ClientCompletion {
            op,
            started,
            finished: ctx.now(),
            outcome,
        });
    }

    fn start(&mut self, ctx: &mut Context<'_, NodeMsgOf>, cmd: ClientCommand) {
        let now = ctx.now();
        let op = cmd.op();
        // End-to-end operator span, closed when the completion is queued.
        ctx.span_start(&op_trace(op), "op", "");
        match cmd {
            ClientCommand::Post { key, input, op } => {
                let gw = self.route(&key);
                let args = vec![key.into_bytes(), hyperprov_ledger::Encode::to_bytes(&input)];
                let op_ctx = OpCtx::new(op, now, OpState::Commit);
                self.submit_tx(ctx, op_ctx, gw, true, "post", args);
            }
            ClientCommand::StoreData {
                key,
                data,
                parents,
                metadata,
                op,
            } => {
                // Client-side checksum of the payload: the dominant client
                // CPU cost for large items (per the paper's Fig. 1 and 2).
                let checksum = Digest::of(&data);
                let hash_cost = self.costs.hash_cost(data.len() as u64);
                self.harness.charge(ctx, hash_cost);
                let mut input = RecordInput::new(checksum)
                    .with_location(
                        format!("{}{}", self.location_prefix, checksum.to_hex()),
                        data.len() as u64,
                    )
                    .with_parents(parents)
                    .with_timestamp(now.as_nanos() / 1_000_000);
                for (k, v) in metadata {
                    input = input.with_meta(k, v);
                }
                self.next_store_token += 1;
                let token = self.next_store_token;
                let state = OpState::StorePut {
                    key,
                    input: Box::new(input),
                };
                self.by_store_token
                    .insert(token, OpCtx::new(op, now, state));
                // Off-chain transfer phase of a StoreData, closed on the
                // PutAck.
                ctx.span_start(&op_trace(op), "offchain.put", "");
                let msg = StoreMsg::Put {
                    name: checksum.to_hex(),
                    data,
                    token,
                };
                let bytes = msg.wire_size();
                let storage = self.storage;
                ctx.send(storage, bytes, NodeMsgOf::wrap(msg));
            }
            ClientCommand::Get { key, op } => {
                let gw = self.route(&key);
                self.start_query(
                    ctx,
                    now,
                    op,
                    gw,
                    "get",
                    vec![key.into_bytes()],
                    QueryKind::Get,
                );
            }
            ClientCommand::GetData { key, op } => {
                let gw = self.route(&key);
                let op_ctx = OpCtx::new(op, now, OpState::RecordThenData { check_only: false });
                self.submit_tx(ctx, op_ctx, gw, false, "get", vec![key.into_bytes()]);
            }
            ClientCommand::CheckData { key, op } => {
                let gw = self.route(&key);
                let op_ctx = OpCtx::new(op, now, OpState::RecordThenData { check_only: true });
                self.submit_tx(ctx, op_ctx, gw, false, "get", vec![key.into_bytes()]);
            }
            ClientCommand::GetHistory { key, op } => {
                let gw = self.route(&key);
                self.start_query(
                    ctx,
                    now,
                    op,
                    gw,
                    "get_history",
                    vec![key.into_bytes()],
                    QueryKind::History,
                );
            }
            ClientCommand::GetKeysByChecksum { checksum, op } => {
                if self.gateways.len() > 1 {
                    self.start_scatter(
                        ctx,
                        now,
                        op,
                        "get_keys_by_checksum",
                        vec![checksum.to_hex().into_bytes()],
                    );
                } else {
                    self.start_query(
                        ctx,
                        now,
                        op,
                        0,
                        "get_keys_by_checksum",
                        vec![checksum.to_hex().into_bytes()],
                        QueryKind::Keys,
                    );
                }
            }
            ClientCommand::GetLineage { key, depth, op } => {
                if self.gateways.len() > 1 {
                    self.start_lineage(ctx, now, op, key, depth);
                } else {
                    self.start_query(
                        ctx,
                        now,
                        op,
                        0,
                        "get_lineage",
                        vec![key.into_bytes(), depth.to_string().into_bytes()],
                        QueryKind::Lineage {
                            max_depth: depth.min(MAX_LINEAGE_DEPTH),
                        },
                    );
                }
            }
            ClientCommand::GetAncestry { key, depth, op } => {
                self.start_graph(
                    ctx,
                    now,
                    op,
                    "get_ancestry",
                    GraphMode::Ancestry,
                    key,
                    depth,
                );
            }
            ClientCommand::GetDescendants { key, depth, op } => {
                self.start_graph(
                    ctx,
                    now,
                    op,
                    "get_descendants",
                    GraphMode::Scatter,
                    key,
                    depth,
                );
            }
            ClientCommand::GetClosure { key, depth, op } => {
                self.start_graph(ctx, now, op, "get_closure", GraphMode::Scatter, key, depth);
            }
            ClientCommand::GetSubgraph { key, depth, op } => {
                self.start_graph(ctx, now, op, "get_subgraph", GraphMode::Scatter, key, depth);
            }
            ClientCommand::Delete { key, op } => {
                let gw = self.route(&key);
                let op_ctx = OpCtx::new(op, now, OpState::Commit);
                self.submit_tx(ctx, op_ctx, gw, true, "delete", vec![key.into_bytes()]);
            }
            ClientCommand::List { op } => {
                if self.gateways.len() > 1 {
                    self.start_scatter(ctx, now, op, "list", vec![]);
                } else {
                    self.start_query(ctx, now, op, 0, "list", vec![], QueryKind::List);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start_query(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        now: SimTime,
        op: OpId,
        gw: usize,
        function: &'static str,
        args: Vec<Vec<u8>>,
        kind: QueryKind,
    ) {
        let op_ctx = OpCtx::new(op, now, OpState::Query(kind));
        self.submit_tx(ctx, op_ctx, gw, false, function, args);
    }

    /// Fans one query out to every channel; results fan in via
    /// [`Self::on_scatter_response`].
    fn start_scatter(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        now: SimTime,
        op: OpId,
        function: &'static str,
        mut args: Vec<Vec<u8>>,
    ) {
        self.next_scatter += 1;
        let id = self.next_scatter;
        let n = self.gateways.len();
        for gw in 0..n {
            // The last shard takes the arguments by move; earlier shards
            // get a copy.
            let shard_args = if gw + 1 == n {
                std::mem::take(&mut args)
            } else {
                args.clone()
            };
            let tx_id = self.gateways[gw].query(
                ctx,
                &mut self.harness,
                CHAINCODE_NAME,
                function,
                shard_args,
            );
            self.scatter_txs.insert(tx_id, (id, gw));
        }
        self.scatters.insert(
            id,
            ScatterCtx {
                op,
                started: now,
                remaining: n,
                parts: vec![None; n],
                error: None,
            },
        );
    }

    /// One shard of a scatter-gather query answered (`tx_id` was found in
    /// `scatter_txs`). When the last shard is in, the merged (sorted,
    /// deduplicated) key set — or the first error — completes the op.
    fn on_scatter_response(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        id: u64,
        gw: usize,
        result: Result<Vec<u8>, GatewayError>,
    ) {
        let Some(scatter) = self.scatters.get_mut(&id) else {
            return;
        };
        match result {
            Ok(bytes) => match Vec::<String>::from_bytes(&bytes) {
                Ok(keys) => scatter.parts[gw] = Some(keys),
                Err(e) => {
                    scatter
                        .error
                        .get_or_insert(HyperProvError::Malformed(e.to_string()));
                }
            },
            Err(error) => {
                scatter.error.get_or_insert(error.into());
            }
        }
        scatter.remaining -= 1;
        if scatter.remaining > 0 {
            return;
        }
        let scatter = self
            .scatters
            .remove(&id)
            .expect("invariant: entry matched above");
        let outcome = match scatter.error {
            Some(error) => Err(error),
            None => {
                let mut keys: Vec<String> = scatter.parts.into_iter().flatten().flatten().collect();
                keys.sort();
                keys.dedup();
                Ok(OpOutput::Keys(keys))
            }
        };
        self.complete(ctx, scatter.op, scatter.started, outcome);
    }

    /// Starts a cross-channel lineage traversal rooted at `key`: a
    /// breadth-first walk fetching each record from its owning shard.
    fn start_lineage(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        now: SimTime,
        op: OpId,
        key: String,
        depth: u32,
    ) {
        self.next_lineage += 1;
        let id = self.next_lineage;
        let key: Rc<str> = Rc::from(key);
        let mut seen = HashSet::new();
        seen.insert(key.clone());
        let mut queue = VecDeque::new();
        queue.push_back((0, key.clone()));
        self.lineages.insert(
            id,
            LineageCtx {
                op,
                started: now,
                max_depth: depth.min(MAX_LINEAGE_DEPTH),
                seen,
                queue,
                entries: Vec::new(),
                at_root: true,
                truncated: false,
            },
        );
        self.fetch_lineage_key(ctx, id, &key);
    }

    /// Issues the `get` for the next lineage key on its owning shard.
    fn fetch_lineage_key(&mut self, ctx: &mut Context<'_, NodeMsgOf>, id: u64, key: &str) {
        let gw = self.route(key);
        let tx_id = self.gateways[gw].query(
            ctx,
            &mut self.harness,
            CHAINCODE_NAME,
            "get",
            vec![key.as_bytes().to_vec()],
        );
        self.lineage_txs.insert(tx_id, id);
    }

    /// One lineage fetch answered. Appends the record (if found), enqueues
    /// unseen parents, and either issues the next fetch or completes.
    fn on_lineage_response(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        id: u64,
        result: Result<Vec<u8>, GatewayError>,
    ) {
        let Some(lineage) = self.lineages.get_mut(&id) else {
            return;
        };
        let Some((depth, _key)) = lineage.queue.pop_front() else {
            return;
        };
        let at_root = lineage.at_root;
        lineage.at_root = false;
        match result {
            Ok(bytes) => match ProvenanceRecord::from_bytes(&bytes) {
                Ok(record) => {
                    if depth < lineage.max_depth {
                        for parent in &record.parents {
                            if !lineage.seen.contains(parent.as_str()) {
                                let parent: Rc<str> = Rc::from(parent.as_str());
                                lineage.seen.insert(parent.clone());
                                lineage.queue.push_back((depth + 1, parent));
                            }
                        }
                    } else if record
                        .parents
                        .iter()
                        .any(|p| !lineage.seen.contains(p.as_str()))
                    {
                        // The depth clamp stopped the walk with unvisited
                        // ancestors remaining: report it instead of
                        // silently returning a partial chain.
                        lineage.truncated = true;
                    }
                    lineage.entries.push(LineageEntry { depth, record });
                }
                Err(e) => {
                    let lineage = self
                        .lineages
                        .remove(&id)
                        .expect("invariant: entry matched above");
                    let error = HyperProvError::Malformed(e.to_string());
                    self.complete(ctx, lineage.op, lineage.started, Err(error));
                    return;
                }
            },
            Err(error) if at_root => {
                // Missing or failed root: surface the error, matching the
                // chaincode's NotFound on an unknown key.
                let lineage = self
                    .lineages
                    .remove(&id)
                    .expect("invariant: entry matched above");
                self.complete(ctx, lineage.op, lineage.started, Err(error.into()));
                return;
            }
            Err(_) => {
                // A parent missing on its shard is skipped, exactly as the
                // chaincode's BFS skips parents absent from state.
            }
        }
        match lineage.queue.front() {
            Some((_, next)) => {
                let next = next.clone();
                self.fetch_lineage_key(ctx, id, &next);
            }
            None => {
                let lineage = self
                    .lineages
                    .remove(&id)
                    .expect("invariant: entry matched above");
                let output = OpOutput::Lineage {
                    entries: lineage.entries,
                    truncated: lineage.truncated,
                };
                self.complete(ctx, lineage.op, lineage.started, Ok(output));
            }
        }
    }

    /// Starts a graph-index traversal rooted at `key`. On a single
    /// channel this is one query answered entirely from the peer's DAG
    /// index; across shards it runs batched frontier rounds (see
    /// [`GraphMode`]).
    #[allow(clippy::too_many_arguments)]
    fn start_graph(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        now: SimTime,
        op: OpId,
        function: &'static str,
        mode: GraphMode,
        key: String,
        depth: u32,
    ) {
        let max_depth = depth.min(MAX_LINEAGE_DEPTH);
        if self.gateways.len() == 1 {
            let args = vec![
                max_depth.to_string().into_bytes(),
                MAX_GRAPH_NODES.to_string().into_bytes(),
                format!("0:{key}").into_bytes(),
            ];
            self.start_query(ctx, now, op, 0, function, args, QueryKind::Graph);
            return;
        }
        self.next_graph += 1;
        let id = self.next_graph;
        let mut pending = HashMap::new();
        pending.insert(Rc::from(key), 0);
        self.graphs.insert(
            id,
            GraphCtx {
                op,
                started: now,
                function,
                mode,
                max_depth,
                budget: MAX_GRAPH_NODES,
                seen: HashSet::new(),
                dispatched: HashSet::new(),
                entries: Vec::new(),
                boundary: Vec::new(),
                edges: Vec::new(),
                truncated: false,
                round_max: 0,
                round_roots: Vec::new(),
                remaining: 0,
                round: Vec::new(),
                pending,
                error: None,
            },
        );
        self.dispatch_graph_round(ctx, id);
    }

    /// Issues the next frontier round of a cross-shard graph traversal,
    /// or completes it when the frontier is empty. One query per shard
    /// per round, each carrying the whole depth-tagged frontier that
    /// shard must expand.
    fn dispatch_graph_round(&mut self, ctx: &mut Context<'_, NodeMsgOf>, id: u64) {
        let n = self.gateways.len();
        let (frontier, mode, max_depth, budget, function) = {
            let Some(gctx) = self.graphs.get_mut(&id) else {
                return;
            };
            // Drain the frontier in deterministic order (the map's
            // iteration order is not deterministic).
            let mut frontier: Vec<(u32, Rc<str>)> =
                gctx.pending.drain().map(|(k, d)| (d, k)).collect();
            frontier.sort();
            if gctx.budget == 0 && !frontier.is_empty() {
                gctx.truncated = true;
            }
            (
                frontier,
                gctx.mode,
                gctx.max_depth,
                gctx.budget,
                gctx.function,
            )
        };
        if frontier.is_empty() || budget == 0 {
            if let Some(gctx) = self.graphs.remove(&id) {
                self.complete_graph(ctx, gctx);
            }
            return;
        }
        let (round_max, per_shard): (u32, BTreeMap<usize, Frontier>) = match mode {
            // Parent edges are recorded on the shard owning the child, so
            // each frontier key goes to its owner, which expands as deep
            // as its local graph reaches (round_max = the global clamp).
            GraphMode::Ancestry => {
                let mut per: BTreeMap<usize, Vec<(u32, Rc<str>)>> = BTreeMap::new();
                for (d, k) in frontier.iter().cloned() {
                    per.entry(self.router.route(&k, n))
                        .or_default()
                        .push((d, k));
                }
                (max_depth, per)
            }
            // Child edges live wherever the child committed, so the whole
            // frontier scatters to every shard with a one-level budget;
            // when the frontier sits at the clamp this is a resolve-only
            // round (live-or-missing, no expansion). Cloning the frontier
            // per shard only bumps refcounts.
            GraphMode::Scatter => {
                let level = frontier.iter().map(|(d, _)| *d).min().unwrap_or(0);
                let round_max = (level + 1).min(max_depth);
                (
                    (round_max),
                    (0..n).map(|gw| (gw, frontier.clone())).collect(),
                )
            }
        };
        let mut queries = 0;
        for (gw, roots) in &per_shard {
            let mut args = vec![
                round_max.to_string().into_bytes(),
                budget.to_string().into_bytes(),
            ];
            args.extend(roots.iter().map(|(d, k)| format!("{d}:{k}").into_bytes()));
            let tx_id =
                self.gateways[*gw].query(ctx, &mut self.harness, CHAINCODE_NAME, function, args);
            self.graph_txs.insert(tx_id, (id, *gw));
            queries += 1;
        }
        let gctx = self.graphs.get_mut(&id).expect("checked above");
        gctx.round_max = round_max;
        for (_, k) in &frontier {
            gctx.dispatched.insert(k.clone());
        }
        gctx.round_roots = frontier;
        gctx.remaining = queries;
        gctx.round.clear();
    }

    /// One shard of a graph round answered. When the round fans in, the
    /// responses are merged and the next frontier dispatched.
    fn on_graph_response(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        id: u64,
        gw: usize,
        result: Result<Vec<u8>, GatewayError>,
    ) {
        let Some(gctx) = self.graphs.get_mut(&id) else {
            return;
        };
        match result {
            Ok(bytes) => match GraphSlice::from_bytes(&bytes) {
                Ok(slice) => gctx.round.push((gw, slice)),
                Err(e) => {
                    gctx.error
                        .get_or_insert(HyperProvError::Malformed(e.to_string()));
                }
            },
            Err(error) => {
                gctx.error.get_or_insert(error.into());
            }
        }
        gctx.remaining -= 1;
        if gctx.remaining > 0 {
            return;
        }
        if gctx.error.is_some() {
            let mut gctx = self.graphs.remove(&id).expect("invariant: matched above");
            let error = gctx.error.take().expect("checked above");
            self.complete(ctx, gctx.op, gctx.started, Err(error));
            return;
        }
        self.fold_graph_round(ctx, id);
        self.dispatch_graph_round(ctx, id);
    }

    /// Merges one completed round into the traversal state and builds the
    /// next frontier.
    fn fold_graph_round(&mut self, _ctx: &mut Context<'_, NodeMsgOf>, id: u64) {
        let n = self.gateways.len();
        let Some(gctx) = self.graphs.get_mut(&id) else {
            return;
        };
        let mut round = std::mem::take(&mut gctx.round);
        round.sort_by_key(|(gw, _)| *gw);
        let mode = gctx.mode;
        let max_depth = gctx.max_depth;
        // Entries first: a key counts as live if any shard holds it (it
        // is live on exactly its owning shard, so there are no
        // conflicting reports to reconcile).
        for (_, slice) in &round {
            for (d, k) in &slice.entries {
                if gctx.seen.contains(k.as_str()) {
                    continue;
                }
                if gctx.budget == 0 {
                    gctx.truncated = true;
                    continue;
                }
                let shared: Rc<str> = Rc::from(k.as_str());
                gctx.seen.insert(shared.clone());
                gctx.budget -= 1;
                gctx.entries.push((*d, k.clone()));
                // Scatter rounds expand one level per round, so newly
                // discovered live keys join the next frontier; ancestry
                // rounds already expanded to the clamp on the owner.
                if mode == GraphMode::Scatter
                    && *d < max_depth
                    && !gctx.dispatched.contains(k.as_str())
                {
                    let e = gctx.pending.entry(shared).or_insert(*d);
                    *e = (*e).min(*d);
                }
            }
        }
        // Then the boundaries: keys the answering shard does not hold.
        for (gw, slice) in &round {
            for (d, k) in &slice.boundary {
                if gctx.seen.contains(k.as_str()) {
                    continue;
                }
                match mode {
                    GraphMode::Ancestry => {
                        if self.router.route(k, n) == *gw {
                            // The owner itself lacks the key: terminally
                            // unresolved (deleted or never posted).
                            gctx.seen.insert(Rc::from(k.as_str()));
                            gctx.boundary.push((*d, k.clone()));
                        } else if !gctx.dispatched.contains(k.as_str()) {
                            match gctx.pending.get_mut(k.as_str()) {
                                Some(e) => *e = (*e).min(*d),
                                None => {
                                    gctx.pending.insert(Rc::from(k.as_str()), *d);
                                }
                            }
                        }
                    }
                    GraphMode::Scatter => {
                        // Liveness is settled when the key's own round
                        // fans in; until then it stays on the frontier.
                        if !gctx.dispatched.contains(k.as_str()) {
                            match gctx.pending.get_mut(k.as_str()) {
                                Some(e) => *e = (*e).min(*d),
                                None => {
                                    gctx.pending.insert(Rc::from(k.as_str()), *d);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Scatter roots no shard reported live are terminally unresolved.
        if mode == GraphMode::Scatter {
            let roots = std::mem::take(&mut gctx.round_roots);
            for (d, k) in roots {
                if !gctx.seen.contains(&*k) {
                    gctx.boundary.push((d, k.to_string()));
                    gctx.seen.insert(k);
                }
            }
        }
        for (_, slice) in &mut round {
            gctx.edges.append(&mut slice.edges);
        }
        // A peer's truncation flag is meaningful only when the round ran
        // at the global clamp (intermediate scatter rounds are clamped on
        // purpose — their cut edges are the next frontier).
        if gctx.round_max == max_depth && round.iter().any(|(_, s)| s.truncated) {
            gctx.truncated = true;
        }
    }

    /// Completes a cross-shard graph traversal with its merged slice.
    fn complete_graph(&mut self, ctx: &mut Context<'_, NodeMsgOf>, mut gctx: GraphCtx) {
        gctx.entries.sort();
        gctx.boundary.sort();
        gctx.edges.sort();
        gctx.edges.dedup();
        let slice = GraphSlice {
            entries: std::mem::take(&mut gctx.entries),
            boundary: std::mem::take(&mut gctx.boundary),
            edges: std::mem::take(&mut gctx.edges),
            truncated: gctx.truncated,
        };
        self.complete(ctx, gctx.op, gctx.started, Ok(OpOutput::Graph(slice)));
    }

    fn on_gateway_event(&mut self, ctx: &mut Context<'_, NodeMsgOf>, event: GatewayEvent) {
        match event {
            GatewayEvent::TxCommitted {
                tx_id,
                code,
                payload,
                ..
            } => {
                if let Some(op_ctx) = self.by_tx.remove(&tx_id) {
                    let outcome = if code.is_valid() {
                        let record = ProvenanceRecord::from_bytes(&payload).ok();
                        Ok(OpOutput::Committed { record, tx_id })
                    } else {
                        Err(HyperProvError::Invalidated(code))
                    };
                    self.complete(ctx, op_ctx.op, op_ctx.started, outcome);
                }
            }
            GatewayEvent::TxFailed { tx_id, error } => {
                if let Some(op_ctx) = self.by_tx.remove(&tx_id) {
                    self.fail_or_retry(ctx, op_ctx, error);
                }
            }
            GatewayEvent::QueryDone { tx_id, result, .. } => {
                if let Some((id, gw)) = self.scatter_txs.remove(&tx_id) {
                    self.on_scatter_response(ctx, id, gw, result);
                    return;
                }
                if let Some(id) = self.lineage_txs.remove(&tx_id) {
                    self.on_lineage_response(ctx, id, result);
                    return;
                }
                if let Some((id, gw)) = self.graph_txs.remove(&tx_id) {
                    self.on_graph_response(ctx, id, gw, result);
                    return;
                }
                let Some(op_ctx) = self.by_tx.remove(&tx_id) else {
                    return;
                };
                let bytes = match result {
                    Ok(bytes) => bytes,
                    Err(error) => return self.fail_or_retry(ctx, op_ctx, error),
                };
                let (op, started) = (op_ctx.op, op_ctx.started);
                let outcome = match op_ctx.state {
                    OpState::Query(kind) => decode_query(kind, &bytes),
                    OpState::RecordThenData { check_only } => {
                        match ProvenanceRecord::from_bytes(&bytes) {
                            Ok(record) if record.has_offchain_data() => {
                                self.next_store_token += 1;
                                let token = self.next_store_token;
                                // The object name is the checksum hex (the
                                // location's last path component).
                                let name = record
                                    .location
                                    .rsplit('/')
                                    .next()
                                    .unwrap_or(&record.location)
                                    .to_owned();
                                let state = OpState::Payload {
                                    record: Box::new(record),
                                    check_only,
                                };
                                self.by_store_token.insert(token, OpCtx { state, ..op_ctx });
                                // Off-chain fetch phase of a GetData /
                                // CheckData, closed on the GetResult.
                                ctx.span_start(&op_trace(op), "offchain.get", "");
                                let msg = StoreMsg::Get { name, token };
                                let bytes = msg.wire_size();
                                let storage = self.storage;
                                ctx.send(storage, bytes, NodeMsgOf::wrap(msg));
                                return;
                            }
                            Ok(_) => Err(HyperProvError::Rejected(
                                "item has no off-chain payload".to_owned(),
                            )),
                            Err(err) => Err(HyperProvError::Malformed(err.to_string())),
                        }
                    }
                    _ => Err(HyperProvError::Malformed(
                        "unexpected query response".to_owned(),
                    )),
                };
                self.complete(ctx, op, started, outcome);
            }
        }
    }

    fn on_store_msg(&mut self, ctx: &mut Context<'_, NodeMsgOf>, msg: StoreMsg) {
        match msg {
            StoreMsg::PutAck { token, result, .. } => {
                let Some(op_ctx) = self.by_store_token.remove(&token) else {
                    return;
                };
                let OpCtx {
                    op, started, state, ..
                } = op_ctx;
                ctx.span_end(&op_trace(op), "offchain.put", "");
                match (result, state) {
                    (Ok(()), OpState::StorePut { key, input }) => {
                        // Payload stored: now post the metadata on-chain,
                        // on the shard that owns the key. The gateway
                        // phase starts here, with a fresh retry budget.
                        let gw = self.route(&key);
                        let args = vec![
                            key.into_bytes(),
                            hyperprov_ledger::Encode::to_bytes(input.as_ref()),
                        ];
                        let op_ctx = OpCtx::new(op, started, OpState::Commit);
                        self.submit_tx(ctx, op_ctx, gw, true, "post", args);
                    }
                    (Err(err), _) => {
                        self.complete(ctx, op, started, Err(HyperProvError::Storage(err)));
                    }
                    (Ok(()), _) => {
                        let error = HyperProvError::Malformed("unexpected put ack".to_owned());
                        self.complete(ctx, op, started, Err(error));
                    }
                }
            }
            StoreMsg::GetResult { token, result, .. } => {
                let Some(op_ctx) = self.by_store_token.remove(&token) else {
                    return;
                };
                let OpCtx {
                    op, started, state, ..
                } = op_ctx;
                ctx.span_end(&op_trace(op), "offchain.get", "");
                let OpState::Payload { record, check_only } = state else {
                    return;
                };
                let outcome = match result {
                    Ok(data) => {
                        // Client-side verification hash.
                        let hash_cost = self.costs.hash_cost(data.len() as u64);
                        self.harness.charge(ctx, hash_cost);
                        let actual = Digest::of(&data);
                        let ok = actual == record.checksum;
                        if check_only {
                            Ok(OpOutput::Checked { ok })
                        } else if ok {
                            Ok(OpOutput::Data {
                                record: *record,
                                data,
                            })
                        } else {
                            Err(HyperProvError::IntegrityViolation {
                                expected: record.checksum,
                                actual,
                            })
                        }
                    }
                    Err(err) => {
                        if check_only {
                            Ok(OpOutput::Checked { ok: false })
                        } else {
                            Err(HyperProvError::Storage(err))
                        }
                    }
                };
                self.complete(ctx, op, started, outcome);
            }
            _ => {}
        }
    }
}

fn decode_query(kind: QueryKind, bytes: &[u8]) -> Result<OpOutput, HyperProvError> {
    let malformed = |e: hyperprov_ledger::CodecError| HyperProvError::Malformed(e.to_string());
    match kind {
        QueryKind::Get => Ok(OpOutput::Record(
            ProvenanceRecord::from_bytes(bytes).map_err(malformed)?,
        )),
        QueryKind::History => Ok(OpOutput::History(decode_history(bytes).map_err(malformed)?)),
        QueryKind::Keys | QueryKind::List => Ok(OpOutput::Keys(
            Vec::<String>::from_bytes(bytes).map_err(malformed)?,
        )),
        QueryKind::Lineage { max_depth } => {
            let entries = decode_lineage(bytes).map_err(malformed)?;
            let truncated = lineage_truncated(&entries, max_depth);
            Ok(OpOutput::Lineage { entries, truncated })
        }
        QueryKind::Graph => Ok(OpOutput::Graph(
            GraphSlice::from_bytes(bytes).map_err(malformed)?,
        )),
    }
}

/// Truncation detection for the single-shard lineage path, where the wire
/// format carries no explicit marker: an entry sitting at the depth clamp
/// whose parent never appears in the returned set means the walk was cut
/// short. (A parent deleted from state reads the same way — the chaincode
/// BFS cannot distinguish the two without extra reads.)
fn lineage_truncated(entries: &[LineageEntry], max_depth: u32) -> bool {
    let keys: HashSet<&str> = entries.iter().map(|e| e.record.key.as_str()).collect();
    entries.iter().any(|e| {
        e.depth == max_depth && e.record.parents.iter().any(|p| !keys.contains(p.as_str()))
    })
}

/// The message type [`HyperProvClient`] is written against.
pub type NodeMsgOf = crate::net::NodeMsg;

impl HyperProvClient {
    /// Which gateway an incoming Fabric message belongs to: the one that
    /// has the message's transaction in flight. Messages no gateway
    /// recognises (stale commit notifications for other clients' txs) go
    /// to gateway 0, which ignores them — exactly the single-gateway
    /// behaviour.
    fn gateway_for(&self, msg: &FabricMsg) -> usize {
        if self.gateways.len() == 1 {
            return 0;
        }
        let tx_id = match msg {
            FabricMsg::ProposalResult(resp) => &resp.tx_id,
            FabricMsg::Commit(event) => &event.tx_id,
            _ => return 0,
        };
        self.gateways
            .iter()
            .position(|g| g.knows(tx_id))
            .unwrap_or(0)
    }
}

impl Actor<NodeMsgOf> for HyperProvClient {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_event(&mut self, ctx: &mut Context<'_, NodeMsgOf>, event: Event<NodeMsgOf>) {
        match event {
            Event::Message { msg, .. } => match msg {
                crate::net::NodeMsg::Client(cmd) => self.start(ctx, cmd),
                crate::net::NodeMsg::Fabric(fmsg) => {
                    let gw = self.gateway_for(&fmsg);
                    let events = self.gateways[gw].handle(ctx, fmsg);
                    for ev in events {
                        self.on_gateway_event(ctx, ev);
                    }
                }
                crate::net::NodeMsg::Store(smsg) => self.on_store_msg(ctx, smsg),
            },
            Event::Timer { token } => {
                if Gateway::owns_timer(token) {
                    // A per-op deadline (endorse or commit-wait) expired;
                    // deadline-token salts make ownership unambiguous.
                    let gw = self
                        .gateways
                        .iter()
                        .position(|g| g.owns_deadline(token))
                        .unwrap_or(0);
                    let events = self.gateways[gw].on_timer(ctx, token);
                    for ev in events {
                        self.on_gateway_event(ctx, ev);
                    }
                } else if token & CLIENT_RETRY_BIT != 0
                    && token & hyperprov_sim::HARNESS_TOKEN_BIT == 0
                {
                    self.on_retry_timer(ctx, token);
                } else {
                    // CPU-accounting charges (hashing, signing) release
                    // here.
                    let _ = self.harness.on_timer(ctx, token);
                }
            }
        }
    }
}

impl fmt::Debug for HyperProvClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HyperProvClient")
            .field("gateways", &self.gateways.len())
            .field("inflight_tx", &self.by_tx.len())
            .field("inflight_store", &self.by_store_token.len())
            .finish()
    }
}
