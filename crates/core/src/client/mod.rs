//! The HyperProv client library — the Rust equivalent of the paper's
//! NodeJS client, hiding Fabric and off-chain storage behind a handful of
//! operators: `post`, `get`, `store_data`, `get_data`, `check_data`,
//! `get_history`, `get_keys_by_checksum`, `get_lineage`, `delete`.
//!
//! [`HyperProvClient`] is a simulation actor; it receives
//! [`ClientCommand`]s (injected by the synchronous facade or by a workload
//! driver), drives the blockchain gateways and the storage node, and
//! pushes [`ClientCompletion`]s into a shared queue the caller drains.
//!
//! Every command runs the same way. [`plan`] turns it into a [`Plan`] —
//! a pure state machine — and the actor keeps two tables: the running
//! operations, and the gateway requests in flight for them. Every
//! gateway request of every plan goes through the actor's one `submit`,
//! so a shard's sub-query of a scattered `list` is counted, retried and
//! reported as exhausted exactly as a `post` is.

mod api;
mod graph;
pub mod plan;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use hyperprov_fabric::{CostModel, FabricMsg, Gateway, GatewayError, GatewayEvent};
use hyperprov_ledger::TxId;
use hyperprov_offchain::StoreMsg;
use hyperprov_sim::{Actor, ActorId, Carries, Context, Event, ServiceHarness, SimTime};

pub use self::api::{
    ClientCommand, ClientCompletion, CompletionQueue, HyperProvError, OpId, OpOutput, RetryPolicy,
};
use self::plan::{Call, Plan, Reply, Request, Step};
use crate::chaincode::CHAINCODE_NAME;

/// A running operation.
#[derive(Debug)]
struct Running {
    op: OpId,
    started: SimTime,
    plan: Plan,
}

/// One gateway request of a running operation: in flight under a tx id,
/// or sleeping out a backoff under a timer token.
#[derive(Debug)]
struct Tracked {
    /// The operation it belongs to (key into `operations`).
    slot: u64,
    /// The gateway (channel) it was issued on.
    shard: usize,
    /// Attempts made so far (1 = first try).
    attempts: u32,
    /// The call, to re-issue it with a fresh tx id (kept only when a
    /// retry policy is armed).
    redo: Option<Call>,
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
#[derive(Debug)]
pub struct HyperProvClient {
    /// One gateway per channel; index = shard index under
    /// [`HashRouter`](crate::HashRouter). Single-element on unsharded
    /// deployments.
    gateways: Vec<Gateway>,
    storage: ActorId,
    location_prefix: String,
    costs: CostModel,
    completions: CompletionQueue,
    retry: Option<RetryPolicy>,
    /// Running operations by slot. The slot is also the correlation token
    /// of the operation's storage transfer (it has at most one).
    operations: HashMap<u64, Running>,
    /// Gateway requests in flight.
    requests: HashMap<TxId, Tracked>,
    /// Gateway requests sleeping out a backoff, by retry timer token.
    backoffs: HashMap<u64, Tracked>,
    /// Source of operation slots and retry timer tokens.
    next_id: u64,
    harness: ServiceHarness<NodeMsgOf>,
}

impl HyperProvClient {
    /// Creates a client with one gateway per channel (in shard-index
    /// order; exactly one on an unsharded deployment). Keyed operations
    /// go to the shard that owns the key; `list` and
    /// `get_keys_by_checksum` ask every shard, and on several channels
    /// `get_lineage` and the graph queries walk parent links across
    /// shards client-side (see [`plan`]).
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
                storage,
                location_prefix: location_prefix.into(),
                costs,
                completions: completions.clone(),
                retry: None,
                operations: HashMap::new(),
                requests: HashMap::new(),
                backoffs: HashMap::new(),
                next_id: 0,
                harness: ServiceHarness::new("client"),
            },
            completions,
        )
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
        self.operations.len()
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn start(&mut self, ctx: &mut Context<'_, NodeMsgOf>, cmd: ClientCommand) {
        let now = ctx.now();
        let op = cmd.op();
        // End-to-end operator span, closed when the completion is queued.
        ctx.span_start(&op_trace(op), "op", "");
        if let ClientCommand::StoreData { data, .. } = &cmd {
            // Client-side checksum of the payload: the dominant client
            // CPU cost for large items (per the paper's Fig. 1 and 2).
            let hash_cost = self.costs.hash_cost(data.len() as u64);
            self.harness.charge(ctx, hash_cost);
        }
        let (plan, requests) = Plan::start(
            cmd,
            self.gateways.len(),
            &self.location_prefix,
            now.as_nanos() / 1_000_000,
        );
        let slot = self.next_id();
        let running = Running {
            op,
            started: now,
            plan,
        };
        self.operations.insert(slot, running);
        self.send(ctx, slot, op, requests);
    }

    /// Carries out the requests a plan of operation `slot` asked for.
    fn send(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        slot: u64,
        op: OpId,
        requests: Vec<Request>,
    ) {
        for request in requests {
            let msg = match request {
                Request::Chain(call) => {
                    self.submit(ctx, slot, 0, call);
                    continue;
                }
                // The off-chain transfer phases of a StoreData and of a
                // GetData / CheckData, closed on the PutAck / GetResult.
                Request::Put { name, data } => {
                    ctx.span_start(&op_trace(op), "offchain.put", "");
                    StoreMsg::Put {
                        name,
                        data,
                        token: slot,
                    }
                }
                Request::Fetch { name } => {
                    ctx.span_start(&op_trace(op), "offchain.get", "");
                    StoreMsg::Get { name, token: slot }
                }
            };
            let bytes = msg.wire_size();
            ctx.send(self.storage, bytes, NodeMsgOf::wrap(msg));
        }
    }

    /// Issues (or re-issues) a gateway request — the one place the client
    /// calls a gateway — and indexes it by the fresh tx id. `attempts`
    /// counts the tries before this one.
    fn submit(&mut self, ctx: &mut Context<'_, NodeMsgOf>, slot: u64, attempts: u32, call: Call) {
        let redo = self.retry.map(|_| call.clone());
        let Call {
            shard,
            invoke,
            function,
            args,
        } = call;
        let gateway = &mut self.gateways[shard];
        let tx_id = if invoke {
            gateway.invoke(ctx, &mut self.harness, CHAINCODE_NAME, function, args)
        } else {
            gateway.query(ctx, &mut self.harness, CHAINCODE_NAME, function, args)
        };
        let tracked = Tracked {
            slot,
            shard,
            attempts: attempts + 1,
            redo,
        };
        self.requests.insert(tx_id, tracked);
    }

    /// Terminal-vs-retry decision for a failed gateway request. Transient
    /// errors are retried on a jittered exponential backoff until the
    /// attempt budget is spent; everything else (and every failure when no
    /// policy is armed) is the request's reply to its plan.
    fn fail_or_retry(
        &mut self,
        ctx: &mut Context<'_, NodeMsgOf>,
        tracked: Tracked,
        error: GatewayError,
    ) {
        if matches!(
            error,
            GatewayError::EndorseTimeout | GatewayError::CommitTimeout
        ) {
            ctx.metrics().incr("client.timeouts", 1);
        }
        let error = match self.retry {
            Some(policy) if error.is_retryable() => {
                if tracked.attempts < policy.max_attempts {
                    let backoff = policy.backoff(tracked.attempts, ctx.rng());
                    ctx.metrics().incr("client.retries", 1);
                    ctx.metrics().record_duration("client.backoff", backoff);
                    if let Some(running) = self.operations.get(&tracked.slot) {
                        ctx.trace_event(
                            &op_trace(running.op),
                            "op.retry",
                            &format!("attempt={} backoff={backoff}", tracked.attempts + 1),
                        );
                    }
                    let token = CLIENT_RETRY_BIT | self.next_id();
                    self.backoffs.insert(token, tracked);
                    ctx.set_timer(backoff, token);
                    return;
                }
                ctx.metrics().incr("client.exhausted", 1);
                HyperProvError::Exhausted {
                    attempts: tracked.attempts,
                }
            }
            _ => error.into(),
        };
        self.advance(ctx, tracked.slot, tracked.shard, Reply::Failed(error));
    }

    /// A backoff timer fired: re-issue the sleeping request with a fresh
    /// tx id.
    fn on_retry_timer(&mut self, ctx: &mut Context<'_, NodeMsgOf>, token: u64) {
        if let Some(tracked) = self.backoffs.remove(&token) {
            if let Some(call) = tracked.redo {
                self.submit(ctx, tracked.slot, tracked.attempts, call);
            }
        }
    }

    /// Hands operation `slot`'s plan the reply to one of its requests and
    /// does what it asks next.
    fn advance(&mut self, ctx: &mut Context<'_, NodeMsgOf>, slot: u64, shard: usize, reply: Reply) {
        let shards = self.gateways.len();
        let Some(running) = self.operations.get_mut(&slot) else {
            return;
        };
        let op = running.op;
        match running.plan.on_reply(shard, reply, shards) {
            Step::Wait => {}
            Step::Send(requests) => self.send(ctx, slot, op, requests),
            Step::Done(outcome) => {
                let running = self
                    .operations
                    .remove(&slot)
                    .expect("invariant: entry matched above");
                ctx.span_end(&op_trace(op), "op", "");
                // SLO sources: goodput objectives watch "client.ok",
                // error-rate objectives pair it with "client.err".
                ctx.slo_event(if outcome.is_ok() {
                    "client.ok"
                } else {
                    "client.err"
                });
                self.completions.borrow_mut().push_back(ClientCompletion {
                    op,
                    started: running.started,
                    finished: ctx.now(),
                    outcome,
                });
            }
        }
    }

    fn on_gateway_event(&mut self, ctx: &mut Context<'_, NodeMsgOf>, event: GatewayEvent) {
        let (tx_id, outcome) = match event {
            GatewayEvent::TxCommitted {
                tx_id,
                code,
                payload,
                ..
            } => {
                let reply = Reply::Committed {
                    tx_id,
                    code,
                    payload,
                };
                (tx_id, Ok(reply))
            }
            GatewayEvent::TxFailed { tx_id, error } => (tx_id, Err(error)),
            GatewayEvent::QueryDone { tx_id, result, .. } => (tx_id, result.map(Reply::Bytes)),
        };
        let Some(tracked) = self.requests.remove(&tx_id) else {
            return;
        };
        match outcome {
            Ok(reply) => self.advance(ctx, tracked.slot, tracked.shard, reply),
            Err(error) => self.fail_or_retry(ctx, tracked, error),
        }
    }

    fn on_store_msg(&mut self, ctx: &mut Context<'_, NodeMsgOf>, msg: StoreMsg) {
        let (slot, span, reply) = match msg {
            StoreMsg::PutAck { token, result, .. } => {
                (token, "offchain.put", result.map(|()| Reply::Stored))
            }
            StoreMsg::GetResult { token, result, .. } => {
                (token, "offchain.get", result.map(Reply::Bytes))
            }
            _ => return,
        };
        let Some(running) = self.operations.get(&slot) else {
            return;
        };
        ctx.span_end(&op_trace(running.op), span, "");
        if let Ok(Reply::Bytes(data)) = &reply {
            // Client-side verification hash.
            let hash_cost = self.costs.hash_cost(data.len() as u64);
            self.harness.charge(ctx, hash_cost);
        }
        let reply = reply.unwrap_or_else(|err| Reply::Failed(HyperProvError::Storage(err)));
        self.advance(ctx, slot, 0, reply);
    }

    /// Which gateway an incoming Fabric message belongs to: the one the
    /// request table says has the message's transaction in flight.
    /// Messages for no request of ours (stale commit notifications for
    /// other clients' txs, answers to requests that timed out) go to
    /// gateway 0, which ignores them — exactly the single-gateway
    /// behaviour.
    fn gateway_for(&self, msg: &FabricMsg) -> usize {
        let tx_id = match msg {
            FabricMsg::ProposalResult(resp) => &resp.tx_id,
            FabricMsg::Commit(event) => &event.tx_id,
            _ => return 0,
        };
        self.requests.get(tx_id).map_or(0, |tracked| tracked.shard)
    }
}

/// The message type [`HyperProvClient`] is written against.
pub type NodeMsgOf = crate::net::NodeMsg;

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
