//! The HyperProv client library — the Rust equivalent of the paper's
//! NodeJS client, hiding Fabric and off-chain storage behind a handful of
//! operators: `post`, `get`, `store_data`, `get_data`, `check_data`,
//! `get_history`, `get_keys_by_checksum`, `get_lineage`, `delete`.
//!
//! [`HyperProvClient`] is a simulation actor; it receives
//! [`ClientCommand`]s (injected by the synchronous facade or by a workload
//! driver), drives the blockchain gateway and the storage node, and
//! pushes [`ClientCompletion`]s into a shared queue the caller drains.
//!
//! Every command runs the same way. [`plan`] turns it into a [`Plan`] —
//! a pure state machine — and the actor keeps the table of running
//! operations. The gateway requests of their plans live in the client's
//! one [`Gateway`], another pure machine, which owns deadlines and retry:
//! a shard's sub-query of a scattered `list` is counted, retried and
//! reported as exhausted exactly as a `post` is. The actor itself only
//! moves values between the two and performs what they answer.

mod api;
mod graph;
pub mod plan;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use hyperprov_fabric::{
    Caller, CostModel, Gateway, GatewayAction, GatewayDone, GatewayReply, Host,
};
use hyperprov_offchain::StoreMsg;
use hyperprov_sim::{Actor, ActorId, Carries, Context, Event, SimTime};

pub use self::api::{
    ClientCommand, ClientCompletion, CompletionQueue, HyperProvError, OpId, OpOutput, RetryPolicy,
};
use self::plan::{Plan, Reply, Request, Step};
use crate::chaincode::CHAINCODE_NAME;

/// A running operation.
#[derive(Debug)]
struct Running {
    op: OpId,
    started: SimTime,
    plan: Plan,
}

/// The client's tag on a gateway request: the operation it belongs to
/// (key into `operations`) and the shard it went to.
#[derive(Debug)]
pub struct Origin {
    op: OpId,
    slot: u64,
    shard: usize,
}

impl Caller for Origin {
    fn trace(&self) -> String {
        op_trace(self.op)
    }
}

/// The span-trace key of a client operation, e.g. `"op-7"`.
fn op_trace(op: OpId) -> String {
    format!("op-{}", op.0)
}

/// The client actor.
#[derive(Debug)]
pub struct HyperProvClient {
    /// Every gateway request of every operation, on every channel; route
    /// index = shard index under [`HashRouter`](crate::HashRouter).
    gateway: Gateway<Origin>,
    /// Performs what the gateway answers, and absorbs the client's own
    /// CPU charges (hashing).
    host: Host<NodeMsgOf>,
    storage: ActorId,
    location_prefix: String,
    costs: CostModel,
    completions: CompletionQueue,
    /// Running operations by slot. The slot is also the correlation token
    /// of the operation's storage transfer (it has at most one).
    operations: HashMap<u64, Running>,
    next_slot: u64,
}

impl HyperProvClient {
    /// Creates a client over a gateway with one route per channel (in
    /// shard-index order; exactly one on an unsharded deployment). Keyed
    /// operations go to the shard that owns the key; `list` and
    /// `get_keys_by_checksum` ask every shard, and on several channels
    /// `get_lineage` and the graph queries walk parent links across
    /// shards client-side (see [`plan`]).
    ///
    /// `location_prefix` is prepended to content digests to form the
    /// on-chain `location` field (e.g. `"sshfs://store0/"`).
    pub fn new(
        gateway: Gateway<Origin>,
        storage: ActorId,
        location_prefix: impl Into<String>,
        costs: CostModel,
    ) -> (Self, CompletionQueue) {
        let completions: CompletionQueue = Rc::new(RefCell::new(VecDeque::new()));
        (
            HyperProvClient {
                gateway,
                host: Host::new("client"),
                storage,
                location_prefix: location_prefix.into(),
                costs,
                completions: completions.clone(),
                operations: HashMap::new(),
                next_slot: 0,
            },
            completions,
        )
    }

    /// Number of operations currently in flight (including operations
    /// sleeping out a retry backoff).
    pub fn inflight(&self) -> usize {
        self.operations.len()
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
            self.host.harness.charge(ctx, hash_cost);
        }
        let (plan, requests) = Plan::start(
            cmd,
            self.gateway.shards(),
            &self.location_prefix,
            now.as_nanos() / 1_000_000,
        );
        self.next_slot += 1;
        let slot = self.next_slot;
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
                    let origin = Origin {
                        op,
                        slot,
                        shard: call.shard,
                    };
                    let start = if call.invoke {
                        Gateway::invoke
                    } else {
                        Gateway::query
                    };
                    let (function, args) = (call.function, call.args);
                    let actions = start(
                        &mut self.gateway,
                        call.shard,
                        origin,
                        CHAINCODE_NAME,
                        function,
                        args,
                    );
                    self.run(ctx, actions);
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

    /// Performs what the gateway answered an input with and, if that
    /// completed a request, hands the outcome to the plan it belongs to.
    fn run(&mut self, ctx: &mut Context<'_, NodeMsgOf>, actions: Vec<GatewayAction<Origin>>) {
        let mut done = None;
        self.host
            .perform(ctx, actions, |_, _, ended| done = Some(ended));
        let Some(GatewayDone(origin, result)) = done else {
            return;
        };
        let reply = match result {
            Ok(GatewayReply::Bytes(bytes)) => Reply::Bytes(bytes),
            Ok(GatewayReply::Committed {
                tx_id,
                code,
                payload,
            }) => Reply::Committed {
                tx_id,
                code,
                payload,
            },
            Err(error) => Reply::Failed(error.into()),
        };
        self.advance(ctx, origin.slot, origin.shard, reply);
    }

    /// Hands operation `slot`'s plan the reply to one of its requests and
    /// does what it asks next.
    fn advance(&mut self, ctx: &mut Context<'_, NodeMsgOf>, slot: u64, shard: usize, reply: Reply) {
        let shards = self.gateway.shards();
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
            self.host.harness.charge(ctx, hash_cost);
        }
        let reply = reply.unwrap_or_else(|err| Reply::Failed(HyperProvError::Storage(err)));
        self.advance(ctx, slot, 0, reply);
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
                    let actions = self.gateway.on_message(fmsg, ctx.rng());
                    self.run(ctx, actions);
                }
                crate::net::NodeMsg::Store(smsg) => self.on_store_msg(ctx, smsg),
            },
            // CPU-accounting charges (hashing, signing) release in the
            // harness; every other timer is a gateway wake-up: a per-op
            // deadline or a retry backoff.
            Event::Timer { token } => {
                if self.host.timer(ctx, token) {
                    let actions = self.gateway.on_timer(token, ctx.rng());
                    self.run(ctx, actions);
                }
            }
        }
    }
}
