//! What the client decides, as a sans-IO machine: a [`Client`] takes what
//! happened — a command, a Fabric or storage message, a timer — and
//! answers with the [`Action`]s its host performs, in order.
//!
//! It holds the table of running [`Plan`]s, the client's one [`Gateway`]
//! (every chain request, with deadlines and retry) and at most one
//! transfer row per operation: its off-chain `Put` or `Get`. A transfer
//! row keeps the gateway's rule of one row, one timer, under the gateway's
//! endorse deadline and `RetryPolicy`; a retry is sent under a fresh
//! correlation token, so a reply to an abandoned attempt finds no row.
//! Gateway tokens count up from 1; transfer tokens carry
//! [`TRANSFER_TOKEN_BIT`].

use std::collections::HashMap;

use hyperprov_fabric::costs::hash_cost;
use hyperprov_fabric::{Caller, Gateway, GatewayAction, GatewayDone, GatewayView};
use hyperprov_offchain::StoreMsg;
use hyperprov_sim::{ActorId, DetRng, SimTime};

use super::api::{ClientCommand, CompletionQueue, HyperProvError, OpId, OpOutput};
use super::plan::{Plan, Reply, Request, Step};
use crate::chaincode::CHAINCODE_NAME;
use crate::net::NodeMsg;

/// The bit every transfer token carries and no gateway token does.
pub const TRANSFER_TOKEN_BIT: u64 = 1 << 62;

/// What only a client asks its host for: the operation that started at
/// this instant is over.
#[derive(Debug)]
pub struct ClientOwn(pub OpId, pub SimTime, pub Result<OpOutput, HyperProvError>);

/// What a client answers an input with: its sends carry chain and storage
/// messages alike.
pub type Action = hyperprov_fabric::Action<ClientOwn, NodeMsg>;

type Out = Vec<Action>;

hyperprov_sim::view! {
    /// A client's view.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ClientView {
        /// Its gateway's.
        pub gateway: GatewayView,
        /// Operations running.
        pub operations: usize,
        /// Transfer rows: off-chain puts and gets, and their backoffs.
        pub transfers: usize,
    }
}

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

/// An operation's off-chain transfer, keyed by the token of its one
/// wake-up: the live attempt's correlation token, or its backoff's.
#[derive(Debug)]
struct Transfer {
    op: OpId,
    slot: u64,
    /// Attempts sent so far.
    attempts: u32,
    /// The live attempt's span, `offchain.put` or `offchain.get`; `None`
    /// while sleeping out a backoff.
    stage: Option<&'static str>,
    /// The request, to send again: kept only under a deadline and a policy.
    redo: Option<Request>,
}

/// The HyperProv client machine.
#[derive(Debug)]
pub struct Client {
    /// Route index = shard index under [`HashRouter`](crate::HashRouter).
    gateway: Gateway<Origin>,
    storage: ActorId,
    location_prefix: String,
    /// Running operations by slot.
    operations: HashMap<u64, Running>,
    next_slot: u64,
    /// Transfer rows by token.
    transfers: HashMap<u64, Transfer>,
    next_token: u64,
    /// Where its host queues each finished operation, for the embedding
    /// code to drain.
    pub(crate) completions: CompletionQueue,
}

impl Client {
    /// A client over `gateway`, storing payloads at `storage` and naming
    /// them `location_prefix` + checksum hex on-chain.
    pub fn new(gateway: Gateway<Origin>, storage: ActorId, location_prefix: String) -> Self {
        Client {
            gateway,
            storage,
            location_prefix,
            operations: HashMap::new(),
            next_slot: 0,
            transfers: HashMap::new(),
            next_token: 0,
            completions: CompletionQueue::default(),
        }
    }

    /// Its gateway's view, the operations running (those sleeping out a
    /// backoff included) and the transfer rows.
    pub fn view(&self) -> ClientView {
        ClientView {
            gateway: self.gateway.view(),
            operations: self.operations.len(),
            transfers: self.transfers.len(),
        }
    }

    /// A command arrived at `now`: opens its `op` span, charges a payload's
    /// checksum — the dominant client CPU cost of large items (Figs 1 and
    /// 2) — and starts its plan.
    pub fn command(&mut self, now: SimTime, cmd: ClientCommand) -> Out {
        let op = cmd.op();
        let mut out = vec![Action::SpanStart(op_trace(op), "op", String::new())];
        if let ClientCommand::StoreData { data, .. } = &cmd {
            out.push(Action::Charge(hash_cost(data.len() as u64)));
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
        self.send(slot, op, requests, now, &mut out);
        out
    }

    /// A Fabric or storage message from `src` arrived at `now`. `rng` is
    /// the host actor's stream: a retry draws its backoff from it.
    pub fn message(&mut self, src: ActorId, msg: NodeMsg, now: SimTime, rng: &mut DetRng) -> Out {
        let mut out = Vec::new();
        let (token, result) = match msg {
            NodeMsg::Fabric(msg) => {
                let actions = self.gateway.on_message(src, msg, now, rng);
                self.run(actions, now, &mut out);
                return out;
            }
            NodeMsg::Store(StoreMsg::PutAck { token, result, .. }) => {
                (token, result.map(|()| Reply::Stored))
            }
            NodeMsg::Store(StoreMsg::GetResult { token, result, .. }) => {
                (token, result.map(Reply::Bytes))
            }
            _ => return out,
        };
        // A live attempt's reply ends its row; an abandoned attempt's finds
        // none, and no reply carries a backoff's token.
        let Some(Transfer {
            op,
            slot,
            stage: Some(stage),
            ..
        }) = self.transfers.remove(&token)
        else {
            return out;
        };
        if self.gateway.endorse_deadline().is_some() {
            out.push(Action::Disarm(token));
        }
        out.push(Action::SpanEnd(op_trace(op), stage, String::new()));
        if let Ok(Reply::Bytes(data)) = &result {
            // The verification hash.
            out.push(Action::Charge(hash_cost(data.len() as u64)));
        }
        let reply = result.unwrap_or_else(|err| Reply::Failed(HyperProvError::Storage(err)));
        self.advance(slot, 0, reply, now, &mut out);
        out
    }

    /// A wake-up fired at `now`: a gateway row's or a transfer's. A transfer's
    /// backoff sends the next attempt; its deadline abandons this one and
    /// backs off, or ends the operation `Exhausted` — `Timeout` with no
    /// policy.
    pub fn timer(&mut self, token: u64, now: SimTime, rng: &mut DetRng) -> Out {
        let mut out = Vec::new();
        if token & TRANSFER_TOKEN_BIT == 0 {
            let actions = self.gateway.on_timer(token, now, rng);
            self.run(actions, now, &mut out);
            return out;
        }
        let Some(mut row) = self.transfers.remove(&token) else {
            return out;
        };
        let Some(stage) = row.stage.take() else {
            let request = row.redo.expect("invariant: only a kept request backs off");
            self.transfer(row.slot, row.op, row.attempts, request, &mut out);
            return out;
        };
        let trace = op_trace(row.op);
        out.push(Action::SpanEnd(trace.clone(), stage, String::new()));
        out.push(Action::Note(
            trace.clone(),
            "offchain.timeout",
            String::new(),
        ));
        out.push(Action::Count(None, "timeouts", 1));
        let error = match self.gateway.retry_policy() {
            Some(policy) => match policy.after_failure(row.attempts, trace, Some(rng), &mut out) {
                Ok(backoff) => {
                    let token = self.token();
                    out.push(Action::Arm(token, backoff));
                    self.transfers.insert(token, row);
                    return out;
                }
                Err(exhausted) => exhausted.into(),
            },
            None => HyperProvError::Timeout,
        };
        self.advance(row.slot, 0, Reply::Failed(error), now, &mut out);
        out
    }

    /// Carries out the requests a plan of operation `slot` asked for.
    fn send(&mut self, slot: u64, op: OpId, requests: Vec<Request>, now: SimTime, out: &mut Out) {
        for request in requests {
            let Request::Chain(call) = request else {
                self.transfer(slot, op, 0, request, out);
                continue;
            };
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
            let actions = start(
                &mut self.gateway,
                call.shard,
                origin,
                now,
                CHAINCODE_NAME,
                call.function,
                call.args,
            );
            self.run(actions, now, out);
        }
    }

    /// Appends what the gateway answered and, if that completed a request
    /// (always the last action), hands the outcome to its plan.
    fn run(&mut self, actions: Vec<GatewayAction<Origin>>, now: SimTime, out: &mut Out) {
        out.reserve(actions.len());
        for action in actions {
            match action.split() {
                Ok(action) => out.push(action),
                Err(GatewayDone(origin, result)) => {
                    let reply =
                        result.map_or_else(|error| Reply::Failed(error.into()), Reply::from);
                    self.advance(origin.slot, origin.shard, reply, now, out);
                }
            }
        }
    }

    /// Hands operation `slot`'s plan the reply to one of its requests and
    /// does what it asks next.
    fn advance(&mut self, slot: u64, shard: usize, reply: Reply, now: SimTime, out: &mut Out) {
        let shards = self.gateway.shards();
        let Some(running) = self.operations.get_mut(&slot) else {
            return;
        };
        let op = running.op;
        match running.plan.on_reply(shard, reply, shards) {
            Step::Wait => {}
            Step::Send(requests) => self.send(slot, op, requests, now, out),
            Step::Done(outcome) => {
                let running = self
                    .operations
                    .remove(&slot)
                    .expect("invariant: entry matched above");
                out.push(Action::SpanEnd(op_trace(op), "op", String::new()));
                out.push(Action::Own(ClientOwn(op, running.started, outcome)));
            }
        }
    }

    /// Sends attempt `attempts + 1` of an off-chain transfer under a fresh
    /// token: opens its span, sends, and arms the deadline if there is one.
    /// A put is addressed by its checksum, so sending it twice is harmless.
    fn transfer(&mut self, slot: u64, op: OpId, attempts: u32, request: Request, out: &mut Out) {
        let deadline = self.gateway.endorse_deadline();
        let kept = deadline.and(self.gateway.retry_policy());
        let redo = kept.map(|_| request.clone());
        let token = self.token();
        let (stage, msg) = match request {
            Request::Put { name, data } => ("offchain.put", StoreMsg::Put { name, data, token }),
            Request::Fetch { name } => ("offchain.get", StoreMsg::Get { name, token }),
            Request::Chain(_) => unreachable!("a chain call goes to the gateway"),
        };
        out.push(Action::SpanStart(op_trace(op), stage, String::new()));
        let bytes = msg.wire_size();
        out.push(Action::Send(self.storage, bytes, NodeMsg::Store(msg)));
        if let Some(delay) = deadline {
            out.push(Action::Arm(token, delay));
        }
        let row = Transfer {
            op,
            slot,
            attempts: attempts + 1,
            stage: Some(stage),
            redo,
        };
        self.transfers.insert(token, row);
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        TRANSFER_TOKEN_BIT | self.next_token
    }
}
