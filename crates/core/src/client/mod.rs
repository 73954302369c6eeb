//! The HyperProv client library — the Rust equivalent of the paper's
//! NodeJS client, hiding Fabric and off-chain storage behind a handful of
//! operators: `post`, `get`, `store_data`, `get_data`, `check_data`,
//! `get_history`, `get_keys_by_checksum`, `get_lineage`, `delete`.
//!
//! [`plan`] turns every command into a pure state machine, and the
//! sans-IO [`Client`] runs the plans and their gateway and storage
//! requests. [`HyperProvClient`] is the simulation actor around it.

mod api;
mod graph;
mod machine;
pub mod plan;

use hyperprov_fabric::{CostModel, Gateway, Host};
use hyperprov_sim::{Actor, ActorId, Context, Event};

pub use self::api::{
    ClientCommand, ClientCompletion, CompletionQueue, HyperProvError, OpId, OpOutput, RetryPolicy,
};
pub use self::machine::{Client, ClientOwn, Origin, TRANSFER_TOKEN_BIT};
use crate::net::NodeMsg;

/// The client actor: it feeds [`ClientCommand`]s (injected by the facade
/// or a workload driver) and replies to its [`Client`], has a [`Host`]
/// perform what that answers, and queues the [`ClientCompletion`]s.
#[derive(Debug)]
pub struct HyperProvClient {
    client: Client,
    host: Host<NodeMsg>,
    completions: CompletionQueue,
}

impl HyperProvClient {
    /// Creates a client over a gateway with one route per channel, in
    /// shard-index order (see [`plan`] for what goes where). Its endorse
    /// deadline and retry policy bound each off-chain transfer too.
    /// `location_prefix` + a payload's checksum hex is the on-chain
    /// `location` field (e.g. `"sshfs://store0/"`).
    pub fn new(
        gateway: Gateway<Origin>,
        storage: ActorId,
        location_prefix: impl Into<String>,
        costs: CostModel,
    ) -> (Self, CompletionQueue) {
        let completions = CompletionQueue::default();
        let actor = HyperProvClient {
            client: Client::new(gateway, storage, location_prefix.into(), costs),
            host: Host::new("client"),
            completions: completions.clone(),
        };
        (actor, completions)
    }
}

impl Actor<NodeMsg> for HyperProvClient {
    fn on_event(&mut self, ctx: &mut Context<'_, NodeMsg>, event: Event<NodeMsg>) {
        let actions = match event {
            Event::Message {
                msg: NodeMsg::Client(cmd),
                ..
            } => self.client.command(ctx.now(), cmd),
            Event::Message { msg, .. } => self.client.message(msg, ctx.rng()),
            // A CPU charge releases in the harness; any other timer is
            // the machine's.
            Event::Timer { token } if self.host.timer(ctx, token) => {
                self.client.timer(token, ctx.rng())
            }
            Event::Timer { .. } => return,
        };
        let completions = &self.completions;
        self.host.perform(ctx, actions, |_, ctx, own| match own {
            ClientOwn::Store(to, bytes, msg) => ctx.send(to, bytes, NodeMsg::Store(msg)),
            ClientOwn::Done(op, started, outcome) => {
                // SLO sources: goodput objectives watch "client.ok",
                // error-rate objectives pair it with "client.err".
                ctx.slo_event(if outcome.is_ok() {
                    "client.ok"
                } else {
                    "client.err"
                });
                completions.borrow_mut().push_back(ClientCompletion {
                    op,
                    started,
                    finished: ctx.now(),
                    outcome,
                });
            }
        });
    }
}
