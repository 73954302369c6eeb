//! The HyperProv client library — the Rust equivalent of the paper's
//! NodeJS client, hiding Fabric and off-chain storage behind a handful of
//! operators: `post`, `get`, `store_data`, `get_data`, `check_data`,
//! `get_history`, `get_keys_by_checksum`, `get_lineage`, `delete`.
//!
//! [`plan`] turns every command into a pure state machine, and the
//! sans-IO [`Client`] runs the plans and their gateway and storage
//! requests. Here it is a [`Machine`] a [`Node`](hyperprov_fabric::Node)
//! hosts: it takes [`ClientCommand`]s (injected by the facade or a
//! workload driver) and replies, and its host queues the
//! [`ClientCompletion`]s.

mod api;
mod graph;
mod machine;
pub mod plan;

use hyperprov_fabric::{Carries, Host, Io, Machine};
use hyperprov_sim::{ActorId, Context};

pub use self::api::{
    ClientCommand, ClientCompletion, CompletionQueue, HyperProvError, OpId, OpOutput, RetryPolicy,
};
pub use self::machine::{Action, Client, ClientOwn, ClientView, Origin, TRANSFER_TOKEN_BIT};
use crate::net::NodeMsg;

impl Machine for Client {
    type Msg = NodeMsg;
    type Own = ClientOwn;
    type View = ClientView;

    fn message(&mut self, src: ActorId, msg: NodeMsg, io: Io<'_>) -> Vec<Action> {
        match msg {
            NodeMsg::Client(cmd) => self.command(io.now, cmd),
            msg => Client::message(self, src, msg, io.now, io.rng),
        }
    }

    fn timer(&mut self, token: u64, io: Io<'_>) -> Vec<Action> {
        Client::timer(self, token, io.now, io.rng)
    }

    fn view(&self) -> ClientView {
        Client::view(self)
    }

    fn perform_own<M: Carries<NodeMsg>>(
        &mut self,
        _: &mut Host<M>,
        ctx: &mut Context<'_, M>,
        ClientOwn(op, started, outcome): ClientOwn,
    ) {
        // SLO sources: goodput objectives watch "client.ok", error-rate
        // objectives pair it with "client.err".
        let ok = outcome.is_ok();
        ctx.slo_event_n(if ok { "client.ok" } else { "client.err" }, 1);
        self.completions.borrow_mut().push_back(ClientCompletion {
            op,
            started,
            finished: ctx.now(),
            outcome,
        });
    }
}
