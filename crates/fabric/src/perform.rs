//! The I/O half of the gateway: the one function that turns the sans-IO
//! [`Gateway`](crate::Gateway)'s actions into kernel calls. Every host —
//! the HyperProv client, the test drivers — calls it with what an input
//! answered.

use std::collections::HashMap;

use hyperprov_sim::{Context, ServiceHarness, TimerId};

use crate::gateway::{Action, GatewayError, Reply};
use crate::messages::{tx_trace, Carries, FabricMsg};

/// The kernel's handle of every wake-up a gateway has armed, by token: a
/// host keeps one beside its gateway, and forgets a token's entry when its
/// timer fires (before feeding it to [`Gateway::on_timer`](crate::Gateway::on_timer)).
pub type Armed = HashMap<u64, TimerId>;

/// Performs `actions` in the order given — `ctx.send` draws link jitter
/// and `set_timer` a sequence number, so the order is part of the model —
/// and returns the request the input completed, if it completed one.
/// `harness` absorbs the client-side CPU charges.
pub fn perform<M: Carries<FabricMsg>, T>(
    ctx: &mut Context<'_, M>,
    harness: &mut ServiceHarness<M>,
    armed: &mut Armed,
    actions: Vec<Action<T>>,
) -> Option<(T, Result<Reply, GatewayError>)> {
    let mut done = None;
    for action in actions {
        match action {
            Action::Charge(cost) => {
                harness.charge(ctx, cost);
            }
            Action::Send(dst, bytes, msg) => ctx.send(dst, bytes, M::wrap(msg)),
            Action::Arm(token, delay) => {
                armed.insert(token, ctx.set_timer(delay, token));
            }
            Action::Disarm(token) => {
                if let Some(timer) = armed.remove(&token) {
                    ctx.cancel_timer(timer);
                }
            }
            Action::SpanStart(tx_id, stage) => {
                ctx.span_start(&tx_trace(&tx_id), stage, "");
            }
            Action::SpanEnd(tx_id, stage) => {
                ctx.span_end(&tx_trace(&tx_id), stage, "");
            }
            Action::Note(trace, name, detail) => ctx.trace_event(&trace, name, &detail),
            Action::Count(name) => ctx.metrics().incr(name, 1),
            Action::Backoff(sleep) => ctx.metrics().record_duration("client.backoff", sleep),
            Action::Done(caller, result) => done = Some((caller, result)),
        }
    }
    done
}
