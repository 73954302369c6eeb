//! The I/O half of the peer: the [`Peer`] as a [`Machine`], and what
//! performs a peer's own actions: the request job that frees its admission
//! slot, and a committed block's two jobs with the instants they read off
//! the CPU.

use hyperprov_sim::{ActorId, Carries, Context, Outbound, SpanClose};

use super::{Action, Own, Peer};
use crate::messages::FabricMsg;
use crate::perform::{Host, Io, Machine};

fn outbound<M: Carries<FabricMsg>>((to, msg): (ActorId, FabricMsg)) -> Outbound<M> {
    (to, msg.wire_size(), M::wrap(msg))
}

impl Machine for Peer {
    type Msg = FabricMsg;
    type Own = Own;

    fn message(&mut self, src: ActorId, msg: FabricMsg, io: Io<'_>) -> Vec<Action> {
        Peer::message(self, src, msg, io.admitted)
    }

    fn timer(&mut self, token: u64, _: Io<'_>) -> Vec<Action> {
        Peer::timer(self, token)
    }

    fn restarted(&mut self) -> Vec<Action> {
        Peer::restarted(self)
    }

    /// Only a proposal takes a place in the admission queue.
    fn admits(&self, msg: &FabricMsg) -> bool {
        matches!(msg, FabricMsg::SubmitProposal(_))
    }

    fn perform_own<M: Carries<FabricMsg>>(
        &mut self,
        host: &mut Host<M>,
        ctx: &mut Context<'_, M>,
        own: Own,
    ) {
        match own {
            Own::DeferRequest(cost, (trace, stage), to, msg) => {
                let name = host.harness.name().to_owned();
                ctx.span_start(&trace, stage, &name);
                let sends = vec![outbound((to, msg))];
                let closes = vec![SpanClose::new(trace.clone(), stage, name)];
                host.harness.defer_request(ctx, cost, &trace, sends, closes);
            }
            Own::Committed {
                trace,
                vscc,
                serial,
                events,
            } => {
                let name = host.harness.name().to_owned();
                let close = |stage| SpanClose::new(trace.clone(), stage, name.clone());
                ctx.span_start(&trace, "commit.vscc", &name);
                let closes = vec![close("commit.vscc")];
                host.harness.defer_parallel(ctx, &vscc, vec![], closes);
                // The serial phase starts once every lane has drained the
                // VSCC batch (and any earlier block's apply has finished).
                let apply_start = ctx.now().max(ctx.cpu().busy_until());
                ctx.tracer()
                    .span_start(apply_start, &trace, "commit.apply", &name);
                let sends = events.into_iter().map(outbound).collect();
                let apply = close("commit.apply");
                let closes = vec![apply, SpanClose::new(trace, "validate", name)];
                host.harness.defer(ctx, serial, sends, closes);
                let lanes_busy = ctx.cpu().lanes_busy_at(ctx.now()) as f64;
                ctx.metrics()
                    .set_gauge(host.metric(None, "lanes_busy"), lanes_busy);
            }
            Own::Slo(source, n) => ctx.slo_event_n(source, n),
        }
    }
}
