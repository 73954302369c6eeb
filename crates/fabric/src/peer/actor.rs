//! The I/O half of the peer: the [`Peer`] as a [`Machine`], and what
//! performs a peer's own actions: the request job that frees its admission
//! slot, on a read lane of the CPU when it wrote nothing, and a committed
//! block's two jobs with the instants they read off the CPU.

use hyperprov_sim::{ActorId, Carries, Context};

use super::{Action, Checkpoint, HostedView, Own, Peer};
use crate::action::Outbound;
use crate::messages::FabricMsg;
use crate::perform::{Host, Io, Machine};

fn outbound<M: Carries<FabricMsg>>((to, msg): (ActorId, FabricMsg)) -> Outbound<M> {
    (to, msg.wire_size(), M::wrap(msg))
}

impl Machine for Peer {
    type Msg = FabricMsg;
    type Own = Own;
    type View = Vec<HostedView>;

    fn message(&mut self, src: ActorId, msg: FabricMsg, io: Io<'_>) -> Vec<Action> {
        Peer::message(self, src, msg, io.admitted)
    }

    fn timer(&mut self, token: u64, _: Io<'_>) -> Vec<Action> {
        Peer::timer(self, token)
    }

    fn restarted(&mut self) -> Vec<Action> {
        Peer::restarted(self)
    }

    fn view(&self) -> Vec<HostedView> {
        let hosted = |ch: &super::Channel| HostedView {
            channel: ch.id.to_string(),
            height: ch.committer.borrow().height(),
            buffered: ch.buffer.keys().copied().collect(),
            snapshot_height: ch.checkpoint.as_ref().map(Checkpoint::height),
            snapshot_resident: ch.checkpoint.as_ref().is_some_and(Checkpoint::resident),
            catchup: ch.catchup.view(),
        };
        self.channels.iter().map(hosted).collect()
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
            Own::DeferRequest(cost, (trace, stage), to, msg, read) => {
                let name = host.name().to_owned();
                ctx.span_start(&trace, stage, &name);
                let sends = vec![outbound((to, msg))];
                let closes = vec![(trace.clone(), stage, name)];
                host.request_job(ctx, cost, read, &trace, sends, closes);
            }
            Own::Committed {
                trace,
                vscc,
                serial,
                events,
            } => {
                let name = host.name().to_owned();
                let close = |stage| (trace.clone(), stage, name.clone());
                ctx.span_start(&trace, "commit.vscc", &name);
                host.parallel_job(ctx, &vscc, vec![close("commit.vscc")]);
                // The serial phase starts once every lane has drained the
                // VSCC batch (and any earlier block's apply has finished).
                let apply_start = ctx.now().max(ctx.cpu().busy_until());
                ctx.tracer()
                    .span_start(apply_start, &trace, "commit.apply", &name);
                let sends = events.into_iter().map(outbound).collect();
                let apply = close("commit.apply");
                let closes = vec![apply, (trace, "validate", name)];
                host.job(ctx, serial, sends, closes);
                let lanes_busy = ctx.cpu().lanes_busy_at(ctx.now()) as f64;
                ctx.metrics()
                    .set_gauge(host.metric(None, "lanes_busy"), lanes_busy);
            }
            Own::Slo(source, n) => ctx.slo_event_n(source, n),
        }
    }
}
