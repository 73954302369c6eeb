//! The I/O half of the peer: the actor that feeds the sans-IO [`Peer`], has
//! its [`Host`] perform what it answers on the discrete-event kernel, and
//! performs a peer's own: the request job that frees its admission slot, and
//! a committed block's two jobs with the instants they read off the CPU.

use std::cell::RefCell;
use std::rc::Rc;

use hyperprov_ledger::ChannelId;
use hyperprov_sim::{Actor, ActorId, Carries, Context, Event, Outbound, QueueConfig, SpanClose};

use super::{Action, CommitPipeline, Own, Peer, SnapshotPolicy};
use crate::chaincode::ChaincodeRegistry;
use crate::committer::Committer;
use crate::costs::CostModel;
use crate::identity::{CertId, SigningIdentity};
use crate::messages::FabricMsg;
use crate::perform::Host;

/// A Fabric peer on the simulation kernel: a [`Peer`] and what performs
/// its actions. Proposals ([`FabricMsg::SubmitProposal`]) pass through the
/// harness admission queue: unbounded by default, or bounded with
/// [`PeerActor::with_queue`].
pub struct PeerActor<M> {
    peer: Peer,
    host: Host<M>,
}

fn outbound<M: Carries<FabricMsg>>((to, msg): (ActorId, FabricMsg)) -> Outbound<M> {
    (to, msg.wire_size(), M::wrap(msg))
}

impl<M: Carries<FabricMsg>> PeerActor<M> {
    /// Creates a peer hosting no channel yet; join it to each channel it
    /// hosts with [`PeerActor::add_channel`].
    pub fn new(
        identity: SigningIdentity,
        registry: ChaincodeRegistry,
        costs: CostModel,
        metric_prefix: impl Into<String>,
    ) -> Self {
        let name = metric_prefix.into();
        PeerActor {
            peer: Peer::new(identity, registry, costs, name.clone()),
            host: Host::new(name),
        }
    }

    /// Joins the peer to a channel (keyed by the committer's channel).
    /// `catchup` is the node the peer asks to re-deliver blocks missed
    /// while crashed (normally the channel's ordering node); without one
    /// the peer still recovers its ledger on restart but waits for the
    /// next live delivery to notice any gap.
    pub fn add_channel(&mut self, committer: Rc<RefCell<Committer>>, catchup: Option<ActorId>) {
        self.peer.host(committer, catchup);
    }

    /// Installs a snapshot policy: cut a Merkle-rooted snapshot every
    /// `policy.interval` blocks on every hosted channel, prune the block
    /// store behind it, and recover from the latest snapshot plus a delta
    /// replay — instead of a full genesis replay — after a crash.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.peer.set_snapshots(policy);
        self
    }

    /// Registers the peers that can serve snapshots for `channel` — the
    /// catch-up protocol's provider ladder, tried in order.
    pub fn set_catchup_providers(&mut self, channel: &ChannelId, providers: Vec<ActorId>) {
        self.peer.set_providers(channel, providers);
    }

    /// Configures the commit-path acceleration (VSCC lanes + caches) for
    /// this peer, applying cache settings to every channel hosted so far
    /// and to channels added later.
    pub fn with_pipeline(mut self, pipeline: CommitPipeline) -> Self {
        self.peer.set_pipeline(pipeline);
        self
    }

    /// Bounds this peer's admission queue (proposals only; block delivery
    /// always proceeds, since falling behind the ledger helps nobody).
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.host.harness.set_queue(config);
        self
    }

    /// Subscribes a client to the commit events of its own transactions,
    /// keyed by the enrolment id of the certificate it submits with — the
    /// paper's client waits for the commit event of *its* transaction at
    /// its peer. A client subscribes at every peer it may ask to endorse;
    /// which of them reports which transaction is the machine's rule.
    pub fn subscribe(&mut self, client: ActorId, cert: CertId) {
        self.peer.subscribe(client, cert);
    }

    /// Has the host perform the machine's actions, and performs a peer's own.
    fn perform(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action>) {
        self.host.perform(ctx, actions, |host, ctx, own| match own {
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
        });
    }
}

impl<M: Carries<FabricMsg>> Actor<M> for PeerActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        let actions = match event {
            Event::Message { src, msg } => {
                let Ok(msg) = msg.peel() else {
                    return;
                };
                // Only a proposal takes a place in the admission queue.
                let admitted =
                    !matches!(msg, FabricMsg::SubmitProposal(_)) || self.host.harness.admit(ctx);
                self.peer.message(src, msg, admitted)
            }
            Event::Timer { token } if self.host.timer(ctx, token) => self.peer.timer(token),
            Event::Timer { .. } => return,
        };
        self.perform(ctx, actions);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.host.reset();
        let actions = self.peer.restarted();
        self.perform(ctx, actions);
    }
}
