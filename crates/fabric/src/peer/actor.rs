//! The I/O half of the peer: the actor that feeds the sans-IO [`Peer`] and
//! performs what it answers on the discrete-event kernel. It owns what
//! only the kernel can give: the [`ServiceHarness`] (admission queue and
//! the outbox that holds results until the virtual CPU finishes a job),
//! the handles of the armed retry timers, the two instants a committed
//! block reads off the CPU, and the metric names as the exports spell them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hyperprov_ledger::ChannelId;
use hyperprov_sim::{
    fnv1a, Actor, ActorId, Carries, Context, Event, Outbound, QueueConfig, ServiceHarness,
    SpanClose,
};

use super::{Action, CommitPipeline, Peer, SnapshotPolicy};
use crate::chaincode::ChaincodeRegistry;
use crate::committer::Committer;
use crate::costs::CostModel;
use crate::identity::{CertId, SigningIdentity};
use crate::messages::FabricMsg;
use crate::perform::Armed;

/// A Fabric peer on the simulation kernel: a [`Peer`] and what performs
/// its actions. Proposals ([`FabricMsg::SubmitProposal`]) pass through the
/// harness admission queue: unbounded by default, or bounded with
/// [`PeerActor::with_queue`].
pub struct PeerActor<M> {
    peer: Peer,
    harness: ServiceHarness<M>,
    /// The kernel's handles of the retry timers the machine has armed.
    armed: Armed,
    metric_prefix: String,
    names: Names,
}

/// Metric names as rendered at first use, by scope and name: one `format!`
/// per name, not one per event.
type Names = HashMap<(Option<ChannelId>, &'static str), String>;

/// The metric's name as the exports spell it: `<peer>.<name>`, or the
/// channel's namespacing of it.
fn rendered<'a>(
    names: &'a mut Names,
    prefix: &str,
    scope: Option<ChannelId>,
    name: &'static str,
) -> &'a str {
    let slot = names.entry((scope, name));
    slot.or_insert_with_key(|(scope, name)| match scope {
        Some(channel) => channel.metric_name(prefix, name),
        None => format!("{prefix}.{name}"),
    })
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
        let metric_prefix = metric_prefix.into();
        PeerActor {
            // The metric prefix, hashed, salts the catch-up retry backoff.
            peer: Peer::new(identity, registry, costs, fnv1a(metric_prefix.as_bytes())),
            harness: ServiceHarness::new(metric_prefix.clone()),
            armed: Armed::new(),
            metric_prefix,
            names: HashMap::new(),
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
        self.harness.set_queue(config);
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

    /// Performs the machine's actions in the order given: `ctx.send` draws
    /// link jitter and `set_timer` a sequence number, so the order is part
    /// of the model.
    fn perform(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action>) {
        let (prefix, names) = (&self.metric_prefix, &mut self.names);
        for action in actions {
            match action {
                Action::Send(to, msg) => ctx.send(to, msg.wire_size(), M::wrap(msg)),
                Action::Defer(cost, to, msg) => {
                    let sends = vec![outbound((to, msg))];
                    self.harness.defer(ctx, cost, sends, vec![]);
                }
                Action::DeferRequest(cost, (trace, stage), to, msg) => {
                    ctx.span_start(&trace, stage, prefix);
                    let sends = vec![outbound((to, msg))];
                    let closes = vec![SpanClose::new(trace.clone(), stage, prefix.clone())];
                    self.harness.defer_request(ctx, cost, &trace, sends, closes);
                }
                Action::Committed {
                    trace,
                    vscc,
                    serial,
                    events,
                } => {
                    let close = |stage| SpanClose::new(trace.clone(), stage, prefix.clone());
                    ctx.span_start(&trace, "commit.vscc", prefix);
                    self.harness
                        .defer_parallel(ctx, &vscc, vec![], vec![close("commit.vscc")]);
                    // The serial phase starts once every lane has drained the
                    // VSCC batch (and any earlier block's apply has finished).
                    let apply_start = ctx.now().max(ctx.cpu().busy_until());
                    ctx.tracer()
                        .span_start(apply_start, &trace, "commit.apply", prefix);
                    let sends = events.into_iter().map(outbound).collect();
                    let apply = close("commit.apply");
                    let closes = vec![apply, SpanClose::new(trace, "validate", prefix.clone())];
                    self.harness.defer(ctx, serial, sends, closes);
                    let lanes_busy = ctx.cpu().lanes_busy_at(ctx.now()) as f64;
                    let gauge = rendered(names, prefix, None, "lanes_busy");
                    ctx.metrics().set_gauge(gauge, lanes_busy);
                }
                Action::Charge(cost) => {
                    self.harness.charge(ctx, cost);
                }
                Action::Arm(token, delay) => {
                    self.armed.insert(token, ctx.set_timer(delay, token));
                }
                Action::Disarm(token) => {
                    if let Some(pending) = self.armed.remove(&token) {
                        ctx.cancel_timer(pending);
                    }
                }
                Action::Count(scope, name, n) => {
                    ctx.metrics().incr(rendered(names, prefix, scope, name), n);
                }
                Action::Gauge(scope, name, value) => {
                    ctx.metrics()
                        .set_gauge(rendered(names, prefix, scope, name), value);
                }
                Action::SpanStart(trace, stage) => {
                    ctx.span_start(&trace, stage, prefix);
                }
                Action::SpanEnd(trace, stage) => {
                    ctx.span_end(&trace, stage, prefix);
                }
                Action::Note(trace, event, detail) => {
                    ctx.trace_event(&trace, event, detail.as_deref().unwrap_or(prefix));
                }
                Action::Slo(source, n) => ctx.slo_event_n(source, n),
            }
        }
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
                    !matches!(msg, FabricMsg::SubmitProposal(_)) || self.harness.admit(ctx);
                self.peer.message(src, msg, admitted)
            }
            Event::Timer { token } => {
                if self.harness.on_timer(ctx, token) {
                    return;
                }
                self.armed.remove(&token);
                self.peer.timer(token)
            }
        };
        self.perform(ctx, actions);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        // Deferred jobs, admitted requests and pending timers died with the crash.
        self.harness.reset();
        self.armed.clear();
        let actions = self.peer.restarted();
        self.perform(ctx, actions);
    }
}
