//! The ordering-service actors: the paper's single-node ("solo") orderer
//! and a Raft-replicated one. What the two do identically — batching and
//! the batch timer, block assembly, the retained tail, block fan-out, the
//! deliver service, delivery subscriptions, the restart reset — is one
//! private [`OrderingFrontEnd`] they both own; each actor keeps what
//! differs: when a cut batch becomes a block, and what ordering costs.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, RawEnvelope, TxId};
use hyperprov_sim::{
    Actor, ActorId, Carries, Context, Event, Outbound, ServiceHarness, SimDuration, SpanClose,
    TimerId,
};

use crate::costs::CostModel;
use crate::messages::{tx_trace, Envelope, FabricMsg};
use crate::orderer::{BatchConfig, BlockAssembler, BlockCutter, CutterOutput};
use crate::raft::{RaftConfig, RaftNode, RaftOutput};

/// Timer token used by orderers for the batch timeout.
const BATCH_TIMER: u64 = 1;
/// Timer token used by raft orderers for consensus ticks.
const RAFT_TICK: u64 = 2;
/// Interval between a raft orderer's consensus ticks.
const RAFT_TICK_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Recently cut blocks an ordering node retains for the deliver
/// (catch-up) service.
const RETAINED_BLOCKS: usize = 64;

/// What every ordering node does, whatever its consensus: batch incoming
/// envelopes, assemble cut batches into the channel's chain, fan blocks
/// out to the delivery list, and serve re-delivery from a retained tail.
struct OrderingFrontEnd<M> {
    channel: ChannelId,
    cutter: BlockCutter,
    batch_timer: Option<TimerId>,
    assembler: BlockAssembler,
    /// The peers every block is delivered to.
    peers: Vec<ActorId>,
    /// Recently cut blocks, retained for the deliver (catch-up) service.
    retained: VecDeque<Arc<Block>>,
    costs: CostModel,
    harness: ServiceHarness<M>,
}

impl<M: Carries<FabricMsg>> OrderingFrontEnd<M> {
    /// A front-end for `channel`; `node` names the harness, suffixed with
    /// the channel unless it is the default one.
    fn new(
        node: String,
        channel: ChannelId,
        batch: BatchConfig,
        peers: Vec<ActorId>,
        costs: CostModel,
    ) -> Self {
        let harness_name = if channel.is_default() {
            node
        } else {
            format!("{node}.{channel}")
        };
        OrderingFrontEnd {
            channel,
            cutter: BlockCutter::new(batch),
            batch_timer: None,
            assembler: BlockAssembler::new(),
            peers,
            retained: VecDeque::new(),
            costs,
            harness: ServiceHarness::new(harness_name),
        }
    }

    /// The channel's name for an orderer metric (namespaced by channel
    /// unless it is the default one).
    fn metric(&self, suffix: &str) -> String {
        self.channel.metric_name("orderer", suffix)
    }

    /// Takes one broadcast into the cutter: counts it, opens the `order.queue`
    /// span (the time the tx waits for its batch to cut) and cancels the
    /// batch timer when a batch cut. Returns the tx id, the envelope's
    /// ordering cost and what the cutter wants done.
    fn accept(
        &mut self,
        ctx: &mut Context<'_, M>,
        env: Envelope,
    ) -> (TxId, SimDuration, CutterOutput) {
        let raw = env.to_raw();
        let tx_id = raw.tx_id;
        let cost = self.costs.order_cost(raw.bytes.len() as u64);
        ctx.metrics().incr(&self.metric("broadcasts"), 1);
        ctx.span_start(&tx_trace(&tx_id), "order.queue", "");
        let out = self.cutter.offer(raw);
        if !out.batches.is_empty() {
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        (tx_id, cost, out)
    }

    /// Arms the batch timer when the cutter holds pending envelopes and no
    /// timer is running.
    fn arm_batch_timer(&mut self, ctx: &mut Context<'_, M>, needed: bool) {
        if needed && self.batch_timer.is_none() {
            let timeout = self.cutter.config().timeout;
            self.batch_timer = Some(ctx.set_timer(timeout, BATCH_TIMER));
        }
    }

    /// The batch timer fired: cuts whatever is pending.
    fn on_batch_timeout(&mut self, ctx: &mut Context<'_, M>) -> Option<Vec<RawEnvelope>> {
        self.batch_timer = None;
        let batch = self.cutter.cut()?;
        ctx.metrics().incr(&self.metric("timeout_cuts"), 1);
        Some(batch)
    }

    /// Assembles `batch` into the chain's next block and counts it;
    /// returns the block with its trace name.
    fn cut_block(
        &mut self,
        ctx: &mut Context<'_, M>,
        batch: Vec<RawEnvelope>,
    ) -> (Arc<Block>, String) {
        let block = Arc::new(self.assembler.assemble(batch));
        ctx.metrics().incr(&self.metric("blocks_cut"), 1);
        let trace = self
            .channel
            .trace_name(&format!("block-{}", block.header.number));
        (block, trace)
    }

    /// Opens the block's `order.deliver` span (assembly + dissemination,
    /// closed by the returned [`SpanClose`] at CPU finish), retains the
    /// block for the deliver service and appends one `DeliverBlock` per
    /// peer to `sends`.
    fn fan_out(
        &mut self,
        ctx: &mut Context<'_, M>,
        block: &Arc<Block>,
        trace: String,
        detail: String,
        sends: &mut Vec<Outbound<M>>,
    ) -> SpanClose {
        ctx.span_start(&trace, "order.deliver", &detail);
        self.retained.push_back(Arc::clone(block));
        while self.retained.len() > RETAINED_BLOCKS {
            self.retained.pop_front();
        }
        let bytes = block.wire_size();
        for &peer in &self.peers {
            let msg = FabricMsg::DeliverBlock(self.channel.clone(), Arc::clone(block));
            sends.push((peer, bytes, M::wrap(msg)));
        }
        SpanClose::new(trace, "order.deliver", detail)
    }

    /// The deliver service: re-sends every retained block from height
    /// `from` to `src`.
    fn on_deliver_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        from: u64,
    ) {
        if channel != self.channel {
            return; // another channel's ordering service
        }
        ctx.metrics().incr(&self.metric("deliver_requests"), 1);
        for block in self.retained.iter() {
            if block.header.number >= from {
                let msg = FabricMsg::DeliverBlock(self.channel.clone(), block.clone());
                ctx.send(src, block.wire_size(), M::wrap(msg));
            }
        }
    }

    /// Adds `peer` to the delivery list (elastic membership).
    fn on_subscribe(&mut self, ctx: &mut Context<'_, M>, channel: ChannelId, peer: ActorId) {
        if channel != self.channel {
            return; // another channel's ordering service
        }
        if !self.peers.contains(&peer) {
            self.peers.push(peer);
            ctx.metrics().incr(&self.metric("subscriptions"), 1);
        }
    }

    /// Crash restart. The assembled chain (`assembler`, `retained`) models
    /// the orderer's durable ledger and survives; transactions pending in
    /// the cutter are volatile and are lost — their clients observe a
    /// commit timeout and retry with fresh tx ids.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        let config = *self.cutter.config();
        self.cutter = BlockCutter::new(config);
        self.batch_timer = None;
        self.harness.reset();
        ctx.metrics().incr(&self.metric("recoveries"), 1);
    }
}

/// A single-node ("solo") ordering service for one channel, as used by
/// the paper's setup. A multi-channel deployment runs one ordering
/// pipeline (solo or raft) per channel.
pub struct SoloOrdererActor<M> {
    front: OrderingFrontEnd<M>,
}

impl<M: Carries<FabricMsg>> SoloOrdererActor<M> {
    /// Creates a solo orderer for `channel` delivering blocks to `peers`.
    /// Metrics are namespaced by channel unless it is the default one.
    pub fn new(
        channel: ChannelId,
        config: BatchConfig,
        peers: Vec<ActorId>,
        costs: CostModel,
    ) -> Self {
        SoloOrdererActor {
            front: OrderingFrontEnd::new("orderer".to_owned(), channel, config, peers, costs),
        }
    }

    /// Turns cut batches into blocks and delivers them at once, as one
    /// CPU job of `cost`.
    fn deliver_batches(
        &mut self,
        ctx: &mut Context<'_, M>,
        batches: Vec<Vec<RawEnvelope>>,
        cost: SimDuration,
    ) {
        if batches.is_empty() {
            return;
        }
        let mut sends = Vec::new();
        let mut closes = Vec::new();
        for batch in batches {
            let (block, trace) = self.front.cut_block(ctx, batch);
            for raw in block.envelopes.iter() {
                // The tx has left the cutter's pending queue.
                ctx.span_end(&tx_trace(&raw.tx_id), "order.queue", "");
            }
            ctx.trace_event(
                &trace,
                "block.cut",
                &format!("txs={}", block.envelopes.len()),
            );
            closes.push(
                self.front
                    .fan_out(ctx, &block, trace, String::new(), &mut sends),
            );
        }
        self.front.harness.defer(ctx, cost, sends, closes);
    }
}

impl<M: Carries<FabricMsg>> Actor<M> for SoloOrdererActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        match event {
            Event::Message { src, msg } => match msg.peel() {
                Ok(FabricMsg::Broadcast(env)) => {
                    // The cut-triggering envelope's ordering cost pays for
                    // the blocks it cuts.
                    let (_, cost, out) = self.front.accept(ctx, env);
                    self.deliver_batches(ctx, out.batches, cost);
                    self.front.arm_batch_timer(ctx, out.timer_needed);
                }
                Ok(FabricMsg::DeliverRequest { channel, from }) => {
                    self.front.on_deliver_request(ctx, src, channel, from)
                }
                Ok(FabricMsg::DeliverSubscribe { channel, peer }) => {
                    self.front.on_subscribe(ctx, channel, peer)
                }
                Ok(_) | Err(_) => {}
            },
            Event::Timer { token: BATCH_TIMER } => {
                if let Some(batch) = self.front.on_batch_timeout(ctx) {
                    let cost = self.front.costs.block_base;
                    self.deliver_batches(ctx, vec![batch], cost);
                }
            }
            Event::Timer { token } => {
                let _ = self.front.harness.on_timer(ctx, token);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.front.on_restart(ctx);
    }
}

/// A Raft-replicated ordering node. Run one actor per cluster member; each
/// member that applies a committed batch delivers the resulting block to
/// all peers (peers deduplicate by height).
pub struct RaftOrdererActor<M> {
    front: OrderingFrontEnd<M>,
    raft: RaftNode<Vec<RawEnvelope>>,
    /// This member's cluster index, used as span detail so the per-member
    /// `order.deliver` spans of one block do not collide.
    index: usize,
    /// Actor ids of the raft cluster, indexed by raft peer index.
    cluster: Vec<ActorId>,
    /// Transactions this member admitted (and opened `order.queue` spans
    /// for) that have not yet applied. Span closes follow this set, not
    /// current leadership: an entry admitted here may commit under a
    /// later leader, and gating on `is_leader()` at apply time would
    /// close the span at the wrong member (or twice) whenever leadership
    /// moved in between.
    admitted: BTreeSet<TxId>,
}

impl<M: Carries<FabricMsg>> RaftOrdererActor<M> {
    /// Creates raft orderer `index` of `channel`'s `cluster.len()`-member
    /// ordering cluster. Metrics are namespaced by the channel unless it
    /// is the default one.
    pub fn new(
        index: usize,
        cluster: Vec<ActorId>,
        channel: ChannelId,
        peers: Vec<ActorId>,
        batch: BatchConfig,
        seed: u64,
        costs: CostModel,
    ) -> Self {
        RaftOrdererActor {
            front: OrderingFrontEnd::new(format!("orderer{index}"), channel, batch, peers, costs),
            raft: RaftNode::new(index, cluster.len(), RaftConfig::default(), seed),
            index,
            cluster,
            admitted: BTreeSet::new(),
        }
    }

    /// True if this member currently leads the cluster.
    pub fn is_leader(&self) -> bool {
        self.raft.is_leader()
    }

    /// Ships consensus messages and delivers every batch the cluster
    /// committed, one CPU job of `block_cost` per block.
    fn ship(&mut self, ctx: &mut Context<'_, M>, out: RaftOutput<Vec<RawEnvelope>>) {
        for (dst, msg) in out.messages {
            let wrapped = FabricMsg::Raft(Box::new(msg));
            let bytes = wrapped.wire_size();
            ctx.send(self.cluster[dst], bytes, M::wrap(wrapped));
        }
        for (_, batch) in out.committed {
            let (block, trace) = self.front.cut_block(ctx, batch);
            for raw in block.envelopes.iter() {
                // Queue spans close at the member that admitted the tx
                // (see the `admitted` field), even if leadership moved and
                // the entry committed under a different leader.
                if self.admitted.remove(&raw.tx_id) {
                    ctx.span_end(&tx_trace(&raw.tx_id), "order.queue", "");
                }
            }
            let mut sends = Vec::new();
            let close = self
                .front
                .fan_out(ctx, &block, trace, self.index.to_string(), &mut sends);
            let cost = self.front.costs.block_cost(block.wire_size());
            self.front.harness.defer(ctx, cost, sends, vec![close]);
        }
    }

    fn propose_batches(&mut self, ctx: &mut Context<'_, M>, batches: Vec<Vec<RawEnvelope>>) {
        for batch in batches {
            match self.raft.propose(batch) {
                Ok(out) => self.ship(ctx, out),
                Err(_) => {
                    let name = self.front.metric("dropped_not_leader");
                    ctx.metrics().incr(&name, 1)
                }
            }
        }
    }

    fn on_broadcast(&mut self, ctx: &mut Context<'_, M>, env: Envelope) {
        if self.raft.is_leader() {
            let (tx_id, cost, out) = self.front.accept(ctx, env);
            self.admitted.insert(tx_id);
            // Admission cost is charged but does not gate consensus
            // messages (they are network-bound).
            self.front.harness.charge(ctx, cost);
            self.propose_batches(ctx, out.batches);
            self.front.arm_batch_timer(ctx, out.timer_needed);
        } else if let Some(leader) = self.raft.leader_hint() {
            // Redirect to the current leader.
            let bytes = env.wire_size();
            let dst = self.cluster[leader];
            ctx.send(dst, bytes, M::wrap(FabricMsg::Broadcast(env)));
            let name = self.front.metric("redirects");
            ctx.metrics().incr(&name, 1);
        } else {
            let name = self.front.metric("dropped_no_leader");
            ctx.metrics().incr(&name, 1);
        }
    }
}

impl<M: Carries<FabricMsg> + 'static> Actor<M> for RaftOrdererActor<M> {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        match event {
            Event::Message { src, msg } => match msg.peel() {
                Ok(FabricMsg::DeliverRequest { channel, from }) => {
                    self.front.on_deliver_request(ctx, src, channel, from)
                }
                Ok(FabricMsg::Broadcast(env)) => self.on_broadcast(ctx, env),
                Ok(FabricMsg::Raft(raft_msg)) => {
                    let out = self.raft.step(*raft_msg);
                    self.ship(ctx, out);
                }
                Ok(FabricMsg::DeliverSubscribe { channel, peer }) => {
                    self.front.on_subscribe(ctx, channel, peer)
                }
                Ok(_) | Err(_) => {}
            },
            Event::Timer { token: RAFT_TICK } => {
                let out = self.raft.tick();
                self.ship(ctx, out);
                ctx.set_timer(RAFT_TICK_INTERVAL, RAFT_TICK);
            }
            Event::Timer { token: BATCH_TIMER } => {
                if let Some(batch) = self.front.on_batch_timeout(ctx) {
                    self.propose_batches(ctx, vec![batch]);
                }
            }
            Event::Timer { token } => {
                let _ = self.front.harness.on_timer(ctx, token);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        // Raft term/vote/log model the persisted consensus state and
        // survive the crash; a restarted stale leader steps down as soon
        // as it hears a higher term. The spans of pre-crash admissions
        // stay open in the tracer (reported as open, never as unmatched).
        // The consensus tick must be re-armed because the crash dropped
        // every pending timer.
        self.admitted.clear();
        self.front.on_restart(ctx);
        ctx.set_timer(RAFT_TICK_INTERVAL, RAFT_TICK);
    }
}

/// Kick-off token: schedule this timer on each raft orderer at start so it
/// begins ticking (use [`hyperprov_sim::Simulation::start_timer`] with
/// [`RAFT_TICK_TOKEN`]).
pub const RAFT_TICK_TOKEN: u64 = RAFT_TICK;
