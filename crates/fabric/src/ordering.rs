//! The ordering node, as a sans-IO state machine: one [`OrderingNode`]
//! takes what happened (a message, a timer, a restart) and answers with
//! the [`Action`]s its host, a [`Node`](crate::Node), must perform, in order. It
//! batches incoming envelopes, hands cut batches to its consensus,
//! assembles what consensus ordered into the channel's chain, fans blocks
//! out to the delivery list and serves re-delivery from a retained tail.
//! The paper's single-node ("solo") orderer and a Raft cluster member are
//! the same node with a different `Consensus`, which decides one thing:
//! when a cut batch becomes a block.

mod actor;

use std::collections::{BTreeSet, VecDeque};
use std::convert::Infallible;
use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, RawEnvelope, TxId};
use hyperprov_sim::{ActorId, Outbound, SimDuration, SpanClose};

use crate::costs::CostModel;
use crate::messages::{tx_trace, Envelope, FabricMsg};
use crate::orderer::{BatchConfig, BlockAssembler, BlockCutter};
use crate::raft::{RaftConfig, RaftNode, RaftOutput};

/// Timer token of the batch timeout.
const BATCH_TIMER: u64 = 1;
/// Timer token of a raft member's consensus tick, and the tick's length.
const RAFT_TICK: u64 = 2;
const RAFT_TICK_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Recently cut blocks retained for the deliver (catch-up) service.
const RETAINED_BLOCKS: usize = 64;

/// What an ordering node answers an input with, in the order its host
/// must perform it: nothing of its own. A counter is the channel's, among
/// its orderer metrics; a job is a block's assembly and dissemination,
/// closing `order.deliver` spans and sending each block to each peer.
pub type Action = crate::action::Action<Infallible>;

/// Closes the `order.queue` span of a transaction that left the cutter.
fn queue_left(raw: &RawEnvelope) -> Action {
    Action::SpanEnd(tx_trace(&raw.tx_id), "order.queue", String::new())
}

/// The answer to `client`'s envelope of `tx_id`, which asked for one.
fn answer(client: ActorId, tx_id: TxId, accepted: bool) -> Action {
    let msg = FabricMsg::BroadcastAck { tx_id, accepted };
    Action::Send(client, msg.wire_size(), msg)
}

/// The channel's chain as this node has assembled it, who gets each block,
/// and the tail kept for those who missed one.
struct Chain {
    channel: ChannelId,
    assembler: BlockAssembler,
    /// The peers every block is delivered to.
    peers: Vec<ActorId>,
    /// Recently cut blocks, retained for the deliver (catch-up) service.
    retained: VecDeque<Arc<Block>>,
    costs: CostModel,
}

impl Chain {
    /// Assembles `batch` into the chain's next block: counts it, closes
    /// the `order.queue` spans — solo's of every transaction, with a
    /// `block.cut` note; a raft `member`'s of those it admitted — opens
    /// its `order.deliver` span (the job closes it with the [`SpanClose`]
    /// returned; a member's index is the detail, so the members' spans of
    /// one block do not collide), retains it and appends one `DeliverBlock`
    /// per peer to `sends`. Also returns the block's wire size.
    fn block(
        &mut self,
        batch: Arc<[RawEnvelope]>,
        member: Option<&mut RaftMember>,
        sends: &mut Vec<Outbound<FabricMsg>>,
        out: &mut Vec<Action>,
    ) -> (SpanClose, u64) {
        let block = Arc::new(self.assembler.assemble(batch));
        out.push(self.count("blocks_cut"));
        let number = format!("block-{}", block.header.number);
        let (trace, txs) = (self.channel.trace_name(&number), block.envelopes.iter());
        let detail = match member {
            Some(member) => {
                let applied = txs.filter(|raw| member.admitted.remove(&raw.tx_id));
                out.extend(applied.map(queue_left));
                member.index.to_string()
            }
            None => {
                out.extend(txs.map(queue_left));
                let txs = format!("txs={}", block.envelopes.len());
                out.push(Action::Note(trace.clone(), "block.cut", txs));
                String::new()
            }
        };
        let close = SpanClose::new(trace.clone(), "order.deliver", detail.clone());
        out.push(Action::SpanStart(trace, "order.deliver", detail));
        self.retained.push_back(Arc::clone(&block));
        while self.retained.len() > RETAINED_BLOCKS {
            self.retained.pop_front();
        }
        let bytes = block.wire_size();
        let deliver = |&peer| (peer, bytes, self.deliver_block(&block));
        sends.extend(self.peers.iter().map(deliver));
        (close, bytes)
    }

    fn deliver_block(&self, block: &Arc<Block>) -> FabricMsg {
        FabricMsg::DeliverBlock(self.channel.clone(), Arc::clone(block))
    }

    /// The deliver service: re-sends every retained block from height
    /// `from` to `src`, one message each.
    fn deliver_request(&self, src: ActorId, from: u64) -> Vec<Action> {
        let tail = self.retained.iter().filter(|b| b.header.number >= from);
        let resend = |b: &Arc<Block>| Action::Send(src, b.wire_size(), self.deliver_block(b));
        let mut out = vec![self.count("deliver_requests")];
        out.extend(tail.map(resend));
        out
    }

    /// Adds `peer` to the delivery list (elastic membership).
    fn subscribe(&mut self, peer: ActorId) -> Vec<Action> {
        if self.peers.contains(&peer) {
            return Vec::new();
        }
        self.peers.push(peer);
        vec![self.count("subscriptions")]
    }

    /// The action that adds one to the channel's counter of this name.
    fn count(&self, name: &'static str) -> Action {
        Action::Count(Some(self.channel.clone()), name, 1)
    }
}

/// A raft member's consensus state.
struct RaftMember {
    node: RaftNode<Arc<[RawEnvelope]>>,
    /// This member's index in `cluster`, the members' actor ids.
    index: usize,
    cluster: Vec<ActorId>,
    /// Transactions this member admitted (and opened `order.queue` spans
    /// for) that have neither applied nor been dropped. Span closes follow
    /// this set, not current leadership: an entry admitted here may commit
    /// under a later leader, and gating on `is_leader()` at apply time
    /// would close the span at the wrong member (or twice) whenever
    /// leadership moved in between.
    admitted: BTreeSet<TxId>,
}

impl RaftMember {
    /// Ships a raft step's consensus messages and delivers every batch the
    /// cluster committed, one CPU job of the block's cost per block.
    fn ship(
        &mut self,
        chain: &mut Chain,
        stepped: RaftOutput<Arc<[RawEnvelope]>>,
        out: &mut Vec<Action>,
    ) {
        let wrap = |(dst, msg)| {
            let msg = FabricMsg::Raft(Box::new(msg));
            Action::Send(self.cluster[dst], msg.wire_size(), msg)
        };
        out.extend(stepped.messages.into_iter().map(wrap));
        for (_, batch) in stepped.committed {
            let mut sends = Vec::new();
            let (close, bytes) = chain.block(batch, Some(self), &mut sends, out);
            let cost = chain.costs.block_cost(bytes);
            out.push(Action::Job(cost, sends, vec![close]));
        }
    }
}

/// When a cut batch becomes a block, and what ordering costs.
enum Consensus {
    /// At once: every block an input cuts is assembled and delivered as
    /// one CPU job, paid by the envelope that cut it.
    Solo,
    /// Once the cluster has committed it: each member that applies the
    /// entry delivers the block to all peers (peers deduplicate by
    /// height), one CPU job of the block's cost each.
    Raft(Box<RaftMember>),
}

/// An ordering node's decisions, on the one channel it orders.
pub struct OrderingNode {
    chain: Chain,
    cutter: BlockCutter,
    /// The batch timer is armed exactly while the cutter holds something.
    batch_armed: bool,
    consensus: Consensus,
}

impl OrderingNode {
    /// The single-node ("solo") ordering service of `channel`, as used by
    /// the paper's setup, delivering blocks to `peers`.
    pub fn solo(
        channel: ChannelId,
        batch: BatchConfig,
        peers: Vec<ActorId>,
        costs: CostModel,
    ) -> Self {
        OrderingNode {
            chain: Chain {
                channel,
                assembler: BlockAssembler::new(),
                peers,
                retained: VecDeque::new(),
                costs,
            },
            cutter: BlockCutter::new(batch),
            batch_armed: false,
            consensus: Consensus::Solo,
        }
    }

    /// Member `index` of `channel`'s `cluster.len()`-member raft ordering
    /// cluster; `seed` draws its election timeouts.
    pub fn raft(
        index: usize,
        cluster: Vec<ActorId>,
        channel: ChannelId,
        peers: Vec<ActorId>,
        batch: BatchConfig,
        seed: u64,
        costs: CostModel,
    ) -> Self {
        let member = RaftMember {
            node: RaftNode::new(index, cluster.len(), RaftConfig::default(), seed),
            index,
            cluster,
            admitted: BTreeSet::new(),
        };
        OrderingNode {
            consensus: Consensus::Raft(Box::new(member)),
            ..OrderingNode::solo(channel, batch, peers, costs)
        }
    }

    /// True if this node orders for its channel now: always for solo, for
    /// a raft member while it leads the cluster.
    pub fn is_leader(&self) -> bool {
        match &self.consensus {
            Consensus::Solo => true,
            Consensus::Raft(member) => member.node.is_leader(),
        }
    }

    /// A raft member's log as `(compacted, last index)`: the entries it
    /// holds are those after the first, up to the second. Solo has none.
    pub fn raft_log(&self) -> Option<(u64, u64)> {
        match &self.consensus {
            Consensus::Solo => None,
            Consensus::Raft(member) => Some((member.node.compacted(), member.node.last_index())),
        }
    }

    /// A message from `src`; what an ordering node does not take — a
    /// request to another channel's ordering service, say — is ignored.
    pub fn message(&mut self, src: ActorId, msg: FabricMsg) -> Vec<Action> {
        let here = &self.chain.channel;
        match (msg, &mut self.consensus) {
            (FabricMsg::Broadcast { envelope, ack }, _) => self.broadcast(src, envelope, ack),
            (FabricMsg::DeliverRequest { channel, from }, _) if channel == *here => {
                self.chain.deliver_request(src, from)
            }
            (FabricMsg::DeliverSubscribe { channel, peer }, _) if channel == *here => {
                self.chain.subscribe(peer)
            }
            (FabricMsg::Raft(msg), Consensus::Raft(member)) => {
                let (mut out, stepped) = (Vec::new(), member.node.step(*msg));
                member.ship(&mut self.chain, stepped, &mut out);
                out
            }
            _ => Vec::new(),
        }
    }

    /// The timer of `token` fired: the batch timeout cuts whatever is
    /// pending, a raft member's tick drives its consensus and re-arms.
    pub fn timer(&mut self, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        match (token, &mut self.consensus) {
            (BATCH_TIMER, _) => {
                self.batch_armed = false;
                if let Some(batch) = self.cutter.cut() {
                    out.push(self.chain.count("timeout_cuts"));
                    let cost = self.chain.costs.block_base;
                    self.order(vec![batch], cost, &mut out);
                }
            }
            (RAFT_TICK, Consensus::Raft(member)) => {
                let ticked = member.node.tick();
                member.ship(&mut self.chain, ticked, &mut out);
                out.push(Action::Arm(RAFT_TICK, RAFT_TICK_INTERVAL));
            }
            _ => {}
        }
        out
    }

    /// Crash restart. The assembled chain and the retained tail model the
    /// orderer's durable ledger and survive, and so do a raft member's
    /// term, vote and log: a restarted stale leader steps down as soon as
    /// it hears a higher term. Transactions pending in the cutter are
    /// volatile and are lost — their clients observe a commit timeout and
    /// retry with fresh tx ids — and the spans of pre-crash admissions
    /// stay open in the tracer (reported as open, never as unmatched). The
    /// crash dropped every pending timer, so the tick is armed again.
    pub fn restarted(&mut self) -> Vec<Action> {
        self.cutter = BlockCutter::new(*self.cutter.config());
        self.batch_armed = false;
        let mut out = vec![self.chain.count("recoveries")];
        if let Consensus::Raft(member) = &mut self.consensus {
            member.admitted.clear();
            out.push(Action::Arm(RAFT_TICK, RAFT_TICK_INTERVAL));
        }
        out
    }

    /// A client's envelope. A raft member that does not lead forwards it
    /// to the leader it knows of, or drops it; the node that orders takes
    /// it into the cutter: counts it, opens its `order.queue` span (the
    /// time the tx waits for its batch to cut), cancels the batch timer
    /// when a batch cut, and arms it when something stays pending. If the
    /// envelope asked (`ack`), `src` is told whether it was dropped.
    fn broadcast(&mut self, src: ActorId, envelope: Envelope, ack: bool) -> Vec<Action> {
        if let Consensus::Raft(member) = &self.consensus {
            if !member.node.is_leader() {
                let leader = member.node.leader_hint().map(|i| member.cluster[i]);
                let accepted = leader.is_some();
                let reply = ack.then(|| answer(src, envelope.tx_id(), accepted));
                let Some(dst) = leader else {
                    let dropped = self.chain.count("dropped_no_leader");
                    return std::iter::once(dropped).chain(reply).collect();
                };
                let (bytes, ack) = (envelope.wire_size(), false);
                let forward = Action::Send(dst, bytes, FabricMsg::Broadcast { envelope, ack });
                let redirect = self.chain.count("redirects");
                return [forward, redirect].into_iter().chain(reply).collect();
            }
        }
        let raw = envelope.to_raw();
        let tx_id = raw.tx_id;
        let cost = self.chain.costs.order_cost(raw.bytes.len() as u64);
        let cut = self.cutter.offer(raw);
        // Room for what each cut block answers with.
        let txs: usize = cut.batches.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(5 + txs + 4 * cut.batches.len());
        out.push(self.chain.count("broadcasts"));
        let trace = tx_trace(&tx_id);
        out.push(Action::SpanStart(trace, "order.queue", String::new()));
        if !cut.batches.is_empty() && std::mem::take(&mut self.batch_armed) {
            out.push(Action::Disarm(BATCH_TIMER));
        }
        if let Consensus::Raft(member) = &mut self.consensus {
            member.admitted.insert(tx_id);
            // Admission cost is charged but does not gate consensus
            // messages (they are network-bound).
            out.push(Action::Charge(cost));
        }
        // Solo: the cut-triggering envelope's ordering cost pays for the
        // blocks it cuts.
        self.order(cut.batches, cost, &mut out);
        if cut.timer_needed && !self.batch_armed {
            self.batch_armed = true;
            out.push(Action::Arm(BATCH_TIMER, self.cutter.config().timeout));
        }
        out.extend(ack.then(|| answer(src, tx_id, true)));
        out
    }

    /// Hands cut batches to consensus, each made the one shared body it
    /// keeps from here to every peer's store. Solo turns them into blocks
    /// and delivers them at once, as one CPU job of `cost`; a raft leader
    /// proposes each to the cluster, and a member deposed since it took
    /// the envelopes in drops the batch: its transactions have left the
    /// queue for good, and their clients time out and retry.
    fn order(&mut self, batches: Vec<Vec<RawEnvelope>>, cost: SimDuration, out: &mut Vec<Action>) {
        let member = match &mut self.consensus {
            Consensus::Raft(member) => member,
            Consensus::Solo if batches.is_empty() => return,
            Consensus::Solo => {
                let (mut sends, mut closes) = (Vec::new(), Vec::new());
                for batch in batches {
                    closes.push(self.chain.block(batch.into(), None, &mut sends, out).0);
                }
                out.push(Action::Job(cost, sends, closes));
                return;
            }
        };
        for batch in batches {
            match member.node.propose(batch.into()) {
                Ok(proposed) => member.ship(&mut self.chain, proposed, out),
                Err(batch) => {
                    out.push(self.chain.count("dropped_not_leader"));
                    let admitted = &mut member.admitted;
                    let dropped = batch.iter().filter(|raw| admitted.remove(&raw.tx_id));
                    out.extend(dropped.map(queue_left));
                }
            }
        }
    }
}
