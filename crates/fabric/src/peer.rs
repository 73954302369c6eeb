//! The peer, as a sans-IO state machine: one [`Peer`] takes what happened
//! (a message, a retry timer, a restart) and answers with the [`Action`]s
//! its host, a [`Node`](crate::Node), must perform, in order. It endorses proposals
//! and commits delivered blocks on every channel it hosts, cuts snapshots
//! behind the commit path and serves them, says who hears of a commit, and
//! keeps each channel current through that channel's [`CatchUp`] machine,
//! whose actions it translates into its own.
//!
//! Ledger work is *done* when the input arrives (so state changes in
//! arrival order — a FIFO service discipline); its results become
//! *visible* once the host's modelled CPU has spent the time an action
//! carries, which is what produces the paper's latency/throughput curves.

mod actor;
mod boot;

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, Digest, Snapshot, TxId, DEFAULT_CHUNK_ENTRIES};
use hyperprov_sim::{fnv1a, ActorId, SimDuration};

use crate::catchup::{self, CatchUp};
use crate::chaincode::Chaincode;
use crate::committer::Committer;
use crate::costs;
use crate::endorser::endorse;
use crate::identity::{CertId, SigningIdentity};
use crate::messages::{
    tx_trace, CommitEvent, FabricMsg, ProposalResponse, SignedProposal, BUSY_REASON,
};

/// Peer-side snapshot policy: cut a Merkle-rooted state snapshot every
/// `interval` blocks and prune the block store behind it. Snapshots are
/// off unless a policy is installed with [`Peer::set_snapshots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Cut a snapshot once the chain has grown this many blocks past the
    /// previous one.
    pub interval: u64,
}

impl SnapshotPolicy {
    /// A policy cutting snapshots every `interval` blocks.
    pub fn every(interval: u64) -> Self {
        SnapshotPolicy {
            interval: interval.max(1),
        }
    }
}

/// What a peer answers an input with, in the order its host must perform
/// it. A span's or note's detail is the peer's name, a metric belongs to
/// the hosted channel named, or with `None` to the peer itself.
pub type Action = crate::action::Action<Own>;

/// What only a peer asks of its host.
#[allow(clippy::large_enum_variant)] // short-lived, as `Action`
#[derive(Debug)]
pub enum Own {
    /// Run a CPU job of this cost, then send the message to the actor,
    /// for an admitted request: the span (trace, stage) opens now and
    /// closes when the job is done, which also frees the request's place
    /// in the admission queue. A read-only answer (true: its simulation
    /// wrote nothing) runs on one of the CPU's read lanes, beside block
    /// validation and commit; the rest queue behind them.
    DeferRequest(
        SimDuration,
        (String, &'static str),
        ActorId,
        FabricMsg,
        bool,
    ),
    /// A block was committed: run its VSCC checks as one parallel batch
    /// over the CPU lanes (span `commit.vscc`), then the serial MVCC +
    /// apply phase on one lane (span `commit.apply`), and when that is
    /// done close the block's `validate` span and send the commit events.
    Committed {
        /// The block's trace.
        trace: String,
        /// VSCC cost of each envelope that decoded.
        vscc: Vec<SimDuration>,
        /// Cost of the serial phase.
        serial: SimDuration,
        /// Who is told about which transaction.
        events: Vec<(ActorId, FabricMsg)>,
    },
    /// Feed this many events of this source to the SLO monitor.
    Slo(&'static str, u64),
}

/// The action that sends `msg`, its encoded size on the wire, to `to`.
fn send(to: ActorId, msg: FabricMsg) -> Action {
    Action::Send(to, msg.wire_size(), msg)
}

/// The action that sends `msg` to `to` once a CPU job of `cost` is done.
fn defer(cost: SimDuration, to: ActorId, msg: FabricMsg) -> Action {
    Action::Job(cost, vec![(to, msg.wire_size(), msg)], vec![])
}

/// A hosted channel: its ledger, the durable latest checkpoint, and what a
/// crash loses — the reorder buffer and the catch-up state.
struct Channel {
    id: ChannelId,
    committer: Rc<RefCell<Committer>>,
    /// Blocks that arrived ahead of the next expected height.
    buffer: BTreeMap<u64, Arc<Block>>,
    /// Latest cut or fetched snapshot. Models durable checkpoint storage,
    /// so — like the block store — it survives crashes.
    checkpoint: Option<Checkpoint>,
    catchup: CatchUp,
}

/// A channel's latest checkpoint.
enum Checkpoint {
    /// A cut of the peer's own ledger: the height and tip hash it was cut
    /// at, and nothing per key. The ledger's history is append-only and
    /// its store is pruned no further than the cut, so the content is
    /// materialized from it when something first reads the checkpoint,
    /// and kept until the next cut or a crash.
    Cut {
        height: u64,
        tip_hash: Digest,
        read: OnceCell<Snapshot>,
    },
    /// A snapshot fetched from a provider and booted from.
    Fetched(Snapshot),
}

impl Checkpoint {
    fn height(&self) -> u64 {
        match self {
            Checkpoint::Cut { height, .. } => *height,
            Checkpoint::Fetched(snapshot) => snapshot.height(),
        }
    }

    /// The checkpoint's content; a cut's first read materializes it from
    /// `ledger`.
    fn snapshot(&self, ledger: &RefCell<Committer>) -> &Snapshot {
        match self {
            Checkpoint::Cut {
                height,
                tip_hash,
                read,
            } => read.get_or_init(|| {
                let ledger = ledger.borrow();
                ledger.snapshot_at(*height, *tip_hash, DEFAULT_CHUNK_ENTRIES)
            }),
            Checkpoint::Fetched(snapshot) => snapshot,
        }
    }

    /// Whether the content is held in memory.
    fn resident(&self) -> bool {
        match self {
            Checkpoint::Cut { read, .. } => read.get().is_some(),
            Checkpoint::Fetched(_) => true,
        }
    }
}

hyperprov_sim::view! {
    /// One hosted channel, as a peer's view (see
    /// [`Machine::view`](crate::Machine::view)) shows it: the view holds
    /// one per hosted channel, in joining order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HostedView {
        /// The channel's name.
        pub channel: String,
        /// Height of the committed chain.
        pub height: u64,
        /// Numbers of the blocks in the reorder buffer, ascending.
        pub buffered: Vec<u64>,
        /// Height of the latest snapshot.
        pub snapshot_height: Option<u64>,
        /// Whether that snapshot's content is held in memory: a fetched one
        /// always is, a cut only once something has read it.
        pub snapshot_resident: bool,
        /// Where the channel's [`CatchUp`] stands.
        pub catchup: catchup::CatchUpView,
    }
}

/// A Fabric peer's decisions, on every channel it hosts.
pub struct Peer {
    identity: SigningIdentity,
    /// The one chaincode the peer runs; a proposal naming another is
    /// refused.
    chaincode: Arc<dyn Chaincode>,
    /// The peer's metric prefix: the detail of its spans, and, hashed,
    /// the salt of its catch-up retry backoff.
    name: String,
    /// Hosted channels in joining order: the index is the channel's
    /// retry-timer token.
    channels: Vec<Channel>,
    /// Index into `channels`; a restart boots them in this (name) order.
    by_id: BTreeMap<ChannelId, usize>,
    /// Commit-event subscriptions: creator certificate -> client. Ordered,
    /// so the fan-out of an addressee-less event is deterministic.
    subscribers: BTreeMap<CertId, ActorId>,
    /// `None` (the default) disables snapshots, pruning and
    /// snapshot-based recovery entirely.
    snapshots: Option<SnapshotPolicy>,
}

impl Peer {
    /// A peer called `name` running `chaincode`, hosting no channel yet.
    pub fn new(identity: SigningIdentity, chaincode: Arc<dyn Chaincode>, name: String) -> Self {
        Peer {
            identity,
            chaincode,
            name,
            channels: Vec::new(),
            by_id: BTreeMap::new(),
            subscribers: BTreeMap::new(),
            snapshots: None,
        }
    }

    /// Hosts the committer's channel; `target` is the node asked to
    /// re-deliver blocks missed while crashed (normally the channel's
    /// ordering node). Without one a gap shows at the next live delivery.
    pub fn host(&mut self, committer: Rc<RefCell<Committer>>, target: Option<ActorId>) {
        let id = committer.borrow().channel().clone();
        self.by_id.insert(id.clone(), self.channels.len());
        self.channels.push(Channel {
            catchup: CatchUp::new(id.clone(), target, fnv1a(self.name.as_bytes())),
            id,
            committer,
            buffer: BTreeMap::new(),
            checkpoint: None,
        });
    }

    /// Installs the snapshot policy: on every hosted channel, cut, prune
    /// behind the cut, and recover from the latest cut plus a delta replay.
    pub fn set_snapshots(&mut self, policy: SnapshotPolicy) {
        self.snapshots = Some(policy);
    }

    /// Sets the snapshot provider ladder of a hosted channel, tried in order.
    pub fn set_providers(&mut self, channel: &ChannelId, providers: Vec<ActorId>) {
        if let Some(i) = self.hosted(channel) {
            self.channels[i].catchup.set_providers(providers);
        }
    }

    /// Subscribes a client to the commit events of the transactions it
    /// submits under `cert`, at every peer it may ask to endorse; which of
    /// them reports which transaction is the machine's rule.
    pub fn subscribe(&mut self, client: ActorId, cert: CertId) {
        self.subscribers.insert(cert, client);
    }

    /// A message from `src`; what a peer does not take is ignored.
    /// `admitted` is the verdict of the admission queue, which the host
    /// owns and asks about proposals only.
    pub fn message(&mut self, src: ActorId, msg: FabricMsg, admitted: bool) -> Vec<Action> {
        match msg {
            FabricMsg::SubmitProposal(sp) => self.proposal(src, sp, admitted),
            FabricMsg::DeliverBlock(channel, block) => self.block(src, channel, block),
            FabricMsg::CommitStatus { channel, tx_id } => self.commit_status(src, channel, tx_id),
            FabricMsg::SnapshotRequest { channel } => self.snapshot_request(src, channel),
            FabricMsg::SnapshotPartRequest {
                channel,
                height,
                index,
            } => self.part_request(src, channel, height, index),
            FabricMsg::SnapshotOffer { channel, manifest } => {
                self.fed(self.hosted(&channel), |m, at, _| m.offer(src, at, manifest))
            }
            FabricMsg::SnapshotPartData {
                channel,
                height,
                index,
                part,
            } => self.fed(self.hosted(&channel), |m, at, _| {
                m.part(src, at, height, index, part)
            }),
            FabricMsg::JoinChannel { channel } => {
                self.fed(self.hosted(&channel), |m, at, _| m.join(at))
            }
            _ => Vec::new(),
        }
    }

    /// A client's proposal. A shed one and one for a channel not hosted
    /// are rejected at once; any other is endorsed against the channel's
    /// committed state, the response released after its cost: on a read
    /// lane when it wrote nothing, behind the committer otherwise.
    fn proposal(&mut self, src: ActorId, sp: SignedProposal, admitted: bool) -> Vec<Action> {
        if !admitted {
            return vec![self.reject(src, &sp, BUSY_REASON.to_owned())];
        }
        let channel = &sp.proposal.channel;
        let Some(i) = self.hosted(channel) else {
            return vec![self.reject(src, &sp, format!("channel {channel} not hosted"))];
        };
        let ch = &self.channels[i];
        let committer = ch.committer.borrow();
        let (response, stats) = endorse(
            &self.identity,
            &*self.chaincode,
            committer.msp(),
            committer.state(),
            Some(committer.graph()),
            &sp,
        );
        drop(committer);
        let cost = costs::endorse_cost(&sp.proposal, &stats);
        let endorsed = Action::Count(Some(ch.id.clone()), "endorsed", 1);
        // Chaincode simulation + signing, as a span on the tx id `endorse`
        // already computed.
        let span = (tx_trace(&response.tx_id), "endorse.exec");
        let read_only = response.rwset.writes.is_empty();
        let result = FabricMsg::ProposalResult(response);
        let answer = Own::DeferRequest(cost, span, src, result, read_only);
        vec![endorsed, Action::Own(answer)]
    }

    /// A client's commit-status probe, charged as a query (verify the
    /// request, look the id up): answered with the event of a transaction
    /// this peer committed, carrying the code it recorded; with "not
    /// found" otherwise, so the client asks its next peer at once.
    fn commit_status(&self, src: ActorId, channel: ChannelId, tx_id: TxId) -> Vec<Action> {
        let Some(i) = self.hosted(&channel) else {
            return Vec::new();
        };
        let cost = costs::VERIFY + costs::STATE_OP;
        let ledger = self.channels[i].committer.borrow();
        let Some(code) = ledger.status(&tx_id) else {
            return vec![defer(cost, src, FabricMsg::CommitStatusNotFound(tx_id))];
        };
        let event = CommitEvent {
            channel,
            tx_id,
            block_number: ledger.height() - 1,
            code,
            chaincode_event: None,
            creator: None,
            endorser: None,
        };
        vec![defer(cost, src, FabricMsg::CommitStatusAnswer(event))]
    }

    /// An immediate rejection carrying `reason`.
    fn reject(&self, src: ActorId, sp: &SignedProposal, reason: String) -> Action {
        let refusal = ProposalResponse::refused(&self.identity, sp.proposal.tx_id(), reason);
        send(src, FabricMsg::ProposalResult(refusal))
    }

    /// A delivered block: a duplicate (multi-orderer dissemination) is
    /// dropped; any other is buffered, every consecutive block now
    /// available committed, and the catch-up machine told where the chain
    /// stands.
    fn block(&mut self, src: ActorId, channel: ChannelId, block: Arc<Block>) -> Vec<Action> {
        let Some(i) = self.hosted(&channel) else {
            return Vec::new();
        };
        let ch = &mut self.channels[i];
        let (number, height) = (block.header.number, ch.committer.borrow().height());
        if number < height {
            return Vec::new();
        }
        ch.buffer.insert(number, block);
        // Room for what one committed block answers with.
        let mut out = Vec::with_capacity(if number == height { 8 } else { 0 });
        self.drain(i, &mut out);
        self.step(i, &mut out, |machine, height, buffered| {
            machine.delivered(src, height, buffered)
        });
        out
    }

    /// Commits every consecutive buffered block, then cuts a snapshot if
    /// the chain grew and one is due.
    fn drain(&mut self, i: usize, out: &mut Vec<Action>) {
        let mut grew = false;
        loop {
            let ch = &mut self.channels[i];
            let height = ch.committer.borrow().height();
            let Some(block) = ch.buffer.remove(&height) else {
                break;
            };
            grew |= self.commit(i, block, out);
        }
        if grew {
            self.cut_if_due(i, out);
        }
    }

    /// The commit path: the stateless VSCC phase is charged as
    /// per-envelope costs for the CPU lanes, the serial MVCC + apply phase
    /// as one. Answers whether the block extended the chain.
    fn commit(&mut self, i: usize, block: Arc<Block>, out: &mut Vec<Action>) -> bool {
        let ch = &mut self.channels[i];
        let name = &self.name;
        let trace = ch.id.trace_name(&format!("block-{}", block.header.number));
        out.push(Action::SpanStart(trace.clone(), "validate", name.clone()));
        let verdicts = ch.committer.borrow().vscc_block(&block);
        let mut vscc = Vec::with_capacity(verdicts.len());
        let mut serial = costs::block_cost(block.wire_size());
        for verdict in &verdicts {
            if let Some(spans) = &verdict.spans {
                vscc.push(costs::vscc_cost(u64::from(verdict.signatures)));
                serial += costs::COMMIT_PER_TX + costs::apply_cost(spans.write_bytes, spans.writes);
            }
        }
        // The orderer's retained tail and the other peers' deliveries
        // usually still hold this block, so this is a clone: of the header
        // and of a pointer to the shared envelopes. The validation codes the
        // commit fills in are this peer's own.
        let owned = Arc::unwrap_or_clone(block);
        let mut ledger = ch.committer.borrow_mut();
        let committed = ledger.commit_block_prevalidated(owned, verdicts);
        drop(ledger);
        let id = ch.id.clone();
        let count = |name, n| Action::Count(Some(id.clone()), name, n);
        let outcome = match committed {
            Ok(outcome) => outcome,
            Err(err) => {
                out.push(Action::SpanEnd(trace.clone(), "validate", name.clone()));
                out.push(count("commit_errors", 1));
                out.push(Action::Note(trace, "commit_error", err.to_string()));
                return false;
            }
        };
        out.push(count("blocks", 1));
        out.push(count("tx.valid", outcome.valid as u64));
        out.push(count("tx.invalid", outcome.invalid as u64));
        // Goodput SLOs watch committed-transaction events.
        out.push(Action::Own(Own::Slo("commit.tx", outcome.valid as u64)));
        // Committed records whose parent ids are absent from the graph
        // index: only when a block actually dangles (strict runs never do).
        if outcome.dangling_parents > 0 {
            out.push(count("dangling_parent", outcome.dangling_parents));
            out.push(Action::Note(trace.clone(), "dangling_parent", name.clone()));
        }
        let events = self.commit_events(outcome.events);
        out.push(Action::Own(Own::Committed {
            trace,
            vscc,
            serial,
            events,
        }));
        true
    }

    /// Who is told about which transaction of a block. Every hosting peer
    /// commits every transaction, so exactly one must tell the client:
    /// the one whose certificate is on the envelope's first endorsement —
    /// a peer the client asked, and so one it could reach on this attempt,
    /// wherever its home is. Nothing is remembered: the envelope names
    /// both parties. This peer sends one message to the creator's client
    /// (when it subscribed here) for a transaction it endorsed first, none
    /// for the others, and one per subscriber (in certificate order) for
    /// an event that names no creator.
    fn commit_events(&self, events: Vec<CommitEvent>) -> Vec<(ActorId, FabricMsg)> {
        let own = self.identity.certificate().id;
        let mut sends = Vec::new();
        for event in events {
            match &event.creator {
                Some(creator) if event.endorser.is_none_or(|endorser| endorser == own) => {
                    if let Some(&client) = self.subscribers.get(creator) {
                        sends.push((client, FabricMsg::Commit(event)));
                    }
                }
                Some(_) => {}
                None => {
                    for &client in self.subscribers.values() {
                        sends.push((client, FabricMsg::Commit(event.clone())));
                    }
                }
            }
        }
        sends
    }

    /// Cuts a snapshot once the chain has grown `interval` blocks past the
    /// previous one (never without a policy). The capture cost is charged
    /// here, where the modelled peer hashes and writes its checkpoint, from
    /// the live entry count and value bytes; the host records only the
    /// height and the tip hash, and leaves the freeze and the hashing to
    /// whichever recovery or transfer first reads the checkpoint, which for
    /// most cuts is none. Pruning then drops the block store behind the
    /// new height, and no further until the next cut.
    fn cut_if_due(&mut self, i: usize, out: &mut Vec<Action>) {
        let Some(policy) = self.snapshots else {
            return;
        };
        let ch = &mut self.channels[i];
        let mut ledger = ch.committer.borrow_mut();
        let height = ledger.height();
        let last = ch.checkpoint.as_ref().map_or(0, Checkpoint::height);
        if height < last.saturating_add(policy.interval.max(1)) {
            return;
        }
        let (entries, bytes) = (ledger.state().len(), ledger.state().live_bytes());
        let cost = costs::snapshot_capture_cost(entries as u64, bytes);
        ch.checkpoint = Some(Checkpoint::Cut {
            height,
            tip_hash: ledger.store().tip_hash(),
            read: OnceCell::new(),
        });
        let pruned = ledger.prune_store_to(height);
        drop(ledger);
        let id = Some(ch.id.clone());
        out.push(Action::Count(id.clone(), "snapshots.cut", 1));
        out.push(Action::Gauge(id.clone(), "snapshots.height", height as f64));
        if pruned > 0 {
            out.push(Action::Count(id, "snapshots.pruned_blocks", pruned));
        }
        out.push(Action::Charge(cost));
    }

    /// Feeds channel `i`'s catch-up machine one input — `input` also gets
    /// the chain height and whether a later block is buffered above it —
    /// and translates what it answers, in order. Booting a fetched snapshot
    /// is ledger work: done here, the outcome fed back before the rest.
    fn step(
        &mut self,
        i: usize,
        out: &mut Vec<Action>,
        input: impl FnOnce(&mut CatchUp, u64, bool) -> Vec<catchup::Action>,
    ) {
        let ch = &mut self.channels[i];
        let height = ch.committer.borrow().height();
        let mut todo = VecDeque::from(input(&mut ch.catchup, height, !ch.buffer.is_empty()));
        while let Some(action) = todo.pop_front() {
            match action {
                catchup::Action::Send(dest, msg) => out.push(send(dest, msg)),
                catchup::Action::Arm(delay) => {
                    out.extend([Action::Disarm(i as u64), Action::Arm(i as u64, delay)]);
                }
                catchup::Action::Disarm => out.push(Action::Disarm(i as u64)),
                catchup::Action::Count(name) => {
                    let id = Some(self.channels[i].id.clone());
                    out.push(Action::Count(id, name, 1));
                }
                catchup::Action::Ingested(bytes) => {
                    out.push(Action::Charge(costs::snapshot_transfer_cost(bytes)));
                }
                catchup::Action::Boot(snapshot) => {
                    let ok = self.install(i, snapshot, out);
                    let ch = &mut self.channels[i];
                    let height = ch.committer.borrow().height();
                    for next in ch.catchup.booted(ok, height).into_iter().rev() {
                        todo.push_front(next);
                    }
                }
            }
        }
    }

    /// The catch-up protocol's opening request: answer with the latest
    /// snapshot's manifest, or `None` (sending the requester to its next
    /// provider).
    fn snapshot_request(&mut self, src: ActorId, channel: ChannelId) -> Vec<Action> {
        let manifest = self
            .latest_snapshot(&channel, None)
            .map(|s| Box::new(s.manifest().clone()));
        let requests = Action::Count(Some(channel.clone()), "snapshot_requests", 1);
        let offer = FabricMsg::SnapshotOffer { channel, manifest };
        vec![requests, defer(costs::CACHE_HIT_OP, src, offer)]
    }

    /// A request for one part (state chunk or tail) of the snapshot at
    /// `height`, charged as transfer I/O; answered with `None` when that
    /// snapshot is gone (superseded by a newer one), which advances the
    /// requester's ladder.
    fn part_request(
        &mut self,
        src: ActorId,
        channel: ChannelId,
        height: u64,
        index: u32,
    ) -> Vec<Action> {
        let part = self
            .latest_snapshot(&channel, Some(height))
            .and_then(|s| s.part(index as usize))
            .map(Arc::new);
        let cost = part.as_ref().map_or(costs::CACHE_HIT_OP, |p| {
            costs::snapshot_transfer_cost(p.wire_size())
        });
        let msg = FabricMsg::SnapshotPartData {
            channel,
            height,
            index,
            part,
        };
        vec![defer(cost, src, msg)]
    }

    fn hosted(&self, channel: &ChannelId) -> Option<usize> {
        self.by_id.get(channel).copied()
    }

    /// The content of a hosted channel's latest checkpoint — of the one at
    /// `height`, if one is named —, materialized if it is a cut no one
    /// has read yet.
    fn latest_snapshot(&self, channel: &ChannelId, height: Option<u64>) -> Option<&Snapshot> {
        let ch = &self.channels[self.hosted(channel)?];
        let checkpoint = ch.checkpoint.as_ref()?;
        if height.is_some_and(|height| height != checkpoint.height()) {
            return None;
        }
        Some(checkpoint.snapshot(&ch.committer))
    }

    /// The timer of `token` fired: the retry timer of the channel the
    /// token names.
    pub fn timer(&mut self, token: u64) -> Vec<Action> {
        let hosted = (token as usize) < self.channels.len();
        self.fed(hosted.then_some(token as usize), CatchUp::timer_fired)
    }

    /// [`Peer::step`] on a channel that may not be hosted.
    fn fed(
        &mut self,
        channel: Option<usize>,
        input: impl FnOnce(&mut CatchUp, u64, bool) -> Vec<catchup::Action>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if let Some(i) = channel {
            self.step(i, &mut out, input);
        }
        out
    }
}
