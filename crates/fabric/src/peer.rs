//! The peer actor: endorses proposals and commits delivered blocks on
//! every channel it hosts, and cuts snapshots behind the commit path.
//! What a peer does to *stay* current — gap detection, the retry ladder,
//! snapshot fetch, join and restart — is decided by the sans-IO
//! [`CatchUp`] machine, one per hosted channel; [`catchup`] interprets its
//! actions, serves snapshots to other peers and boots ledgers.
//!
//! Node logic (endorsement, commit, catch-up) lives in the sans-IO modules; the
//! actor glues it to the discrete-event kernel through the shared
//! [`ServiceHarness`]: it charges CPU costs, queues outputs until the
//! virtual CPU finishes, and ships messages through the simulated
//! network.
//!
//! Work is *performed* at message arrival (so state mutations happen in
//! arrival order — equivalent to a FIFO service discipline) but results
//! become *visible* only after the modelled CPU time elapses, which is
//! what produces the latency/throughput curves of the paper's figures.
//! Proposals ([`FabricMsg::SubmitProposal`]) pass through the harness
//! admission queue: unbounded by default, or bounded with
//! [`PeerActor::with_queue`].

mod catchup;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, RwSet, Snapshot, DEFAULT_CHUNK_ENTRIES};
use hyperprov_sim::{
    Actor, ActorId, Carries, Context, Event, Outbound, QueueConfig, ServiceHarness, SpanClose,
    TimerId,
};

use crate::caches::{ReadCache, SigVerifyCache};
use crate::catchup::CatchUp;
use crate::chaincode::ChaincodeRegistry;
use crate::committer::Committer;
use crate::costs::CostModel;
use crate::endorser::endorse;
use crate::identity::{CertId, SigningIdentity};
use crate::messages::{
    endorsement_message, tx_trace, CommitEvent, FabricMsg, ProposalResponse, SignedProposal,
    BUSY_REASON,
};

use catchup::CATCHUP_TIMER_BASE;

/// Configuration of a peer's FastFabric-style commit path: how many CPU
/// lanes the parallel VSCC phase may spread across, and whether the
/// verification caches are on. Every peer commits through the same
/// VSCC-then-apply path; the default (one lane, no caches) is its
/// degenerate case, charged as two CPU jobs per block on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitPipeline {
    /// CPU lanes available to the parallel VSCC phase (deployment clamps
    /// this to the device's core count).
    pub lanes: usize,
    /// Memoise successful endorsement-signature verifications across
    /// blocks, and keep an endorser-side hot-state read cache,
    /// invalidated at commit for every written key.
    pub caches: bool,
}

impl Default for CommitPipeline {
    fn default() -> Self {
        CommitPipeline {
            lanes: 1,
            caches: false,
        }
    }
}

/// Peer-side snapshot policy: cut a Merkle-rooted state snapshot every
/// `interval` blocks and prune the block store behind it. Snapshots are
/// off unless a policy is installed with [`PeerActor::with_snapshots`],
/// keeping default deployments byte for byte identical to the
/// pre-snapshot behaviour.
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

/// Pre-rendered per-channel metric names for the endorse and commit hot
/// paths: one `format!` per channel at join time instead of one per
/// event. By-name counter updates are allocation-free hash lookups, so
/// the rendered name is all the hot path needs.
struct HotMetricNames {
    endorsed: String,
    readcache_hits: String,
    readcache_misses: String,
    readcache_invalidations: String,
    blocks: String,
    tx_valid: String,
    tx_invalid: String,
}

impl HotMetricNames {
    fn new(channel: &ChannelId, prefix: &str) -> Self {
        HotMetricNames {
            endorsed: channel.metric_name(prefix, "endorsed"),
            readcache_hits: channel.metric_name(prefix, "readcache.hits"),
            readcache_misses: channel.metric_name(prefix, "readcache.misses"),
            readcache_invalidations: channel.metric_name(prefix, "readcache.invalidations"),
            blocks: channel.metric_name(prefix, "blocks"),
            tx_valid: channel.metric_name(prefix, "tx.valid"),
            tx_invalid: channel.metric_name(prefix, "tx.invalid"),
        }
    }
}

/// A peer's per-channel commit pipeline: the channel's committer plus the
/// volatile delivery bookkeeping (out-of-order buffer, catch-up machine
/// and its timer) and the durable latest snapshot.
struct PeerChannel {
    committer: Rc<RefCell<Committer>>,
    /// Pre-rendered metric names for per-event counters.
    names: HotMetricNames,
    /// Blocks that arrived ahead of the next expected height.
    block_buffer: BTreeMap<u64, Arc<Block>>,
    /// Hot-state read cache for endorsement, when the pipeline enables it.
    read_cache: Option<ReadCache>,
    /// Latest cut or fetched snapshot. Models durable checkpoint storage,
    /// so — like the block store — it survives crashes.
    latest_snapshot: Option<Snapshot>,
    /// The catch-up protocol's state (volatile).
    catchup: CatchUp,
    /// The machine's pending retry timer (volatile).
    retry_timer: Option<TimerId>,
    /// This channel's retry-timer token.
    timer_token: u64,
}

impl PeerChannel {
    /// Cancels the retry timer, if one is pending.
    fn disarm<M>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(timer) = self.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
    }
}

/// A Fabric peer: endorses proposals and commits delivered blocks on
/// every channel it hosts (a map `ChannelId -> ledger`, any subset of the
/// network's channels).
pub struct PeerActor<M> {
    identity: SigningIdentity,
    registry: ChaincodeRegistry,
    channels: BTreeMap<ChannelId, PeerChannel>,
    costs: CostModel,
    /// Commit-event subscriptions: creator certificate -> client. Ordered,
    /// so the fan-out of an addressee-less event is deterministic.
    subscribers: BTreeMap<CertId, ActorId>,
    harness: ServiceHarness<M>,
    metric_prefix: String,
    /// Commit-path acceleration settings (lanes + caches).
    pipeline: CommitPipeline,
    /// Signature-verification memo, shared across this peer's channels.
    sig_cache: Option<SigVerifyCache>,
    /// Snapshot policy; `None` (the default) disables snapshots, pruning
    /// and snapshot-based recovery entirely.
    snapshots: Option<SnapshotPolicy>,
}

/// FNV-1a over the metric prefix: a stable, deterministic per-peer salt
/// for the catch-up retry backoff.
fn salt_of(prefix: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in prefix.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
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
            identity,
            registry,
            channels: BTreeMap::new(),
            costs,
            subscribers: BTreeMap::new(),
            harness: ServiceHarness::new(metric_prefix.clone()),
            metric_prefix,
            pipeline: CommitPipeline::default(),
            sig_cache: None,
            snapshots: None,
        }
    }

    /// Joins the peer to a channel (keyed by the committer's channel).
    /// `catchup` is the node the peer asks to re-deliver blocks missed
    /// while crashed (normally the channel's ordering node); without one
    /// the peer still recovers its ledger on restart but waits for the
    /// next live delivery to notice any gap.
    pub fn add_channel(&mut self, committer: Rc<RefCell<Committer>>, catchup: Option<ActorId>) {
        let channel = committer.borrow().channel().clone();
        let state = PeerChannel {
            names: HotMetricNames::new(&channel, &self.metric_prefix),
            committer,
            block_buffer: BTreeMap::new(),
            read_cache: self.pipeline.caches.then(ReadCache::new),
            latest_snapshot: None,
            catchup: CatchUp::new(channel.clone(), catchup, salt_of(&self.metric_prefix)),
            retry_timer: None,
            timer_token: CATCHUP_TIMER_BASE + self.channels.len() as u64,
        };
        self.channels.insert(channel, state);
    }

    /// Installs a snapshot policy: cut a Merkle-rooted snapshot every
    /// `policy.interval` blocks on every hosted channel, prune the block
    /// store behind it, and recover from the latest snapshot plus a delta
    /// replay — instead of a full genesis replay — after a crash.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// Registers the peers that can serve snapshots for `channel` — the
    /// catch-up protocol's provider ladder, tried in order.
    pub fn set_catchup_providers(&mut self, channel: &ChannelId, providers: Vec<ActorId>) {
        if let Some(state) = self.channels.get_mut(channel) {
            state.catchup.set_providers(providers);
        }
    }

    /// Configures the commit-path acceleration (VSCC lanes + caches) for
    /// this peer, applying cache settings to every channel hosted so far
    /// and to channels added later.
    pub fn with_pipeline(mut self, pipeline: CommitPipeline) -> Self {
        self.pipeline = pipeline;
        self.sig_cache = pipeline.caches.then(SigVerifyCache::new);
        for state in self.channels.values_mut() {
            state.read_cache = pipeline.caches.then(ReadCache::new);
        }
        self
    }

    /// Bounds this peer's admission queue (proposals only; block delivery
    /// always proceeds, since falling behind the ledger helps nobody).
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.harness.set_queue(config);
        self
    }

    /// Subscribes a client to the commit events of its own transactions,
    /// keyed by the enrolment id of the certificate it submits with —
    /// the paper's client waits for the commit event of *its*
    /// transaction at its peer, and gateway-side filtering keeps the
    /// messages per committed transaction independent of how many
    /// clients share the peer. A client subscribes at every peer it may
    /// ask to endorse: this peer reports the transactions it endorsed
    /// first and leaves the rest to the peer that did. Events of other
    /// creators are not sent; an event without a creator (the envelope
    /// failed to decode) goes to every subscriber, so its submitter still
    /// learns the verdict.
    pub fn subscribe(&mut self, client: ActorId, cert: CertId) {
        self.subscribers.insert(cert, client);
    }

    /// Shared handle to this peer's first channel's ledger (tests and
    /// audits; single-channel deployments have exactly one).
    ///
    /// # Panics
    ///
    /// Panics if the peer hosts no channel yet.
    pub fn committer(&self) -> Rc<RefCell<Committer>> {
        self.channels
            .values()
            .next()
            .expect("the peer hosts no channel: call add_channel first")
            .committer
            .clone()
    }

    fn on_proposal(&mut self, ctx: &mut Context<'_, M>, src: ActorId, sp: SignedProposal) {
        let channel = sp.proposal.channel.clone();
        let Some(state) = self.channels.get_mut(&channel) else {
            // Not hosting this channel: reject like any endorsement error.
            self.reject_proposal(ctx, src, &sp, format!("channel {channel} not hosted"));
            return;
        };
        let committer = state.committer.borrow();
        let (response, stats) = endorse(
            &self.identity,
            &self.registry,
            committer.msp(),
            committer.state(),
            committer.history(),
            Some(committer.graph()),
            &sp,
        );
        drop(committer);
        let mut cost = self.costs.endorse_cost(&sp.proposal, &stats);
        // Hot-state read cache: reads served from cache cost a cache hit
        // instead of a full state operation. The chaincode still executed
        // against the authoritative state database above, so only the
        // charged CPU time changes, never the endorsement result.
        let mut hits = 0u64;
        let mut misses = 0u64;
        if let Some(cache) = state.read_cache.as_mut() {
            for read in &response.rwset.reads {
                if cache.touch(&read.key) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        if hits > 0 {
            cost = cost - (self.costs.state_op - self.costs.cache_hit_op) * hits;
            ctx.metrics().incr(&state.names.readcache_hits, hits);
        }
        if misses > 0 {
            ctx.metrics().incr(&state.names.readcache_misses, misses);
        }
        ctx.metrics().incr(&state.names.endorsed, 1);
        // Per-peer execution span: chaincode simulation + signing, closed
        // when the virtual CPU finishes and the response ships. The
        // response carries the tx id `endorse` already computed.
        let trace = tx_trace(&response.tx_id);
        ctx.span_start(&trace, "endorse.exec", &self.metric_prefix);
        let bytes = response.wire_size();
        let closes = vec![SpanClose::new(
            trace.clone(),
            "endorse.exec",
            self.metric_prefix.clone(),
        )];
        self.harness.defer_request(
            ctx,
            cost,
            &trace,
            vec![(src, bytes, M::wrap(FabricMsg::ProposalResult(response)))],
            closes,
        );
    }

    /// Sends an immediate rejection carrying `reason` (unhosted channel).
    fn reject_proposal(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        sp: &SignedProposal,
        reason: String,
    ) {
        let tx_id = sp.proposal.tx_id();
        let response = ProposalResponse {
            tx_id,
            endorser: self.identity.certificate().clone(),
            result: Err(reason),
            rwset: RwSet::new(),
            event: None,
            signature: self
                .identity
                .sign(&endorsement_message(&tx_id, &[], &RwSet::new())),
        };
        let bytes = response.wire_size();
        ctx.send(src, bytes, M::wrap(FabricMsg::ProposalResult(response)));
    }

    /// Sends an immediate rejection for a proposal shed at admission.
    fn nack_proposal(&mut self, ctx: &mut Context<'_, M>, src: ActorId, sp: &SignedProposal) {
        ctx.metrics()
            .incr(&format!("{}.nacked", self.metric_prefix), 1);
        self.reject_proposal(ctx, src, sp, BUSY_REASON.to_owned());
    }

    /// Commits every consecutive buffered block; returns how many were
    /// committed.
    fn drain_ready(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) -> u64 {
        let mut committed = 0;
        while let Some(state) = self.channels.get_mut(channel) {
            let height = state.committer.borrow().height();
            match state.block_buffer.remove(&height) {
                Some(block) => {
                    self.commit_one(ctx, channel, block);
                    committed += 1;
                }
                None => break,
            }
        }
        committed
    }

    /// Cuts a snapshot once the chain has grown `interval` blocks past the
    /// previous one (a no-op without a policy, so default deployments stay
    /// untouched). The capture cost is charged to the virtual CPU in
    /// proportion to the state size — here, at the cut, where the modelled
    /// peer hashes and writes its checkpoint; the host only freezes the
    /// ledger and leaves the hashing to whichever recovery or transfer
    /// first reads the manifest, which for most cuts is none. Pruning then
    /// drops the block store behind the new snapshot's height, bounding
    /// disk growth.
    fn maybe_cut_snapshot(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        let Some(policy) = self.snapshots else {
            return;
        };
        let Some(state) = self.channels.get_mut(channel) else {
            return;
        };
        let height = state.committer.borrow().height();
        let last = state.latest_snapshot.as_ref().map_or(0, |s| s.height());
        if height < last.saturating_add(policy.interval.max(1)) {
            return;
        }
        // The previous cut goes before the next is built: two frozen views
        // of the ledger are never alive at once.
        state.latest_snapshot = None;
        let snapshot = state.committer.borrow().snapshot(DEFAULT_CHUNK_ENTRIES);
        let cost = self
            .costs
            .snapshot_capture_cost(snapshot.entry_count() as u64, snapshot.state_bytes());
        state.latest_snapshot = Some(snapshot);
        let pruned = state.committer.borrow_mut().prune_store_to(height);
        ctx.metrics().incr(
            &channel.metric_name(&self.metric_prefix, "snapshots.cut"),
            1,
        );
        ctx.metrics().set_gauge(
            &channel.metric_name(&self.metric_prefix, "snapshots.height"),
            height as f64,
        );
        if pruned > 0 {
            ctx.metrics().incr(
                &channel.metric_name(&self.metric_prefix, "snapshots.pruned_blocks"),
                pruned,
            );
        }
        self.harness.charge(ctx, cost);
    }

    /// The commit path: the stateless VSCC phase is charged as the
    /// makespan of per-envelope costs spread across this peer's CPU lanes,
    /// then the serial MVCC + apply phase runs on one lane. Because the
    /// serial phase starts at the *global* CPU busy horizon while the next
    /// block's VSCC batch fills whichever lanes free up first, block N+1's
    /// VSCC naturally overlaps block N's apply (on one lane the two jobs
    /// simply queue).
    fn commit_one(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId, block: Arc<Block>) {
        let trace = channel.trace_name(&format!("block-{}", block.header.number));
        ctx.span_start(&trace, "validate", &self.metric_prefix);
        let state = self.channels.get(channel).expect("caller checked");
        let verdicts = state
            .committer
            .borrow()
            .vscc_block(&block, self.sig_cache.as_mut());
        let mut vscc_costs = Vec::with_capacity(verdicts.len());
        let mut serial_cost = self.costs.block_cost(block.wire_size());
        let mut sig_hits = 0u64;
        let mut sig_misses = 0u64;
        for verdict in &verdicts {
            sig_hits += verdict.sig_hits as u64;
            sig_misses += verdict.sig_misses as u64;
            if let Some(env) = &verdict.envelope {
                vscc_costs.push(
                    self.costs
                        .vscc_cost(verdict.sig_misses as u64, verdict.sig_hits as u64),
                );
                serial_cost += self.costs.mvcc_cost()
                    + self.costs.apply_cost(
                        env.rwset.write_bytes() as u64,
                        env.rwset.writes.len() as u64,
                    );
            }
        }
        if self.sig_cache.is_some() {
            if sig_hits > 0 {
                ctx.metrics()
                    .incr(&format!("{}.sigcache.hits", self.metric_prefix), sig_hits);
            }
            if sig_misses > 0 {
                ctx.metrics().incr(
                    &format!("{}.sigcache.misses", self.metric_prefix),
                    sig_misses,
                );
            }
        }
        // The orderer's retained tail and the other peers' deliveries
        // usually still hold this block, so this is a clone: of the header
        // and of a pointer to the shared envelopes. The validation codes the
        // commit fills in are this peer's own.
        let owned = Arc::unwrap_or_clone(block);
        let outcome = state
            .committer
            .borrow_mut()
            .commit_block_prevalidated(owned, verdicts);
        match outcome {
            Ok(outcome) => {
                let names = &self.channels.get(channel).expect("caller checked").names;
                ctx.metrics().incr(&names.blocks, 1);
                ctx.metrics().incr(&names.tx_valid, outcome.valid as u64);
                ctx.metrics()
                    .incr(&names.tx_invalid, outcome.invalid as u64);
                // Goodput SLOs watch committed-transaction events.
                ctx.slo_event_n("commit.tx", outcome.valid as u64);
                self.note_dangling(ctx, channel, &trace, outcome.dangling_parents);
                // Every committed write invalidates its read-cache entry:
                // the cached version is no longer the latest.
                let mut invalidated = 0u64;
                let state = self.channels.get_mut(channel).expect("caller checked");
                if let Some(cache) = state.read_cache.as_mut() {
                    for key in &outcome.written_keys {
                        if cache.invalidate(key) {
                            invalidated += 1;
                        }
                    }
                }
                if invalidated > 0 {
                    ctx.metrics()
                        .incr(&state.names.readcache_invalidations, invalidated);
                }
                let detail = self.metric_prefix.clone();
                ctx.span_start(&trace, "commit.vscc", &detail);
                self.harness.defer_parallel(
                    ctx,
                    &vscc_costs,
                    vec![],
                    vec![SpanClose::new(trace.clone(), "commit.vscc", detail.clone())],
                );
                // The serial phase starts once every lane has drained the
                // VSCC batch (and any earlier block's apply has finished).
                let apply_start = ctx.now().max(ctx.cpu().busy_until());
                ctx.tracer()
                    .span_start(apply_start, &trace, "commit.apply", &detail);
                let sends = self.commit_event_sends(outcome.events);
                self.harness.defer(
                    ctx,
                    serial_cost,
                    sends,
                    vec![
                        SpanClose::new(trace.clone(), "commit.apply", detail.clone()),
                        SpanClose::new(trace, "validate", detail),
                    ],
                );
                let lanes_busy = ctx.cpu().lanes_busy_at(ctx.now()) as f64;
                ctx.metrics()
                    .set_gauge(&format!("{}.lanes_busy", self.metric_prefix), lanes_busy);
            }
            Err(err) => {
                ctx.span_end(&trace, "validate", &self.metric_prefix);
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "commit_errors"),
                    1,
                );
                let _ = err;
            }
        }
    }

    /// Builds the commit-notification sends for a block's events. Every
    /// hosting peer commits every transaction, so exactly one must tell
    /// the client: the one whose certificate is on the envelope's first
    /// endorsement — a peer the client asked, and so one it could reach
    /// on this attempt, wherever its home is. Nothing is remembered: the
    /// envelope names both parties. This peer sends one message to the
    /// creator's client (when it subscribed here) for a transaction it
    /// endorsed first, none for the others, and one per subscriber (in
    /// certificate order) for an event that names no creator.
    fn commit_event_sends(&self, events: Vec<CommitEvent>) -> Vec<Outbound<M>> {
        let own = self.identity.certificate().id;
        let mut sends = Vec::new();
        for event in events {
            match &event.creator {
                Some(creator) if event.endorser.is_none_or(|endorser| endorser == own) => {
                    if let Some(&client) = self.subscribers.get(creator) {
                        sends.push((client, 128, M::wrap(FabricMsg::Commit(event))));
                    }
                }
                Some(_) => {}
                None => {
                    for &client in self.subscribers.values() {
                        sends.push((client, 128, M::wrap(FabricMsg::Commit(event.clone()))));
                    }
                }
            }
        }
        sends
    }

    /// Flags committed records whose parent ids are absent from the graph
    /// index: a warning event on the block trace plus a counter, emitted
    /// only when a block actually dangles (strict runs never do, so the
    /// default exports stay untouched).
    fn note_dangling(
        &mut self,
        ctx: &mut Context<'_, M>,
        channel: &ChannelId,
        trace: &str,
        dangling: u64,
    ) {
        if dangling == 0 {
            return;
        }
        ctx.metrics().incr(
            &channel.metric_name(&self.metric_prefix, "dangling_parent"),
            dangling,
        );
        let now = ctx.now();
        ctx.tracer()
            .event(now, trace, "dangling_parent", &self.metric_prefix);
    }
}

impl<M: Carries<FabricMsg>> Actor<M> for PeerActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        match event {
            Event::Message { src, msg } => match msg.peel() {
                Ok(FabricMsg::SubmitProposal(sp)) => {
                    if self.harness.admit(ctx) {
                        self.on_proposal(ctx, src, sp);
                    } else {
                        self.nack_proposal(ctx, src, &sp);
                    }
                }
                Ok(FabricMsg::DeliverBlock(channel, block)) => {
                    self.on_block(ctx, src, channel, block)
                }
                Ok(FabricMsg::SnapshotRequest { channel }) => {
                    self.on_snapshot_request(ctx, src, channel)
                }
                Ok(FabricMsg::SnapshotOffer { channel, manifest }) => {
                    self.step(ctx, &channel, |machine, at, _| {
                        machine.offer(src, at, manifest)
                    })
                }
                Ok(FabricMsg::SnapshotPartRequest {
                    channel,
                    height,
                    index,
                }) => self.on_part_request(ctx, src, channel, height, index),
                Ok(FabricMsg::SnapshotPartData {
                    channel,
                    height,
                    index,
                    part,
                }) => self.step(ctx, &channel, |machine, at, _| {
                    machine.part(src, at, height, index, part)
                }),
                Ok(FabricMsg::JoinChannel { channel }) => {
                    self.step(ctx, &channel, |machine, at, _| machine.join(at))
                }
                Ok(_) | Err(_) => {}
            },
            Event::Timer { token } => {
                if !self.harness.on_timer(ctx, token) {
                    self.on_retry_timer(ctx, token);
                }
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.recover_after_restart(ctx);
    }
}
