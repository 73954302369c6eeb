//! Simulation actors for the Fabric network: peers and ordering nodes.
//!
//! Node logic (endorsement, commit, batching, consensus) lives in the
//! sans-IO modules; the actors here glue it to the discrete-event kernel
//! through the shared [`ServiceHarness`]: they charge CPU costs, queue
//! outputs until the virtual CPU finishes, and ship messages through the
//! simulated network.
//!
//! Work is *performed* at message arrival (so state mutations happen in
//! arrival order — equivalent to a FIFO service discipline) but results
//! become *visible* only after the modelled CPU time elapses, which is
//! what produces the latency/throughput curves of the paper's figures.
//! Client-facing requests ([`FabricMsg::SubmitProposal`],
//! [`FabricMsg::Broadcast`]) pass through the harness admission queue:
//! unbounded by default, or bounded with a backpressure policy via the
//! actors' `with_queue` builders.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_ledger::{
    Block, ChannelId, Encode, RawEnvelope, RwSet, Snapshot, SnapshotManifest, SnapshotPart, TxId,
    DEFAULT_CHUNK_ENTRIES,
};
use hyperprov_sim::{
    Actor, ActorId, Admission, Context, Event, Outbound, QueueConfig, ServiceHarness, SimDuration,
    SpanClose, TimerId,
};

use crate::caches::{ReadCache, SigVerifyCache};
use crate::chaincode::ChaincodeRegistry;
use crate::committer::Committer;
use crate::costs::CostModel;
use crate::endorser::endorse;
use crate::identity::{CertId, SigningIdentity};
use crate::messages::{
    endorsement_message, tx_trace, CommitEvent, Envelope, ProposalResponse, SignedProposal,
};
use crate::orderer::{BatchConfig, BlockAssembler, BlockCutter};
use crate::raft::{RaftConfig, RaftMsg, RaftNode};

/// Rejection reason carried by a [`ProposalResponse`] when an endorsing
/// peer sheds a proposal at admission (bounded queue, `Nack` policy).
pub const BUSY_REASON: &str = "admission queue full";

/// Messages exchanged by Fabric nodes.
#[derive(Debug, Clone)]
pub enum FabricMsg {
    /// Client → endorsing peer.
    SubmitProposal(SignedProposal),
    /// Endorsing peer → client.
    ProposalResult(ProposalResponse),
    /// Client → orderer: an assembled transaction.
    Broadcast(Envelope),
    /// Orderer → peers: a cut block on one channel. The block is shared:
    /// an orderer fanning one block out to N peers (plus its own retained
    /// copy) clones an [`Arc`], not the payload.
    DeliverBlock(ChannelId, Arc<Block>),
    /// Peer → orderer: re-deliver blocks from a height (Fabric's deliver
    /// service; used to catch up after partitions).
    DeliverRequest {
        /// Channel whose chain has the gap.
        channel: ChannelId,
        /// First block height the peer is missing.
        from: u64,
    },
    /// Committing peer → subscribed client.
    Commit(CommitEvent),
    /// Orderer ↔ orderer consensus traffic.
    Raft(Box<RaftMsg<Vec<RawEnvelope>>>),
    /// Catch-up peer → provider peer: the snapshot catch-up protocol's
    /// opening message, asking for the latest snapshot's manifest.
    SnapshotRequest {
        /// Channel to catch up on.
        channel: ChannelId,
    },
    /// Provider peer → catch-up peer: the latest snapshot's manifest, or
    /// `None` when the provider holds no snapshot (the requester then
    /// tries its next provider or falls back to block re-delivery).
    SnapshotOffer {
        /// Channel the manifest describes.
        channel: ChannelId,
        /// The offered snapshot's manifest, if any.
        manifest: Option<Box<SnapshotManifest>>,
    },
    /// Catch-up peer → provider peer: fetch one part (a state chunk or
    /// the history/seen tail) of the offered snapshot.
    SnapshotPartRequest {
        /// Channel being caught up.
        channel: ChannelId,
        /// Height of the snapshot the part belongs to.
        height: u64,
        /// Part index within the snapshot's manifest.
        index: u32,
    },
    /// Provider peer → catch-up peer: one snapshot part, or `None` when
    /// the provider no longer holds a snapshot at that height.
    SnapshotPartData {
        /// Channel being caught up.
        channel: ChannelId,
        /// Height of the snapshot the part belongs to.
        height: u64,
        /// Part index within the snapshot's manifest.
        index: u32,
        /// The part's payload (shared, not cloned, on fan-out).
        part: Option<Arc<SnapshotPart>>,
    },
    /// Deployment → peer: start catching up on a hosted channel (the
    /// elastic-membership join hook for freshly added peers).
    JoinChannel {
        /// Channel to join.
        channel: ChannelId,
    },
    /// Deployment or peer → orderer: add `peer` to the channel's block
    /// delivery fan-out (elastic membership).
    DeliverSubscribe {
        /// Channel whose delivery list grows.
        channel: ChannelId,
        /// The peer to start delivering blocks to.
        peer: ActorId,
    },
}

impl FabricMsg {
    /// Approximate wire size used by the network model.
    pub fn wire_size(&self) -> u64 {
        match self {
            FabricMsg::SubmitProposal(sp) => sp.proposal.wire_size() + 32,
            FabricMsg::ProposalResult(pr) => pr.wire_size(),
            FabricMsg::Broadcast(env) => env.wire_size(),
            FabricMsg::DeliverBlock(_, b) => b.wire_size(),
            FabricMsg::DeliverRequest { .. } => 64,
            FabricMsg::Commit(_) => 128,
            FabricMsg::SnapshotRequest { .. } => 64,
            FabricMsg::SnapshotOffer { manifest, .. } => {
                64 + manifest.as_ref().map_or(0, |m| m.to_bytes().len() as u64)
            }
            FabricMsg::SnapshotPartRequest { .. } => 64,
            FabricMsg::SnapshotPartData { part, .. } => {
                64 + part.as_ref().map_or(0, |p| p.wire_size() as u64)
            }
            FabricMsg::JoinChannel { .. } => 64,
            FabricMsg::DeliverSubscribe { .. } => 64,
            FabricMsg::Raft(m) => match m.as_ref() {
                RaftMsg::AppendEntries { entries, .. } => {
                    128 + entries
                        .iter()
                        .map(|e| {
                            e.payload
                                .iter()
                                .map(|r| r.bytes.len() as u64 + 40)
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                }
                _ => 64,
            },
        }
    }
}

pub use hyperprov_sim::Carries;

impl Carries<FabricMsg> for FabricMsg {
    fn wrap(inner: FabricMsg) -> Self {
        inner
    }
    fn peel(self) -> Result<FabricMsg, Self> {
        Ok(self)
    }
}

/// Configuration of a peer's FastFabric-style commit path: how many CPU
/// lanes the parallel VSCC phase may spread across, and which
/// verification caches are enabled. Every peer commits through the same
/// VSCC-then-apply path; the default (one lane, no caches) is its
/// degenerate case, charged as two CPU jobs per block on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitPipeline {
    /// CPU lanes available to the parallel VSCC phase (deployment clamps
    /// this to the device's core count).
    pub lanes: usize,
    /// Memoise successful endorsement-signature verifications across
    /// blocks.
    pub sig_cache: bool,
    /// Keep an endorser-side hot-state read cache, invalidated at commit
    /// for every written key.
    pub read_cache: bool,
}

impl Default for CommitPipeline {
    fn default() -> Self {
        CommitPipeline {
            lanes: 1,
            sig_cache: false,
            read_cache: false,
        }
    }
}

/// Peer-side snapshot policy: cut a Merkle-rooted state snapshot every
/// `interval` blocks, optionally pruning the block store behind it.
/// Snapshots are off unless a policy is installed with
/// [`PeerActor::with_snapshots`], keeping default deployments byte for
/// byte identical to the pre-snapshot behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Cut a snapshot once the chain has grown this many blocks past the
    /// previous one.
    pub interval: u64,
    /// State entries per transfer chunk (the unit of the catch-up
    /// protocol's part fetches).
    pub chunk_entries: usize,
    /// Prune the block store behind each new snapshot's height.
    pub prune: bool,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy {
            interval: 64,
            chunk_entries: DEFAULT_CHUNK_ENTRIES,
            prune: true,
        }
    }
}

impl SnapshotPolicy {
    /// A policy cutting snapshots every `interval` blocks with default
    /// chunking and pruning enabled.
    pub fn every(interval: u64) -> Self {
        SnapshotPolicy {
            interval: interval.max(1),
            ..SnapshotPolicy::default()
        }
    }
}

/// Progress of an outstanding snapshot fetch (volatile; lost on crash).
enum FetchState {
    /// No fetch in progress.
    Idle,
    /// Waiting for a manifest from the provider at this ladder index.
    AwaitOffer { provider: usize },
    /// Downloading the parts of `manifest` from the provider at this
    /// ladder index.
    Parts {
        provider: usize,
        manifest: Box<SnapshotManifest>,
        parts: Vec<Option<SnapshotPart>>,
    },
}

/// First retry-timer token used by peers for catch-up retries (one token
/// per hosted channel: base + channel insertion index). Disjoint from the
/// harness's token space, which always sets its high token bit.
const CATCHUP_TIMER_BASE: u64 = 8;
/// Initial catch-up retry backoff in nanoseconds (200 ms; doubles per
/// attempt, capped at 32×).
const CATCHUP_RETRY_BASE_NS: u64 = 200_000_000;
/// Resends at the same height before a stalled block catch-up escalates
/// to a snapshot fetch (when providers are configured).
const CATCHUP_ESCALATE_AFTER: u32 = 3;
/// Retries without progress before a goal-only catch-up (nothing was
/// actually missed) stops re-requesting; gap-driven catch-up never gives
/// up, since a buffered future block proves progress is needed.
const CATCHUP_GIVE_UP: u32 = 8;
/// Cap on blocks served per peer-side deliver request.
const MAX_DELIVER_BLOCKS: u64 = 512;

/// Deterministic decorrelated backoff: exponential in `attempts` with up
/// to +50% jitter hashed from the peer's salt and the attempt number. The
/// peer's `ctx.rng()` stream deliberately stays untouched — the kernel
/// also draws this peer's network-jitter from it, so consuming it here
/// would perturb the timing of unrelated sends and break fixture
/// reproducibility; a hash gives the same per-peer decorrelation.
fn retry_delay(salt: u64, attempts: u32) -> SimDuration {
    let base = CATCHUP_RETRY_BASE_NS << attempts.min(5);
    let mut h = salt ^ (u64::from(attempts) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    SimDuration::from_nanos(base + h % (base / 2 + 1))
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
/// volatile delivery bookkeeping (out-of-order buffer, catch-up marker,
/// snapshot fetch progress) and the durable latest snapshot.
struct PeerChannel {
    committer: Rc<RefCell<Committer>>,
    /// Pre-rendered metric names for per-event counters.
    names: HotMetricNames,
    /// Blocks that arrived ahead of the next expected height.
    block_buffer: BTreeMap<u64, Arc<Block>>,
    /// Height of an outstanding catch-up request, to avoid repeats.
    catchup_from: Option<u64>,
    /// Where to request missed blocks from after a crash restart
    /// (normally the channel's ordering node).
    catchup_target: Option<ActorId>,
    /// Hot-state read cache for endorsement, when the pipeline enables it.
    read_cache: Option<ReadCache>,
    /// Latest cut or fetched snapshot. Models durable checkpoint storage,
    /// so — like the block store — it survives crashes.
    latest_snapshot: Option<Arc<Snapshot>>,
    /// Peers that can serve snapshots and block re-delivery on this
    /// channel (the catch-up protocol's provider ladder).
    snapshot_providers: Vec<ActorId>,
    /// Outstanding snapshot fetch (volatile).
    fetch: FetchState,
    /// Pending catch-up retry timer (volatile).
    retry_timer: Option<TimerId>,
    /// Consecutive retries without progress; drives the backoff.
    retry_attempts: u32,
    /// Height recorded when a restart/join catch-up request went out;
    /// progress past it counts as success and disarms the retry timer.
    retry_goal: Option<u64>,
    /// This channel's retry-timer token.
    timer_token: u64,
}

impl PeerChannel {
    fn new(committer: Rc<RefCell<Committer>>, timer_token: u64, metric_prefix: &str) -> Self {
        let names = HotMetricNames::new(committer.borrow().channel(), metric_prefix);
        PeerChannel {
            committer,
            names,
            block_buffer: BTreeMap::new(),
            catchup_from: None,
            catchup_target: None,
            read_cache: None,
            latest_snapshot: None,
            snapshot_providers: Vec::new(),
            fetch: FetchState::Idle,
            retry_timer: None,
            retry_attempts: 0,
            retry_goal: None,
            timer_token,
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
    /// Per-peer jitter salt for the catch-up retry backoff, derived from
    /// the metric prefix (stable across restarts).
    retry_salt: u64,
}

/// FNV-1a over the metric prefix: a stable, deterministic per-peer salt.
fn salt_of(prefix: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in prefix.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl<M: Carries<FabricMsg>> PeerActor<M> {
    /// Creates a peer hosting one channel (the committer's channel); add
    /// more with [`PeerActor::add_channel`].
    pub fn new(
        identity: SigningIdentity,
        registry: ChaincodeRegistry,
        committer: Rc<RefCell<Committer>>,
        costs: CostModel,
        metric_prefix: impl Into<String>,
    ) -> Self {
        let metric_prefix = metric_prefix.into();
        let channel = committer.borrow().channel().clone();
        let mut channels = BTreeMap::new();
        channels.insert(
            channel,
            PeerChannel::new(committer, CATCHUP_TIMER_BASE, &metric_prefix),
        );
        let retry_salt = salt_of(&metric_prefix);
        PeerActor {
            identity,
            registry,
            channels,
            costs,
            subscribers: BTreeMap::new(),
            harness: ServiceHarness::new(metric_prefix.clone()),
            metric_prefix,
            pipeline: CommitPipeline::default(),
            sig_cache: None,
            snapshots: None,
            retry_salt,
        }
    }

    /// Joins the peer to another channel (keyed by the committer's
    /// channel), with an optional catch-up target for crash recovery.
    pub fn add_channel(&mut self, committer: Rc<RefCell<Committer>>, catchup: Option<ActorId>) {
        let channel = committer.borrow().channel().clone();
        let token = CATCHUP_TIMER_BASE + self.channels.len() as u64;
        let mut state = PeerChannel::new(committer, token, &self.metric_prefix);
        state.catchup_target = catchup;
        state.read_cache = self.pipeline.read_cache.then(ReadCache::new);
        self.channels.insert(channel, state);
    }

    /// Installs a snapshot policy: cut a Merkle-rooted snapshot every
    /// `policy.interval` blocks on every hosted channel, prune the block
    /// store behind it (when enabled), and recover from the latest
    /// snapshot plus a delta replay — instead of a full genesis replay —
    /// after a crash.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// Registers the peers that can serve snapshots and block re-delivery
    /// for `channel` — the catch-up protocol's provider ladder, tried in
    /// order.
    pub fn set_snapshot_providers(&mut self, channel: &ChannelId, providers: Vec<ActorId>) {
        if let Some(state) = self.channels.get_mut(channel) {
            state.snapshot_providers = providers;
        }
    }

    /// Configures the commit-path acceleration (VSCC lanes + caches) for
    /// this peer, applying cache settings to every channel hosted so far
    /// and to channels added later.
    pub fn with_pipeline(mut self, pipeline: CommitPipeline) -> Self {
        self.pipeline = pipeline;
        self.sig_cache = pipeline.sig_cache.then(SigVerifyCache::new);
        for state in self.channels.values_mut() {
            state.read_cache = pipeline.read_cache.then(ReadCache::new);
        }
        self
    }

    /// Bounds this peer's admission queue (proposals only; block delivery
    /// always proceeds, since falling behind the ledger helps nobody).
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.harness.set_queue(config);
        self
    }

    /// Sets the node this peer asks to re-deliver blocks missed while
    /// crashed (normally the ordering service), on every channel hosted so
    /// far. Without a target the peer still recovers its ledger on restart
    /// but waits for the next live delivery to notice any gap.
    pub fn with_catchup_target(mut self, target: ActorId) -> Self {
        for state in self.channels.values_mut() {
            state.catchup_target = Some(target);
        }
        self
    }

    /// Subscribes a client to the commit events of its own transactions,
    /// keyed by the enrolment id of the certificate it submits with —
    /// the paper's client waits for the commit event of *its*
    /// transaction at its peer, and gateway-side filtering keeps the
    /// messages per committed transaction independent of how many
    /// clients share the peer. Events of other creators are not sent;
    /// an event without a creator (the envelope failed to decode) goes
    /// to every subscriber, so its submitter still learns the verdict.
    pub fn subscribe(&mut self, client: ActorId, cert: CertId) {
        self.subscribers.insert(cert, client);
    }

    /// Shared handle to this peer's first channel's ledger (tests and
    /// audits; single-channel deployments have exactly one).
    pub fn committer(&self) -> Rc<RefCell<Committer>> {
        self.channels
            .values()
            .next()
            .expect("a peer always hosts at least one channel")
            .committer
            .clone()
    }

    /// Shared handle to one channel's ledger, if hosted.
    pub fn committer_for(&self, channel: &ChannelId) -> Option<Rc<RefCell<Committer>>> {
        self.channels.get(channel).map(|s| s.committer.clone())
    }

    /// The channels this peer hosts.
    pub fn hosted_channels(&self) -> Vec<ChannelId> {
        self.channels.keys().cloned().collect()
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

    fn on_block(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        block: Arc<Block>,
    ) {
        let Some(state) = self.channels.get(&channel) else {
            return; // not hosting this channel
        };
        let next = state.committer.borrow().height();
        if block.header.number < next {
            return; // duplicate delivery (multi-orderer dissemination)
        }
        self.channels
            .get_mut(&channel)
            .expect("checked above")
            .block_buffer
            .insert(block.header.number, block);
        // Commit every consecutive block now available.
        let committed = self.drain_ready(ctx, &channel);
        if committed > 0 {
            self.maybe_cut_snapshot(ctx, &channel);
        }
        // Gap detected (a future block is buffered but the next expected
        // one is missing): ask the sender to re-deliver — Fabric's deliver
        // service, which is how a peer catches up after a partition heals.
        let mut request = None;
        let mut arm = false;
        let mut disarm = false;
        {
            let state = self.channels.get_mut(&channel).expect("checked above");
            let height = state.committer.borrow().height();
            if state.retry_goal.is_some_and(|goal| height > goal) {
                state.retry_goal = None;
            }
            if !state.block_buffer.is_empty() {
                if state.catchup_from != Some(height) {
                    state.catchup_from = Some(height);
                    request = Some(FabricMsg::DeliverRequest {
                        channel: channel.clone(),
                        from: height,
                    });
                    // Arm a retry: the request itself can be lost (the
                    // repeat guard above would then stall catch-up until
                    // the next unrelated delivery).
                    arm = true;
                }
            } else {
                state.catchup_from = None;
                if matches!(state.fetch, FetchState::Idle) && state.retry_goal.is_none() {
                    disarm = true;
                }
            }
        }
        if let Some(msg) = request {
            ctx.metrics().incr(
                &channel.metric_name(&self.metric_prefix, "catchup_requests"),
                1,
            );
            let bytes = msg.wire_size();
            ctx.send(src, bytes, M::wrap(msg));
        }
        if arm {
            self.arm_retry(ctx, &channel);
        }
        if disarm {
            self.disarm_retry(ctx, &channel);
        }
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
    /// proportion to the state size; pruning then drops the block store
    /// behind the new snapshot's height, bounding disk growth.
    fn maybe_cut_snapshot(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        let Some(policy) = self.snapshots else {
            return;
        };
        let Some(state) = self.channels.get_mut(channel) else {
            return;
        };
        let height = state.committer.borrow().height();
        let last = state
            .latest_snapshot
            .as_ref()
            .map_or(0, |s| s.manifest.height);
        if height < last.saturating_add(policy.interval.max(1)) {
            return;
        }
        let snapshot = state.committer.borrow().snapshot(policy.chunk_entries);
        let cost = self
            .costs
            .snapshot_capture_cost(snapshot.entry_count() as u64, snapshot.state_bytes());
        state.latest_snapshot = Some(Arc::new(snapshot));
        let pruned = if policy.prune {
            state.committer.borrow_mut().prune_store_to(height)
        } else {
            0
        };
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

    /// (Re-)arms this channel's catch-up retry timer with exponential
    /// backoff (see [`retry_delay`]).
    fn arm_retry(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        let salt = self.retry_salt;
        let Some(state) = self.channels.get_mut(channel) else {
            return;
        };
        if let Some(timer) = state.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
        let delay = retry_delay(salt, state.retry_attempts);
        state.retry_timer = Some(ctx.set_timer(delay, state.timer_token));
    }

    /// Cancels this channel's retry timer and clears the retry state.
    fn disarm_retry(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        let Some(state) = self.channels.get_mut(channel) else {
            return;
        };
        if let Some(timer) = state.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
        state.retry_attempts = 0;
        state.retry_goal = None;
    }

    /// Handles an unclaimed timer token: one of the per-channel catch-up
    /// retry timers. Re-drives whatever is outstanding (block re-delivery
    /// or a snapshot fetch) with exponential backoff, escalating a stalled
    /// block catch-up to a snapshot fetch once providers are configured.
    /// This closes the liveness hole where a lost `DeliverRequest` left
    /// the repeat guard set forever.
    fn on_retry_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) {
        let Some(channel) = self
            .channels
            .iter()
            .find(|(_, s)| s.timer_token == token)
            .map(|(c, _)| c.clone())
        else {
            return;
        };
        let (attempts, fetch_active) = {
            let state = self.channels.get_mut(&channel).expect("found above");
            state.retry_timer = None;
            let height = state.committer.borrow().height();
            let fetch_active = !matches!(state.fetch, FetchState::Idle);
            let goal_stuck = state.retry_goal.is_some_and(|goal| height <= goal);
            if !fetch_active && state.catchup_from.is_none() && !goal_stuck {
                // Progress happened since the timer was armed: done.
                state.retry_attempts = 0;
                state.retry_goal = None;
                return;
            }
            if !fetch_active
                && state.block_buffer.is_empty()
                && state.catchup_from.is_none()
                && state.retry_attempts >= CATCHUP_GIVE_UP
            {
                // Goal-only catch-up (nothing demonstrably missing) has
                // been retried enough: stop; a real gap re-arms it.
                state.retry_attempts = 0;
                state.retry_goal = None;
                return;
            }
            state.retry_attempts += 1;
            (state.retry_attempts, fetch_active)
        };
        ctx.metrics().incr(
            &channel.metric_name(&self.metric_prefix, "catchup_retries"),
            1,
        );
        if fetch_active {
            self.retry_fetch(ctx, &channel);
            return;
        }
        let escalate = {
            let state = self.channels.get(&channel).expect("found above");
            attempts > CATCHUP_ESCALATE_AFTER && !state.snapshot_providers.is_empty()
        };
        if escalate {
            self.begin_fetch(ctx, &channel, 0);
            return;
        }
        // Resend the deliver request to the catch-up target.
        let request = {
            let state = self.channels.get_mut(&channel).expect("found above");
            let height = state.committer.borrow().height();
            state.catchup_from = Some(height);
            if state.retry_goal.is_some() {
                state.retry_goal = Some(height);
            }
            state.catchup_target.map(|target| {
                (
                    target,
                    FabricMsg::DeliverRequest {
                        channel: channel.clone(),
                        from: height,
                    },
                )
            })
        };
        match request {
            Some((target, msg)) => {
                let bytes = msg.wire_size();
                ctx.send(target, bytes, M::wrap(msg));
                self.arm_retry(ctx, &channel);
            }
            // No target to retry against: stop; the next live delivery
            // will re-detect the gap and re-request from its sender.
            None => self.disarm_retry(ctx, &channel),
        }
    }

    /// Starts (or restarts) the snapshot catch-up protocol against the
    /// provider at ladder index `provider_idx`; past the end of the
    /// ladder, falls back to plain block re-delivery from the catch-up
    /// target.
    fn begin_fetch(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId, provider_idx: usize) {
        let step = {
            let Some(state) = self.channels.get_mut(channel) else {
                return;
            };
            match state.snapshot_providers.get(provider_idx).copied() {
                Some(provider) => {
                    state.fetch = FetchState::AwaitOffer {
                        provider: provider_idx,
                    };
                    Ok(provider)
                }
                None => {
                    state.fetch = FetchState::Idle;
                    let height = state.committer.borrow().height();
                    state.catchup_from = Some(height);
                    Err(state.catchup_target.map(|t| (t, height)))
                }
            }
        };
        match step {
            Ok(provider) => {
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "snapshot_fetches"),
                    1,
                );
                let msg = FabricMsg::SnapshotRequest {
                    channel: channel.clone(),
                };
                let bytes = msg.wire_size();
                ctx.send(provider, bytes, M::wrap(msg));
            }
            Err(fallback) => {
                // Ladder exhausted: fall back to block re-delivery (at
                // worst a replay from the orderer's retained tail).
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "catchup_fallbacks"),
                    1,
                );
                if let Some((target, height)) = fallback {
                    let msg = FabricMsg::DeliverRequest {
                        channel: channel.clone(),
                        from: height,
                    };
                    let bytes = msg.wire_size();
                    ctx.send(target, bytes, M::wrap(msg));
                }
            }
        }
        self.arm_retry(ctx, channel);
    }

    /// Re-drives a stalled snapshot fetch: an unanswered manifest request
    /// (or a part download stalled for too long) moves to the next
    /// provider; an ordinary part stall re-requests the first missing part
    /// from the same provider.
    fn retry_fetch(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        enum Step {
            Nothing,
            Advance(usize),
            Request(ActorId, u64, u32),
        }
        let step = {
            let Some(state) = self.channels.get_mut(channel) else {
                return;
            };
            let attempts = state.retry_attempts;
            match &state.fetch {
                FetchState::Idle => Step::Nothing,
                FetchState::AwaitOffer { provider } => Step::Advance(provider + 1),
                FetchState::Parts {
                    provider,
                    manifest,
                    parts,
                } => {
                    let next_missing = parts.iter().position(Option::is_none);
                    let provider_id = state.snapshot_providers.get(*provider).copied();
                    match (provider_id, next_missing) {
                        _ if attempts > 2 * CATCHUP_ESCALATE_AFTER => Step::Advance(provider + 1),
                        (Some(id), Some(index)) => Step::Request(id, manifest.height, index as u32),
                        _ => Step::Advance(provider + 1),
                    }
                }
            }
        };
        match step {
            Step::Nothing => {}
            Step::Advance(next) => self.begin_fetch(ctx, channel, next),
            Step::Request(provider, height, index) => {
                let msg = FabricMsg::SnapshotPartRequest {
                    channel: channel.clone(),
                    height,
                    index,
                };
                let bytes = msg.wire_size();
                ctx.send(provider, bytes, M::wrap(msg));
                self.arm_retry(ctx, channel);
            }
        }
    }

    /// Serves the catch-up protocol's opening request: reply with the
    /// latest snapshot's manifest, or `None` (sending the requester to its
    /// next provider).
    fn on_snapshot_request(&mut self, ctx: &mut Context<'_, M>, src: ActorId, channel: ChannelId) {
        let manifest = self
            .channels
            .get(&channel)
            .and_then(|s| s.latest_snapshot.as_ref())
            .map(|s| Box::new(s.manifest.clone()));
        ctx.metrics().incr(
            &channel.metric_name(&self.metric_prefix, "snapshot_requests"),
            1,
        );
        let msg = FabricMsg::SnapshotOffer { channel, manifest };
        let bytes = msg.wire_size();
        let cost = self.costs.cache_hit_op;
        self.harness
            .defer(ctx, cost, vec![(src, bytes, M::wrap(msg))], vec![]);
    }

    /// Handles a provider's manifest offer. Only a snapshot strictly ahead
    /// of the local chain helps; anything else advances the ladder, since
    /// block re-delivery is then the cheaper path.
    fn on_snapshot_offer(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        manifest: Option<Box<SnapshotManifest>>,
    ) {
        let accepted = {
            let Some(state) = self.channels.get_mut(&channel) else {
                return;
            };
            let FetchState::AwaitOffer { provider } = &state.fetch else {
                return; // stale or duplicate offer
            };
            let provider = *provider;
            let height = state.committer.borrow().height();
            match manifest {
                Some(m) if m.height > height => {
                    let parts = vec![None; m.part_count()];
                    let snap_height = m.height;
                    state.fetch = FetchState::Parts {
                        provider,
                        manifest: m,
                        parts,
                    };
                    state.retry_attempts = 0;
                    Ok(snap_height)
                }
                _ => Err(provider + 1),
            }
        };
        match accepted {
            Ok(height) => {
                let msg = FabricMsg::SnapshotPartRequest {
                    channel: channel.clone(),
                    height,
                    index: 0,
                };
                let bytes = msg.wire_size();
                ctx.send(src, bytes, M::wrap(msg));
                self.arm_retry(ctx, &channel);
            }
            Err(next) => self.begin_fetch(ctx, &channel, next),
        }
    }

    /// Serves one snapshot part (state chunk or tail), charging transfer
    /// I/O; replies `None` when the requested snapshot is gone
    /// (superseded by a newer one), which advances the requester's ladder.
    fn on_part_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        height: u64,
        index: u32,
    ) {
        let part = self
            .channels
            .get(&channel)
            .and_then(|s| s.latest_snapshot.as_ref())
            .filter(|s| s.manifest.height == height)
            .and_then(|s| s.part(index as usize))
            .map(Arc::new);
        let cost = part.as_ref().map_or(self.costs.cache_hit_op, |p| {
            self.costs.snapshot_transfer_cost(p.wire_size() as u64)
        });
        let msg = FabricMsg::SnapshotPartData {
            channel,
            height,
            index,
            part,
        };
        let bytes = msg.wire_size();
        self.harness
            .defer(ctx, cost, vec![(src, bytes, M::wrap(msg))], vec![]);
    }

    /// Ingests one fetched snapshot part: verify its digest against the
    /// manifest (corrupt transfers are re-requested), store it, and either
    /// request the next missing part or assemble and boot the snapshot.
    fn on_part_data(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        height: u64,
        index: u32,
        part: Option<Arc<SnapshotPart>>,
    ) {
        enum Step {
            Ignore,
            ProviderGone(usize),
            Corrupt,
            RequestNext(u32, u64),
            Complete(u64),
        }
        let step = {
            let Some(state) = self.channels.get_mut(&channel) else {
                return;
            };
            let FetchState::Parts {
                provider,
                manifest,
                parts,
            } = &mut state.fetch
            else {
                return; // no fetch in progress (stale delivery)
            };
            if manifest.height != height {
                Step::Ignore
            } else {
                match part {
                    None => Step::ProviderGone(*provider + 1),
                    Some(part) => {
                        let idx = index as usize;
                        if idx >= parts.len() {
                            Step::Ignore
                        } else if part.digest() != manifest.part_digests[idx] {
                            Step::Corrupt
                        } else {
                            let bytes = part.wire_size() as u64;
                            if parts[idx].is_none() {
                                parts[idx] = Some(Arc::unwrap_or_clone(part));
                            }
                            match parts.iter().position(Option::is_none) {
                                Some(next) => Step::RequestNext(next as u32, bytes),
                                None => Step::Complete(bytes),
                            }
                        }
                    }
                }
            }
        };
        match step {
            Step::Ignore => {}
            Step::ProviderGone(next) => self.begin_fetch(ctx, &channel, next),
            Step::Corrupt => {
                // Transfer corruption: count it and re-request the part.
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "snapshot_corrupt_parts"),
                    1,
                );
                let msg = FabricMsg::SnapshotPartRequest {
                    channel: channel.clone(),
                    height,
                    index,
                };
                let bytes = msg.wire_size();
                ctx.send(src, bytes, M::wrap(msg));
                self.arm_retry(ctx, &channel);
            }
            Step::RequestNext(next, bytes) => {
                // Ingest cost: the digest check over the received bytes.
                self.harness
                    .charge(ctx, self.costs.snapshot_transfer_cost(bytes));
                let msg = FabricMsg::SnapshotPartRequest {
                    channel: channel.clone(),
                    height,
                    index: next,
                };
                let b = msg.wire_size();
                ctx.send(src, b, M::wrap(msg));
                self.arm_retry(ctx, &channel);
            }
            Step::Complete(bytes) => {
                self.harness
                    .charge(ctx, self.costs.snapshot_transfer_cost(bytes));
                self.finish_fetch(ctx, &channel);
            }
        }
    }

    /// All parts received: assemble, verify and bootstrap the committer
    /// from the fetched snapshot, then drain buffered live blocks and
    /// request the remaining delta from the catch-up target.
    fn finish_fetch(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId) {
        let (manifest, parts, provider) = {
            let Some(state) = self.channels.get_mut(channel) else {
                return;
            };
            match std::mem::replace(&mut state.fetch, FetchState::Idle) {
                FetchState::Parts {
                    provider,
                    manifest,
                    parts,
                } => (manifest, parts, provider),
                other => {
                    state.fetch = other;
                    return;
                }
            }
        };
        let snapshot = match Snapshot::assemble(*manifest, parts) {
            Ok(snapshot) => snapshot,
            Err(_) => {
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "snapshot_assemble_errors"),
                    1,
                );
                self.begin_fetch(ctx, channel, provider + 1);
                return;
            }
        };
        let rebuilt = {
            let Some(state) = self.channels.get(channel) else {
                return;
            };
            state.committer.borrow().recover_from_snapshot(&snapshot)
        };
        match rebuilt {
            Ok(rebuilt) => {
                let cost = self
                    .costs
                    .snapshot_restore_cost(snapshot.entry_count() as u64, snapshot.state_bytes());
                let snap_height = snapshot.manifest.height;
                {
                    let state = self.channels.get_mut(channel).expect("checked above");
                    *state.committer.borrow_mut() = rebuilt;
                    state.latest_snapshot = Some(Arc::new(snapshot));
                    state.retry_attempts = 0;
                }
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "snapshot_boots"),
                    1,
                );
                ctx.metrics().set_gauge(
                    &channel.metric_name(&self.metric_prefix, "snapshots.height"),
                    snap_height as f64,
                );
                self.harness.charge(ctx, cost);
                // Blocks that arrived live during the fetch may now be
                // directly above the snapshot: commit them.
                let committed = self.drain_ready(ctx, channel);
                if committed > 0 {
                    self.maybe_cut_snapshot(ctx, channel);
                }
                // Ask the catch-up target for the remaining delta.
                let request = {
                    let state = self.channels.get_mut(channel).expect("checked above");
                    let from = state.committer.borrow().height();
                    state.catchup_from = Some(from);
                    state.retry_goal = Some(from);
                    state.catchup_target.map(|target| {
                        (
                            target,
                            FabricMsg::DeliverRequest {
                                channel: channel.clone(),
                                from,
                            },
                        )
                    })
                };
                if let Some((target, msg)) = request {
                    ctx.metrics().incr(
                        &channel.metric_name(&self.metric_prefix, "catchup_requests"),
                        1,
                    );
                    let bytes = msg.wire_size();
                    ctx.send(target, bytes, M::wrap(msg));
                    self.arm_retry(ctx, channel);
                } else {
                    self.disarm_retry(ctx, channel);
                }
            }
            Err(_) => {
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "snapshot_boot_errors"),
                    1,
                );
                self.begin_fetch(ctx, channel, provider + 1);
            }
        }
    }

    /// Elastic membership: the deployment tells this (freshly added) peer
    /// to catch up on `channel` — via the snapshot protocol when a
    /// provider ladder is configured, else via block re-delivery from the
    /// catch-up target.
    fn on_join(&mut self, ctx: &mut Context<'_, M>, channel: ChannelId) {
        let Some(state) = self.channels.get(&channel) else {
            return;
        };
        let use_fetch = !state.snapshot_providers.is_empty();
        ctx.metrics()
            .incr(&channel.metric_name(&self.metric_prefix, "joins"), 1);
        if use_fetch {
            self.begin_fetch(ctx, &channel, 0);
            return;
        }
        let request = {
            let state = self.channels.get_mut(&channel).expect("checked above");
            let from = state.committer.borrow().height();
            state.catchup_from = Some(from);
            state.retry_goal = Some(from);
            state.catchup_target.map(|target| {
                (
                    target,
                    FabricMsg::DeliverRequest {
                        channel: channel.clone(),
                        from,
                    },
                )
            })
        };
        if let Some((target, msg)) = request {
            ctx.metrics().incr(
                &channel.metric_name(&self.metric_prefix, "catchup_requests"),
                1,
            );
            let bytes = msg.wire_size();
            ctx.send(target, bytes, M::wrap(msg));
        }
        self.arm_retry(ctx, &channel);
    }

    /// Serves the deliver (re-delivery) service from this peer's own block
    /// store, making peers usable as catch-up providers. Requests below
    /// the pruned horizon cannot be served contiguously (the snapshot
    /// protocol covers that range); requests at or above it ship up to
    /// [`MAX_DELIVER_BLOCKS`] blocks.
    fn on_deliver_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        from: u64,
    ) {
        let Some(state) = self.channels.get(&channel) else {
            return;
        };
        ctx.metrics().incr(
            &channel.metric_name(&self.metric_prefix, "deliver_requests"),
            1,
        );
        let committer = state.committer.borrow();
        let store = committer.store();
        if from < store.base_height() {
            drop(committer);
            ctx.metrics().incr(
                &channel.metric_name(&self.metric_prefix, "deliver_pruned"),
                1,
            );
            return;
        }
        let to = store.height().min(from.saturating_add(MAX_DELIVER_BLOCKS));
        let mut sends = Vec::new();
        let mut cost = SimDuration::ZERO;
        for number in from..to {
            if let Some(block) = store.block(number) {
                let bytes = block.wire_size();
                cost += self.costs.snapshot_transfer_cost(bytes);
                sends.push((
                    src,
                    bytes,
                    M::wrap(FabricMsg::DeliverBlock(
                        channel.clone(),
                        Arc::new(block.clone()),
                    )),
                ));
            }
        }
        drop(committer);
        if !sends.is_empty() {
            self.harness.defer(ctx, cost, sends, vec![]);
        }
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

    /// Builds the commit-notification sends for a block's events: one
    /// message to the creator's client when it subscribed here, none for
    /// other creators, and one per subscriber (in certificate order) for
    /// an event that names no creator.
    fn commit_event_sends(&self, events: Vec<CommitEvent>) -> Vec<Outbound<M>> {
        let mut sends = Vec::new();
        for event in events {
            match &event.creator {
                Some(creator) => {
                    if let Some(&client) = self.subscribers.get(creator) {
                        sends.push((client, 128, M::wrap(FabricMsg::Commit(event))));
                    }
                }
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
                    let wrapped = M::wrap(FabricMsg::SubmitProposal(sp));
                    match self.harness.admit(ctx, src, wrapped) {
                        Admission::Admit(msg) => {
                            if let Ok(FabricMsg::SubmitProposal(sp)) = msg.peel() {
                                self.on_proposal(ctx, src, sp);
                            }
                        }
                        Admission::Nack(msg) => {
                            if let Ok(FabricMsg::SubmitProposal(sp)) = msg.peel() {
                                self.nack_proposal(ctx, src, &sp);
                            }
                        }
                        Admission::Done => {}
                    }
                }
                Ok(FabricMsg::DeliverBlock(channel, block)) => {
                    self.on_block(ctx, src, channel, block)
                }
                Ok(FabricMsg::DeliverRequest { channel, from }) => {
                    self.on_deliver_request(ctx, src, channel, from)
                }
                Ok(FabricMsg::SnapshotRequest { channel }) => {
                    self.on_snapshot_request(ctx, src, channel)
                }
                Ok(FabricMsg::SnapshotOffer { channel, manifest }) => {
                    self.on_snapshot_offer(ctx, src, channel, manifest)
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
                }) => self.on_part_data(ctx, src, channel, height, index, part),
                Ok(FabricMsg::JoinChannel { channel }) => self.on_join(ctx, channel),
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
        // Volatile state is gone: buffered out-of-order blocks, the
        // outstanding catch-up markers, deferred jobs, admitted requests,
        // and the in-memory verification caches.
        self.harness.reset();
        self.sig_cache = self.pipeline.sig_cache.then(SigVerifyCache::new);
        let mut replay_cost = SimDuration::ZERO;
        let mut replayed_blocks = 0u64;
        let mut snapshot_boots = 0u64;
        let mut catchups = Vec::new();
        let read_cache_enabled = self.pipeline.read_cache;
        for (channel, state) in &mut self.channels {
            state.block_buffer.clear();
            state.catchup_from = None;
            state.read_cache = read_cache_enabled.then(ReadCache::new);
            // The crash also dropped every pending timer and any
            // half-finished snapshot fetch.
            state.fetch = FetchState::Idle;
            state.retry_timer = None;
            state.retry_attempts = 0;
            state.retry_goal = None;
            // Fast path: restore the latest durable snapshot and replay
            // only the delta blocks above it — work independent of total
            // chain length.
            let mut recovered = false;
            if let Some(snapshot) = state.latest_snapshot.clone() {
                // Bind before matching: the scrutinee's shared borrow
                // must end before the rebuilt ledger is swapped in.
                let booted = state.committer.borrow().recover_from_snapshot(&snapshot);
                match booted {
                    Ok(rebuilt) => {
                        replay_cost += self.costs.snapshot_restore_cost(
                            snapshot.entry_count() as u64,
                            snapshot.state_bytes(),
                        );
                        for block in rebuilt.store().iter() {
                            replay_cost += self.costs.block_cost(block.wire_size());
                            replayed_blocks += 1;
                        }
                        *state.committer.borrow_mut() = rebuilt;
                        ctx.metrics().incr(
                            &channel.metric_name(&self.metric_prefix, "snapshot_boots"),
                            1,
                        );
                        snapshot_boots += 1;
                        recovered = true;
                    }
                    Err(_) => {
                        ctx.metrics().incr(
                            &channel.metric_name(&self.metric_prefix, "snapshot_boot_errors"),
                            1,
                        );
                    }
                }
            }
            if !recovered {
                // Rebuild world state by re-validating the durable block
                // store; the replay keeps the virtual CPU busy, so
                // requests arriving during recovery queue behind it.
                let genesis = state.committer.borrow().recover();
                match genesis {
                    Ok(rebuilt) => {
                        for block in rebuilt.store().iter() {
                            replay_cost += self.costs.block_cost(block.wire_size());
                            replayed_blocks += 1;
                        }
                        *state.committer.borrow_mut() = rebuilt;
                    }
                    Err(_) => {
                        ctx.metrics().incr(
                            &channel.metric_name(&self.metric_prefix, "recover_errors"),
                            1,
                        );
                    }
                }
            }
            // Catch up on whatever the orderer cut while this peer was
            // down.
            if let Some(target) = state.catchup_target {
                let from = state.committer.borrow().height();
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "catchup_requests"),
                    1,
                );
                state.retry_goal = Some(from);
                catchups.push((
                    target,
                    FabricMsg::DeliverRequest {
                        channel: channel.clone(),
                        from,
                    },
                ));
            }
        }
        if replay_cost > SimDuration::ZERO {
            self.harness.charge(ctx, replay_cost);
        }
        ctx.metrics()
            .incr(&format!("{}.recoveries", self.metric_prefix), 1);
        for (gauge, value) in [
            ("cost_ms", replay_cost.as_nanos() as f64 / 1e6),
            ("replayed_blocks", replayed_blocks as f64),
            ("snapshot_boots", snapshot_boots as f64),
        ] {
            ctx.metrics()
                .set_gauge(&format!("{}.recovery.{gauge}", self.metric_prefix), value);
        }
        for (target, msg) in catchups {
            let bytes = msg.wire_size();
            ctx.send(target, bytes, M::wrap(msg));
        }
        // Arm the catch-up retry: the request just sent may itself be lost
        // (e.g. restarting inside a partition), and without a timer the
        // repeat guard would stall catch-up until an unrelated delivery.
        let goals: Vec<ChannelId> = self
            .channels
            .iter()
            .filter(|(_, s)| s.retry_goal.is_some())
            .map(|(c, _)| c.clone())
            .collect();
        for channel in goals {
            self.arm_retry(ctx, &channel);
        }
    }
}

/// Timer token used by orderers for the batch timeout.
const BATCH_TIMER: u64 = 1;
/// Timer token used by raft orderers for consensus ticks.
const RAFT_TICK: u64 = 2;

/// A single-node ("solo") ordering service for one channel, as used by
/// the paper's setup. A multi-channel deployment runs one ordering
/// pipeline (solo or raft) per channel.
pub struct SoloOrdererActor<M> {
    channel: ChannelId,
    cutter: BlockCutter,
    assembler: BlockAssembler,
    peers: Vec<ActorId>,
    costs: CostModel,
    batch_timer: Option<TimerId>,
    /// Recently cut blocks, retained for the deliver (catch-up) service.
    retained: std::collections::VecDeque<Arc<Block>>,
    retain_limit: usize,
    harness: ServiceHarness<M>,
}

impl<M: Carries<FabricMsg>> SoloOrdererActor<M> {
    /// Creates a solo orderer for the default channel delivering blocks to
    /// `peers`.
    pub fn new(config: BatchConfig, peers: Vec<ActorId>, costs: CostModel) -> Self {
        SoloOrdererActor::for_channel(ChannelId::default(), config, peers, costs)
    }

    /// Creates a solo orderer for a named channel. Metrics and queue
    /// gauges are namespaced by channel unless it is the default one.
    pub fn for_channel(
        channel: ChannelId,
        config: BatchConfig,
        peers: Vec<ActorId>,
        costs: CostModel,
    ) -> Self {
        let harness_name = if channel.is_default() {
            "orderer".to_owned()
        } else {
            format!("orderer.{channel}")
        };
        SoloOrdererActor {
            channel,
            cutter: BlockCutter::new(config),
            assembler: BlockAssembler::new(),
            peers,
            costs,
            batch_timer: None,
            retained: std::collections::VecDeque::new(),
            retain_limit: 64,
            harness: ServiceHarness::new(harness_name),
        }
    }

    fn metric(&self, suffix: &str) -> String {
        self.channel.metric_name("orderer", suffix)
    }

    /// Bounds this orderer's admission queue (broadcasts only). A
    /// broadcast's queue slot frees when its transaction leaves the cutter
    /// in a cut batch. Under `Nack` the rejected broadcast is dropped with
    /// an `orderer.nacked` count — the broadcast path has no reply
    /// channel, so clients observe the loss as a commit timeout.
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.harness.set_queue(config);
        self
    }

    fn retain(&mut self, block: &Arc<Block>) {
        self.retained.push_back(Arc::clone(block));
        while self.retained.len() > self.retain_limit {
            self.retained.pop_front();
        }
    }

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
            let block = Arc::new(self.assembler.assemble(batch));
            ctx.metrics().incr(&self.metric("blocks_cut"), 1);
            let trace = self
                .channel
                .trace_name(&format!("block-{}", block.header.number));
            for raw in block.envelopes.iter() {
                // The tx has left the cutter's pending queue.
                ctx.span_end(&tx_trace(&raw.tx_id), "order.queue", "");
                self.harness.request_done(ctx);
            }
            ctx.trace_event(
                &trace,
                "block.cut",
                &format!("txs={}", block.envelopes.len()),
            );
            // Block assembly + dissemination, closed at CPU finish.
            ctx.span_start(&trace, "order.deliver", "");
            closes.push(SpanClose::new(trace, "order.deliver", String::new()));
            self.retain(&block);
            let bytes = block.wire_size();
            for &peer in &self.peers {
                sends.push((
                    peer,
                    bytes,
                    M::wrap(FabricMsg::DeliverBlock(
                        self.channel.clone(),
                        Arc::clone(&block),
                    )),
                ));
            }
        }
        self.harness.defer(ctx, cost, sends, closes);
    }

    fn on_broadcast(&mut self, ctx: &mut Context<'_, M>, env: Envelope) {
        let raw = env.to_raw();
        let cost = self.costs.order_cost(raw.bytes.len() as u64);
        ctx.metrics().incr(&self.metric("broadcasts"), 1);
        // Time the tx spends waiting for its batch to cut.
        ctx.span_start(&tx_trace(&raw.tx_id), "order.queue", "");
        let out = self.cutter.offer(raw);
        // Timer follows pending state: cancel (batch cut) or arm.
        if !out.batches.is_empty() {
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        let needed = out.timer_needed;
        self.deliver_batches(ctx, out.batches, cost);
        self.rearm_timer(ctx, needed);
    }

    fn rearm_timer(&mut self, ctx: &mut Context<'_, M>, needed: bool) {
        match (needed, self.batch_timer) {
            (true, None) => {
                let timeout = self.cutter.config().timeout;
                self.batch_timer = Some(ctx.set_timer(timeout, BATCH_TIMER));
            }
            (false, Some(t)) => {
                ctx.cancel_timer(t);
                self.batch_timer = None;
            }
            _ => {}
        }
    }
}

impl<M: Carries<FabricMsg>> Actor<M> for SoloOrdererActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        match event {
            Event::Message { src, msg } => match msg.peel() {
                Ok(FabricMsg::Broadcast(env)) => {
                    let wrapped = M::wrap(FabricMsg::Broadcast(env));
                    match self.harness.admit(ctx, src, wrapped) {
                        Admission::Admit(msg) => {
                            if let Ok(FabricMsg::Broadcast(env)) = msg.peel() {
                                self.on_broadcast(ctx, env);
                            }
                        }
                        Admission::Nack(_) => {
                            let name = self.metric("nacked");
                            ctx.metrics().incr(&name, 1);
                        }
                        Admission::Done => {}
                    }
                }
                Ok(FabricMsg::DeliverRequest { channel, from }) => {
                    if channel != self.channel {
                        return; // another channel's ordering service
                    }
                    let name = self.metric("deliver_requests");
                    ctx.metrics().incr(&name, 1);
                    for block in self.retained.iter() {
                        if block.header.number >= from {
                            let bytes = block.wire_size();
                            ctx.send(
                                src,
                                bytes,
                                M::wrap(FabricMsg::DeliverBlock(
                                    self.channel.clone(),
                                    block.clone(),
                                )),
                            );
                        }
                    }
                }
                Ok(FabricMsg::DeliverSubscribe { channel, peer }) => {
                    if channel != self.channel {
                        return; // another channel's ordering service
                    }
                    if !self.peers.contains(&peer) {
                        self.peers.push(peer);
                        let name = self.metric("subscriptions");
                        ctx.metrics().incr(&name, 1);
                    }
                }
                Ok(_) | Err(_) => {}
            },
            Event::Timer { token: BATCH_TIMER } => {
                self.batch_timer = None;
                if let Some(batch) = self.cutter.cut() {
                    let name = self.metric("timeout_cuts");
                    ctx.metrics().incr(&name, 1);
                    let cost = self.costs.block_base;
                    self.deliver_batches(ctx, vec![batch], cost);
                }
            }
            Event::Timer { token } => {
                let _ = self.harness.on_timer(ctx, token);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        // The assembled chain (`assembler`, `retained`) models the
        // orderer's durable ledger and survives; transactions pending in
        // the cutter are volatile and are lost — their clients observe a
        // commit timeout and retry with fresh tx ids.
        let config = *self.cutter.config();
        self.cutter = BlockCutter::new(config);
        self.batch_timer = None;
        self.harness.reset();
        let name = self.metric("recoveries");
        ctx.metrics().incr(&name, 1);
    }
}

/// A Raft-replicated ordering node. Run one actor per cluster member; each
/// member that applies a committed batch delivers the resulting block to
/// all peers (peers deduplicate by height).
pub struct RaftOrdererActor<M> {
    channel: ChannelId,
    raft: RaftNode<Vec<RawEnvelope>>,
    /// This member's cluster index, used as span detail so the per-member
    /// `order.deliver` spans of one block do not collide.
    index: usize,
    cutter: BlockCutter,
    assembler: BlockAssembler,
    /// Actor ids of the raft cluster, indexed by raft peer index.
    cluster: Vec<ActorId>,
    peers: Vec<ActorId>,
    costs: CostModel,
    tick: SimDuration,
    batch_timer: Option<TimerId>,
    /// Recently applied blocks, retained for the deliver service.
    retained: std::collections::VecDeque<Arc<Block>>,
    retain_limit: usize,
    /// Transactions this member admitted (and opened `order.queue` spans
    /// for) that have not yet applied. Span closes and admission-slot
    /// releases follow this set, not current leadership: an entry
    /// admitted here may commit under a later leader, and gating on
    /// `is_leader()` at apply time would close the span at the wrong
    /// member (or twice) whenever leadership moved in between.
    admitted: std::collections::BTreeSet<TxId>,
    harness: ServiceHarness<M>,
}

impl<M: Carries<FabricMsg>> RaftOrdererActor<M> {
    /// Creates raft orderer `index` of `cluster.len()` members.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        cluster: Vec<ActorId>,
        peers: Vec<ActorId>,
        batch: BatchConfig,
        raft_config: RaftConfig,
        tick: SimDuration,
        seed: u64,
        costs: CostModel,
    ) -> Self {
        RaftOrdererActor {
            channel: ChannelId::default(),
            raft: RaftNode::new(index, cluster.len(), raft_config, seed),
            index,
            cutter: BlockCutter::new(batch),
            assembler: BlockAssembler::new(),
            cluster,
            peers,
            costs,
            tick,
            batch_timer: None,
            retained: std::collections::VecDeque::new(),
            retain_limit: 64,
            admitted: std::collections::BTreeSet::new(),
            harness: ServiceHarness::new(format!("orderer{index}")),
        }
    }

    /// Assigns this member to a named channel's ordering cluster (call
    /// before [`RaftOrdererActor::with_queue`]: it re-derives the queue's
    /// metric namespace). Metrics and queue gauges are namespaced by the
    /// channel unless it is the default one.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelId) -> Self {
        let harness_name = if channel.is_default() {
            format!("orderer{}", self.index)
        } else {
            format!("orderer{}.{channel}", self.index)
        };
        self.harness = ServiceHarness::new(harness_name);
        self.channel = channel;
        self
    }

    fn metric(&self, suffix: &str) -> String {
        self.channel.metric_name("orderer", suffix)
    }

    /// Bounds this member's admission queue (leader broadcasts only).
    /// Slots free when the admitted transaction applies on this member —
    /// even if it committed under a later leader. A slot is stranded
    /// only if its transaction is truly lost (dropped from every log by
    /// a leadership change before replication).
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.harness.set_queue(config);
        self
    }

    /// True if this member currently leads the cluster.
    pub fn is_leader(&self) -> bool {
        self.raft.is_leader()
    }

    fn ship(&mut self, ctx: &mut Context<'_, M>, out: crate::raft::RaftOutput<Vec<RawEnvelope>>) {
        for (dst, msg) in out.messages {
            let wrapped = FabricMsg::Raft(Box::new(msg));
            let bytes = wrapped.wire_size();
            ctx.send(self.cluster[dst], bytes, M::wrap(wrapped));
        }
        for (_, batch) in out.committed {
            let block = Arc::new(self.assembler.assemble(batch));
            let name = self.metric("blocks_cut");
            ctx.metrics().incr(&name, 1);
            let trace = self
                .channel
                .trace_name(&format!("block-{}", block.header.number));
            for raw in block.envelopes.iter() {
                // Queue spans close at the member that admitted the tx
                // (see the `admitted` field), which also frees its
                // admission slot — even if leadership moved and the
                // entry committed under a different leader.
                if self.admitted.remove(&raw.tx_id) {
                    ctx.span_end(&tx_trace(&raw.tx_id), "order.queue", "");
                    self.harness.request_done(ctx);
                }
            }
            let detail = self.index.to_string();
            ctx.span_start(&trace, "order.deliver", &detail);
            self.retained.push_back(Arc::clone(&block));
            while self.retained.len() > self.retain_limit {
                self.retained.pop_front();
            }
            let bytes = block.wire_size();
            let mut sends = Vec::new();
            for &peer in &self.peers {
                sends.push((
                    peer,
                    bytes,
                    M::wrap(FabricMsg::DeliverBlock(
                        self.channel.clone(),
                        Arc::clone(&block),
                    )),
                ));
            }
            let cost = self.costs.block_cost(bytes);
            self.harness.defer(
                ctx,
                cost,
                sends,
                vec![SpanClose::new(trace, "order.deliver", detail)],
            );
        }
    }

    fn propose_batches(&mut self, ctx: &mut Context<'_, M>, batches: Vec<Vec<RawEnvelope>>) {
        for batch in batches {
            match self.raft.propose(batch) {
                Ok(out) => self.ship(ctx, out),
                Err(_) => {
                    let name = self.metric("dropped_not_leader");
                    ctx.metrics().incr(&name, 1)
                }
            }
        }
    }

    fn on_broadcast(&mut self, ctx: &mut Context<'_, M>, env: Envelope) {
        let raw = env.to_raw();
        let cost = self.costs.order_cost(raw.bytes.len() as u64);
        let name = self.metric("broadcasts");
        ctx.metrics().incr(&name, 1);
        ctx.span_start(&tx_trace(&raw.tx_id), "order.queue", "");
        self.admitted.insert(raw.tx_id);
        // Admission cost is charged but does not gate consensus messages
        // (they are network-bound).
        self.harness.charge(ctx, cost);
        let out = self.cutter.offer(raw);
        if !out.batches.is_empty() {
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        let needed = out.timer_needed;
        self.propose_batches(ctx, out.batches);
        if needed && self.batch_timer.is_none() {
            let timeout = self.cutter.config().timeout;
            self.batch_timer = Some(ctx.set_timer(timeout, BATCH_TIMER));
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
                    if channel != self.channel {
                        return; // another channel's ordering service
                    }
                    let name = self.metric("deliver_requests");
                    ctx.metrics().incr(&name, 1);
                    for block in self.retained.iter() {
                        if block.header.number >= from {
                            let bytes = block.wire_size();
                            ctx.send(
                                src,
                                bytes,
                                M::wrap(FabricMsg::DeliverBlock(
                                    self.channel.clone(),
                                    block.clone(),
                                )),
                            );
                        }
                    }
                }
                Ok(FabricMsg::Broadcast(env)) => {
                    if self.raft.is_leader() {
                        let wrapped = M::wrap(FabricMsg::Broadcast(env));
                        match self.harness.admit(ctx, src, wrapped) {
                            Admission::Admit(msg) => {
                                if let Ok(FabricMsg::Broadcast(env)) = msg.peel() {
                                    self.on_broadcast(ctx, env);
                                }
                            }
                            Admission::Nack(_) => {
                                let name = self.metric("nacked");
                                ctx.metrics().incr(&name, 1);
                            }
                            Admission::Done => {}
                        }
                    } else if let Some(leader) = self.raft.leader_hint() {
                        // Redirect to the current leader.
                        let bytes = env.wire_size();
                        let dst = self.cluster[leader];
                        ctx.send(dst, bytes, M::wrap(FabricMsg::Broadcast(env)));
                        let name = self.metric("redirects");
                        ctx.metrics().incr(&name, 1);
                    } else {
                        let name = self.metric("dropped_no_leader");
                        ctx.metrics().incr(&name, 1);
                    }
                }
                Ok(FabricMsg::Raft(raft_msg)) => {
                    let out = self.raft.step(*raft_msg);
                    self.ship(ctx, out);
                }
                Ok(FabricMsg::DeliverSubscribe { channel, peer }) => {
                    if channel != self.channel {
                        return; // another channel's ordering service
                    }
                    if !self.peers.contains(&peer) {
                        self.peers.push(peer);
                        let name = self.metric("subscriptions");
                        ctx.metrics().incr(&name, 1);
                    }
                }
                Ok(_) | Err(_) => {}
            },
            Event::Timer { token: RAFT_TICK } => {
                let out = self.raft.tick();
                self.ship(ctx, out);
                let tick = self.tick;
                ctx.set_timer(tick, RAFT_TICK);
            }
            Event::Timer { token: BATCH_TIMER } => {
                self.batch_timer = None;
                if let Some(batch) = self.cutter.cut() {
                    let name = self.metric("timeout_cuts");
                    ctx.metrics().incr(&name, 1);
                    self.propose_batches(ctx, vec![batch]);
                }
            }
            Event::Timer { token } => {
                let _ = self.harness.on_timer(ctx, token);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        // Raft term/vote/log model the persisted consensus state and
        // survive the crash; a restarted stale leader steps down as soon
        // as it hears a higher term. Cutter-pending transactions are
        // volatile and lost (clients retry); the consensus tick must be
        // re-armed because the crash dropped every pending timer.
        let config = *self.cutter.config();
        self.cutter = BlockCutter::new(config);
        self.batch_timer = None;
        // The admitted set pairs with the harness queue accounting, which
        // reset() just cleared; spans of pre-crash admissions stay open
        // in the tracer (reported as open, never as unmatched).
        self.admitted.clear();
        self.harness.reset();
        let name = self.metric("recoveries");
        ctx.metrics().incr(&name, 1);
        let tick = self.tick;
        ctx.set_timer(tick, RAFT_TICK);
    }
}

/// Kick-off token: schedule this timer on each raft orderer at start so it
/// begins ticking (use [`hyperprov_sim::Simulation::start_timer`] with
/// [`RAFT_TICK_TOKEN`]).
pub const RAFT_TICK_TOKEN: u64 = RAFT_TICK;
