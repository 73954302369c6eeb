//! How a peer stays current: gap detection on delivery, the catch-up
//! retry ladder, the snapshot catch-up protocol (fetch and serve), the
//! peer-side deliver service, channel join and crash-restart recovery.

use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, Snapshot, SnapshotManifest, SnapshotPart};
use hyperprov_sim::{ActorId, Carries, Context, SimDuration};

use super::PeerActor;
use crate::caches::{ReadCache, SigVerifyCache};
use crate::messages::FabricMsg;

/// Progress of an outstanding snapshot fetch (volatile; lost on crash).
pub(super) enum FetchState {
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
pub(super) const CATCHUP_TIMER_BASE: u64 = 8;
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

/// What a block request records on the channel before it goes out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// A buffered future block proved a gap: set the repeat guard
    /// (`catchup_from`), so later deliveries at the same height do not
    /// ask again.
    Gap,
    /// Nothing proves blocks are missing (a join, the delta above a
    /// booted snapshot): set the repeat guard and a retry goal — growth
    /// past today's height counts as success and disarms the retry.
    Goal,
    /// Crash restart: a retry goal only. The repeat guard stays clear, so
    /// the first live block that shows a gap still asks its sender.
    Restart,
    /// A retry or a ladder fallback re-drives an earlier request: move
    /// the guard (and the goal, when one is set) to the current height.
    /// Counted under `catchup_retries` / `catchup_fallbacks`, not under
    /// `catchup_requests`.
    Resend,
}

impl<M: Carries<FabricMsg>> PeerActor<M> {
    /// The one place a peer asks for blocks. Records `ask` on the channel
    /// and — given a destination — counts the request, sends a
    /// `DeliverRequest` from the channel's current height and arms the
    /// retry timer: the request itself can be lost, and the repeat guard
    /// would then stall catch-up until the next unrelated delivery.
    /// Returns whether a request went out; without a destination the
    /// caller decides whether the retry timer is still worth arming.
    fn request_blocks(
        &mut self,
        ctx: &mut Context<'_, M>,
        channel: &ChannelId,
        dest: Option<ActorId>,
        ask: Ask,
    ) -> bool {
        let Some(state) = self.channels.get_mut(channel) else {
            return false;
        };
        let from = state.committer.borrow().height();
        if ask != Ask::Restart {
            state.catchup_from = Some(from);
        }
        if matches!(ask, Ask::Goal | Ask::Restart)
            || (ask == Ask::Resend && state.retry_goal.is_some())
        {
            state.retry_goal = Some(from);
        }
        let Some(dest) = dest else {
            return false;
        };
        if ask != Ask::Resend {
            ctx.metrics().incr(
                &channel.metric_name(&self.metric_prefix, "catchup_requests"),
                1,
            );
        }
        let msg = FabricMsg::DeliverRequest {
            channel: channel.clone(),
            from,
        };
        let bytes = msg.wire_size();
        ctx.send(dest, bytes, M::wrap(msg));
        self.arm_retry(ctx, channel);
        true
    }

    /// A delivered block: buffer it, commit every consecutive block now
    /// available, and detect gaps.
    pub(super) fn on_block(
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
        let mut disarm = false;
        let gap = {
            let state = self.channels.get_mut(&channel).expect("checked above");
            let height = state.committer.borrow().height();
            if state.retry_goal.is_some_and(|goal| height > goal) {
                state.retry_goal = None;
            }
            if !state.block_buffer.is_empty() {
                state.catchup_from != Some(height)
            } else {
                state.catchup_from = None;
                disarm = matches!(state.fetch, FetchState::Idle) && state.retry_goal.is_none();
                false
            }
        };
        if gap {
            self.request_blocks(ctx, &channel, Some(src), Ask::Gap);
        }
        if disarm {
            self.disarm_retry(ctx, &channel);
        }
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
    pub(super) fn on_retry_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) {
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
        let target = self.channels[&channel].catchup_target;
        if !self.request_blocks(ctx, &channel, target, Ask::Resend) {
            // No target to retry against: stop; the next live delivery
            // will re-detect the gap and re-request from its sender.
            self.disarm_retry(ctx, &channel);
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
                    Err(state.catchup_target)
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
                self.arm_retry(ctx, channel);
            }
            Err(target) => {
                // Ladder exhausted: fall back to block re-delivery (at
                // worst a replay from the orderer's retained tail).
                ctx.metrics().incr(
                    &channel.metric_name(&self.metric_prefix, "catchup_fallbacks"),
                    1,
                );
                if !self.request_blocks(ctx, channel, target, Ask::Resend) {
                    self.arm_retry(ctx, channel);
                }
            }
        }
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
    pub(super) fn on_snapshot_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
    ) {
        let manifest = self
            .channels
            .get(&channel)
            .and_then(|s| s.latest_snapshot.as_ref())
            .map(|s| Box::new(s.manifest().clone()));
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
    pub(super) fn on_snapshot_offer(
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
    pub(super) fn on_part_request(
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
            .filter(|s| s.height() == height)
            .and_then(|s| s.part(index as usize))
            .map(Arc::new);
        let cost = part.as_ref().map_or(self.costs.cache_hit_op, |p| {
            self.costs.snapshot_transfer_cost(p.wire_size())
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
    pub(super) fn on_part_data(
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
                            let bytes = part.wire_size();
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
                let snap_height = snapshot.height();
                {
                    let state = self.channels.get_mut(channel).expect("checked above");
                    *state.committer.borrow_mut() = rebuilt;
                    state.latest_snapshot = Some(snapshot);
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
                let target = self.channels[channel].catchup_target;
                if !self.request_blocks(ctx, channel, target, Ask::Goal) {
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
    pub(super) fn on_join(&mut self, ctx: &mut Context<'_, M>, channel: ChannelId) {
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
        let target = state.catchup_target;
        if !self.request_blocks(ctx, &channel, target, Ask::Goal) {
            self.arm_retry(ctx, &channel);
        }
    }

    /// Serves the deliver (re-delivery) service from this peer's own block
    /// store, making peers usable as catch-up providers. Requests below
    /// the pruned horizon cannot be served contiguously (the snapshot
    /// protocol covers that range); requests at or above it ship up to
    /// [`MAX_DELIVER_BLOCKS`] blocks.
    pub(super) fn on_deliver_request(
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

    /// Crash restart: rebuilds every hosted ledger from what the peer
    /// models as durable (latest snapshot + block store) and asks each
    /// channel's catch-up target for whatever was cut meanwhile.
    pub(super) fn recover_after_restart(&mut self, ctx: &mut Context<'_, M>) {
        // Volatile state is gone: buffered out-of-order blocks, the
        // outstanding catch-up markers, deferred jobs, admitted requests,
        // and the in-memory verification caches.
        self.harness.reset();
        self.sig_cache = self.pipeline.caches.then(SigVerifyCache::new);
        let mut replay_cost = SimDuration::ZERO;
        let mut replayed_blocks = 0u64;
        let mut snapshot_boots = 0u64;
        let mut catchups = Vec::new();
        let read_cache_enabled = self.pipeline.caches;
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
            if let Some(snapshot) = &state.latest_snapshot {
                // Bind before matching: the scrutinee's shared borrow
                // must end before the rebuilt ledger is swapped in.
                let booted = state.committer.borrow().recover_from_snapshot(snapshot);
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
            if let Some(target) = state.catchup_target {
                catchups.push((channel.clone(), target));
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
        // Catch up on whatever the orderer cut while this peer was down
        // (restarting inside a partition can lose the request itself,
        // hence the retry it arms).
        for (channel, target) in catchups {
            self.request_blocks(ctx, &channel, Some(target), Ask::Restart);
        }
    }
}
