//! The I/O half of staying current. The protocol — gap detection, the
//! retry ladder, snapshot fetch, join and restart — is the sans-IO
//! [`CatchUp`] machine; here are the interpreter that feeds it and performs
//! its actions, the two handlers that *serve* snapshots to other peers,
//! and the one way a ledger is booted.

use std::cell::RefCell;
use std::sync::Arc;

use hyperprov_ledger::{Block, ChannelId, Snapshot};
use hyperprov_sim::{ActorId, Carries, Context, SimDuration};

use super::PeerActor;
use crate::caches::{ReadCache, SigVerifyCache};
use crate::catchup::{Action, CatchUp};
use crate::committer::Committer;
use crate::costs::CostModel;
use crate::messages::FabricMsg;

/// First retry-timer token used by peers for catch-up retries (one token
/// per hosted channel: base + channel insertion index). Disjoint from the
/// harness's token space, which always sets its high token bit.
pub(super) const CATCHUP_TIMER_BASE: u64 = 8;

/// Rebuilds `committer`'s ledger and swaps it in: from `snapshot` plus
/// the stored blocks at or above its height — work independent of total
/// chain length — or, without one, by re-validating the whole durable
/// block store from genesis. Returns the virtual CPU cost to charge and
/// the number of blocks replayed; a failure is counted and leaves the
/// ledger as it was.
fn boot<M>(
    ctx: &mut Context<'_, M>,
    costs: &CostModel,
    metric_prefix: &str,
    committer: &RefCell<Committer>,
    snapshot: Option<&Snapshot>,
) -> Option<(SimDuration, u64)> {
    // Each rebuild is bound before it is looked at: the ledger's shared
    // borrow must end before the rebuilt one is swapped in.
    let (rebuilt, outcome, mut cost) = match snapshot {
        Some(snapshot) => {
            let rebuilt = committer.borrow().recover_from_snapshot(snapshot).ok();
            let outcome = match rebuilt {
                Some(_) => "snapshot_boots",
                None => "snapshot_boot_errors",
            };
            let entries = snapshot.entry_count() as u64;
            let cost = costs.snapshot_restore_cost(entries, snapshot.state_bytes());
            (rebuilt, Some(outcome), cost)
        }
        None => {
            let rebuilt = committer.borrow().recover().ok();
            let outcome = rebuilt.is_none().then_some("recover_errors");
            (rebuilt, outcome, SimDuration::ZERO)
        }
    };
    if let Some(outcome) = outcome {
        let name = committer
            .borrow()
            .channel()
            .metric_name(metric_prefix, outcome);
        ctx.metrics().incr(&name, 1);
    }
    let rebuilt = rebuilt?;
    let mut replayed = 0;
    for block in rebuilt.store().iter() {
        cost += costs.block_cost(block.wire_size());
        replayed += 1;
    }
    *committer.borrow_mut() = rebuilt;
    Some((cost, replayed))
}

impl<M: Carries<FabricMsg>> PeerActor<M> {
    /// Feeds the channel's machine one input — `input` also gets the chain
    /// height and whether a later block is buffered above it — and
    /// performs the actions it answers with.
    pub(super) fn step(
        &mut self,
        ctx: &mut Context<'_, M>,
        channel: &ChannelId,
        input: impl FnOnce(&mut CatchUp, u64, bool) -> Vec<Action>,
    ) {
        let Some(state) = self.channels.get_mut(channel) else {
            return; // not hosting this channel
        };
        let height = state.committer.borrow().height();
        let buffered = !state.block_buffer.is_empty();
        let actions = input(&mut state.catchup, height, buffered);
        self.perform(ctx, channel, actions);
    }

    /// Performs the machine's actions in the order given: `ctx.send` draws
    /// link jitter and `set_timer` a sequence number, so the order is part
    /// of the model.
    fn perform(&mut self, ctx: &mut Context<'_, M>, channel: &ChannelId, actions: Vec<Action>) {
        for action in actions {
            let state = self.channels.get_mut(channel).expect("caller checked");
            match action {
                Action::Send(dest, msg) => {
                    let bytes = msg.wire_size();
                    ctx.send(dest, bytes, M::wrap(msg));
                }
                Action::Arm(delay) => {
                    state.disarm(ctx);
                    state.retry_timer = Some(ctx.set_timer(delay, state.timer_token));
                }
                Action::Disarm => state.disarm(ctx),
                Action::Count(name) => {
                    let name = channel.metric_name(&self.metric_prefix, name);
                    ctx.metrics().incr(&name, 1);
                }
                Action::Ingested(bytes) => {
                    let cost = self.costs.snapshot_transfer_cost(bytes);
                    self.harness.charge(ctx, cost);
                }
                Action::Boot(snapshot) => {
                    let ok = self.install(ctx, channel, snapshot);
                    self.step(ctx, channel, |machine, height, _| {
                        machine.booted(ok, height)
                    });
                }
            }
        }
    }

    /// A delivered block: buffer it, commit every consecutive block now
    /// available, and let the machine look for a gap.
    pub(super) fn on_block(
        &mut self,
        ctx: &mut Context<'_, M>,
        src: ActorId,
        channel: ChannelId,
        block: Arc<Block>,
    ) {
        let Some(state) = self.channels.get_mut(&channel) else {
            return; // not hosting this channel
        };
        if block.header.number < state.committer.borrow().height() {
            return; // duplicate delivery (multi-orderer dissemination)
        }
        state.block_buffer.insert(block.header.number, block);
        if self.drain_ready(ctx, &channel) > 0 {
            self.maybe_cut_snapshot(ctx, &channel);
        }
        self.step(ctx, &channel, |machine, height, buffered| {
            machine.delivered(src, height, buffered)
        });
    }

    /// Handles an unclaimed timer token: one of the per-channel catch-up
    /// retry timers.
    pub(super) fn on_retry_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) {
        let Some((channel, state)) = self
            .channels
            .iter_mut()
            .find(|(_, s)| s.timer_token == token)
        else {
            return;
        };
        state.retry_timer = None;
        let channel = channel.clone();
        self.step(ctx, &channel, CatchUp::timer_fired);
    }

    /// Boots the channel from a fetched snapshot, keeps it as the latest
    /// one, and commits the blocks that arrived live during the fetch and
    /// now sit directly above it. Returns whether the boot succeeded.
    fn install(
        &mut self,
        ctx: &mut Context<'_, M>,
        channel: &ChannelId,
        snapshot: Snapshot,
    ) -> bool {
        let state = self.channels.get_mut(channel).expect("caller checked");
        let prefix = &self.metric_prefix;
        let Some((cost, _)) = boot(ctx, &self.costs, prefix, &state.committer, Some(&snapshot))
        else {
            return false;
        };
        ctx.metrics().set_gauge(
            &channel.metric_name(prefix, "snapshots.height"),
            snapshot.height() as f64,
        );
        // The boot jumped over what was buffered below the new height:
        // left there it would never drain and always read as "a later
        // block is waiting".
        state.block_buffer = state.block_buffer.split_off(&snapshot.height());
        state.latest_snapshot = Some(snapshot);
        self.harness.charge(ctx, cost);
        if self.drain_ready(ctx, channel) > 0 {
            self.maybe_cut_snapshot(ctx, channel);
        }
        true
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

    /// Crash restart: rebuilds every hosted ledger from what the peer
    /// models as durable — the latest snapshot plus the block store, or
    /// the block store alone — and lets each channel's machine ask for
    /// whatever was cut meanwhile.
    pub(super) fn recover_after_restart(&mut self, ctx: &mut Context<'_, M>) {
        // Volatile state is gone: buffered out-of-order blocks, deferred
        // jobs, admitted requests, every pending timer and the in-memory
        // verification caches.
        self.harness.reset();
        self.sig_cache = self.pipeline.caches.then(SigVerifyCache::new);
        let mut replay_cost = SimDuration::ZERO;
        let mut replayed_blocks = 0u64;
        let mut snapshot_boots = 0u64;
        let (costs, prefix) = (&self.costs, &self.metric_prefix);
        for state in self.channels.values_mut() {
            state.block_buffer.clear();
            state.read_cache = self.pipeline.caches.then(ReadCache::new);
            state.retry_timer = None;
            let from_snapshot = state
                .latest_snapshot
                .as_ref()
                .and_then(|snapshot| boot(ctx, costs, prefix, &state.committer, Some(snapshot)));
            snapshot_boots += u64::from(from_snapshot.is_some());
            // The replay keeps the virtual CPU busy, so requests arriving
            // during recovery queue behind it.
            if let Some((cost, blocks)) =
                from_snapshot.or_else(|| boot(ctx, costs, prefix, &state.committer, None))
            {
                replay_cost += cost;
                replayed_blocks += blocks;
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
        for channel in self.channels.keys().cloned().collect::<Vec<_>>() {
            self.step(ctx, &channel, |machine, height, _| {
                machine.restarted(height)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use hyperprov_ledger::{Digest, HistoryDb, StateDb};
    use hyperprov_sim::Simulation;

    use super::*;
    use crate::chaincode::ChaincodeRegistry;
    use crate::committer::ChannelPolicies;
    use crate::identity::{MspBuilder, MspId};
    use crate::policy::EndorsementPolicy;

    /// A peer hosting a six-block chain, handed to `prepare` before a
    /// crash and a restart; returns the simulation and the ledger.
    fn restarted(
        prepare: impl FnOnce(&mut PeerActor<FabricMsg>),
    ) -> (Simulation<FabricMsg>, Rc<RefCell<Committer>>) {
        let org = MspId::new("org1");
        let mut msp = MspBuilder::new(1);
        let identity = msp.enroll("peer0", &org);
        let policies = ChannelPolicies::new(EndorsementPolicy::signed_by(org));
        let mut committer = Committer::new(msp.build(), policies);
        for number in 0..6 {
            let tip = committer.store().tip_hash();
            committer
                .commit_block(Block::build(number, tip, vec![]))
                .unwrap();
        }
        let ledger = Rc::new(RefCell::new(committer));
        let registry = ChaincodeRegistry::new();
        let mut peer = PeerActor::new(identity, registry, CostModel::default(), "peer0");
        peer.add_channel(ledger.clone(), None);
        prepare(&mut peer);
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(peer));
        sim.crash_actor(id);
        sim.restart_actor(id);
        sim.run();
        (sim, ledger)
    }

    #[test]
    fn a_snapshot_that_does_not_boot_falls_back_to_genesis_replay() {
        let (sim, ledger) = restarted(|peer| {
            // Sound in itself, but block 3 does not link onto its tip.
            let (state, history) = (StateDb::new(), HistoryDb::new());
            let tip = Digest::of(b"another chain");
            let channel = ChannelId::default();
            let stray = Snapshot::capture(&channel, 3, tip, &state, &history, vec![], None, 4);
            peer.channels.get_mut(&channel).unwrap().latest_snapshot = Some(stray);
        });
        let metrics = sim.metrics();
        assert_eq!(metrics.counter("peer0.snapshot_boot_errors"), 1);
        assert_eq!(metrics.counter("peer0.snapshot_boots"), 0);
        assert_eq!(metrics.counter("peer0.recover_errors"), 0);
        assert_eq!(metrics.gauge("peer0.recovery.snapshot_boots"), Some(0.0));
        assert_eq!(metrics.gauge("peer0.recovery.replayed_blocks"), Some(6.0));
        assert_eq!(ledger.borrow().height(), 6);
    }

    #[test]
    fn a_store_that_does_not_replay_is_counted_and_the_ledger_kept() {
        let (sim, ledger) = restarted(|peer| {
            // Pruned with no snapshot to cover the gap: genesis is gone.
            peer.committer().borrow_mut().prune_store_to(3);
        });
        let metrics = sim.metrics();
        assert_eq!(metrics.counter("peer0.recover_errors"), 1);
        assert_eq!(metrics.counter("peer0.recoveries"), 1);
        assert_eq!(metrics.gauge("peer0.recovery.replayed_blocks"), Some(0.0));
        assert_eq!(ledger.borrow().height(), 6);
    }
}
