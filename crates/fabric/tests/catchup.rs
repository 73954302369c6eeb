//! The catch-up machine, driven with no simulation: first one directed
//! test per transition, then seeded property tests over a model chain, a
//! model orderer that retains a tail of it, a ladder of model snapshot
//! providers (some empty, superseded or corrupting), and a lossy,
//! reordering, duplicating model network that heals at a seeded point.

#[path = "support/sched.rs"]
mod sched;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use hyperprov_fabric::{CatchUp, CatchUpAction, FabricMsg, CATCHUP_GIVE_UP};
use hyperprov_ledger::{
    ChannelId, Digest, KvWrite, Snapshot, SnapshotManifest, SnapshotPart, StateDb, StateKey, TxId,
    Version,
};
use hyperprov_sim::ActorId;
use proptest::prelude::*;

use sched::Rng;

const ORDERER: ActorId = ActorId(100);

/// A snapshot of `height - 1` keys in three-entry chunks.
fn snapshot(height: u64) -> Snapshot {
    let mut state = StateDb::new();
    for i in 1..height {
        let write = KvWrite {
            key: StateKey::new("cc", format!("k{i:03}")),
            value: Some(vec![i as u8].into()),
        };
        state.apply_tx(
            TxId(Digest::of(&i.to_le_bytes())),
            Version::new(i, 0),
            &write,
        );
    }
    let tip = Digest::of(b"tip");
    Snapshot::capture(&ChannelId::default(), height, tip, &state, vec![], None, 3)
}

/// One test per transition of the machine: a line of inputs, the actions
/// expected back.
mod transitions {
    use super::*;
    use hyperprov_fabric::{CatchUpAction as Action, CATCHUP_ESCALATE_AFTER};

    const ORDERER: ActorId = ActorId(9);
    const P0: ActorId = ActorId(1);
    const P1: ActorId = ActorId(2);

    fn machine(target: Option<ActorId>, providers: &[ActorId]) -> CatchUp {
        let mut machine = CatchUp::new(ChannelId::default(), target, 7);
        machine.set_providers(providers.to_vec());
        machine
    }

    fn offer_of(snapshot: &Snapshot) -> Option<Box<SnapshotManifest>> {
        Some(Box::new(snapshot.manifest().clone()))
    }

    fn part_of(snapshot: &Snapshot, index: usize) -> Option<Arc<SnapshotPart>> {
        snapshot.part(index).map(Arc::new)
    }

    /// One short word per action, so a transition reads as a line.
    fn show(actions: &[Action]) -> Vec<String> {
        actions
            .iter()
            .map(|action| match action {
                Action::Send(to, FabricMsg::DeliverRequest { from, .. }) => {
                    format!("blocks@{from}->{}", to.0)
                }
                Action::Send(to, FabricMsg::SnapshotRequest { .. }) => format!("offer?->{}", to.0),
                Action::Send(to, FabricMsg::SnapshotPartRequest { height, index, .. }) => {
                    format!("part@{height}/{index}->{}", to.0)
                }
                Action::Send(..) => "send?".to_owned(),
                Action::Arm(_) => "arm".to_owned(),
                Action::Disarm => "disarm".to_owned(),
                Action::Count(name) => format!("+{name}"),
                Action::Ingested(_) => "ingest".to_owned(),
                Action::Boot(snapshot) => format!("boot@{}", snapshot.height()),
            })
            .collect()
    }

    /// Puts a machine at height 0 into the download of `snapshot` from P0.
    fn downloading(snapshot: &Snapshot, providers: &[ActorId]) -> CatchUp {
        let mut m = machine(Some(ORDERER), providers);
        m.join(0);
        m.offer(P0, 0, offer_of(snapshot));
        m
    }

    #[test]
    fn in_order_deliveries_cost_nothing() {
        let mut m = machine(Some(ORDERER), &[P0]);
        for height in 1..5 {
            assert!(m.delivered(ORDERER, height, false).is_empty());
        }
        assert!(m.view().current);
    }

    #[test]
    fn a_gap_asks_the_sender_once_per_height_and_progress_disarms() {
        let mut m = machine(Some(ORDERER), &[]);
        let ask = ["+catchup_requests", "blocks@3->4", "arm"];
        assert_eq!(show(&m.delivered(ActorId(4), 3, true)), ask);
        // The repeat guard: another later block at the same height.
        assert!(m.delivered(ActorId(5), 3, true).is_empty());
        assert_eq!(show(&m.delivered(ORDERER, 6, false)), ["disarm"]);
        assert!(m.view().current);
    }

    /// Pinned, not endorsed: while a later block sits in the buffer, every
    /// commit moves the height off the repeat guard, so a delta of N
    /// blocks re-delivered in order costs N requests (the 587 block
    /// requests of a `crash_recover` round). A later change may lower
    /// this on purpose.
    #[test]
    fn a_delta_of_n_blocks_costs_n_requests() {
        let mut m = machine(Some(ORDERER), &[]);
        let n = 20;
        let mut requests = 0;
        // Live block `n` arrives first, then blocks 0..n in order.
        for height in 0..n {
            let actions = m.delivered(ORDERER, height, true);
            requests += show(&actions)
                .iter()
                .filter(|a| a.starts_with("blocks@"))
                .count();
        }
        assert_eq!(show(&m.delivered(ORDERER, n + 1, false)), ["disarm"]);
        assert_eq!(requests, n as usize);
    }

    /// The ported code never gave up: its first resend set the repeat
    /// guard, and only a wait without the guard could stop.
    #[test]
    fn a_goal_only_wait_gives_up_and_a_gap_never_does() {
        let mut m = machine(Some(ORDERER), &[]);
        let ask = ["+catchup_requests", "blocks@5->9", "arm"];
        assert_eq!(show(&m.restarted(5)), ask);
        for _ in 0..CATCHUP_GIVE_UP {
            let resend = ["+catchup_retries", "blocks@5->9", "arm"];
            assert_eq!(show(&m.timer_fired(5, false)), resend);
        }
        assert!(m.timer_fired(5, false).is_empty());
        assert!(m.view().current);

        m.delivered(ORDERER, 5, true);
        for _ in 0..3 * CATCHUP_GIVE_UP {
            assert!(!m.timer_fired(5, true).is_empty());
        }
        // Nor does a goal with a later block in the buffer.
        m.restarted(5);
        for _ in 0..3 * CATCHUP_GIVE_UP {
            assert!(!m.timer_fired(5, true).is_empty());
        }
    }

    /// The ported code disarmed here but left the repeat guard set, so the
    /// delivery below did not re-ask and the peer hung until its height
    /// moved.
    #[test]
    fn a_retry_without_a_target_goes_current_so_the_next_delivery_asks_again() {
        let mut m = machine(None, &[]);
        m.delivered(ORDERER, 3, true);
        assert_eq!(
            show(&m.timer_fired(3, true)),
            ["+catchup_retries", "disarm"]
        );
        assert!(m.view().current);
        let ask = ["+catchup_requests", "blocks@3->9", "arm"];
        assert_eq!(show(&m.delivered(ORDERER, 3, true)), ask);
    }

    #[test]
    fn without_a_target_join_restart_and_boot_leave_nothing_waiting() {
        let mut m = machine(None, &[]);
        assert_eq!(show(&m.join(0)), ["+joins", "disarm"]);
        assert_eq!(show(&m.restarted(0)), ["disarm"]);
        assert!(m.view().current);

        let snap = snapshot(8);
        let mut m = machine(None, &[P0]);
        m.join(0);
        m.offer(P0, 0, offer_of(&snap));
        for index in 0..snap.part_count() {
            m.part(P0, 0, 8, index as u32, part_of(&snap, index));
        }
        assert_eq!(show(&m.booted(true, 8)), ["disarm"]);
        assert!(m.view().current);
    }

    #[test]
    fn the_ladder_three_resends_each_provider_then_the_target() {
        let mut m = machine(Some(ORDERER), &[P0, P1]);
        m.delivered(ORDERER, 3, true);
        for _ in 0..CATCHUP_ESCALATE_AFTER {
            let resend = ["+catchup_retries", "blocks@3->9", "arm"];
            assert_eq!(show(&m.timer_fired(3, true)), resend);
        }
        let first = ["+catchup_retries", "+snapshot_fetches", "offer?->1", "arm"];
        assert_eq!(show(&m.timer_fired(3, true)), first);
        // No offer in time: the next provider.
        let second = ["+catchup_retries", "+snapshot_fetches", "offer?->2", "arm"];
        assert_eq!(show(&m.timer_fired(3, true)), second);
        // No snapshot there: the ladder is exhausted.
        let fallback = ["+catchup_fallbacks", "blocks@3->9", "arm"];
        assert_eq!(show(&m.offer(P1, 3, None)), fallback);
        // Still stuck: round the ladder again.
        let again = ["+catchup_retries", "+snapshot_fetches", "offer?->1", "arm"];
        assert_eq!(show(&m.timer_fired(3, true)), again);
    }

    #[test]
    fn an_offer_must_be_awaited_ahead_of_the_chain_and_have_parts() {
        let snap = snapshot(8);
        let mut m = machine(Some(ORDERER), &[P0, P1]);
        assert!(m.offer(P0, 0, offer_of(&snap)).is_empty()); // stale: nothing awaited
        let asked = ["+joins", "+snapshot_fetches", "offer?->1", "arm"];
        assert_eq!(show(&m.join(0)), asked);
        // Not ahead of a chain at 8: useless, so the next provider.
        let next = ["+snapshot_fetches", "offer?->2", "arm"];
        assert_eq!(show(&m.offer(P0, 8, offer_of(&snap))), next);
        let mut empty = offer_of(&snap);
        empty.as_mut().unwrap().part_digests.clear();
        let fallback = ["+catchup_fallbacks", "blocks@0->9", "arm"];
        assert_eq!(show(&m.offer(P1, 0, empty)), fallback);

        m.join(0);
        assert_eq!(
            show(&m.offer(P0, 0, offer_of(&snap))),
            ["part@8/0->1", "arm"]
        );
        assert!(m.offer(P0, 0, offer_of(&snap)).is_empty()); // duplicate
    }

    #[test]
    fn a_stalled_part_is_asked_again_then_the_download_moves_on() {
        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0, P1]);
        m.part(P0, 0, 8, 0, part_of(&snap, 0));
        for _ in 0..2 * CATCHUP_ESCALATE_AFTER {
            let again = ["+catchup_retries", "part@8/1->1", "arm"];
            assert_eq!(show(&m.timer_fired(0, false)), again);
        }
        let moved = ["+catchup_retries", "+snapshot_fetches", "offer?->2", "arm"];
        assert_eq!(show(&m.timer_fired(0, false)), moved);
    }

    /// The ported code asked a corrupting provider again at once, every
    /// time, without ever reaching a timer.
    #[test]
    fn a_provider_that_keeps_corrupting_loses_the_download() {
        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0, P1]);
        for _ in 0..2 * CATCHUP_ESCALATE_AFTER {
            let again = ["+snapshot_corrupt_parts", "part@8/0->1", "arm"];
            assert_eq!(show(&m.part(P0, 0, 8, 0, part_of(&snap, 1))), again);
        }
        let moved = [
            "+snapshot_corrupt_parts",
            "+snapshot_fetches",
            "offer?->2",
            "arm",
        ];
        assert_eq!(show(&m.part(P0, 0, 8, 0, part_of(&snap, 1))), moved);
    }

    #[test]
    fn parts_are_checked_against_the_accepted_manifest() {
        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0, P1]);
        // Another snapshot's part, an index past the manifest: ignored.
        assert!(m.part(P0, 0, 7, 0, part_of(&snap, 0)).is_empty());
        assert!(m.part(P0, 0, 8, 99, part_of(&snap, 0)).is_empty());
        // Part 1 under index 0: the digest does not match.
        let corrupt = ["+snapshot_corrupt_parts", "part@8/0->1", "arm"];
        assert_eq!(show(&m.part(P0, 0, 8, 0, part_of(&snap, 1))), corrupt);
        assert_eq!(
            show(&m.part(P0, 0, 8, 0, part_of(&snap, 0))),
            ["ingest", "part@8/1->1", "arm"]
        );
        // The provider cut a newer snapshot and dropped this one.
        let gone = ["+snapshot_fetches", "offer?->2", "arm"];
        assert_eq!(show(&m.part(P0, 0, 8, 1, None)), gone);
        // A part of the abandoned download arrives late.
        assert!(m.part(P0, 0, 8, 1, part_of(&snap, 1)).is_empty());
    }

    #[test]
    fn a_complete_download_boots_and_a_lying_manifest_does_not() {
        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0]);
        let last = snap.part_count() - 1;
        for index in 0..last {
            m.part(P0, 0, 8, index as u32, part_of(&snap, index));
        }
        let done = m.part(P0, 0, 8, last as u32, part_of(&snap, last));
        assert_eq!(show(&done), ["ingest", "boot@8"]);
        // Booted, with block 8 committed from the buffer on top.
        let delta = ["+catchup_requests", "blocks@9->9", "arm"];
        assert_eq!(show(&m.booted(true, 9)), delta);

        // Every part matches its digest, the state hash matches nothing.
        let mut lying = offer_of(&snap);
        lying.as_mut().unwrap().state_hash = Digest::of(b"lie");
        let mut m = machine(Some(ORDERER), &[P0]);
        m.join(0);
        m.offer(P0, 0, lying);
        for index in 0..last {
            m.part(P0, 0, 8, index as u32, part_of(&snap, index));
        }
        let failed = m.part(P0, 0, 8, last as u32, part_of(&snap, last));
        let fallback = [
            "ingest",
            "+snapshot_assemble_errors",
            "+catchup_fallbacks",
            "blocks@0->9",
            "arm",
        ];
        assert_eq!(show(&failed), fallback);
    }

    #[test]
    fn a_failed_boot_tries_the_next_provider() {
        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0, P1]);
        for index in 0..snap.part_count() {
            m.part(P0, 0, 8, index as u32, part_of(&snap, index));
        }
        let next = ["+snapshot_fetches", "offer?->2", "arm"];
        assert_eq!(show(&m.booted(false, 0)), next);
    }

    #[test]
    fn a_join_without_snapshots_asks_the_target_and_a_restart_forgets_a_fetch() {
        let mut m = machine(Some(ORDERER), &[]);
        let ask = ["+joins", "+catchup_requests", "blocks@0->9", "arm"];
        assert_eq!(show(&m.join(0)), ask);
        assert_eq!(show(&m.delivered(ORDERER, 8, false)), ["disarm"]);

        let snap = snapshot(8);
        let mut m = downloading(&snap, &[P0]);
        m.restarted(0);
        assert!(m.part(P0, 0, 8, 0, part_of(&snap, 0)).is_empty());
        assert!(m.delivered(ORDERER, 1, false).len() == 1 && m.view().current);
    }
}

enum Provider {
    /// Holds no snapshot: offers `None`.
    Empty,
    /// Offers its manifest, then answers every part request with `None`,
    /// as after cutting a newer snapshot.
    Superseded(Snapshot),
    /// Offers its manifest and serves the wrong part under every index.
    Corrupting(Snapshot),
    Honest(Snapshot),
}

impl Provider {
    fn offer(&self) -> Option<Box<SnapshotManifest>> {
        match self {
            Provider::Empty => None,
            Provider::Superseded(s) | Provider::Corrupting(s) | Provider::Honest(s) => {
                Some(Box::new(s.manifest().clone()))
            }
        }
    }

    fn part(&self, height: u64, index: usize) -> Option<Arc<SnapshotPart>> {
        match self {
            Provider::Honest(s) if s.height() == height => s.part(index),
            Provider::Corrupting(s) if s.height() == height => s.part((index + 1) % s.part_count()),
            _ => None,
        }
        .map(Arc::new)
    }
}

/// A message on its way to the peer.
#[derive(Clone, Copy)]
enum Msg {
    Block(u64),
    Offer(usize),
    Part(usize, u64, u32),
}

/// The peer's ledger as the machine sees it, the model of everything
/// around it, and what the invariants need remembered.
struct Model {
    seed: u64,
    rng: Rng,
    machine: CatchUp,
    height: u64,
    buffer: BTreeSet<u64>,
    armed: bool,
    /// The orderer holds blocks `base..tip`.
    base: u64,
    tip: u64,
    providers: Vec<Provider>,
    in_flight: VecDeque<Msg>,
    healed: bool,
    /// Part count of every manifest the machine was offered, by height.
    offered: BTreeMap<u64, usize>,
    inputs: u64,
}

impl Model {
    fn emit(&mut self, msg: Msg) {
        if self.healed {
            self.in_flight.push_back(msg);
            return;
        }
        if self.rng.chance(20) {
            return; // lost
        }
        if self.rng.chance(10) {
            self.in_flight.push_back(msg); // duplicated
        }
        self.in_flight.push_back(msg);
    }

    /// Performs the machine's actions the way the peer actor does, then
    /// checks what must hold between any two inputs.
    fn perform(&mut self, actions: Vec<CatchUpAction>) {
        for action in actions {
            match action {
                CatchUpAction::Send(to, FabricMsg::DeliverRequest { from, .. }) => {
                    if to == ORDERER {
                        for block in from.max(self.base)..self.tip {
                            self.emit(Msg::Block(block));
                        }
                    }
                }
                CatchUpAction::Send(to, FabricMsg::SnapshotRequest { .. }) => {
                    self.emit(Msg::Offer(to.0 as usize));
                }
                CatchUpAction::Send(to, FabricMsg::SnapshotPartRequest { height, index, .. }) => {
                    let parts = self.offered.get(&height).copied().unwrap_or(0);
                    let seed = self.seed;
                    assert!(
                        (index as usize) < parts,
                        "seed {seed}: part {index} of {parts}"
                    );
                    self.emit(Msg::Part(to.0 as usize, height, index));
                }
                CatchUpAction::Send(..) => panic!("the machine sends nothing else"),
                CatchUpAction::Arm(_) => self.armed = true,
                CatchUpAction::Disarm => self.armed = false,
                CatchUpAction::Count(_) | CatchUpAction::Ingested(_) => {}
                CatchUpAction::Boot(snapshot) => {
                    let ok = self.healed || self.rng.chance(80);
                    if ok && snapshot.height() > self.height {
                        self.height = snapshot.height();
                    }
                    self.drain();
                    let actions = self.machine.booted(ok, self.height);
                    self.perform(actions);
                }
            }
        }
    }

    fn drain(&mut self) {
        self.buffer = self.buffer.split_off(&self.height);
        while self.buffer.remove(&self.height) {
            self.height += 1;
        }
    }

    /// One input to the machine, then the invariant every state shares:
    /// no wait without a wake-up, and no wake-up without a wait.
    fn input(&mut self, actions: Vec<CatchUpAction>) {
        self.inputs += 1;
        self.perform(actions);
        let (seed, machine) = (self.seed, &self.machine);
        assert_eq!(
            self.armed,
            !machine.view().current,
            "seed {seed}: {machine:?}"
        );
    }

    fn deliver(&mut self, msg: Msg) {
        match msg {
            Msg::Block(number) => {
                if number < self.height {
                    return; // the actor drops duplicates before the machine
                }
                self.buffer.insert(number);
                self.drain();
                let buffered = !self.buffer.is_empty();
                let actions = self.machine.delivered(ORDERER, self.height, buffered);
                self.input(actions);
            }
            Msg::Offer(provider) => {
                let manifest = self.providers[provider].offer();
                if let Some(manifest) = &manifest {
                    self.offered.insert(manifest.height, manifest.part_count());
                }
                let from = ActorId(provider as u32);
                let actions = self.machine.offer(from, self.height, manifest);
                self.input(actions);
            }
            Msg::Part(provider, height, index) => {
                let part = self.providers[provider].part(height, index as usize);
                let from = ActorId(provider as u32);
                let actions = self.machine.part(from, self.height, height, index, part);
                self.input(actions);
            }
        }
    }

    fn fire_timer(&mut self) {
        self.armed = false;
        let buffered = !self.buffer.is_empty();
        let actions = self.machine.timer_fired(self.height, buffered);
        self.input(actions);
    }

    /// One step of the unhealed network: anything, in any order.
    fn chaos(&mut self) {
        match self.rng.below(10) {
            0 if self.armed => self.fire_timer(),
            1 => {
                // A live block, cut while whatever else is going on.
                let block = self.base + self.rng.below(self.tip - self.base);
                self.emit(Msg::Block(block));
            }
            2 if self.rng.chance(30) => {
                self.buffer.clear();
                self.armed = false;
                let actions = self.machine.restarted(self.height);
                self.input(actions);
            }
            _ if !self.in_flight.is_empty() => {
                let pick = self.rng.below(self.in_flight.len() as u64) as usize;
                let msg = self.in_flight.remove(pick).expect("in range");
                self.deliver(msg);
            }
            _ => {}
        }
    }
}

proptest! {
    /// Whatever happened before the network healed, a live block after it
    /// gets the peer to the tip and the machine back to current, in a
    /// bounded number of inputs — and at no point is there a wait without
    /// a timer, a timer without a wait, or a request for a part the
    /// accepted manifest does not have.
    #[test]
    fn catch_up_converges_once_the_network_heals(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let tip = 4 + rng.below(27);
        let with_target = rng.chance(85);
        // An orderer that has pruned what the peer needs is survivable
        // only through a snapshot at or above its horizon.
        let base = if with_target && rng.chance(50) { 2 + rng.below(tip - 3) } else { 0 };
        let mut providers: Vec<Provider> = (0..rng.below(4))
            .map(|_| {
                let height = 2 + rng.below(tip - 2);
                match rng.below(4) {
                    0 => Provider::Empty,
                    1 => Provider::Superseded(snapshot(height)),
                    2 => Provider::Corrupting(snapshot(height)),
                    _ => Provider::Honest(snapshot(height)),
                }
            })
            .collect();
        if base > 0 {
            let honest = Provider::Honest(snapshot(base + rng.below(tip - base)));
            let at = rng.below(providers.len() as u64 + 1) as usize;
            providers.insert(at, honest);
        }
        let mut machine = CatchUp::new(ChannelId::default(), with_target.then_some(ORDERER), seed);
        machine.set_providers((0..providers.len() as u32).map(ActorId).collect());
        let mut model = Model {
            seed,
            rng,
            machine,
            height: 0,
            buffer: BTreeSet::new(),
            armed: false,
            base,
            tip,
            providers,
            in_flight: VecDeque::new(),
            healed: false,
            offered: BTreeMap::new(),
            inputs: 0,
        };
        if model.rng.chance(50) {
            let actions = model.machine.join(0);
            model.input(actions);
        }
        for _ in 0..model.rng.below(300) {
            model.chaos();
        }

        model.healed = true;
        model.inputs = 0;
        // Messages in order; the timer only when nothing else is coming;
        // and when nothing at all is, the orderer's next live block. A
        // peer with a catch-up target needs one, a peer without may stop
        // waiting for a lost answer and need the next to ask again.
        let mut live_blocks = 0;
        let bound = 4 * tip * tip + 400;
        while model.inputs < bound {
            if let Some(msg) = model.in_flight.pop_front() {
                model.deliver(msg);
            } else if model.armed {
                model.fire_timer();
            } else if live_blocks < if with_target { 1 } else { 3 } {
                live_blocks += 1;
                model.emit(Msg::Block(tip - 1));
            } else {
                break;
            }
        }
        prop_assert!(
            model.machine.view().current && model.height == tip,
            "seed {seed}: at {} of {tip} after {} inputs: {:?}",
            model.height, model.inputs, model.machine
        );
    }

    /// On a silent network a wait that nothing proves necessary ends: a
    /// restart or a join stops re-asking after `CATCHUP_GIVE_UP` retries
    /// (plus the silent providers it tried on the way). A wait below a
    /// buffered block never ends by itself.
    #[test]
    fn a_goal_only_wait_ends_and_a_gap_driven_one_does_not(
        providers in 0u32..5,
        height in 0u64..50,
        joined in any::<bool>(),
        buffered in any::<bool>(),
    ) {
        let mut machine = CatchUp::new(ChannelId::default(), Some(ORDERER), 1);
        machine.set_providers((0..providers).map(ActorId).collect());
        let first = if joined { machine.join(height) } else { machine.restarted(height) };
        prop_assert!(first.iter().any(|a| matches!(a, CatchUpAction::Arm(_))));
        let mut timers = 0;
        while !machine.view().current && timers < 200 {
            let actions = machine.timer_fired(height, buffered);
            timers += 1;
            let armed = actions.iter().any(|a| matches!(a, CatchUpAction::Arm(_)));
            prop_assert_eq!(armed, !machine.view().current);
        }
        if buffered {
            prop_assert_eq!(timers, 200);
        } else {
            prop_assert!(timers <= CATCHUP_GIVE_UP + providers + 2, "{timers} timers");
        }
    }
}
