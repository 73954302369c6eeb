//! The ordering machine, driven with no simulation: first directed tests —
//! one input, the actions expected back, each a short line — with two
//! findings pinned where they live, then a seeded property test: a raft
//! cluster of three machines under a scheduler that delays, drops and
//! reorders their consensus messages, fires their timers in any order,
//! stalls a member and crashes and restarts one. Throughout, no member
//! compacts away an entry another member's log lacks, and the members'
//! blocks of one height share one body.

#[path = "support/sched.rs"]
mod sched;
mod support;

use std::collections::BTreeSet;
use std::iter;
use std::sync::Arc;

use hyperprov_fabric::{
    tx_trace, BatchConfig, BlockCutter, CostModel, Envelope, FabricMsg, Machine as _,
    OrderingAction as Action, OrderingNode, RaftMsg, SigningIdentity,
};
use hyperprov_ledger::{Block, ChannelId, RawEnvelope, TxId};
use hyperprov_sim::ActorId;
use proptest::prelude::*;

use sched::{Rng, Sched};

const PEERS: [ActorId; 2] = [ActorId(1), ActorId(2)];
const ORDERERS: [ActorId; 3] = [ActorId(90), ActorId(91), ActorId(92)];
const CLIENT: ActorId = ActorId(100);
/// Blocks an ordering node keeps for the deliver service.
const TAIL: u64 = 64;

fn channel() -> ChannelId {
    ChannelId::default()
}

fn batch_of(count: usize) -> BatchConfig {
    BatchConfig {
        max_message_count: count,
        ..BatchConfig::default()
    }
}

fn solo(batch: BatchConfig) -> OrderingNode {
    OrderingNode::solo(channel(), batch, PEERS.to_vec(), CostModel::default())
}

/// The three members of a raft cluster cutting batches of `count`, under
/// their model host.
fn cluster(count: usize, seed: u64, rng: Rng) -> Sched<OrderingNode> {
    let member = |(i, id)| {
        let (cluster, peers) = (ORDERERS.to_vec(), PEERS.to_vec());
        let costs = CostModel::default();
        let node = OrderingNode::raft(i, cluster, channel(), peers, batch_of(count), seed, costs);
        (id, node)
    };
    Sched::new(ORDERERS.into_iter().enumerate().map(member), rng)
}

/// A client's endorsed posts, numbered as they are made: `tx0`, `tx1`, …
struct Txs {
    client: SigningIdentity,
    endorser: SigningIdentity,
    ids: Vec<TxId>,
}

impl Txs {
    fn new() -> Self {
        let (client, endorser, _) = support::new_committers();
        let ids = Vec::new();
        Txs {
            client,
            endorser,
            ids,
        }
    }

    /// The next post, of about 700 bytes.
    fn envelope(&mut self) -> Envelope {
        let env = support::post(&self.client, &self.endorser, self.ids.len() as u64);
        self.ids.push(env.tx_id());
        env
    }

    fn broadcast(&mut self) -> FabricMsg {
        let (envelope, ack) = (self.envelope(), false);
        FabricMsg::Broadcast { envelope, ack }
    }

    /// The next post, asking for the orderer's answer.
    fn asking(&mut self) -> FabricMsg {
        let (envelope, ack) = (self.envelope(), true);
        FabricMsg::Broadcast { envelope, ack }
    }
}

/// A client's envelope that does not ask for the orderer's answer.
fn broadcast(envelope: Envelope) -> FabricMsg {
    FabricMsg::Broadcast {
        envelope,
        ack: false,
    }
}

/// One short word per action, so an answer reads as a line.
fn show(actions: &[Action], txs: &Txs) -> Vec<String> {
    let named = |trace: &String| match txs.ids.iter().position(|id| tx_trace(id) == *trace) {
        Some(n) => format!("tx{n}"),
        None => trace.clone(),
    };
    let sent = |to: &ActorId, msg: &FabricMsg| {
        let what = match msg {
            FabricMsg::DeliverBlock(_, block) => format!("block-{}", block.header.number),
            FabricMsg::Broadcast { ack: true, .. } => "broadcast?".to_owned(),
            FabricMsg::Broadcast { .. } => "broadcast".to_owned(),
            FabricMsg::BroadcastAck { accepted: true, .. } => "ack".to_owned(),
            FabricMsg::BroadcastAck { .. } => "refused".to_owned(),
            FabricMsg::Raft(msg) => match **msg {
                RaftMsg::RequestVote { .. } => "vote?".to_owned(),
                RaftMsg::VoteReply { .. } => "vote".to_owned(),
                RaftMsg::AppendEntries { .. } => "append".to_owned(),
                RaftMsg::AppendReply { .. } => "appended".to_owned(),
            },
            _ => "?".to_owned(),
        };
        format!("{what}->{}", to.0)
    };
    let mut words = Vec::new();
    for action in actions {
        match action {
            Action::Send(to, _, msg) => words.push(sent(to, msg)),
            Action::Job(_, sends, _) => {
                let sends: Vec<String> = sends.iter().map(|(to, _, msg)| sent(to, msg)).collect();
                words.push(format!("job[{}]", sends.join(" ")));
            }
            Action::Charge(_) => words.push("charge".to_owned()),
            Action::Arm(token, _) => words.push(format!("arm#{token}")),
            Action::Disarm(token) => words.push(format!("disarm#{token}")),
            Action::Count(on, name, n) => {
                assert_eq!(*on, Some(channel()));
                words.push(format!("+{name}={n}"));
            }
            Action::SpanStart(trace, stage, _) => words.push(format!("[{stage} {}", named(trace))),
            Action::SpanEnd(trace, stage, _) => words.push(format!("{stage}] {}", named(trace))),
            Action::Note(trace, name, _) => words.push(format!("!{name} {trace}")),
            other => panic!("not an ordering node's action: {other:?}"),
        }
    }
    words
}

/// The token of the one timer `actions` arm.
fn armed_by(actions: &[Action]) -> u64 {
    let mut armed = actions.iter().filter_map(|action| match action {
        Action::Arm(token, _) => Some(*token),
        _ => None,
    });
    let token = armed.next().expect("a timer armed");
    assert!(armed.next().is_none());
    token
}

/// The blocks the deliver service re-sends `to` for a request `from`.
fn redelivered(node: &mut OrderingNode, to: ActorId, from: u64) -> Vec<u64> {
    let request = FabricMsg::DeliverRequest {
        channel: channel(),
        from,
    };
    let actions = node.message(to, request);
    assert!(matches!(
        actions[0],
        Action::Count(_, "deliver_requests", 1)
    ));
    let mut numbers = Vec::new();
    for action in &actions[1..] {
        let Action::Send(dst, bytes, FabricMsg::DeliverBlock(on, block)) = action else {
            panic!("{action:?} answers a deliver request");
        };
        assert!(*dst == to && *on == channel() && *bytes == block.wire_size());
        numbers.push(block.header.number);
    }
    numbers
}

/// The height of the node's chain, read off the tail it would re-deliver.
fn height(node: &mut OrderingNode) -> u64 {
    redelivered(node, PEERS[0], 0)
        .last()
        .map_or(0, |tip| tip + 1)
}

/// Carries what is in flight among the members — `actions`, the answer of
/// member `from`, sent some of it — and what that sends, until nothing
/// is. Returns what each member answered along the way apart from those
/// sends, in order.
fn carry(s: &mut Sched<OrderingNode>, from: usize, actions: Vec<Action>) -> Vec<Vec<Action>> {
    let mut seen: Vec<Vec<Action>> = ORDERERS.iter().map(|_| Vec::new()).collect();
    for (m, actions) in iter::once((from, actions)).chain(s.settle()) {
        let among = |a: &Action| matches!(a, Action::Send(to, ..) if ORDERERS.contains(to));
        seen[m].extend(actions.into_iter().filter(|a| !among(a)));
    }
    seen
}

/// Ticks member `who` alone until it stands for election and wins it.
fn elect(s: &mut Sched<OrderingNode>, who: usize) {
    let tick = s.machines[who].first_timer().expect("a raft member ticks");
    while !s.machines[who].is_leader() {
        s.fire(who, tick);
        s.settle();
    }
}

/// One test per kind of input: a line of actions expected back.
mod transitions {
    use super::*;

    #[test]
    fn a_broadcast_that_fills_a_batch_cuts_a_block_and_disarms_the_batch_timer() {
        let (mut node, mut txs) = (solo(batch_of(2)), Txs::new());
        let first = node.message(CLIENT, txs.broadcast());
        let waits = ["+broadcasts=1", "[order.queue tx0", "arm#1"];
        assert_eq!(show(&first, &txs), waits);

        let second = txs.envelope();
        let cost = CostModel::default().order_cost(second.to_raw().bytes.len() as u64);
        let actions = node.message(CLIENT, broadcast(second));
        let cut = [
            "+broadcasts=1",
            "[order.queue tx1",
            "disarm#1",
            "+blocks_cut=1",
            "order.queue] tx0",
            "order.queue] tx1",
            "!block.cut block-0",
            "[order.deliver block-0",
            "job[block-0->1 block-0->2]",
        ];
        assert_eq!(show(&actions, &txs), cut);
        // One CPU job, paid by the envelope that cut the block; the block
        // is shared, and its `order.deliver` span closes with the job.
        let Some(Action::Job(paid, sends, closes)) = actions.last() else {
            panic!("{actions:?}");
        };
        assert_eq!(*paid, cost);
        let [(_, bytes, FabricMsg::DeliverBlock(_, a)), (_, _, FabricMsg::DeliverBlock(_, b))] =
            &sends[..]
        else {
            panic!("{sends:?}");
        };
        assert!(Arc::ptr_eq(a, b) && *bytes == a.wire_size());
        let ids: Vec<TxId> = a.envelopes.iter().map(|raw| raw.tx_id).collect();
        assert_eq!(ids, txs.ids);
        assert_eq!(closes.len(), 1);
        assert_eq!(
            (closes[0].trace.as_str(), closes[0].stage),
            ("block-0", "order.deliver")
        );
        assert_eq!(height(&mut node), 1);
    }

    #[test]
    fn the_batch_timer_cuts_what_is_pending() {
        let (mut node, mut txs) = (solo(batch_of(10)), Txs::new());
        let timer = armed_by(&node.message(CLIENT, txs.broadcast()));
        // The second envelope finds the timer running.
        // It asks, and is answered once taken in.
        let second = node.message(CLIENT, txs.asking());
        let waits = ["+broadcasts=1", "[order.queue tx1", "ack->100"];
        assert_eq!(show(&second, &txs), waits);
        let actions = node.timer(timer);
        let cut = [
            "+timeout_cuts=1",
            "+blocks_cut=1",
            "order.queue] tx0",
            "order.queue] tx1",
            "!block.cut block-0",
            "[order.deliver block-0",
            "job[block-0->1 block-0->2]",
        ];
        assert_eq!(show(&actions, &txs), cut);
        let Some(Action::Job(cost, ..)) = actions.last() else {
            panic!("{actions:?}");
        };
        assert_eq!(*cost, CostModel::default().block_base);
        // With nothing pending a firing costs nothing at all, and neither
        // does a timer that is not the machine's.
        for token in [timer, 77] {
            let nothing = node.timer(token);
            assert!(nothing.is_empty() && nothing.capacity() == 0);
        }
        // The next envelope arms the timer again.
        let third = node.message(CLIENT, txs.broadcast());
        assert_eq!(armed_by(&third), timer);
    }

    #[test]
    fn an_oversized_envelope_cuts_two_blocks_in_one_input() {
        let batch = BatchConfig {
            preferred_max_bytes: 2_000,
            ..batch_of(10)
        };
        let (mut node, mut txs) = (solo(batch), Txs::new());
        node.message(CLIENT, txs.broadcast());
        let mut big = txs.envelope();
        big.payload = vec![7; 4_096];
        *txs.ids.last_mut().unwrap() = big.tx_id();
        let actions = node.message(CLIENT, broadcast(big));
        // What was pending is flushed, then the large one goes alone: two
        // blocks, one job, no timer left running.
        let cut = [
            "+broadcasts=1",
            "[order.queue tx1",
            "disarm#1",
            "+blocks_cut=1",
            "order.queue] tx0",
            "!block.cut block-0",
            "[order.deliver block-0",
            "+blocks_cut=1",
            "order.queue] tx1",
            "!block.cut block-1",
            "[order.deliver block-1",
            "job[block-0->1 block-0->2 block-1->1 block-1->2]",
        ];
        assert_eq!(show(&actions, &txs), cut);
        let Some(Action::Job(_, _, closes)) = actions.last() else {
            panic!("{actions:?}");
        };
        let closed: Vec<&str> = closes.iter().map(|close| close.trace.as_str()).collect();
        assert_eq!(closed, ["block-0", "block-1"]);
        assert_eq!(height(&mut node), 2);
    }

    #[test]
    fn a_subscribe_adds_a_peer_once() {
        let (mut node, mut txs) = (solo(batch_of(1)), Txs::new());
        let subscribe = || FabricMsg::DeliverSubscribe {
            channel: channel(),
            peer: ActorId(3),
        };
        let added = node.message(ActorId(3), subscribe());
        assert_eq!(show(&added, &txs), ["+subscriptions=1"]);
        let again = node.message(ActorId(3), subscribe());
        assert!(again.is_empty() && again.capacity() == 0);
        let actions = node.message(CLIENT, txs.broadcast());
        let fanned = "job[block-0->1 block-0->2 block-0->3]";
        assert_eq!(show(&actions, &txs).last().unwrap(), fanned);
    }

    #[test]
    fn a_request_for_another_channel_is_ignored() {
        let (mut node, mut txs) = (solo(batch_of(1)), Txs::new());
        node.message(CLIENT, txs.broadcast());
        let elsewhere = [
            FabricMsg::DeliverRequest {
                channel: "other".into(),
                from: 0,
            },
            FabricMsg::DeliverSubscribe {
                channel: "other".into(),
                peer: ActorId(3),
            },
            // Nor does an ordering node take what is meant for a peer.
            FabricMsg::JoinChannel { channel: channel() },
        ];
        for msg in elsewhere {
            let nothing = node.message(ActorId(3), msg);
            assert!(nothing.is_empty() && nothing.capacity() == 0);
        }
        assert_eq!(redelivered(&mut node, ActorId(1), 0), [0]);
    }

    /// ROADMAP item 3's finding, where it lives: a request names a height,
    /// not a range, and is answered with the node's whole retained tail
    /// from there on, one message per block; what fell off the 64-block
    /// horizon is not sent and nothing says so.
    #[test]
    fn a_deliver_request_resends_the_whole_retained_tail_from_a_height() {
        let (mut node, mut txs) = (solo(batch_of(1)), Txs::new());
        for _ in 0..TAIL + 6 {
            node.message(CLIENT, txs.broadcast());
        }
        assert_eq!(height(&mut node), TAIL + 6);
        let kept: Vec<u64> = (6..TAIL + 6).collect();
        assert_eq!(redelivered(&mut node, ActorId(1), 0), kept);
        assert_eq!(redelivered(&mut node, ActorId(1), 6), kept);
        assert_eq!(redelivered(&mut node, ActorId(2), TAIL + 4), kept[62..]);
        // Above the tip: counted, nothing sent, nothing said.
        assert!(redelivered(&mut node, ActorId(2), TAIL + 6).is_empty());
    }

    #[test]
    fn a_restart_empties_the_cutter_and_keeps_chain_and_tail() {
        let (mut node, mut txs) = (solo(batch_of(2)), Txs::new());
        for _ in 0..3 {
            node.message(CLIENT, txs.broadcast());
        }
        // One block cut, one envelope pending, the batch timer running.
        let timer = 1;
        assert_eq!(show(&node.restarted(), &txs), ["+recoveries=1"]);
        // The host's timers died with the crash; had this one survived,
        // it would find nothing to cut.
        assert!(node.timer(timer).is_empty());
        assert_eq!(redelivered(&mut node, ActorId(1), 0), [0]);
        // The chain goes on where it stood, with what arrives now.
        let fourth = node.message(CLIENT, txs.broadcast());
        assert_eq!(armed_by(&fourth), timer);
        let fifth = node.message(CLIENT, txs.broadcast());
        let cut = [
            "+broadcasts=1",
            "[order.queue tx4",
            "disarm#1",
            "+blocks_cut=1",
            "order.queue] tx3",
            "order.queue] tx4",
            "!block.cut block-1",
            "[order.deliver block-1",
            "job[block-1->1 block-1->2]",
        ];
        assert_eq!(show(&fifth, &txs), cut);
    }

    #[test]
    fn a_restarted_raft_member_arms_its_tick_again() {
        let (mut s, txs) = (cluster(1, 5, Rng::new(5)), Txs::new());
        let nodes = &mut s.machines;
        let tick = nodes[1].first_timer().unwrap();
        assert_eq!(solo(batch_of(1)).first_timer(), None);
        // A tick that finds nothing to do only arms the next one.
        assert_eq!(show(&nodes[1].timer(tick), &txs), [format!("arm#{tick}")]);
        let restarted = show(&nodes[1].restarted(), &txs);
        assert_eq!(
            restarted,
            ["+recoveries=1".to_owned(), format!("arm#{tick}")]
        );
    }

    /// A follower forwards to the leader it knows of, or drops the
    /// envelope. An envelope that asks is answered either way — refused
    /// when dropped, accepted when forwarded — and the forward itself does
    /// not ask; one that does not ask gets nothing. The leader answers an
    /// envelope that asks it directly.
    #[test]
    fn a_member_that_does_not_lead_forwards_to_the_leader_it_knows_of() {
        let (mut s, mut txs) = (cluster(1, 5, Rng::new(5)), Txs::new());
        assert!(s.machines.iter().all(|node| !node.is_leader()));
        let lost = s.machines[1].message(CLIENT, txs.broadcast());
        assert_eq!(show(&lost, &txs), ["+dropped_no_leader=1"]);
        let refused = s.machines[1].message(CLIENT, txs.asking());
        let answer = ["+dropped_no_leader=1", "refused->100"];
        assert_eq!(show(&refused, &txs), answer);
        let Some(Action::Send(_, 64, FabricMsg::BroadcastAck { tx_id, .. })) = refused.last()
        else {
            panic!("{refused:?}");
        };
        assert_eq!(tx_id, txs.ids.last().unwrap());
        elect(&mut s, 0);
        let nodes = &mut s.machines;
        assert!(nodes[0].is_leader() && !nodes[1].is_leader());
        let env = txs.envelope();
        let size = env.wire_size();
        let forwarded = nodes[1].message(CLIENT, broadcast(env));
        assert_eq!(show(&forwarded, &txs), ["broadcast->90", "+redirects=1"]);
        assert!(matches!(forwarded[0], Action::Send(_, bytes, _) if bytes == size));
        let asked = nodes[1].message(CLIENT, txs.asking());
        let answer = ["broadcast->90", "+redirects=1", "ack->100"];
        assert_eq!(show(&asked, &txs), answer);
        // The leader takes the forward in and answers nobody for it; an
        // envelope that reaches it asking is answered after admission.
        let Action::Send(_, _, forward) = &asked[0] else {
            panic!("{asked:?}");
        };
        let taken = show(&nodes[0].message(ORDERERS[1], forward.clone()), &txs);
        assert!(taken[0] == "+broadcasts=1" && !taken.iter().any(|w| w.starts_with("ack")));
        let direct = show(&nodes[0].message(CLIENT, txs.asking()), &txs);
        assert_eq!(direct.last().unwrap(), "ack->100");
    }

    #[test]
    fn a_raft_block_is_delivered_by_every_member_that_applies_it() {
        let (mut s, mut txs) = (cluster(1, 5, Rng::new(5)), Txs::new());
        elect(&mut s, 0);
        let tick = s.machines[0].first_timer().unwrap();
        // The leader admits, charges the admission and proposes; the block
        // is cut when a majority holds the entry.
        let actions = s.message(0, CLIENT, txs.broadcast());
        let proposed = [
            "+broadcasts=1",
            "[order.queue tx0",
            "charge",
            "append->91",
            "append->92",
        ];
        assert_eq!(show(&actions, &txs), proposed);
        let seen = carry(&mut s, 0, actions);
        let applied = [
            "+broadcasts=1",
            "[order.queue tx0",
            "charge",
            "+blocks_cut=1",
            "order.queue] tx0",
            "[order.deliver block-0",
            "job[block-0->1 block-0->2]",
        ];
        assert_eq!(show(&seen[0], &txs), applied);
        let Some(Action::Job(cost, _, closes)) = seen[0].last() else {
            panic!("{:?}", seen[0]);
        };
        // The job costs the block, and the span names the member.
        let Some(Action::SpanStart(_, _, member)) = seen[0].get(5) else {
            panic!("{:?}", seen[0]);
        };
        assert_eq!((member.as_str(), closes[0].detail.as_str()), ("0", "0"));
        assert!(*cost > CostModel::default().block_base);
        assert!(seen[1].is_empty() && seen[2].is_empty());
        // The followers learn of the commit from the next heartbeat, and
        // close no queue span: they admitted nothing.
        let mut seen = Vec::new();
        while height(&mut s.machines[1]) == 0 {
            let ticked = s.fire(0, tick);
            seen = carry(&mut s, 0, ticked);
        }
        for follower in &seen[1..] {
            let applied = [
                "+blocks_cut=1",
                "[order.deliver block-0",
                "job[block-0->1 block-0->2]",
            ];
            assert_eq!(show(follower, &txs), applied);
        }
    }

    /// A leader deposed with envelopes in its cutter cannot propose them
    /// when their batch cuts: the batch is dropped (the clients time out
    /// and retry), and so are its admissions — the queue spans close, the
    /// ids leave the admitted set.
    #[test]
    fn a_deposed_leader_drops_its_pending_batch() {
        let (mut s, mut txs) = (cluster(3, 5, Rng::new(5)), Txs::new());
        elect(&mut s, 0);
        let admitted = s.message(0, CLIENT, txs.broadcast());
        let timer = armed_by(&admitted);
        s.message(0, CLIENT, txs.broadcast());
        elect(&mut s, 1);
        assert!(!s.machines[0].is_leader());
        let dropped = [
            "+timeout_cuts=1",
            "+dropped_not_leader=1",
            "order.queue] tx0",
            "order.queue] tx1",
        ];
        assert_eq!(show(&s.fire(0, timer), &txs), dropped);
        // Nothing of the batch is left behind: the next leadership of this
        // member starts clean.
        elect(&mut s, 0);
        let actions = s.message(0, CLIENT, txs.broadcast());
        let again = ["+broadcasts=1", "[order.queue tx2", "charge", "arm#1"];
        assert_eq!(show(&actions, &txs), again);
    }
}

/// What a cluster member's actions have opened and fanned out so far.
struct Member {
    /// A cutter of the same configuration, offered what the node took in
    /// and cut when its batch timer fired: whether it holds something.
    cutter: BlockCutter,
    pending: bool,
    /// `order.queue` spans opened here and not closed.
    open: BTreeSet<String>,
    /// The blocks fanned out, by number.
    fanned: Vec<Arc<Block>>,
}

/// What the cases of a run exercised, so that a run that exercised
/// nothing does not pass for one that held.
#[derive(Default)]
struct Coverage {
    dropped_messages: u64,
    leader_crashes: u64,
    redirects: u64,
    batches_dropped_by_a_deposed_leader: u64,
    full_tails: u64,
    blocks: u64,
    /// Entries compacted away, summed over the members at the end.
    compacted: u64,
}

/// The model around three machines and their host, whose scheduler picks
/// what happens next.
struct Net {
    sched: Sched<OrderingNode>,
    members: Vec<Member>,
    /// The member the scheduler leaves alone, and for how many steps.
    stalled: Option<(usize, u64)>,
    /// Every `order.queue` span ever opened.
    queued: BTreeSet<String>,
    /// The body of the block at each height, as first fanned out.
    bodies: Vec<Arc<[RawEnvelope]>>,
    txs: Txs,
}

impl Net {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let count = 1 + rng.below(3) as usize;
        let raft_seed = rng.below(1 << 32);
        let member = |_| Member {
            cutter: BlockCutter::new(batch_of(count)),
            pending: false,
            open: BTreeSet::new(),
            fanned: Vec::new(),
        };
        Net {
            sched: cluster(count, raft_seed, rng),
            members: ORDERERS.iter().map(member).collect(),
            stalled: None,
            queued: BTreeSet::new(),
            bodies: Vec::new(),
            txs: Txs::new(),
        }
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.sched.rng
    }

    /// The token of member `m`'s tick.
    fn tick(&self, m: usize) -> u64 {
        self.sched.machines[m].first_timer().unwrap()
    }

    fn leader(&self) -> Option<usize> {
        let s = &self.sched;
        (0..ORDERERS.len()).find(|&m| !s.down[m] && s.machines[m].is_leader())
    }

    /// Holds what must hold after member `m` answered an input with
    /// `actions`; `offered` is the envelope the input brought, if any.
    fn check(
        &mut self,
        m: usize,
        coverage: &mut Coverage,
        offered: Option<RawEnvelope>,
        actions: &[Action],
    ) {
        let tick = self.tick(m);
        let member = &mut self.members[m];
        if let (Some(raw), Some(Action::Count(_, "broadcasts", 1))) = (offered, actions.first()) {
            member.pending = member.cutter.offer(raw).timer_needed;
        }
        for action in actions {
            match action {
                Action::Send(to, _, FabricMsg::Broadcast { .. }) if ORDERERS.contains(to) => {
                    coverage.redirects += 1;
                }
                Action::Job(_, sends, closes) => {
                    // Every block of the job goes to every peer once, and
                    // is this member's next: each is fanned out exactly
                    // once, in order.
                    let first = member.fanned.len();
                    for (i, (to, _, msg)) in sends.iter().enumerate() {
                        let FabricMsg::DeliverBlock(_, block) = msg else {
                            panic!("{msg:?} in a delivery");
                        };
                        assert_eq!(*to, PEERS[i % PEERS.len()]);
                        if i % PEERS.len() == 0 {
                            assert_eq!(block.header.number, member.fanned.len() as u64);
                            member.fanned.push(block.clone());
                            // One body per height, whichever member
                            // assembled the block.
                            match self.bodies.get(block.header.number as usize) {
                                Some(body) => assert!(Arc::ptr_eq(body, &block.envelopes)),
                                None => self.bodies.push(Arc::clone(&block.envelopes)),
                            }
                        }
                        assert!(Arc::ptr_eq(block, member.fanned.last().unwrap()));
                    }
                    assert_eq!(closes.len(), member.fanned.len() - first);
                    assert_eq!(sends.len(), closes.len() * PEERS.len());
                }
                Action::SpanStart(trace, "order.queue", _) => {
                    assert!(self.queued.insert(trace.clone()), "queued twice");
                    member.open.insert(trace.clone());
                }
                // At most one end per start, and none without one.
                Action::SpanEnd(trace, "order.queue", _) => assert!(member.open.remove(trace)),
                Action::Count(_, "dropped_not_leader", n) => {
                    coverage.batches_dropped_by_a_deposed_leader += n;
                }
                _ => {}
            }
        }
        // The batch timer runs exactly while the cutter holds something,
        // and nothing that is not armed is disarmed.
        let batch_timer = self.sched.armed[m].iter().any(|&token| token != tick);
        assert_eq!(batch_timer, member.pending);
        assert_eq!(self.sched.stray_disarms, 0);
        // Nothing any member lacks is compacted away anywhere, crashed
        // members included: their logs are durable.
        let logs: Vec<(u64, u64)> = self
            .sched
            .machines
            .iter()
            .map(|node| node.raft_log().unwrap())
            .collect();
        let held = logs.iter().map(|&(_, last)| last).min().unwrap();
        let kept = logs.iter().all(|&(compacted, _)| compacted <= held);
        assert!(kept, "compacted past a member's log: {logs:?}");
    }

    /// A message from `src` arrives at member `m`, unless it is down.
    fn arrive(&mut self, src: ActorId, m: usize, msg: FabricMsg, coverage: &mut Coverage) {
        let offered = match &msg {
            FabricMsg::Broadcast { envelope, .. } => Some(envelope.to_raw()),
            _ => None,
        };
        let actions = self.sched.message(m, src, msg);
        self.check(m, coverage, offered, &actions);
    }

    /// One armed timer of member `m` fires.
    fn fire(&mut self, m: usize, token: u64, coverage: &mut Coverage) {
        assert!(self.sched.armed[m].contains(&token));
        if token != self.tick(m) {
            self.members[m].cutter.cut();
            self.members[m].pending = false;
        }
        let actions = self.sched.fire(m, token);
        self.check(m, coverage, None, &actions);
    }

    fn crash(&mut self, m: usize) {
        self.sched.crash(m);
        let member = &mut self.members[m];
        member.cutter = BlockCutter::new(*member.cutter.config());
        member.pending = false;
    }

    fn restart(&mut self, m: usize, coverage: &mut Coverage) {
        let actions = self.sched.restart(m);
        self.check(m, coverage, None, &actions);
        let tick = self.tick(m);
        assert!(
            matches!(actions[..], [Action::Count(_, "recoveries", 1), Action::Arm(t, _)] if t == tick)
        );
        // Chain and tail are as the crash left them.
        self.check_tail(m, coverage);
    }

    /// The retained tail of member `m`: the last blocks it fanned out, 64
    /// at most — which a restart must not have touched.
    fn check_tail(&mut self, m: usize, coverage: &mut Coverage) {
        let height = self.members[m].fanned.len() as u64;
        let tail: Vec<u64> = (height.saturating_sub(TAIL)..height).collect();
        coverage.full_tails += u64::from(height > TAIL);
        assert_eq!(redelivered(&mut self.sched.machines[m], PEERS[0], 0), tail);
    }

    /// Whether the scheduler may touch member `m` now.
    fn schedulable(&self, m: usize) -> bool {
        !self.sched.down[m] && self.stalled.is_none_or(|(stalled, _)| stalled != m)
    }

    /// One step of the adversarial schedule.
    fn step(&mut self, coverage: &mut Coverage) {
        if let Some((m, left)) = self.stalled {
            self.stalled = (left > 0).then(|| (m, left - 1));
        }
        match self.rng().below(100) {
            // A message in flight arrives, whichever: delayed, reordered.
            0..=54 => {
                let flying = &self.sched.flying;
                let ready: Vec<usize> = (0..flying.len())
                    .filter(|&i| self.schedulable(flying[i].1))
                    .collect();
                if !ready.is_empty() {
                    let at = ready[self.rng().below(ready.len() as u64) as usize];
                    let (src, m, msg) = self.sched.flying.swap_remove(at);
                    self.arrive(src, m, msg, coverage);
                }
            }
            // A timer fires, whichever: early, late, out of order.
            55..=79 => {
                let m = self.rng().below(3) as usize;
                let armed: Vec<u64> = self.sched.armed[m].iter().copied().collect();
                if self.schedulable(m) && !armed.is_empty() {
                    let token = armed[self.rng().below(armed.len() as u64) as usize];
                    self.fire(m, token, coverage);
                }
            }
            // A client's envelope reaches a member.
            80..=91 => {
                let m = self.rng().below(3) as usize;
                let msg = self.txs.broadcast();
                self.arrive(CLIENT, m, msg, coverage);
            }
            92..=95 => {
                if !self.sched.flying.is_empty() {
                    let at = self.sched.rng.below(self.sched.flying.len() as u64) as usize;
                    self.sched.flying.swap_remove(at);
                    coverage.dropped_messages += 1;
                }
            }
            // A crash — of the leader more often than not — or the restart
            // of what is down; never two members down at once.
            96 => match self.sched.down.iter().position(|&down| down) {
                Some(down) => self.restart(down, coverage),
                None => {
                    let leader = self.leader().filter(|_| self.sched.rng.chance(70));
                    coverage.leader_crashes += u64::from(leader.is_some());
                    let m = leader.unwrap_or_else(|| self.rng().below(3) as usize);
                    self.crash(m);
                }
            },
            // A member — the leader more often than not — is left alone
            // for a while: its messages wait, its timers do not fire.
            97 => {
                let leader = self.leader().filter(|_| self.sched.rng.chance(70));
                let m = leader.unwrap_or_else(|| self.rng().below(3) as usize);
                self.stalled = Some((m, 40 + self.rng().below(120)));
            }
            _ => {
                let m = self.rng().below(3) as usize;
                self.check_tail(m, coverage);
            }
        }
    }

    /// A clean network: every message arrives, every armed timer fires,
    /// round after round — long enough for a stale leader to hear of its
    /// successor, then until `done`.
    fn heal(&mut self, coverage: &mut Coverage, done: impl Fn(&Net) -> bool) {
        self.stalled = None;
        if let Some(down) = self.sched.down.iter().position(|&down| down) {
            self.restart(down, coverage);
        }
        for round in 0..2_000 {
            if round >= 40 && done(self) {
                return;
            }
            for (src, m, msg) in std::mem::take(&mut self.sched.flying) {
                self.arrive(src, m, msg, coverage);
            }
            for m in 0..self.members.len() {
                for token in self.sched.armed[m].clone() {
                    self.fire(m, token, coverage);
                }
            }
        }
        panic!("the cluster did not settle");
    }
}

/// One case: a cluster, an adversarial schedule, a heal.
fn run_case(seed: u64, coverage: &mut Coverage) {
    let mut net = Net::new(seed);
    for _ in 0..1_500 {
        net.step(coverage);
    }
    // The heal: a leader, every cutter drained, then one more block —
    // consensus commits what earlier terms left behind only with an entry
    // of the current one — and every member applies all of it.
    net.heal(coverage, |net| {
        let leaders = net.sched.machines.iter().filter(|n| n.is_leader()).count();
        leaders == 1 && net.members.iter().all(|m| !m.pending)
    });
    let leader = net.leader().unwrap();
    let fill = net.members[leader].cutter.config().max_message_count;
    for _ in 0..fill {
        let msg = net.txs.broadcast();
        net.arrive(CLIENT, leader, msg, coverage);
    }
    let last = *net.txs.ids.last().unwrap();
    net.heal(coverage, |net| {
        net.sched.flying.is_empty()
            && net.members.iter().all(|m| {
                let tip = m.fanned.last();
                tip.is_some_and(|block| block.envelopes.iter().any(|raw| raw.tx_id == last))
            })
    });

    // One chain: every member assembled the same block at every height.
    let hashes = |m: &Member| -> Vec<_> { m.fanned.iter().map(|b| b.header.hash()).collect() };
    let chain = hashes(&net.members[0]);
    for m in 0..net.members.len() {
        assert_eq!(hashes(&net.members[m]), chain);
        net.check_tail(m, coverage);
        coverage.compacted += net.sched.machines[m].raft_log().unwrap().0;
    }
    coverage.blocks += chain.len() as u64;
    // No transaction in two blocks, and none that nobody broadcast.
    let mut ordered = BTreeSet::new();
    for raw in net.members[0]
        .fanned
        .iter()
        .flat_map(|b| b.envelopes.iter())
    {
        assert!(net.txs.ids.contains(&raw.tx_id));
        assert!(ordered.insert(raw.tx_id), "ordered twice");
    }
}

proptest! {
    #[test]
    fn a_raft_cluster_under_an_adversarial_schedule_assembles_one_chain(seed in any::<u64>()) {
        run_case(seed, &mut Coverage::default());
    }
}

/// The generator reaches what the property is about: over a few dozen
/// seeds messages are lost, leaders crash, followers forward, a deposed
/// leader drops a batch, a tail outgrows its horizon and logs compact.
#[test]
fn the_generated_schedules_exercise_the_machine() {
    let mut coverage = Coverage::default();
    for seed in 0..32 {
        run_case(seed, &mut coverage);
    }
    assert!(coverage.dropped_messages > 0 && coverage.leader_crashes > 0);
    assert!(coverage.redirects > 0 && coverage.full_tails > 0);
    assert!(coverage.batches_dropped_by_a_deposed_leader > 0);
    assert!(coverage.blocks > 32 * TAIL / 2);
    assert!(coverage.compacted > coverage.blocks);
}
