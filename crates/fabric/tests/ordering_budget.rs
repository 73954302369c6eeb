//! The ordering cluster's memory gate: the live heap of three raft
//! members, counted by an allocator of this test's own, is one copy of
//! the retained tail plus structure, however long the chain grows.
//!
//! Three `OrderingNode`s and no kernel: the leader takes in `N` batches of
//! `ledger_growth`-shaped posts, consensus messages go from member to
//! member as they are sent, heartbeats run until every member has applied
//! and compacted, and everything else the members answer — the blocks for
//! the peers among it — is dropped. Then `3 * N` batches more. The counts
//! repeat exactly from run to run (one thread, no clock); a body copied
//! per member, or a log that keeps what every member holds, breaks the
//! bounds.
//!
//! This file holds one test on purpose: the counter is process-wide.

mod support;

use std::collections::VecDeque;
use std::mem::size_of;

use hyperprov_fabric::{
    BatchConfig, FabricMsg, Machine as _, OrderingAction as Action, OrderingNode, SigningIdentity,
};
use hyperprov_ledger::{ChannelId, RawEnvelope};
use hyperprov_sim::ActorId;
use support::{live, new_committers, post, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ORDERERS: [ActorId; 3] = [ActorId(90), ActorId(91), ActorId(92)];
const PEER: ActorId = ActorId(1);
const CLIENT: ActorId = ActorId(100);
const TXS_PER_BATCH: usize = 10;
/// Batches of the first measurement; the tail of 64 blocks is full by then.
const N: u64 = 100;
/// Live heap the three members may hold besides one copy of the retained
/// tail's bodies: measured 30,684 B at both sizes (a block's header and
/// `Arc` per member and retained block, the tails' rings, the logs' and
/// the cutters' buffers).
const STRUCTURE_BYTES: i64 = 33_750;

/// Carries the messages `actions` of member `from` send to other members,
/// and those their answers send, until none is in flight; drops the rest.
fn carry(nodes: &mut [OrderingNode], from: usize, actions: Vec<Action>) {
    let mut flying = VecDeque::new();
    let mut answered = Some((from, actions));
    while let Some((member, actions)) = answered.take() {
        for action in actions {
            if let Action::Send(to, _, msg) = action {
                if let Some(dst) = ORDERERS.iter().position(|&id| id == to) {
                    flying.push_back((member, dst, msg));
                }
            }
        }
        if let Some((src, dst, msg)) = flying.pop_front() {
            answered = Some((dst, nodes[dst].message(ORDERERS[src], msg)));
        }
    }
}

/// Ticks member 0, the leader, `n` times.
fn tick(nodes: &mut [OrderingNode], n: usize) {
    let token = nodes[0].first_timer().expect("a raft member ticks");
    for _ in 0..n {
        let actions = nodes[0].timer(token);
        carry(nodes, 0, actions);
    }
}

/// The leader orders `batches` more batches of fresh posts, then the
/// cluster settles: every member applies all of it.
fn order(nodes: &mut [OrderingNode], ids: (&SigningIdentity, &SigningIdentity), batches: u64) {
    let first = nodes[0].view().raft_log.unwrap().1 * TXS_PER_BATCH as u64;
    for nonce in first..first + batches * TXS_PER_BATCH as u64 {
        let (envelope, ack) = (post(ids.0, ids.1, nonce).into(), false);
        let actions = nodes[0].message(
            CLIENT,
            FabricMsg::Broadcast {
                envelope,
                ack,
                copy: false,
            },
        );
        carry(nodes, 0, actions);
    }
    tick(nodes, 9);
}

/// Bytes of the bodies of the blocks the leader would re-deliver: its
/// retained tail, one copy.
fn tail_bytes(leader: &mut OrderingNode) -> i64 {
    let request = FabricMsg::DeliverRequest {
        channel: ChannelId::default(),
        from: 0,
    };
    let mut bytes = 0;
    for action in leader.message(PEER, request) {
        if let Action::Send(_, _, FabricMsg::DeliverBlock(_, block)) = action {
            // The shared slice's two counts, then its envelopes, each
            // with its shared bytes' two counts.
            bytes += 2 * size_of::<usize>();
            for raw in block.envelopes.iter() {
                bytes += size_of::<RawEnvelope>() + 2 * size_of::<usize>() + raw.bytes.len();
            }
        }
    }
    bytes as i64
}

#[test]
fn three_raft_members_hold_one_retained_tail_however_long_the_chain() {
    let (client, endorser, _) = new_committers();
    let batch = BatchConfig {
        max_message_count: TXS_PER_BATCH,
        ..BatchConfig::default()
    };

    let empty = live();
    let member = |i| {
        let (cluster, peers) = (ORDERERS.to_vec(), vec![PEER]);
        OrderingNode::raft(i, cluster, ChannelId::default(), peers, batch, 5)
    };
    let mut nodes: Vec<OrderingNode> = (0..ORDERERS.len()).map(member).collect();
    while !nodes[0].view().leader {
        tick(&mut nodes, 1);
    }

    order(&mut nodes, (&client, &endorser), N);
    let at_n = live() - empty;
    let structure_at_n = at_n - tail_bytes(&mut nodes[0]);
    order(&mut nodes, (&client, &endorser), 3 * N);
    let at_4n = live() - empty;
    let tail = tail_bytes(&mut nodes[0]);

    println!(
        "live heap of three members: {at_n} B at {N} batches, {at_4n} B at {} batches; \
         structure {structure_at_n} B and {} B",
        4 * N,
        at_4n - tail
    );
    let spread = (at_4n - at_n).abs();
    assert!(
        spread * 10 <= at_n,
        "the members grew from {at_n} B to {at_4n} B while the chain grew fourfold"
    );
    assert!(
        at_4n <= tail + STRUCTURE_BYTES,
        "three members hold {at_4n} B: more than one tail of bodies ({tail} B) and {STRUCTURE_BYTES} B of structure"
    );
    // What all members hold is gone from every log.
    let last = nodes[0].view().raft_log.unwrap().1;
    assert_eq!(last, 4 * N);
    for node in &nodes {
        assert_eq!(node.view().raft_log, Some((last, last)));
    }
}
