//! The snapshot-cutting gate: what a cut may allocate, counted by the
//! allocator `memory_budget.rs` counts with.
//!
//! A peer cuts a snapshot every `interval` blocks and, almost always,
//! nobody reads it. A cut may therefore only *freeze* the ledger — take
//! shares of its keys and values into a fixed number of vectors — and
//! must leave everything that encodes or hashes a state byte to the first
//! reader of its manifest. Host time cannot pin that in a test; bytes
//! can: the counts repeat exactly from run to run (one thread, no clock),
//! so the bounds sit 10 % above the measured values. An encode buffer, a
//! list per history key or a second frozen view alive beside the first
//! breaks them.
//!
//! Before cuts froze, the same cut allocated 849 B per key and kept 200 B
//! of it — the rest was encode buffers — and a peer's second cut peaked
//! 2.7 cuts above the first: the old cut, the new one and the encoding of
//! its tail.
//!
//! This file holds one test on purpose: the counters are process-wide.

mod support;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    ChaincodeRegistry, Committer, CostModel, FabricMsg, PeerActor, SnapshotPolicy,
};
use hyperprov_ledger::{ChannelId, DEFAULT_CHUNK_ENTRIES};
use hyperprov_sim::Simulation;
use support::{allocated, extend_chain, live, new_committers, peak, reset_peak, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: u64 = 100;
const TXS_PER_BLOCK: u64 = 50;
/// Every post writes its record and its checksum entry.
const KEYS: i64 = (BLOCKS * TXS_PER_BLOCK * 2) as i64;
const PEERS: usize = 4;

/// Bytes a cut may allocate per state key, all of it structure: measured
/// 216 B — a frozen state entry (80 B), a frozen history key with its
/// entry count and its one entry (48 B + 72 B), and half a transaction id
/// (a post writes two keys). 184 B while a key and a value were handles
/// of 16 B on allocations of their own rather than ranges of 24 B of an
/// envelope's bytes.
const CUT_BYTES_PER_KEY: i64 = 238;

#[test]
fn a_cut_allocates_structure_only_and_two_cuts_hold_no_more_than_one() {
    let (client, endorser, new_committer) = new_committers();
    let mut committers: Vec<Committer> = (0..PEERS).map(|_| new_committer()).collect();
    let (first, rest) = committers.split_first_mut().expect("PEERS > 0");
    let blocks = extend_chain(first, &client, &endorser, BLOCKS, TXS_PER_BLOCK);
    for committer in rest {
        for block in &blocks {
            committer.commit_block(block.clone()).expect("extends");
        }
    }
    drop(blocks);
    assert_eq!(committers[0].state().len() as i64, KEYS);

    // One cut, on its own: what it allocates, it keeps — there is no
    // scratch buffer to free.
    let (before, before_live) = (allocated(), live());
    let cut = committers[0].snapshot(DEFAULT_CHUNK_ENTRIES);
    let cut_bytes = allocated() - before;
    let held = live() - before_live;
    println!(
        "one cut of {KEYS} keys: {} B allocated per key, {} B held",
        cut_bytes / KEYS,
        held / KEYS
    );
    assert_eq!(cut.entry_count() as i64, KEYS);
    assert!(
        cut_bytes <= CUT_BYTES_PER_KEY * KEYS,
        "a cut allocated {} B per key, budget {CUT_BYTES_PER_KEY} B",
        cut_bytes / KEYS
    );
    assert!(
        cut_bytes - held < KEYS,
        "a cut freed {} B of what it allocated: a scratch buffer?",
        cut_bytes - held
    );
    drop(cut);

    // Two cuts in a row, as a peer makes them: one block each on top of
    // the ledger above, a cut after every block.
    let mut tail = committers.pop().expect("PEERS > 0");
    let next = extend_chain(&mut tail, &client, &endorser, 2, TXS_PER_BLOCK);
    let ledger = Rc::new(RefCell::new(committers.pop().expect("PEERS > 1")));
    let mut peer = PeerActor::<FabricMsg>::new(
        endorser,
        ChaincodeRegistry::new(),
        CostModel::default(),
        "peer0",
    )
    .with_snapshots(SnapshotPolicy::every(1));
    peer.add_channel(ledger.clone(), None);
    let mut sim = Simulation::new(1);
    let peer = sim.add_actor(Box::new(peer));
    let mut deliver = |block| {
        let msg = FabricMsg::DeliverBlock(ChannelId::default(), Arc::new(block));
        sim.inject_message(peer, msg);
        sim.run_events(1);
    };
    let [first_block, second_block] = <[_; 2]>::try_from(next).expect("two blocks");
    deliver(first_block);
    let one_cut = live();
    reset_peak();
    deliver(second_block);
    let (two_cuts, peak) = (live(), peak());
    assert_eq!(ledger.borrow().height(), BLOCKS + 2);
    assert_eq!(ledger.borrow().store().base_height(), BLOCKS + 2);
    println!(
        "second cut: peak {} % of a cut above the first, {} % left",
        (peak - one_cut) * 100 / held,
        (two_cuts - one_cut) * 100 / held
    );
    // The second block's own records, and little else.
    assert!(
        two_cuts - one_cut <= held / 10,
        "a second cut left {} B more than the first, a cut is {held} B",
        two_cuts - one_cut
    );
    // The first cut went before the second was built.
    assert!(
        peak - one_cut <= held / 2,
        "cutting again peaked {} B above one cut of {held} B",
        peak - one_cut
    );
}
