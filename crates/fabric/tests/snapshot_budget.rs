//! The snapshot-cutting gate: what a cut may allocate and hold, counted by
//! the allocator `memory_budget.rs` counts with.
//!
//! A peer cuts a snapshot every `interval` blocks and, almost always,
//! nobody reads it. A cut therefore records only the height and the tip
//! hash — the ledger's history is append-only, so the checkpoint's
//! content can be materialized from it later, and is, by the first
//! reader: a provider's manifest or part request, or the peer's own
//! restart. Host time cannot pin that in a test; bytes can: the counts
//! repeat exactly from run to run (one thread, no clock), so the bounds
//! sit 10 % above the measured values. A cut that freezes a copy of the
//! ledger again, a materialization that encodes, hashes or keeps a list
//! per history key, or one that outlives the cut it serves breaks them.
//!
//! Before cuts froze, a cut allocated 849 B per key and kept 200 B of it —
//! the rest was encode buffers — and a peer's second cut peaked 2.7 cuts
//! above the first: the old cut, the new one and the encoding of its tail.
//! While cuts froze the ledger, every peer held one frozen copy, 216 B per
//! key: on the benchmark's `crash_recover` workload a quarter of the live
//! heap at its peak.
//!
//! This file holds one test on purpose: the counters are process-wide.

mod support;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    ChaincodeRegistry, Committer, FabricMsg, Machine as _, Peer, PeerAction, SigningIdentity,
    SnapshotPolicy,
};
use hyperprov_ledger::{Block, ChannelId, DEFAULT_CHUNK_ENTRIES};
use hyperprov_sim::ActorId;
use support::{allocated, extend_chain, live, new_committers, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: u64 = 100;
const TXS_PER_BLOCK: u64 = 50;
/// Every post writes its record and its checksum entry.
const KEYS: i64 = (BLOCKS * TXS_PER_BLOCK * 2) as i64;
const PEERS: usize = 4;

/// Bytes materializing a cut may allocate per state key, all of it
/// structure: measured 234 B — a frozen state entry, a frozen history key
/// with its entry count and its one entry, half a transaction id (a post
/// writes two keys), and the last chunk's room. 232 B when every peer
/// froze its ledger at the cut and the last chunk was sized to fit; 184 B
/// while a key and a value were handles of 16 B on allocations of their
/// own rather than ranges of 24 B of an envelope's bytes.
const MATERIALIZED_BYTES_PER_KEY: i64 = 238;

/// Bytes a peer's cut may allocate beyond what committing the same block
/// without one does, whatever the ledger holds: measured 3,072 B, the room
/// its answer grows to for the cut's four actions. A cut that froze the
/// ledger above allocated 2.4 MB.
const CUT_BYTES: i64 = 3_380;

/// A peer that commits `ledger`'s channel, cutting after every block when
/// `cuts`.
fn peer(identity: &SigningIdentity, ledger: Committer, cuts: bool) -> Peer {
    let registry = ChaincodeRegistry::new();
    let mut peer = Peer::new(identity.clone(), registry, "peer0".to_owned());
    if cuts {
        peer.set_snapshots(SnapshotPolicy::every(1));
    }
    peer.host(Rc::new(RefCell::new(ledger)), None);
    peer
}

/// What `input` allocates and what it leaves held, in bytes.
fn cost_of<T>(input: impl FnOnce() -> T) -> (i64, i64, T) {
    let (before, before_live) = (allocated(), live());
    let out = input();
    (allocated() - before, live() - before_live, out)
}

fn deliver(peer: &mut Peer, block: &Block) -> Vec<PeerAction> {
    let block = FabricMsg::DeliverBlock(ChannelId::default(), Arc::new(block.clone()));
    peer.message(ActorId(90), block, true)
}

#[test]
fn a_cut_holds_nothing_per_key_and_its_content_lives_while_it_is_served() {
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

    // Materializing a cut of the whole ledger, on its own: what it
    // allocates, it keeps — there is no scratch buffer to free.
    let (height, tip) = (committers[0].height(), committers[0].store().tip_hash());
    let (bytes, held, materialized) =
        cost_of(|| committers[0].snapshot_at(height, tip, DEFAULT_CHUNK_ENTRIES));
    println!(
        "materializing a cut of {KEYS} keys: {} B allocated per key, {} B held",
        bytes / KEYS,
        held / KEYS
    );
    assert_eq!(materialized.entry_count() as i64, KEYS);
    assert!(
        bytes <= MATERIALIZED_BYTES_PER_KEY * KEYS,
        "materializing a cut allocated {} B per key, budget {MATERIALIZED_BYTES_PER_KEY} B",
        bytes / KEYS
    );
    assert!(
        bytes - held < KEYS,
        "materializing a cut freed {} B of what it allocated: a scratch buffer?",
        bytes - held
    );
    drop(materialized);

    // Two peers on equal ledgers commit the same blocks, one cutting after
    // each: the cut is what the cutting one allocates and holds beyond.
    let next = extend_chain(&mut committers[1], &client, &endorser, 3, TXS_PER_BLOCK);
    let mut plain = peer(&endorser, committers.pop().expect("PEERS > 2"), false);
    let mut cutting = peer(&endorser, committers.pop().expect("PEERS > 2"), true);
    for peer in [&mut plain, &mut cutting] {
        deliver(peer, &next[0]);
    }
    let (plain_bytes, plain_held, _) = cost_of(|| drop(deliver(&mut plain, &next[1])));
    let (cut_bytes, cut_held, _) = cost_of(|| drop(deliver(&mut cutting, &next[1])));
    println!(
        "a cut: {} B allocated, {} B held",
        cut_bytes - plain_bytes,
        cut_held - plain_held
    );
    assert!(
        cut_bytes - plain_bytes <= CUT_BYTES,
        "a cut allocated {} B, budget {CUT_BYTES} B",
        cut_bytes - plain_bytes
    );
    // The cut's record lives in the channel's own slot: it holds nothing,
    // and the block it prunes is freed.
    assert!(
        cut_held <= plain_held,
        "a cut held {} B",
        cut_held - plain_held
    );

    let view = cutting.view().remove(0);
    assert_eq!(view.snapshot_height, Some(BLOCKS + 2));
    assert!(!view.snapshot_resident);

    // A provider's manifest request materializes the cut and seals it; it
    // is kept for the parts that follow, and goes with the next cut.
    let request = FabricMsg::SnapshotRequest {
        channel: ChannelId::default(),
    };
    let (_, serving, _) = cost_of(|| drop(cutting.message(ActorId(7), request, true)));
    assert!(cutting.view()[0].snapshot_resident);
    assert!(
        serving >= held,
        "a served cut holds {serving} B, its content alone is {held} B"
    );
    let (_, after_next_cut, _) = cost_of(|| drop(deliver(&mut cutting, &next[2])));
    assert!(
        serving + after_next_cut <= held / 10,
        "the next cut left {} B of a served cut of {serving} B",
        serving + after_next_cut
    );
}
