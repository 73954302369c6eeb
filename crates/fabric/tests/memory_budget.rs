//! The memory gate: live heap per committed record, counted by an
//! allocator of this test's own.
//!
//! Four committers are fed clones of the same 400 blocks, as the four
//! peers of a deployment are. What a record may cost is fixed here in
//! bytes; the counts repeat exactly from run to run (one thread, no
//! clock), so the bounds sit 10 % above the measured values and a copy of
//! the block body, a value or a key per peer breaks them.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use hyperprov_fabric::{
    endorsement_message, ChaincodeEvent, ChannelPolicies, Committer, Endorsement,
    EndorsementPolicy, Envelope, MspBuilder, MspId, Proposal, SigningIdentity, COMPOSITE_SEP,
};
use hyperprov_ledger::{
    Block, Digest, GraphIndexer, GraphUpdate, KvRead, KvWrite, RwSet, StateKey, DEFAULT_CHANNEL,
};

static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic and
// publishes no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

const BLOCKS: u64 = 400;
const TXS_PER_BLOCK: u64 = 50;
const RECORDS: u64 = BLOCKS * TXS_PER_BLOCK;
const PEERS: usize = 4;

/// Live heap all four committers may hold per record, block bodies
/// included: measured 5,467 B (10,619 B before bodies, keys and values
/// were shared).
const TOTAL_BYTES_PER_RECORD: i64 = 6_013;
/// What the fourth committer may add per record on top of three:
/// measured 1,178 B (2,654 B before).
const MARGINAL_BYTES_PER_RECORD: i64 = 1_295;

const NAMESPACE: &str = "hyperprov";
/// A metadata-only provenance record without parents encodes to about
/// this many bytes.
const RECORD_BYTES: usize = 124;

/// Recognises `item~<key>~` writes as parentless graph nodes, as the
/// application's indexer does for metadata-only posts.
#[derive(Debug)]
struct ItemIndexer;

impl GraphIndexer for ItemIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate> {
        let mut parts = key.key.split(COMPOSITE_SEP);
        let ("item", Some(item)) = (parts.next()?, parts.next()) else {
            return None;
        };
        let key = item.to_owned();
        Some(match value {
            Some(_) => GraphUpdate::Insert {
                key,
                parents: vec![],
            },
            None => GraphUpdate::Remove { key },
        })
    }
}

/// One endorsed `post` of a fresh key, shaped like the benchmark's
/// `ledger_growth` transactions: the record under `item~<key>~`, the key
/// under `cs~<checksum>~<key>~`, and an envelope of about 700 bytes.
fn post(client: &SigningIdentity, endorser: &SigningIdentity, nonce: u64) -> Envelope {
    let key = format!("scale1-c{:05}-k{}", nonce % 16, nonce / 16);
    let sep = COMPOSITE_SEP;
    let item_key = format!("item{sep}{key}{sep}");
    let checksum = Digest::of(key.as_bytes()).to_hex();
    let checksum_key = format!("cs{sep}{checksum}{sep}{key}{sep}");
    let record = vec![nonce as u8; RECORD_BYTES];
    let state_key = |k: &str| StateKey::new(NAMESPACE, k);
    let rwset = RwSet {
        reads: vec![KvRead {
            key: state_key(&item_key),
            version: None,
        }],
        writes: vec![
            KvWrite {
                key: state_key(&item_key),
                value: Some(record.as_slice().into()),
            },
            KvWrite {
                key: state_key(&checksum_key),
                value: Some(key.as_bytes().into()),
            },
        ],
    };
    let proposal = Proposal {
        channel: DEFAULT_CHANNEL.into(),
        chaincode: NAMESPACE.into(),
        function: "post".into(),
        args: vec![key.clone().into_bytes(), vec![0; 45]],
        creator: client.certificate().clone(),
        nonce,
    };
    let message = endorsement_message(&proposal.tx_id(), &record, &rwset);
    Envelope {
        proposal,
        payload: record,
        rwset,
        event: Some(ChaincodeEvent {
            name: "post".to_owned(),
            payload: key.into_bytes(),
        }),
        endorsements: vec![Endorsement {
            endorser: endorser.certificate().clone(),
            signature: endorser.sign(&message),
        }],
    }
}

#[test]
fn four_replicas_stay_within_the_per_record_byte_budget() {
    let org = MspId::new("org1");
    let mut msp = MspBuilder::new(1);
    let client = msp.enroll("client0", &org);
    let endorser = msp.enroll("peer0", &org);
    let msp = msp.build();
    let new_committer = || {
        Committer::new(
            msp.clone(),
            ChannelPolicies::new(EndorsementPolicy::any_of([org.clone()])),
        )
        .with_indexer(Arc::new(ItemIndexer))
    };

    let empty = live();
    let mut committers: Vec<Committer> = (0..PEERS).map(|_| new_committer()).collect();

    // The chain is cut by the first committer; the others get clones of
    // its blocks, as peers get clones of the orderer's.
    let (first, rest) = committers.split_first_mut().expect("PEERS > 0");
    let mut blocks = Vec::with_capacity(BLOCKS as usize);
    for number in 0..BLOCKS {
        let envelopes = (0..TXS_PER_BLOCK)
            .map(|i| post(&client, &endorser, number * TXS_PER_BLOCK + i).to_raw())
            .collect();
        let block = Block::build(number, first.store().tip_hash(), envelopes);
        let outcome = first.commit_block(block.clone()).expect("extends");
        assert_eq!(u64::from(outcome.valid), TXS_PER_BLOCK);
        blocks.push(block);
    }
    let (last, middle) = rest.split_last_mut().expect("PEERS > 1");
    for committer in middle {
        for block in &blocks {
            committer.commit_block(block.clone()).expect("extends");
        }
    }
    let before_last = live();
    for block in &blocks {
        last.commit_block(block.clone()).expect("extends");
    }
    let marginal = (live() - before_last) / RECORDS as i64;

    // From here on only the committers hold the chain.
    drop(blocks);
    let total = (live() - empty) / RECORDS as i64;

    for committer in &committers {
        assert_eq!(committer.state().len() as u64, 2 * RECORDS);
        assert_eq!(committer.graph().len() as u64, RECORDS);
        assert_eq!(
            committer.state().state_hash(),
            committers[0].state().state_hash()
        );
    }
    println!("live heap per record: total {total} B, fourth replica {marginal} B");
    assert!(
        total <= TOTAL_BYTES_PER_RECORD,
        "{PEERS} replicas hold {total} B per record, budget {TOTAL_BYTES_PER_RECORD} B"
    );
    assert!(
        marginal <= MARGINAL_BYTES_PER_RECORD,
        "the fourth replica adds {marginal} B per record, budget {MARGINAL_BYTES_PER_RECORD} B"
    );
}
