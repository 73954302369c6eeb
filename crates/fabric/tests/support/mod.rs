//! What the allocation-counting tests share: the counting allocator (each
//! test file installs it as its own global allocator), and the generator
//! of `ledger_growth`-shaped transactions they fill their ledgers with.
#![allow(dead_code)] // each test file uses its own part of this module

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
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCATED: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

fn grew(by: i64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCATED.fetch_add(by, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics and
// publish no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let by = new_size as i64 - layout.size() as i64;
        if by > 0 {
            grew(by);
        } else {
            LIVE.fetch_add(by, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes allocated and not yet freed.
pub fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes ever allocated (growth by `realloc` included).
pub fn allocated() -> i64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Calls to `alloc` and `realloc` so far, as the benchmark's traced run
/// counts them (`host.allocs_per_op`).
pub fn calls() -> i64 {
    CALLS.load(Ordering::Relaxed)
}

/// The highest [`live`] since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new [`peak`] measurement from the current [`live`].
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

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

/// `clients` clients, `peers` endorsing peers of the same organisation,
/// and a maker of empty committers that accept what any two of them sign
/// and index it with [`ItemIndexer`].
pub fn network(
    clients: usize,
    peers: usize,
) -> (
    Vec<SigningIdentity>,
    Vec<SigningIdentity>,
    impl Fn() -> Committer,
) {
    let org = MspId::new("org1");
    let mut msp = MspBuilder::new(1);
    let mut enroll = |role: &str, n: usize| -> Vec<SigningIdentity> {
        (0..n)
            .map(|i| msp.enroll(&format!("{role}{i}"), &org))
            .collect()
    };
    let (clients, peers) = (enroll("client", clients), enroll("peer", peers));
    let msp = msp.build();
    let new_committer = move || {
        Committer::new(
            msp.clone(),
            ChannelPolicies::new(EndorsementPolicy::any_of([org.clone()])),
        )
        .with_indexer(Arc::new(ItemIndexer))
    };
    (clients, peers, new_committer)
}

/// [`network`] with one client and one endorsing peer.
pub fn new_committers() -> (SigningIdentity, SigningIdentity, impl Fn() -> Committer) {
    let (mut clients, mut peers, new_committer) = network(1, 1);
    (clients.remove(0), peers.remove(0), new_committer)
}

/// One endorsed `post` of a fresh key, shaped like the benchmark's
/// `ledger_growth` transactions: the record under `item~<key>~`, the key
/// under `cs~<checksum>~<key>~`, and an envelope of about 700 bytes.
pub fn post(client: &SigningIdentity, endorser: &SigningIdentity, nonce: u64) -> Envelope {
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

/// Cuts `blocks` blocks of `txs_per_block` fresh posts each on top of
/// `first`'s chain, committing each to it; the other replicas get clones
/// of the returned blocks, as peers get clones of the orderer's.
pub fn extend_chain(
    first: &mut Committer,
    client: &SigningIdentity,
    endorser: &SigningIdentity,
    blocks: u64,
    txs_per_block: u64,
) -> Vec<Block> {
    (first.height()..first.height() + blocks)
        .map(|number| {
            let envelopes: Vec<_> = (0..txs_per_block)
                .map(|i| post(client, endorser, number * txs_per_block + i).to_raw())
                .collect();
            let block = Block::build(number, first.store().tip_hash(), envelopes);
            let outcome = first.commit_block(block.clone()).expect("extends");
            assert_eq!(u64::from(outcome.valid), txs_per_block);
            block
        })
        .collect()
}
