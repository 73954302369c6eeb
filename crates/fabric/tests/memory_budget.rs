//! The memory gate: live heap per committed record, counted by an
//! allocator of this test's own.
//!
//! Four committers are fed clones of the same 400 blocks, as the four
//! peers of a deployment are. What a record may cost is fixed here in
//! bytes; the counts repeat exactly from run to run (one thread, no
//! clock), so the bounds sit 10 % above the measured values and a copy of
//! the block body, a value or a key per peer — a replica's keys and values
//! are ranges of the envelope bytes all four share — or a history list per
//! key beside the state, breaks them.
//!
//! This file holds one test on purpose: the counter is process-wide.

mod support;

use hyperprov_fabric::Committer;
use support::{extend_chain, live, new_committers, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: u64 = 400;
const TXS_PER_BLOCK: u64 = 50;
const RECORDS: u64 = BLOCKS * TXS_PER_BLOCK;
const PEERS: usize = 4;

/// Live heap all four committers may hold per record, block bodies
/// included: measured 3,181 B (10,619 B before bodies, keys and values
/// were shared; 5,467 B while the block store also indexed every tx id;
/// 5,146 B while every key kept a history list beside its state entry;
/// 4,288 B while each replica copied its keys and values out of the
/// envelopes).
const TOTAL_BYTES_PER_RECORD: i64 = 3_499;
/// What the fourth committer may add per record on top of three:
/// measured 604 B (2,654 B before sharing, 1,178 B with the index,
/// 1,098 B with a history list per key, 884 B with its own keys and
/// values).
const MARGINAL_BYTES_PER_RECORD: i64 = 664;

#[test]
fn four_replicas_stay_within_the_per_record_byte_budget() {
    let (client, endorser, new_committer) = new_committers();

    let empty = live();
    let mut committers: Vec<Committer> = (0..PEERS).map(|_| new_committer()).collect();

    // The chain is cut by the first committer; the others get clones of
    // its blocks, as peers get clones of the orderer's.
    let (first, rest) = committers.split_first_mut().expect("PEERS > 0");
    let blocks = extend_chain(first, &client, &endorser, BLOCKS, TXS_PER_BLOCK);
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
