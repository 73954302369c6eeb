//! The commit-path gate: what validating and committing one transaction
//! may allocate on one replica, counted by the allocator
//! `memory_budget.rs` counts with.
//!
//! A replica reads every envelope of a delivered block where it lies, in
//! the block's shared bytes, and copies nothing out of it that the ledger
//! keeps: a read is looked up by the key as it lies in the envelope, and
//! the key and the value of each write of a valid transaction are ranges
//! of the envelope's bytes. Host time cannot pin that in a test; calls
//! and bytes can: the counts repeat exactly from run to run (one thread,
//! no clock), so the bounds sit 10 % above the measured values. Decoding
//! an envelope into owned fields, re-encoding a span to hash or verify
//! it, one copy of an envelope's bytes, or a copy of a key or a value
//! breaks them.
//!
//! Before envelopes were read in place the same replica made 39.02 calls
//! for 2,437 B per transaction in the stateless phase (an owned envelope,
//! the proposal re-encoded for its id, the signed message re-encoded) and
//! 4.73 for 1,427 B in the serial one, which moved keys and values out of
//! the decoded envelope; 43.75 calls together, 12.75 while each write
//! also started a history list of its own beside the state, 10.75 while
//! the serial phase copied the read's key and the writes' keys and values
//! out of the envelope, 5.75 while the commit also listed the keys it
//! wrote, 5.63 now.
//!
//! This file holds one test on purpose: the counters are process-wide.

mod support;

use support::{allocated, calls, extend_chain, new_committers, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: u64 = 400;
const TXS_PER_BLOCK: u64 = 50;
const TXS: i64 = (BLOCKS * TXS_PER_BLOCK) as i64;

/// The stateless phase, per 100 transactions: measured 102 calls — a
/// list of endorsing organisations per envelope and a vector of verdicts
/// per 50-transaction block — for 20,000 B.
const VSCC_CALLS_PER_100_TX: i64 = 112;
const VSCC_BYTES_PER_100_TX: i64 = 22_000;
/// The serial phase, per 100 transactions: measured 461 calls — per
/// transaction the graph update and the graph's node for its record, the
/// name and payload of its event; the rest is maps and vectors growing —
/// for 104,170 B (473 calls for 116,460 B while the commit also listed
/// the keys it wrote; 973 calls for 141,940 B while the looked-up key of
/// its read and the key and value of each of its two writes were copies).
const SERIAL_CALLS_PER_100_TX: i64 = 507;
const SERIAL_BYTES_PER_100_TX: i64 = 114_590;

#[test]
fn a_replica_commits_a_transaction_within_the_allocation_budget() {
    let (client, endorser, new_committer) = new_committers();
    let mut first = new_committer();
    let blocks = extend_chain(&mut first, &client, &endorser, BLOCKS, TXS_PER_BLOCK);

    // A second replica, fed clones of the orderer's blocks as a peer is.
    let mut replica = new_committer();
    // (allocator calls, bytes allocated) of each phase, summed over blocks.
    let (mut vscc, mut serial) = ((0, 0), (0, 0));
    let counters = || (calls(), allocated());
    let add_since = |sum: &mut (i64, i64), start: (i64, i64)| {
        let now = counters();
        *sum = (sum.0 + now.0 - start.0, sum.1 + now.1 - start.1);
    };
    for block in &blocks {
        let block = block.clone();
        let start = counters();
        let verdicts = replica.vscc_block(&block);
        add_since(&mut vscc, start);
        let start = counters();
        let outcome = replica.commit_block_prevalidated(block, verdicts);
        add_since(&mut serial, start);
        assert_eq!(u64::from(outcome.expect("extends").valid), TXS_PER_BLOCK);
    }
    assert_eq!(replica.state().state_hash(), first.state().state_hash());

    let per_tx = |total: i64| total as f64 / TXS as f64;
    println!(
        "per committed tx: VSCC {:.2} calls {:.1} B, serial {:.2} calls {:.1} B",
        per_tx(vscc.0),
        per_tx(vscc.1),
        per_tx(serial.0),
        per_tx(serial.1)
    );
    for (what, spent, budget) in [
        ("VSCC calls", vscc.0, VSCC_CALLS_PER_100_TX),
        ("VSCC bytes", vscc.1, VSCC_BYTES_PER_100_TX),
        ("serial calls", serial.0, SERIAL_CALLS_PER_100_TX),
        ("serial bytes", serial.1, SERIAL_BYTES_PER_100_TX),
    ] {
        assert!(
            spent * 100 <= budget * TXS,
            "{what}: {:.2} per tx, budget {:.2}",
            per_tx(spent),
            budget as f64 / 100.0
        );
    }
}
