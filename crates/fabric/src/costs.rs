//! The CPU cost model: how much reference-CPU time each pipeline step
//! consumes.
//!
//! Costs are expressed as virtual time *on the reference core* (a 2.8 GHz
//! desktop-class CPU ≈ the paper's Xeon E5-1603); the simulator divides by
//! each node's speed factor, so the same table produces desktop and
//! Raspberry Pi behaviour. The constants are calibrated against published
//! Fabric measurements (Thakkar et al., MASCOTS '18; the HyperProv thesis)
//! to land endorsement latency in the low milliseconds and commit
//! throughput in the low hundreds of tx/s on desktop hardware. They are
//! constants, not configuration: the testbeds differ in their device
//! profiles, never in this table.

use hyperprov_sim::SimDuration;

use crate::chaincode::StubStats;
use crate::messages::Proposal;

/// Hashing cost per byte (SHA-256 of payloads, envelope digests).
pub const HASH_PER_BYTE: SimDuration = SimDuration::from_nanos(3);
/// Producing one signature.
pub const SIGN: SimDuration = SimDuration::from_micros(250);
/// Verifying one signature.
pub const VERIFY: SimDuration = SimDuration::from_micros(350);
/// Fixed chaincode invocation overhead (shim dispatch; Fabric pays a
/// container round-trip here).
pub const EXEC_BASE: SimDuration = SimDuration::from_micros(1800);
/// One state read/write/history operation inside chaincode.
pub const STATE_OP: SimDuration = SimDuration::from_micros(60);
/// Marginal cost per byte moved through chaincode or commit I/O.
pub const PER_IO_BYTE: SimDuration = SimDuration::from_nanos(12);
/// Serial half of validation: per-transaction MVCC bookkeeping (VSCC
/// setup + bookkeeping beyond signature verification) that must run in
/// block order.
pub const COMMIT_PER_TX: SimDuration = SimDuration::from_micros(400);
/// Per-block commit overhead (header checks, batch write).
pub const BLOCK_BASE: SimDuration = SimDuration::from_micros(900);
/// Orderer's per-envelope admission work.
pub const ORDER_PER_MSG: SimDuration = SimDuration::from_micros(80);
/// One warm in-memory operation (hash + lookup): copying a snapshot
/// entry, or answering from a manifest already held.
pub const CACHE_HIT_OP: SimDuration = SimDuration::from_micros(5);

/// Cost of hashing `bytes` bytes (e.g. the client-side checksum of a
/// data item before posting).
pub fn hash_cost(bytes: u64) -> SimDuration {
    HASH_PER_BYTE * bytes
}

/// Endorsing peer's cost for one proposal: verify the client signature,
/// run the chaincode, sign the response.
pub fn endorse_cost(proposal: &Proposal, stats: &StubStats) -> SimDuration {
    let arg_bytes: u64 = proposal.args.iter().map(|a| a.len() as u64).sum();
    VERIFY
        + EXEC_BASE
        + STATE_OP * (stats.reads + stats.writes + stats.scanned)
        + PER_IO_BYTE * (stats.bytes_read + stats.bytes_written + arg_bytes)
        + SIGN
}

/// Parallelisable half of a committing peer's validation: the stateless
/// VSCC work for one envelope: `signatures` endorsement verifications
/// (the policy evaluation is free).
pub fn vscc_cost(signatures: u64) -> SimDuration {
    VERIFY * signatures
}

/// Committing peer's cost to apply a validated write set.
pub fn apply_cost(write_bytes: u64, writes: u64) -> SimDuration {
    STATE_OP * writes + PER_IO_BYTE * write_bytes
}

/// Per-block fixed commit cost.
pub fn block_cost(block_bytes: u64) -> SimDuration {
    BLOCK_BASE + hash_cost(block_bytes)
}

/// Orderer admission cost for one envelope of the given size.
pub fn order_cost(envelope_bytes: u64) -> SimDuration {
    ORDER_PER_MSG + hash_cost(envelope_bytes)
}

/// Client cost to build and sign one proposal.
pub fn client_proposal_cost(proposal_bytes: u64) -> SimDuration {
    SIGN + hash_cost(proposal_bytes)
}

/// Committing peer's cost to cut a state snapshot: serialize and hash
/// every entry (a warm in-memory copy per entry plus the Merkle/chunk
/// digests over the serialized bytes).
pub fn snapshot_capture_cost(entries: u64, bytes: u64) -> SimDuration {
    BLOCK_BASE + CACHE_HIT_OP * entries + hash_cost(bytes) + PER_IO_BYTE * bytes
}

/// Restarting peer's cost to restore a snapshot: re-verify the part
/// digests and rebuild the state/history/graph indexes entry by entry.
pub fn snapshot_restore_cost(entries: u64, bytes: u64) -> SimDuration {
    BLOCK_BASE + STATE_OP * entries + hash_cost(bytes)
}

/// Cost to serve or ingest one snapshot part on the wire (I/O plus the
/// transfer digest check).
pub fn snapshot_transfer_cost(bytes: u64) -> SimDuration {
    PER_IO_BYTE * bytes + hash_cost(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{MspBuilder, MspId};

    fn proposal(arg_bytes: usize) -> Proposal {
        let mut b = MspBuilder::new(1);
        let id = b.enroll("c", &MspId::new("org1"));
        Proposal {
            channel: "ch".into(),
            chaincode: "cc".into(),
            function: "f".into(),
            args: vec![vec![0u8; arg_bytes]],
            creator: id.certificate().clone(),
            nonce: 1,
        }
    }

    #[test]
    fn hash_cost_scales_linearly() {
        assert_eq!(hash_cost(0), SimDuration::ZERO);
        assert_eq!(hash_cost(2000).as_nanos(), 2 * hash_cost(1000).as_nanos());
    }

    #[test]
    fn endorse_cost_grows_with_work() {
        let p = proposal(10);
        let light = StubStats {
            reads: 1,
            writes: 1,
            ..StubStats::default()
        };
        let heavy = StubStats {
            reads: 10,
            writes: 10,
            bytes_read: 1 << 20,
            bytes_written: 1 << 20,
            scanned: 100,
        };
        assert!(endorse_cost(&p, &heavy) > endorse_cost(&p, &light));
        // Base cost present even with no state work.
        assert!(endorse_cost(&p, &StubStats::default()) >= EXEC_BASE);
    }

    #[test]
    fn vscc_cost_counts_verifications() {
        assert_eq!(vscc_cost(4), VERIFY * 4);
        assert!(vscc_cost(4) > vscc_cost(1));
    }

    #[test]
    fn snapshot_costs_scale_with_state_not_chain() {
        // Capture and restore grow with the state size...
        assert!(
            snapshot_capture_cost(1000, 1 << 20) > snapshot_capture_cost(10, 1 << 10),
            "capture must scale with entries and bytes"
        );
        assert!(
            snapshot_restore_cost(1000, 1 << 20) > snapshot_restore_cost(10, 1 << 10),
            "restore must scale with entries and bytes"
        );
        // ...but carry a fixed floor even for an empty state.
        assert!(snapshot_capture_cost(0, 0) >= BLOCK_BASE);
        assert!(snapshot_restore_cost(0, 0) >= BLOCK_BASE);
        // Restoring re-applies entries at full state-op cost, so it is
        // dearer per entry than the warm-copy capture.
        let delta = 10_000u64;
        assert!(
            snapshot_restore_cost(delta, 0) > snapshot_capture_cost(delta, 0) - BLOCK_BASE,
            "restore per-entry work must dominate capture's warm copies"
        );
        // Wire transfer is linear in bytes and free for an empty part.
        assert_eq!(snapshot_transfer_cost(0), SimDuration::ZERO);
        assert_eq!(
            snapshot_transfer_cost(4096).as_nanos(),
            4 * snapshot_transfer_cost(1024).as_nanos()
        );
    }

    #[test]
    fn endorsement_latency_in_expected_band() {
        // Sanity: a metadata-only post on the reference CPU should land in
        // the low single-digit milliseconds, matching Fabric measurements.
        let p = proposal(200);
        let stats = StubStats {
            reads: 2,
            writes: 1,
            bytes_read: 300,
            bytes_written: 300,
            scanned: 0,
        };
        let cost = endorse_cost(&p, &stats);
        assert!(cost >= SimDuration::from_micros(1000), "{cost}");
        assert!(cost <= SimDuration::from_millis(10), "{cost}");
    }
}
