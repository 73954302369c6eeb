//! The CPU cost model: how much reference-CPU time each pipeline step
//! consumes.
//!
//! Costs are expressed as virtual time *on the reference core* (a 2.8 GHz
//! desktop-class CPU ≈ the paper's Xeon E5-1603); the simulator divides by
//! each node's speed factor, so the same table produces desktop and
//! Raspberry Pi behaviour. The constants are calibrated against published
//! Fabric measurements (Thakkar et al., MASCOTS '18; the HyperProv thesis)
//! to land endorsement latency in the low milliseconds and commit
//! throughput in the low hundreds of tx/s on desktop hardware.

use hyperprov_sim::SimDuration;

use crate::chaincode::StubStats;
use crate::messages::Proposal;

/// Reference-CPU cost table for peers, orderers and clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Hashing cost per byte (SHA-256 of payloads, envelope digests).
    pub hash_per_byte: SimDuration,
    /// Producing one signature.
    pub sign: SimDuration,
    /// Verifying one signature.
    pub verify: SimDuration,
    /// Fixed chaincode invocation overhead (shim dispatch; Fabric pays a
    /// container round-trip here).
    pub exec_base: SimDuration,
    /// One state read/write/history operation inside chaincode.
    pub state_op: SimDuration,
    /// Marginal cost per byte moved through chaincode or commit I/O.
    pub per_io_byte: SimDuration,
    /// Per-transaction commit work (VSCC setup + bookkeeping), beyond
    /// signature verification.
    pub commit_per_tx: SimDuration,
    /// Per-block commit overhead (header checks, batch write).
    pub block_base: SimDuration,
    /// Orderer's per-envelope admission work.
    pub order_per_msg: SimDuration,
    /// One warm in-memory operation (hash + lookup): copying a snapshot
    /// entry, or answering from a manifest already held.
    pub cache_hit_op: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hash_per_byte: SimDuration::from_nanos(3),
            sign: SimDuration::from_micros(250),
            verify: SimDuration::from_micros(350),
            exec_base: SimDuration::from_micros(1800),
            state_op: SimDuration::from_micros(60),
            per_io_byte: SimDuration::from_nanos(12),
            commit_per_tx: SimDuration::from_micros(400),
            block_base: SimDuration::from_micros(900),
            order_per_msg: SimDuration::from_micros(80),
            cache_hit_op: SimDuration::from_micros(5),
        }
    }
}

impl CostModel {
    /// Cost of hashing `bytes` bytes (e.g. the client-side checksum of a
    /// data item before posting).
    pub fn hash_cost(&self, bytes: u64) -> SimDuration {
        self.hash_per_byte * bytes
    }

    /// Endorsing peer's cost for one proposal: verify the client
    /// signature, run the chaincode, sign the response.
    pub fn endorse_cost(&self, proposal: &Proposal, stats: &StubStats) -> SimDuration {
        let arg_bytes: u64 = proposal.args.iter().map(|a| a.len() as u64).sum();
        self.verify
            + self.exec_base
            + self.state_op * (stats.reads + stats.writes + stats.scanned)
            + self.per_io_byte * (stats.bytes_read + stats.bytes_written + arg_bytes)
            + self.sign
    }

    /// Parallelisable half of a committing peer's validation: the
    /// stateless VSCC work for one envelope: `signatures` endorsement
    /// verifications (the policy evaluation is free).
    pub fn vscc_cost(&self, signatures: u64) -> SimDuration {
        self.verify * signatures
    }

    /// Serial half of validation: per-transaction MVCC bookkeeping that
    /// must run in block order.
    pub fn mvcc_cost(&self) -> SimDuration {
        self.commit_per_tx
    }

    /// Committing peer's cost to apply a validated write set.
    pub fn apply_cost(&self, write_bytes: u64, writes: u64) -> SimDuration {
        self.state_op * writes + self.per_io_byte * write_bytes
    }

    /// Per-block fixed commit cost.
    pub fn block_cost(&self, block_bytes: u64) -> SimDuration {
        self.block_base + self.hash_cost(block_bytes)
    }

    /// Orderer admission cost for one envelope of the given size.
    pub fn order_cost(&self, envelope_bytes: u64) -> SimDuration {
        self.order_per_msg + self.hash_cost(envelope_bytes)
    }

    /// Client cost to build and sign one proposal.
    pub fn client_proposal_cost(&self, proposal_bytes: u64) -> SimDuration {
        self.sign + self.hash_cost(proposal_bytes)
    }

    /// Committing peer's cost to cut a state snapshot: serialize and hash
    /// every entry (a warm in-memory copy per entry plus the Merkle/chunk
    /// digests over the serialized bytes).
    pub fn snapshot_capture_cost(&self, entries: u64, bytes: u64) -> SimDuration {
        self.block_base
            + self.cache_hit_op * entries
            + self.hash_cost(bytes)
            + self.per_io_byte * bytes
    }

    /// Restarting peer's cost to restore a snapshot: re-verify the part
    /// digests and rebuild the state/history/graph indexes entry by entry.
    pub fn snapshot_restore_cost(&self, entries: u64, bytes: u64) -> SimDuration {
        self.block_base + self.state_op * entries + self.hash_cost(bytes)
    }

    /// Cost to serve or ingest one snapshot part on the wire (I/O plus the
    /// transfer digest check).
    pub fn snapshot_transfer_cost(&self, bytes: u64) -> SimDuration {
        self.per_io_byte * bytes + self.hash_cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{MspBuilder, MspId};

    fn model() -> CostModel {
        CostModel::default()
    }

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
        let m = model();
        assert_eq!(m.hash_cost(0), SimDuration::ZERO);
        assert_eq!(
            m.hash_cost(2000).as_nanos(),
            2 * m.hash_cost(1000).as_nanos()
        );
    }

    #[test]
    fn endorse_cost_grows_with_work() {
        let m = model();
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
        assert!(m.endorse_cost(&p, &heavy) > m.endorse_cost(&p, &light));
        // Base cost present even with no state work.
        assert!(m.endorse_cost(&p, &StubStats::default()) >= m.exec_base);
    }

    #[test]
    fn vscc_cost_counts_verifications() {
        let m = model();
        assert_eq!(m.vscc_cost(4), m.verify * 4);
        assert!(m.vscc_cost(4) > m.vscc_cost(1));
        assert_eq!(m.mvcc_cost(), m.commit_per_tx);
    }

    #[test]
    fn snapshot_costs_scale_with_state_not_chain() {
        let m = model();
        // Capture and restore grow with the state size...
        assert!(
            m.snapshot_capture_cost(1000, 1 << 20) > m.snapshot_capture_cost(10, 1 << 10),
            "capture must scale with entries and bytes"
        );
        assert!(
            m.snapshot_restore_cost(1000, 1 << 20) > m.snapshot_restore_cost(10, 1 << 10),
            "restore must scale with entries and bytes"
        );
        // ...but carry a fixed floor even for an empty state.
        assert!(m.snapshot_capture_cost(0, 0) >= m.block_base);
        assert!(m.snapshot_restore_cost(0, 0) >= m.block_base);
        // Restoring re-applies entries at full state-op cost, so it is
        // dearer per entry than the warm-copy capture.
        let delta = 10_000u64;
        assert!(
            m.snapshot_restore_cost(delta, 0) > m.snapshot_capture_cost(delta, 0) - m.block_base,
            "restore per-entry work must dominate capture's warm copies"
        );
        // Wire transfer is linear in bytes and free for an empty part.
        assert_eq!(m.snapshot_transfer_cost(0), SimDuration::ZERO);
        assert_eq!(
            m.snapshot_transfer_cost(4096).as_nanos(),
            4 * m.snapshot_transfer_cost(1024).as_nanos()
        );
    }

    #[test]
    fn endorsement_latency_in_expected_band() {
        // Sanity: a metadata-only post on the reference CPU should land in
        // the low single-digit milliseconds, matching Fabric measurements.
        let m = model();
        let p = proposal(200);
        let stats = StubStats {
            reads: 2,
            writes: 1,
            bytes_read: 300,
            bytes_written: 300,
            scanned: 0,
        };
        let cost = m.endorse_cost(&p, &stats);
        assert!(cost >= SimDuration::from_micros(1000), "{cost}");
        assert!(cost <= SimDuration::from_millis(10), "{cost}");
    }
}
