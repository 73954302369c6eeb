//! The ordering service's batching logic (Fabric's "block cutter").
//!
//! Envelopes stream in from clients; the cutter groups them into batches
//! by message count, byte size and timeout — the three knobs
//! (`MaxMessageCount`, `PreferredMaxBytes`, `BatchTimeout`) that dominate
//! Fabric's latency/throughput trade-off and therefore the shape of the
//! paper's Figures 1 and 2.

use std::sync::Arc;

use hyperprov_ledger::{Block, Digest, RawEnvelope, TxId};
use hyperprov_sim::SimDuration;

/// Batch formation parameters, mirroring Fabric's `BatchSize`/`BatchTimeout`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Cut a batch once it holds this many messages.
    pub max_message_count: usize,
    /// Prefer batches no larger than this many payload bytes.
    pub preferred_max_bytes: u64,
    /// Cut a non-empty pending batch after this long.
    pub timeout: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // Fabric v1.4 sample defaults: 10 msgs / 512 KiB / 2 s.
        BatchConfig {
            max_message_count: 10,
            preferred_max_bytes: 512 * 1024,
            timeout: SimDuration::from_secs(2),
        }
    }
}

/// What the cutter wants the caller (the orderer node) to do after an
/// `offer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutterOutput {
    /// Batches that must be turned into blocks, in order.
    pub batches: Vec<Vec<RawEnvelope>>,
    /// True if a batch timer should now be running (pending non-empty).
    pub timer_needed: bool,
}

/// Groups incoming envelopes into batches.
#[derive(Debug, Default)]
pub struct BlockCutter {
    config: BatchConfig,
    pending: Vec<RawEnvelope>,
    pending_bytes: u64,
}

impl BlockCutter {
    /// Creates a cutter with the given configuration.
    pub fn new(config: BatchConfig) -> Self {
        BlockCutter {
            config,
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Offers one envelope; returns any batches that must be cut now and
    /// whether a batch timer should be running afterwards.
    pub fn offer(&mut self, env: RawEnvelope) -> CutterOutput {
        let size = env.bytes.len() as u64;
        let mut batches = Vec::new();

        // Oversized message: flush pending, then emit it alone.
        if size > self.config.preferred_max_bytes {
            if !self.pending.is_empty() {
                batches.push(self.take_pending());
            }
            batches.push(vec![env]);
            return CutterOutput {
                batches,
                timer_needed: false,
            };
        }

        // Would overflow the preferred size: cut pending first.
        if !self.pending.is_empty() && self.pending_bytes + size > self.config.preferred_max_bytes {
            batches.push(self.take_pending());
        }

        self.pending.push(env);
        self.pending_bytes += size;

        if self.pending.len() >= self.config.max_message_count {
            batches.push(self.take_pending());
        }

        CutterOutput {
            timer_needed: !self.pending.is_empty(),
            batches,
        }
    }

    /// How many envelopes are pending.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Whether `tx_id` is pending.
    pub fn holds(&self, tx_id: &TxId) -> bool {
        self.pending.iter().any(|env| env.tx_id == *tx_id)
    }

    /// Cuts whatever is pending (the batch-timeout path). Returns `None`
    /// if nothing is pending.
    pub fn cut(&mut self) -> Option<Vec<RawEnvelope>> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.take_pending())
        }
    }

    fn take_pending(&mut self) -> Vec<RawEnvelope> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }
}

/// Tracks chain position and assembles batches into blocks.
#[derive(Debug)]
pub struct BlockAssembler {
    next_number: u64,
    prev_hash: Digest,
}

impl BlockAssembler {
    /// Starts a fresh chain (next block is genesis).
    pub fn new() -> Self {
        BlockAssembler {
            next_number: 0,
            prev_hash: Digest::ZERO,
        }
    }

    /// Builds the next block in the chain from a batch.
    pub fn assemble(&mut self, batch: impl Into<Arc<[RawEnvelope]>>) -> Block {
        let block = Block::build(self.next_number, self.prev_hash, batch);
        self.next_number += 1;
        self.prev_hash = block.header.hash();
        block
    }
}

impl Default for BlockAssembler {
    fn default() -> Self {
        BlockAssembler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperprov_ledger::TxId;

    fn env(tag: u64, size: usize) -> RawEnvelope {
        RawEnvelope {
            tx_id: TxId(Digest::of(&tag.to_le_bytes())),
            bytes: vec![0u8; size].into(),
        }
    }

    fn cutter(count: usize, bytes: u64) -> BlockCutter {
        BlockCutter::new(BatchConfig {
            max_message_count: count,
            preferred_max_bytes: bytes,
            timeout: SimDuration::from_secs(2),
        })
    }

    #[test]
    fn cuts_at_message_count() {
        let mut c = cutter(3, 1 << 20);
        assert!(c.offer(env(1, 10)).batches.is_empty());
        assert!(c.offer(env(2, 10)).batches.is_empty());
        let out = c.offer(env(3, 10));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].len(), 3);
        assert!(!out.timer_needed);
    }

    #[test]
    fn timer_needed_while_pending() {
        let mut c = cutter(10, 1 << 20);
        let out = c.offer(env(1, 10));
        assert!(out.timer_needed);
        let batch = c.cut().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(c.cut().is_none());
    }

    #[test]
    fn oversized_message_is_own_batch() {
        let mut c = cutter(10, 100);
        c.offer(env(1, 50));
        let out = c.offer(env(2, 500));
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].len(), 1); // flushed pending
        assert_eq!(out.batches[1].len(), 1); // oversized alone
        assert!(!out.timer_needed);
    }

    #[test]
    fn preferred_bytes_overflow_cuts_pending_first() {
        let mut c = cutter(10, 100);
        c.offer(env(1, 60));
        let out = c.offer(env(2, 60));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].len(), 1);
        assert!(out.timer_needed);
    }

    #[test]
    fn count_one_cuts_every_message() {
        let mut c = cutter(1, 1 << 20);
        for i in 0..5 {
            let out = c.offer(env(i, 10));
            assert_eq!(out.batches.len(), 1);
            assert!(!out.timer_needed);
        }
    }

    #[test]
    fn assembler_chains_blocks() {
        let mut asm = BlockAssembler::new();
        let b0 = asm.assemble(vec![env(1, 10)]);
        let b1 = asm.assemble(vec![env(2, 10)]);
        let b2 = asm.assemble(vec![]);
        assert_eq!(b0.header.number, 0);
        assert_eq!(b0.header.prev_hash, Digest::ZERO);
        assert_eq!(b1.header.prev_hash, b0.header.hash());
        assert_eq!(b2.header.prev_hash, b1.header.hash());
        assert_eq!(asm.next_number, 3);
    }

    #[test]
    fn default_config_matches_fabric_sample() {
        let c = BatchConfig::default();
        assert_eq!(c.max_message_count, 10);
        assert_eq!(c.preferred_max_bytes, 512 * 1024);
        assert_eq!(c.timeout, SimDuration::from_secs(2));
    }
}
