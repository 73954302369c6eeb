//! A ProvChain-like baseline: provenance records anchored in a public
//! proof-of-work blockchain.
//!
//! The paper's Related Work positions HyperProv against public-chain
//! provenance systems (ProvChain [Liang et al. 2017], SmartProvenance
//! [Ramachandran & Kantarcioglu 2018]), arguing that permissioned chains
//! "have much less resource requirements compared to public blockchains".
//! This module makes that comparison quantitative: a discrete simulation
//! of a PoW chain with exponentially-distributed block intervals, bounded
//! block capacity, FIFO mempool and k-confirmation finality — plus the
//! defining resource property of PoW, miners burning full power
//! continuously regardless of load.

use std::collections::VecDeque;

use hyperprov_sim::{DetRng, SimDuration, SimTime};
use rand::Rng;

/// Parameters of the PoW chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowConfig {
    /// Mean time between blocks (Bitcoin: 600 s; a fast anchor chain:
    /// 15 s).
    pub block_interval: SimDuration,
    /// Maximum transactions per block.
    pub txs_per_block: usize,
    /// Confirmations required before a record counts as final (ProvChain
    /// waits for several).
    pub confirmations: u32,
    /// Number of mining nodes replicating every record.
    pub miners: u32,
    /// Power draw of one miner, in watts (always-on, load-independent).
    pub miner_watts: f64,
}

impl Default for PowConfig {
    fn default() -> Self {
        PowConfig {
            block_interval: SimDuration::from_secs(15),
            txs_per_block: 200,
            confirmations: 6,
            miners: 8,
            miner_watts: 120.0,
        }
    }
}

/// One submitted provenance anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowTx {
    /// Caller-assigned id.
    pub id: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Record size in bytes (replicated to every miner).
    pub bytes: u64,
}

/// The fate of a submitted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowCommit {
    /// The transaction.
    pub tx: PowTx,
    /// When its block was mined.
    pub mined: SimTime,
    /// When it reached the configured confirmation depth.
    pub finalized: SimTime,
}

/// Simulates the chain over a set of submissions.
#[derive(Debug)]
pub struct PowChain {
    config: PowConfig,
    rng: DetRng,
    mempool: VecDeque<PowTx>,
    commits: Vec<PowCommit>,
    pending_blocks: VecDeque<(SimTime, Vec<PowTx>)>,
    next_block_at: SimTime,
    blocks_mined: u64,
    bytes_on_chain: u64,
}

impl PowChain {
    /// Creates a chain; the first block arrives an exponential interval
    /// after time zero.
    pub fn new(config: PowConfig, seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork("pow");
        let first = exponential(&mut rng, config.block_interval);
        PowChain {
            config,
            rng,
            mempool: VecDeque::new(),
            commits: Vec::new(),
            pending_blocks: VecDeque::new(),
            next_block_at: SimTime::ZERO + first,
            blocks_mined: 0,
            bytes_on_chain: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PowConfig {
        &self.config
    }

    /// Submits a transaction. Submissions must be offered in
    /// non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `tx.submitted` precedes an already-mined block boundary
    /// that was advanced past it (out-of-order submission).
    pub fn submit(&mut self, tx: PowTx) {
        self.advance_to(tx.submitted);
        self.mempool.push_back(tx);
    }

    /// Mines blocks up to virtual time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.next_block_at <= t {
            let mined_at = self.next_block_at;
            // Fill the block FIFO from the mempool with transactions that
            // were submitted before the block was found.
            let mut block = Vec::new();
            while block.len() < self.config.txs_per_block {
                match self.mempool.front() {
                    Some(tx) if tx.submitted <= mined_at => {
                        let tx = self.mempool.pop_front().expect("checked front");
                        self.bytes_on_chain += tx.bytes;
                        block.push(tx);
                    }
                    _ => break,
                }
            }
            self.blocks_mined += 1;
            self.pending_blocks.push_back((mined_at, block));
            // Finalize blocks that now have enough confirmations.
            while self.pending_blocks.len() > self.config.confirmations as usize {
                let (mined, txs) = self.pending_blocks.pop_front().expect("non-empty");
                for tx in txs {
                    self.commits.push(PowCommit {
                        tx,
                        mined,
                        finalized: mined_at,
                    });
                }
            }
            let gap = exponential(&mut self.rng, self.config.block_interval);
            self.next_block_at = mined_at + gap;
        }
    }

    /// Transactions finalized so far (k confirmations deep).
    pub fn commits(&self) -> &[PowCommit] {
        &self.commits
    }

    /// Blocks mined so far.
    pub fn blocks_mined(&self) -> u64 {
        self.blocks_mined
    }

    /// Record bytes stored on-chain so far — multiplied by the miner count
    /// this is the replicated storage footprint.
    pub fn bytes_on_chain(&self) -> u64 {
        self.bytes_on_chain
    }

    /// Energy burned by the mining network over a span, in joules.
    /// PoW's defining property: this does not depend on load.
    pub fn mining_energy_joules(&self, span: SimDuration) -> f64 {
        f64::from(self.config.miners) * self.config.miner_watts * span.as_secs_f64()
    }
}

fn exponential(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    mean.mul_f64(-u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64, at_secs: u64) -> PowTx {
        PowTx {
            id,
            submitted: SimTime::from_secs(at_secs),
            bytes: 500,
        }
    }

    fn fast_config() -> PowConfig {
        PowConfig {
            block_interval: SimDuration::from_secs(10),
            txs_per_block: 5,
            confirmations: 2,
            miners: 4,
            miner_watts: 100.0,
        }
    }

    #[test]
    fn single_tx_finalizes_after_confirmations() {
        let mut chain = PowChain::new(fast_config(), 1);
        chain.submit(tx(1, 0));
        chain.advance_to(SimTime::from_secs(1_000));
        assert_eq!(chain.commits().len(), 1);
        let commit = chain.commits()[0];
        assert!(commit.mined >= commit.tx.submitted);
        assert!(commit.finalized > commit.mined);
        // At least `confirmations` further blocks were needed.
        assert!(chain.blocks_mined() >= 3);
    }

    #[test]
    fn latency_is_orders_of_magnitude_above_fabric() {
        // Mean finalization latency should be near
        // (0.5 + confirmations) * block_interval >> Fabric's ~2 s.
        let mut chain = PowChain::new(PowConfig::default(), 7);
        for i in 0..100 {
            chain.submit(PowTx {
                id: i,
                submitted: SimTime::from_secs(i * 2),
                bytes: 300,
            });
        }
        chain.advance_to(SimTime::from_secs(100_000));
        assert_eq!(chain.commits().len(), 100);
        let mean_latency: f64 = chain
            .commits()
            .iter()
            .map(|c| (c.finalized - c.tx.submitted).as_secs_f64())
            .sum::<f64>()
            / 100.0;
        assert!(mean_latency > 60.0, "mean pow latency {mean_latency}s");
    }

    #[test]
    fn block_capacity_bounds_throughput() {
        let mut chain = PowChain::new(fast_config(), 3);
        // Burst of 100 txs at t=0; capacity 5/10s → needs ≥ 20 blocks.
        for i in 0..100 {
            chain.submit(tx(i, 0));
        }
        chain.advance_to(SimTime::from_secs(130));
        // ~13 blocks expected by t=130: at most 65 mined, minus
        // confirmation lag for finalization.
        assert!(chain.commits().len() < 100);
        chain.advance_to(SimTime::from_secs(10_000));
        assert_eq!(chain.commits().len(), 100);
    }

    #[test]
    fn fifo_ordering_preserved() {
        let mut chain = PowChain::new(fast_config(), 5);
        for i in 0..50 {
            chain.submit(tx(i, i / 4));
        }
        chain.advance_to(SimTime::from_secs(5_000));
        let ids: Vec<u64> = chain.commits().iter().map(|c| c.tx.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut chain = PowChain::new(fast_config(), seed);
            for i in 0..20 {
                chain.submit(tx(i, i));
            }
            chain.advance_to(SimTime::from_secs(2_000));
            chain
                .commits()
                .iter()
                .map(|c| c.finalized.as_nanos())
                .sum::<u64>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn energy_is_load_independent_and_large() {
        let chain = PowChain::new(PowConfig::default(), 1);
        let hour = SimDuration::from_secs(3600);
        let joules = chain.mining_energy_joules(hour);
        // 8 miners * 120 W * 3600 s.
        assert!((joules - 3_456_000.0).abs() < 1.0);
    }

    #[test]
    fn finalized_records_count_as_bytes_on_chain() {
        let mut chain = PowChain::new(fast_config(), 2);
        chain.submit(tx(1, 0));
        chain.advance_to(SimTime::from_secs(1_000));
        assert_eq!(chain.bytes_on_chain(), 500);
    }
}
