//! Key → channel routing for sharded (multi-channel) deployments.
//!
//! A [`Client`](crate::Client) on a multi-channel network has one
//! gateway route per channel and asks [`HashRouter`] which
//! channel owns an item key. Routing is a pure function of the key and
//! the channel count: every client in the deployment maps the same key to
//! the same channel, across clients and across runs, or reads would miss
//! the shard that holds the record.

use hyperprov_ledger::Digest;

/// The router: hash partitioning on the item key.
///
/// Uses the first 8 bytes of the key's content digest interpreted as a
/// big-endian `u64`, modulo the channel count — uniform, stable under
/// channel-preserving redeployments, and independent of insertion order.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

impl HashRouter {
    /// The shard index in `0..n` that owns `key`. `n` is at least 1.
    pub fn route(&self, key: &str, n: usize) -> usize {
        debug_assert!(n >= 1, "router needs at least one channel");
        if n <= 1 {
            return 0;
        }
        let digest = Digest::of(key.as_bytes());
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&digest.as_bytes()[..8]);
        (u64::from_be_bytes(prefix) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_across_instances() {
        let a = HashRouter;
        let b = HashRouter;
        for n in [1usize, 2, 4, 8] {
            for i in 0..200 {
                let key = format!("item-{i}");
                assert_eq!(a.route(&key, n), b.route(&key, n));
                assert!(a.route(&key, n) < n);
            }
        }
    }

    #[test]
    fn single_channel_always_routes_to_zero() {
        for i in 0..50 {
            assert_eq!(HashRouter.route(&format!("k{i}"), 1), 0);
        }
    }

    #[test]
    fn hash_partitioning_spreads_keys() {
        // 400 keys over 4 shards: every shard gets a meaningful share.
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[HashRouter.route(&format!("sensor-reading-{i}"), 4)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count > 40, "shard {shard} got only {count}/400 keys");
        }
    }
}
