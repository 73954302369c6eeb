//! A tiny deterministic multiply-rotate hasher for hot-path maps.
//!
//! The kernel and metrics registries key small maps by short strings and
//! integers millions of times per run. The std `RandomState` SipHash is
//! both slower than needed and randomly seeded; this fixed-seed
//! Firefox-style hasher keeps lookups cheap and runs reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the deterministic [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (the rustc/Firefox "Fx" construction).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("queue.depth.peer0"), hash("queue.depth.peer0"));
        assert_ne!(hash("queue.depth.peer0"), hash("queue.depth.peer1"));
        assert_ne!(hash("a"), hash("b"));

        let mut set: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            set.insert(i);
        }
        assert_eq!(set.len(), 1000);
        let map: FxHashMap<&str, u32> = [("x", 1), ("y", 2)].into_iter().collect();
        assert_eq!(map.get("x"), Some(&1));
    }
}
