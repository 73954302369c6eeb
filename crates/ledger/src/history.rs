//! Per-key write history, backing the chaincode `GetHistoryForKey` API.
//!
//! HyperProv's provenance queries ("who edited this item, when, and what
//! did it become") are history queries: every committed valid write is
//! appended here, including deletions, in commit order.
//!
//! The index owns structure only. Keys and values are the shared strings
//! of the [`KvWrite`] that carried them, so an entry costs its fixed
//! fields, not a second copy of what the world state already holds; and
//! most keys are written once, so a key's entry list starts with room for
//! exactly one entry.

use std::collections::HashMap;
use std::sync::Arc;

use crate::tx::{KvWrite, StateKey, TxId, Version};

/// One historical modification of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Transaction that performed the write.
    pub tx_id: TxId,
    /// Height `(block, tx)` of the write.
    pub version: Version,
    /// Value written (shared with the write that carried it); `None`
    /// records a deletion.
    pub value: Option<Arc<[u8]>>,
}

/// The history index: key → chronological list of writes.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{Digest, HistoryDb, KvWrite, StateKey, TxId, Version};
///
/// let mut db = HistoryDb::new();
/// let key = StateKey::new("cc", "item");
/// db.append(
///     TxId(Digest::of(b"t1")),
///     Version::new(1, 0),
///     &[KvWrite { key: key.clone(), value: Some(b"v1".as_slice().into()) }],
/// );
/// assert_eq!(db.history(&key).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryDb {
    map: HashMap<StateKey, Vec<HistoryEntry>>,
    total_entries: u64,
}

impl HistoryDb {
    /// Creates an empty history index.
    pub fn new() -> Self {
        HistoryDb::default()
    }

    /// Records all writes of one valid transaction.
    pub fn append(&mut self, tx_id: TxId, version: Version, writes: &[KvWrite]) {
        for w in writes {
            // `Vec::push` on an empty list reserves four entries; nearly
            // every key is written once, so start at exactly one.
            self.map
                .entry(w.key.clone())
                .or_insert_with(|| Vec::with_capacity(1))
                .push(HistoryEntry {
                    tx_id,
                    version,
                    value: w.value.clone(),
                });
            self.total_entries += 1;
        }
    }

    /// The chronological write history of `key` (empty slice if never
    /// written).
    pub fn history(&self, key: &StateKey) -> &[HistoryEntry] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates every `(key, entries)` pair in arbitrary order; callers
    /// that need determinism (snapshot capture) must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&StateKey, &[HistoryEntry])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Restores one key's full history, replacing any existing entries —
    /// used when rebuilding the index from a verified snapshot. The list
    /// is stored without spare capacity.
    pub fn restore_key(&mut self, key: StateKey, mut entries: Vec<HistoryEntry>) {
        entries.shrink_to_fit();
        self.total_entries += entries.len() as u64;
        if let Some(old) = self.map.insert(key, entries) {
            self.total_entries -= old.len() as u64;
        }
    }

    /// Number of keys with at least one history entry.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of history entries across all keys.
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Digest;

    fn w(key: &StateKey, value: Option<&[u8]>) -> KvWrite {
        KvWrite {
            key: key.clone(),
            value: value.map(Arc::from),
        }
    }

    #[test]
    fn history_preserves_order_including_deletes() {
        let mut db = HistoryDb::new();
        let key = StateKey::new("cc", "k");
        db.append(
            TxId(Digest::of(b"t1")),
            Version::new(1, 0),
            &[w(&key, Some(b"a"))],
        );
        db.append(
            TxId(Digest::of(b"t2")),
            Version::new(2, 0),
            &[w(&key, None)],
        );
        db.append(
            TxId(Digest::of(b"t3")),
            Version::new(3, 1),
            &[w(&key, Some(b"b"))],
        );
        let h = db.history(&key);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].value.as_deref(), Some(b"a".as_slice()));
        assert_eq!(h[1].value, None);
        assert_eq!(h[2].version, Version::new(3, 1));
        assert_eq!(db.total_entries(), 3);
    }

    #[test]
    fn a_fresh_key_gets_room_for_one_entry_and_grows_in_order() {
        let mut db = HistoryDb::new();
        let key = StateKey::new("cc", "k");
        db.append(
            TxId(Digest::of(b"t0")),
            Version::new(1, 0),
            &[w(&key, Some(b"0"))],
        );
        assert_eq!(db.map[&key].capacity(), 1);
        for i in 1..4u8 {
            db.append(
                TxId(Digest::of(&[i])),
                Version::new(1 + u64::from(i), 0),
                &[w(&key, Some(&[b'0' + i]))],
            );
        }
        let values: Vec<&[u8]> = db
            .history(&key)
            .iter()
            .map(|e| e.value.as_deref().unwrap())
            .collect();
        assert_eq!(values, [b"0", b"1", b"2", b"3"]);
        assert_eq!(db.total_entries(), 4);

        // A restored list is stored without slack, whatever it came with.
        let mut roomy = Vec::with_capacity(16);
        roomy.extend_from_slice(db.history(&key));
        let mut restored = HistoryDb::new();
        restored.restore_key(key.clone(), roomy);
        assert_eq!(restored.map[&key].capacity(), 4);
        assert_eq!(restored.history(&key), db.history(&key));
    }

    #[test]
    fn unknown_key_has_empty_history() {
        let db = HistoryDb::new();
        assert!(db.history(&StateKey::new("cc", "nope")).is_empty());
        assert_eq!(db.key_count(), 0);
    }

    #[test]
    fn multi_key_transaction_indexes_every_key() {
        let mut db = HistoryDb::new();
        let k1 = StateKey::new("cc", "k1");
        let k2 = StateKey::new("cc", "k2");
        db.append(
            TxId(Digest::of(b"t")),
            Version::new(1, 0),
            &[w(&k1, Some(b"x")), w(&k2, Some(b"y"))],
        );
        assert_eq!(db.history(&k1).len(), 1);
        assert_eq!(db.history(&k2).len(), 1);
        assert_eq!(db.key_count(), 2);
        assert_eq!(db.history(&k1)[0].tx_id, db.history(&k2)[0].tx_id);
    }
}
