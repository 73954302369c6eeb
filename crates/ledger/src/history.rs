//! Per-key write history, backing the chaincode `GetHistoryForKey` API.
//!
//! HyperProv's provenance queries ("who edited this item, when, and what
//! did it become") are history queries: every committed valid write of a
//! key, deletions included, in commit order. A key's history lives in its
//! state entry ([`StateDb`]): its superseded and deleted writes, oldest
//! first, then its live write, which carries the id of the transaction
//! that made it. [`History`] reads that back for one key, or for every key
//! in key order in one merge pass — there is no second index beside the
//! state to keep in step with it.

use crate::shared::SharedBytes;
use crate::statedb::{StateDb, VersionedValue};
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
    pub value: Option<SharedBytes>,
}

/// The name a channel's history index went by, and the one the
/// benchmark's layer replay builds its copy with: the history is the
/// [`StateDb`]'s own.
pub type HistoryDb = StateDb;

/// One key's writes, oldest first, where the store holds them.
#[derive(Debug, Clone, Copy)]
pub struct KeyHistory<'a> {
    /// The superseded and deleted writes, oldest first.
    pub earlier: &'a [HistoryEntry],
    /// The live write, when the key is live.
    pub live: Option<&'a VersionedValue>,
}

impl<'a> KeyHistory<'a> {
    /// The writes, oldest first; each shares its value with the store.
    pub fn entries(&self) -> impl Iterator<Item = HistoryEntry> + 'a {
        let live = self.live.cloned().map(HistoryEntry::from);
        self.earlier.iter().cloned().chain(live)
    }

    /// The writes, oldest first, in a vector of their own.
    pub fn to_vec(&self) -> Vec<HistoryEntry> {
        self.entries().collect()
    }
}

/// A read-only view of every key's write history in a [`StateDb`].
#[derive(Debug, Clone, Copy)]
pub struct History<'a>(&'a StateDb);

impl<'a> History<'a> {
    /// The writes of `key` (none if it was never written).
    pub fn get(&self, key: &StateKey) -> KeyHistory<'a> {
        let earlier = self.0.earlier.get(key).map_or(&[][..], Vec::as_slice);
        let live = self.0.get(key);
        KeyHistory { earlier, live }
    }

    /// Every key ever written, with its writes, in key order: one merge
    /// pass over the live entries and the earlier writes that allocates
    /// nothing.
    pub fn iter(&self) -> impl Iterator<Item = (&'a StateKey, KeyHistory<'a>)> + 'a {
        let mut live = self.0.map.iter().peekable();
        let mut earlier = self.0.earlier.iter().peekable();
        std::iter::from_fn(move || {
            let key = match (live.peek(), earlier.peek()) {
                (Some(&(l, _)), Some(&(e, _))) => l.min(e),
                (Some(&(key, _)), None) | (None, Some(&(key, _))) => key,
                (None, None) => return None,
            };
            let live = live.next_if(|(k, _)| *k == key).map(|(_, v)| v);
            let earlier = earlier.next_if(|(k, _)| *k == key);
            let earlier = earlier.map_or(&[][..], |(_, list)| list.as_slice());
            Some((key, KeyHistory { earlier, live }))
        })
    }
}

impl StateDb {
    /// Every key's write history.
    pub fn history(&self) -> History<'_> {
        History(self)
    }

    /// Restores one key of a store that has not written it: its full
    /// history, oldest first, applied write by write.
    pub fn restore_key(&mut self, key: StateKey, entries: Vec<HistoryEntry>) {
        for entry in entries {
            let (key, value) = (key.clone(), entry.value);
            self.apply_tx(entry.tx_id, entry.version, &KvWrite { key, value });
        }
    }

    /// Number of keys with at least one write.
    pub fn key_count(&self) -> usize {
        self.history().iter().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Digest;
    use crate::tx::KvWrite;

    fn write(db: &mut StateDb, tx: &[u8], version: Version, key: &StateKey, value: Option<&[u8]>) {
        let write = KvWrite {
            key: key.clone(),
            value: value.map(Into::into),
        };
        db.apply_tx(TxId(Digest::of(tx)), version, &write);
    }

    #[test]
    fn history_preserves_order_including_deletes() {
        let mut db = StateDb::new();
        let key = StateKey::new("cc", "k");
        write(&mut db, b"t1", Version::new(1, 0), &key, Some(b"a"));
        write(&mut db, b"t2", Version::new(2, 0), &key, None);
        write(&mut db, b"t3", Version::new(3, 1), &key, Some(b"b"));
        let h = db.history().get(&key).to_vec();
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].value.as_deref(), Some(b"a".as_slice()));
        assert_eq!(h[0].tx_id, TxId(Digest::of(b"t1")));
        assert_eq!(h[1].value, None);
        assert_eq!(h[2].version, Version::new(3, 1));
        assert_eq!(h[2].tx_id, db.get(&key).unwrap().tx_id);
    }

    #[test]
    fn a_live_write_shares_its_value_with_the_state() {
        let mut db = StateDb::new();
        let key = StateKey::new("cc", "k");
        for i in 0..4u8 {
            let version = Version::new(1 + u64::from(i), 0);
            write(&mut db, &[i], version, &key, Some(&[b'0' + i]));
        }
        let history = db.history().get(&key);
        assert_eq!(history.earlier.len(), 3);
        let values: Vec<SharedBytes> = history.entries().map(|e| e.value.unwrap()).collect();
        let expected = [b"0", b"1", b"2", b"3"].map(|v| SharedBytes::from(v.as_slice()));
        assert_eq!(values, expected);
        assert!(std::ptr::eq(&*values[3], &*db.get(&key).unwrap().value));
    }

    #[test]
    fn restoring_every_key_rebuilds_the_store() {
        let mut db = StateDb::new();
        let (live, deleted) = (StateKey::new("cc", "live"), StateKey::new("cc", "deleted"));
        for (i, key) in [&live, &deleted, &live].into_iter().enumerate() {
            write(
                &mut db,
                &[i as u8],
                Version::new(i as u64, 0),
                key,
                Some(b"v"),
            );
        }
        write(&mut db, b"del", Version::new(9, 0), &deleted, None);

        let mut restored = StateDb::new();
        for (key, writes) in db.history().iter() {
            restored.restore_key(key.clone(), writes.to_vec());
        }
        assert_eq!(restored.state_hash(), db.state_hash());
        assert_eq!(restored.key_count(), 2);
        for key in [&live, &deleted] {
            let (back, original) = (restored.history().get(key), db.history().get(key));
            assert_eq!(back.to_vec(), original.to_vec());
            // Lists as the commit path leaves them: no slack.
            assert_eq!(restored.earlier[key].capacity(), back.earlier.len());
        }
    }

    #[test]
    fn unknown_key_has_empty_history() {
        let db = StateDb::new();
        let history = db.history().get(&StateKey::new("cc", "nope"));
        assert!(history.earlier.is_empty() && history.live.is_none());
        assert_eq!(db.key_count(), 0);
    }

    #[test]
    fn multi_key_transaction_indexes_every_key() {
        let mut db = StateDb::new();
        let k1 = StateKey::new("cc", "k1");
        let k2 = StateKey::new("cc", "k2");
        write(&mut db, b"t", Version::new(1, 0), &k1, Some(b"x"));
        write(&mut db, b"t", Version::new(1, 0), &k2, Some(b"y"));
        let h1 = db.history().get(&k1).to_vec();
        let h2 = db.history().get(&k2).to_vec();
        assert_eq!((h1.len(), h2.len(), db.key_count()), (1, 1, 2));
        assert_eq!(h1[0].tx_id, h2[0].tx_id);
    }

    #[test]
    fn iteration_merges_live_and_earlier_writes_in_key_order() {
        let mut db = StateDb::new();
        let key = |k: &str| StateKey::new("cc", k);
        write(&mut db, b"1", Version::new(1, 0), &key("b"), Some(b"1"));
        write(&mut db, b"2", Version::new(2, 0), &key("b"), Some(b"2"));
        write(&mut db, b"3", Version::new(3, 0), &key("a"), Some(b"3"));
        write(&mut db, b"4", Version::new(4, 0), &key("c"), None);
        write(&mut db, b"5", Version::new(5, 0), &key("d"), Some(b"5"));
        let seen: Vec<(&str, usize, bool)> = db
            .history()
            .iter()
            .map(|(k, h)| (&*k.key, h.earlier.len(), h.live.is_some()))
            .collect();
        assert_eq!(
            seen,
            [
                ("a", 0, true),
                ("b", 1, true),
                ("c", 1, false),
                ("d", 0, true)
            ]
        );
    }
}
