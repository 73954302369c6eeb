//! The per-key store of a channel: the versioned world state, and in the
//! same store every key's write history.
//!
//! One ordered map holds the live entries, so chaincode range queries
//! (`GetStateByRange`, composite-key scans) work exactly as in Fabric's
//! LevelDB state database (DESIGN.md §10 says why not a sorted run).
//!
//! A key's history lives in its state entry: the live entry carries the
//! id of the transaction that wrote it, and a second ordered map,
//! `earlier`, holds the superseded and deleted writes of the keys written
//! more than once or deleted ([`crate::History`]). A key written once and
//! still live costs one entry and nothing else.
//!
//! The maps own structure only: a key and a value are the shared strings
//! of the [`KvWrite`] that carried them — for a committed write, ranges of
//! the envelope bytes every replica shares — so applying a write and
//! capturing or restoring a snapshot copy no bytes, and a lookup
//! ([`KeyParts`]) builds no key.
//!
//! MVCC validation compares the versions recorded in a transaction's read
//! set against this database at commit time.

use std::collections::BTreeMap;

use crate::hash::{Digest, Sha256};
use crate::history::HistoryEntry;
use crate::shared::SharedBytes;
use crate::tx::{KeyParts, KvRead, KvWrite, StateKey, TxId, Version};

/// A current state value together with the write that put it there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The stored bytes, shared with the write that carried them.
    pub value: SharedBytes,
    /// Height `(block, tx)` of the writing transaction.
    pub version: Version,
    /// The writing transaction.
    pub tx_id: TxId,
}

impl From<VersionedValue> for HistoryEntry {
    fn from(live: VersionedValue) -> Self {
        HistoryEntry {
            tx_id: live.tx_id,
            version: live.version,
            value: Some(live.value),
        }
    }
}

/// The world state database, and the history of every key.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{Digest, KvWrite, StateDb, StateKey, TxId, Version};
///
/// let mut db = StateDb::new();
/// let key = StateKey::new("cc", "k");
/// let tx = TxId(Digest::of(b"t1"));
/// let write = KvWrite { key: key.clone(), value: Some(b"v".as_slice().into()) };
/// db.apply_tx(tx, Version::new(1, 0), &write);
/// assert_eq!(&*db.get(&key).unwrap().value, b"v");
/// assert_eq!(db.history().get(&key).to_vec()[0].tx_id, tx);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    pub(crate) map: BTreeMap<StateKey, VersionedValue>,
    /// Superseded and deleted writes, oldest first, of every key written
    /// more than once or deleted.
    pub(crate) earlier: BTreeMap<StateKey, Vec<HistoryEntry>>,
    /// Bytes of the live values, kept as writes apply.
    live_bytes: u64,
}

impl StateDb {
    /// Creates an empty state database.
    pub fn new() -> Self {
        StateDb::default()
    }

    /// Current value and version for `key` (or a `(namespace, key)` pair).
    pub fn get(&self, key: &impl KeyParts) -> Option<&VersionedValue> {
        self.map.get(key as &dyn KeyParts)
    }

    /// Current version for `key`, if present.
    pub fn version(&self, key: &impl KeyParts) -> Option<Version> {
        self.get(key).map(|v| v.version)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of the live values, without a scan.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Iterates every live `(key, value)` pair in lexicographic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&StateKey, &VersionedValue)> {
        self.map.iter()
    }

    /// Applies one write of transaction `tx_id` at `version` (a delete
    /// when its value is `None`): the write becomes the key's live entry,
    /// and what it supersedes — and a deletion itself — joins the key's
    /// earlier writes.
    pub fn apply_tx(&mut self, tx_id: TxId, version: Version, write: &KvWrite) {
        let (superseded, deletion) = match &write.value {
            Some(value) => {
                self.live_bytes += value.len() as u64;
                let live = VersionedValue {
                    value: value.clone(),
                    version,
                    tx_id,
                };
                (self.map.insert(write.key.clone(), live), None)
            }
            None => {
                let deletion = HistoryEntry {
                    tx_id,
                    version,
                    value: None,
                };
                (self.map.remove(&write.key), Some(deletion))
            }
        };
        if let Some(gone) = &superseded {
            self.live_bytes -= gone.value.len() as u64;
        }
        let new = usize::from(superseded.is_some()) + usize::from(deletion.is_some());
        if new > 0 {
            // Nearly every key is written once: a list starts at exactly
            // the room its first writes need.
            let earlier = self.earlier.entry(write.key.clone());
            let earlier = earlier.or_insert_with(|| Vec::with_capacity(new));
            earlier.extend(superseded.map(HistoryEntry::from));
            earlier.extend(deletion);
        }
    }

    /// [`StateDb::apply_tx`] for a write no transaction is named for: its
    /// history entry carries the zero transaction id.
    pub fn apply_write(&mut self, write: &KvWrite, version: Version) {
        self.apply_tx(TxId::default(), version, write);
    }

    /// MVCC check: true iff every recorded read still observes the same
    /// version in current state.
    pub fn validate_reads(&self, reads: &[KvRead]) -> bool {
        reads.iter().all(|r| self.version(&r.key) == r.version)
    }

    /// Iterates keys in `namespace` whose key is in `[start, end)`,
    /// in lexicographic order. An empty `end` means "to the end of the
    /// namespace" (Fabric's open-ended range query); a `start` past `end`
    /// is an empty range.
    pub fn range<'a>(
        &'a self,
        namespace: &'a str,
        start: &str,
        end: &str,
    ) -> impl Iterator<Item = (&'a StateKey, &'a VersionedValue)> + 'a {
        let lower = StateKey::new(namespace, start);
        let upper = if end.is_empty() {
            // End of namespace: first key of the "next" namespace.
            StateKey::new(format!("{namespace}\u{0}"), "")
        } else {
            StateKey::new(namespace, end)
        }
        .max(lower.clone());
        self.map
            .range(lower..upper)
            .filter(move |(k, _)| k.namespace.as_bytes() == namespace.as_bytes())
    }

    /// Iterates keys in `namespace` starting with `prefix` (composite-key
    /// scans).
    pub fn scan_prefix<'a>(
        &'a self,
        namespace: &'a str,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a StateKey, &'a VersionedValue)> + 'a {
        let lower = StateKey::new(namespace, prefix);
        self.map.range(lower..).take_while(move |(k, _)| {
            k.namespace.as_bytes() == namespace.as_bytes()
                && k.key.as_bytes().starts_with(prefix.as_bytes())
        })
    }

    /// A digest over the entire world state — every key, value and write
    /// version, in key order. Two replicas hold identical state iff their
    /// hashes match, which is how the fault-recovery tests assert that a
    /// healed partition left no divergence.
    pub fn state_hash(&self) -> Digest {
        hash_entries(self.iter().map(|(key, vv)| (key, &*vv.value, vv.version)))
    }
}

/// The digest behind [`StateDb::state_hash`] over any run of entries in
/// key order, so a snapshot's frozen entries hash to the state they were
/// cut from without rebuilding a map.
pub(crate) fn hash_entries<'a>(
    entries: impl Iterator<Item = (&'a StateKey, &'a [u8], Version)>,
) -> Digest {
    let mut hasher = Sha256::new();
    for (key, value, version) in entries {
        for part in [key.namespace.as_bytes(), key.key.as_bytes(), value] {
            hasher.update(&(part.len() as u64).to_be_bytes());
            hasher.update(part);
        }
        hasher.update(&version.block_num.to_be_bytes());
        hasher.update(&version.tx_num.to_be_bytes());
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(db: &mut StateDb, ns: &str, k: &str, v: &[u8], ver: Version) {
        db.apply_write(
            &KvWrite {
                key: StateKey::new(ns, k),
                value: Some(v.into()),
            },
            ver,
        );
    }

    #[test]
    fn put_get_delete() {
        let mut db = StateDb::new();
        put(&mut db, "cc", "a", b"1", Version::new(1, 0));
        assert_eq!(&*db.get(&StateKey::new("cc", "a")).unwrap().value, b"1");
        assert_eq!(
            db.version(&StateKey::new("cc", "a")),
            Some(Version::new(1, 0))
        );
        db.apply_write(
            &KvWrite {
                key: StateKey::new("cc", "a"),
                value: None,
            },
            Version::new(2, 0),
        );
        assert!(db.get(&StateKey::new("cc", "a")).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn overwrite_updates_version() {
        let mut db = StateDb::new();
        put(&mut db, "cc", "a", b"1", Version::new(1, 0));
        put(&mut db, "cc", "a", b"2", Version::new(1, 1));
        let vv = db.get(&StateKey::new("cc", "a")).unwrap();
        assert_eq!(&*vv.value, b"2");
        assert_eq!(vv.version, Version::new(1, 1));
        assert_eq!(db.len(), 1);
        // The counter follows what is live: the superseded value is gone
        // from it, a deletion takes the rest.
        put(&mut db, "cc", "b", b"three", Version::new(2, 0));
        assert_eq!(db.live_bytes(), 6);
        let delete = |k: &str| KvWrite {
            key: StateKey::new("cc", k),
            value: None,
        };
        db.apply_write(&delete("a"), Version::new(3, 0));
        db.apply_write(&delete("never"), Version::new(3, 1));
        assert_eq!(db.live_bytes(), 5);
        let scanned: usize = db.iter().map(|(_, vv)| vv.value.len()).sum();
        assert_eq!(db.live_bytes(), scanned as u64);
    }

    #[test]
    fn a_key_written_once_has_no_earlier_entries() {
        let mut db = StateDb::new();
        put(&mut db, "cc", "once", b"1", Version::new(1, 0));
        put(&mut db, "cc", "twice", b"1", Version::new(1, 1));
        put(&mut db, "cc", "twice", b"2", Version::new(2, 0));
        let gone = KvWrite {
            key: StateKey::new("cc", "gone"),
            value: None,
        };
        db.apply_write(&gone, Version::new(2, 1));
        let earlier: Vec<(&str, usize, usize)> = db
            .earlier
            .iter()
            .map(|(k, list)| (&*k.key, list.len(), list.capacity()))
            .collect();
        // A first supersession or a deletion of an absent key: one entry,
        // with room for exactly one.
        assert_eq!(earlier, [("gone", 1, 1), ("twice", 1, 1)]);
    }

    #[test]
    fn mvcc_validation() {
        let mut db = StateDb::new();
        put(&mut db, "cc", "a", b"1", Version::new(1, 0));
        let good = vec![KvRead {
            key: StateKey::new("cc", "a"),
            version: Some(Version::new(1, 0)),
        }];
        let stale = vec![KvRead {
            key: StateKey::new("cc", "a"),
            version: Some(Version::new(0, 0)),
        }];
        let phantom = vec![KvRead {
            key: StateKey::new("cc", "missing"),
            version: None,
        }];
        let appeared = vec![KvRead {
            key: StateKey::new("cc", "a"),
            version: None,
        }];
        assert!(db.validate_reads(&good));
        assert!(!db.validate_reads(&stale));
        assert!(db.validate_reads(&phantom));
        assert!(!db.validate_reads(&appeared));
        assert!(db.validate_reads(&[]));
    }

    #[test]
    fn range_respects_bounds_and_namespace() {
        let mut db = StateDb::new();
        for (ns, k) in [
            ("a", "k1"),
            ("cc", "k1"),
            ("cc", "k2"),
            ("cc", "k3"),
            ("zz", "k0"),
        ] {
            put(&mut db, ns, k, b"v", Version::new(1, 0));
        }
        let keys: Vec<String> = db
            .range("cc", "k1", "k3")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(keys, vec!["k1", "k2"]);
        let all: Vec<String> = db
            .range("cc", "", "")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(all, vec!["k1", "k2", "k3"]);
    }

    #[test]
    fn range_with_prefix_keys_respects_exclusive_end() {
        // Keys that are prefixes of each other ("k" < "k1" < "k10" < "k2")
        // must honour the half-open [start, end) contract exactly.
        let mut db = StateDb::new();
        for k in ["k", "k1", "k10", "k2"] {
            put(&mut db, "cc", k, b"v", Version::new(1, 0));
        }
        let hits = |start: &str, end: &str| -> Vec<String> {
            db.range("cc", start, end)
                .map(|(k, _)| k.key.to_string())
                .collect()
        };
        assert_eq!(hits("k", "k1"), vec!["k"]);
        assert_eq!(hits("k1", "k2"), vec!["k1", "k10"]);
        assert_eq!(hits("k", ""), vec!["k", "k1", "k10", "k2"]);
        assert_eq!(hits("k10", "k10"), Vec::<String>::new());
        // A start past the end is an empty range, not a panic.
        assert_eq!(hits("k2", "k1"), Vec::<String>::new());
    }

    #[test]
    fn range_in_empty_namespace_sees_only_that_namespace() {
        // The empty namespace is a valid (if degenerate) chaincode name;
        // its open-ended scan must not drift into later namespaces.
        let mut db = StateDb::new();
        put(&mut db, "", "a", b"v", Version::new(1, 0));
        put(&mut db, "", "b", b"v", Version::new(1, 0));
        put(&mut db, "cc", "a", b"v", Version::new(1, 0));
        let keys: Vec<String> = db
            .range("", "", "")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(db.scan_prefix("", "").count(), 2);
    }

    #[test]
    fn open_ended_range_stops_at_adjacent_namespaces() {
        // Namespaces that sort immediately after "cc" — including the NUL
        // sentinel the upper bound is built from — must stay invisible to
        // chaincode "cc".
        let mut db = StateDb::new();
        put(&mut db, "cc", "z", b"v", Version::new(1, 0));
        put(&mut db, "cc\u{0}", "a", b"v", Version::new(1, 0));
        put(&mut db, "cc0", "a", b"v", Version::new(1, 0));
        put(&mut db, "ccx", "a", b"v", Version::new(1, 0));
        put(&mut db, "cd", "a", b"v", Version::new(1, 0));
        let keys: Vec<String> = db
            .range("cc", "", "")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(keys, vec!["z"], "no adjacent-namespace leakage");
        // And the neighbours still see their own keys.
        assert_eq!(db.range("cc\u{0}", "", "").count(), 1);
        assert_eq!(db.range("ccx", "", "").count(), 1);
    }

    #[test]
    fn scan_prefix_stays_inside_namespace() {
        // A prefix scan near the end of one namespace must not continue
        // into the next namespace even when its keys share the prefix.
        let mut db = StateDb::new();
        put(&mut db, "cc", "item~a", b"v", Version::new(1, 0));
        put(&mut db, "cc", "zz", b"v", Version::new(1, 0));
        put(&mut db, "ccx", "zz1", b"v", Version::new(1, 0));
        put(&mut db, "cd", "item~b", b"v", Version::new(1, 0));
        let hits: Vec<String> = db
            .scan_prefix("cc", "zz")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(hits, vec!["zz"]);
        assert_eq!(db.scan_prefix("cc", "item~").count(), 1);
    }

    #[test]
    fn scan_prefix_matches_composite_keys() {
        let mut db = StateDb::new();
        for k in [
            "owner~org1~item1",
            "owner~org1~item2",
            "owner~org2~item3",
            "other",
        ] {
            put(&mut db, "cc", k, b"v", Version::new(1, 0));
        }
        let hits: Vec<String> = db
            .scan_prefix("cc", "owner~org1~")
            .map(|(k, _)| k.key.to_string())
            .collect();
        assert_eq!(hits, vec!["owner~org1~item1", "owner~org1~item2"]);
        assert_eq!(db.scan_prefix("cc", "nope").count(), 0);
    }

    #[test]
    fn state_hash_tracks_content_not_insertion_order() {
        let mut a = StateDb::new();
        put(&mut a, "cc", "x", b"1", Version::new(1, 0));
        put(&mut a, "cc", "y", b"2", Version::new(1, 1));
        let mut b = StateDb::new();
        put(&mut b, "cc", "y", b"2", Version::new(1, 1));
        put(&mut b, "cc", "x", b"1", Version::new(1, 0));
        assert_eq!(a.state_hash(), b.state_hash());
        // A differing value, version, or key changes the hash.
        put(&mut b, "cc", "x", b"1", Version::new(2, 0));
        assert_ne!(a.state_hash(), b.state_hash());
        assert_ne!(StateDb::new().state_hash(), a.state_hash());
    }
}
