//! The chaincode programming model: the [`Chaincode`] trait and the
//! [`ChaincodeStub`] shim through which contract code reads and writes the
//! ledger.
//!
//! Execution follows Fabric's simulate-then-order model: a stub wraps an
//! immutable snapshot of the state database, history included, and
//! records every access into a [`RwSet`]. Like Fabric, a transaction
//! **cannot read its own writes** — `get_state` always returns committed
//! state — and range queries observe committed state only.

use std::collections::HashMap;
use std::fmt;

use hyperprov_ledger::{
    HistoryEntry, KvRead, KvWrite, ProvGraph, RwSet, SharedBytes, SharedStr, StateDb, StateKey,
};

use crate::identity::Certificate;

/// Minimum-unicode delimiter used by composite keys, as in Fabric.
pub const COMPOSITE_SEP: char = '\u{1}';

/// Error raised by chaincode logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaincodeError {
    /// The function name is not part of this contract.
    UnknownFunction(String),
    /// The arguments are malformed.
    BadArgs(String),
    /// A referenced key does not exist.
    NotFound(String),
    /// A domain rule was violated (e.g. duplicate key, unauthorised caller).
    Rejected(String),
}

impl fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaincodeError::UnknownFunction(name) => write!(f, "unknown function {name:?}"),
            ChaincodeError::BadArgs(why) => write!(f, "bad arguments: {why}"),
            ChaincodeError::NotFound(key) => write!(f, "key not found: {key}"),
            ChaincodeError::Rejected(why) => write!(f, "rejected: {why}"),
        }
    }
}

impl std::error::Error for ChaincodeError {}

/// Resource usage of one chaincode invocation, fed to the CPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StubStats {
    /// Number of `get_state`/history/range point reads.
    pub reads: u64,
    /// Number of `put_state`/`del_state` calls.
    pub writes: u64,
    /// Total bytes returned by reads.
    pub bytes_read: u64,
    /// Total bytes submitted by writes.
    pub bytes_written: u64,
    /// Keys visited by range/prefix scans.
    pub scanned: u64,
}

/// The shim handed to chaincode during simulation.
pub struct ChaincodeStub<'a> {
    namespace: &'a str,
    /// The namespace as a shared string, made once per invocation: every
    /// state key built below shares its allocation.
    ns: SharedStr,
    function: &'a str,
    args: &'a [Vec<u8>],
    creator: &'a Certificate,
    state: &'a StateDb,
    graph: Option<&'a ProvGraph>,
    rwset: RwSet,
    read_keys: HashMap<StateKey, ()>,
    write_index: HashMap<StateKey, usize>,
    event: Option<(String, Vec<u8>)>,
    stats: StubStats,
}

impl<'a> ChaincodeStub<'a> {
    /// Creates a stub for one invocation over committed state.
    pub fn new(
        namespace: &'a str,
        function: &'a str,
        args: &'a [Vec<u8>],
        creator: &'a Certificate,
        state: &'a StateDb,
    ) -> Self {
        ChaincodeStub {
            namespace,
            ns: namespace.into(),
            function,
            args,
            creator,
            state,
            graph: None,
            rwset: RwSet::new(),
            read_keys: HashMap::new(),
            write_index: HashMap::new(),
            event: None,
            stats: StubStats::default(),
        }
    }

    /// Attaches the channel's materialized provenance DAG index, giving
    /// graph query functions an in-memory adjacency structure.
    #[must_use]
    pub fn with_graph(mut self, graph: &'a ProvGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The channel's provenance graph index, when the hosting peer
    /// exposes one (read-only; traversals leave the read set untouched).
    pub fn graph(&self) -> Option<&'a ProvGraph> {
        self.graph
    }

    /// Accounts `nodes` graph-index node visits returning `bytes` total,
    /// so the CPU cost model charges traversals like point reads.
    pub fn note_graph_visits(&mut self, nodes: u64, bytes: u64) {
        self.stats.reads += nodes;
        self.stats.bytes_read += bytes;
    }

    /// The invoked function name.
    pub fn function(&self) -> &str {
        self.function
    }

    /// The invocation arguments (after the function name).
    pub fn args(&self) -> &[Vec<u8>] {
        self.args
    }

    /// Argument `i` as a UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadArgs`] if the argument is missing or
    /// not valid UTF-8.
    pub fn arg_str(&self, i: usize) -> Result<&str, ChaincodeError> {
        let raw = self
            .args
            .get(i)
            .ok_or_else(|| ChaincodeError::BadArgs(format!("missing argument {i}")))?;
        std::str::from_utf8(raw)
            .map_err(|_| ChaincodeError::BadArgs(format!("argument {i} is not UTF-8")))
    }

    /// Argument `i` as raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadArgs`] if the argument is missing.
    pub fn arg_bytes(&self, i: usize) -> Result<&[u8], ChaincodeError> {
        self.args
            .get(i)
            .map(Vec::as_slice)
            .ok_or_else(|| ChaincodeError::BadArgs(format!("missing argument {i}")))
    }

    /// Number of arguments.
    pub fn arg_count(&self) -> usize {
        self.args.len()
    }

    /// The certificate of the client that submitted the proposal —
    /// HyperProv records this as the data owner.
    pub fn creator(&self) -> &Certificate {
        self.creator
    }

    /// Reads committed state, recording the read version. Per Fabric
    /// semantics this does **not** observe writes made earlier in this
    /// same invocation.
    pub fn get_state(&mut self, key: &str) -> Option<Vec<u8>> {
        let skey = StateKey::new(self.ns.clone(), key);
        let vv = self.state.get(&skey);
        if !self.read_keys.contains_key(&skey) {
            self.read_keys.insert(skey.clone(), ());
            self.rwset.reads.push(KvRead {
                key: skey,
                version: vv.map(|v| v.version),
            });
        }
        self.stats.reads += 1;
        let value = vv.map(|v| v.value.to_vec());
        self.stats.bytes_read += value.as_ref().map(Vec::len).unwrap_or(0) as u64;
        value
    }

    /// Writes a key (visible only after commit). Last write per key wins.
    pub fn put_state(&mut self, key: &str, value: Vec<u8>) {
        self.stats.writes += 1;
        self.stats.bytes_written += value.len() as u64;
        self.upsert_write(key, Some(value.into()));
    }

    /// Deletes a key at commit time.
    pub fn del_state(&mut self, key: &str) {
        self.stats.writes += 1;
        self.upsert_write(key, None);
    }

    fn upsert_write(&mut self, key: &str, value: Option<SharedBytes>) {
        let skey = StateKey::new(self.ns.clone(), key);
        match self.write_index.get(&skey) {
            Some(&idx) => self.rwset.writes[idx].value = value,
            None => {
                self.write_index
                    .insert(skey.clone(), self.rwset.writes.len());
                self.rwset.writes.push(KvWrite { key: skey, value });
            }
        }
    }

    /// The committed write history of `key`, oldest first.
    pub fn get_history_for_key(&mut self, key: &str) -> Vec<HistoryEntry> {
        let skey = StateKey::new(self.ns.clone(), key);
        let entries = self.state.history().get(&skey).to_vec();
        self.stats.reads += 1;
        self.stats.bytes_read += entries
            .iter()
            .map(|e| e.value.as_ref().map_or(0, |v| v.len()) as u64)
            .sum::<u64>();
        entries
    }

    /// Builds a composite key `objectType + SEP + attr1 + SEP + ...`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadArgs`] if any component contains the
    /// separator character.
    pub fn create_composite_key(
        &self,
        object_type: &str,
        attributes: &[&str],
    ) -> Result<String, ChaincodeError> {
        let mut key = String::with_capacity(object_type.len() + 8);
        for part in std::iter::once(object_type).chain(attributes.iter().copied()) {
            if part.contains(COMPOSITE_SEP) {
                return Err(ChaincodeError::BadArgs(
                    "composite key component contains separator".to_owned(),
                ));
            }
            key.push_str(part);
            key.push(COMPOSITE_SEP);
        }
        Ok(key)
    }

    /// Splits a composite key back into object type and attributes.
    pub fn split_composite_key(key: &str) -> impl Iterator<Item = &str> {
        key.split(COMPOSITE_SEP).filter(|s| !s.is_empty())
    }

    /// Committed keys matching a composite-key prefix.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadArgs`] if a component is malformed.
    pub fn get_state_by_partial_composite_key(
        &mut self,
        object_type: &str,
        attributes: &[&str],
    ) -> Result<Vec<(String, Vec<u8>)>, ChaincodeError> {
        let prefix = self.create_composite_key(object_type, attributes)?;
        let mut out = Vec::new();
        for (k, vv) in self.state.scan_prefix(self.namespace, &prefix) {
            self.stats.scanned += 1;
            self.stats.bytes_read += vv.value.len() as u64;
            out.push((String::from(&*k.key), vv.value.to_vec()));
        }
        Ok(out)
    }

    /// Attaches a chaincode event emitted with the transaction.
    pub fn set_event(&mut self, name: &str, payload: Vec<u8>) {
        self.event = Some((name.to_owned(), payload));
    }

    /// Finishes the simulation, yielding the read/write set, the optional
    /// event and the resource stats.
    pub fn into_results(self) -> (RwSet, Option<(String, Vec<u8>)>, StubStats) {
        (self.rwset, self.event, self.stats)
    }
}

impl fmt::Debug for ChaincodeStub<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaincodeStub")
            .field("namespace", &self.namespace)
            .field("function", &self.function)
            .field("reads", &self.rwset.reads.len())
            .field("writes", &self.rwset.writes.len())
            .finish()
    }
}

/// A smart contract installed on peers.
///
/// Implementations must be deterministic: every endorsing peer runs the
/// same invocation and their read/write sets must match.
pub trait Chaincode: Send + Sync {
    /// The chaincode (namespace) name.
    fn name(&self) -> &str;

    /// Handles one invocation.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaincodeError`] to reject the proposal; rejected
    /// proposals never reach ordering.
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{MspBuilder, MspId};
    use hyperprov_ledger::{TxId, Version};
    use std::sync::Arc;

    fn fixtures() -> (StateDb, Certificate) {
        let mut state = StateDb::new();
        state.apply_tx(
            TxId(hyperprov_ledger::Digest::of(b"t0")),
            Version::new(1, 0),
            &KvWrite {
                key: StateKey::new("cc", "existing"),
                value: Some(b"old".as_slice().into()),
            },
        );
        let mut b = MspBuilder::new(1);
        let id = b.enroll("client", &MspId::new("org1"));
        (state, id.certificate().clone())
    }

    #[test]
    fn reads_record_versions_once() {
        let (state, cert) = fixtures();
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        assert_eq!(stub.get_state("existing"), Some(b"old".to_vec()));
        assert_eq!(stub.get_state("existing"), Some(b"old".to_vec()));
        assert_eq!(stub.get_state("missing"), None);
        let (rwset, _, stats) = stub.into_results();
        assert_eq!(rwset.reads.len(), 2); // deduplicated
        assert_eq!(rwset.reads[0].version, Some(Version::new(1, 0)));
        assert_eq!(rwset.reads[1].version, None);
        assert_eq!(stats.reads, 3);
        assert_eq!(stats.bytes_read, 6);
    }

    #[test]
    fn no_read_your_writes() {
        let (state, cert) = fixtures();
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        stub.put_state("k", b"new".to_vec());
        // Fabric semantics: the pending write is invisible.
        assert_eq!(stub.get_state("k"), None);
        assert_eq!(stub.get_state("existing"), Some(b"old".to_vec()));
    }

    #[test]
    fn last_write_wins_per_key() {
        let (state, cert) = fixtures();
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        stub.put_state("k", b"v1".to_vec());
        stub.put_state("k", b"v2".to_vec());
        stub.del_state("gone");
        let (rwset, _, stats) = stub.into_results();
        assert_eq!(rwset.writes.len(), 2);
        assert_eq!(rwset.writes[0].value.as_deref(), Some(b"v2".as_slice()));
        assert_eq!(rwset.writes[1].value, None);
        assert_eq!(stats.writes, 3);
    }

    #[test]
    fn arg_accessors_validate() {
        let (state, cert) = fixtures();
        let args = vec![b"hello".to_vec(), vec![0xFF]];
        let stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        assert_eq!(stub.arg_str(0).unwrap(), "hello");
        assert!(matches!(stub.arg_str(1), Err(ChaincodeError::BadArgs(_))));
        assert!(matches!(stub.arg_str(2), Err(ChaincodeError::BadArgs(_))));
        assert_eq!(stub.arg_bytes(1).unwrap(), &[0xFF]);
        assert_eq!(stub.arg_count(), 2);
        assert_eq!(stub.function(), "f");
        assert_eq!(stub.creator().subject, "client");
    }

    #[test]
    fn composite_keys_round_trip() {
        let (state, cert) = fixtures();
        let args = vec![];
        let stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        let key = stub
            .create_composite_key("owner", &["org1", "item1"])
            .unwrap();
        assert_eq!(
            ChaincodeStub::split_composite_key(&key).collect::<Vec<_>>(),
            vec!["owner", "org1", "item1"]
        );
        assert!(stub
            .create_composite_key("bad", &[&format!("a{COMPOSITE_SEP}b")])
            .is_err());
    }

    #[test]
    fn partial_composite_key_scan() {
        let (mut state, cert) = fixtures();
        // Seed composite keys directly.
        for (owner, item) in [("org1", "a"), ("org1", "b"), ("org2", "c")] {
            let key = format!("own{COMPOSITE_SEP}{owner}{COMPOSITE_SEP}{item}{COMPOSITE_SEP}");
            state.apply_write(
                &KvWrite {
                    key: StateKey::new("cc", key.as_str()),
                    value: Some(item.as_bytes().into()),
                },
                Version::new(2, 0),
            );
        }
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        let hits = stub
            .get_state_by_partial_composite_key("own", &["org1"])
            .unwrap();
        assert_eq!(hits.len(), 2);
        let (_, _, stats) = stub.into_results();
        assert_eq!(stats.scanned, 2);
    }

    #[test]
    fn history_query_returns_committed_entries() {
        let (state, cert) = fixtures();
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        let h = stub.get_history_for_key("existing");
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].value.as_deref(), Some(b"old".as_slice()));
        assert!(stub.get_history_for_key("missing").is_empty());
    }

    #[test]
    fn events_captured() {
        let (state, cert) = fixtures();
        let args = vec![];
        let mut stub = ChaincodeStub::new("cc", "f", &args, &cert, &state);
        stub.set_event("posted", b"payload".to_vec());
        let (_, event, _) = stub.into_results();
        assert_eq!(event, Some(("posted".to_owned(), b"payload".to_vec())));
    }

    struct Echo;
    impl Chaincode for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
            Ok(stub.arg_bytes(0)?.to_vec())
        }
    }

    #[test]
    fn installed_chaincode_dispatches() {
        let cc: Arc<dyn Chaincode> = Arc::new(Echo);
        assert_eq!(cc.name(), "echo");
        let (state, cert) = fixtures();
        let args = vec![b"x".to_vec()];
        let mut stub = ChaincodeStub::new("echo", "any", &args, &cert, &state);
        assert_eq!(cc.invoke(&mut stub).unwrap(), b"x".to_vec());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ChaincodeError::UnknownFunction("f".into()),
            ChaincodeError::BadArgs("why".into()),
            ChaincodeError::NotFound("k".into()),
            ChaincodeError::Rejected("no".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
