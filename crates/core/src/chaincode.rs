//! The HyperProv smart contract.
//!
//! Implements the on-chain half of the paper's operator set: `post`,
//! `get`, `get_history`, `get_keys_by_checksum`, `get_lineage`, `list`
//! and `delete`. Records live under `item~<key>` composite keys; a second
//! composite index `cs~<checksum>~<key>` supports reverse lookup from a
//! checksum to the items carrying it (the paper's built-in queries for
//! lightweight provenance retrieval).

use hyperprov_fabric::{Chaincode, ChaincodeError, ChaincodeStub};
use hyperprov_ledger::{
    Decode, Digest, Direction, Encode, GraphIndexer, GraphUpdate, StateKey, TraversalLimits,
};

use crate::record::{
    encode_history, GraphSlice, HistoryRecord, LineageSlice, ProvenanceRecord, RecordInput,
};

/// The chaincode (namespace) name.
pub const CHAINCODE_NAME: &str = "hyperprov";

/// Maximum lineage traversal depth accepted by `get_lineage`.
pub const MAX_LINEAGE_DEPTH: u32 = 64;

/// Maximum nodes a single graph query (`get_ancestry` and friends) visits
/// before truncating, whatever budget the client asked for.
pub const MAX_GRAPH_NODES: usize = 4096;

/// Commit-time feeder for the materialized provenance DAG index.
///
/// Installed on every peer's [`Committer`](hyperprov_fabric::Committer);
/// the committer calls [`GraphIndexer::index`] for each applied write and
/// this implementation translates HyperProv's `item~<key>` record writes
/// into graph updates (parent edges from the decoded
/// [`ProvenanceRecord`], removals for deletes). Checksum-index writes and
/// foreign namespaces are ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct HyperProvIndexer;

impl GraphIndexer for HyperProvIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate> {
        if key.namespace.as_bytes() != CHAINCODE_NAME.as_bytes() {
            return None;
        }
        let key = item_of(&key.key)?.to_owned();
        match value {
            Some(bytes) => {
                let parents = ProvenanceRecord::parents_of(bytes).ok()?;
                Some(GraphUpdate::Insert { key, parents })
            }
            None => Some(GraphUpdate::Remove { key }),
        }
    }
}

/// The item a composite key `item~<key>~` names, `None` for any other key.
fn item_of(composite: &str) -> Option<&str> {
    let mut parts = ChaincodeStub::split_composite_key(composite);
    match (parts.next(), parts.next(), parts.next()) {
        (Some("item"), Some(item), None) => Some(item),
        _ => None,
    }
}

/// The HyperProv chaincode.
///
/// Install it on every peer of the channel:
///
/// ```
/// use hyperprov::HyperProvChaincode;
/// use hyperprov_fabric::{Chaincode, ChaincodeRegistry};
/// use std::sync::Arc;
///
/// let mut registry = ChaincodeRegistry::new();
/// registry.install(Arc::new(HyperProvChaincode::new()));
/// assert!(registry.get("hyperprov").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HyperProvChaincode {
    /// Reject posts whose parents are not on the ledger.
    require_parents: bool,
}

impl HyperProvChaincode {
    /// Creates the contract with parent validation enabled.
    pub fn new() -> Self {
        HyperProvChaincode {
            require_parents: true,
        }
    }

    /// Creates a permissive variant that does not check parent existence:
    /// a channel cannot see a parent posted on another, so the sharded
    /// campaigns (T-SHARDING, T-LINEAGE) that post cross-channel parents
    /// run it.
    pub fn permissive() -> Self {
        HyperProvChaincode {
            require_parents: false,
        }
    }

    fn item_key(stub: &ChaincodeStub<'_>, key: &str) -> Result<String, ChaincodeError> {
        stub.create_composite_key("item", &[key])
    }

    fn cs_key(
        stub: &ChaincodeStub<'_>,
        checksum: &Digest,
        key: &str,
    ) -> Result<String, ChaincodeError> {
        stub.create_composite_key("cs", &[&checksum.to_hex(), key])
    }

    fn load(
        stub: &mut ChaincodeStub<'_>,
        key: &str,
    ) -> Result<Option<ProvenanceRecord>, ChaincodeError> {
        let ik = Self::item_key(stub, key)?;
        match stub.get_state(&ik) {
            Some(bytes) => ProvenanceRecord::from_bytes(&bytes)
                .map(Some)
                .map_err(|e| ChaincodeError::Rejected(format!("corrupt record: {e}"))),
            None => Ok(None),
        }
    }

    fn post(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        if key.is_empty() || key.contains(hyperprov_fabric::COMPOSITE_SEP) {
            return Err(ChaincodeError::BadArgs("invalid item key".to_owned()));
        }
        let input = RecordInput::from_bytes(stub.arg_bytes(1)?)
            .map_err(|e| ChaincodeError::BadArgs(format!("malformed record input: {e}")))?;

        if self.require_parents {
            for parent in &input.parents {
                if parent == &key {
                    return Err(ChaincodeError::Rejected(
                        "item cannot be its own parent".to_owned(),
                    ));
                }
                if Self::load(stub, parent)?.is_none() {
                    return Err(ChaincodeError::Rejected(format!(
                        "parent {parent:?} does not exist"
                    )));
                }
            }
        }

        // If the key already exists this is a version update; drop the old
        // checksum index entry.
        if let Some(previous) = Self::load(stub, &key)? {
            if previous.checksum != input.checksum {
                let old_cs = Self::cs_key(stub, &previous.checksum, &key)?;
                stub.del_state(&old_cs);
            }
        }

        let record = ProvenanceRecord::from_input(key.clone(), input, stub.creator().clone());
        let ik = Self::item_key(stub, &key)?;
        let ck = Self::cs_key(stub, &record.checksum, &key)?;
        let bytes = record.to_bytes();
        stub.put_state(&ik, bytes.clone());
        stub.put_state(&ck, key.clone().into_bytes());
        stub.set_event("post", key.into_bytes());
        Ok(bytes)
    }

    fn get(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        match Self::load(stub, &key)? {
            Some(record) => Ok(record.to_bytes()),
            None => Err(ChaincodeError::NotFound(key)),
        }
    }

    fn get_history(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        let ik = Self::item_key(stub, &key)?;
        let entries: Vec<HistoryRecord> = stub
            .get_history_for_key(&ik)
            .into_iter()
            .map(|e| {
                let record = e
                    .value
                    .as_deref()
                    .and_then(|bytes| ProvenanceRecord::from_bytes(bytes).ok());
                HistoryRecord {
                    tx_id: e.tx_id.0,
                    block: e.version.block_num,
                    record,
                }
            })
            .collect();
        if entries.is_empty() {
            return Err(ChaincodeError::NotFound(key));
        }
        Ok(encode_history(&entries))
    }

    fn get_keys_by_checksum(
        &self,
        stub: &mut ChaincodeStub<'_>,
    ) -> Result<Vec<u8>, ChaincodeError> {
        let hex = stub.arg_str(0)?.to_owned();
        let checksum = Digest::from_hex(&hex)
            .ok_or_else(|| ChaincodeError::BadArgs("checksum must be 64 hex chars".to_owned()))?;
        let hits = stub.get_state_by_partial_composite_key("cs", &[&checksum.to_hex()])?;
        let keys: Vec<String> = hits
            .into_iter()
            .filter_map(|(_, v)| String::from_utf8(v).ok())
            .collect();
        Ok(keys.to_bytes())
    }

    /// Shared implementation of the graph queries (`get_lineage`,
    /// `get_ancestry`, `get_descendants`, `get_closure`, `get_subgraph`).
    ///
    /// Arguments: `args[0]` = max depth, `args[1]` = max nodes, `args[2..]`
    /// = depth-tagged roots `"<base_depth>:<key>"`. The base depth lets a
    /// sharded client continue a traversal mid-flight: boundary keys a
    /// previous shard reported at depth *d* re-enter here as roots at *d*,
    /// so the global depth budget stays consistent across shards. Answers
    /// come from the peer's materialized DAG index — no state reads, a few
    /// bytes per node — encoded as a [`GraphSlice`]; `get_lineage` then
    /// reads each entry's record from state, one read per record, and
    /// answers a [`LineageSlice`] (a root at depth 0 must be live).
    fn graph_query(
        &self,
        stub: &mut ChaincodeStub<'_>,
        direction: Direction,
    ) -> Result<Vec<u8>, ChaincodeError> {
        let graph = stub.graph().ok_or_else(|| {
            ChaincodeError::Rejected("peer maintains no provenance graph index".to_owned())
        })?;
        let max_depth: u32 = stub
            .arg_str(0)?
            .parse()
            .map_err(|_| ChaincodeError::BadArgs("depth must be an integer".to_owned()))?;
        let max_nodes: usize = stub
            .arg_str(1)?
            .parse()
            .map_err(|_| ChaincodeError::BadArgs("node budget must be an integer".to_owned()))?;
        let limits = TraversalLimits {
            max_depth: max_depth.min(MAX_LINEAGE_DEPTH),
            max_nodes: max_nodes.clamp(1, MAX_GRAPH_NODES),
        };
        let mut roots = Vec::with_capacity(stub.arg_count().saturating_sub(2));
        for i in 2..stub.arg_count() {
            let arg = stub.arg_str(i)?;
            let (depth, key) = arg.split_once(':').ok_or_else(|| {
                ChaincodeError::BadArgs(format!("root {i} must be \"<depth>:<key>\""))
            })?;
            let depth: u32 = depth
                .parse()
                .map_err(|_| ChaincodeError::BadArgs("root depth must be an integer".to_owned()))?;
            roots.push((depth, key.to_owned()));
        }
        if roots.is_empty() {
            return Err(ChaincodeError::BadArgs(
                "at least one root required".to_owned(),
            ));
        }
        let collect_edges = stub.function() == "get_subgraph";
        let traversal = graph.traverse(&roots, direction, limits, collect_edges);
        if stub.function() == "get_lineage" {
            if let Some((_, root)) = traversal.boundary.iter().find(|(depth, _)| *depth == 0) {
                return Err(ChaincodeError::NotFound(root.clone()));
            }
            let mut records = Vec::with_capacity(traversal.entries.len());
            for (_, key) in &traversal.entries {
                let record = Self::load(stub, key)?;
                let drift = || ChaincodeError::Rejected(format!("{key:?} indexed, not in state"));
                records.push(record.ok_or_else(drift)?);
            }
            let slice = GraphSlice::from(traversal);
            return Ok(LineageSlice { slice, records }.to_bytes());
        }
        let visited = (traversal.entries.len() + traversal.boundary.len()) as u64;
        let bytes = GraphSlice::from(traversal).to_bytes();
        stub.note_graph_visits(visited, bytes.len() as u64);
        Ok(bytes)
    }

    fn list(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let hits = stub.get_state_by_partial_composite_key("item", &[])?;
        let keys = hits.iter().filter_map(|(composite, _)| item_of(composite));
        Ok(keys.map(str::to_owned).collect::<Vec<_>>().to_bytes())
    }

    fn delete(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        let record = Self::load(stub, &key)?.ok_or(ChaincodeError::NotFound(key.clone()))?;
        let ik = Self::item_key(stub, &key)?;
        let ck = Self::cs_key(stub, &record.checksum, &key)?;
        stub.del_state(&ik);
        stub.del_state(&ck);
        stub.set_event("delete", key.into_bytes());
        Ok(Vec::new())
    }
}

impl Chaincode for HyperProvChaincode {
    fn name(&self) -> &str {
        CHAINCODE_NAME
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        match stub.function() {
            "post" => self.post(stub),
            "get" => self.get(stub),
            "get_history" => self.get_history(stub),
            "get_keys_by_checksum" => self.get_keys_by_checksum(stub),
            "get_lineage" | "get_ancestry" => self.graph_query(stub, Direction::Ancestors),
            "get_descendants" => self.graph_query(stub, Direction::Descendants),
            "get_closure" | "get_subgraph" => self.graph_query(stub, Direction::Both),
            "list" => self.list(stub),
            "delete" => self.delete(stub),
            other => Err(ChaincodeError::UnknownFunction(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperprov_fabric::{Certificate, MspBuilder, MspId};
    use hyperprov_ledger::{KvWrite, ProvGraph, StateDb, StateKey, TxId, Version};
    use std::collections::HashSet;

    /// A tiny single-peer harness that executes invocations and applies
    /// their write sets directly (no consensus), for chaincode-level tests.
    /// Maintains the provenance DAG index the way a committer would: every
    /// applied write runs through [`HyperProvIndexer`].
    struct Harness {
        cc: HyperProvChaincode,
        state: StateDb,
        graph: ProvGraph,
        cert: Certificate,
        next_height: u64,
    }

    impl Harness {
        fn new() -> Self {
            let mut b = MspBuilder::new(1);
            let cert = b
                .enroll("client", &MspId::new("org1"))
                .certificate()
                .clone();
            Harness {
                cc: HyperProvChaincode::new(),
                state: StateDb::new(),
                graph: ProvGraph::new(),
                cert,
                next_height: 1,
            }
        }

        fn invoke(
            &mut self,
            function: &str,
            args: Vec<Vec<u8>>,
        ) -> Result<Vec<u8>, ChaincodeError> {
            let mut stub =
                ChaincodeStub::new(CHAINCODE_NAME, function, &args, &self.cert, &self.state)
                    .with_graph(&self.graph);
            let result = self.cc.invoke(&mut stub);
            let (rwset, _, _) = stub.into_results();
            if result.is_ok() {
                let version = Version::new(self.next_height, 0);
                self.next_height += 1;
                let tx = TxId(Digest::of(&self.next_height.to_le_bytes()));
                for write in &rwset.writes {
                    self.state.apply_tx(tx, version, write);
                    if let Some(update) = HyperProvIndexer.index(&write.key, write.value.as_deref())
                    {
                        self.graph.apply(&update);
                    }
                }
            }
            result
        }

        /// Runs a depth-tagged graph query against the harness graph.
        fn graph_query(
            &mut self,
            function: &str,
            depth: u32,
            nodes: usize,
            roots: &[&str],
        ) -> Result<GraphSlice, ChaincodeError> {
            let mut args = vec![
                depth.to_string().into_bytes(),
                nodes.to_string().into_bytes(),
            ];
            args.extend(roots.iter().map(|k| format!("0:{k}").into_bytes()));
            let bytes = self.invoke(function, args)?;
            Ok(GraphSlice::from_bytes(&bytes).unwrap())
        }

        /// `root`'s lineage to `depth`, and the state reads it was charged.
        fn lineage(
            &mut self,
            root: &str,
            depth: u32,
        ) -> Result<(LineageSlice, u64), ChaincodeError> {
            let args = [
                depth.to_string(),
                MAX_GRAPH_NODES.to_string(),
                format!("0:{root}"),
            ];
            let args: Vec<Vec<u8>> = args.map(String::into_bytes).into();
            let mut stub = ChaincodeStub::new(
                CHAINCODE_NAME,
                "get_lineage",
                &args,
                &self.cert,
                &self.state,
            )
            .with_graph(&self.graph);
            let bytes = self.cc.invoke(&mut stub)?;
            let reads = stub.into_results().2.reads;
            Ok((LineageSlice::from_bytes(&bytes).unwrap(), reads))
        }

        fn post(
            &mut self,
            key: &str,
            input: &RecordInput,
        ) -> Result<ProvenanceRecord, ChaincodeError> {
            let bytes = self.invoke("post", vec![key.as_bytes().to_vec(), input.to_bytes()])?;
            Ok(ProvenanceRecord::from_bytes(&bytes).unwrap())
        }
    }

    fn input(data: &[u8]) -> RecordInput {
        RecordInput::new(Digest::of(data)).with_location("sshfs://s/x", data.len() as u64)
    }

    #[test]
    fn post_then_get() {
        let mut h = Harness::new();
        let rec = h.post("item1", &input(b"data")).unwrap();
        assert_eq!(rec.creator.subject, "client");
        let got = h.invoke("get", vec![b"item1".to_vec()]).unwrap();
        assert_eq!(ProvenanceRecord::from_bytes(&got).unwrap(), rec);
    }

    #[test]
    fn get_missing_fails() {
        let mut h = Harness::new();
        assert!(matches!(
            h.invoke("get", vec![b"ghost".to_vec()]),
            Err(ChaincodeError::NotFound(_))
        ));
    }

    #[test]
    fn post_rejects_missing_parent_and_self_parent() {
        let mut h = Harness::new();
        let bad = input(b"d").with_parents(vec!["nonexistent".into()]);
        assert!(matches!(
            h.post("child", &bad),
            Err(ChaincodeError::Rejected(_))
        ));
        let selfp = input(b"d").with_parents(vec!["loop".into()]);
        assert!(matches!(
            h.post("loop", &selfp),
            Err(ChaincodeError::Rejected(_))
        ));
        // Permissive variant allows it.
        let mut hp = Harness::new();
        hp.cc = HyperProvChaincode::permissive();
        assert!(hp.post("child", &bad).is_ok());
    }

    #[test]
    fn post_with_existing_parents_links_lineage() {
        let mut h = Harness::new();
        h.post("a", &input(b"a")).unwrap();
        h.post("b", &input(b"b")).unwrap();
        h.post("c", &input(b"c").with_parents(vec!["a".into(), "b".into()]))
            .unwrap();
        let (lineage, reads) = h.lineage("c", 5).unwrap();
        let keys: Vec<&str> = lineage.records.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["c", "a", "b"]);
        let depths: Vec<u32> = lineage.slice.entries.iter().map(|e| e.0).collect();
        assert_eq!(depths, vec![0, 1, 1]);
        // One state read per record, nothing per graph visit.
        assert_eq!(reads, 3);
    }

    #[test]
    fn lineage_depth_limit_and_diamond_dedup() {
        let mut h = Harness::new();
        // a <- b <- c, and a <- c directly (diamond).
        h.post("a", &input(b"a")).unwrap();
        h.post("b", &input(b"b").with_parents(vec!["a".into()]))
            .unwrap();
        h.post("c", &input(b"c").with_parents(vec!["b".into(), "a".into()]))
            .unwrap();
        // a appears once even though reachable along two paths, and the
        // walk reaching it at depth 1 is not cut short by the clamp.
        let (lineage, _) = h.lineage("c", 10).unwrap();
        assert_eq!(lineage.records.len(), 3);
        assert!(!lineage.slice.truncated);
        assert!(!h.lineage("c", 1).unwrap().0.slice.truncated);
        // Depth 0 only.
        let (lineage, _) = h.lineage("c", 0).unwrap();
        assert_eq!(lineage.records.len(), 1);
        assert!(lineage.slice.truncated);
        // A missing root is not found; a deleted parent is a boundary key.
        assert!(matches!(
            h.lineage("ghost", 3),
            Err(ChaincodeError::NotFound(_))
        ));
        h.invoke("delete", vec![b"a".to_vec()]).unwrap();
        let (lineage, reads) = h.lineage("c", 10).unwrap();
        assert_eq!((lineage.records.len(), reads), (2, 2));
        assert_eq!(lineage.slice.boundary, [(1, "a".to_owned())]);
    }

    #[test]
    fn history_tracks_versions_and_delete() {
        let mut h = Harness::new();
        h.post("item", &input(b"v1")).unwrap();
        h.post("item", &input(b"v2")).unwrap();
        h.invoke("delete", vec![b"item".to_vec()]).unwrap();
        // After delete, get_history still answers from the history index.
        let bytes = h.invoke("get_history", vec![b"item".to_vec()]).unwrap();
        let history = crate::record::decode_history(&bytes).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history[0].record.as_ref().unwrap().checksum,
            Digest::of(b"v1")
        );
        assert_eq!(
            history[1].record.as_ref().unwrap().checksum,
            Digest::of(b"v2")
        );
        assert!(history[2].record.is_none());
        // But get fails.
        assert!(h.invoke("get", vec![b"item".to_vec()]).is_err());
    }

    #[test]
    fn checksum_index_finds_all_items_and_updates() {
        let mut h = Harness::new();
        let cs = Digest::of(b"same-bytes");
        h.post("copy1", &RecordInput::new(cs)).unwrap();
        h.post("copy2", &RecordInput::new(cs)).unwrap();
        let bytes = h
            .invoke("get_keys_by_checksum", vec![cs.to_hex().into_bytes()])
            .unwrap();
        let keys = Vec::<String>::from_bytes(&bytes).unwrap();
        assert_eq!(keys, vec!["copy1", "copy2"]);
        // Re-post copy1 with different contents: index entry moves.
        h.post("copy1", &RecordInput::new(Digest::of(b"changed")))
            .unwrap();
        let bytes = h
            .invoke("get_keys_by_checksum", vec![cs.to_hex().into_bytes()])
            .unwrap();
        let keys = Vec::<String>::from_bytes(&bytes).unwrap();
        assert_eq!(keys, vec!["copy2"]);
    }

    #[test]
    fn list_returns_item_keys_only() {
        let mut h = Harness::new();
        h.post("zeta", &input(b"1")).unwrap();
        h.post("alpha", &input(b"2")).unwrap();
        let bytes = h.invoke("list", vec![]).unwrap();
        let keys = Vec::<String>::from_bytes(&bytes).unwrap();
        assert_eq!(keys, vec!["alpha", "zeta"]); // lexicographic
    }

    #[test]
    fn bad_arguments_rejected() {
        let mut h = Harness::new();
        assert!(matches!(
            h.invoke("post", vec![b"k".to_vec(), b"junk".to_vec()]),
            Err(ChaincodeError::BadArgs(_))
        ));
        assert!(matches!(
            h.invoke("post", vec![Vec::new(), input(b"x").to_bytes()]),
            Err(ChaincodeError::BadArgs(_))
        ));
        assert!(matches!(
            h.invoke("get_keys_by_checksum", vec![b"nothex".to_vec()]),
            Err(ChaincodeError::BadArgs(_))
        ));
        assert!(matches!(
            h.invoke(
                "get_lineage",
                vec![b"NaN".to_vec(), b"9".to_vec(), b"0:k".to_vec()]
            ),
            Err(ChaincodeError::BadArgs(_))
        ));
        assert!(matches!(
            h.invoke("frobnicate", vec![]),
            Err(ChaincodeError::UnknownFunction(_))
        ));
    }

    /// a <- b, a <- c, {b,c} <- d: the classic diamond.
    fn diamond() -> Harness {
        let mut h = Harness::new();
        h.post("a", &input(b"a")).unwrap();
        h.post("b", &input(b"b").with_parents(vec!["a".into()]))
            .unwrap();
        h.post("c", &input(b"c").with_parents(vec!["a".into()]))
            .unwrap();
        h.post("d", &input(b"d").with_parents(vec!["b".into(), "c".into()]))
            .unwrap();
        h
    }

    #[test]
    fn graph_ancestry_is_the_lineage_without_records() {
        let mut h = diamond();
        let slice = h.graph_query("get_ancestry", 10, 100, &["d"]).unwrap();
        let mut keys: Vec<&str> = slice.entries.iter().map(|(_, k)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["a", "b", "c", "d"]);
        assert!(!slice.truncated);
        assert!(slice.boundary.is_empty());
        // The lineage is the same traversal, carrying each entry's record.
        let (lineage, _) = h.lineage("d", 10).unwrap();
        assert_eq!(lineage.slice, slice);
        let records: Vec<&str> = lineage.records.iter().map(|r| r.key.as_str()).collect();
        let entries: Vec<&str> = slice.entries.iter().map(|(_, k)| k.as_str()).collect();
        assert_eq!(records, entries);
    }

    #[test]
    fn graph_descendants_and_closure() {
        let mut h = diamond();
        let down = h.graph_query("get_descendants", 10, 100, &["a"]).unwrap();
        let keys: HashSet<&str> = down.entries.iter().map(|(_, k)| k.as_str()).collect();
        assert_eq!(keys, HashSet::from(["a", "b", "c", "d"]));
        // Closure from a middle node reaches both directions.
        let both = h.graph_query("get_closure", 10, 100, &["b"]).unwrap();
        let keys: HashSet<&str> = both.entries.iter().map(|(_, k)| k.as_str()).collect();
        assert_eq!(keys, HashSet::from(["a", "b", "c", "d"]));
        // Subgraph also reports the edges between visited nodes.
        let sub = h.graph_query("get_subgraph", 10, 100, &["b"]).unwrap();
        assert!(sub.edges.contains(&("b".to_owned(), "a".to_owned())));
        assert!(sub.edges.contains(&("d".to_owned(), "b".to_owned())));
    }

    #[test]
    fn graph_query_reports_truncation_and_boundary() {
        let mut h = diamond();
        // Depth 1 from d stops before a: truncated, no boundary (b and c
        // are live locally).
        let slice = h.graph_query("get_ancestry", 1, 100, &["d"]).unwrap();
        assert!(slice.truncated);
        let keys: HashSet<&str> = slice.entries.iter().map(|(_, k)| k.as_str()).collect();
        assert_eq!(keys, HashSet::from(["d", "b", "c"]));
        // Deleting a parent leaves a boundary marker instead of an entry.
        h.invoke("delete", vec![b"a".to_vec()]).unwrap();
        let slice = h.graph_query("get_ancestry", 10, 100, &["d"]).unwrap();
        assert_eq!(slice.boundary, vec![(2, "a".to_owned())]);
    }

    #[test]
    fn graph_query_requires_index_and_valid_roots() {
        let mut h = Harness::new();
        h.post("a", &input(b"a")).unwrap();
        // Malformed root tag.
        assert!(matches!(
            h.invoke(
                "get_ancestry",
                vec![b"5".to_vec(), b"10".to_vec(), b"no-depth-tag".to_vec()],
            ),
            Err(ChaincodeError::BadArgs(_))
        ));
        // No roots at all.
        assert!(matches!(
            h.invoke("get_ancestry", vec![b"5".to_vec(), b"10".to_vec()]),
            Err(ChaincodeError::BadArgs(_))
        ));
        // A stub without a graph index rejects the query outright.
        let args = vec![b"5".to_vec(), b"10".to_vec(), b"0:a".to_vec()];
        let mut stub = ChaincodeStub::new(CHAINCODE_NAME, "get_ancestry", &args, &h.cert, &h.state);
        assert!(matches!(
            h.cc.invoke(&mut stub),
            Err(ChaincodeError::Rejected(_))
        ));
    }

    #[test]
    fn indexer_tracks_item_writes_only() {
        let mut h = Harness::new();
        h.post("a", &input(b"a")).unwrap();
        h.post("b", &input(b"b").with_parents(vec!["a".into()]))
            .unwrap();
        // Only the two item records are graph nodes; checksum-index
        // writes and the cs~ tombstones never reach the graph.
        assert_eq!(h.graph.len(), 2);
        assert_eq!(h.graph.parents_of("b").unwrap(), vec!["a"]);
        // Foreign namespaces are ignored entirely.
        let foreign = StateKey::new("other-cc", "item\u{1}x\u{1}");
        assert!(HyperProvIndexer.index(&foreign, Some(b"junk")).is_none());
        // Deletes tombstone the node.
        h.invoke("delete", vec![b"b".to_vec()]).unwrap();
        assert!(!h.graph.contains("b"));
        assert_eq!(h.graph.len(), 1);
    }

    #[test]
    fn indexer_reads_parents_of_whole_valid_records_only() {
        let mut h = Harness::new();
        h.post("a", &input(b"a")).unwrap();
        h.post("c", &input(b"c")).unwrap();
        let record = h
            .post("b", &input(b"b").with_parents(vec!["a".into(), "c".into()]))
            .unwrap();
        let key = StateKey::new(CHAINCODE_NAME, "item\u{1}b\u{1}");
        let good = record.to_bytes();
        assert_eq!(
            HyperProvIndexer.index(&key, Some(&good)),
            Some(GraphUpdate::Insert {
                key: "b".into(),
                parents: record.parents.clone(),
            })
        );
        // Garbage in a field before the parent list, after it, or beyond
        // the record's end: no update, as when the indexer decoded the
        // whole record and dropped what did not decode.
        let mut padded_key_length = good.clone();
        padded_key_length.splice(0..1, [good[0] | 0x80, 0x00]);
        let mut bad_utf8_key = good.clone();
        bad_utf8_key[1] = 0xFF;
        let mut bad_utf8_metadata = h
            .post("m", &input(b"m").with_meta("k", "v"))
            .unwrap()
            .to_bytes();
        let value_at = bad_utf8_metadata.len() - 9;
        bad_utf8_metadata[value_at] = 0xFF;
        let mut trailing = good.clone();
        trailing.push(0);
        for bytes in [
            &padded_key_length,
            &bad_utf8_key,
            &bad_utf8_metadata,
            &trailing,
            &good[..good.len() - 1].to_vec(),
            &vec![0xFF],
        ] {
            assert!(ProvenanceRecord::from_bytes(bytes).is_err());
            assert_eq!(HyperProvIndexer.index(&key, Some(bytes)), None);
        }
        // A key that is not exactly `item~<key>~` is no record.
        for other in ["item\u{1}b\u{1}x\u{1}", "item\u{1}", "cs\u{1}b\u{1}"] {
            let key = StateKey::new(CHAINCODE_NAME, other);
            assert_eq!(HyperProvIndexer.index(&key, Some(&good)), None);
        }
    }

    #[test]
    fn creator_comes_from_transaction_not_input() {
        // Even though RecordInput has no creator field, double-check the
        // stored creator matches the stub's certificate.
        let mut h = Harness::new();
        let rec = h.post("item", &input(b"x")).unwrap();
        assert_eq!(rec.creator, h.cert);
    }

    #[test]
    fn corrupt_stored_record_reported() {
        let mut h = Harness::new();
        h.post("item", &input(b"x")).unwrap();
        // Corrupt the stored bytes directly.
        let sep = hyperprov_fabric::COMPOSITE_SEP;
        let ik = format!("item{sep}item{sep}");
        h.state.apply_write(
            &KvWrite {
                key: StateKey::new(CHAINCODE_NAME, ik),
                value: Some(vec![0xFF].into()),
            },
            Version::new(99, 0),
        );
        assert!(matches!(
            h.invoke("get", vec![b"item".to_vec()]),
            Err(ChaincodeError::Rejected(_))
        ));
    }
}
